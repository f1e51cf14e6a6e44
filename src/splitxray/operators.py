"""Ultrahyperbolic operators and finite-difference residual machinery.

The same second-order operator appears in two coordinate systems: as the
John operator d2/dX11 dX22 - d2/dX12 dX21 on the affine chart of 2-planes,
and as the diagonal signature-(2,2) wave operator on R^4.  chart_to_diag /
diag_to_chart implement the fixed linear change of variables identifying
the two, normalized so that the John operator pulls back to exactly one
quarter of the diagonal operator.

Everything here verifies residuals of candidate solutions; nothing solves
a PDE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .defaults import DEFAULTS


def worst_residual(values):
    """Largest of the residuals, 0.0 for none, and NaN if any is NaN.

    Every check reduces its residuals with this.  Python's max() keeps its
    running value when compared with a NaN, so a NaN after the first value
    would vanish and the check would pass.
    """
    return float(np.max(np.fromiter(values, dtype=float), initial=0.0))


_E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
_E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
_E21 = np.array([[0.0, 0.0], [1.0, 0.0]])
_E22 = np.array([[0.0, 0.0], [0.0, 1.0]])


@dataclass(frozen=True)
class FDSpec:
    """Central-difference step and Richardson-extrapolation switch."""

    h: float = DEFAULTS["fd_step"]
    richardson: bool = DEFAULTS["richardson"]

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError("finite-difference step must be positive")


@dataclass(frozen=True)
class ChartField:
    """A scalar (or complex) field on the 2x2 affine chart.

    `partials`, when given, maps X to the 2x2 array of first partial
    derivatives and is expected to agree with central differences to
    O(h^2); see partials_residual.
    """

    eval: Callable
    partials: Optional[Callable] = None

    def __call__(self, X):
        return self.eval(np.asarray(X, dtype=float))


def partials_residual(field: ChartField, X, fd: FDSpec = FDSpec()):
    """Max deviation of the declared analytic partials from central differences."""
    if field.partials is None:
        raise ValueError("field declares no analytic partials")
    X = np.asarray(X, dtype=float)
    analytic = np.asarray(field.partials(X))
    units = (_E11, _E12, _E21, _E22)
    return worst_residual(abs(a - _first_diff(field, X, e, fd))
                          for a, e in zip(analytic.ravel(), units))


def _first_diff_step(phi, X, direction, h):
    return (phi(X + h * direction) - phi(X - h * direction)) / (2.0 * h)


def _first_diff(phi, X, direction, fd: FDSpec):
    d = _first_diff_step(phi, X, direction, fd.h)
    if not fd.richardson:
        return d
    d2 = _first_diff_step(phi, X, direction, fd.h / 2.0)
    return (4.0 * d2 - d) / 3.0


def _mixed_step(phi, X, da, db, h):
    """4-point cross stencil for the mixed second partial along da, db."""
    return (phi(X + h * (da + db)) - phi(X + h * (da - db))
            - phi(X - h * (da - db)) + phi(X - h * (da + db))
            ) / (4.0 * h * h)


def john_operator(phi, X, fd: FDSpec = FDSpec()):
    """d2 phi / dX11 dX22 - d2 phi / dX12 dX21 by central differences.

    phi may be a ChartField or any callable of a 2x2 array.  With
    fd.richardson the stencil is evaluated at h and h/2 and combined to
    cancel the leading error term.
    """
    X = np.asarray(X, dtype=float)

    def step(h):
        return _mixed_step(phi, X, _E11, _E22, h) - _mixed_step(phi, X, _E12, _E21, h)

    v = step(fd.h)
    if not fd.richardson:
        return v
    return (4.0 * step(fd.h / 2.0) - v) / 3.0


# Linear identification between the chart and the diagonal coordinates.
# diag_to_chart(x) = [[x1+x4, x2+x3], [x3-x2, x1-x4]]; with this choice the
# John operator equals exactly (1/4) * box_diag on pulled-back fields.
_DIAG_TO_CHART = np.array([
    [1.0, 0.0, 0.0, 1.0],    # X11
    [0.0, 1.0, 1.0, 0.0],    # X12
    [0.0, -1.0, 1.0, 0.0],   # X21
    [1.0, 0.0, 0.0, -1.0],   # X22
])
_CHART_TO_DIAG = np.linalg.inv(_DIAG_TO_CHART)


def diag_to_chart(x):
    """Map diagonal coordinates in R^4 to the 2x2 chart matrix."""
    x = np.asarray(x, dtype=float)
    if x.shape != (4,):
        raise ValueError("expected a 4-vector")
    return (_DIAG_TO_CHART @ x).reshape(2, 2)


def chart_to_diag(X):
    """Inverse of diag_to_chart."""
    X = np.asarray(X, dtype=float)
    if X.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    return _CHART_TO_DIAG @ X.reshape(4)


_BOX_SIGNS = (1.0, 1.0, -1.0, -1.0)


def _axis(i):
    e = np.zeros(4)
    e[i] = 1.0
    return e


def _covariant_partial(coeff, psi, x, i, h):
    """First-order covariant difference (d_i + A_i) psi at x, step h.

    `coeff` maps x to the matrix A_i(x), or is None for the flat case; the
    derivative part is a plain central difference.
    """
    e = _axis(i)
    d = (np.asarray(psi(x + h * e)) - np.asarray(psi(x - h * e))) / (2.0 * h)
    if coeff is None:
        return d
    return d + np.asarray(coeff(x)) @ np.asarray(psi(x))


def _coupled_box_step(A, psi, x, h):
    total = None
    for i, sign in enumerate(_BOX_SIGNS):
        coeff = None if A is None else (lambda y, i=i: A.coefficient(i, y))

        def first(y, i=i, coeff=coeff):
            return _covariant_partial(coeff, psi, y, i, h)

        second = _covariant_partial(coeff, first, x, i, h)
        total = sign * second if total is None else total + sign * second
    return total


def coupled_box(A, psi, x, fd: FDSpec = FDSpec()):
    """The signature-(2,2) wave operator coupled to a connection.

    Computes sum_i s_i (d_i + A_i)^2 psi with signs (+,+,-,-), built from
    two nested first-order covariant differences; the connection
    coefficients enter analytically.  A is any object with
    coefficient(i, x) -> matrix, or None for the flat operator.  psi must
    return arrays of a shape the coefficients can left-multiply (flat case:
    any shape, scalars included).
    """
    x = np.asarray(x, dtype=float)
    if A is not None:
        probe = np.asarray(psi(x))
        n = A.coefficient(0, x).shape[0]
        if probe.ndim == 0 or probe.shape[0] != n:
            raise ValueError(
                f"section shape {probe.shape} does not match bundle rank {n}")
    v = _coupled_box_step(A, psi, x, fd.h)
    if not fd.richardson:
        return v
    return (4.0 * _coupled_box_step(A, psi, x, fd.h / 2.0) - v) / 3.0


def box_diag(psi, x, fd: FDSpec = FDSpec()):
    """d1^2 + d2^2 - d3^2 - d4^2 by central differences (flat coupled_box)."""
    return coupled_box(None, psi, np.asarray(x, dtype=float), fd)


def dn_residual(m, X, fd: FDSpec = FDSpec()):
    """Consistency residual of a moment field at a chart point.

    For components phi_0..phi_n the transform identities give
    d phi_k / dX_2j = d phi_{k+1} / dX_1j for j in {1,2} and k < n; the
    returned value is the max absolute deviation over all (k, j).
    """
    if m.n == 0:
        raise ValueError("no consistency relations at n = 0; use john_operator")
    X = np.asarray(X, dtype=float)
    row1 = (_E11, _E12)
    row2 = (_E21, _E22)
    return worst_residual(
        abs(_first_diff(m.components[k], X, row2[j], fd)
            - _first_diff(m.components[k + 1], X, row1[j], fd))
        for k in range(m.n) for j in range(2))
