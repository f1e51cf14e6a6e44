"""Ultrahyperbolic operators and finite-difference residual machinery.

The same second-order operator appears in two coordinate systems: as the
John operator d2/dX11 dX22 - d2/dX12 dX21 on the affine chart of 2-planes,
and as the diagonal signature-(2,2) wave operator on R^4.  chart_to_diag /
diag_to_chart implement the fixed linear change of variables identifying
the two, normalized so that the John operator pulls back to exactly one
quarter of the diagonal operator.

Every stencil here takes one positive step h (default defaults.FD_STEP),
central differences at h and h/2, and Richardson-extrapolates them,
(4 d(h/2) - d(h)) / 3, which cancels the leading error term and makes
the result fourth order in h.

A chart field is any callable that maps a stack of chart points of shape
(m, 2, 2) to m values, shaped (m,) or (m, n+1), such as xray_chart_field,
np.linalg.det or a function indexing X[..., i, j]; a stencil evaluates all
its points in one call.

Everything here verifies residuals of candidate solutions; nothing solves
a PDE.
"""

from __future__ import annotations

import numpy as np

from .defaults import FD_STEP


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


def _steps(h):
    """The two steps of a stencil, h and h/2; h must be positive."""
    if not h > 0.0:
        raise ValueError("finite-difference step must be positive")
    return h, h / 2.0


def _extrapolate(d_h, d_half):
    """(4 d(h/2) - d(h)) / 3, which cancels the leading error term."""
    return (4.0 * d_half - d_h) / 3.0


def _stencil(phi, X, offsets, h):
    """(steps, values): phi at X + s * offset for each step s of h and h/2
    and each offset, in one call of phi on an (m, 2, 2) stack of chart
    points; values has shape (2, len(offsets), ...)."""
    X = np.asarray(X, dtype=float)
    steps = _steps(h)
    points = np.stack([X + s * offsets for s in steps]).reshape(-1, 2, 2)
    values = np.asarray(phi(points))
    if values.shape[:1] != points.shape[:1]:
        raise ValueError(f"stacked field returned shape {values.shape} "
                         f"for {len(points)} chart points")
    return steps, values.reshape((len(steps), len(offsets)) + values.shape[1:])


_UNITS = np.array([_E11, _E12, _E21, _E22])
# X + h e and X - h e for each unit e, in the order of _UNITS
_GRADIENT_OFFSETS = np.stack([_UNITS, -_UNITS], axis=1).reshape(-1, 2, 2)


def _gradient(phi, X, h):
    """Central differences along E11, E12, E21, E22, shape (4, ...)."""
    steps, v = _stencil(phi, X, _GRADIENT_OFFSETS, h)
    return _extrapolate(*[(v[i, 0::2] - v[i, 1::2]) / (2.0 * s)
                          for i, s in enumerate(steps)])


# The 4-point cross stencil of the mixed second partial along (da, db) has
# the points X + h (da + db), X + h (da - db), X - h (da - db) and
# X - h (da + db); John's operator takes it along (E11, E22) and (E12, E21).
_JOHN_OFFSETS = np.array([sign * (da + flip * db)
                          for da, db in ((_E11, _E22), (_E12, _E21))
                          for sign, flip in ((1, 1), (1, -1), (-1, -1), (-1, 1))])


def _mixed(v, h):
    return (v[0] - v[1] - v[2] + v[3]) / (4.0 * h * h)


def john_operator(phi, X, h=FD_STEP):
    """d2 phi / dX11 dX22 - d2 phi / dX12 dX21 by central differences at
    steps h and h/2, Richardson-extrapolated.

    phi is a chart field (see the module docstring); all 16 stencil points
    go to it in one call.
    """
    steps, v = _stencil(phi, X, _JOHN_OFFSETS, h)
    return _extrapolate(*[_mixed(v[i, :4], s) - _mixed(v[i, 4:], s)
                          for i, s in enumerate(steps)])


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


def coupled_box(A, psi, x, h=FD_STEP):
    """The signature-(2,2) wave operator coupled to a connection.

    Computes sum_i s_i (d_i + A_i)^2 psi with signs (+,+,-,-), built from
    two nested first-order covariant differences at steps h and h/2,
    Richardson-extrapolated; the connection coefficients enter
    analytically.  A is any object with coefficient(i, x) -> matrix, or
    None for the flat operator.  psi must return arrays of a shape the
    coefficients can left-multiply (flat case: any shape, scalars
    included).
    """
    x = np.asarray(x, dtype=float)
    if A is not None:
        probe = np.asarray(psi(x))
        n = A.coefficient(0, x).shape[0]
        if probe.ndim == 0 or probe.shape[0] != n:
            raise ValueError(
                f"section shape {probe.shape} does not match bundle rank {n}")
    return _extrapolate(*[_coupled_box_step(A, psi, x, s) for s in _steps(h)])


def box_diag(psi, x, h=FD_STEP):
    """d1^2 + d2^2 - d3^2 - d4^2 by central differences (flat coupled_box)."""
    return coupled_box(None, psi, np.asarray(x, dtype=float), h)


def dn_residual(phi, X, h=FD_STEP):
    """Consistency residual of a moment field at a chart point.

    phi is a chart field whose values have a trailing axis of length n+1,
    the components phi_0..phi_n, as moment_chart_field gives.  The
    transform identities give d phi_k / dX_2j = d phi_{k+1} / dX_1j for j
    in {1,2} and k < n; the returned value is the max absolute deviation
    over all (k, j).  All 16 stencil points go to phi in one call.
    """
    d = _gradient(phi, X, h)
    # rows of d: E11, E12 (row 1 of the chart), E21, E22 (row 2); columns
    # phi_0..phi_n, none for a scalar field
    n = d.shape[1] - 1 if d.ndim == 2 else 0
    if n == 0:
        raise ValueError("no consistency relations at n = 0; use john_operator")
    return worst_residual(abs(d[2 + j, k] - d[j, k + 1])
                          for k in range(n) for j in range(2))
