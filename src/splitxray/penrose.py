"""Contour-integral transform of rational twistor functions.

Inputs are products of integer powers of complex linear forms on C^4 with
total homogeneity -2; evaluated over the same circle of real vectors as the
X-ray engine, they produce complex weight -1 frame fields whose chart
restrictions solve the John equation.  Poles are kept away from the
integration circle by an explicit per-factor safety margin; the transform
refuses rather than returning inaccurate values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Frame, plane_from_chart
from .operators import ChartField
from .xray import QuadratureSpec, circle_integral, circle_points

DEFAULT_POLE_MARGIN = 1e-3
# The pole scan samples the 1024 uniform angles of this rule; their cos and
# sin are computed once, here.
_SAFETY_GRID = QuadratureSpec(1024)


class PoleProximityError(ValueError):
    """A pole of the integrand comes too close to the integration circle."""


@dataclass(frozen=True)
class TwistorRationalFunction:
    """scale * prod_k (A_k . Z)^{m_k} for complex covectors A_k.

    The homogeneity is the exponent sum; the pole locus is the union of the
    hyperplanes A_k . Z = 0 over negative exponents.
    """

    factors: tuple
    scale: complex = 1.0 + 0.0j

    def __post_init__(self):
        factors = tuple((np.asarray(a, dtype=complex), int(m))
                        for a, m in self.factors)
        for a, _ in factors:
            if a.shape != (4,):
                raise ValueError("factor covectors must be complex 4-vectors")
            if not np.any(a):
                raise ValueError("factor covector must be nonzero")
        object.__setattr__(self, "factors", factors)

    @property
    def homogeneity(self):
        return sum(m for _, m in self.factors)

    def __call__(self, z):
        """Evaluate at z of shape (..., 4), real or complex; vectorized."""
        z = np.asarray(z, dtype=complex)
        out = np.full(z.shape[:-1], self.scale, dtype=complex)
        for a, m in self.factors:
            out = out * (z @ a) ** m
        return out

    def __mul__(self, c):
        return TwistorRationalFunction(self.factors, self.scale * c)

    __rmul__ = __mul__


def elementary_state(a, b) -> TwistorRationalFunction:
    """1/((A.Z)(B.Z)) for non-proportional covectors; homogeneity -2."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    s = np.linalg.svd(np.vstack([a, b]), compute_uv=False)
    if s[1] <= 1e-12 * s[0]:
        raise ValueError("covectors are proportional: the state is singular "
                         "on its whole incidence set")
    return TwistorRationalFunction(((a, -1), (b, -1)))


@dataclass(frozen=True)
class PoleSafetyReport:
    """Per-factor minimum of |A . (u cos + v sin)| over a dense angle grid."""

    minima: tuple
    margin: float = DEFAULT_POLE_MARGIN

    @property
    def ok(self):
        return all(m > self.margin for m in self.minima)


def pole_safety(f: TwistorRationalFunction, frame: Frame,
                margin=DEFAULT_POLE_MARGIN) -> PoleSafetyReport:
    minima = []
    for a, _ in f.factors:
        w = (frame.u @ a) * _SAFETY_GRID.cos + (frame.v @ a) * _SAFETY_GRID.sin
        minima.append(float(np.min(np.abs(w))))
    return PoleSafetyReport(tuple(minima), margin)


def contour_transform(f: TwistorRationalFunction, frame: Frame,
                      q: QuadratureSpec = QuadratureSpec(),
                      margin=DEFAULT_POLE_MARGIN):
    """Circle integral of f over the frame (same nodes as the X-ray engine).

    Requires homogeneity -2 and a pole-safe frame; the result is a weight
    -1 frame field whose chart restriction has vanishing John residual.
    """
    if f.homogeneity != -2:
        raise ValueError(
            f"contour transform needs homogeneity -2, got {f.homogeneity}")
    report = pole_safety(f, frame, margin)
    if not report.ok:
        k = int(np.argmin(report.minima))
        raise PoleProximityError(
            f"factor {k} passes within {report.minima[k]:.3e} of the "
            f"integration circle (margin {margin:.3e})")
    return circle_integral(f(circle_points(frame, q)), q)


def contour_chart_field(f: TwistorRationalFunction,
                        q: QuadratureSpec = QuadratureSpec(),
                        margin=DEFAULT_POLE_MARGIN) -> ChartField:
    """Chart restriction of the contour transform (complex-valued)."""

    def phi(X):
        return contour_transform(f, plane_from_chart(X), q, margin)

    return ChartField(phi)


def wedge_pairing(a, b, frame: Frame):
    """(A wedge B) . (u wedge v) = (A.u)(B.v) - (A.v)(B.u).

    The contour transform of an elementary state is a constant multiple of
    the reciprocal of this pairing on each pole-safe component.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return (frame.u @ a) * (frame.v @ b) - (frame.v @ a) * (frame.u @ b)


def factor_orientation(f: TwistorRationalFunction, frame: Frame):
    """Per-factor winding signs labeling the pole-safe component.

    For a factor covector A the restriction of A . Z to the circle of the
    frame is alpha cos + beta sin; its zero pair in the complexified angle
    sits inside or outside the unit circle according to the sign of
    Im(conj(alpha) beta).  Two pole-safe frames with equal sign tuples lie
    in the same component, where ratio laws such as the elementary-state
    wedge identity hold with one constant.
    """
    signs = []
    for a, _ in f.factors:
        alpha = complex(frame.u @ a)
        beta = complex(frame.v @ a)
        signs.append(1 if (np.conj(alpha) * beta).imag > 0 else -1)
    return tuple(signs)


def normalized_pole_margin(f: TwistorRationalFunction, frame: Frame):
    """Worst per-factor circle distance, scaled by covector and frame size.

    Values of order one mean the quadrature converges fast; values near
    zero mean poles hug the circle and many nodes would be needed.
    """
    report = pole_safety(f, frame)
    scale = max(np.linalg.norm(frame.u), np.linalg.norm(frame.v))
    return min(m / (np.linalg.norm(a) * scale)
               for m, (a, _) in zip(report.minima, f.factors))
