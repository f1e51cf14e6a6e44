"""Contour-integral transform of rational twistor functions.

Inputs are products of integer powers of complex linear forms on C^4 with
total degree -2; evaluated over the same circle of real vectors as the
X-ray engine, they produce complex weight -1 frame fields whose chart
restrictions solve the John equation.

On the circle of a frame (u, v) a factor A . Z restricts to
alpha cos + beta sin with alpha = A . u and beta = A . v.  Everything the
transform needs to know about that factor's poles follows from these two
numbers in closed form: the exact distance of the circle from the pole
locus, the side of the unit circle its complexified zeros lie on, and the
half-width of the strip |Im theta| < d in which the integrand is analytic,
which sets the e^(-n d) convergence of the n-node trapezoid rule.  The
transform refuses frames whose circle passes within a margin of a pole
rather than returning inaccurate values.

A function keeps its covectors, from construction on, also as Python
complex numbers, with their exponents and norms.  The pole geometry of
pole_safety, factor_orientation, normalized_pole_margin and the checks of
contour_transform and contour_chart_field reads every factor's alpha and
beta from one helper that takes them and the frame rows as lists, afresh
on each call; nothing is cached per frame.  The integrand is never
evaluated from alpha cos + beta sin: the transform integrates f on the
circle points of the X-ray engine, bit for bit, behind its degree gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .defaults import POLE_MARGIN
from .geometry import Frame, chart_frame_rows
from .xray import (QuadratureSpec, circle_integral, circle_points,
                   require_degree)


class PoleProximityError(ValueError):
    """A pole of the integrand comes too close to the integration circle."""


@dataclass(frozen=True)
class TwistorRationalFunction:
    """scale * prod_k (A_k . Z)^{m_k} for complex covectors A_k.

    The degree, stored at construction, is the exponent sum; the pole
    locus is the union of the hyperplanes A_k . Z = 0 over negative
    exponents.  Construction also keeps the covectors as tuples of Python
    complex numbers, and their exponents and norms.
    """

    factors: tuple
    scale: complex = 1.0 + 0.0j
    degree: int = field(init=False)
    _columns: tuple = field(init=False, repr=False, compare=False)
    _exponents: tuple = field(init=False, repr=False, compare=False)
    _norms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        factors = tuple((np.asarray(a, dtype=complex), int(m))
                        for a, m in self.factors)
        for a, _ in factors:
            if a.shape != (4,):
                raise ValueError("factor covectors must be complex 4-vectors")
            if not np.any(a):
                raise ValueError("factor covector must be nonzero")
        for name, value in (
                ("factors", factors),
                ("_columns", tuple(tuple(a.tolist()) for a, _ in factors)),
                ("_exponents", tuple(m for _, m in factors)),
                ("_norms", tuple(math.sqrt(np.vdot(a, a).real)
                                 for a, _ in factors))):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "degree", sum(self._exponents))

    def __call__(self, z):
        """Evaluate at z of shape (..., 4), real or complex; vectorized.

        One matrix-vector product per factor: at two factors a single
        product with a (4, K) covector matrix runs no faster, and its
        matrix-matrix kernel raises the peak memory of a contour sweep.
        """
        z = np.asarray(z, dtype=complex)
        out = np.full(z.shape[:-1], self.scale, dtype=complex)
        for a, m in self.factors:
            out = out * (z @ a) ** m
        return out


def elementary_state(a, b) -> TwistorRationalFunction:
    """1/((A.Z)(B.Z)) for non-proportional covectors; degree -2."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    s = np.linalg.svd(np.vstack([a, b]), compute_uv=False)
    if s[1] <= 1e-12 * s[0]:
        raise ValueError("covectors are proportional: the state is singular "
                         "on its whole incidence set")
    return TwistorRationalFunction(((a, -1), (b, -1)))


@dataclass(frozen=True)
class PoleSafetyReport:
    """Per-factor pole geometry of the circle of a frame.

    minima[k] is the exact minimum over the circle of |A_k . (u cos + v sin)|
    and half_widths[k] the half-width d_k of the strip |Im theta| < d_k free
    of that factor's zeros; the trapezoid error of the transform decays like
    e^(-n min_k d_k).  A factor with a nonnegative exponent puts no pole
    anywhere, so its minimum and half-width are inf.
    """

    minima: tuple
    margin: float
    half_widths: tuple

    @property
    def ok(self):
        return all(m > self.margin for m in self.minima)


def _coefficients(f: TwistorRationalFunction, u, v):
    """Every factor's (alpha, beta), with A_k . (u cos + v sin) =
    alpha_k cos + beta_k sin, for frame rows u and v given as lists of four
    floats.  At this size sums of Python scalars cost less than array
    products."""
    u0, u1, u2, u3 = u
    v0, v1, v2, v3 = v
    return [(u0 * a0 + u1 * a1 + u2 * a2 + u3 * a3,
             v0 * a0 + v1 * a1 + v2 * a2 + v3 * a3)
            for a0, a1, a2, a3 in f._columns]


def _pole_geometry(alpha, beta):
    """Exact circle minimum and strip half-width of alpha cos + beta sin.

    |alpha cos + beta sin|^2 is the quadratic form of the real symmetric
    matrix M = [[|alpha|^2, Re], [Re, |beta|^2]] (Re, Im of conj(alpha)
    beta) on (cos, sin), and det M = Im^2, so the minimum is
    sqrt(lambda_min) = |Im| / sqrt(lambda_max): exactly 0 when Im = 0.  The
    zeros sit at Im theta = +-(1/2) ln(|alpha + i beta| / |alpha - i beta|);
    since |alpha -+ i beta|^2 = |alpha|^2 + |beta|^2 +- 2 Im, that
    half-width is (1/2) atanh(2 |Im| / (|alpha|^2 + |beta|^2)), which stays
    accurate when Im is small.
    """
    cross = alpha.conjugate() * beta
    aa = alpha.real ** 2 + alpha.imag ** 2
    bb = beta.real ** 2 + beta.imag ** 2
    trace = aa + bb
    if trace == 0.0:
        # the whole plane lies in the factor's zero hyperplane
        return 0.0, 0.0
    lam_max = 0.5 * (trace + math.hypot(aa - bb, 2.0 * cross.real))
    minimum = abs(cross.imag) / math.sqrt(lam_max)
    ratio = min(2.0 * abs(cross.imag) / trace, 1.0)
    return minimum, (math.inf if ratio == 1.0 else 0.5 * math.atanh(ratio))


def _factor_geometry(f: TwistorRationalFunction, u, v):
    """Every factor's (minimum, half-width) from _pole_geometry, for frame
    rows given as lists (see _coefficients); (inf, inf) for a factor with a
    nonnegative exponent, whose zeros are zeros of the integrand, not
    poles."""
    return [_pole_geometry(alpha, beta) if m < 0 else (math.inf, math.inf)
            for (alpha, beta), m in zip(_coefficients(f, u, v), f._exponents)]


def _pole_report(f: TwistorRationalFunction, u, v, margin) -> PoleSafetyReport:
    """pole_safety for frame rows given as lists (see _coefficients)."""
    geometry = _factor_geometry(f, u, v)
    return PoleSafetyReport(tuple(m for m, _ in geometry), margin,
                            tuple(d for _, d in geometry))


def pole_safety(f: TwistorRationalFunction, frame: Frame,
                margin=POLE_MARGIN) -> PoleSafetyReport:
    """Exact per-factor pole distances and strip half-widths (closed form)."""
    return _pole_report(f, *frame.rows.tolist(), margin)


def _refuse_unsafe(report: PoleSafetyReport):
    if not report.ok:
        k = int(np.argmin(report.minima))
        raise PoleProximityError(
            f"factor {k} passes within {report.minima[k]:.3e} of the "
            f"integration circle (margin {report.margin:.3e})")


def contour_transform(f: TwistorRationalFunction, frame: Frame,
                      q: QuadratureSpec = QuadratureSpec(),
                      margin=POLE_MARGIN):
    """Circle integral of f over the frame (same nodes as the X-ray engine).

    Requires degree -2 and a pole-safe frame; the result is a weight -1
    frame field whose chart restriction has vanishing John residual.
    """
    require_degree(f)
    _refuse_unsafe(pole_safety(f, frame, margin))
    return circle_integral(f(circle_points(frame.rows, q)), q)


def contour_chart_field(f: TwistorRationalFunction,
                        q: QuadratureSpec = QuadratureSpec(),
                        margin=POLE_MARGIN):
    """Chart restriction of the contour transform (complex-valued), as a
    chart field (see operators): chart points of shape (..., 2, 2) give
    values of shape (...).  Every point's circle is checked for poles, as in
    contour_transform, before f is evaluated on all of them at once.
    """
    require_degree(f)

    def phi(X):
        rows = chart_frame_rows(X)
        for u, v in rows.reshape(-1, 2, 4).tolist():
            _refuse_unsafe(_pole_report(f, u, v, margin))
        return circle_integral(f(circle_points(rows, q)), q)

    return phi


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
    return tuple(1 if (alpha.conjugate() * beta).imag > 0 else -1
                 for alpha, beta in _coefficients(f, *frame.rows.tolist()))


def normalized_pole_margin(f: TwistorRationalFunction, frame: Frame):
    """Worst per-factor circle distance, scaled by covector and frame size;
    factors with a nonnegative exponent have no poles and count as inf.

    Values of order one mean the quadrature converges fast; values near
    zero mean poles hug the circle and many nodes would be needed.
    """
    u, v = frame.rows.tolist()
    scale = max(math.hypot(*u), math.hypot(*v))
    return min(minimum / (norm * scale)
               for (minimum, _), norm in zip(_factor_geometry(f, u, v),
                                             f._norms))
