"""Homogeneous functions on R^4 minus the origin, harmonic bases, and the
weight law of functions of frames.

A HomogeneousFunction is data, not a closure: a homogeneous polynomial and
an even power of |x|, with the exact integer degree they imply.  Every
input that the transforms integrate has this form; a sum of such inputs
of one radial power is one polynomial.  Harmonic polynomial bases are built in closed form with exact
rational coefficients, so basis elements have an identically zero
Laplacian coefficient table before any floats appear; a harmonic
polynomial is evaluated through its `poly`.

On a frozen point array (see poly.point_memo) x.x is kept once, and the
radial factors (x.x)**(power//2) formed from it by power, next to the
polynomials' monomial tables, so the basis functions of a design matrix
share one frame's.  A float64 ndarray is evaluated as it is; any other
input is converted to one first, and complex points are refused.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .geometry import Frame
from .poly import Poly4, exponents_of_degree, point_memo

_FLOAT = np.dtype(float)


@dataclass(frozen=True, eq=False)
class HomogeneousFunction:
    """x -> poly(x) * |x|^power on R^4 \\ {0}.

    poly is a nonzero homogeneous Poly4 and power an even integer.  The
    degree, poly.degree + power, is exact and stored at construction: f(t x)
    equals t**degree * f(x) for every nonzero real t, and in particular
    f(-x) = (-1)**degree * f(x) bit for bit, since poly is homogeneous and
    the radial factor even.

    Evaluation is vectorized over a trailing axis of length 4 and raises
    on the origin and on complex points.
    """

    poly: Poly4
    power: int = 0
    label: Optional[str] = None
    degree: int = field(init=False)

    def __post_init__(self):
        if self.poly.is_zero():
            raise ValueError("the zero polynomial has no degree")
        if not self.poly.is_homogeneous():
            raise ValueError("polynomial is not homogeneous")
        object.__setattr__(self, "power", operator.index(self.power))
        if self.power % 2 != 0:
            raise ValueError("radial power must be even to be homogeneous")
        object.__setattr__(self, "degree", self.poly.degree + self.power)

    def __call__(self, x):
        if type(x) is not np.ndarray or x.dtype is not _FLOAT:
            x = _real_points(x)
        return self.poly(x) * _radial_factor(x, self.power)


def _real_points(x):
    """x as a float array.  Complex points raise instead of being cast,
    which would drop their imaginary part and evaluate at Re x."""
    x = np.asarray(x)
    if x.dtype.kind == "c":
        raise TypeError("complex points are not supported; they wait for the "
                        "complex-capable transform engine (ROADMAP item 4)")
    return np.asarray(x, dtype=float)


def _radial_factor(x, power):
    """(x.x) ** (power // 2) of points x; raise if any x.x is zero.

    A frozen x (see poly.point_memo) keeps x.x under ("radial", 2), stored
    only once the origin was refused, and the factor of each power formed
    from it, so x.x is computed once per frame, the basis functions of a
    design matrix share the frame's radial factors and every call still
    refuses the origin."""
    memo = point_memo(x)
    if memo is None:  # not frozen: nothing outlives this call
        memo = {}
    factor = memo.get(("radial", power))
    if factor is None:
        r2 = memo.get(("radial", 2))
        if r2 is None:
            r2 = np.einsum("...i,...i->...", x, x)
            if not r2.all():
                raise ValueError(
                    "homogeneous functions are undefined at the origin")
            memo["radial", 2] = r2
        factor = memo["radial", power] = r2 ** (power // 2)
    return factor


@dataclass(frozen=True)
class HarmonicPolynomial:
    """A homogeneous degree-k polynomial with identically zero Laplacian.

    Coefficients are exact rationals; the Laplacian is re-checked on the
    coefficient table at construction.
    """

    degree: int
    poly: Poly4

    def __post_init__(self):
        if not self.poly.is_homogeneous() or (
                not self.poly.is_zero() and self.poly.degree != self.degree):
            raise ValueError("coefficient table is not homogeneous of the stated degree")
        if not self.poly.laplacian().is_zero():
            raise ValueError("polynomial is not harmonic")


def _harmonic_extension(expo):
    """The unique harmonic polynomial whose one monomial of x1-degree <= 1
    is x^expo, with coefficient 1, for expo[0] <= 1.

    It is sum_j (-1)^j e1!/(e1+2j)! x1^(e1+2j) L^j(x'^a'), with L the
    Laplacian in x2..x4 and x'^a' the x2..x4 part of x^expo: the Laplacian
    of term j in x1 cancels L of term j-1.  Coefficients are Fractions.
    """
    term = {tuple(expo): Fraction(1)}
    d = expo[0]  # the x1-degree of term j, e1 + 2j
    coeffs = {}
    while term:
        coeffs.update(term)
        # term j+1 = -x1^2 L(term j) / ((d + 1)(d + 2))
        scale = Fraction(-1, (d + 1) * (d + 2))
        nxt = {}
        for e, c in term.items():
            for i in (1, 2, 3):
                if e[i] >= 2:
                    down = list(e)
                    down[0] += 2
                    down[i] -= 2
                    key = tuple(down)
                    nxt[key] = nxt.get(key, 0) + c * e[i] * (e[i] - 1) * scale
        term = {e: c for e, c in nxt.items() if c != 0}
        d += 2
    return Poly4(coeffs)


def harmonic_basis(k):
    """Basis of harmonic homogeneous degree-k polynomials in 4 variables.

    Returns (k+1)**2 HarmonicPolynomial values with exact rational
    coefficients, one per monomial of x1-degree <= 1 in exponents_of_degree
    order: the unique harmonic polynomial in which that monomial is the only
    one of x1-degree <= 1, with coefficient 1 (see _harmonic_extension).
    These monomials are (k+1)**2, the dimension of the harmonics, and a
    harmonic polynomial with no such monomial is 0, so this is a basis.
    """
    k = int(k)
    if k < 0:
        raise ValueError("degree must be nonnegative")
    basis = [HarmonicPolynomial(k, _harmonic_extension(e))
             for e in exponents_of_degree(k) if e[0] <= 1]
    assert len(basis) == (k + 1) ** 2
    return basis


def basis_to_degree_minus_2(h: HarmonicPolynomial,
                            label=None) -> HomogeneousFunction:
    """H(x) |x|^(-k-2): the degree -2 homogeneous extension of H, labeled
    `label` (default H{k}*|x|^{-k-2}).

    Requires even k; for odd k the product is odd under x -> -x and does
    not define a function of lines.
    """
    if h.degree % 2 != 0:
        raise ValueError(
            "odd harmonic degree: H(x)|x|^(-k-2) changes sign under x -> -x")
    power = -h.degree - 2
    return HomogeneousFunction(h.poly, power,
                               label=label or f"H{h.degree}*|x|^{power}")


def weight_transform_residual(phi: Callable[[Frame], complex], weight,
                              frame: Frame, g):
    """|phi(frame.g) - |det g|^weight phi(frame)| / (1 + |phi(frame)|) for a
    function phi of frames that should transform with |det g|**weight under
    the right GL(2) action on frames."""
    g = np.asarray(g, dtype=float)
    det = np.linalg.det(g)
    if det == 0.0:
        raise ValueError("g must be invertible")
    base = phi(frame)
    moved = phi(frame.transform(g))
    return abs(moved - abs(det) ** weight * base) / (1.0 + abs(base))
