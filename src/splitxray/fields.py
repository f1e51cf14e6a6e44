"""Homogeneous functions on R^4 minus the origin, harmonic bases, and
determinant-weighted functions of frames.

A HomogeneousFunction pairs an evaluator with an analytic gradient built by
product/chain rule over a closed vocabulary: polynomials, even powers of
|x|, and their sums/products.  Harmonic polynomial bases are generated by
exact rational nullspace computation of the Laplacian on the monomial
basis, so basis elements have an identically zero Laplacian coefficient
table before any floats appear.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .geometry import Frame
from .poly import Poly4, exponents_of_degree


class HomogeneousFunction:
    """A function on R^4 \\ {0} with exact integer homogeneity.

    eval and grad are vectorized over a trailing axis of length 4; both
    raise on the origin.  The stored degree is exact: eval(t*x) equals
    t**degree * eval(x) for every nonzero real t, which restricts radial
    factors to even powers of |x|.

    A radial factor needs |x|^2 anyway, so it refuses the origin itself
    and a function with one (origin_in_value) skips the separate test.
    """

    __slots__ = ("degree", "label", "_value", "_grad", "_origin_in_value")

    def __init__(self, degree, value: Callable, grad: Callable, label="f",
                 origin_in_value=False):
        self.degree = int(degree)
        self.label = label
        self._value = value
        self._grad = grad
        self._origin_in_value = origin_in_value

    @staticmethod
    def _check_points(x, origin=True):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != 4:
            raise ValueError("points must have a trailing axis of length 4")
        if origin:
            _refuse_origin(np.einsum("...i,...i->...", x, x))
        return x

    def __call__(self, x):
        return self._value(self._check_points(x, not self._origin_in_value))

    def grad(self, x):
        return self._grad(self._check_points(x))

    # ---- constructors ----------------------------------------------------

    @classmethod
    def from_poly(cls, poly: Poly4, label=None):
        """Wrap a homogeneous polynomial; gradient from the coefficient table."""
        if poly.is_zero():
            raise ValueError("use HomogeneousFunction.zero for the zero function")
        if not poly.is_homogeneous():
            raise ValueError("polynomial is not homogeneous")
        partials = poly.gradient()

        def grad(x):
            return np.stack([p(x) for p in partials], axis=-1)

        return cls(poly.degree, poly, grad, label or f"poly{poly.degree}")

    @classmethod
    def radial_power(cls, p, label=None):
        """|x|**p for even integer p (odd powers break homogeneity at t < 0)."""
        p = int(p)
        if p % 2 != 0:
            raise ValueError("radial power must be even to be homogeneous")
        half = p // 2

        def value(x):
            r2 = np.einsum("...i,...i->...", x, x)
            _refuse_origin(r2)
            return r2 ** half

        def grad(x):
            r2 = np.einsum("...i,...i->...", x, x)
            return p * (r2 ** (half - 1))[..., None] * x

        return cls(p, value, grad, label or f"|x|^{p}", origin_in_value=True)

    @classmethod
    def zero(cls, degree=-2):
        return cls(degree,
                   lambda x: np.zeros(x.shape[:-1]),
                   lambda x: np.zeros(x.shape),
                   label="0")

    # ---- algebra ---------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, HomogeneousFunction):
            f, g = self, other

            def value(x):
                return f._value(x) * g._value(x)

            def grad(x):
                return (f._grad(x) * g._value(x)[..., None]
                        + g._grad(x) * f._value(x)[..., None])

            return HomogeneousFunction(
                f.degree + g.degree, value, grad, f"{f.label}*{g.label}",
                f._origin_in_value or g._origin_in_value)
        c = other
        return HomogeneousFunction(
            self.degree,
            lambda x, f=self._value: c * f(x),
            lambda x, g=self._grad: c * g(x),
            f"{c}*{self.label}", self._origin_in_value)

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, HomogeneousFunction):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError("cannot add homogeneous functions of different degree")
        f, g = self, other
        return HomogeneousFunction(
            self.degree,
            lambda x: f._value(x) + g._value(x),
            lambda x: f._grad(x) + g._grad(x),
            f"{f.label}+{g.label}", f._origin_in_value or g._origin_in_value)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def compose_linear(self, g, label=None):
        """x -> f(g x) for an invertible 4x4 matrix g; same degree."""
        g = np.asarray(g, dtype=float)
        if g.shape != (4, 4):
            raise ValueError("g must be a 4x4 matrix")
        if np.linalg.det(g) == 0.0:
            raise ValueError("g must be invertible")
        f = self

        def value(x):
            return f._value(x @ g.T)

        def grad(x):
            return f._grad(x @ g.T) @ g

        return HomogeneousFunction(self.degree, value, grad,
                                   label or f"{self.label}.g")

    def with_label(self, label):
        """The same function under another label."""
        return HomogeneousFunction(self.degree, self._value, self._grad, label,
                                   self._origin_in_value)


def _refuse_origin(r2):
    """Raise if any |x|^2 is zero."""
    if np.any(r2 == 0.0):
        raise ValueError("homogeneous functions are undefined at the origin")


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

    def __call__(self, x):
        return self.poly(np.asarray(x, dtype=float))


def _rational_nullspace(rows, ncols):
    """Nullspace basis of an exact matrix (list of Fraction rows)."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [a / pv for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, pc in enumerate(pivots):
            vec[pc] = -m[row][free]
        basis.append(vec)
    return basis


def harmonic_basis(k):
    """Basis of harmonic homogeneous degree-k polynomials in 4 variables.

    Returns (k+1)**2 HarmonicPolynomial values with exact rational
    coefficients, obtained as the exact nullspace of the Laplacian acting
    on the degree-k monomial basis.
    """
    k = int(k)
    if k < 0:
        raise ValueError("degree must be nonnegative")
    monos = exponents_of_degree(k)
    if k < 2:
        vecs = [[Fraction(int(i == j)) for j in range(len(monos))]
                for i in range(len(monos))]
    else:
        targets = exponents_of_degree(k - 2)
        tindex = {e: i for i, e in enumerate(targets)}
        rows = [[Fraction(0)] * len(monos) for _ in targets]
        for col, expo in enumerate(monos):
            for i in range(4):
                e = expo[i]
                if e < 2:
                    continue
                down = list(expo)
                down[i] -= 2
                rows[tindex[tuple(down)]][col] += Fraction(e * (e - 1))
        vecs = _rational_nullspace(rows, len(monos))
    assert len(vecs) == (k + 1) ** 2
    return [HarmonicPolynomial(k, Poly4({e: c for e, c in zip(monos, v) if c != 0}))
            for v in vecs]


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
    f = (HomogeneousFunction.from_poly(h.poly, f"H{h.degree}")
         * HomogeneousFunction.radial_power(-h.degree - 2))
    return f if label is None else f.with_label(label)


@dataclass(frozen=True)
class WeightedField:
    """A function of frames transforming with |det g|**weight under the
    right GL(2) action on frames."""

    weight: int
    eval: Callable[[Frame], complex]

    def __call__(self, frame: Frame):
        return self.eval(frame)


def weight_transform_residual(phi: WeightedField, frame: Frame, g):
    """|phi(frame.g) - |det g|^w phi(frame)| / (1 + |phi(frame)|)."""
    g = np.asarray(g, dtype=float)
    det = np.linalg.det(g)
    if det == 0.0:
        raise ValueError("g must be invertible")
    base = phi(frame)
    moved = phi(frame.transform(g))
    return abs(moved - abs(det) ** phi.weight * base) / (1.0 + abs(base))


def export_harmonic_basis_csv(k, path):
    """Write the degree-k basis to one CSV file.

    Columns: index,e1,e2,e3,e4,coeff with one row per monomial; `index`
    numbers the basis element the row belongs to.
    """
    basis = harmonic_basis(k)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "e1", "e2", "e3", "e4", "coeff"])
        for idx, h in enumerate(basis):
            for expo in sorted(h.poly.coeffs):
                writer.writerow([idx, *expo, float(h.poly.coeffs[expo])])
    return path


def import_harmonic_basis_csv(path):
    """Read a basis CSV back as a list of (index, Poly4) coefficient tables."""
    tables = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            idx = int(row["index"])
            expo = tuple(int(row[f"e{i}"]) for i in range(1, 5))
            tables.setdefault(idx, {})[expo] = float(row["coeff"])
    return [Poly4(tables[i]) for i in sorted(tables)]
