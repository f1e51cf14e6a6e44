"""Polynomials in four variables with exact coefficient tables.

Coefficients live in a dict keyed by exponent 4-tuples and may be ints,
Fractions, floats or complex numbers.  Exact coefficient types survive
differentiation, so Laplacian identities can be checked with no floating
point slack; evaluation converts to float/complex arrays once and caches
them.

Evaluation builds a power table x_i^p for p up to the largest exponent by
repeated multiplication, then forms each monomial from four table lookups;
no pow is called.  Against a correctly rounded sum the error is a few ulp
per term times the term's size.

The power table of the last frozen point array (see `frozen`) is kept and
shared by every Poly4, so the basis functions of a design matrix, evaluated
in turn on one frame's circle points, build it once per frame; a higher
degree rebuilds it to the new top.  Table rows do not depend on the top, so
values are the same bits as from a fresh table.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def exponents_of_degree(k):
    """All exponent 4-tuples (e1,e2,e3,e4) summing to k, in a fixed order."""
    out = []
    for e1 in range(k, -1, -1):
        for e2 in range(k - e1, -1, -1):
            for e3 in range(k - e1 - e2, -1, -1):
                out.append((e1, e2, e3, k - e1 - e2 - e3))
    return out


@lru_cache(maxsize=None)
def _power_dtype(dtype):
    """dtype of x ** E for points x of this dtype and int exponents E."""
    return np.result_type(dtype, np.intp)


def frozen(a):
    """True when array `a` is read-only and owns its data, so its values
    cannot change while it stays read-only.

    Only such arrays key a memo, and a memo checks this again at lookup: a
    writable array can change in place, a read-only view follows its base,
    and an owning array can be made writable again.
    """
    return not a.flags.writeable and a.base is None


def _power_table(x, top):
    """Rows p * 4 + i hold x_i^p for p <= top, by repeated multiplication."""
    n = x.size // 4
    table = np.empty((top + 1, 4, n), dtype=_power_dtype(x.dtype))
    table[0] = 1
    if top:
        table[1] = x.reshape(n, 4).T
    for p in range(2, top + 1):
        np.multiply(table[p - 1], table[1], out=table[p])
    return table.reshape(-1, n)


# (points, table) of the last frozen point array Poly4 evaluated; replaced
# as one tuple.
_powers = (None, None)


class Poly4:
    """Polynomial in x1..x4 stored as an exponent-tuple -> coefficient map."""

    __slots__ = ("coeffs", "_cache")

    def __init__(self, coeffs):
        clean = {}
        for expo, c in coeffs.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != 4 or min(expo) < 0:
                raise ValueError(f"bad exponent tuple {expo!r}")
            if c != 0:
                clean[expo] = clean.get(expo, 0) + c
        self.coeffs = {e: c for e, c in clean.items() if c != 0}
        self._cache = None

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def constant(cls, c):
        return cls({(0, 0, 0, 0): c})

    @classmethod
    def monomial(cls, expo, c=1):
        return cls({tuple(expo): c})

    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Total degree; None for the zero polynomial."""
        if not self.coeffs:
            return None
        return max(sum(e) for e in self.coeffs)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.coeffs}
        return len(degs) <= 1

    def _arrays(self):
        """(rows, top, C).  Row p * 4 + i of the power table holds x_i^p
        for p <= top; rows[j] picks the four factors of term j, whose
        coefficient is C[j]."""
        if self._cache is None:
            if not self.coeffs:
                E = np.zeros((1, 4), dtype=int)
                C = np.zeros(1)
            else:
                E = np.array(sorted(self.coeffs), dtype=int)
                vals = [self.coeffs[tuple(e)] for e in E]
                if any(isinstance(v, complex) for v in vals):
                    C = np.array([complex(v) for v in vals])
                else:
                    C = np.array([float(v) for v in vals])
            self._cache = (E * 4 + np.arange(4), int(E.max()), C)
        return self._cache

    def __call__(self, x):
        """Evaluate at x of shape (..., 4); vectorized.

        The powers have the dtype x ** E would give: int, float or
        complex for int, float or complex x.  A frozen x reuses the power
        table of the last call on it.
        """
        global _powers
        x = np.asarray(x)
        if x.shape[-1:] != (4,):
            raise ValueError("points must have a trailing axis of length 4")
        rows, top, C = self._arrays()
        last, table = _powers
        if last is not x or not frozen(x) or len(table) <= top * 4:
            table = _power_table(x, top)
            if frozen(x):
                _powers = (x, table)
        mono = np.multiply.reduce(table[rows], axis=1)
        return C.dot(mono).reshape(x.shape[:-1])[()]

    def partial(self, i):
        """d/dx_i as a new Poly4."""
        out = {}
        for expo, c in self.coeffs.items():
            if expo[i] == 0:
                continue
            down = list(expo)
            down[i] -= 1
            key = tuple(down)
            out[key] = out.get(key, 0) + c * expo[i]
        return Poly4(out)

    def gradient(self):
        return [self.partial(i) for i in range(4)]

    def laplacian(self):
        """Euclidean 4-variable Laplacian, computed on the coefficient table."""
        out = {}
        for expo, c in self.coeffs.items():
            for i in range(4):
                e = expo[i]
                if e < 2:
                    continue
                down = list(expo)
                down[i] -= 2
                key = tuple(down)
                out[key] = out.get(key, 0) + c * e * (e - 1)
        return Poly4(out)

    def __add__(self, other):
        if not isinstance(other, Poly4):
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Poly4(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly4({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, Poly4):
            out = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    out[key] = out.get(key, 0) + c1 * c2
            return Poly4(out)
        return Poly4({e: c * other for e, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Poly4) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "Poly4(0)"
        parts = []
        for expo in sorted(self.coeffs):
            c = self.coeffs[expo]
            mono = "*".join(f"x{i+1}^{e}" if e > 1 else f"x{i+1}"
                            for i, e in enumerate(expo) if e > 0)
            parts.append(f"{c}*{mono}" if mono else f"{c}")
        return "Poly4(" + " + ".join(parts) + ")"
