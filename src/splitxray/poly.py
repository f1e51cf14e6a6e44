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

One memo, `point_memo`, holds per-point work for the last frozen point
array (see `frozen`), shared by every caller: here, for each degree k, the
table of all monomials of degree k.  A homogeneous Poly4 evaluated on that
array gathers its terms' rows from the table and takes one dot with its
coefficients, so the basis functions of a design matrix, evaluated in turn
on one frame's circle points, build each degree's monomials once per frame.
A table row is the same four-factor product that the memo-free path forms
for the term, so values are the same bits.  An (n, 4) float array, such as
a frame's circle points, is evaluated as it is and its (n,) values are
returned without a reshape.
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


@lru_cache(maxsize=None)
def _degree_rows(k):
    """(factors, place): factors[i][j] is the power-table row of the i-th
    factor of the j-th monomial of degree k in exponents_of_degree order,
    a tuple of four index arrays, and place maps each exponent tuple to j.
    Every caller shares them."""
    expos = exponents_of_degree(k)
    factors = (np.array(expos).reshape(-1, 4) * 4 + np.arange(4)).T.copy()
    factors.setflags(write=False)
    return tuple(factors), {e: j for j, e in enumerate(expos)}


def _degree_table(x, k):
    """Row j holds the j-th monomial of degree k at points x: the product
    x1^e1 * x2^e2 * x3^e3 * x4^e4 of power-table rows, multiplied in that
    order, as the memo-free path multiplies them for a term."""
    powers = _power_table(x, k)
    factors = _degree_rows(k)[0]
    table = powers.take(factors[0], axis=0)
    for rows in factors[1:]:
        table *= powers.take(rows, axis=0)
    return table


# (points, entries) of the last frozen point array given to point_memo; a
# new array replaces it as one tuple.
_memo = (None, None)


def point_memo(x):
    """The memo entries of point array x, a dict, or None when x is not
    frozen.

    The dict belongs to the last frozen array asked for; another frozen
    array replaces it whole, so the memo holds one array's work at a time.
    Keys are tuples whose first item names the work: ("monomials", k) for
    the degree-k monomial table here and ("radial", power) for the radial
    factors (x.x)**(power//2) of fields.HomogeneousFunction, among them
    ("radial", 2), x.x itself, from which the others are formed.

    `frozen` is checked at every lookup, so a writable array is never
    reused.  It cannot see an array that was made writable, changed and
    made read-only again between two lookups: that array keeps the entries
    of its old values.  No code does this to the points it evaluates on.
    """
    global _memo
    if x.flags.writeable or x.base is not None:  # not frozen(x)
        return None
    last, entries = _memo
    if last is not x:
        entries = {}
        _memo = (x, entries)
    return entries


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
        """(rows, top, C, key, idx).  Row p * 4 + i of the power table holds
        x_i^p for p <= top; rows[j] picks the four factors of term j, whose
        coefficient is C[j].  For a homogeneous polynomial of degree k, key
        is ("monomials", k), the point_memo key of its degree table, and
        idx[j] the place of term j in exponents_of_degree(k); key is None
        otherwise."""
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
            key = idx = None
            if self.is_homogeneous():
                k = int(E[0].sum())
                place = _degree_rows(k)[1]
                idx = np.array([place[tuple(e)] for e in E.tolist()])
                key = ("monomials", k)
            self._cache = (E * 4 + np.arange(4), int(E.max()), C, key, idx)
        return self._cache

    def __call__(self, x):
        """Evaluate at x of shape (..., 4); vectorized.

        The powers have the dtype x ** E would give: int, float or
        complex for int, float or complex x.  A homogeneous Poly4 on a
        frozen x gathers its monomials from the degree table of
        point_memo(x), building it on the first call of its degree.  An
        (n, 4) ndarray, such as a frame's circle points, is used as it is
        and gives the (n,) values of the dot unchanged.
        """
        x = np.asarray(x)
        shape = x.shape
        if shape[-1:] != (4,):
            raise ValueError("points must have a trailing axis of length 4")
        rows, top, C, key, idx = self._cache or self._arrays()
        memo = None if key is None else point_memo(x)
        if memo is None:
            mono = np.multiply.reduce(_power_table(x, top)[rows], axis=1)
        else:
            table = memo.get(key)
            if table is None:
                table = memo[key] = _degree_table(x, key[1])
            mono = table.take(idx, axis=0)
        values = C.dot(mono)
        return values if len(shape) == 2 else values.reshape(shape[:-1])[()]

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
