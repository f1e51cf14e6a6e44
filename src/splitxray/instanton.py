"""Split-signature self-dual Yang-Mills data.

Connections are four matrix-valued coefficient functions on R^4 carrying
exact first partials; curvature, the split Hodge star, the self-duality
residual and gauge transformations are built on top and differentiate
nothing numerically.  The orientation convention is fixed once: metric
diag(+1,+1,-1,-1) and epsilon_1234 = +1.  Flipping the orientation
exchanges self-dual and anti-self-dual forms.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .operators import worst_residual
from .poly import Poly4

METRIC_DIAG = np.array([1.0, 1.0, -1.0, -1.0])

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _levi_civita():
    eps = np.zeros((4, 4, 4, 4))
    for perm in permutations(range(4)):
        inversions = sum(1 for a in range(4) for b in range(a + 1, 4)
                         if perm[a] > perm[b])
        eps[perm] = -1.0 if inversions % 2 else 1.0
    return eps


LEVI_CIVITA = _levi_civita()
LEVI_CIVITA.setflags(write=False)


class Connection:
    """Four n x n matrix coefficient functions A_1..A_4 on R^4.

    `partials` is a 4 x 4 nested sequence with partials[i][j](x) =
    d A_j / d x_i; from_polynomials builds both from polynomial matrices.
    """

    def __init__(self, n, components, partials, name="connection"):
        self.n = int(n)
        if len(components) != 4:
            raise ValueError("a connection has exactly four coefficients")
        self.components = tuple(components)
        self.partials = partials
        self.name = name

    def coefficient(self, i, x):
        a = np.asarray(self.components[i](np.asarray(x, dtype=float)))
        if a.shape != (self.n, self.n):
            raise ValueError(f"coefficient {i} returned shape {a.shape}")
        return a

    def partial(self, i, j, x):
        """d A_j / d x_i, analytic."""
        return np.asarray(self.partials[i][j](np.asarray(x, dtype=float)))

    @classmethod
    def from_polynomials(cls, mats, name="connection"):
        """Build from four n x n arrays of Poly4 entries; partials are exact."""
        mats = [np.asarray(m, dtype=object) for m in mats]
        n = mats[0].shape[0]

        def evaluator(m):
            def ev(x):
                out = np.empty((n, n), dtype=complex)
                for r in range(n):
                    for c in range(n):
                        out[r, c] = m[r, c](x)
                return out
            return ev

        comps = [evaluator(m) for m in mats]
        partial_mats = [[np.array([[m[r, c].partial(i) for c in range(n)]
                                   for r in range(n)], dtype=object)
                         for m in mats] for i in range(4)]
        parts = [[evaluator(pm) for pm in row] for row in partial_mats]
        return cls(n, comps, parts, name=name)


def curvature(A: Connection, x):
    """F_ij = d_i A_j - d_j A_i + [A_i, A_j], from the connection's exact
    partials, as a complex (4, 4, n, n) array antisymmetric in its first two
    axes."""
    x = np.asarray(x, dtype=float)
    coeffs = [A.coefficient(i, x) for i in range(4)]
    F = np.zeros((4, 4, A.n, A.n), dtype=complex)
    for i, j in _PAIRS:
        F[i, j] = (A.partial(i, j, x) - A.partial(j, i, x)
                   + coeffs[i] @ coeffs[j] - coeffs[j] @ coeffs[i])
        F[j, i] = -F[i, j]
    return F


def two_form_norm(F):
    """Frobenius norm of a (4, 4, n, n) 2-form over its components i < j."""
    return float(np.sqrt(sum(np.sum(np.abs(F[i, j]) ** 2) for i, j in _PAIRS)))


def hodge_star(F):
    """(*F)_ij = 1/2 eps_ijkl g^km g^ln F_mn for the split metric, on a
    (4, 4, n, n) 2-form.

    Squares to the identity (split signature).
    """
    return 0.5 * np.einsum("ijkl,k,l,klab->ijab",
                           LEVI_CIVITA, METRIC_DIAG, METRIC_DIAG, F)


def selfdual_residual(A: Connection, points):
    """Max over points of ||*F - F||; zero identifies a split instanton."""
    curvatures = (curvature(A, x) for x in points)
    return worst_residual(two_form_norm(hodge_star(F) - F) for F in curvatures)


class GaugeMap:
    """An invertible matrix-valued map with analytic first and second
    partial derivatives."""

    def __init__(self, value, partial, second):
        self.value = value
        self.partial = partial
        self.second = second


def scalar_phase(chi: Poly4, n=1) -> GaugeMap:
    """g = exp(i chi) times the identity, for a real polynomial phase chi."""
    grads = chi.gradient()
    hessians = [[grads[i].partial(j) for j in range(4)] for i in range(4)]
    eye = np.eye(n, dtype=complex)

    def value(x):
        return np.exp(1j * chi(x)) * eye

    def partial(i, x):
        return 1j * grads[i](x) * np.exp(1j * chi(x)) * eye

    def second(i, j, x):
        return ((1j * hessians[i][j](x) - grads[i](x) * grads[j](x))
                * np.exp(1j * chi(x)) * eye)

    return GaugeMap(value, partial, second)


def constant_gauge(m) -> GaugeMap:
    m = np.asarray(m, dtype=complex)
    if np.linalg.det(m) == 0:
        raise ValueError("gauge matrix must be invertible")
    zero = np.zeros_like(m)
    return GaugeMap(lambda x: m, lambda i, x: zero, lambda i, j, x: zero)


def gauge_transform(A: Connection, g: GaugeMap) -> Connection:
    """A^g_i = g A_i g^-1 - (d_i g) g^-1.

    Chosen so that (d + A^g)(g psi) = g (d + A) psi; curvature conjugates,
    so the self-duality residual is gauge invariant.  The exact partials of
    the result are assembled from those of A and g.
    """

    def component(j):
        def ev(x):
            gx = g.value(x)
            ginv = np.linalg.inv(gx)
            return gx @ A.coefficient(j, x) @ ginv - g.partial(j, x) @ ginv
        return ev

    def partial(i, j):
        def ev(x):
            gx = g.value(x)
            ginv = np.linalg.inv(gx)
            di_g = g.partial(i, x)
            dj_g = g.partial(j, x)
            aj = A.coefficient(j, x)
            return (di_g @ aj @ ginv
                    + gx @ A.partial(i, j, x) @ ginv
                    - gx @ aj @ ginv @ di_g @ ginv
                    - g.second(i, j, x) @ ginv
                    + dj_g @ ginv @ di_g @ ginv)
        return ev

    comps = [component(j) for j in range(4)]
    partials = [[partial(i, j) for j in range(4)] for i in range(4)]
    return Connection(A.n, comps, partials, name=f"{A.name}.gauge")


# ---- named presets --------------------------------------------------------

def _parse_monomial(text):
    """Exponent tuple for a product like 'x1' or 'x1*x3'; used by presets."""
    expo = [0, 0, 0, 0]
    for token in text.split("*"):
        token = token.strip()
        if len(token) != 2 or token[0] != "x" or token[1] not in "1234":
            raise ValueError(f"cannot parse monomial {text!r}")
        expo[int(token[1]) - 1] += 1
    return tuple(expo)


def connection_preset(name: str) -> Connection:
    """Named connections.

    flagship-u1 (i(x1 dx2 + x3 dx4), self-dual), asd-u1 (i(x1 dx2 - x3 dx4),
    anti-self-dual), pure-gauge(chi) for a monomial phase chi (default x1),
    su2-constant.  The instanton suites check flagship-u1, and
    verify-selfdual reads su2-constant and asd-u1 as closed-form controls;
    no configuration chooses a preset.
    """
    zero1 = np.array([[Poly4.zero()]], dtype=object)

    if name == "flagship-u1":
        a2 = np.array([[Poly4.monomial((1, 0, 0, 0), 1j)]], dtype=object)
        a4 = np.array([[Poly4.monomial((0, 0, 1, 0), 1j)]], dtype=object)
        return Connection.from_polynomials([zero1, a2, zero1, a4], name=name)
    if name == "asd-u1":
        a2 = np.array([[Poly4.monomial((1, 0, 0, 0), 1j)]], dtype=object)
        a4 = np.array([[Poly4.monomial((0, 0, 1, 0), -1j)]], dtype=object)
        return Connection.from_polynomials([zero1, a2, zero1, a4], name=name)
    if name == "su2-constant":
        zero2 = np.full((2, 2), Poly4.zero(), dtype=object)
        e = np.array([[Poly4.zero(), Poly4.constant(1)],
                      [Poly4.zero(), Poly4.zero()]], dtype=object)
        f = np.array([[Poly4.zero(), Poly4.zero()],
                      [Poly4.constant(1), Poly4.zero()]], dtype=object)
        return Connection.from_polynomials([e, f, zero2, zero2], name=name)
    if name == "pure-gauge" or (name.startswith("pure-gauge(") and name.endswith(")")):
        inner = name[len("pure-gauge("):-1] if "(" in name else "x1"
        chi = Poly4.monomial(_parse_monomial(inner))
        # A = -(dg) g^-1 = -i dchi for g = exp(i chi)
        mats = [np.array([[chi.partial(i) * (-1j)]], dtype=object) for i in range(4)]
        return Connection.from_polynomials(mats, name=name)
    raise ValueError(f"unknown connection preset {name!r}")
