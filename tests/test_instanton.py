import numpy as np
import pytest
from numpy.testing import assert_allclose

from splitxray.instanton import (LEVI_CIVITA, METRIC_DIAG, Connection,
                                 connection_preset, constant_gauge, curvature,
                                 gauge_transform, hodge_star, scalar_phase,
                                 selfdual_residual, two_form_norm)
from splitxray.poly import Poly4

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def two_form(n, comps):
    """The (4, 4, n, n) 2-form with F_ij = comps[(i, j)] for i < j."""
    F = np.zeros((4, 4, n, n), dtype=complex)
    for (i, j), m in comps.items():
        F[i, j], F[j, i] = m, -m
    return F


def basis_two_form(pair):
    return two_form(1, {pair: 1.0})


def hodge_oracle(F):
    """Brute-force (*F)_ij = 1/2 eps_ijkl g^kk g^ll F_kl by index loops."""
    out = np.zeros_like(F)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                for l in range(4):
                    out[i, j] += 0.5 * (LEVI_CIVITA[i, j, k, l]
                                        * METRIC_DIAG[k] * METRIC_DIAG[l]
                                        * F[k, l])
    return out


# ---- curvature ---------------------------------------------------------------

def test_flagship_curvature_components():
    conn = connection_preset("flagship-u1")
    rng = np.random.default_rng(0)
    for _ in range(3):
        x = rng.normal(size=4)
        F = curvature(conn, x)
        assert_allclose(F[0, 1], [[1j]], atol=1e-14)
        assert_allclose(F[2, 3], [[1j]], atol=1e-14)
        for pair in ((0, 2), (0, 3), (1, 2), (1, 3)):
            assert_allclose(F[pair], [[0.0]], atol=1e-14)


def test_pure_gauge_is_flat():
    for name in ("pure-gauge", "pure-gauge(x1*x2)"):
        conn = connection_preset(name)
        x = np.array([0.4, 0.1, -0.3, 0.7])
        assert two_form_norm(curvature(conn, x)) < 1e-13


def test_constant_su2_curvature_is_commutator():
    conn = connection_preset("su2-constant")
    F = curvature(conn, np.zeros(4))
    H = np.array([[1.0, 0.0], [0.0, -1.0]])
    assert_allclose(F[0, 1], H, atol=1e-14)
    assert_allclose(F[2, 3], np.zeros((2, 2)), atol=1e-14)


def test_curvature_fd_matches_analytic():
    # the exact partials against central differences of the coefficients
    conn = connection_preset("flagship-u1")
    x = np.array([0.3, -0.5, 0.2, 0.9])
    h = 1e-3
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        for j in range(4):
            fd = (conn.coefficient(j, x + e) - conn.coefficient(j, x - e)) / (2 * h)
            assert_allclose(conn.partial(i, j, x), fd, atol=1e-8)


def test_curvature_antisymmetry_access():
    x = np.array([0.3, 0.1, -0.2, 0.5])
    F = curvature(connection_preset("su2-constant"), x)
    assert F.shape == (4, 4, 2, 2) and F.dtype == complex
    assert np.array_equal(F, -F.swapaxes(0, 1))


def test_two_form_norm_counts_each_pair_once():
    F = two_form(2, {(0, 1): np.eye(2), (1, 3): 2j * np.eye(2)})
    assert two_form_norm(F) == np.sqrt(10.0)


# ---- Hodge star -----------------------------------------------------------------

def test_hodge_star_basis_table():
    # frozen pairing table for metric (+,+,-,-), eps_1234 = +1
    expected = {
        (0, 1): ((2, 3), 1.0),
        (2, 3): ((0, 1), 1.0),
        (0, 2): ((1, 3), 1.0),
        (1, 3): ((0, 2), 1.0),
        (0, 3): ((1, 2), -1.0),
        (1, 2): ((0, 3), -1.0),
    }
    for pair, (target, sign) in expected.items():
        starred = hodge_star(basis_two_form(pair))
        assert_allclose(starred[target], [[sign]], atol=1e-14)
        assert_allclose(starred, -starred.swapaxes(0, 1), atol=1e-14)
        others = [p for p in PAIRS if p != target]
        for p in others:
            assert_allclose(starred[p], [[0.0]], atol=1e-14)


def test_hodge_star_matches_bruteforce_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        F = two_form(2, {p: rng.normal(size=(2, 2))
                         + 1j * rng.normal(size=(2, 2)) for p in PAIRS})
        assert two_form_norm(hodge_star(F) - hodge_oracle(F)) < 1e-13


def test_hodge_star_is_an_involution():
    for pair in PAIRS:
        F = basis_two_form(pair)
        assert two_form_norm(hodge_star(hodge_star(F)) - F) <= 1e-14
    rng = np.random.default_rng(2)
    for _ in range(20):
        F = two_form(1, {p: rng.normal() + 1j * rng.normal() for p in PAIRS})
        assert (two_form_norm(hodge_star(hodge_star(F)) - F)
                <= 1e-13 * two_form_norm(F))


# ---- self-duality ----------------------------------------------------------------

def sample_points(seed, count=5):
    rng = np.random.default_rng(seed)
    return [0.8 * rng.normal(size=4) for _ in range(count)]


def test_flagship_is_self_dual():
    conn = connection_preset("flagship-u1")
    assert selfdual_residual(conn, sample_points(3)) <= 1e-10


def test_asd_residual_value():
    conn = connection_preset("asd-u1")
    # *F = -F and ||F|| = sqrt(2), so the residual is 2 sqrt(2) everywhere
    res = selfdual_residual(conn, sample_points(4))
    assert_allclose(res, 2 * np.sqrt(2), atol=1e-12)


def test_zero_connection_residual():
    zero = lambda x: np.zeros((1, 1))
    conn = Connection(1, [zero] * 4, [[zero] * 4] * 4)
    assert selfdual_residual(conn, sample_points(5)) == 0.0


def test_antihermitian_presets():
    x = np.array([0.2, -0.4, 0.7, 0.1])
    for name in ("flagship-u1", "asd-u1", "pure-gauge"):
        conn = connection_preset(name)
        for i in range(4):
            a = conn.coefficient(i, x)
            assert np.linalg.norm(a + a.conj().T) <= 1e-12


def test_nonabelian_polynomial_curvature_matches_hand_computation():
    # A1 = x2 E, A2 = x1 F, A3 = x4 H, A4 = 0 with E, F, H the sl(2) triple
    P0, P = Poly4.zero(), Poly4.monomial
    E = np.array([[P0, P((0, 1, 0, 0))], [P0, P0]], dtype=object)
    F = np.array([[P0, P0], [P((1, 0, 0, 0)), P0]], dtype=object)
    H = np.array([[P((0, 0, 0, 1)), P0], [P0, -1 * P((0, 0, 0, 1))]],
                 dtype=object)
    Z = np.full((2, 2), P0, dtype=object)
    conn = Connection.from_polynomials([E, F, H, Z], name="su2-poly")
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    f = e.T
    h = np.diag([1.0, -1.0])
    x1, x2, x3, x4 = x = np.array([0.3, -0.2, 0.5, 0.4])
    # F_ij = d_i A_j - d_j A_i + [A_i, A_j], with [E, F] = H,
    # [H, E] = 2E and [H, F] = -2F
    expected = {
        (0, 1): f - e + x1 * x2 * h,
        (0, 2): -x2 * x4 * 2 * e,
        (0, 3): np.zeros((2, 2)),
        (1, 2): x1 * x4 * 2 * f,
        (1, 3): np.zeros((2, 2)),
        (2, 3): -h,
    }
    F_x = curvature(conn, x)
    for pair, value in expected.items():
        assert np.array_equal(F_x[pair], value), pair


# ---- gauge transformations --------------------------------------------------------

def test_constant_gauge_fixes_zero_connection():
    g = constant_gauge(np.array([[0.0, 1.0], [1.0, 0.0]]) + 0.5j * np.eye(2))
    # rank mismatch guard: constant gauge must match the bundle rank
    zero = lambda x: np.zeros((2, 2))
    moved = gauge_transform(Connection(2, [zero] * 4, [[zero] * 4] * 4), g)
    for i in range(4):
        assert_allclose(moved.coefficient(i, np.ones(4)), np.zeros((2, 2)),
                        atol=1e-14)


def test_scalar_phase_pure_gauge():
    # A = 0 moved by g = exp(i chi) gives -i d chi, still flat
    zero = lambda x: np.zeros((1, 1))
    chi = Poly4.monomial((1, 0, 0, 0))
    moved = gauge_transform(Connection(1, [zero] * 4, [[zero] * 4] * 4),
                            scalar_phase(chi))
    x = np.array([0.7, 0.2, -0.1, 0.4])
    assert_allclose(moved.coefficient(0, x), [[-1j]], atol=1e-14)
    for i in (1, 2, 3):
        assert_allclose(moved.coefficient(i, x), [[0.0]], atol=1e-14)
    assert two_form_norm(curvature(moved, x)) < 1e-12


def test_gauge_transformed_connection_keeps_analytic_partials():
    conn = connection_preset("flagship-u1")
    moved = gauge_transform(conn, scalar_phase(Poly4.monomial((1, 1, 0, 0))))
    assert moved.partials is not None
    # analytic partials agree with finite differences of the coefficients
    x = np.array([0.3, 0.6, -0.2, 0.1])
    h = 1e-5
    for i, j in ((0, 0), (1, 2), (3, 1)):
        e = np.zeros(4)
        e[i] = h
        fd = (moved.coefficient(j, x + e) - moved.coefficient(j, x - e)) / (2 * h)
        assert_allclose(moved.partial(i, j, x), fd, atol=1e-8)


def test_selfdual_residual_is_gauge_invariant():
    conn = connection_preset("flagship-u1")
    g = scalar_phase(Poly4.monomial((1, 1, 0, 0)))
    moved = gauge_transform(conn, g)
    pts = sample_points(6)
    base = selfdual_residual(conn, pts)
    after = selfdual_residual(moved, pts)
    assert abs(after - base) <= 1e-8


def test_gauge_invariance_for_asd_value():
    conn = connection_preset("asd-u1")
    moved = gauge_transform(conn, scalar_phase(Poly4.monomial((0, 1, 1, 0))))
    pts = sample_points(7)
    assert abs(selfdual_residual(moved, pts) - 2 * np.sqrt(2)) <= 1e-8


def test_singular_gauge_rejected():
    with pytest.raises(ValueError, match="invertible"):
        constant_gauge(np.zeros((2, 2)))


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown"):
        connection_preset("instanton-9000")
