import numpy as np
import pytest
from numpy.testing import assert_allclose

from splitxray.fields import (HomogeneousFunction, basis_to_degree_minus_2,
                              harmonic_basis)
from splitxray.geometry import plane_from_chart
from splitxray.instanton import connection_preset, gauge_transform, scalar_phase
from splitxray.inversion import sample_frames
from splitxray.operators import (box_diag, chart_to_diag, coupled_box,
                                 diag_to_chart, dn_residual, john_operator,
                                 worst_residual)
from splitxray.penrose import (contour_chart_field, contour_transform,
                               elementary_state)
from splitxray.poly import Poly4
from splitxray.xray import (QuadratureSpec, circle_integral, circle_points,
                            equivariance_residual, moment_chart_field,
                            random_sl4, xray_chart_field, xray_moments,
                            xray_transform)

H = 1e-3


# ---- John operator -----------------------------------------------------------

def test_john_of_determinant_is_two():
    phi = lambda X: np.linalg.det(X)
    rng = np.random.default_rng(0)
    for _ in range(5):
        X = rng.normal(size=(2, 2))
        assert abs(john_operator(phi, X, H) - 2.0) < 1e-9


def test_john_of_linear_field_is_zero():
    phi = lambda X: X[..., 0, 0]
    assert john_operator(phi, np.zeros((2, 2)), H) == 0.0


def test_john_annihilates_flagship_transform():
    phi = xray_chart_field(HomogeneousFunction(Poly4.constant(1), -2),
                           QuadratureSpec(128))
    value = john_operator(phi, np.zeros((2, 2)), H)
    assert abs(value) < 1e-6


def test_john_of_complex_field_is_john_of_real_and_imaginary_parts():
    # the stencils are linear, so one complex evaluation replaces two real ones
    phi = lambda X: (np.exp((0.3 + 0.8j) * X[..., 0, 0] * X[..., 1, 1])
                     / (2.0 + 1j * X[..., 0, 1] + X[..., 1, 0] ** 2))
    for X in 0.5 * np.random.default_rng(3).normal(size=(5, 2, 2)):
        value = john_operator(phi, X, H)
        parts = (john_operator(lambda Y: phi(Y).real, X, H)
                 + 1j * john_operator(lambda Y: phi(Y).imag, X, H))
        assert abs(value) > 0.1 and abs(value - parts) <= 1e-12 * abs(value)


# ---- coordinate change ---------------------------------------------------------

def test_chart_diag_zero_maps_to_zero():
    assert_allclose(diag_to_chart(np.zeros(4)), np.zeros((2, 2)))
    assert_allclose(chart_to_diag(np.zeros((2, 2))), np.zeros(4))


def test_chart_diag_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(size=4)
        assert_allclose(chart_to_diag(diag_to_chart(x)), x, atol=1e-14)
        X = rng.normal(size=(2, 2))
        assert_allclose(diag_to_chart(chart_to_diag(X)), X, atol=1e-14)


def test_john_of_pulled_back_null_cone_field():
    # psi = x1^2 + x2^2 - x3^2 - x4^2 has box_diag psi = 8, so the chart
    # pullback must have John value 8/4 = 2
    psi = lambda x: x[0] ** 2 + x[1] ** 2 - x[2] ** 2 - x[3] ** 2
    # chart_to_diag takes one point; phi calls it once per point of the stack
    phi = lambda P: np.array([psi(chart_to_diag(X)) for X in P])
    rng = np.random.default_rng(2)
    for _ in range(5):
        X = rng.normal(size=(2, 2))
        assert abs(john_operator(phi, X, H) - 2.0) < 1e-8


def test_john_equals_quarter_box_on_generic_fields():
    def phi(X):
        return (np.exp(0.5 * X[..., 0, 0]) * np.sin(X[..., 1, 1])
                + X[..., 0, 1] ** 2 * X[..., 1, 0]
                + 0.3 * X[..., 0, 1] * X[..., 1, 1])

    rng = np.random.default_rng(3)
    for _ in range(10):
        X = 0.6 * rng.normal(size=(2, 2))
        lhs = john_operator(phi, X, H)
        rhs = 0.25 * box_diag(lambda x: phi(diag_to_chart(x)),
                              chart_to_diag(X), H)
        assert abs(lhs - rhs) <= 1e-6


# ---- diagonal operator ----------------------------------------------------------

def test_box_diag_signature():
    psi = lambda x: x[0] ** 2 + x[1] ** 2 - x[2] ** 2 - x[3] ** 2
    assert abs(box_diag(psi, np.zeros(4), H) - 8.0) < 1e-9


def test_box_diag_mixed_term_vanishes():
    psi = lambda x: x[0] * x[2]
    assert abs(box_diag(psi, np.array([0.3, 0.1, -0.2, 0.5]), H)) < 1e-12


def test_box_diag_null_direction():
    psi = lambda x: np.exp(x[0] + x[2])
    assert abs(box_diag(psi, np.zeros(4), H)) < 1e-9


def test_fd_order_of_accuracy():
    # the extrapolated stencil is fourth order: halving a step where the
    # truncation error dominates cuts it by about 16 (a plain central
    # difference would give 4); at the default step rounding dominates
    psi = lambda x: np.exp(0.7 * x[0]) * np.sin(1.3 * x[2])
    x0 = np.array([0.3, -0.2, 0.5, 0.1])
    exact = (0.49 + 1.69) * np.exp(0.7 * x0[0]) * np.sin(1.3 * x0[2])
    r1 = abs(box_diag(psi, x0, 0.1) - exact)
    r2 = abs(box_diag(psi, x0, 0.05) - exact)
    assert 1e-6 < r1 < 1e-5
    assert 14.0 <= r1 / r2 <= 18.0
    assert abs(box_diag(psi, x0, H) - exact) < 1e-8


def test_richardson_beats_plain_stencil():
    # the plain central difference at the same step, written out here
    psi = lambda x: np.exp(0.7 * x[0]) * np.sin(1.3 * x[2])
    x0 = np.array([0.3, -0.2, 0.5, 0.1])
    exact = (0.49 + 1.69) * np.exp(0.7 * x0[0]) * np.sin(1.3 * x0[2])
    e = np.eye(4)
    plain = sum(s * (psi(x0 + H * e[i]) - 2 * psi(x0) + psi(x0 - H * e[i]))
                for i, s in enumerate((1, 1, -1, -1))) / H ** 2
    assert abs(box_diag(psi, x0, H) - exact) < abs(plain - exact) / 100


# ---- coupled operator -----------------------------------------------------------

def test_coupled_box_flat_reduction_is_exact():
    x0 = np.array([0.7, 0.1, -0.4, 0.2])
    psi = lambda x: x[0] ** 2 + 0.0j
    psi_vec = lambda x: np.array([x[0] ** 2 + 0.0j])
    zero = connection_preset("zero")
    flat = box_diag(psi, x0, H)
    coupled = coupled_box(zero, psi_vec, x0, H)
    assert flat == coupled[0]
    assert abs(flat - 2.0) < 1e-9
    # the float path agrees up to the dtype of the section values
    assert abs(box_diag(lambda x: x[0] ** 2, x0, H) - flat) < 1e-12


def test_coupled_box_hand_value():
    conn = connection_preset("flagship-u1")
    one = lambda x: np.array([1.0 + 0.0j])
    x0 = np.array([1.0, 0.0, 2.0, 0.0])
    value = coupled_box(conn, one, x0, H)[0]
    assert abs(value - 3.0) < 1e-6
    # oracle: -x1^2 + x3^2 pointwise at other points
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.normal(size=4)
        assert abs(coupled_box(conn, one, x, H)[0]
                   - (-x[0] ** 2 + x[2] ** 2)) < 1e-6


def test_coupled_box_gauge_covariance():
    conn = connection_preset("flagship-u1")
    g = scalar_phase(Poly4.monomial((1, 1, 0, 0)))
    moved_conn = gauge_transform(conn, g)
    psi = lambda x: np.array([np.exp(0.3 * x[0]) * np.sin(x[2]) + 0.2 * x[1]],
                             dtype=complex)
    gpsi = lambda x: g.value(x) @ psi(x)
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = 0.8 * rng.normal(size=4)
        lhs = coupled_box(moved_conn, gpsi, x, H)
        rhs = g.value(x) @ coupled_box(conn, psi, x, H)
        assert np.linalg.norm(lhs - rhs) < 1e-6


def test_coupled_box_constant_matrix_gauge_covariance():
    from splitxray.instanton import constant_gauge
    conn = connection_preset("su2-constant")
    m = np.array([[1.0, 0.5j], [0.0, 2.0]])
    g = constant_gauge(m)
    moved = gauge_transform(conn, g)
    psi = lambda x: np.array([np.sin(x[0]) + x[2] ** 2, np.cos(x[1] * x[3])],
                             dtype=complex)
    gpsi = lambda x: m @ psi(x)
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = 0.8 * rng.normal(size=4)
        lhs = coupled_box(moved, gpsi, x, H)
        rhs = m @ coupled_box(conn, psi, x, H)
        assert np.linalg.norm(lhs - rhs) < 1e-6


def test_coupled_box_dimension_mismatch():
    conn = connection_preset("su2-constant")
    one = lambda x: np.array([1.0 + 0.0j])
    with pytest.raises(ValueError, match="rank"):
        coupled_box(conn, one, np.zeros(4), H)


# ---- moment consistency -----------------------------------------------------------

def test_dn_residual_zero_input():
    # a zero moment field, which no HomogeneousFunction gives
    m = lambda X: np.zeros(X.shape[:-2] + (2,))
    assert dn_residual(m, np.zeros((2, 2)), H) == 0.0


def test_dn_residual_helicity_one():
    f = HomogeneousFunction(Poly4.monomial((1, 0, 0, 0)), -4)
    m = moment_chart_field(f, 1, QuadratureSpec(64))
    assert dn_residual(m, np.zeros((2, 2)), H) < 1e-6


def test_dn_residual_helicity_two_random_points():
    f = HomogeneousFunction(Poly4.monomial((2, 0, 0, 0)), -6)
    m = moment_chart_field(f, 2, QuadratureSpec(64))
    rng = np.random.default_rng(6)
    for _ in range(5):
        X = 0.4 * rng.normal(size=(2, 2))
        assert dn_residual(m, X, H) < 1e-6


def test_dn_residual_rejects_n_zero():
    f = HomogeneousFunction(Poly4.constant(1), -2)
    m = moment_chart_field(f, 0)
    with pytest.raises(ValueError, match="john"):
        dn_residual(m, np.zeros((2, 2)), H)


# ---- steps ----------------------------------------------------------------------

@pytest.mark.parametrize("h", [0.0, -1e-3])
def test_nonpositive_step_is_refused(h):
    psi = lambda x: np.array([x[0] ** 2 + 0.0j])
    m = moment_chart_field(
        HomogeneousFunction(Poly4.monomial((1, 0, 0, 0)), -4), 1)
    for apply in (lambda: john_operator(np.linalg.det, np.zeros((2, 2)), h),
                  lambda: dn_residual(m, np.zeros((2, 2)), h),
                  lambda: box_diag(psi, np.zeros(4), h),
                  lambda: coupled_box(connection_preset("zero"), psi,
                                      np.zeros(4), h)):
        with pytest.raises(ValueError, match="positive"):
            apply()


def test_worst_residual_keeps_a_nan_that_comes_late():
    # max() drops it: max(max(0.0, 1e-9), nan) is 1e-9, and 2e-9 wins
    assert max(max(max(0.0, 1e-9), float("nan")), 2e-9) == 2e-9
    assert np.isnan(worst_residual([1e-9, float("nan"), 2e-9]))
    assert worst_residual(iter([1e-9, 3e-9, 2e-9])) == 3e-9
    assert worst_residual([]) == 0.0


# ---- batched stencils against per-point loops ----------------------------------
# Each reference below evaluates one stencil point at a time through the
# per-frame transforms, with the stencil arithmetic written out; the batched
# operators must agree bit for bit.

E11, E12, E21, E22 = (np.eye(4)[i].reshape(2, 2) for i in range(4))


def john_by_points(value, X, h):
    def step(h):
        def mixed(da, db):
            return (value(X + h * (da + db)) - value(X + h * (da - db))
                    - value(X - h * (da - db)) + value(X - h * (da + db))
                    ) / (4.0 * h * h)
        return mixed(E11, E22) - mixed(E12, E21)

    v = step(h)
    return (4.0 * step(h / 2.0) - v) / 3.0


def first_diff_by_points(value, X, e, h):
    def step(h):
        return (value(X + h * e) - value(X - h * e)) / (2.0 * h)

    d = step(h)
    return (4.0 * step(h / 2.0) - d) / 3.0


def test_batched_john_on_xray_field_equals_per_point_loop():
    q = QuadratureSpec(128)
    rng = np.random.default_rng(21)
    for h in harmonic_basis(2)[:4]:
        f = basis_to_degree_minus_2(h)
        phi = xray_chart_field(f, q)
        value = lambda P: xray_transform(f, plane_from_chart(P), q)
        for X in 0.35 * rng.normal(size=(3, 2, 2)):
            assert john_operator(phi, X, H) == john_by_points(value, X, H)


def test_batched_john_on_contour_field_equals_per_point_loop():
    state = elementary_state([1, 0, 1j, 0], [1j, 0, 1, 0])
    q = QuadratureSpec(128)
    phi = contour_chart_field(state, q)
    value = lambda P: contour_transform(state, plane_from_chart(P), q)
    rng = np.random.default_rng(22)
    for dX in 0.1 * rng.normal(size=(5, 2, 2)):
        X = np.array([[0.0, 0.0], [1.0, 0.0]]) + dX
        assert john_operator(phi, X, H) == john_by_points(value, X, H)


@pytest.mark.parametrize("n", [1, 2])
def test_batched_dn_residual_equals_per_point_loop(n):
    q = QuadratureSpec(64)
    rng = np.random.default_rng(23 + n)
    for h in harmonic_basis(n)[:3]:
        f = HomogeneousFunction(h.poly, -2 * n - 2)
        m = moment_chart_field(f, n, q)
        for X in 0.35 * rng.normal(size=(3, 2, 2)):
            def d(k, e):
                return first_diff_by_points(
                    lambda P: xray_moments(f, plane_from_chart(P), n, q)[k],
                    X, e, H)
            expected = max(abs(d(k, row2) - d(k + 1, row1))
                           for k in range(n)
                           for row1, row2 in ((E11, E21), (E12, E22)))
            assert dn_residual(m, X, H) == expected


def test_batched_equivariance_equals_per_frame_loop():
    rng = np.random.default_rng(25)
    frames = sample_frames(20, 26)
    q = QuadratureSpec(64)
    for h in harmonic_basis(2)[:4]:
        f = basis_to_degree_minus_2(h)
        g = random_sl4(rng)
        # R(f o g) on one frame: f at its circle points moved by g
        expected = max(abs(circle_integral(f(circle_points(frame.rows, q) @ g.T), q)
                           - xray_transform(f, frame.ambient_transform(g), q))
                       for frame in frames)
        assert equivariance_residual(f, g, frames, q) == expected


def test_a_field_sees_the_whole_stencil_in_one_call():
    seen = []

    def det(P):
        seen.append(P.shape)
        return np.linalg.det(P)

    X = np.array([[0.3, -0.2], [0.1, 0.4]])
    value = john_operator(det, X, H)
    assert seen == [(16, 2, 2)]
    assert value == john_by_points(np.linalg.det, X, H)
    # a scalar field has no moment relations, like n = 0
    seen.clear()
    with pytest.raises(ValueError, match="john"):
        dn_residual(det, X, H)
    assert seen == [(16, 2, 2)]


def test_stacked_field_of_the_wrong_shape_is_refused():
    for wrong in (lambda P: np.zeros(3), lambda P: 1.0):
        with pytest.raises(ValueError, match="16 chart points"):
            john_operator(wrong, np.zeros((2, 2)), H)
