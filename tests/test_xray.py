import numpy as np
import pytest
from numpy.testing import assert_allclose

from splitxray.fields import (HomogeneousFunction, basis_to_degree_minus_2,
                              harmonic_basis)
from splitxray.geometry import Frame, plane_from_chart
from splitxray.inversion import sample_frames
from splitxray.poly import Poly4
from splitxray.xray import (QuadratureSpec, circle_integral, circle_points,
                            equivariance_residual, moment_chart_field,
                            random_sl4, xray_chart_field, xray_moments,
                            xray_transform)

E = np.eye(4)
INV_SQ = HomogeneousFunction(Poly4.constant(1), -2)
# x3^2 |x|^-4 vanishes on the plane of (e1, e2); x3 |x|^-4 for moments at n = 1
X3_SQ = HomogeneousFunction(Poly4.monomial((0, 0, 2, 0)), -4)
X3 = HomogeneousFunction(Poly4.monomial((0, 0, 1, 0)), -4)


def gram_closed_form(frame):
    """Oracle: the transform of |x|^-2 is 2 pi / sqrt(det Gram(u, v))."""
    m = frame.rows
    return 2 * np.pi / np.sqrt(np.linalg.det(m @ m.T))


def test_flagship_value():
    value = xray_transform(INV_SQ, Frame(E[0], E[1]), QuadratureSpec(64))
    assert abs(value - 2 * np.pi) < 1e-12


def test_zero_function():
    # zero at every node of the circle of (e1, e2), so exactly zero
    assert xray_transform(X3_SQ, Frame(E[0], E[1])) == 0.0
    assert xray_transform(X3_SQ, Frame(E[0] + E[1], 2.0 * E[1])) == 0.0


def test_scaled_frame_closed_form():
    value = xray_transform(INV_SQ, Frame(2 * E[0], 3 * E[1]))
    assert_allclose(value, 2 * np.pi / 6, atol=1e-12)


def test_quadratic_moment_vanishes():
    h = Poly4.monomial((2, 0, 0, 0)) - Poly4.monomial((0, 2, 0, 0))
    f = HomogeneousFunction(h, -4)
    assert abs(xray_transform(f, Frame(E[0], E[1]))) < 1e-13


def test_wrong_degree_rejected():
    with pytest.raises(ValueError, match="degree -2"):
        xray_transform(HomogeneousFunction(Poly4.constant(1), -4),
                       Frame(E[0], E[1]))


def test_chart_field_closed_form():
    phi = xray_chart_field(INV_SQ, QuadratureSpec(64))
    assert abs(phi(np.zeros((2, 2))) - 2 * np.pi) < 1e-12
    rng = np.random.default_rng(0)
    for _ in range(20):
        X = 0.5 * rng.normal(size=(2, 2))
        assert abs(phi(X) - gram_closed_form(plane_from_chart(X))) < 1e-10


def test_chart_field_of_zero():
    # chart point 0 is the plane of (e1, e2), on which X3_SQ vanishes
    phi = xray_chart_field(X3_SQ)
    assert np.array_equal(phi(np.zeros((3, 2, 2))), np.zeros(3))


def test_quadrature_spectral_convergence():
    frame = Frame(2 * E[0], 3 * E[1])
    exact = gram_closed_form(frame)
    e16 = abs(xray_transform(INV_SQ, frame, QuadratureSpec(16)) - exact)
    e32 = abs(xray_transform(INV_SQ, frame, QuadratureSpec(32)) - exact)
    assert e16 / max(e32, 1e-300) >= 1e3


def test_linearity_exact():
    f = basis_to_degree_minus_2(harmonic_basis(2)[1])
    g = basis_to_degree_minus_2(harmonic_basis(2)[6])
    frame = Frame([1.0, 0.1, 0.3, 0], [0, 1.0, -0.2, 0.4])
    # 2 f - 3 g is one polynomial over |x|^4
    combo = HomogeneousFunction(2 * f.poly - 3 * g.poly, -4)
    lhs = xray_transform(combo, frame)
    rhs = 2.0 * xray_transform(f, frame) - 3.0 * xray_transform(g, frame)
    assert abs(lhs - rhs) < 1e-12 * (1 + abs(rhs))


def test_weight_law_on_transform():
    # |det g|^-1 covariance, the weight -1 law, at quadrature accuracy
    rng = np.random.default_rng(1)
    f = basis_to_degree_minus_2(harmonic_basis(2)[0])
    q = QuadratureSpec(128)
    frame = sample_frames(1, 7)[0]
    base = xray_transform(f, frame, q)
    for _ in range(10):
        g = np.array([[1.2, 0.3], [-0.4, 0.9]]) + 0.2 * rng.normal(size=(2, 2))
        moved = xray_transform(f, frame.transform(g), q)
        assert abs(moved - base / abs(np.linalg.det(g))) <= 1e-9 * (1 + abs(base))


# ---- quadrature plumbing ----------------------------------------------------

def test_quadrature_spec_validation():
    with pytest.raises(ValueError, match="4 nodes"):
        QuadratureSpec(3)
    for n_nodes in (4.5, 64.0, "64"):
        with pytest.raises(TypeError):
            QuadratureSpec(n_nodes)
    q = QuadratureSpec(np.int64(64))
    assert q == QuadratureSpec(64) and type(q.n_nodes) is int
    assert q.weight == 2.0 * np.pi / 64


def test_circle_points_shape_and_values():
    q = QuadratureSpec(4)
    pts = circle_points(Frame(E[0], E[1]).rows, q)
    assert pts.shape == (4, 4)
    assert_allclose(pts[0], E[0], atol=1e-15)
    assert_allclose(pts[1], E[1], atol=1e-15)


def test_node_columns_are_built_once_and_keep_the_points():
    q = QuadratureSpec(96)
    assert q == QuadratureSpec(96) and hash(q) == hash(QuadratureSpec(96))
    assert q != QuadratureSpec(64)
    with pytest.raises(ValueError):
        q.cos[0] = 0.0
    theta = np.arange(96) * (2.0 * np.pi / 96)
    for frame in sample_frames(5, 3):
        outer = (np.outer(np.cos(theta), frame.u)
                 + np.outer(np.sin(theta), frame.v))
        assert np.array_equal(circle_points(frame.rows, q), outer)


def test_circle_integral_constant():
    q = QuadratureSpec(64)
    assert_allclose(circle_integral(np.ones(64), q), 2 * np.pi, rtol=1e-15)
    with pytest.raises(ValueError, match="match"):
        circle_integral(np.ones(32), q)
    with pytest.raises(ValueError, match="match"):
        circle_integral(np.float64(1.0), q)


def test_circle_integral_of_a_list_equals_that_of_an_array():
    q = QuadratureSpec(16)
    values = np.random.default_rng(3).normal(size=(3, 16))
    for v in (values, values[0]):
        assert np.array_equal(circle_integral(v.tolist(), q),
                              circle_integral(v, q))


# ---- moments ------------------------------------------------------------------

def test_moments_helicity_one():
    f = HomogeneousFunction(Poly4.monomial((1, 0, 0, 0)), -4)
    phi = xray_moments(f, Frame(E[0], E[1]), 1)
    assert_allclose(phi, [np.pi, 0.0], atol=1e-13)


def test_moments_helicity_two():
    f = HomogeneousFunction(Poly4.monomial((2, 0, 0, 0)), -6)
    phi = xray_moments(f, Frame(E[0], E[1]), 2)
    assert_allclose(phi, [3 * np.pi / 4, 0.0, np.pi / 4], atol=1e-13)


def test_moments_zero_function():
    assert np.array_equal(xray_moments(X3, Frame(E[0], E[1]), 1), [0.0, 0.0])


def test_moments_degree_mismatch():
    with pytest.raises(ValueError, match="degree"):
        xray_moments(INV_SQ, Frame(E[0], E[1]), 1)


def test_moments_parity_mismatch():
    # n = 2 needs an even input of degree -4.  An odd one cannot have that
    # degree: x1 |x|^-5 has no even radial power, and x1 |x|^-4 (degree
    # -3) is refused by the degree gate
    with pytest.raises(ValueError, match="even"):
        HomogeneousFunction(Poly4.monomial((1, 0, 0, 0)), -5)
    odd = HomogeneousFunction(Poly4.monomial((1, 0, 0, 0)), -4)
    with pytest.raises(ValueError, match="degree -4"):
        xray_moments(odd, Frame(E[0], E[1]), 2)
    with pytest.raises(ValueError, match="degree -4"):
        moment_chart_field(odd, 2)


def test_moments_reduce_to_transform_at_zero():
    frame = Frame([1.0, 0.2, -0.3, 0.1], [0.0, 1.0, 0.4, -0.2])
    assert_allclose(xray_moments(INV_SQ, frame, 0),
                    [xray_transform(INV_SQ, frame)], rtol=1e-15)


def test_moment_chart_field_components():
    f = HomogeneousFunction(Poly4.monomial((1, 0, 0, 0)), -4)
    m = moment_chart_field(f, 1)
    assert m(np.zeros((3, 2, 2))).shape == (3, 2)
    assert_allclose(m(np.zeros((2, 2))), [np.pi, 0.0], atol=1e-13)


def test_moment_chart_field_evaluates_the_input_once_per_call():
    shapes = []
    # the moment functions read only .degree and call their input
    f = lambda x: shapes.append(x.shape) or X3(x)
    f.degree = X3.degree
    q = QuadratureSpec(16)
    m = moment_chart_field(f, 1, q)
    X = np.array([[0.1, -0.2], [0.3, 0.05]])
    vector = m(X)
    for k in (0, 1):
        assert vector[k] == xray_moments(f, plane_from_chart(X), 1, q)[k]
    # once for the field and once per xray_moments call, on circle points
    # only: parity follows from the degree, so nothing is probed
    assert shapes == [(16, 4)] * 3


# ---- equivariance ---------------------------------------------------------------

def test_equivariance_identity_exact():
    frames = sample_frames(5, 11)
    assert equivariance_residual(INV_SQ, np.eye(4), frames) == 0.0


def test_equivariance_diagonal_and_rotation():
    frames = sample_frames(20, 12)
    g = np.diag([2.0, 0.5, 1.0, 1.0])
    assert equivariance_residual(INV_SQ, g, frames) < 1e-10
    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    rot = np.eye(4)
    rot[:2, :2] = [[c, -s], [s, c]]
    assert equivariance_residual(INV_SQ, rot, frames) < 1e-10


def test_equivariance_seeded_sl4_basis():
    rng = np.random.default_rng(13)
    frames = sample_frames(20, 14)
    inputs = [basis_to_degree_minus_2(h) for k in (0, 2)
              for h in harmonic_basis(k)]
    for _ in range(10):
        g = random_sl4(rng)
        assert abs(np.linalg.det(g) - 1.0) < 1e-10
        for f in inputs[:4]:
            assert equivariance_residual(f, g, frames) <= 1e-9


def test_equivariance_rejects_singular():
    with pytest.raises(ValueError, match="invertible"):
        equivariance_residual(INV_SQ, np.zeros((4, 4)), [Frame(E[0], E[1])])


def test_circle_points_broadcast_over_stacks_of_frame_rows():
    q = QuadratureSpec(32)
    frames = sample_frames(6, 4)
    rows = np.array([[f.u, f.v] for f in frames]).reshape(2, 3, 2, 4)
    pts = circle_points(rows, q)
    assert pts.shape == (2, 3, 32, 4)
    for i, frame in enumerate(frames):
        assert np.array_equal(pts.reshape(6, 32, 4)[i],
                              circle_points(frame.rows, q))


def test_circle_points_are_c_contiguous_and_own_their_data():
    # a memo keys only on arrays that own their data (poly.frozen)
    q = QuadratureSpec(32)
    frames = sample_frames(3, 5)
    rows = np.array([[f.u, f.v] for f in frames])
    for pts in (circle_points(frames[0].rows, q), circle_points(rows, q),
                circle_points(rows[:, :, ::-1], q)):
        assert pts.flags.c_contiguous and pts.flags.owndata
        assert pts.base is None


def test_moment_vector_matches_components_and_xray_moments():
    f = HomogeneousFunction(Poly4.monomial((2, 0, 0, 0)), -6)
    q = QuadratureSpec(32)
    m = moment_chart_field(f, 2, q)
    X = 0.3 * np.random.default_rng(9).normal(size=(4, 2, 2))
    vectors = m(X)
    assert vectors.shape == (4, 3)
    for Xi, vec in zip(X, vectors):
        assert np.array_equal(vec, xray_moments(f, plane_from_chart(Xi), 2, q))
        assert np.array_equal(m(Xi), vec)
