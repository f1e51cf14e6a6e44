import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splitxray.geometry import Frame, plane_from_chart
from splitxray.inversion import sample_frames
from splitxray.operators import john_operator
from splitxray.penrose import (PoleProximityError, TwistorRationalFunction,
                               contour_chart_field, contour_transform,
                               elementary_state, factor_orientation,
                               normalized_pole_margin, pole_safety,
                               wedge_pairing)
from splitxray.xray import (QuadratureSpec, circle_integral, circle_points,
                            xray_transform)

A = np.array([1, 0, 1j, 0])
B = np.array([1j, 0, 1, 0])
E = np.eye(4)
FLAGSHIP_FRAME = Frame(E[0], E[2])
# base frame of the pole-safe chart component used below: u = e1, v = e2 + e3
SAFE_FRAME = Frame(E[0], E[1] + E[2])


def test_elementary_state_construction():
    state = elementary_state(A, B)
    assert state.degree == -2
    rng = np.random.default_rng(0)
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert_allclose(state(2.0 * z) / state(z), 0.25, rtol=1e-12)


def test_elementary_state_rejects_proportional_covectors():
    with pytest.raises(ValueError, match="proportional"):
        elementary_state(A, (2 - 1j) * A)


def test_flagship_contour_value():
    value = contour_transform(elementary_state(A, B), FLAGSHIP_FRAME,
                              QuadratureSpec(64))
    assert abs(value - (-2j * np.pi)) < 1e-12


def test_contour_linearity():
    state = elementary_state(A, B)
    lam = 0.7 - 1.3j
    v1 = contour_transform(TwistorRationalFunction(state.factors, lam),
                           FLAGSHIP_FRAME)
    v2 = lam * contour_transform(state, FLAGSHIP_FRAME)
    assert abs(v1 - v2) < 1e-14 * abs(v2)


def test_ratio_constancy_over_pole_safe_component():
    state = elementary_state(A, B)
    rng = np.random.default_rng(1)
    q = QuadratureSpec(128)
    ratios = []
    while len(ratios) < 10:
        fr = Frame(SAFE_FRAME.u + 0.2 * rng.normal(size=4),
                   SAFE_FRAME.v + 0.2 * rng.normal(size=4))
        if not pole_safety(state, fr).ok:
            continue
        ratios.append(contour_transform(state, fr, q) * wedge_pairing(A, B, fr))
    ratios = np.array(ratios)
    spread = np.max(np.abs(ratios - ratios.mean())) / abs(ratios.mean())
    assert spread < 1e-8
    # residue-calculus oracle: the constant for this state is -4 pi i
    assert_allclose(ratios.mean(), -4j * np.pi, rtol=1e-10)


def test_john_residual_of_chart_field():
    state = elementary_state(A, B)
    phi = contour_chart_field(state, QuadratureSpec(128))
    X0 = np.array([[0.0, 0.0], [1.0, 0.0]])
    rng = np.random.default_rng(2)
    for _ in range(5):
        X = X0 + 0.1 * rng.normal(size=(2, 2))
        assert abs(john_operator(lambda Y: phi(Y).real, X, 1e-3)) < 1e-6
        assert abs(john_operator(lambda Y: phi(Y).imag, X, 1e-3)) < 1e-6


def test_pole_refusal_names_factor_and_margin():
    state = elementary_state(A, B)
    # at X = 0 the factor lines meet the circle of the chart frame
    with pytest.raises(PoleProximityError, match="factor 0 .*margin"):
        contour_transform(state, plane_from_chart(np.zeros((2, 2))))


def test_pole_safety_report_values():
    state = elementary_state(A, B)
    report = pole_safety(state, SAFE_FRAME)
    # |(A.u) c + (A.v) s| = |c + i s| = 1 for both factors on this frame
    assert_allclose(report.minima, (1.0, 1.0), rtol=1e-12)
    assert report.ok
    report_bad = pole_safety(state, plane_from_chart(np.zeros((2, 2))))
    assert not report_bad.ok


def _sweep_cases(seed, n_states=8, frames_per_state=625):
    """Generic elementary states with seeded frames, drawn as the
    penrose-sweep benchmark workload draws them."""
    rng = np.random.default_rng(seed)
    for _ in range(n_states):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        yield elementary_state(a, b), sample_frames(
            frames_per_state, int(rng.integers(2 ** 31)))


def test_pole_safety_minima_are_exact():
    # |alpha cos + beta sin|^2 = l_min + (l_max - l_min) sin^2(theta - t*),
    # so a grid with spacing h reads between the exact minimum and
    # sqrt(l_min + (l_max - l_min) sin^2(h / 2))
    checked = 0
    for state, frames in _sweep_cases(5, n_states=2, frames_per_state=50):
        for fr in frames:
            report = pole_safety(state, fr)
            for (a, _), m in zip(state.factors, report.minima):
                alpha, beta = fr.u @ a, fr.v @ a
                vec = np.array([alpha, beta])
                l_min, l_max = np.linalg.eigvalsh(np.outer(vec, vec.conj()).real)
                grids = {}
                for n in (1024, 2 ** 16):
                    q = QuadratureSpec(n)
                    grids[n] = np.min(np.abs(alpha * q.cos + beta * q.sin))
                    half_step = math.sin(math.pi / n)
                    assert m <= grids[n] * (1 + 1e-12)
                    assert grids[n] <= math.sqrt(
                        m ** 2 + l_max * half_step ** 2) * (1 + 1e-12)
                if l_max <= 4 * l_min:
                    # a minimum this flat is resolved by the fine scan
                    assert grids[2 ** 16] == pytest.approx(m, rel=1e-8)
                    checked += 1
    assert checked >= 20


def test_pole_distance_is_exactly_zero_on_a_real_factor():
    # conj(alpha) beta = conj(1 + i) (2 + 2i) = 4 is real: the circle
    # passes through the factor's zero set
    state = elementary_state((1 + 1j) * np.array([1.0, 2.0, 0, 0]), B)
    report = pole_safety(state, Frame(E[0], E[1]))
    assert report.minima[0] == 0.0 and report.half_widths[0] == 0.0
    assert not report.ok


def test_a_real_numerator_factor_is_not_a_pole():
    # (C.Z) / ((A.Z)(B.Z)(D.Z)) with real C: the circle of (e1, e3) meets
    # the zeros of C.Z, where the integrand vanishes and stays analytic
    C, D = np.array([1.0, 0, 1, 0]), np.array([2.0, 0, 1j, 0])
    f = TwistorRationalFunction(((C, 1), (A, -1), (B, -1), (D, -1)))
    report = pole_safety(f, FLAGSHIP_FRAME)
    assert report.ok
    assert report.minima[0] == report.half_widths[0] == math.inf
    # the poles are those of the denominator alone
    poles = TwistorRationalFunction(f.factors[1:])
    alone = pole_safety(poles, FLAGSHIP_FRAME)
    assert report.minima[1:] == alone.minima
    assert report.half_widths[1:] == alone.half_widths
    assert (normalized_pole_margin(f, FLAGSHIP_FRAME)
            == normalized_pole_margin(poles, FLAGSHIP_FRAME) > 0.1)
    q = QuadratureSpec(64)
    value = contour_transform(f, FLAGSHIP_FRAME, q)
    assert value == circle_integral(f(circle_points(FLAGSHIP_FRAME.rows, q)), q)
    # residue calculus with z = e^(i theta) gives -2 pi (1 + i) / 3
    assert_allclose(value, -2 * np.pi * (1 + 1j) / 3, rtol=1e-14)


def test_refuses_a_pole_between_the_nodes_of_a_1024_grid():
    # A.(u cos + v sin) = sin(t - t0) + i eps cos(t - t0): the circle
    # passes within eps of the pole at t0, half a step between grid angles
    t0, eps = math.pi / 1024, 1e-4
    a = np.array([-math.sin(t0) + 1j * eps * math.cos(t0),
                  math.cos(t0) + 1j * eps * math.sin(t0), 0, 0])
    frame = Frame(E[0], E[1])
    state = elementary_state(a, [1, -1j, 0, 0])
    grid = QuadratureSpec(1024)
    assert np.min(np.abs(a[0] * grid.cos + a[1] * grid.sin)) > 1e-3
    assert pole_safety(state, frame).minima[0] == pytest.approx(eps, rel=1e-12)
    with pytest.raises(PoleProximityError, match="factor 0 passes within 1.000e-04"):
        contour_transform(state, frame, margin=1e-3)


def _orientation_reference(f, frame):
    """factor_orientation written out with its original arithmetic."""
    signs = []
    for a, _ in f.factors:
        alpha = complex(frame.u @ a)
        beta = complex(frame.v @ a)
        signs.append(1 if (np.conj(alpha) * beta).imag > 0 else -1)
    return tuple(signs)


def test_factor_orientation_matches_its_reference_on_the_sweep_frames():
    count = 0
    for state, frames in _sweep_cases(1):
        for fr in frames:
            assert factor_orientation(state, fr) == _orientation_reference(state, fr)
            count += 1
    assert count == 5000


def _per_factor_reference(f, frame, q, margin):
    """Pole minima, half-widths, normalized margin, refusal verdict,
    covector-times-frame sizes, contour value and the trapezoid sum of |f|,
    from per-factor formulas: one np.dot per coefficient, points built
    node-major, one matrix-vector product per factor."""
    minima, widths = [], []
    for a, _ in f.factors:
        alpha = complex(np.dot(frame.u, a))
        beta = complex(np.dot(frame.v, a))
        cross = np.conj(alpha) * beta
        aa, bb = abs(alpha) ** 2, abs(beta) ** 2
        lam_max = 0.5 * (aa + bb + math.hypot(aa - bb, 2.0 * cross.real))
        minima.append(abs(cross.imag) / math.sqrt(lam_max))
        widths.append(0.5 * math.atanh(2.0 * abs(cross.imag) / (aa + bb)))
    scale = math.sqrt(max(np.dot(frame.u, frame.u), np.dot(frame.v, frame.v)))
    norms = [math.sqrt(np.vdot(a, a).real) * scale for a, _ in f.factors]
    points = q.cos[:, None] * frame.u + q.sin[:, None] * frame.v
    points = points.astype(complex)
    values = np.full(q.n_nodes, f.scale, dtype=complex)
    for a, m in f.factors:
        values = values * (points @ a) ** m
    return (minima, widths, min(m / n for m, n in zip(minima, norms)),
            all(m > margin for m in minima), norms,
            values.sum() * (2.0 * np.pi / q.n_nodes),
            np.abs(values).sum() * (2.0 * np.pi / q.n_nodes))


def test_pole_geometry_and_values_match_per_factor_formulas():
    # Near a pole a minimum is a small difference of products, so its
    # rounding error is relative to the covector and frame size; relative
    # to the minimum itself the subset of frames at normalized margin
    # >= 0.01 agrees to 1e-13.  Likewise a transform that vanishes (both
    # factors' zeros on one side) is rounding noise of the sum of |f|; on
    # the components where it does not vanish it agrees to 1e-13 relative.
    # The sweep frames are orthonormal; a fixed GL(2) move gives each one
    # a twin with other lengths and a skew angle.
    q, margin = QuadratureSpec(256), 0.05
    g = np.array([[1.0, 0.4], [-0.3, 1.8]])
    compared = refused = 0
    for state, frames in _sweep_cases(3, n_states=3, frames_per_state=50):
        for fr in (f for frame in frames for f in (frame, frame.transform(g))):
            minima, widths, npm, ok, norms, value, size = (
                _per_factor_reference(state, fr, q, margin))
            report = pole_safety(state, fr, margin)
            assert report.ok == ok
            for got, want, norm in zip(report.minima, minima, norms):
                assert abs(got - want) <= 1e-13 * norm
            if npm < 0.01:
                continue
            assert_allclose(report.minima, minima, rtol=1e-13, atol=0)
            assert_allclose(report.half_widths, widths, rtol=1e-13, atol=0)
            assert normalized_pole_margin(state, fr) == pytest.approx(
                npm, rel=1e-13, abs=0)
            if not ok:
                refused += 1
                with pytest.raises(PoleProximityError):
                    contour_transform(state, fr, q, margin)
                continue
            got = contour_transform(state, fr, q, margin)
            assert abs(got - value) <= 1e-13 * size
            if len(set(factor_orientation(state, fr))) == 2:
                assert abs(got - value) <= 1e-13 * abs(value)
                compared += 1
    assert compared >= 100 and refused >= 5


def test_rational_function_with_mixed_exponents_and_scale():
    a = np.array([0.3 - 1.1j, 0.7, -0.2 + 0.4j, 1.3j])
    b = np.array([1.0, -0.5 + 0.9j, 0.25j, -0.8])
    scale = 2.5 - 0.75j
    f = TwistorRationalFunction(((a, -3), (b, 1)), scale)
    assert f.degree == -2
    rng = np.random.default_rng(8)
    real = rng.normal(size=(3, 5, 4))
    points = (real, real + 1j * rng.normal(size=(3, 5, 4)))
    for z in points:
        expected = np.array([scale * complex(x @ a) ** -3 * complex(x @ b)
                             for x in z.reshape(-1, 4)]).reshape(3, 5)
        assert_allclose(f(z), expected, rtol=1e-13, atol=0)
        assert f(z).shape == (3, 5)
        assert_allclose(f(z[1, 2]), expected[1, 2], rtol=1e-13, atol=0)
        assert np.shape(f(z[1, 2])) == ()
    # a scaled copy rebuilds its factors and scales every value
    scaled = TwistorRationalFunction(f.factors, 0.5j * scale)
    assert_allclose(scaled(points[1]), 0.5j * f(points[1]), rtol=1e-15)


def test_half_widths_match_the_log_form():
    for state, frames in _sweep_cases(2, n_states=2, frames_per_state=50):
        for fr in frames:
            report = pole_safety(state, fr)
            for (a, _), d in zip(state.factors, report.half_widths):
                alpha, beta = fr.u @ a, fr.v @ a
                log_form = 0.5 * abs(math.log(abs(alpha + 1j * beta)
                                              / abs(alpha - 1j * beta)))
                assert d == pytest.approx(log_form, rel=1e-10)


def test_trapezoid_error_decays_like_exp_minus_n_d():
    # A restricts to cos + i rho sin on (e1, rho' e2): zeros at
    # Im t = +-atanh(rho rho'); B = e^(-i t) has none
    a = np.array([1, 0.5j, 0, 0])
    b = np.array([1, -1j, 0, 0])
    state = elementary_state(a, b)
    for frame, d in ((Frame(E[0], E[1]), math.atanh(0.5)),
                     (Frame(E[0], 0.6 * E[1]), math.atanh(0.3))):
        report = pole_safety(state, frame)
        assert min(report.half_widths) == pytest.approx(d, rel=1e-12)
        assert factor_orientation(state, frame) == (1, -1)
        exact = -4j * np.pi / wedge_pairing(a, b, frame)
        scaled = [abs(contour_transform(state, frame, QuadratureSpec(n)) - exact)
                  * math.exp(n * d) for n in (16, 24, 32, 40)]
        assert max(scaled) < 1.02 * min(scaled)


def test_weight_law_for_contour_transform():
    state = elementary_state(A, B)
    base = contour_transform(state, SAFE_FRAME, QuadratureSpec(128))
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = np.eye(2) + 0.25 * rng.normal(size=(2, 2))
        moved = contour_transform(state, SAFE_FRAME.transform(g),
                                  QuadratureSpec(128))
        expected = base / abs(np.linalg.det(g))
        assert abs(moved - expected) <= 1e-9 * (1 + abs(base))


def test_deformation_invariance_under_node_doubling():
    state = elementary_state(A, B)
    v64 = contour_transform(state, SAFE_FRAME, QuadratureSpec(64))
    v128 = contour_transform(state, SAFE_FRAME, QuadratureSpec(128))
    assert abs(v128 - v64) < 1e-10


def test_real_integrand_matches_xray_engine_bitwise():
    # f = 1/((A.Z)(conj(A).Z)) is real and positive on real vectors
    state = elementary_state(A, np.conj(A))
    frame = SAFE_FRAME
    assert pole_safety(state, frame).ok
    q = QuadratureSpec(64)
    value = contour_transform(state, frame, q)
    # xray_transform reads only .degree and calls its input
    real_eval = lambda x: state(x).real
    real_eval.degree = -2
    assert xray_transform(real_eval, frame, q) == value.real
    assert abs(value.imag) < 1e-14 * abs(value.real)
    # both transforms ride the same quadrature engine on the same nodes
    assert value == circle_integral(state(circle_points(frame.rows, q)), q)


def test_component_structure_of_the_ratio_constant():
    # residue counting: with both factor zeros on the same side of the
    # circle the transform vanishes; with one on each side, the transform
    # times the wedge pairing is exactly +-4 pi i
    frame = Frame(E[0], E[1])
    a = np.array([1, 1j, 0, 0])
    b = np.array([1, 0.5j, 0, 0])
    same_side = elementary_state(a, b)
    assert factor_orientation(same_side, frame) == (1, 1)
    assert abs(contour_transform(same_side, frame, QuadratureSpec(256))) < 1e-12

    mixed = elementary_state(a, np.conj(b))
    assert factor_orientation(mixed, frame) == (1, -1)
    value = contour_transform(mixed, frame, QuadratureSpec(256))
    product = value * wedge_pairing(a, np.conj(b), frame)
    assert min(abs(product - 4j * np.pi), abs(product + 4j * np.pi)) < 1e-12


def test_normalized_pole_margin_scale_invariance():
    state = elementary_state(A, B)
    m1 = normalized_pole_margin(state, SAFE_FRAME)
    scaled = elementary_state(5.0 * A, B)
    assert abs(normalized_pole_margin(scaled, SAFE_FRAME) - m1) < 1e-12
    assert m1 > 0.4


def test_homogeneity_gate():
    lone = TwistorRationalFunction(((A, -1),))
    with pytest.raises(ValueError, match="degree -2"):
        contour_transform(lone, SAFE_FRAME)


def test_factor_validation():
    with pytest.raises(ValueError, match="nonzero"):
        TwistorRationalFunction(((np.zeros(4), -1),))
    with pytest.raises(ValueError, match="4-vector"):
        TwistorRationalFunction(((np.array([1.0, 2.0]), -1),))


def test_contour_stencil_with_one_refused_point_raises():
    # around this chart point the stencil circles pass 0.999 to 1.0 from the
    # poles; at a margin between the two some points are refused
    state = elementary_state(A, B)
    X = np.array([[0.0, 0.0], [1.0, 0.0]])
    margin = 0.9992
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    e21 = np.array([[0.0, 0.0], [1.0, 0.0]])
    contour_transform(state, plane_from_chart(X + 1e-3 * (e12 + e21)),
                      margin=margin)
    with pytest.raises(PoleProximityError):
        contour_transform(state, plane_from_chart(X + 1e-3 * (e12 - e21)),
                          margin=margin)
    phi = contour_chart_field(state, QuadratureSpec(64), margin)
    with pytest.raises(PoleProximityError, match="margin 9.992e-01"):
        john_operator(phi, X, 1e-3)
    # at the default margin the same stencil is accepted
    assert abs(john_operator(contour_chart_field(state, QuadratureSpec(64)), X,
                             1e-3)) < 1e-6


def test_contour_chart_field_checks_homogeneity_when_built():
    with pytest.raises(ValueError, match="degree -2"):
        contour_chart_field(TwistorRationalFunction(((A, -3),)))
