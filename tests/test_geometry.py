import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from splitxray import cli, geometry
from splitxray.geometry import (DEGENERACY_RTOL, Frame, chart_frame_rows,
                                chart_from_plane, incidence_residual, is_real,
                                pi_project, plane_distance, plane_from_chart,
                                plucker_embed, quadric_residual)

E = np.eye(4)


def minors_oracle(u, v):
    """Independent 2x2 minor computation by explicit index loops."""
    out = []
    for i in range(4):
        for j in range(i + 1, 4):
            out.append(u[i] * v[j] - u[j] * v[i])
    return np.array(out)


# ---- Pluecker embedding ----------------------------------------------------

def test_plucker_standard_plane():
    assert_allclose(plucker_embed(Frame(E[0], E[1])), [1, 0, 0, 0, 0, 0])


def test_plucker_example_frame():
    f = Frame([1, 0, 1, 0], [0, 1, 0, 1])
    p = plucker_embed(f)
    assert_allclose(p, [1, 0, 1, -1, 0, 1])
    assert quadric_residual(p) == 0.0
    assert_allclose(p, minors_oracle(f.u, f.v))


def test_plucker_scales_by_det():
    f = Frame([1, 0, 1, 0], [0, 1, 0, 1])
    g = np.diag([2.0, 3.0])
    assert_allclose(plucker_embed(f.transform(g)), 6.0 * plucker_embed(f),
                    atol=1e-14)


vec4 = st.lists(st.floats(-10, 10, allow_nan=False), min_size=4, max_size=4)


@settings(max_examples=50, deadline=None)
@given(vec4, vec4)
# every 2x2 minor of this frame underflows to 0
@example(u=[0.0, 0.0, 0.0, 2.05e-258], v=[0.0, 0.0, 2.05e-258, 0.0])
def test_plucker_quadric_property(u, v):
    u, v = np.array(u), np.array(v)
    s = np.linalg.svd(np.vstack([u, v]), compute_uv=False)
    if s[1] <= DEGENERACY_RTOL * s[0] or s[0] * s[1] < np.finfo(float).tiny:
        with pytest.raises(ValueError, match="degenerate"):
            Frame(u, v)
        return
    if s[1] <= 1e-6 * s[0]:
        return
    f = Frame(u, v)
    assert quadric_residual(plucker_embed(f)) <= 1e-12
    assert_allclose(plucker_embed(f), minors_oracle(u, v), atol=1e-12)


def test_degenerate_frame_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        Frame([1, 0, 0, 0], [2, 0, 0, 0])
    with pytest.raises(ValueError):
        Frame([0, 0, 0, 0], [1, 0, 0, 0])


# ---- chart -----------------------------------------------------------------

def test_plane_from_chart_values():
    f = plane_from_chart(np.zeros((2, 2)))
    assert_allclose(f.rows, np.vstack([E[0], E[1]]))
    f = plane_from_chart(np.eye(2))
    assert_allclose(f.u, [1, 0, 1, 0])
    assert_allclose(f.v, [0, 1, 0, 1])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4))
def test_chart_round_trip(entries):
    X = np.array(entries).reshape(2, 2)
    assert_allclose(chart_from_plane(plane_from_chart(X)), X, atol=1e-12)


def test_chart_round_trip_after_frame_moves():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2, 2))
    f = plane_from_chart(X).transform(rng.normal(size=(2, 2)) + 2 * np.eye(2))
    assert_allclose(chart_from_plane(f), X, atol=1e-10)


def test_chart_rejects_out_of_chart_plane():
    with pytest.raises(ValueError, match="chart"):
        chart_from_plane(Frame(E[0], E[2]))


# ---- pi projection ---------------------------------------------------------

def test_pi_project_basic():
    f = pi_project(E[0] + 1j * E[1])
    assert quadric_residual(plucker_embed(f)) <= 1e-12
    assert plane_distance(f, Frame(E[0], E[1])) <= 1e-10
    assert f.orientation_sign(Frame(E[0], E[1])) == 1.0


def test_pi_project_scaled_representative():
    # i*e1 - e2 = i*(e1 + i e2): same plane, same orientation as (e1, e2)
    f = pi_project(1j * E[0] - E[1])
    assert_allclose(np.abs(f.u) / np.linalg.norm(f.u), E[1], atol=1e-12)
    assert plane_distance(f, Frame(E[0], E[1])) <= 1e-10
    assert f.orientation_sign(Frame(E[0], E[1])) == 1.0


def test_pi_project_rejects_real_points():
    with pytest.raises(ValueError, match="real"):
        pi_project(E[0])
    with pytest.raises(ValueError, match="real"):
        pi_project((1 + 2j) * E[0])


def test_pi_project_conjugation_flips_orientation():
    rng = np.random.default_rng(1)
    for _ in range(50):
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert pi_project(z).orientation_sign(pi_project(np.conj(z))) == -1.0


def test_pi_project_rescaling_preserves_orientation():
    rng = np.random.default_rng(2)
    for _ in range(50):
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        lam = rng.normal() + 1j * rng.normal()
        assert pi_project(z).orientation_sign(pi_project(lam * z)) == 1.0


# ---- mu --------------------------------------------------------------------

def test_mu_round_trips_100_points():
    # the incident pair over [z] is ([z], pi(z)): z lies in the complexified
    # plane, and every representative of [z] gives that plane
    rng = np.random.default_rng(3)
    for _ in range(100):
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        z = z / np.linalg.norm(z)
        plane = pi_project(z)
        assert incidence_residual(z, plane) <= 1e-12
        lam = rng.normal() + 1j * rng.normal()
        assert plane_distance(plane, pi_project(lam * z)) <= 1e-12


def test_geometry_roundtrip_fails_when_pi_permutes_coordinates(monkeypatch):
    # pi(z) = span(P Re z, P Im z) for a 4-cycle P still sends every
    # representative of [z] to one plane with one orientation, but [z] no
    # longer lies in it
    P = np.roll(np.eye(4), 1, axis=0)
    monkeypatch.setattr(geometry, "pi_project",
                        lambda z: Frame(P @ z.real, P @ z.imag))
    checks = {c.name: c for c in cli.run({"command": "geometry-roundtrip"}).checks}
    assert checks["geometry_roundtrip"].value > 0.5
    assert not checks["geometry_roundtrip"].passed
    assert checks["geometry_roundtrip:orientation"].passed


# ---- incidence -------------------------------------------------------------

def test_incidence_real():
    plane = Frame(E[0], E[1])
    assert incidence_residual(E[0], plane) <= 1e-10
    assert incidence_residual(E[2], plane) == pytest.approx(1.0)
    assert incidence_residual(0.3 * E[0] - 1.2 * E[1], plane) <= 1e-10
    assert incidence_residual(E[2] + 1j * E[3], plane) == pytest.approx(np.sqrt(2))


def test_incidence_unique_plane_for_nonreal_line():
    rng = np.random.default_rng(4)
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    z = z / np.linalg.norm(z)
    assert incidence_residual(z, pi_project(z)) <= 1e-10
    hits = 0
    for _ in range(50):
        other = Frame(rng.normal(size=4), rng.normal(size=4))
        if incidence_residual(z, other) <= 1e-8:
            hits += 1
    assert hits == 0


def test_mu0_fiber_is_two_parameter():
    # frames containing a fixed real line, swept over two parameters
    w = np.array([1.0, 0.4, -0.2, 0.7])
    for s in np.linspace(-1, 1, 7):
        for t in np.linspace(-1, 1, 7):
            v = np.array([0.0, 1.0, s, t])
            assert incidence_residual(w, Frame(w, v)) <= 1e-10


def test_nu0_fiber_is_one_parameter():
    # real lines inside a fixed frame form a circle's worth of points
    frame = Frame([1.0, 0, 0.3, -0.1], [0.2, 1.0, 0, 0.5])
    for theta in np.linspace(0, np.pi, 11)[:-1]:
        w = np.cos(theta) * frame.u + np.sin(theta) * frame.v
        assert incidence_residual(w / np.linalg.norm(w), frame) <= 1e-10


# ---- real locus ------------------------------------------------------------

def test_is_real_detection():
    assert is_real(E[0])
    assert is_real((2 - 3j) * np.array([1, 0.5, 0, -2]))
    assert not is_real(E[0] + 1j * E[1])
    # the rule is relative to the norm of z
    assert not is_real(1e-12 * (E[0] + 1j * E[1]))
    assert is_real(1e3 * (E[0] + 1e-12j * E[1]))


def test_zero_vectors_rejected():
    with pytest.raises(ValueError, match="zero"):
        pi_project(np.zeros(4))


def test_stack_with_one_degenerate_chart_frame_raises_as_frame_does():
    # [I X] has smallest singular value >= 1, so only a huge rank-one X
    # makes the chart frame degenerate by DEGENERACY_RTOL
    bad = np.full((2, 2), 1e9)
    with pytest.raises(ValueError, match="degenerate") as single:
        plane_from_chart(bad)
    stack = 0.3 * np.random.default_rng(8).normal(size=(5, 2, 2))
    stack[3] = bad
    with pytest.raises(ValueError) as stacked:
        chart_frame_rows(stack)
    assert str(stacked.value) == str(single.value)
    with pytest.raises(ValueError) as nested:
        chart_frame_rows(stack.reshape(5, 1, 2, 2))
    assert str(nested.value) == str(single.value)
    rows = chart_frame_rows(np.delete(stack, 3, axis=0))
    for X, (u, v) in zip(np.delete(stack, 3, axis=0), rows):
        frame = plane_from_chart(X)
        assert np.array_equal(frame.u, u) and np.array_equal(frame.v, v)
