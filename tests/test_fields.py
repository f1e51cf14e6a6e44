from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from splitxray.fields import (HarmonicPolynomial, HomogeneousFunction,
                              basis_to_degree_minus_2, harmonic_basis,
                              weight_transform_residual)
from splitxray.geometry import Frame
from splitxray.poly import Poly4, exponents_of_degree
from splitxray.xray import QuadratureSpec, random_gl2, xray_transform

E = np.eye(4)


def laplacian_oracle(poly):
    """Independent exact Laplacian of a Poly4 coefficient table."""
    out = {}
    for expo, c in poly.coeffs.items():
        for i in range(4):
            if expo[i] >= 2:
                down = list(expo)
                down[i] -= 2
                key = tuple(down)
                out[key] = out.get(key, 0) + c * expo[i] * (expo[i] - 1)
    return {k: v for k, v in out.items() if v != 0}


# ---- homogeneous functions -------------------------------------------------

INV_SQ = HomogeneousFunction(Poly4.constant(1), -2)


def test_inverse_square_values():
    f = INV_SQ
    assert f(np.ones(4)) == 0.25
    assert f(E[0]) == 1.0


def test_eval_rejects_origin():
    f = INV_SQ
    with pytest.raises(ValueError, match="origin"):
        f(np.zeros(4))
    with pytest.raises(ValueError, match="origin"):
        f(np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]]))


def test_complex_points_are_refused():
    g = basis_to_degree_minus_2(harmonic_basis(2)[4])
    z = np.array([1.0, 0.5j, -0.3, 0.2])
    for f in (g, INV_SQ):
        with pytest.raises(TypeError, match="complex"):
            f(z)
    # refused by dtype even with a zero imaginary part
    with pytest.raises(TypeError, match="complex"):
        g(z.real + 0j)


def test_every_input_form_gives_the_values_of_a_float_array():
    # a float64 ndarray, and an (n, 4) one in particular, takes the fast
    # path; every other form must give the same values and shape
    f = basis_to_degree_minus_2(harmonic_basis(4)[5])
    stack = np.random.default_rng(8).integers(-3, 4, size=(2, 3, 4))
    stack[(stack == 0).all(axis=-1)] = 1  # no point at the origin
    for call in (f, f.poly):
        for ints in (stack, stack[0], stack[0, 0]):
            floats = ints.astype(float)
            want = call(floats)
            assert np.shape(want) == ints.shape[:-1]
            frozen = floats.copy()
            frozen.setflags(write=False)
            for x in (ints, floats.tolist(), ints.tolist(), frozen):
                got = call(x)
                assert np.shape(got) == np.shape(want)
                assert np.array_equal(got, want)
    for z in (stack + 0j, stack[0, 0] + 0j, (stack + 1j).tolist()):
        with pytest.raises(TypeError, match="complex"):
            f(z)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=4, max_size=4),
       st.sampled_from([-2, -4, 2]))
def test_homogeneity_scaling(xs, p):
    x = np.array(xs)
    if np.linalg.norm(x) < 1e-3:
        return
    f = HomogeneousFunction(Poly4.constant(1), p)
    assert_allclose(f(2.0 * x), 2.0 ** p * f(x), rtol=1e-12)
    assert_allclose(f(-x), f(x), rtol=1e-12)


def test_scaling_identity_100_points():
    # f(t x) = t^deg f(x) for polynomials times radial powers, a sum of
    # them (2.5 |x|^-2 - h |x|^-4 as one polynomial over |x|^4)
    h = Poly4.monomial((2, 0, 0, 0)) - Poly4.monomial((0, 2, 0, 0))
    prod = HomogeneousFunction(h, -4)
    r2 = Poly4({tuple(2 * e): 1 for e in np.eye(4, dtype=int)})
    rng = np.random.default_rng(1)
    funcs = [
        INV_SQ,
        basis_to_degree_minus_2(harmonic_basis(2)[4]),
        basis_to_degree_minus_2(harmonic_basis(4)[11]),
        HomogeneousFunction(Poly4.monomial((1, 0, 0, 0)), -4),
        HomogeneousFunction(2.5 * r2 - h, -4),
        prod,
    ]
    for f in funcs:
        x = rng.normal(size=(100, 4))
        t = rng.uniform(0.2, 3.0, size=100) * rng.choice([-1.0, 1.0], size=100)
        lhs = f(t[:, None] * x)
        rhs = t ** f.degree * f(x)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * (1.0 + np.abs(rhs)))


def test_degree_bookkeeping():
    xy = Poly4.monomial((1, 1, 0, 0))
    assert HomogeneousFunction(xy).degree == 2
    assert HomogeneousFunction(xy, -6).degree == -4
    # a sum of terms of different degree has none
    with pytest.raises(ValueError, match="homogeneous"):
        HomogeneousFunction(xy + Poly4.monomial((1, 0, 0, 0)), -4)
    with pytest.raises(ValueError, match="zero polynomial"):
        HomogeneousFunction(Poly4.zero(), -2)


def test_odd_radial_power_rejected():
    with pytest.raises(ValueError, match="even"):
        HomogeneousFunction(Poly4.constant(1), -3)
    with pytest.raises(TypeError):
        HomogeneousFunction(Poly4.constant(1), -2.5)


@st.composite
def homogeneous_polys(draw):
    """A nonzero homogeneous Poly4 of degree 0 to 4 with float coefficients."""
    k = draw(st.integers(0, 4))
    monos = draw(st.lists(st.sampled_from(exponents_of_degree(k)),
                          min_size=1, max_size=6, unique=True))
    coeffs = draw(st.lists(st.floats(-5, 5).filter(lambda c: abs(c) > 1e-3),
                           min_size=len(monos), max_size=len(monos)))
    return Poly4(dict(zip(monos, coeffs)))


@settings(max_examples=60, deadline=None)
@given(homogeneous_polys(), st.integers(-5, 1).map(lambda j: 2 * j),
       st.lists(st.floats(-3, 3), min_size=8, max_size=8),
       st.integers(0, 2 ** 31))
def test_parity_and_change_of_variable_hold_by_construction(poly, power, xs,
                                                            seed):
    # poly is homogeneous and the radial factor even, so f(-x) is
    # (-1)^degree f(x) bit for bit, also after the change of variable
    # x -> g x that equivariance_residual applies to the rows x of points
    x = np.reshape(xs, (2, 4))
    if np.min(np.linalg.norm(x, axis=-1)) < 0.1:
        return
    f = HomogeneousFunction(poly, power)
    assert f.degree == poly.degree + power
    g = np.random.default_rng(seed).normal(size=(4, 4)) + 3.0 * np.eye(4)
    assert np.array_equal(f(-x), (-1.0) ** f.degree * f(x))
    assert np.array_equal(f(-x @ g.T), (-1.0) ** f.degree * f(x @ g.T))


# ---- harmonic bases ----------------------------------------------------------

def test_harmonic_basis_degree_0():
    basis = harmonic_basis(0)
    assert len(basis) == 1
    assert basis[0].poly.coeffs == {(0, 0, 0, 0): Fraction(1)}


def test_harmonic_basis_degree_2_count_vs_numeric_nullspace():
    basis = harmonic_basis(2)
    assert len(basis) == 9
    # oracle: numeric nullity of the Laplacian map quadratics -> constants
    monos = exponents_of_degree(2)
    L = np.zeros((1, len(monos)))
    for col, expo in enumerate(monos):
        for i in range(4):
            if expo[i] == 2:
                L[0, col] = 2.0
    assert len(monos) - np.linalg.matrix_rank(L) == 9


def test_harmonic_basis_degree_4():
    basis = harmonic_basis(4)
    assert len(basis) == 25
    for h in basis:
        assert laplacian_oracle(h.poly) == {}
        assert h.poly.is_homogeneous() and h.poly.degree == 4


def test_harmonic_basis_linear_independence():
    for k in (2, 4):
        basis = harmonic_basis(k)
        monos = exponents_of_degree(k)
        m = np.array([[float(h.poly.coeffs.get(e, 0)) for e in monos]
                      for h in basis])
        assert np.linalg.matrix_rank(m) == len(basis)


def test_closed_form_harmonic_basis_structure():
    """Element i is the harmonic whose only monomial of x1-degree <= 1 is
    the i-th such monomial of exponents_of_degree, with coefficient 1."""
    for k in range(9):
        free = [e for e in exponents_of_degree(k) if e[0] <= 1]
        basis = harmonic_basis(k)
        assert len(basis) == len(free) == (k + 1) ** 2
        for e, h in zip(free, basis):
            assert {m: c for m, c in h.poly.coeffs.items() if m[0] <= 1} == {e: 1}
            assert laplacian_oracle(h.poly) == {}


def test_harmonic_polynomial_rejects_non_harmonic():
    with pytest.raises(ValueError, match="harmonic"):
        HarmonicPolynomial(2, Poly4.monomial((2, 0, 0, 0)))


# ---- degree -2 construction --------------------------------------------------

def test_basis_to_degree_minus_2_constant():
    f = basis_to_degree_minus_2(harmonic_basis(0)[0])
    assert f.degree == -2
    assert f(np.ones(4)) == 0.25


def test_basis_to_degree_minus_2_quadratic():
    h = HarmonicPolynomial(2, Poly4.monomial((2, 0, 0, 0))
                           - Poly4.monomial((0, 2, 0, 0)))
    f = basis_to_degree_minus_2(h)
    assert f(E[0]) == 1.0
    x = np.array([1.0, 2.0, 0.5, -1.0])
    r2 = float(x @ x)
    assert_allclose(f(x), (x[0] ** 2 - x[1] ** 2) / r2 ** 2, rtol=1e-14)


def test_basis_to_degree_minus_2_rejects_odd():
    h = harmonic_basis(1)[0]
    with pytest.raises(ValueError, match="odd"):
        basis_to_degree_minus_2(h)


def test_degree_minus_2_parity_and_scaling():
    f = basis_to_degree_minus_2(harmonic_basis(2)[0])
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=4)
        assert_allclose(f(-x), f(x), rtol=1e-12)
        assert_allclose(f(3.0 * x), f(x) / 9.0, rtol=1e-12)


# ---- the weight law ------------------------------------------------------------

def transform_of(f, q=QuadratureSpec()):
    """The X-ray transform of f as a function of frames."""
    return lambda frame: xray_transform(f, frame, q)


def test_weight_law_identity_and_closed_form():
    f = INV_SQ
    phi = transform_of(f, QuadratureSpec(64))
    frame = Frame(E[0], E[1])
    assert weight_transform_residual(phi, -1, frame, np.eye(2)) == 0.0
    # closed-form oracle: 2 pi / sqrt(det Gram)
    g = np.diag([2.0, 3.0])
    moved = frame.transform(g)
    gram = moved.matrix() @ moved.matrix().T
    assert_allclose(phi(moved), 2 * np.pi / np.sqrt(np.linalg.det(gram)),
                    atol=1e-12)
    assert weight_transform_residual(phi, -1, frame, g) < 1e-10


def test_weight_law_negative_determinant():
    f = INV_SQ
    phi = transform_of(f, QuadratureSpec(64))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert weight_transform_residual(phi, -1, Frame(E[0], E[1]), swap) < 1e-10


def test_weight_law_fails_at_the_wrong_weight():
    # the transform has weight -1; with |det g| = 2 and phi(E0, E1) = 2 pi,
    # weight -2 leaves |2 pi / 2 - 2 pi / 4| / (1 + 2 pi)
    phi = transform_of(INV_SQ, QuadratureSpec(64))
    frame = Frame(E[0], E[1])
    g = np.array([[1.0, 1.0], [-0.5, 1.5]])
    assert np.linalg.det(g) == 2.0
    assert weight_transform_residual(phi, -1, frame, g) < 1e-9
    assert_allclose(weight_transform_residual(phi, -2, frame, g),
                    0.5 * np.pi / (1 + 2 * np.pi), rtol=1e-12)


def test_weight_law_random_g_including_reflections():
    rng = np.random.default_rng(4)
    f = basis_to_degree_minus_2(harmonic_basis(2)[5])
    phi = transform_of(f, QuadratureSpec(128))
    frame = Frame([1.0, 0.2, -0.1, 0.4], [0.0, 1.0, 0.3, -0.2])
    seen_negative = False
    for _ in range(20):
        g = random_gl2(rng)
        seen_negative = seen_negative or np.linalg.det(g) < 0
        assert weight_transform_residual(phi, -1, frame, g) <= 1e-9
    assert seen_negative


def test_weight_transform_rejects_singular_g():
    f = INV_SQ
    with pytest.raises(ValueError, match="invertible"):
        weight_transform_residual(transform_of(f), -1, Frame(E[0], E[1]),
                                  np.zeros((2, 2)))


def test_radial_factor_refuses_the_origin_for_products_and_sums():
    f = basis_to_degree_minus_2(harmonic_basis(2)[3])
    # a sum of two basis functions is one polynomial over |x|^4
    g = HomogeneousFunction(harmonic_basis(2)[3].poly
                            + 2 * harmonic_basis(2)[5].poly, -4)
    poly = HomogeneousFunction(Poly4.monomial((1, 1, 0, 0)))
    for fn in (f, g, poly):
        with pytest.raises(ValueError, match="origin"):
            fn(np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]]))
    # |x|^2 underflows to zero at this point, which is refused like the origin
    with pytest.raises(ValueError, match="origin"):
        f(np.array([1e-170, 0.0, 0.0, 0.0]))


def test_basis_function_computes_norm_once_per_call(monkeypatch):
    f = basis_to_degree_minus_2(harmonic_basis(4)[7])
    x = np.random.default_rng(5).normal(size=(16, 4))
    expected = f(x)
    calls = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *a: calls.append(a[0]) or einsum(*a))
    assert np.array_equal(f(x), expected)
    assert calls == ["...i,...i->..."]


def test_basis_label_is_set_at_construction():
    h = harmonic_basis(2)[4]
    assert basis_to_degree_minus_2(h).label == "H2*|x|^-4"
    f = basis_to_degree_minus_2(h, label="deg2[4]")
    assert f.label == "deg2[4]"
    x = np.random.default_rng(6).normal(size=(8, 4))
    assert np.array_equal(f(x), basis_to_degree_minus_2(h)(x))
