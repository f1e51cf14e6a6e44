import math

import numpy as np
import pytest

from splitxray.fields import harmonic_basis
from splitxray.poly import Poly4

RTOL = 1e-14


def fsum_oracle(poly, point):
    """sum c * prod x_i^e_i at one point: each term in Python arithmetic
    (pow for the powers), the terms summed by math.fsum, real and
    imaginary parts apart.  Also returns sum |term|, the scale of the
    rounding error any evaluation order can make."""
    terms = []
    for expo, c in poly.coeffs.items():
        t = c if isinstance(c, complex) else float(c)
        for xi, e in zip(point, expo):
            t = t * xi ** e
        terms.append(complex(t))
    value = complex(math.fsum(t.real for t in terms),
                    math.fsum(t.imag for t in terms))
    return value, math.fsum(abs(t) for t in terms)


def assert_matches_oracle(poly, points):
    got = poly(points)
    assert got.shape == points.shape[:-1]
    for value, point in zip(got.reshape(-1), points.reshape(-1, 4)):
        want, scale = fsum_oracle(poly, point.tolist())
        assert abs(value - want) <= RTOL * scale


@pytest.mark.parametrize("k", [0, 1, 2, 4, 8])
def test_harmonic_basis_matches_fsum_oracle(k):
    points = np.random.default_rng(k).normal(size=(20, 4)) * 1.7
    for h in harmonic_basis(k):
        assert_matches_oracle(h.poly, points)


def test_dense_polynomial_with_complex_coefficients():
    rng = np.random.default_rng(3)
    expos = [tuple(rng.integers(0, 6, size=4)) for _ in range(30)]
    poly = Poly4({e: complex(*rng.normal(size=2)) for e in expos})
    points = rng.normal(size=(15, 4))
    assert_matches_oracle(poly, points)
    assert np.iscomplexobj(poly(points))


def test_complex_points():
    rng = np.random.default_rng(4)
    poly = harmonic_basis(4)[7].poly + Poly4.monomial((0, 3, 1, 0), 2.5)
    points = rng.normal(size=(10, 4)) + 1j * rng.normal(size=(10, 4))
    assert_matches_oracle(poly, points)
    assert np.iscomplexobj(poly(points))


def test_integer_points_give_float_values():
    poly = harmonic_basis(6)[11].poly
    points = np.random.default_rng(5).integers(-4, 5, size=(12, 4))
    assert_matches_oracle(poly, points)
    assert poly(points).dtype == np.float64


def test_zero_and_constant_polynomials():
    points = np.random.default_rng(6).normal(size=(2, 3, 4))
    zero = Poly4.zero()(points)
    assert zero.shape == (2, 3) and not np.any(zero)
    assert np.iscomplexobj(Poly4.zero()(points + 0j))
    assert np.array_equal(Poly4.constant(2.5)(points), np.full((2, 3), 2.5))
    assert np.array_equal(Poly4.constant(1j)(points), np.full((2, 3), 1j))


def test_single_point_gives_a_scalar():
    poly = harmonic_basis(2)[4].poly
    point = np.array([0.3, -1.2, 0.7, 2.0])
    value = poly(point)
    assert np.ndim(value) == 0
    want, scale = fsum_oracle(poly, point.tolist())
    assert abs(value - want) <= RTOL * scale
    assert Poly4.constant(3)(point) == 3.0


def test_points_need_a_trailing_axis_of_length_4():
    with pytest.raises(ValueError, match="trailing axis"):
        Poly4.constant(1.0)(np.zeros(3))
