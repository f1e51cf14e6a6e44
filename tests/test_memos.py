"""The memos of the per-call circle path: xray_transform's circle points
and poly.point_memo, which holds each degree's monomial table and the
radial factors of the last frozen point array.

Writable arrays bypass every memo, so a loop over writable copies of the
circle points is the memo-free reference.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitxray import fields, poly, xray
from splitxray.fields import HomogeneousFunction, harmonic_basis
from splitxray.geometry import Frame
from splitxray.inversion import design_matrix, sample_frames, transform_basis
from splitxray.poly import Poly4, exponents_of_degree, frozen
from splitxray.xray import (QuadratureSpec, circle_integral, circle_points,
                            xray_transform)

Q16 = QuadratureSpec(16)


def memo_free_transform(f, frame, q):
    """The transform of f from a writable copy of the frame's circle."""
    return circle_integral(f(np.array(circle_points(frame.rows, q))), q)


def readonly_view(base):
    view = base[...]
    view.setflags(write=False)
    return view


def test_frozen_means_read_only_and_owning():
    a = np.arange(4.0)
    assert not frozen(a)
    a.setflags(write=False)
    assert frozen(a)
    assert not frozen(readonly_view(np.arange(4.0)))
    assert not frozen(readonly_view(a))


def test_design_matrix_equals_memo_free_loop_bitwise():
    basis = transform_basis(8)
    frames = sample_frames(25, 11)
    q = QuadratureSpec(128)
    expected = np.array([[memo_free_transform(f, frame, q) for f in basis]
                         for frame in frames])
    assert np.array_equal(design_matrix(basis, frames, q).matrix, expected)


def test_alternating_frames_and_degrees_give_fresh_values():
    basis = transform_basis(4)
    high, low = basis[-1], basis[0]
    a, b = sample_frames(2, 5)
    expected = {(name, i): memo_free_transform(f, frame, Q16)
                for name, f in (("high", high), ("low", low))
                for i, frame in enumerate((a, b))}
    # A, B, A; each frame's table grows from degree 0 to degree 4 and the
    # next frame starts small again
    for i, frame in ((0, a), (1, b), (0, a)):
        for name, f in (("low", low), ("high", high), ("low", low)):
            assert xray_transform(f, frame, Q16) == expected[name, i]
    # the same values with another spec in between
    xray_transform(high, a, QuadratureSpec(32))
    assert xray_transform(high, a, Q16) == expected["high", 0]


def test_a_frame_is_one_frozen_array_with_read_only_row_views():
    frame = sample_frames(1, 13)[0]
    assert Frame.__slots__ == ("rows",)
    assert frozen(frame.rows) and frame.rows.shape == (2, 4)
    for vector in (frame.u, frame.v):
        assert vector.base is frame.rows
        with pytest.raises(ValueError):
            vector.setflags(write=True)
    # the rows are a copy: a change of the caller's vectors does not reach
    # them
    u, v = np.array(frame.u), np.array(frame.v)
    copy = Frame(u, v)
    u[0] += 1.0
    assert np.array_equal(copy.rows, frame.rows)


def test_readonly_view_follows_its_mutated_base():
    g = fields.basis_to_degree_minus_2(harmonic_basis(4)[7])
    p = harmonic_basis(4)[7].poly
    a, b = sample_frames(2, 3)
    base = np.array(circle_points(a.rows, Q16))
    view = readonly_view(base)
    before_g, before_p = g(view), p(view)
    base[...] = circle_points(b.rows, Q16)
    fresh = np.array(circle_points(b.rows, Q16))
    assert np.array_equal(g(view), g(fresh))
    assert np.array_equal(p(view), p(fresh))
    assert not np.array_equal(g(view), before_g)
    assert not np.array_equal(p(view), before_p)


def test_writable_arrays_are_never_memoized():
    h = harmonic_basis(2)[4]
    g = fields.basis_to_degree_minus_2(h)
    frame = sample_frames(1, 9)[0]
    x = np.array(circle_points(frame.rows, Q16))
    g(x)
    h.poly(x)
    assert poly.point_memo(x) is None
    assert poly._memo[0] is not x
    # a frame whose rows were made writable before its first transform:
    # its circle is not kept, and a change of u shows in the next transform
    # (its rows cannot be rebound, test_frame_rows_cannot_be_rebound)
    a, b = sample_frames(2, 4)
    loose = Frame(a.u, a.v)
    loose.rows.setflags(write=True)
    first = xray_transform(g, loose, Q16)
    assert xray._circle[0] is not loose.rows
    assert first == memo_free_transform(g, a, Q16)
    loose.rows[0] = b.u
    assert xray_transform(g, loose, Q16) == memo_free_transform(
        g, Frame(b.u, a.v), Q16)


def test_an_array_made_writable_again_is_not_reused():
    g = fields.basis_to_degree_minus_2(harmonic_basis(2)[4])
    a, b = sample_frames(2, 6)
    x = np.array(circle_points(a.rows, Q16))
    x.setflags(write=False)
    g(x)
    last, entries = poly._memo
    assert last is x and set(entries) == {("monomials", 2), ("radial", -4)}
    x.setflags(write=True)
    assert poly.point_memo(x) is None
    x[...] = circle_points(b.rows, Q16)
    assert np.array_equal(g(x), g(np.array(circle_points(b.rows, Q16))))
    # the same for a frame's rows, the one array of a frame that can be
    # made writable
    frame = Frame(a.u, a.v)
    xray_transform(g, frame, Q16)
    assert xray._circle[0] is frame.rows
    frame.rows.setflags(write=True)
    frame.rows[0] = b.u
    assert xray_transform(g, frame, Q16) == memo_free_transform(
        g, Frame(b.u, a.v), Q16)


def test_points_at_the_origin_are_refused_on_a_memo_hit():
    x = np.array([[1.0, 2.0, 0.5, -1.0], [0.0, 0.0, 0.0, 0.0]])
    x.setflags(write=False)
    radial = HomogeneousFunction(Poly4.constant(1), -2)
    plain = HomogeneousFunction(harmonic_basis(2)[3].poly)
    for f in (radial, plain, radial):
        with pytest.raises(ValueError, match="origin"):
            f(x)
        # the polynomial's table is kept, a refused radial factor is not
        last, entries = poly._memo
        assert last is x and not [key for key in entries if key[0] == "radial"]


def test_each_memo_holds_one_entry_after_a_400_frame_matrix():
    basis = transform_basis(2)
    frames = sample_frames(400, 8)
    design_matrix(basis, frames, Q16)
    rows, q, points = xray._circle
    assert rows is frames[-1].rows and q is Q16
    # the 16-node rule evaluates its 8 nodes on [0, pi)
    assert not points.flags.writeable and points.shape == (8, 4)
    last, entries = poly._memo
    assert last is points
    assert {key: value.shape for key, value in entries.items()} == {
        ("monomials", 0): (1, 8), ("monomials", 2): (10, 8),
        ("radial", -2): (8,), ("radial", -4): (8,)}


def test_poly_table_grows_with_degree_on_one_point_array():
    x = np.array(circle_points(sample_frames(1, 2)[0].rows, Q16))
    x.setflags(write=False)
    low = Poly4.monomial((1, 0, 0, 1), 2.0)
    high = Poly4({(5, 0, 0, 0): 1.0, (0, 2, 3, 0): -0.5})
    ref = np.array(x)
    for p in (low, high, low, high):
        assert np.array_equal(p(x), p(ref))
    last, entries = poly._memo
    assert last is x
    assert {key: value.shape for key, value in entries.items()} == {
        ("monomials", 2): (10, 8), ("monomials", 5): (56, 8)}


def test_one_power_table_per_frame_and_degree(monkeypatch):
    # a work count, not a timing: the design matrix builds each degree's
    # monomials once per frame, never once per basis function
    built = []
    power_table = poly._power_table

    def spy(x, top):
        built.append(top)
        return power_table(x, top)

    monkeypatch.setattr(poly, "_power_table", spy)
    frames = sample_frames(7, 12)
    design_matrix(transform_basis(4), frames, Q16)
    assert built == [0, 2, 4] * len(frames)


COEFFICIENTS = {
    "float": st.floats(-5, 5).filter(lambda c: abs(c) > 1e-3),
    "fraction": st.fractions(-5, 5, max_denominator=9).filter(bool),
    "complex": st.complex_numbers(max_magnitude=5, min_magnitude=1e-3,
                                  allow_nan=False, allow_infinity=False),
}


@st.composite
def memo_inputs(draw):
    """A homogeneous Poly4 of degree 0 to 8 with float, Fraction or complex
    coefficients, or a HomogeneousFunction of such a polynomial and an even
    radial power, 0 and -2 among them."""
    k = draw(st.integers(0, 8))
    monos = draw(st.lists(st.sampled_from(exponents_of_degree(k)),
                          min_size=1, max_size=6, unique=True))
    kind = draw(st.sampled_from(sorted(COEFFICIENTS)))
    coeffs = draw(st.lists(COEFFICIENTS[kind], min_size=len(monos),
                           max_size=len(monos)))
    p = Poly4(dict(zip(monos, coeffs)))
    power = draw(st.none() | st.sampled_from([0, -2, -4, 2, -10]))
    return p if power is None else HomogeneousFunction(p, power)


@settings(max_examples=60, deadline=None)
@given(st.lists(memo_inputs(), min_size=1, max_size=6),
       st.lists(st.sampled_from([0, 1]), min_size=1, max_size=12))
# a degree-0 table and a power-0 radial factor on one array: their keys
# must not collide
@example([Poly4.constant(3.0),
          HomogeneousFunction(Poly4.monomial((2, 0, 0, 0), Fraction(1, 3)))],
         [0])
def test_memo_path_equals_the_memo_free_path_bitwise(inputs, order):
    frames = sample_frames(2, 21)
    frozen_points = [circle_points(frame.rows, Q16) for frame in frames]
    for x in frozen_points:
        x.setflags(write=False)
    for which in order:
        x = frozen_points[which]
        ref = np.array(x)
        for f in inputs:
            assert np.array_equal(f(x), f(ref))
