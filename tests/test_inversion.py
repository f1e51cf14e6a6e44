import csv
import dataclasses
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splitxray.fields import (HomogeneousFunction, basis_to_degree_minus_2,
                              harmonic_basis)
from splitxray.geometry import Frame
from splitxray.inversion import (design_matrix, injectivity_report,
                                 reconstruct, sample_frames,
                                 save_design_matrix, transform_basis)
from splitxray.poly import Poly4
from splitxray.xray import QuadratureSpec

E = np.eye(4)
INV_SQ = HomogeneousFunction(Poly4.constant(1), -2)
Q128 = QuadratureSpec(128)


def pow_formula_design_matrix(frames, max_degree, n_nodes):
    """Oracle: every entry from np.outer circle points and H evaluated as
    prod(x ** E) @ C, one pow per point, term and variable."""
    theta = np.arange(n_nodes) * (2.0 * np.pi / n_nodes)
    x = np.stack([np.outer(np.cos(theta), f.u) + np.outer(np.sin(theta), f.v)
                  for f in frames])
    r2 = np.einsum("...i,...i->...", x, x)
    columns = []
    for k in range(0, max_degree + 1, 2):
        for h in harmonic_basis(k):
            expos = np.array(sorted(h.poly.coeffs))
            coeffs = np.array([float(h.poly.coeffs[tuple(e)]) for e in expos])
            values = np.prod(x[..., None, :] ** expos, axis=-1) @ coeffs
            values = values * r2 ** ((-k - 2) // 2)
            columns.append(values.sum(axis=-1) * (2.0 * np.pi / n_nodes))
    return np.stack(columns, axis=1)


def test_design_matrix_single_entry():
    d = design_matrix([INV_SQ], [Frame(E[0], E[1])])
    assert d.shape == (1, 1)
    assert abs(d.matrix[0, 0] - 2 * np.pi) < 1e-12


def test_design_matrix_matches_the_pow_formula():
    frames = sample_frames(25, 1)
    d = design_matrix(transform_basis(8), frames, Q128).matrix
    expected = pow_formula_design_matrix(frames, 8, 128)
    assert d.shape == expected.shape == (25, 165)
    scale = np.max(np.abs(expected), axis=0)
    assert np.max(np.abs(d - expected) / scale) <= 1e-13
    # degree 0: the transform of |x|^-2 is 2 pi / sqrt(det Gram(u, v))
    gram = np.array([[[f.u @ f.u, f.u @ f.v], [f.v @ f.u, f.v @ f.v]]
                     for f in frames])
    anchor = 2.0 * np.pi / np.sqrt(np.linalg.det(gram))
    assert np.max(np.abs(d[:, 0] - anchor) / anchor) <= 1e-13


def test_zero_function_gives_zero_column():
    # x3^2 |x|^-4 is zero on every frame of the plane of (e1, e2)
    basis = [INV_SQ, HomogeneousFunction(Poly4.monomial((0, 0, 2, 0)), -4)]
    frames = [Frame(E[0], E[1]).transform(g)
              for g in np.random.default_rng(0).normal(size=(5, 2, 2))]
    d = design_matrix(basis, frames)
    assert np.all(d.matrix[:, 0] > 0.0)
    assert np.array_equal(d.matrix[:, 1], np.zeros(5))


def test_degree_gate():
    with pytest.raises(ValueError, match="degree -2"):
        design_matrix([HomogeneousFunction(Poly4.constant(1), -4)],
                      [Frame(E[0], E[1])])


def test_full_rank_at_degree_two():
    basis = transform_basis(2)
    assert len(basis) == 10
    d = design_matrix(basis, sample_frames(40, 1), Q128)
    # numeric rank oracle: singular values above 1e-8 * sigma_max
    s = np.linalg.svd(d.matrix, compute_uv=False)
    assert int(np.sum(s > 1e-8 * s[0])) == 10


def test_reconstruct_known_coefficients():
    basis = transform_basis(2)
    frames = sample_frames(40, 2)
    d = design_matrix(basis, frames, Q128)
    rng = np.random.default_rng(3)
    c = rng.normal(size=len(basis))
    report = reconstruct(d.matrix @ c, d)
    assert np.linalg.norm(report.coefficients - c) / np.linalg.norm(c) < 1e-8
    assert report.rank == len(basis)
    assert np.isfinite(report.condition)


def test_reconstruct_matches_reference_solver():
    basis = transform_basis(2)
    d = design_matrix(basis, sample_frames(45, 4), Q128)
    rng = np.random.default_rng(5)
    samples = d.matrix @ rng.normal(size=len(basis)) + 0.01 * rng.normal(size=45)
    report = reconstruct(samples, d)
    # oracle: orthogonal-factorization least squares
    qmat, r = np.linalg.qr(d.matrix)
    ref = np.linalg.solve(r, qmat.T @ samples)
    assert np.linalg.norm(report.coefficients - ref) <= 1e-10 * np.linalg.norm(ref)


def test_reconstruct_zero_samples():
    basis = transform_basis(0)
    d = design_matrix(basis, sample_frames(3, 6))
    report = reconstruct(np.zeros(3), d)
    assert_allclose(report.coefficients, 0.0)


def test_rank_deficiency_names_null_combination():
    f = basis_to_degree_minus_2(harmonic_basis(0)[0], label="unit")
    g = dataclasses.replace(f, label="copy")
    d = design_matrix([f, g], sample_frames(6, 7))
    with pytest.raises(ValueError) as err:
        reconstruct(np.zeros(6), d)
    assert "rank deficient" in str(err.value)
    assert "unit" in str(err.value) and "copy" in str(err.value)


def test_duplicated_frame_rows_are_rank_deficient():
    basis = transform_basis(2)
    frame = sample_frames(1, 17)[0]
    d = design_matrix(basis, [frame] * 12, Q128)
    with pytest.raises(ValueError, match="rank deficient"):
        reconstruct(np.zeros(12), d)


def test_reconstruct_reports_relative_error_when_truth_given():
    basis = transform_basis(0)
    d = design_matrix(basis, sample_frames(4, 18))
    c = np.array([1.5])
    report = reconstruct(d.matrix @ c, d, true_coefficients=c)
    assert report.relative_coefficient_error < 1e-12
    assert reconstruct(d.matrix @ c, d).relative_coefficient_error is None


def test_underdetermined_rejected():
    basis = transform_basis(2)
    d = design_matrix(basis, sample_frames(5, 8))
    with pytest.raises(ValueError, match="at least 10 frames"):
        reconstruct(np.zeros(5), d)


# ---- injectivity -------------------------------------------------------------

def test_injectivity_degree_zero():
    report = injectivity_report(0, 4, 9)
    assert report.rank == 1 and report.dimension == 1


def test_injectivity_degree_two():
    report = injectivity_report(2, 60, 10, Q128)
    assert report.rank == 10


def test_injectivity_degree_four():
    report = injectivity_report(4, 120, 11, Q128)
    assert report.rank == 35 and report.dimension == 35
    assert np.isfinite(report.condition)
    assert set(report.per_degree_min_singular) == {0, 2, 4}
    assert all(v > 0 for v in report.per_degree_min_singular.values())


def test_injectivity_requires_enough_frames():
    with pytest.raises(ValueError, match="35"):
        injectivity_report(4, 30, 12)


def test_rank_verdict_stable_across_seeds():
    ranks = [injectivity_report(2, 60, seed).rank for seed in range(5)]
    assert ranks == [10] * 5


def test_adding_frames_never_hurts():
    basis = transform_basis(2)
    frames = sample_frames(80, 13)
    rng = np.random.default_rng(14)
    c = rng.normal(size=len(basis))
    prev_err = np.inf
    prev_rank = 0
    for count in (15, 40, 80):
        d = design_matrix(basis, frames[:count], Q128)
        s = np.linalg.svd(d.matrix, compute_uv=False)
        rank = int(np.sum(s > 1e-8 * s[0]))
        assert rank >= prev_rank
        report = reconstruct(d.matrix @ c, d)
        err = np.linalg.norm(report.coefficients - c)
        assert err <= prev_err * 10 + 1e-12
        prev_err, prev_rank = max(err, 1e-14), rank


def test_frame_sampling_is_orthonormal_and_deterministic():
    frames = sample_frames(10, 15)
    again = sample_frames(10, 15)
    for f, g in zip(frames, again):
        assert_allclose(f.rows, g.rows)
        gram = f.rows @ f.rows.T
        assert_allclose(gram, np.eye(2), atol=1e-12)


# ---- round trips through disk ---------------------------------------------------

def test_design_matrix_save_load_round_trip(tmp_path):
    basis = transform_basis(2)
    d = design_matrix(basis, sample_frames(12, 16), Q128, seed=16)
    path = str(tmp_path / "design")
    save_design_matrix(d, path)
    with open(path + ".csv", newline="") as fh:
        matrix = np.array([[float(v) for v in row] for row in csv.reader(fh)])
    with open(path + ".json") as fh:
        sidecar = json.load(fh)
    assert np.array_equal(matrix, d.matrix)
    assert sidecar["basis_ids"] == d.basis_ids
    assert sidecar["n_nodes"] == 128 and sidecar["seed"] == 16
    assert sidecar["frames"] == [[list(f.u), list(f.v)] for f in d.frames]


def test_transform_basis_labels_are_given_at_construction():
    basis = transform_basis(2)
    labels = ["deg0[0]"] + [f"deg2[{i}]" for i in range(9)]
    assert [f.label for f in basis] == labels
    assert design_matrix(basis, sample_frames(12, 1)).basis_ids == labels
