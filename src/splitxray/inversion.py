"""Finite-basis injectivity and reconstruction for the circle transform.

A design matrix samples the transform of each basis function on a list of
frames; full column rank witnesses injectivity on the span, and a least
squares solve recovers coefficients from transform samples.  Frames are
drawn from the invariant measure by orthonormalizing seeded Gaussian
4-vectors, which avoids chart-concentration bias.

Each design matrix is factored once: injectivity_report reads its rank
from one values-only SVD and reports it with the basis size; reconstruct
reads its rank, refusal and solutions from one thin SVD and reports the
coefficients with each column's relative error.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import basis_to_degree_minus_2, harmonic_basis
from .geometry import Frame
from .xray import QuadratureSpec, xray_transform

RANK_RTOL = 1e-8


class RankDeficientError(ValueError):
    """reconstruct's refusal of a design matrix without full column rank."""


@dataclass
class DesignMatrix:
    """Rows = frames, columns = basis functions, entries = transforms."""

    matrix: np.ndarray
    frames: list
    basis_ids: list
    n_nodes: int
    seed: Optional[int] = None

    @property
    def shape(self):
        return self.matrix.shape


@dataclass
class ReconstructionReport:
    coefficients: np.ndarray
    relative_coefficient_error: Optional[np.ndarray] = None


@dataclass
class InjectivityReport:
    rank: int
    dimension: int


def design_matrix(basis, frames, q: QuadratureSpec = QuadratureSpec(),
                  seed=None) -> DesignMatrix:
    """Transform samples for every (frame, basis function) pair."""
    for f in basis:
        if f.degree != -2:
            raise ValueError(
                f"design matrix needs degree -2 inputs, got {f.degree} "
                f"for {f.label!r}")
    m = np.array([[xray_transform(f, frame, q) for f in basis]
                  for frame in frames], dtype=float)
    m = m.reshape(len(frames), len(basis))
    if not np.all(np.isfinite(m)):
        raise ValueError("design matrix contains non-finite entries")
    return DesignMatrix(matrix=m, frames=list(frames),
                        basis_ids=[f.label for f in basis],
                        n_nodes=q.n_nodes, seed=seed)


def reconstruct(samples, d: DesignMatrix,
                true_coefficients=None) -> ReconstructionReport:
    """Least-squares coefficients explaining transform samples of shape
    (rows,) or, k columns at once, (rows, k).

    One thin SVD gives the rank and every solution.  A rank-deficient
    matrix, fewer frames than basis functions included, raises
    RankDeficientError naming a null combination of basis functions.
    Given the true coefficients, the report holds each column's relative
    error.
    """
    samples = np.asarray(samples, dtype=float)
    rows, cols = d.shape
    if samples.shape[:1] != (rows,) or samples.ndim > 2:
        raise ValueError(f"expected {rows} samples, got {samples.shape}")
    # with rows < cols only the full factorization keeps a null row in vt
    u, s, vt = np.linalg.svd(d.matrix, full_matrices=rows < cols)
    if np.sum(s > RANK_RTOL * s[0]) < cols:
        terms = [f"{c:+.3f}*{name}" for c, name in zip(vt[-1], d.basis_ids)
                 if abs(c) > 1e-6]
        raise RankDeficientError("design matrix is rank deficient; null "
                                 "combination " + " ".join(terms))
    coeff = vt.T @ ((u / s).T @ samples)
    rel = None
    if true_coefficients is not None:
        truth = np.asarray(true_coefficients, dtype=float)
        rel = (np.linalg.norm(coeff - truth, axis=0)
               / np.linalg.norm(truth, axis=0))
    return ReconstructionReport(coefficients=coeff,
                                relative_coefficient_error=rel)


def sample_frames(n_frames, seed):
    """Frames from orthonormalized Gaussian pairs; deterministic in the seed."""
    rng = np.random.default_rng(seed)
    frames = []
    while len(frames) < n_frames:
        a = rng.normal(size=(4, 2))
        qmat, r = np.linalg.qr(a)
        if abs(r[0, 0] * r[1, 1]) < 1e-8:
            continue
        frames.append(Frame(qmat[:, 0], qmat[:, 1]))
    return frames


def transform_basis(max_degree):
    """The degree -2 inputs H |x|^(-k-2) over even k <= max_degree, labeled
    deg{k}[{i}] for the i-th element of harmonic_basis(k)."""
    if max_degree < 0 or max_degree % 2 != 0:
        raise ValueError("max_degree must be an even nonnegative integer")
    return [basis_to_degree_minus_2(h, label=f"deg{k}[{i}]")
            for k in range(0, max_degree + 1, 2)
            for i, h in enumerate(harmonic_basis(k))]


def sampled_design(max_degree, n_frames, seed,
                   q: QuadratureSpec = QuadratureSpec()) -> DesignMatrix:
    """The design matrix of transform_basis(max_degree), of size sum over
    even k <= max_degree of (k+1)^2, on sample_frames(n_frames, seed);
    n_frames must reach that size."""
    basis = transform_basis(max_degree)
    if n_frames < len(basis):
        raise ValueError(
            f"the basis at max_degree {max_degree} needs at least "
            f"{len(basis)} frames, got {n_frames}")
    return design_matrix(basis, sample_frames(n_frames, seed), q, seed=seed)


def injectivity_report(max_degree, n_frames, seed,
                       q: QuadratureSpec = QuadratureSpec()) -> InjectivityReport:
    """Rank of the transform on the even-degree span, from one values-only
    SVD of sampled_design's matrix."""
    d = sampled_design(max_degree, n_frames, seed, q)
    s = np.linalg.svd(d.matrix, compute_uv=False)
    return InjectivityReport(rank=int(np.sum(s > RANK_RTOL * s[0])),
                             dimension=d.shape[1])


def save_design_matrix(d: DesignMatrix, path):
    """Write `path`.csv (entries) and `path`.json (frames and metadata)."""
    path = str(path)
    with open(path + ".csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in d.matrix:
            writer.writerow([repr(float(v)) for v in row])
    sidecar = {
        "basis_ids": d.basis_ids,
        "frames": [f.rows.tolist() for f in d.frames],
        "n_nodes": d.n_nodes,
        "seed": d.seed,
    }
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
    return path

