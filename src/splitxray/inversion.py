"""Finite-basis injectivity and reconstruction for the circle transform.

A design matrix samples the transform of each basis function on a list of
frames; full column rank witnesses injectivity on the span, and a least
squares solve recovers coefficients from transform samples.  Frames are
drawn from the invariant measure by orthonormalizing seeded Gaussian
4-vectors, which avoids chart-concentration bias.
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
    rank: int
    condition: float
    relative_coefficient_error: Optional[float] = None


@dataclass
class InjectivityReport:
    rank: int
    dimension: int
    condition: float
    per_degree_min_singular: dict


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


def _rank_and_condition(m):
    s = np.linalg.svd(m, compute_uv=False)
    cutoff = RANK_RTOL * s[0]
    rank = int(np.sum(s > cutoff))
    kept = s[s > cutoff]
    cond = float(kept[0] / kept[-1]) if kept.size else np.inf
    return rank, cond, s


def reconstruct(samples, d: DesignMatrix,
                true_coefficients=None) -> ReconstructionReport:
    """Least-squares coefficients explaining the transform samples.

    Requires at least as many frames as basis functions and full column
    rank; on rank deficiency it raises RankDeficientError, which names the
    offending null combination of basis functions.  When the true
    coefficient vector is known it can be passed in to have the relative
    error reported.
    """
    samples = np.asarray(samples, dtype=float)
    rows, cols = d.shape
    if samples.shape != (rows,):
        raise ValueError(f"expected {rows} samples, got {samples.shape}")
    if rows < cols:
        raise ValueError(f"need at least {cols} frames, got {rows}")
    rank, cond, s = _rank_and_condition(d.matrix)
    if rank < cols:
        _, _, vt = np.linalg.svd(d.matrix)
        null = vt[-1]
        terms = [f"{c:+.3f}*{name}" for c, name in zip(null, d.basis_ids)
                 if abs(c) > 1e-6]
        raise RankDeficientError("design matrix is rank deficient; null "
                                 "combination " + " ".join(terms))
    coeff, *_ = np.linalg.lstsq(d.matrix, samples, rcond=None)
    rel = None
    if true_coefficients is not None:
        truth = np.asarray(true_coefficients, dtype=float)
        rel = float(np.linalg.norm(coeff - truth) / np.linalg.norm(truth))
    return ReconstructionReport(coefficients=coeff, rank=rank, condition=cond,
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


def injectivity_report(max_degree, n_frames, seed,
                       q: QuadratureSpec = QuadratureSpec()) -> InjectivityReport:
    """Rank and conditioning of the transform on the even-degree span.

    The span of H |x|^(-k-2) over even k <= max_degree has dimension
    sum (k+1)^2; n_frames must reach it.
    """
    basis = transform_basis(max_degree)
    dimension = len(basis)
    if n_frames < dimension:
        raise ValueError(
            f"injectivity at max_degree {max_degree} needs at least "
            f"{dimension} frames, got {n_frames}")
    frames = sample_frames(n_frames, seed)
    d = design_matrix(basis, frames, q, seed=seed)
    rank, cond, _ = _rank_and_condition(d.matrix)
    degrees = np.array([f.poly.degree for f in basis])
    per_degree = {}
    for k in range(0, max_degree + 1, 2):
        s = np.linalg.svd(d.matrix[:, degrees == k], compute_uv=False)
        per_degree[k] = float(s[-1])
    return InjectivityReport(rank=rank, dimension=dimension, condition=cond,
                             per_degree_min_singular=per_degree)


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

