"""The benchmark's workloads: inputs made from the seed, the units a pass is
split into, and the gates that check a pass's outputs.

Every unit calls splitxray through a module attribute looked up at call
time (``cli.run``, ``inversion.design_matrix``), so that a traced run sees
the wrapped functions.  A unit's function takes the outputs of the pass
so far, keyed by unit name, because some units (the rank of a design
matrix) consume the outputs of earlier ones.

An operation is one suite check, one design matrix or one contour
transform.  A gate counts operations attempted, refused and failed; a
failure is a check that does not pass, an unexpected exception, or an
output that misses its closed-form anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from splitxray import cli, inversion, penrose, xray
from splitxray.defaults import DEFAULTS


@dataclass
class Unit:
    """One short timed call.  Units of one pool do the same work on
    different data, so their samples are pooled for the estimate."""

    name: str
    fn: Callable[[dict], object]
    pool: str


@dataclass
class Verdict:
    attempted: int = 0
    refused: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def fail(self, message, operations=1):
        self.failed += operations
        self.messages.append(message)


@dataclass
class Workload:
    units: list
    gate: Callable[[dict], Verdict]


# ---- suites-default ---------------------------------------------------------

def suites_default(seed):
    """All 11 CLI suites at DEFAULTS with the workload seed: the verdict a
    user asks for.  One unit per suite; each is under about 1 s."""
    def unit(name):
        config = {"command": name, "seed": seed}
        return Unit(name, lambda outputs: cli.run(config), name)

    def gate(outputs):
        v = Verdict()
        for name in cli.SUITES:
            report = outputs[name]
            if isinstance(report, Exception):
                v.attempted += 1
                v.fail(f"{name}: {report!r}")
                continue
            for c in report.checks:
                v.attempted += 1
                if not c.passed:
                    v.fail(f"{name}: {c.name} = {c.value:.3e} "
                           f"above tolerance {c.tolerance:.1e}")
            if not report.overall and all(c.passed for c in report.checks):
                v.fail(f"{name}: overall is false with every check passing")
        return v

    return Workload([unit(name) for name in cli.SUITES], gate)


# ---- design-scaled ----------------------------------------------------------

MAX_DEGREE = 8
N_FRAMES = 400
# 25 frames x 165 basis functions is about 0.8 s per block, a short sample.
BLOCK_FRAMES = 25
ANCHOR_RTOL = 1e-12


def _gram_anchor(frame):
    """Closed form of the degree-0 column: the transform of |x|^-2 is
    2 pi / sqrt(det Gram(u, v))."""
    u, v = frame.u, frame.v
    det = (u @ u) * (v @ v) - (u @ v) ** 2
    return 2.0 * np.pi / math.sqrt(det)


def design_scaled(seed):
    """The ROADMAP scaled config: injectivity at max_degree 8, n_frames 400,
    then reconstruct at the same size on other frames.

    Both suites run through cli.run, at the quadrature they pick (at least
    128 nodes).  Each 400 x 165 design matrix is first built in blocks of
    BLOCK_FRAMES frames, one short unit each; entries do not depend on each
    other, so the stacked blocks are the matrix one call would return.  The
    suite unit then runs with inversion.design_matrix serving that stacked
    matrix, so everything else the suite does (basis, frames, rank and
    condition, per-degree SVDs, solves) is the program's own code.  All
    blocks share one pool: their cost depends on the block's shape, not on
    the frame values.
    """
    q = xray.QuadratureSpec(max(DEFAULTS["nodes"], 128))
    basis = inversion.transform_basis(MAX_DEGREE)
    seeds = dict(zip(("injectivity", "reconstruct"),
                     (int(s) for s in
                      np.random.SeedSequence(seed).generate_state(2))))
    frames = {part: inversion.sample_frames(N_FRAMES, s)
              for part, s in seeds.items()}
    blocks = {part: [f"{part}.block{i:02d}"
                     for i in range(N_FRAMES // BLOCK_FRAMES)]
              for part in frames}

    def block_unit(part, i, name):
        chunk = frames[part][i * BLOCK_FRAMES:(i + 1) * BLOCK_FRAMES]
        return Unit(name, lambda outputs: inversion.design_matrix(basis, chunk, q),
                    "design_block")

    def suite_unit(part):
        config = {"command": part, "seed": seeds[part],
                  "max_degree": MAX_DEGREE, "n_frames": N_FRAMES}

        def fn(outputs):
            matrix = np.vstack([outputs[b].matrix for b in blocks[part]])
            asked = {}

            def from_blocks(basis_, frames_, q_=xray.QuadratureSpec(), seed=None):
                asked.update(frames=frames_, n_nodes=q_.n_nodes,
                             labels=[f.label for f in basis_])
                return inversion.DesignMatrix(
                    matrix=matrix, frames=list(frames_),
                    basis_ids=asked["labels"], n_nodes=q_.n_nodes, seed=seed)

            built = inversion.design_matrix
            inversion.design_matrix = from_blocks
            try:
                return cli.run(config), matrix, asked
            finally:
                inversion.design_matrix = built

        return Unit(f"{part}.suite", fn, f"{part}.suite")

    units = []
    for part in frames:
        units += [block_unit(part, i, name) for i, name in enumerate(blocks[part])]
        units.append(suite_unit(part))

    def check_served(part, asked):
        """The suite must have asked for the matrix the blocks built."""
        if not asked:
            return "the suite built no matrix through inversion.design_matrix"
        if asked["labels"] != [f.label for f in basis]:
            return "asked for another basis"
        if asked["n_nodes"] != q.n_nodes:
            return f"asked for {asked['n_nodes']} nodes, blocks used {q.n_nodes}"
        if len(asked["frames"]) != N_FRAMES or any(
                not (np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v))
                for a, b in zip(asked["frames"], frames[part])):
            return "asked for other frames than the blocks used"
        return None

    def gate(outputs):
        v = Verdict()
        for part in frames:
            names = [*blocks[part], f"{part}.suite"]
            errors = [n for n in names if isinstance(outputs[n], Exception)]
            if errors:
                v.attempted += 1
                v.fail(f"{part}: {errors[0]} raised {outputs[errors[0]]!r}")
                continue
            report, matrix, asked = outputs[f"{part}.suite"]
            # the design matrix
            v.attempted += 1
            mismatch = check_served(part, asked)
            if mismatch:
                v.fail(f"{part}: {mismatch}")
            else:
                col = matrix[:, asked["labels"].index("deg0[0]")]
                anchor = np.array([_gram_anchor(f) for f in frames[part]])
                err = float(np.max(np.abs(col - anchor) / anchor))
                if not err <= ANCHOR_RTOL:
                    v.fail(f"{part}: degree-0 column off 2pi/sqrt(det Gram) "
                           f"by {err:.3e}")
            # the suite's checks; for injectivity rank = 165 - rank_defect
            for c in report.checks:
                v.attempted += 1
                if c.name == "rank_defect" and c.value != 0.0:
                    v.fail(f"{part}: rank {len(basis) - c.value:g}, "
                           f"expected {len(basis)}")
                elif not c.passed:
                    v.fail(f"{part}: {c.name} = {c.value:.3e} above "
                           f"tolerance {c.tolerance:.1e}")
        return v

    return Workload(units, gate)


# ---- penrose-sweep ----------------------------------------------------------

N_STATES = 8
FRAMES_PER_STATE = 625
CONTOUR_NODES = 256
# Unnormalized Gaussian covectors at this margin refuse about 12 % of frames.
REFUSAL_MARGIN = 0.05
# From normalized margin 0.1 at 256 nodes the worst error measured over the
# 5000 frames of seed 1 was 2.2e-11; closer to the poles the trapezoid rule
# converges too slowly for a 1e-10 anchor.
ANCHOR_MIN_MARGIN = 0.1
ANCHOR_ATOL = 1e-10


def wedge_constant(signs):
    """phi * (A wedge B).(u wedge v) on the component labeled by the
    factor_orientation signs (+1: that factor's zeros lie inside the unit
    circle).  The residue theorem gives -4 pi i when only A's zeros are
    inside, +4 pi i when only B's are, and 0 otherwise."""
    return {(1, -1): -4j * np.pi, (-1, 1): 4j * np.pi}.get(tuple(signs), 0.0)


def penrose_sweep(seed):
    """Generic elementary states 1/((A.Z)(B.Z)), each swept over seeded
    frames: pole margin, factor orientation and the contour transform per
    frame, with refusals next to accepted transforms.  One unit per state."""
    q = xray.QuadratureSpec(CONTOUR_NODES)
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(N_STATES):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        frames = inversion.sample_frames(FRAMES_PER_STATE,
                                         int(rng.integers(2 ** 31)))
        cases.append((a, b, penrose.elementary_state(a, b), frames))

    def sweep(state, frames):
        rows = []
        for fr in frames:
            margin = penrose.normalized_pole_margin(state, fr)
            signs = penrose.factor_orientation(state, fr)
            try:
                phi = penrose.contour_transform(state, fr, q, REFUSAL_MARGIN)
            except penrose.PoleProximityError:
                phi = None
            rows.append((margin, signs, phi))
        return rows

    units = [Unit(f"state{k}", lambda outputs, s=state, f=frames: sweep(s, f),
                  f"state{k}")
             for k, (_, _, state, frames) in enumerate(cases)]

    def gate(outputs):
        v = Verdict()
        for unit, (a, b, _, frames) in zip(units, cases):
            rows = outputs[unit.name]
            v.attempted += len(frames)
            if isinstance(rows, Exception):
                v.fail(f"{unit.name}: {rows!r}", operations=len(frames))
                continue
            for i, (fr, (margin, signs, phi)) in enumerate(zip(frames, rows)):
                if phi is None:
                    v.refused += 1
                    continue
                if margin < ANCHOR_MIN_MARGIN:
                    continue
                err = abs(phi * penrose.wedge_pairing(a, b, fr)
                          - wedge_constant(signs))
                if not err <= ANCHOR_ATOL:
                    v.fail(f"{unit.name} frame {i}: phi*wedge off its constant "
                           f"by {err:.3e}")
        return v

    return Workload(units, gate)


WORKLOADS = {
    "suites-default": suites_default,
    "design-scaled": design_scaled,
    "penrose-sweep": penrose_sweep,
}
