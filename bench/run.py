"""Benchmark of splitxray's verdicts: time to run them, end to end and per layer.

    python3 bench/run.py --workload suites-default --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; splitxray is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (pass_s, setup_s, peak_rss_mb); with --trace 1 they
are the per-layer ones from a traced pass.  The line before it is a JSON
report with diagnostics and the environment.  The exit code is 0 when
every output gate passes, 1 when one fails and 2 on a usage error or
when there is no splitxray to benchmark.

A pass is split into units of at most about 1 s.  The units are run in
turn, over and over, for --seconds.  Each sample is divided by the time of
a fixed reference workload run next to it; each unit's value is the median
of these ratios, and pass_s sums them at a nominal speed.  Set-up
launches are divided in the same way by a reference launch next to each.
See README.md for why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# BLAS and OpenMP pools: one thread, here and in the set-up children.  The
# workloads are bound by Python overhead; two threads did not help.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}

END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Pairs of a set-up launch and a reference launch in one timed run.
SETUP_PAIRS = 20

# Median time of Reference on the 2-vCPU Xeon VM the benchmark was built on;
# pass_s is given at the speed where Reference takes this long.
REFERENCE_S = 0.0115

# Set-up as a user meets it: a fresh interpreter imports the package and
# the CLI, then merges and validates one config (importing jsonschema).
SETUP_CODE = """
import time
t0 = time.perf_counter()
import splitxray
import splitxray.cli as cli
cli._validate_config(cli._merge_config("verify-john", {}, {}))
print(repr(time.perf_counter() - t0))
"""

# Fixed set-up work launched next to each set-up launch, to follow the
# machine's speed: a fresh interpreter imports splitxray's two
# dependencies and runs no splitxray code.
REFERENCE_SETUP_CODE = """
import time
t0 = time.perf_counter()
import numpy, jsonschema
print(repr(time.perf_counter() - t0))
"""

# Median time of REFERENCE_SETUP_CODE on the machine the benchmark was
# built on; setup_s is given at the speed where it takes this long.
REFERENCE_SETUP_S = 0.2


def launch(code, env):
    """Seconds that code, run in a fresh interpreter, reports."""
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def measure_setup(env, reference_first):
    """(set-up seconds, reference set-up seconds), launched back to back."""
    if reference_first:
        reference = launch(REFERENCE_SETUP_CODE, env)
        return launch(SETUP_CODE, env), reference
    setup = launch(SETUP_CODE, env)
    return setup, launch(REFERENCE_SETUP_CODE, env)


class Reference:
    """Fixed work timed between units, to follow the machine's speed.

    Python dict and integer operations, then small-array numpy of the kind
    splitxray does (circle points, monomial powers, a 2 x 4 SVD).  It calls
    no splitxray code, so a change to splitxray does not change it.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        theta = np.arange(128) * (2.0 * np.pi / 128)
        self.cos, self.sin = np.cos(theta), np.sin(theta)
        self.expo = np.array([[i, j, k, 4 - i - j - k] for i in range(5)
                              for j in range(5 - i) for k in range(5 - i - j)])
        self.coef = np.linspace(1.0, 2.0, len(self.expo))
        self.u = np.array([1.0, 0.2, 0.3, 0.4])
        self.v = np.array([0.1, 1.0, 0.5, 0.2])

    def __call__(self):
        """Seconds the fixed work took."""
        np = self.np
        t0 = time.perf_counter()
        table = {}
        total = 0
        for i in range(30000):
            table[i & 255] = i
            total += table[i & 127]
        for _ in range(5):
            x = np.outer(self.cos, self.u) + np.outer(self.sin, self.v)
            r2 = np.einsum("...i,...i->...", x, x)
            ((np.prod(x[..., None, :] ** self.expo, axis=-1) @ self.coef)
             * r2 ** -3).sum()
            np.linalg.svd(np.vstack([self.u, self.v]), compute_uv=False)
        return time.perf_counter() - t0


class Sampling:
    """Timed samples of a workload's units, run in turn for a time budget.

    Every unit runs at least once; the outputs of that first round are
    kept for the gates.  Samples are grouped by the unit's pool.  Each
    sample is also divided by the mean of the Reference times just before
    and after it, which cancels most of the machine's drift in speed.
    With a tracer, each unit runs under a root span; after the first round
    on_first_round() is called and later spans are dropped unit by unit.
    With setup_pairs, set-up and reference launches run in pairs spread
    evenly over the budget, alternating which of the two goes first.
    """

    def __init__(self, workload, seconds, tracer=None, on_first_round=None,
                 setup_pairs=0, env=None):
        self.samples = {u.pool: [] for u in workload.units}
        self.relative = {u.pool: [] for u in workload.units}
        self.counts = {}
        for u in workload.units:
            self.counts[u.pool] = self.counts.get(u.pool, 0) + 1
        self.outputs = {}
        self.first_round_s = 0.0
        self.setup = []
        reference = Reference()
        due = [(i + 0.5) * seconds / setup_pairs for i in range(setup_pairs)]
        start = time.perf_counter()
        before = reference()
        self.rounds = 0
        while not (self.rounds and time.perf_counter() - start >= seconds):
            for u in workload.units:
                if self.rounds and time.perf_counter() - start >= seconds:
                    break
                if tracer and self.rounds:
                    tracer.clear()
                t0 = time.perf_counter()
                if tracer:
                    with tracer.span(f"bench.{u.name}"):
                        out = self._call(u)
                else:
                    out = self._call(u)
                dt = time.perf_counter() - t0
                after = reference()
                self.samples[u.pool].append(dt)
                self.relative[u.pool].append(2.0 * dt / (before + after))
                before = after
                if not self.rounds:
                    self.outputs[u.name] = out
                    self.first_round_s += dt
                if due and time.perf_counter() - start >= due[0]:
                    while due and time.perf_counter() - start >= due[0]:
                        due.pop(0)
                        self.setup.append(
                            measure_setup(env, len(self.setup) % 2 == 1))
                    before = reference()
            if not self.rounds and on_first_round:
                on_first_round()
            self.rounds += 1
        for _ in due:
            self.setup.append(measure_setup(env, len(self.setup) % 2 == 1))

    def _call(self, unit):
        try:
            return unit.fn(self.outputs)
        except Exception as exc:  # the gate counts it as a failed operation
            return exc

    def pass_s(self):
        """Pass time at the nominal speed, where Reference takes
        REFERENCE_S seconds."""
        return REFERENCE_S * stats.pass_estimate(self.relative, self.counts,
                                                 stats.PASS_QUANTILE)

    def diagnostics(self):
        return {
            "rounds": self.rounds,
            "samples": sum(len(s) for s in self.samples.values()),
            "wall_p20_s": stats.pass_estimate(self.samples, self.counts, 0.2),
            "wall_median_s": stats.pass_estimate(self.samples, self.counts, 0.5),
            "wall_p90_s": stats.pass_estimate(self.samples, self.counts, 0.9),
            "first_round_s": self.first_round_s,
        }


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "splitxray").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ[k] for k in THREAD_PINS},
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_timed(wl, seconds, env):
    sampling = Sampling(wl, seconds, setup_pairs=SETUP_PAIRS, env=env)
    raw = [s for s, _ in sampling.setup]
    ratios = [s / r for s, r in sampling.setup]
    metrics = {
        "pass_s": sampling.pass_s(),
        "setup_s": REFERENCE_SETUP_S * stats.quantile(ratios, 0.5),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    diagnostics = {"pass_s": sampling.diagnostics(), "setup_s": {
        "pairs": len(sampling.setup),
        "raw_min_s": min(raw),
        "raw_median_s": stats.quantile(raw, 0.5),
        "raw_p90_s": stats.quantile(raw, 0.9),
        "reference_median_s":
            stats.quantile([r for _, r in sampling.setup], 0.5),
    }}
    return sampling.outputs, metrics, diagnostics, []


def run_traced(wl, seconds, suites, trace_path):
    """Half the budget untraced, half traced.  Per-layer metrics come from
    the first traced round, which is one whole pass."""
    import tracing
    plain = Sampling(wl, seconds / 2)
    tracer = tracing.Tracer()
    first = {}

    def take_first_round():
        first["metrics"] = tracer.layer_metrics(suites)
        first["spans"] = tracer.spans()
        tracer.save(trace_path)

    with tracer.installed():
        traced = Sampling(wl, seconds / 2, tracer=tracer,
                          on_first_round=take_first_round)
    metrics = first["metrics"]
    metrics["trace.pass_s"] = traced.first_round_s
    metrics["trace.overhead_s"] = traced.pass_s() - plain.pass_s()
    metrics["plain.pass_s"] = plain.pass_s()
    metrics["plain.wall_s"] = stats.pass_estimate(plain.samples, plain.counts, 0.5)
    failures = stats.check_self_times(first["spans"], traced.first_round_s)
    diagnostics = {"untraced": plain.diagnostics(), "traced": traced.diagnostics(),
                   "spans": len(first["spans"]), "trace_file": str(trace_path)}
    return traced.outputs, metrics, diagnostics, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update(THREAD_PINS)
    if not (SRC / "splitxray" / "__init__.py").is_file():
        print(f"error: no splitxray package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads
    from splitxray import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        outputs, metrics, diagnostics, failures = run_traced(
            wl, args.seconds, list(cli.SUITES), trace_path)
        units = tracing.per_layer_units(list(cli.SUITES))
    else:
        outputs, metrics, diagnostics, failures = run_timed(wl, args.seconds, env)
        units = END_TO_END
    verdict = wl.gate(outputs)
    failures = verdict.messages + failures
    fail_share = verdict.failed / verdict.attempted
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fail_share": fail_share,
        "refused": verdict.refused, "diagnostics": diagnostics,
        "failures": [m[:300] for m in failures[:20]],
        "environment": environment(),
    }
    print(json.dumps(report, sort_keys=True))
    correct = not failures
    print(json.dumps({
        "correct": correct, "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
