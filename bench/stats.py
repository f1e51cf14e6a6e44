"""Estimators and trace arithmetic for the benchmark.

Pure functions with no dependency on splitxray or numpy, so the unit tests
in test_bench.py can check them on hand-made inputs.
"""

from __future__ import annotations

import math

# Quantile of a unit's short samples that stands for its time.  The machine
# the benchmark was built on moves between fast and slow phases; the median
# reads the dominant one, where a low quantile tracks how often the rarer
# fast bursts came in that run.  README.md has the measurements.
PASS_QUANTILE = 0.5

# Largest share of a traced pass that may lie in no wrapped layer.
# penrose-sweep's per-frame loop and the wrappers' entry and exit take
# about 2.5 % of its pass, suites-default and design-scaled well under 1 %;
# a layer left unwrapped that takes a tenth of a pass fails the check.
OWN_SHARE_LIMIT = 0.1


def quantile(values, q):
    """The q-quantile of values, interpolating linearly between order
    statistics (numpy's default "linear" method)."""
    if not values:
        raise ValueError("quantile of no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile level {q} outside [0, 1]")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def pass_estimate(samples, counts, q):
    """Time of one pass: for each pool, the q-quantile of its samples times
    the number of units of that pool in one pass, summed over pools."""
    return sum(counts[pool] * quantile(times, q)
               for pool, times in samples.items())


def self_times(spans):
    """Self time of every span: its duration minus the durations of its
    direct children.

    spans is a sequence of (start, end, parent) with parent the index of
    the enclosing span or -1 for a root.
    """
    own = [end - start for start, end, _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def check_self_times(spans, pass_s, rel_tol=1e-3):
    """Failure messages for a trace whose layers do not account for the
    traced pass.

    spans are (start, end, parent) as for self_times; each root span is one
    unit of the pass.  pass_s is the pass time measured by the sampler's
    own clock around each unit, independently of the spans.  Every self
    time must be non-negative (children nest inside their parent), and the
    self times together must equal pass_s up to rel_tol, the cost of
    opening and closing the root spans.  The self time of the root spans
    is the benchmark's own time: work in no wrapped layer.  It may be at
    most OWN_SHARE_LIMIT of pass_s, so a layer left unwrapped shows.
    """
    own = self_times(spans)
    slack = rel_tol * pass_s
    failures = [f"span {i} has negative self time {s:.3e} s"
                for i, s in enumerate(own) if s < -1e-9]
    total = math.fsum(own)
    if not pass_s - slack <= total <= pass_s:
        failures.append(f"self times sum to {total:.6f} s but the traced "
                        f"pass took {pass_s:.6f} s")
    bench = math.fsum(s for s, (_, _, parent) in zip(own, spans) if parent < 0)
    if bench > OWN_SHARE_LIMIT * pass_s:
        failures.append(f"{bench:.6f} s of the {pass_s:.6f} s traced pass is "
                        f"in no wrapped layer, more than {OWN_SHARE_LIMIT:.0%}")
    return failures
