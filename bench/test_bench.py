"""Unit tests of the benchmark's estimator, its self-time arithmetic and
the tracer.  Run with PYTHONPATH=src python -m pytest bench."""

import json
import math
import statistics
import time
from pathlib import Path

import pytest

import stats
import tracing

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_quantile_interpolates_between_order_statistics():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.quantile(values, 0.0) == 1.0
    assert stats.quantile(values, 1.0) == 5.0
    assert stats.quantile(values, 0.5) == 3.0
    assert stats.quantile(values, 0.2) == pytest.approx(1.8)
    assert stats.quantile([7.0], 0.2) == 7.0
    # numpy's default method is statistics' "inclusive" one
    assert stats.quantile(values, 0.25) == statistics.quantiles(
        values, n=4, method="inclusive")[0]


def test_quantile_rejects_empty_input_and_bad_levels():
    with pytest.raises(ValueError):
        stats.quantile([], 0.2)
    with pytest.raises(ValueError):
        stats.quantile([1.0], 1.5)


def test_pass_estimate_weights_each_pool_by_its_unit_count():
    samples = {"block": [2.0, 1.0, 3.0], "tail": [0.5]}
    counts = {"block": 4, "tail": 1}
    assert stats.pass_estimate(samples, counts, 0.0) == 4 * 1.0 + 0.5
    assert stats.pass_estimate(samples, counts, 0.5) == 4 * 2.0 + 0.5


def test_self_times_subtract_direct_children_only():
    spans = [
        (0.0, 10.0, -1),   # root
        (1.0, 4.0, 0),     # child of root
        (2.0, 3.0, 1),     # grandchild
        (5.0, 9.0, 0),     # second child of root
        (11.0, 12.0, -1),  # second root
    ]
    assert stats.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_self_time_check_accepts_a_consistent_trace():
    spans = [(0.0, 10.0, -1), (0.1, 4.0, 0), (2.0, 3.0, 1), (4.0, 9.9, 0)]
    assert stats.check_self_times(spans, 10.0 + 1e-4) == []


def test_self_time_check_rejects_overlap_and_a_missing_share():
    # a child that outlasts its parent leaves the parent negative self time
    spans = [(0.0, 2.0, -1), (0.0, 2.5, 0)]
    assert any("negative" in m for m in stats.check_self_times(spans, 2.0))
    # spans that cover far less than the measured pass
    spans = [(0.0, 5.0, -1), (0.0, 5.0, 0)]
    assert any("sum to" in m for m in stats.check_self_times(spans, 10.0))
    # and far more
    assert any("sum to" in m for m in stats.check_self_times(spans, 4.0))
    # 3 s of a 10 s unit lie outside its one wrapped call
    spans = [(0.0, 10.0, -1), (1.0, 8.0, 0)]
    assert any("no wrapped layer" in m
               for m in stats.check_self_times(spans, 10.0))


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_check_finds_a_layer_left_unwrapped():
    from splitxray import inversion, xray

    basis = inversion.transform_basis(4)
    frames = inversion.sample_frames(10, 7)
    q = xray.QuadratureSpec(64)

    def unit(tracer, unwrapped_s):
        t0 = time.perf_counter()
        with tracer.span("bench.unit"):
            inversion.design_matrix(basis, frames, q)
            _busy(unwrapped_s)
        return time.perf_counter() - t0

    tracer = tracing.Tracer()
    with tracer.installed():
        pass_s = unit(tracer, 0.0)
        # a unit this short pays a visible share for opening its root span
        assert stats.check_self_times(tracer.spans(), pass_s,
                                      rel_tol=1e-2) == []
        tracer.clear()
        # work of a layer the tracer does not wrap lands in the unit's span
        pass_s = unit(tracer, 0.1)
    failures = stats.check_self_times(tracer.spans(), pass_s, rel_tol=1e-2)
    assert len(failures) == 1 and "no wrapped layer" in failures[0]


def test_tracer_wraps_every_binding_and_restores_it():
    from splitxray import inversion, xray
    from splitxray.fields import HomogeneousFunction

    basis = inversion.transform_basis(2)[:3]
    frames = inversion.sample_frames(2, 7)
    q = xray.QuadratureSpec(16)
    originals = (xray.xray_transform, inversion.xray_transform,
                 HomogeneousFunction.__call__)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert inversion.xray_transform is xray.xray_transform
        assert inversion.xray_transform is not originals[0]
        with tracer.span("bench.unit"):
            expected = inversion.design_matrix(basis, frames, q).matrix
    assert (xray.xray_transform, inversion.xray_transform,
            HomogeneousFunction.__call__) == originals

    metrics = tracer.layer_metrics([])
    own = stats.self_times(tracer.spans())
    assert metrics["inversion.design_matrix.calls"] == 1
    assert metrics["inversion.design_matrix.entries"] == expected.size == 6
    assert metrics["xray.xray_transform.calls"] == 6
    assert metrics["xray.integrand_points"] == 6 * 16
    assert metrics["fields.HomogeneousFunction.call.calls"] == 6
    assert metrics["poly.Poly4.call.calls"] == 6
    assert all(s >= 0.0 for s in own)
    assert math.fsum(own) == pytest.approx(tracer.end[0] - tracer.start[0])


def test_benchmark_json_names_the_metrics_the_benchmark_reports():
    import run
    from splitxray import cli

    spec = json.loads(BENCHMARK.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == tracing.per_layer_units(list(cli.SUITES)))
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
