"""Acceptance suite: every criterion at its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per check.  Every criterion runs the CLI suites, the program's only
catalogue of checks, at seeds 102-109; the tolerances are those of
splitxray.defaults.TOLERANCES, and none is relaxed anywhere.
"""

import numpy as np

from splitxray import cli, xray


def run_suite(num, command, seed, names):
    """Run a CLI suite, whose checks must be `names`, and print one
    pass/fail line per check at the check's pinned tolerance; each must
    pass."""
    report = cli.run({"command": command, "seed": seed})
    assert [c.name for c in report.checks] == names
    for c in report.checks:
        print(f"[{'PASS' if c.passed else 'FAIL'}] criterion {num}: "
              f"{c.name}: {c.value:.3e} vs {c.tolerance:.3e}")
        assert c.passed, f"criterion {num} failed: {c.name}"


def spy(monkeypatch, module, name):
    """Record every result of module.name, which the suites look up at call
    time."""
    results, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: results.append(real(*args))
                        or results[-1])
    return results


def test_criterion_02_john_equation_over_basis(monkeypatch):
    # criteria 1 (xray_value:deg0, the closed form 2 pi / sqrt(det Gram))
    # and 10 (john:diagonal, John's operator against box_diag / 4) are rows
    # of the same run
    fields = spy(monkeypatch, xray, "xray_chart_field")
    run_suite("1/2/10", "verify-john", 102,
              ["john:deg0", "john:deg2", "john:deg4", "john:anchor",
               "xray_value:deg0", "john:diagonal"])
    assert len(fields) == 35


def test_criterion_03_weight_law(monkeypatch):
    gs = spy(monkeypatch, xray, "random_gl2")
    run_suite(3, "verify-weight-law", 103, ["weight_law:deg0", "weight_law:deg2"])
    assert sum(np.linalg.det(g) < 0 for g in gs) >= 8


def test_criterion_04_equivariance():
    run_suite(4, "verify-equivariance", 104,
              ["equivariance:deg0", "equivariance:deg2"])


def test_criterion_05_moment_consistency():
    run_suite(5, "verify-moments", 105, ["moments:n1", "moments:n2"])


def test_criterion_06_bijectivity_witness():
    run_suite("6a", "injectivity", 106, ["basis_dimension", "rank_defect"])
    run_suite("6b", "reconstruct", 106,
              ["basis_dimension", "reconstruction", "reconstruction:anchor"])


def test_criterion_07_split_instanton():
    run_suite("7a/b", "verify-selfdual", 107,
              ["selfdual:flagship-u1", "selfdual:su2-constant-anchor",
               "selfdual:asd-u1-anchor", "star_involution"])
    run_suite("7c", "verify-gauge", 107, ["gauge_invariance:flagship-u1"])
    run_suite("7d/e", "verify-coupled-box", 107,
              ["coupled_box:hand-value", "gauge_covariance"])


def test_criterion_08_penrose_avatar():
    run_suite(8, "penrose-elementary", 108,
              ["penrose_value", "penrose_ratio_spread", "penrose_john",
               "penrose_john:anchor"])


def test_criterion_09_geometry():
    run_suite(9, "geometry-roundtrip", 109,
              ["geometry_roundtrip", "geometry_roundtrip:orientation",
               "geometry_roundtrip:klein_quadric"])
