"""A catalogue of hand-written mutants: evidence that the suites' checks
can fail.

Each mutant replaces one name of the program with a wrong version, in
every splitxray module that binds it, and runs a suite that should catch
it once through cli.run.  The suite catches the mutant when some check
fails or the suite raises.  The (mutant, suite) pairs that no check
catches today form SURVIVORS, asserted exactly: a new survivor fails
here, and a change that kills one removes it from the set.

This is mutation analysis (DeMillo, Lipton & Sayward, IEEE Computer
11(4), 1978) with a fixed, named set of mutants.
"""

import dataclasses
import json
import math
import sys

import numpy as np
import pytest

import splitxray
from splitxray import cli, instanton, inversion, operators, penrose, xray
from splitxray.defaults import FD_STEP
from splitxray.operators import worst_residual


def _john(combine):
    """john_operator with combine(d11_d22, d12_d21) in place of the
    difference of its two mixed partials."""
    def john_operator(phi, X, h=FD_STEP):
        steps, v = operators._stencil(phi, X, operators._JOHN_OFFSETS, h)
        return operators._extrapolate(*[
            combine(operators._mixed(v[i, :4], s), operators._mixed(v[i, 4:], s))
            for i, s in enumerate(steps)])
    return john_operator


def _equivariance_with_g_for_its_transpose(f, g, frames, q):
    """equivariance_residual with f o g evaluated as f(x g), not f(g x)."""
    g = np.asarray(g, dtype=float)
    rows = np.array([frame.rows for frame in frames])
    moved = np.array([[g @ u, g @ v] for u, v in rows])
    fg = f(xray.circle_points(rows, q) @ g)
    return worst_residual(np.abs(
        xray.circle_integral(fg, q)
        - xray.circle_integral(f(xray.circle_points(moved, q)), q)))


def _hodge_star_with_metric_1_1_minus1_1(F):
    metric = np.array([1.0, 1.0, -1.0, 1.0])
    return 0.5 * np.einsum("ijkl,k,l,klab->ijab",
                           instanton.LEVI_CIVITA, metric, metric, F)


def _wedge_pairing_with_plus(a, b, frame):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return (frame.u @ a) * (frame.v @ b) + (frame.v @ a) * (frame.u @ b)


def _curvature_without_commutator(A, x):
    x = np.asarray(x, dtype=float)
    F = np.zeros((4, 4, A.n, A.n), dtype=complex)
    for i, j in instanton._PAIRS:
        F[i, j] = A.partial(i, j, x) - A.partial(j, i, x)
        F[j, i] = -F[i, j]
    return F


def _edited_matrix(edit):
    """A design_matrix mutant that applies edit to the real matrix."""
    def make(design_matrix):
        def mutant(*args, **kwargs):
            d = design_matrix(*args, **kwargs)
            return dataclasses.replace(d, matrix=edit(d.matrix.copy()))
        return mutant
    return make


def _duplicate_column(m):
    m[:, 1] = m[:, 0]
    return m


# name -> (module, attribute, make), where make(real) returns the mutant
MUTANTS = {
    "john-plus": (operators, "john_operator",
                  lambda real: _john(lambda a, b: a + b)),
    "john-first-partial": (operators, "john_operator",
                           lambda real: _john(lambda a, b: a)),
    "john-times-1e-6": (operators, "john_operator",
                        lambda real: lambda *args: 1e-6 * real(*args)),
    "equivariance-g-for-transpose": (
        xray, "equivariance_residual",
        lambda real: _equivariance_with_g_for_its_transpose),
    "hodge-star-metric": (instanton, "hodge_star",
                          lambda real: _hodge_star_with_metric_1_1_minus1_1),
    "wedge-plus": (penrose, "wedge_pairing",
                   lambda real: _wedge_pairing_with_plus),
    "design-duplicate-column": (inversion, "design_matrix",
                                _edited_matrix(_duplicate_column)),
    "circle-weight-pi-over-n": (
        xray, "circle_integral",
        lambda real: lambda values, q: real(values, q) / 2.0),
    "curvature-no-commutator": (instanton, "curvature",
                                lambda real: _curvature_without_commutator),
    "xray-times-1.5": (xray, "xray_transform",
                       lambda real: lambda *args: 1.5 * real(*args)),
    "design-column-bias": (
        inversion, "design_matrix",
        _edited_matrix(lambda m: m + 1e-3 * np.arange(m.shape[1]))),
    "design-row-shift": (inversion, "design_matrix",
                         _edited_matrix(lambda m: np.roll(m, -1, axis=0))),
    "quadrature-4-nodes": (xray, "QuadratureSpec",
                           lambda real: lambda *args: real(4)),
    "basis-two-degrees-up": (
        inversion, "transform_basis",
        lambda real: lambda max_degree: real(max_degree + 2)),
}

# (mutant, suite) pairs, each run once
PAIRS = [
    ("john-plus", "verify-john"),
    ("john-first-partial", "verify-john"),
    ("john-plus", "penrose-elementary"),
    ("john-first-partial", "penrose-elementary"),
    ("john-times-1e-6", "verify-john"),
    ("john-times-1e-6", "penrose-elementary"),
    ("equivariance-g-for-transpose", "verify-equivariance"),
    ("hodge-star-metric", "verify-selfdual"),
    ("wedge-plus", "penrose-elementary"),
    ("design-duplicate-column", "injectivity"),
    ("design-duplicate-column", "reconstruct"),
    ("circle-weight-pi-over-n", "penrose-elementary"),
    ("quadrature-4-nodes", "verify-weight-law"),
    ("quadrature-4-nodes", "penrose-elementary"),
    ("curvature-no-commutator", "verify-selfdual"),
    ("curvature-no-commutator", "verify-gauge"),
    ("xray-times-1.5", "verify-weight-law"),
    ("xray-times-1.5", "reconstruct"),
    ("xray-times-1.5", "injectivity"),
    ("design-column-bias", "reconstruct"),
    ("design-row-shift", "reconstruct"),
    ("quadrature-4-nodes", "verify-john"),
    ("quadrature-4-nodes", "verify-moments"),
    ("quadrature-4-nodes", "injectivity"),
    ("quadrature-4-nodes", "reconstruct"),
    ("basis-two-degrees-up", "injectivity"),
    ("basis-two-degrees-up", "reconstruct"),
]

# The pairs of PAIRS whose suite passes with the mutant in place.
SURVIVORS = {
    # the only connection these suites check, flagship-u1, is abelian
    ("curvature-no-commutator", "verify-selfdual"),
    ("curvature-no-commutator", "verify-gauge"),
    # the weight law compares the transform with itself, and reconstruct
    # samples the same design matrix it solves with; injectivity asks only
    # for full rank
    ("xray-times-1.5", "verify-weight-law"),
    ("xray-times-1.5", "reconstruct"),
    ("xray-times-1.5", "injectivity"),
    ("design-column-bias", "reconstruct"),
    ("design-row-shift", "reconstruct"),
    # each node's term satisfies the John and moment identities by itself,
    # and the design-matrix suites see no transform value
    ("quadrature-4-nodes", "verify-john"),
    ("quadrature-4-nodes", "verify-moments"),
    ("quadrature-4-nodes", "injectivity"),
    ("quadrature-4-nodes", "reconstruct"),
}


def install(monkeypatch, mutant):
    """Replace every splitxray module's binding of the mutant's name."""
    module, name, make = MUTANTS[mutant]
    real = getattr(module, name)
    replacement = make(real)
    for mod in [m for key, m in sys.modules.items()
                if key == "splitxray" or key.startswith("splitxray.")]:
        for attr, value in list(vars(mod).items()):
            if value is real:
                monkeypatch.setattr(mod, attr, replacement)


def caught(monkeypatch, mutant, suite):
    install(monkeypatch, mutant)
    try:
        report = cli.run({"command": suite})
    except Exception:
        return True
    return not report.overall


def test_survivors_are_pairs_of_the_catalogue():
    assert len(set(PAIRS)) == len(PAIRS)
    assert SURVIVORS <= set(PAIRS)
    assert {mutant for mutant, _ in PAIRS} == set(MUTANTS)


@pytest.mark.parametrize("mutant, suite", PAIRS)
def test_mutant_is_caught_unless_a_known_survivor(monkeypatch, mutant, suite):
    assert caught(monkeypatch, mutant, suite) is ((mutant, suite)
                                                  not in SURVIVORS)


def test_install_patches_every_binding(monkeypatch):
    real = xray.xray_transform
    install(monkeypatch, "xray-times-1.5")
    assert inversion.xray_transform is xray.xray_transform is not real
    assert splitxray.xray_transform is xray.xray_transform


def test_each_survivor_changes_what_it_replaces(monkeypatch):
    # a survivor must not be a mutant that computes the same thing
    su2 = instanton.connection_preset("su2-constant")
    x = np.array([0.3, -0.2, 0.5, 0.1])
    real_f = instanton.curvature(su2, x)
    basis = inversion.transform_basis(2)
    frames = inversion.sample_frames(len(basis), 3)
    q = xray.QuadratureSpec(16)
    real_m = inversion.design_matrix(basis, frames, q).matrix
    for mutant in {mutant for mutant, _ in SURVIVORS}:
        with monkeypatch.context() as m:
            install(m, mutant)
            if mutant == "curvature-no-commutator":
                assert not np.allclose(instanton.curvature(su2, x), real_f)
            elif mutant == "quadrature-4-nodes":
                assert xray.QuadratureSpec(128).n_nodes == 4
            else:
                matrix = inversion.design_matrix(basis, frames, q).matrix
                assert not np.allclose(matrix, real_m), mutant


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_rank_deficient_reconstruct_fails_its_check(monkeypatch, capsys):
    # reconstruct refuses the duplicated column; the suite reports that
    # refusal as a failed check, not as a traceback, in a report that is
    # strict JSON: the infinite value is the string "inf", not Infinity
    install(monkeypatch, "design-duplicate-column")
    assert cli.main(["reconstruct"]) == 1
    out, err = capsys.readouterr()
    assert "FAILED checks: reconstruction" in err
    checks = json.loads(out, parse_constant=_refuse_constant)["checks"]
    assert [(c["name"], c["value"], c["passed"]) for c in checks] == [
        ("basis_dimension", 0.0, True), ("reconstruction", "inf", False)]
    assert float(checks[1]["value"]) == math.inf
