import argparse
import inspect
import json
import math

import numpy as np
import pytest

from splitxray import cli, inversion, operators, penrose, xray
from splitxray.cli import CONFIG_SCHEMA, ConfigError, main, run
from splitxray.defaults import DEFAULTS, FD_STEP, POLE_MARGIN, TOLERANCES


@pytest.fixture(scope="module")
def default_runs():
    """Each suite's report at DEFAULTS, by suite name."""
    return {name: run({"command": name}) for name in cli.SUITES}


def strip_timestamp(text):
    payload = json.loads(text)
    del payload["timestamp"]
    return json.dumps(payload, sort_keys=True)


def test_pass_exit_code_and_report(capsys):
    assert main(["verify-selfdual"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["overall"] is True
    assert {c["name"] for c in payload["checks"]} == {
        "selfdual:flagship-u1", "selfdual:su2-constant-anchor",
        "selfdual:asd-u1-anchor", "star_involution"}
    for c in payload["checks"]:
        assert set(c) == {"name", "value", "tolerance", "passed"}


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-foo"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_check_failure_exits_1(capsys):
    # an honest failure: four nodes leave the weight law's quadrature error
    # far above its tolerance of 1e-9
    code = main(["verify-weight-law", "--nodes", "4"])
    assert code == 1
    captured = capsys.readouterr()
    assert "FAILED" in captured.err
    payload = json.loads(captured.out)
    assert payload["overall"] is False


def test_reconstruct_with_too_few_frames_exits_2(capsys):
    code = main(["reconstruct", "--n-frames", "10"])
    assert code == 2
    assert "35" in capsys.readouterr().err


def test_injectivity_with_too_few_frames_exits_2(capsys):
    code = main(["injectivity", "--n-frames", "5", "--max-degree", "2"])
    assert code == 2
    assert "10" in capsys.readouterr().err


def test_invalid_config_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"nodes": 2}))
    code = main(["verify-selfdual", "--config", str(cfg)])
    assert code == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_config_schema_is_a_valid_schema():
    import jsonschema
    jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)


def test_main_merges_and_validates_once(monkeypatch, capsys):
    calls = []
    validate = cli._validate_config
    monkeypatch.setattr(cli, "_validate_config",
                        lambda cfg: calls.append(cfg) or validate(cfg))
    assert main(["verify-coupled-box", "--seed", "3"]) == 0
    assert len(calls) == 1 and calls[0]["seed"] == 3


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"nodez": 64}))
    assert main(["verify-selfdual", "--config", str(cfg)]) == 2


def test_tolerances_are_not_configurable(tmp_path, capsys):
    # a check's tolerance is the one pinned in TOLERANCES, the stencil step
    # is defaults.FD_STEP, at which the tolerances were pinned, and each
    # suite's witness is a constant of the suite: neither a flag nor a
    # config file can set them
    cfg = tmp_path / "old.json"
    for key, text, value in (("tolerances", '{"selfdual": 1e-3}',
                              {"selfdual": 1e-3}),
                             ("fd_step", "1e-3", 1e-3),
                             ("connection", "flagship-u1", "flagship-u1"),
                             ("state_a", "1,0,1j,0", ["1", "0", "1j", "0"]),
                             ("state_b", "1j,0,1,0", ["1j", "0", "1", "0"])):
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main(["verify-selfdual", flag, text])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        cfg.write_text(json.dumps({key: value}))
        assert main(["verify-selfdual", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err


def test_deterministic_reports(capsys):
    main(["geometry-roundtrip", "--seed", "42"])
    first = capsys.readouterr().out
    main(["geometry-roundtrip", "--seed", "42"])
    second = capsys.readouterr().out
    assert strip_timestamp(first) == strip_timestamp(second)
    main(["geometry-roundtrip", "--seed", "43"])
    third = capsys.readouterr().out
    assert json.loads(third)["environment"]["seed"] == 43


def test_config_file_merging_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "nodes": 32}))
    main(["geometry-roundtrip", "--config", str(cfg), "--seed", "8",
          "--n-frames", "40", "--max-degree", "2"])
    payload = json.loads(capsys.readouterr().out)
    env = payload["environment"]
    assert env["seed"] == 8          # flag beats file
    assert env["nodes"] == 32        # file beats default
    assert env["n_frames"] == 40
    assert env["max_degree"] == 2


def test_output_file_and_csv_format(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["verify-selfdual", "--format", "csv", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "name,value,tolerance,pass"
    assert lines[1].startswith("selfdual:flagship-u1,")
    assert lines[1].endswith(",true")
    assert capsys.readouterr().out == out.read_text()


def test_run_api_rejects_unknown_command():
    with pytest.raises(ConfigError, match="unknown command"):
        run({"command": "no-such-suite"})


def test_run_api_returns_report():
    report = run({"command": "verify-coupled-box", "seed": 1})
    assert report.overall
    assert report.command == "verify-coupled-box"
    assert report.environment["seed"] == 1


def test_environment_records_every_input(tmp_path, default_runs):
    prefix = str(tmp_path / "design")
    report = run({"command": "reconstruct", "max_degree": 2, "n_frames": 12,
                  "save_design": prefix})
    assert report.environment["save_design"] == prefix
    assert {p.name for p in tmp_path.iterdir()} == {"design.csv", "design.json"}
    for report in default_runs.values():
        assert set(report.environment) == set(DEFAULTS)
        assert report.environment["save_design"] is None


# seeds at which neighbours with a narrow analyticity strip, or a John
# check comparing orientations across a chart frame, used to fail
@pytest.mark.parametrize("seed", [25, 37, 55, 63, 67, 87])
def test_penrose_elementary_passes_at_formerly_failing_seeds(seed):
    report = run({"command": "penrose-elementary", "seed": seed})
    assert report.overall, [(c.name, c.value) for c in report.checks]


def test_john_diagonal_compares_the_operators_on_a_non_solution(monkeypatch):
    # where the witness solved John's equation, both sides of the check
    # would be near 0 and an operator at any scale would pass
    real, values = operators.john_operator, []

    def john(phi, X):
        value = real(phi, X)
        if phi is cli._diagonal_witness:
            values.append(value)
        return value

    monkeypatch.setattr(operators, "john_operator", john)
    assert run({"command": "verify-john"}).overall
    assert len(values) == 10 and min(map(abs, values)) >= 1.0


def test_defaults_table_is_consistent():
    assert DEFAULTS["nodes"] == 128
    assert FD_STEP == 1e-3
    assert set(CONFIG_SCHEMA["properties"]) == {*DEFAULTS, "command",
                                                "output", "format"}
    assert xray.QuadratureSpec().n_nodes == DEFAULTS["nodes"]
    for operator in (operators.john_operator, operators.dn_residual,
                     operators.coupled_box, operators.box_diag):
        step = inspect.signature(operator).parameters["h"]
        assert step.default == FD_STEP
    for function in (penrose.pole_safety, penrose.contour_transform,
                     penrose.contour_chart_field):
        margin = inspect.signature(function).parameters["margin"]
        assert margin.default == POLE_MARGIN


def test_every_config_key_is_a_flag_of_every_subcommand():
    expected = {"--config"} | {"--" + key.replace("_", "-")
                               for key in CONFIG_SCHEMA["properties"]
                               if key != "command"}
    assert len(expected) == 8
    sub, = (a for a in cli._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(cli.SUITES)
    for p in sub.choices.values():
        assert {o for a in p._actions for o in a.option_strings
                if o.startswith("--")} == expected | {"--help"}


@pytest.mark.parametrize("flag, value", [("--nodes", "many")])
def test_unparsable_flag_exits_2(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify-selfdual", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_nan_residual_after_the_first_fails_its_check(monkeypatch):
    # all three are far below the moments tolerance of 1e-6
    residuals = iter([1e-9, float("nan"), 2e-9])
    monkeypatch.setattr(operators, "dn_residual",
                        lambda *args: next(residuals, 0.0))
    report = run({"command": "verify-moments"})
    n1 = report.checks[0]
    assert n1.name == "moments:n1"
    assert math.isnan(n1.value) and not n1.passed
    assert report.checks[1].passed and not report.overall


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_non_finite_values_are_strict_json_in_the_csv_spelling():
    values = [math.inf, -math.inf, math.nan, 1e-9]
    report = cli.Report(
        command="verify-moments", environment=dict(DEFAULTS), overall=False,
        timestamp="t", checks=[cli._record("moments:n1", v) for v in values])
    checks = json.loads(report.to_json(),
                        parse_constant=_refuse_constant)["checks"]
    assert [c["value"] for c in checks] == ["inf", "-inf", "nan", 1e-9]
    rows = report.to_csv().splitlines()[1:]
    assert [row.split(",")[1] for row in rows[:3]] == ["inf", "-inf", "nan"]
    assert [c["passed"] for c in checks] == [False, False, False, True]


# Every suite that integrates over circles, at a count above the default,
# and at 32 the three suites that a hidden floor used to raise to 128.
@pytest.mark.parametrize("command, nodes", [
    *((command, 200) for command in (
        "verify-john", "verify-weight-law", "verify-equivariance",
        "verify-moments", "penrose-elementary", "reconstruct", "injectivity")),
    ("verify-weight-law", 32),
    ("reconstruct", 32),
    ("injectivity", 32),
])
def test_environment_records_the_nodes_that_ran(monkeypatch, command, nodes):
    built = []
    spec = xray.QuadratureSpec
    monkeypatch.setattr(xray, "QuadratureSpec",
                        lambda n: built.append(n) or spec(n))
    report = run({"command": command, "nodes": nodes, "max_degree": 2,
                  "n_frames": 12})
    assert set(built) == {nodes}
    assert report.environment["nodes"] == nodes


@pytest.mark.parametrize("command", ["reconstruct", "injectivity"])
def test_each_design_matrix_suite_factors_its_matrix_once(monkeypatch,
                                                          command):
    # every Frame runs an SVD of its own (2, 4) rows, so count the calls on
    # a matrix with a row per sampled frame; reconstruct solves its stack of
    # samples from the same SVD, without lstsq
    calls = []
    for name in ("svd", "lstsq"):
        def spy(a, *args, name=name, real=getattr(np.linalg, name), **kw):
            calls.append((name, np.shape(a)[0]))
            return real(a, *args, **kw)
        monkeypatch.setattr(np.linalg, name, spy)
    run({"command": command})
    n_frames = DEFAULTS["n_frames"]
    assert calls.count(("svd", n_frames)) == 1
    assert [call for call in calls if call[0] == "lstsq"] == []


def test_every_default_is_read_by_some_suite(default_runs):
    assert all(report.overall for report in default_runs.values())
    # a check reads the tolerance named by its name before ":";
    # test_every_default_has_an_effect covers the DEFAULTS keys
    checks = [c for report in default_runs.values() for c in report.checks]
    assert {c.name.split(":")[0] for c in checks} == set(TOLERANCES)
    assert all(c.tolerance == TOLERANCES[c.name.split(":")[0]]
               for c in checks)


# For each DEFAULTS key but save_design, whose files
# test_environment_records_every_input checks: a cheap suite, and a second
# value of the key that changes the name, value or tolerance of a check.
SECOND_VALUES = {
    "nodes": ("verify-moments", 32),
    "seed": ("verify-coupled-box", 1),
    "max_degree": ("verify-john", 2),
    "n_frames": ("reconstruct", 40),
}


def test_every_default_has_an_effect(default_runs):
    def outcome(report):
        return [(c.name, c.value, c.tolerance) for c in report.checks]

    assert set(SECOND_VALUES) | {"save_design"} == set(DEFAULTS)
    for key, (command, value) in SECOND_VALUES.items():
        default = default_runs[command]
        report = run({"command": command, key: value})
        assert outcome(report) != outcome(default), key


@pytest.mark.parametrize("argv, message", [
    (["verify-selfdual", "--output"], "cannot write report"),
    (["reconstruct", "--max-degree", "2", "--n-frames", "12",
      "--save-design"], "cannot write the design matrix"),
], ids=["output", "save-design"])
def test_writing_to_a_missing_directory_exits_2(tmp_path, capsys,
                                                monkeypatch, argv, message):
    built = []
    design_matrix = inversion.design_matrix
    monkeypatch.setattr(inversion, "design_matrix",
                        lambda *a, **k: built.append(1) or design_matrix(*a, **k))
    assert main(argv + [str(tmp_path / "missing" / "report")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    # the path is refused before the suite builds anything
    assert built == []


@pytest.mark.parametrize("text", ["[1, 2]", "3", '"seed"', "null"])
def test_config_file_that_is_not_an_object_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["verify-selfdual", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: config file must hold a JSON object")


# Edge values of CONFIG_SCHEMA.  The refused ones ended in a traceback, the
# exit code of a failed check, in some suite that reads the key; now every
# suite that reads it refuses them with exit 2.
REFUSED_EDGES = [
    ("--seed", "-1", list(cli.SUITES)),
    ("--max-degree", "3", ["verify-john", "reconstruct", "injectivity"]),
]
# Accepted edges, on cheap suites that read the key, with their exit code.
ACCEPTED_EDGES = [
    ("verify-coupled-box", "--seed", "0", 0),
    ("reconstruct", "--max-degree", "0", 0),
    # Four nodes.  verify-moments still passes, since each node's term
    # satisfies its identity by itself, and so do injectivity and reconstruct.
    # xray_value:deg0 and the weight law see the quadrature error, and
    # penrose finds no frame whose strip is wide enough for four nodes.
    ("verify-john", "--nodes", "4", 1),
    ("verify-weight-law", "--nodes", "4", 1),
    ("penrose-elementary", "--nodes", "4", 2),
]


def test_edge_values_exit_0_1_or_2_and_never_raise(capsys):
    def exit_code(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        if code == 2:
            assert err.startswith("error: ") and out == "", argv
        else:
            assert json.loads(out)["overall"] is (code == 0), argv
        return code

    for flag, value, suites in REFUSED_EDGES:
        for suite in suites:
            assert exit_code([suite, flag, value]) == 2, (suite, flag)
    for suite, flag, value, expected in ACCEPTED_EDGES:
        assert exit_code([suite, flag, value]) == expected, (suite, flag)


# Values above these build large design matrices; the boundary values of
# the schema stay far below them.
LARGE = {"max_degree": 4, "n_frames": 200}


def schema_boundary_values():
    """(key, value, inside) for every bound of CONFIG_SCHEMA: each minimum
    and maximum with its neighbour outside, the neighbours of the first
    multiple of a multipleOf above the minimum, and one non-member of each
    enum.  `inside` says whether the schema accepts the value."""
    cases = []
    for key, spec in CONFIG_SCHEMA["properties"].items():
        integer = spec.get("type") == "integer"

        def beyond(value, direction):
            return (value + direction if integer
                    else math.nextafter(value, direction * math.inf))

        for bound, direction in (("minimum", -1), ("maximum", 1)):
            if bound in spec:
                cases += [(key, spec[bound], True),
                          (key, beyond(spec[bound], direction), False)]
        if "multipleOf" in spec:
            step = spec["multipleOf"]
            multiple = spec.get("minimum", 0) // step * step + step
            cases += [(key, multiple, True), (key, multiple - 1, False),
                      (key, multiple + 1, False)]
        if "enum" in spec:
            cases.append((key, "not " + str(spec["enum"][0]), False))
    return [(key, value, inside) for key, value, inside in cases
            if key not in LARGE or value <= LARGE[key]]


def test_schema_boundary_values_exit_0_1_or_2(tmp_path, capsys):
    cases = schema_boundary_values()
    assert {key for key, _, _ in cases} == {
        "nodes", "seed", "max_degree", "n_frames", "format"}
    path = tmp_path / "config.json"
    for key, value, inside in cases:
        # the cheapest suite that reads the key; every suite reads format
        command = SECOND_VALUES.get(key, ("verify-selfdual",))[0]
        path.write_text(json.dumps({key: value}))
        code = main([command, "--config", str(path)])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (key, value)
        if inside:
            assert "invalid configuration" not in err, (key, value)
        else:
            assert code == 2 and out == "", (key, value)
            assert err.startswith(f"error: invalid configuration: {key}: "), \
                (key, value)


INTEGER_KEYS = [key for key, spec in CONFIG_SCHEMA["properties"].items()
                if spec.get("type") == "integer"]


@pytest.mark.parametrize("key", INTEGER_KEYS)
def test_integral_float_of_an_integer_key_exits_2(tmp_path, capsys, key):
    # JSON Schema's "integer" admits 3.0; the suites need an int, so the
    # float is refused where the int of the same value runs
    value = DEFAULTS[key]
    cli._validate_config(cli._merge_config("verify-selfdual", {key: value}, {}))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: float(value)}))
    command = SECOND_VALUES[key][0]
    assert main([command, "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: invalid configuration: {key}: {float(value)!r} "
                   f"is not of type 'integer'\n")


def test_integer_keys_are_the_schema_integers():
    assert INTEGER_KEYS == ["nodes", "seed", "max_degree", "n_frames"]
