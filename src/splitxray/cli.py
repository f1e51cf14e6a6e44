"""Experiment harness: named verification suites with machine-readable reports.

Each subcommand runs a fixed list of checks against the tolerances pinned
in defaults.TOLERANCES, which no configuration changes, assembles a
Report, and exits 0 when every check passes, 1 on check failure, and 2 on
usage or configuration errors.  Reports are deterministic for a fixed seed
up to the timestamp field.

The suites are the catalogue of checks; the acceptance tests run them at
pinned seeds.

Configuration is a JSON object (see CONFIG_SCHEMA); a --config file is
merged under the command-line flags.  Each schema key `foo_bar` but
`command` is the flag `--foo-bar` of every subcommand, parsed by its schema
type.  Every circle integral of a suite runs on `nodes` quadrature nodes,
and a report's environment records every key of defaults.DEFAULTS at the
value that ran.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from . import fields, geometry, instanton, inversion, operators, penrose, xray
from .defaults import DEFAULTS, TOLERANCES
from .operators import worst_residual
from .poly import Poly4

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "command": {"type": "string"},
        "nodes": {"type": "integer", "minimum": 4},
        # a stencil is a local probe: at most 0.1, below the 0.35 scale of
        # the chart points the suites draw.  From about 1e3 the 1/h^2 of the
        # John stencil lets its check pass vacuously, and from 1e10 the
        # moment and contour stencils raise.  At least 1e-6: there the John
        # stencil's rounding floor eps |phi| / h^2 is already about 1e-3, far
        # above the John tolerance, and below about 1e-17 the stencil points
        # round onto their centre, so that every check reads exactly 0.
        "fd_step": {"type": "number", "minimum": 1e-6, "maximum": 0.1},
        "seed": {"type": "integer", "minimum": 0},
        "max_degree": {"type": "integer", "minimum": 0, "multipleOf": 2},
        "n_frames": {"type": "integer", "minimum": 1},
        "connection": {"type": "string"},
        "state_a": {"type": "array", "minItems": 4, "maxItems": 4,
                    "items": {"type": ["string", "number"]},
                    "description": "comma-separated covector, e.g. '1,0,1j,0'"},
        "state_b": {"type": "array", "minItems": 4, "maxItems": 4,
                    "items": {"type": ["string", "number"]},
                    "description": "comma-separated covector, e.g. '1j,0,1,0'"},
        "save_design": {"type": ["string", "null"],
                        "description": "path prefix for the design matrix CSV "
                                       "+ sidecar"},
        "output": {"type": ["string", "null"],
                   "description": "write the report to this path"},
        "format": {"enum": ["json", "csv"]},
    },
}


class ConfigError(ValueError):
    """Invalid configuration or unsatisfiable precondition; exit code 2."""


@dataclass
class CheckRecord:
    name: str
    value: float
    tolerance: float
    passed: bool


@dataclass
class Report:
    command: str
    checks: list
    environment: dict
    overall: bool
    timestamp: str

    def to_json(self):
        payload = {
            "command": self.command,
            "checks": [asdict(c) for c in self.checks],
            "environment": self.environment,
            "overall": self.overall,
            "timestamp": self.timestamp,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "value", "tolerance", "pass"])
        for c in self.checks:
            writer.writerow([c.name, repr(c.value), repr(c.tolerance),
                             str(c.passed).lower()])
        return buf.getvalue()


def _merge_config(command, file_config, flag_values):
    cfg = dict(DEFAULTS)
    cfg["command"] = command
    cfg["output"] = None
    cfg["format"] = "json"
    for source in (file_config, flag_values):
        for key, value in source.items():
            if value is not None:
                cfg[key] = value
    return cfg


def _is_int(checker, value):
    return isinstance(value, int) and not isinstance(value, bool)


@functools.cache
def _config_validator():
    """A validator for CONFIG_SCHEMA, built on first use.  The schema itself
    is checked against its metaschema by the tests, not on every call.

    JSON Schema's "integer" admits an integral float such as 3.0, which the
    suites cannot use as a seed, degree or count; this validator admits
    only ints, so such a value is refused like any other type error."""
    import jsonschema
    base = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    strict = jsonschema.validators.extend(
        base, type_checker=base.TYPE_CHECKER.redefine("integer", _is_int))
    return strict(CONFIG_SCHEMA)


def _validate_config(cfg):
    from jsonschema.exceptions import best_match
    error = best_match(_config_validator().iter_errors(cfg))
    if error is not None:
        where = "".join(f"{key}: " for key in error.absolute_path)
        raise ConfigError(f"invalid configuration: {where}{error.message}") \
            from error


def _record(name, value):
    tol = TOLERANCES[name.split(":")[0]]
    value = float(value)
    return CheckRecord(name=name, value=value, tolerance=tol,
                       passed=math.isfinite(value) and value <= tol)


def _check_writable(path, what):
    """Refuse a path whose directory is missing or not writable, so that a
    suite stops before its work instead of after it."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ConfigError(f"cannot write {what}: no directory {directory}")
    if not os.access(directory, os.W_OK):
        raise ConfigError(f"cannot write {what}: directory {directory} "
                          f"is not writable")


def _chart_points(rng, count, scale=0.35):
    return [scale * rng.normal(size=(2, 2)) for _ in range(count)]


# ---- suites ----------------------------------------------------------------

def _suite_verify_john(cfg):
    rng = np.random.default_rng(cfg["seed"])
    q = xray.QuadratureSpec(cfg["nodes"])
    checks = []
    for k in range(0, cfg["max_degree"] + 1, 2):
        residuals = []
        for h in fields.harmonic_basis(k):
            phi = xray.xray_chart_field(fields.basis_to_degree_minus_2(h), q)
            residuals += [abs(operators.john_operator(phi, X, cfg["fd_step"]))
                          for X in _chart_points(rng, 10)]
        checks.append(_record(f"john:deg{k}", worst_residual(residuals)))
    return checks


def _suite_verify_weight_law(cfg):
    rng = np.random.default_rng(cfg["seed"])
    q = xray.QuadratureSpec(cfg["nodes"])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    checks = []
    for k in (0, 2):
        basis = fields.harmonic_basis(k)
        residuals = []
        for h in basis[: min(3, len(basis))]:
            f = fields.basis_to_degree_minus_2(h)
            frame = inversion.sample_frames(1, int(rng.integers(2 ** 31)))[0]
            gs = [xray.random_gl2(rng) for _ in range(20)] + [swap]
            residuals += [fields.weight_transform_residual(
                lambda fr: xray.xray_transform(f, fr, q), -1, frame, g)
                for g in gs]
        checks.append(_record(f"weight_law:deg{k}", worst_residual(residuals)))
    return checks


def _suite_verify_equivariance(cfg):
    rng = np.random.default_rng(cfg["seed"])
    q = xray.QuadratureSpec(cfg["nodes"])
    frames = inversion.sample_frames(20, cfg["seed"])
    checks = []
    for k in (0, 2):
        residuals = []
        for h in fields.harmonic_basis(k):
            f = fields.basis_to_degree_minus_2(h)
            residuals += [xray.equivariance_residual(f, xray.random_sl4(rng),
                                                     frames, q)
                          for _ in range(10)]
        checks.append(_record(f"equivariance:deg{k}",
                              worst_residual(residuals)))
    return checks


def _suite_verify_moments(cfg):
    rng = np.random.default_rng(cfg["seed"])
    q = xray.QuadratureSpec(cfg["nodes"])
    checks = []
    for n in (1, 2):
        residuals = []
        for h in fields.harmonic_basis(n):
            f = fields.HomogeneousFunction(h.poly, -2 * n - 2)
            m = xray.moment_chart_field(f, n, q)
            residuals += [operators.dn_residual(m, X, cfg["fd_step"])
                          for X in _chart_points(rng, 5)]
        checks.append(_record(f"moments:n{n}", worst_residual(residuals)))
    return checks


def _instanton_points(rng, count=5, scale=0.8):
    return [scale * rng.normal(size=4) for _ in range(count)]


def _connection(cfg):
    try:
        return instanton.connection_preset(cfg["connection"])
    except ValueError as e:
        raise ConfigError(f"connection: {e}") from e


def _suite_verify_selfdual(cfg):
    rng = np.random.default_rng(cfg["seed"])
    conn = _connection(cfg)
    points = _instanton_points(rng)
    checks = [_record(f"selfdual:{conn.name}",
                      instanton.selfdual_residual(conn, points))]
    residuals = []
    for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        F = np.zeros((4, 4, 1, 1), dtype=complex)
        F[i, j], F[j, i] = 1.0, -1.0
        twice = instanton.hodge_star(instanton.hodge_star(F))
        residuals.append(instanton.two_form_norm(twice - F))
    checks.append(_record("star_involution", worst_residual(residuals)))
    return checks


def _suite_verify_gauge(cfg):
    rng = np.random.default_rng(cfg["seed"])
    conn = _connection(cfg)
    g = instanton.scalar_phase(Poly4.monomial((1, 1, 0, 0)), n=conn.n)
    moved = instanton.gauge_transform(conn, g)
    points = _instanton_points(rng)
    base = instanton.selfdual_residual(conn, points)
    after = instanton.selfdual_residual(moved, points)
    return [_record(f"gauge_invariance:{conn.name}", abs(after - base))]


def _suite_verify_coupled_box(cfg):
    if cfg["connection"] != "flagship-u1":
        raise ConfigError("connection: verify-coupled-box checks a hand value "
                          f"of flagship-u1 only, not {cfg['connection']!r}")
    h = cfg["fd_step"]
    conn = instanton.connection_preset("flagship-u1")
    x0 = np.array([1.0, 0.0, 2.0, 0.0])
    one = lambda x: np.array([1.0 + 0.0j])
    value = operators.coupled_box(conn, one, x0, h)[0]
    checks = [_record("coupled_box:hand-value",
                      abs(value - (-x0[0] ** 2 + x0[2] ** 2)))]

    g = instanton.scalar_phase(Poly4.monomial((1, 1, 0, 0)))
    moved = instanton.gauge_transform(conn, g)
    psi = lambda x: np.array([np.exp(0.3 * x[0]) * np.sin(x[2]) + 0.2 * x[1],
                              ], dtype=complex)
    gpsi = lambda x: g.value(x) @ psi(x)
    rng = np.random.default_rng(cfg["seed"])
    worst = worst_residual(
        np.linalg.norm(operators.coupled_box(moved, gpsi, x, h)
                       - g.value(x) @ operators.coupled_box(conn, psi, x, h))
        for x in _instanton_points(rng, 3))
    checks.append(_record("gauge_covariance", worst))
    return checks


def _parse_covector(entries, key):
    try:
        covector = np.array([complex(str(e).replace(" ", "")) for e in entries])
    except ValueError as e:
        raise ConfigError(f"{key}: cannot parse covector component: {e}") from e
    if not np.all(np.isfinite(covector)):
        raise ConfigError(f"{key}: covector components must be finite")
    if geometry.is_real(covector):
        raise ConfigError(f"{key}: a complex multiple of a real covector "
                          f"vanishes on every real circle")
    return covector


def _strip_floor(cfg, check):
    """Smallest strip half-width d of a frame integrated for `check`: there
    the n-node trapezoid error, about e^(-n d), sits four orders of
    magnitude below the check's tolerance."""
    return math.log(1e4 / TOLERANCES[check]) / cfg["nodes"]


def _wide_strip(state, frame, floor):
    """Pole-safe, with every factor's strip at least `floor` wide."""
    report = penrose.pole_safety(state, frame)
    return report.ok and min(report.half_widths) >= floor


# Smallest |det| of the first 2x2 block of the orthonormal base frame.  The
# block's singular values are at most 1, so its smaller one is then at least
# this, and the chart point chart_from_plane(base) has norm at most its
# inverse, about 3.3: the John stencils stay well inside the chart.
_BASE_CHART_DET_FLOOR = 0.3
# Smallest normalized_pole_margin of the base frame.  The ratio check moves
# each frame vector by 0.1 per coordinate, about 0.2 in norm; a margin above
# that keeps most of the moved frames clear of the poles.
_BASE_MARGIN_FLOOR = 0.3


def _penrose_base_frame(state, rng, ratio_floor, john_floor):
    """A seeded chart-friendly frame with a wide pole margin, sitting in a
    component where the transform is not identically zero (mixed factor
    orientation).  The John check integrates around the chart frame of the
    same plane, plane_from_chart(chart_from_plane(base)), which differs
    from `base` by a 2x2 matrix that can change the strip and flip the
    orientation; both frames are returned."""
    for _ in range(2000):
        fr = inversion.sample_frames(1, int(rng.integers(2 ** 31)))[0]
        if abs(np.linalg.det(fr.rows[:, :2])) < _BASE_CHART_DET_FLOOR:
            continue
        if penrose.normalized_pole_margin(state, fr) < _BASE_MARGIN_FLOOR:
            continue
        if len(set(penrose.factor_orientation(state, fr))) != 2:
            continue
        chart_frame = geometry.plane_from_chart(geometry.chart_from_plane(fr))
        if not (_wide_strip(state, fr, ratio_floor)
                and _wide_strip(state, chart_frame, john_floor)):
            continue
        return fr, chart_frame
    raise ConfigError("no wide-margin pole-safe frame found for this "
                      "elementary state")


def _suite_penrose_elementary(cfg):
    q = xray.QuadratureSpec(cfg["nodes"])
    a = _parse_covector(cfg["state_a"], "state_a")
    b = _parse_covector(cfg["state_b"], "state_b")
    try:
        state = penrose.elementary_state(a, b)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    is_default = (
        np.array_equal(a, _parse_covector(DEFAULTS["state_a"], "state_a"))
        and np.array_equal(b, _parse_covector(DEFAULTS["state_b"], "state_b")))
    rng = np.random.default_rng(cfg["seed"])
    ratio_floor = _strip_floor(cfg, "penrose_ratio_spread")
    john_floor = _strip_floor(cfg, "penrose_john")

    checks = []
    if is_default:
        # closed-form anchor: this state integrates to -2 pi i on (e1, e3),
        # whose circle passes at distance 1 from its poles
        frame = geometry.Frame(np.array([1.0, 0, 0, 0]), np.array([0.0, 0, 1, 0]))
        value = penrose.contour_transform(state, frame, q)
        checks.append(_record("penrose_value", abs(value - (-2j * np.pi))))

    base, chart_frame = _penrose_base_frame(state, rng, ratio_floor,
                                            john_floor)
    signature = penrose.factor_orientation(state, base)

    # ratio constancy holds per component; stay in the component of `base`
    ratios = []
    attempts = 0
    while len(ratios) < 10:
        attempts += 1
        if attempts > 2000:
            raise ConfigError("pole-safe component around the base frame is "
                              "too small for the ratio check")
        fr = geometry.Frame(base.u + 0.1 * rng.normal(size=4),
                            base.v + 0.1 * rng.normal(size=4))
        if not _wide_strip(state, fr, ratio_floor):
            continue
        if penrose.factor_orientation(state, fr) != signature:
            continue
        ratios.append(penrose.contour_transform(state, fr, q)
                      * penrose.wedge_pairing(a, b, fr))
    ratios = np.array(ratios)
    spread = float(np.max(np.abs(ratios - np.mean(ratios)))
                   / max(abs(np.mean(ratios)), 1e-30))
    checks.append(_record("penrose_ratio_spread", spread))

    X0 = np.asarray(geometry.chart_from_plane(base))
    chart_signature = penrose.factor_orientation(state, chart_frame)
    phi = penrose.contour_chart_field(state, q)
    residuals = []
    tried = 0
    for dX in _chart_points(rng, 40, scale=0.05):
        if tried == 5:
            break
        X = X0 + dX
        fr = geometry.plane_from_chart(X)
        if not _wide_strip(state, fr, john_floor):
            continue
        if penrose.factor_orientation(state, fr) != chart_signature:
            continue
        residuals.append(abs(operators.john_operator(phi, X, cfg["fd_step"])))
        tried += 1
    if tried == 0:
        raise ConfigError("no pole-safe chart neighborhood for the John check")
    checks.append(_record("penrose_john", worst_residual(residuals)))
    return checks


def _suite_geometry_roundtrip(cfg):
    rng = np.random.default_rng(cfg["seed"])
    roundtrip = []
    worst_orient = 0.0
    for _ in range(100):
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        z = z / np.linalg.norm(z)
        if geometry.is_real(z, 1e-6):
            continue
        # [z] lies in the complexified plane pi(z), and pi([z]) does not
        # depend on the representative
        plane = geometry.pi_project(z)
        roundtrip.append(geometry.incidence_residual(z, plane))
        lam = rng.normal() + 1j * rng.normal()
        scaled = geometry.pi_project(lam * z)
        roundtrip.append(geometry.plane_distance(plane, scaled))
        sign = plane.orientation_sign(scaled)
        conj_sign = plane.orientation_sign(geometry.pi_project(z.conj()))
        if sign < 0 or conj_sign > 0:
            worst_orient = 1.0
    return [_record("geometry_roundtrip", worst_residual(roundtrip)),
            _record("geometry_roundtrip:orientation", worst_orient)]


def _suite_reconstruct(cfg):
    if cfg["save_design"]:
        _check_writable(cfg["save_design"], "the design matrix")
    q = xray.QuadratureSpec(cfg["nodes"])
    basis = inversion.transform_basis(cfg["max_degree"])
    if cfg["n_frames"] < len(basis):
        raise ConfigError(
            f"reconstruction at max_degree {cfg['max_degree']} needs at "
            f"least {len(basis)} frames, got {cfg['n_frames']}")
    frames = inversion.sample_frames(cfg["n_frames"], cfg["seed"])
    d = inversion.design_matrix(basis, frames, q, seed=cfg["seed"])
    if cfg["save_design"]:
        try:
            inversion.save_design_matrix(d, cfg["save_design"])
        except OSError as e:
            raise ConfigError(f"cannot write the design matrix: {e}") from e
    rng = np.random.default_rng(cfg["seed"] + 1)
    errors = []
    for _ in range(3):
        c = rng.normal(size=len(basis))
        samples = d.matrix @ c
        report = inversion.reconstruct(samples, d, true_coefficients=c)
        errors.append(report.relative_coefficient_error)
    return [_record("reconstruction", worst_residual(errors))]


def _suite_injectivity(cfg):
    q = xray.QuadratureSpec(cfg["nodes"])
    try:
        report = inversion.injectivity_report(cfg["max_degree"], cfg["n_frames"],
                                              cfg["seed"], q)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return [_record("rank_defect", float(report.dimension - report.rank))]


SUITES = {
    "verify-john": _suite_verify_john,
    "verify-weight-law": _suite_verify_weight_law,
    "verify-equivariance": _suite_verify_equivariance,
    "verify-moments": _suite_verify_moments,
    "verify-selfdual": _suite_verify_selfdual,
    "verify-gauge": _suite_verify_gauge,
    "verify-coupled-box": _suite_verify_coupled_box,
    "penrose-elementary": _suite_penrose_elementary,
    "geometry-roundtrip": _suite_geometry_roundtrip,
    "reconstruct": _suite_reconstruct,
    "injectivity": _suite_injectivity,
}


def run(config) -> Report:
    """Run one suite from a configuration dict; absent keys take DEFAULTS."""
    cfg = _merge_config(config.get("command"), config, {})
    _validate_config(cfg)
    return _run_merged(cfg)


def _run_merged(cfg) -> Report:
    """Run one suite from a merged and validated configuration."""
    command = cfg.get("command")
    if command not in SUITES:
        raise ConfigError(f"unknown command {command!r}")
    checks = SUITES[command](cfg)
    return Report(command=command, checks=checks,
                  environment={k: cfg[k] for k in DEFAULTS},
                  overall=all(c.passed for c in checks),
                  timestamp=datetime.now(timezone.utc).isoformat())


# How a flag's text becomes a value of its schema type; other flags are text.
_FLAG_TYPES = {"integer": int, "number": float,
               "array": lambda text: text.split(",")}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="splitxray",
        description="verification suites for the circle transform laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUITES:
        p = sub.add_parser(name, help=f"run the {name} suite")
        p.add_argument("--config", help="JSON config file merged under flags")
        for key, spec in CONFIG_SCHEMA["properties"].items():
            if key == "command":
                continue
            kind = spec.get("type")
            kind = kind[0] if isinstance(kind, list) else kind
            p.add_argument("--" + key.replace("_", "-"),
                           type=_FLAG_TYPES.get(kind, str),
                           choices=spec.get("enum"),
                           help=spec.get("description"))
    return parser


def main(argv=None):
    flags = vars(_build_parser().parse_args(argv))
    config_path = flags.pop("config")

    file_config = {}
    if config_path:
        try:
            with open(config_path) as fh:
                file_config = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: cannot read config: {e}", file=sys.stderr)
            return 2
        if not isinstance(file_config, dict):
            print(f"error: config file must hold a JSON object, not "
                  f"{json.dumps(file_config)[:40]}", file=sys.stderr)
            return 2

    cfg = _merge_config(flags["command"], file_config, flags)
    try:
        _validate_config(cfg)
        if cfg["output"]:
            _check_writable(cfg["output"], "report")
        report = _run_merged(cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    text = report.to_json() if cfg["format"] == "json" else report.to_csv()
    if cfg["output"]:
        try:
            with open(cfg["output"], "w") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write report: {e}", file=sys.stderr)
            return 2
    print(text, end="")

    if report.overall:
        return 0
    failing = [c.name for c in report.checks if not c.passed]
    print(f"FAILED checks: {', '.join(failing)}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
