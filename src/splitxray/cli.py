"""Experiment harness: named verification suites with machine-readable reports.

Each subcommand runs a fixed list of checks against the tolerances pinned
in defaults.TOLERANCES, which no configuration changes, assembles a
Report, and exits 0 when every check passes, 1 on check failure, and 2 on
usage or configuration errors.  Reports are deterministic for a fixed seed
up to the timestamp field.

The suites are the only catalogue of checks: the acceptance tests run
them at pinned seeds and compute no check of their own.

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
        "seed": {"type": "integer", "minimum": 0},
        "max_degree": {"type": "integer", "minimum": 0, "multipleOf": 2},
        "n_frames": {"type": "integer", "minimum": 1},
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
        """The report as strict JSON: a non-finite check value is written
        as the string "inf", "-inf" or "nan", its spelling in the CSV."""
        checks = [asdict(c) for c in self.checks]
        for c in checks:
            if not math.isfinite(c["value"]):
                c["value"] = repr(c["value"])
        payload = {
            "command": self.command,
            "checks": checks,
            "environment": self.environment,
            "overall": self.overall,
            "timestamp": self.timestamp,
        }
        return json.dumps(payload, indent=2, sort_keys=True,
                          allow_nan=False) + "\n"

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


def _john_anchor(points):
    """Worst distance of the John operator of X11 X22 from 1 at the chart
    points: this pins the operator's scale, which residuals of solutions,
    all near 0, cannot see."""
    anchor = lambda X: X[..., 0, 0] * X[..., 1, 1]
    return worst_residual(abs(operators.john_operator(anchor, X) - 1.0)
                          for X in points)


def _basis_dimension(cfg, size):
    """The basis_dimension check, |size - sum over even k <= max_degree of
    (k+1)^2|: a basis of another size spans another space, on which
    rank_defect and reconstruction can pass as well."""
    return _record("basis_dimension", abs(size - sum(
        (k + 1) ** 2 for k in range(0, cfg["max_degree"] + 1, 2))))


# ---- suites ----------------------------------------------------------------

def _diagonal_witness(X):
    """A non-solution of John's equation: its John operator is
    2 - 0.4 exp(0.4 X11) sin(X22), far from 0 near the origin."""
    return (np.exp(0.4 * X[..., 0, 0]) * np.cos(X[..., 1, 1])
            + X[..., 0, 1] ** 3 - 2.0 * X[..., 0, 1] * X[..., 1, 0]
            + X[..., 1, 0] ** 2)


def _suite_verify_john(cfg):
    rng = np.random.default_rng(cfg["seed"])
    q = xray.QuadratureSpec(cfg["nodes"])
    checks = []
    for k in range(0, cfg["max_degree"] + 1, 2):
        residuals = []
        for h in fields.harmonic_basis(k):
            phi = xray.xray_chart_field(fields.basis_to_degree_minus_2(h), q)
            if k == 0:
                phi0 = phi
            residuals += [abs(operators.john_operator(phi, X))
                          for X in _chart_points(rng, 10)]
        checks.append(_record(f"john:deg{k}", worst_residual(residuals)))
    checks.append(_record("john:anchor",
                          _john_anchor(_chart_points(rng, 5))))

    # phi0 is the transform of |x|^-2, 2 pi / sqrt(det Gram): a value, which
    # sees the quadrature error that no residual of a solution sees
    points = np.array(_chart_points(rng, 20, scale=0.5))
    rows = geometry.chart_frame_rows(points)
    gram = np.linalg.det(rows @ rows.swapaxes(-1, -2))
    checks.append(_record("xray_value:deg0", worst_residual(
        np.abs(phi0(points) - 2 * np.pi / np.sqrt(gram)))))

    # John's operator is a quarter of box_diag, another stencil, in the
    # diagonal coordinates
    pulled_back = lambda x: _diagonal_witness(operators.diag_to_chart(x))
    checks.append(_record("john:diagonal", worst_residual(
        abs(operators.john_operator(_diagonal_witness, X)
            - 0.25 * operators.box_diag(pulled_back,
                                        operators.chart_to_diag(X)))
        for X in _chart_points(rng, 10, scale=0.6))))
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
            residuals += [operators.dn_residual(m, X)
                          for X in _chart_points(rng, 5)]
        checks.append(_record(f"moments:n{n}", worst_residual(residuals)))
    return checks


def _instanton_points(rng, count=5, scale=0.8):
    return [scale * rng.normal(size=4) for _ in range(count)]


def _suite_verify_selfdual(cfg):
    rng = np.random.default_rng(cfg["seed"])
    conn = instanton.connection_preset("flagship-u1")
    points = _instanton_points(rng)
    checks = [_record(f"selfdual:{conn.name}",
                      instanton.selfdual_residual(conn, points))]
    # controls with closed-form norms ||*F - F||: the constant su(2)
    # connection (E, F, 0, 0) has F12 = [E, F] = H, from the commutator
    # alone, and asd-u1 is anti-self-dual with F = -*F
    for name, norm in (("su2-constant", 2.0), ("asd-u1", 2.0 * math.sqrt(2))):
        control = instanton.connection_preset(name)
        checks.append(_record(f"selfdual:{name}-anchor", abs(
            instanton.selfdual_residual(control, points) - norm)))
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
    conn = instanton.connection_preset("flagship-u1")
    g = instanton.scalar_phase(Poly4.monomial((1, 1, 0, 0)), n=conn.n)
    moved = instanton.gauge_transform(conn, g)
    points = _instanton_points(rng)
    base = instanton.selfdual_residual(conn, points)
    after = instanton.selfdual_residual(moved, points)
    return [_record(f"gauge_invariance:{conn.name}", abs(after - base))]


def _suite_verify_coupled_box(cfg):
    conn = instanton.connection_preset("flagship-u1")
    x0 = np.array([1.0, 0.0, 2.0, 0.0])
    one = lambda x: np.array([1.0 + 0.0j])
    value = operators.coupled_box(conn, one, x0)[0]
    checks = [_record("coupled_box:hand-value",
                      abs(value - (-x0[0] ** 2 + x0[2] ** 2)))]

    g = instanton.scalar_phase(Poly4.monomial((1, 1, 0, 0)))
    moved = instanton.gauge_transform(conn, g)
    psi = lambda x: np.array([np.exp(0.3 * x[0]) * np.sin(x[2]) + 0.2 * x[1],
                              ], dtype=complex)
    gpsi = lambda x: g.value(x) @ psi(x)
    rng = np.random.default_rng(cfg["seed"])
    worst = worst_residual(
        np.linalg.norm(operators.coupled_box(moved, gpsi, x)
                       - g.value(x) @ operators.coupled_box(conn, psi, x))
        for x in _instanton_points(rng, 3))
    checks.append(_record("gauge_covariance", worst))
    return checks


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
    raise ConfigError("no wide-margin pole-safe frame found for the "
                      "generic elementary state")


# The elementary states 1/((A.Z)(B.Z)) of penrose-elementary, as (A, B).
# The anchor state integrates to -2 pi i on (e1, e3), whose circle passes at
# distance 1 from its poles.  Its chart field depends on X11 and X21 only,
# so both mixed partials of the John operator vanish on it; the ratio and
# John checks run on the generic state instead, where they can fail.
_ANCHOR_STATE = (np.array([1, 0, 1j, 0]), np.array([1j, 0, 1, 0]))
_GENERIC_STATE = (np.array([1, 0.3, 1j, 0.2 - 0.5j]),
                  np.array([1j, 0.7, 1, -0.4 + 0.1j]))


def _suite_penrose_elementary(cfg):
    q = xray.QuadratureSpec(cfg["nodes"])
    frame = geometry.Frame(np.array([1.0, 0, 0, 0]), np.array([0.0, 0, 1, 0]))
    value = penrose.contour_transform(
        penrose.elementary_state(*_ANCHOR_STATE), frame, q)
    checks = [_record("penrose_value", abs(value - (-2j * np.pi)))]

    state = penrose.elementary_state(*_GENERIC_STATE)
    rng = np.random.default_rng(cfg["seed"])
    ratio_floor = _strip_floor(cfg, "penrose_ratio_spread")
    john_floor = _strip_floor(cfg, "penrose_john")
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
                      * penrose.wedge_pairing(*_GENERIC_STATE, fr))
    ratios = np.array(ratios)
    spread = float(np.max(np.abs(ratios - np.mean(ratios)))
                   / max(abs(np.mean(ratios)), 1e-30))
    checks.append(_record("penrose_ratio_spread", spread))

    X0 = np.asarray(geometry.chart_from_plane(base))
    chart_signature = penrose.factor_orientation(state, chart_frame)
    phi = penrose.contour_chart_field(state, q)
    points = []
    for dX in _chart_points(rng, 40, scale=0.05):
        if len(points) == 5:
            break
        X = X0 + dX
        fr = geometry.plane_from_chart(X)
        if not _wide_strip(state, fr, john_floor):
            continue
        if penrose.factor_orientation(state, fr) != chart_signature:
            continue
        points.append(X)
    if not points:
        raise ConfigError("no pole-safe chart neighborhood for the John check")
    checks.append(_record("penrose_john", worst_residual(
        abs(operators.john_operator(phi, X)) for X in points)))
    checks.append(_record("penrose_john:anchor", _john_anchor(points)))
    return checks


def _suite_geometry_roundtrip(cfg):
    rng = np.random.default_rng(cfg["seed"])
    roundtrip = []
    klein = []
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
        # every plane's Pluecker vector lies on the Klein quadric
        klein.append(geometry.quadric_residual(geometry.plucker_embed(plane)))
    return [_record("geometry_roundtrip", worst_residual(roundtrip)),
            _record("geometry_roundtrip:orientation", worst_orient),
            _record("geometry_roundtrip:klein_quadric", worst_residual(klein))]


def _sampled(build, cfg):
    """build(max_degree, n_frames, seed, q) at the configuration; a refused
    precondition exits 2."""
    try:
        return build(cfg["max_degree"], cfg["n_frames"], cfg["seed"],
                     xray.QuadratureSpec(cfg["nodes"]))
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _suite_reconstruct(cfg):
    if cfg["save_design"]:
        _check_writable(cfg["save_design"], "the design matrix")
    d = _sampled(inversion.sampled_design, cfg)
    if cfg["save_design"]:
        try:
            inversion.save_design_matrix(d, cfg["save_design"])
        except OSError as e:
            raise ConfigError(f"cannot write the design matrix: {e}") from e
    rng = np.random.default_rng(cfg["seed"] + 1)
    c = rng.normal(size=(3, d.shape[1]))
    # the anchor solves for c1 + delta against the truth c1, so it must
    # report the planted relative error |delta| / |c1|
    delta = 1e-3 * rng.normal(size=d.shape[1])
    planted = np.linalg.norm(delta) / np.linalg.norm(c[0])
    samples = d.matrix @ np.vstack([c, c[0] + delta]).T
    try:
        errors = inversion.reconstruct(
            samples, d, np.vstack([c, c[0]]).T).relative_coefficient_error
    except inversion.RankDeficientError:
        errors = np.full(4, math.inf)
    return [_basis_dimension(cfg, d.shape[1]),
            _record("reconstruction", worst_residual(errors[:3])),
            _record("reconstruction:anchor",
                    abs(errors[3] - planted) / planted)]


def _suite_injectivity(cfg):
    report = _sampled(inversion.injectivity_report, cfg)
    return [_basis_dimension(cfg, report.dimension),
            _record("rank_defect", float(report.dimension - report.rank))]


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
            # an integer key's flag parses its text; every other flag is text
            p.add_argument("--" + key.replace("_", "-"),
                           type=int if spec.get("type") == "integer" else str,
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
