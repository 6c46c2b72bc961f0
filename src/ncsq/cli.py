"""Command-line front end.

Every subcommand prints a JSON report to stdout (or ``--out``), so runs
can be archived and diffed.  Single-result commands emit one JSON
object; multi-row commands emit line-delimited JSON, one header line
followed by one line per row.  When ``--out`` ends in ``.csv`` the rows
are written as CSV instead, with floats at 17 significant digits so the
values round-trip identically to the JSON ones.

Exit codes: 0 on success, 1 when a requested check fails, 2 on bad
arguments or values the engine refuses to work with.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import __version__, analytic, fock, verifier
from .analytic import ModeAmplitudes, SqueezeParam
from .params import ConstraintClass, NcParams, NonFinite, NonPositiveParameter, make_params

MAX_GRID_POINTS = 10_000_000

DEFAULT_CUTOFF = 40
DEFAULT_SAMPLES = 1_000_000
DEFAULT_SEED = 42

_SWEEP_VARIABLES = ("r", "phi", "theta", "mu", "nu")

# Probe pairs used by `overcompleteness` when no amplitudes are given.
_DEFAULT_PROBES: Tuple[Tuple[Tuple[complex, complex], Tuple[complex, complex]], ...] = (
    ((0.0, 0.0), (0.0, 0.0)),
    ((1.0, 0.0), (0.0, 1.0)),
    ((0.7, 0.2j), (0.7, 0.2j)),
    ((0.5, 0.5), (-0.5, 0.3j)),
    ((1.0, 0.0), (1.0, 0.0)),
)


class GridTooLarge(ValueError):
    """A sweep grid would exceed the supported number of points."""


class _UsageError(Exception):
    """Bad command line; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


@dataclass(frozen=True)
class SweepSpec:
    """A one-variable grid over an analytic quantity.

    ``fixed`` holds the parameters that stay constant: mu, nu, hbar and,
    when the swept variable is not one of them, the squeeze magnitude
    ``r`` and phase ``phi``.
    """

    variable: str
    start: float
    stop: float
    step: float
    fixed: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.variable not in _SWEEP_VARIABLES:
            raise _UsageError(
                "sweep variable must be one of %s, got %r"
                % (", ".join(_SWEEP_VARIABLES), self.variable)
            )
        for name in ("start", "stop", "step"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise _UsageError("sweep %s must be finite" % name)
        if self.step <= 0.0:
            raise _UsageError("sweep step must be positive")
        if self.stop < self.start:
            raise _UsageError("sweep stop must not precede start")
        if self.point_count() > MAX_GRID_POINTS:
            raise GridTooLarge(
                "sweep grid has %d points, limit is %d"
                % (self.point_count(), MAX_GRID_POINTS)
            )

    def point_count(self) -> int:
        span = self.stop - self.start
        return int(math.floor(span / self.step + 1e-9)) + 1

    def grid(self) -> List[float]:
        return [self.start + i * self.step for i in range(self.point_count())]


@dataclass(frozen=True)
class RunReport:
    """Result of one CLI invocation, ready for serialization.

    Rows are pure functions of the command arguments (plus ``seed`` for
    stochastic commands), so re-running reproduces them exactly.
    """

    command: str
    params: Dict[str, float]
    rows: List[Dict[str, object]]
    seed: Optional[int] = None
    single: bool = False

    def header(self) -> Dict[str, object]:
        head: Dict[str, object] = {
            "schema": 1,
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "command": self.command,
            "params": self.params,
        }
        if self.seed is not None:
            head["seed"] = self.seed
        return head


def parse_complex(text: str) -> complex:
    """Parse an amplitude literal like ``0.5``, ``0.5+0.2i`` or ``-1i``."""

    cleaned = text.strip()
    if not cleaned or any(ch.isspace() for ch in cleaned):
        raise _UsageError("bad complex literal %r" % text)
    try:
        return complex(cleaned.replace("i", "j").replace("I", "j"))
    except ValueError:
        raise _UsageError("bad complex literal %r" % text) from None


def format_complex(value: complex) -> str:
    return "%.17g%+.17gi" % (value.real, value.imag)


def _params_from(ns: argparse.Namespace) -> NcParams:
    if getattr(ns, "natural", False):
        return make_params(1.0, 1.0, 1.0)
    return make_params(ns.mu, ns.nu, ns.hbar)


def _squeeze_from(ns: argparse.Namespace) -> Optional[SqueezeParam]:
    if ns.r is None and ns.phi is None:
        return None
    return SqueezeParam(ns.r if ns.r is not None else 0.0,
                        ns.phi if ns.phi is not None else 0.0)


def _params_echo(params: NcParams) -> Dict[str, float]:
    return {
        "mu": params.mu,
        "nu": params.nu,
        "hbar": params.hbar,
        "theta": params.theta,
    }


def _variance_row(params: NcParams, z: Optional[SqueezeParam]) -> Dict[str, object]:
    rep = analytic.single_mode_report(params, z)
    row: Dict[str, object] = {
        "dx2": rep.dx2,
        "dy2": rep.dy2,
        "dpx2": rep.dpx2,
        "dpy2": rep.dpy2,
        "gain_x": rep.gain_x,
        "gain_px": rep.gain_px,
        "squeezed_x": rep.squeezed_x,
        "squeezed_px": rep.squeezed_px,
        "prod_xpx": rep.prod_xpx,
        "prod_ypy": rep.prod_ypy,
        "prod_xy": rep.prod_xy,
        "prod_pxpy": rep.prod_pxpy,
        "min_xpx": rep.min_xpx,
        "min_xy": rep.min_xy,
        "min_pxpy": rep.min_pxpy,
        # where the minima sit, for every (theta, r)
        "argmin_phi": 0.5 * math.pi,
        "dX2": rep.dX2,
        "dP2": rep.dP2,
        "prod_XP": rep.prod_XP,
        "min_XP": rep.min_XP,
        "argmin_phi_XP": 0.0,
    }
    for name, bound in rep.bounds.items():
        row["bound_%s_satisfied" % name] = bound.satisfied
        row["bound_%s_saturated" % name] = bound.saturated
    return row


def sweep(spec: SweepSpec, quantity: str) -> RunReport:
    """Evaluate one analytic quantity over a grid of one variable.

    Rows carry the swept value, the quantity, both single-mode variance
    gains, and strict ``gain < 1`` squeezing flags, in grid order.
    """

    fixed = dict(spec.fixed)
    hbar = float(fixed.get("hbar", 1.0))

    def one(value: float) -> Dict[str, object]:
        mu = float(fixed.get("mu", 1.0))
        nu = float(fixed.get("nu", 1.0))
        r = float(fixed.get("r", 0.0))
        phi = float(fixed.get("phi", 0.0))
        if spec.variable == "r":
            r = value
        elif spec.variable == "phi":
            phi = value
        elif spec.variable == "mu":
            mu = value
        elif spec.variable == "nu":
            nu = value
        else:
            # theta grid point; tiny stand-ins keep mu, nu positive while
            # sqrt(mu*nu) underflows to an exact zero at value == 0.
            mu = nu = (value * hbar) if value > 0.0 else 1e-200
        params = make_params(mu, nu, hbar)
        z = SqueezeParam(r, phi) if r != 0.0 else None
        full = _variance_row(params, z)
        gain_x = float(full["gain_x"])  # type: ignore[arg-type]
        gain_px = float(full["gain_px"])  # type: ignore[arg-type]
        if quantity not in full:
            raise _UsageError("unknown sweep quantity %r" % quantity)
        return {
            spec.variable: value,
            quantity: full[quantity],
            "gain_x": gain_x,
            "gain_px": gain_px,
            "squeezed_x": gain_x < 1.0,
            "squeezed_px": gain_px < 1.0,
        }

    rows = [one(v) for v in spec.grid()]
    echo = {"mu": fixed.get("mu"), "nu": fixed.get("nu"), "hbar": hbar,
            "variable": spec.variable, "start": spec.start,
            "stop": spec.stop, "step": spec.step}
    return RunReport(command="sweep", params=echo, rows=rows)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_params(ns: argparse.Namespace) -> Tuple[RunReport, bool]:
    params = _params_from(ns)
    row: Dict[str, object] = {
        "mu": params.mu,
        "nu": params.nu,
        "hbar": params.hbar,
        "theta": params.theta,
        "kappa": params.kappa,
        "lambda_denom": params.lambda_denom,
        "constraint_class": params.constraint_class.value,
    }
    report = RunReport(command="params", params=_params_echo(params),
                       rows=[row], single=True)
    return report, False


def _cmd_variance(ns: argparse.Namespace) -> Tuple[RunReport, bool]:
    params = _params_from(ns)
    z = _squeeze_from(ns)
    row = _variance_row(params, z)
    if z is not None:
        row["r"] = z.r
        row["phi"] = z.phi
    report = RunReport(command="variance", params=_params_echo(params),
                       rows=[row], single=True)
    return report, False


def _cmd_overlap(ns: argparse.Namespace) -> Tuple[RunReport, bool]:
    params = _params_from(ns)
    z = _squeeze_from(ns)
    bra = ModeAmplitudes(ns.alpha2, ns.beta2)
    ket = ModeAmplitudes(ns.alpha, ns.beta)
    if z is None:
        value = analytic.coherent_overlap(params, bra, ket)
    else:
        value = analytic.squeezed_overlap(params, bra, ket, z)
    row: Dict[str, object] = {
        "bra_alpha": format_complex(bra.alpha),
        "bra_beta": format_complex(bra.beta),
        "ket_alpha": format_complex(ket.alpha),
        "ket_beta": format_complex(ket.beta),
        "overlap_re": value.real,
        "overlap_im": value.imag,
        "overlap_abs": abs(value),
    }
    if z is not None:
        row["r"] = z.r
        row["phi"] = z.phi
    report = RunReport(command="overlap", params=_params_echo(params),
                       rows=[row], single=True)
    return report, False


def _cmd_bogoliubov(ns: argparse.Namespace) -> Tuple[RunReport, bool]:
    params = _params_from(ns)
    z = SqueezeParam(ns.r, ns.phi)
    coeffs = analytic.bogoliubov_coefficients(params, z)
    row: Dict[str, object] = {"r": z.r, "phi": z.phi}
    for mode, tr in (("a", coeffs.mode_a), ("b", coeffs.mode_b)):
        for part, value in (("c_a", tr.c_a), ("c_b", tr.c_b),
                            ("c_bdag", tr.c_bdag), ("c_adag", tr.c_adag)):
            row["%s_%s_re" % (mode, part)] = value.real
            row["%s_%s_im" % (mode, part)] = value.imag
    report = RunReport(command="bogoliubov", params=_params_echo(params),
                       rows=[row], single=True)
    return report, False


def _residual_rows(reports: Sequence[verifier.ResidualReport]) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for rep in reports:
        row: Dict[str, object] = {
            "check_id": rep.check_id,
            "residual": rep.residual,
            "tolerance": rep.tolerance,
            "passed": rep.passed,
        }
        if rep.metadata:
            row["metadata"] = dict(rep.metadata)
        rows.append(row)
    return rows


def _cmd_check(ns: argparse.Namespace) -> Tuple[RunReport, bool]:
    params = _params_from(ns)
    z = SqueezeParam(ns.r, ns.phi)
    amps = ModeAmplitudes(ns.alpha, ns.beta)
    if params.constraint_class is not ConstraintClass.SUB_CRITICAL:
        # The matrix engine refuses these parameters, so report what the
        # closed forms say instead and flag the run as failed.
        rows: List[Dict[str, object]] = [{
            "check_id": "engine",
            "error": "SaturatedOrSuperCritical: no number-basis realization "
                     "at or beyond the critical deformation",
            "passed": False,
        }]
        witness = verifier.supercritical_witness(params, r=z.r if z.r > 0 else 0.3)
        bound_z = SqueezeParam(witness.r, witness.phi)
        for name, bound in analytic.single_mode_report(params, bound_z).bounds.items():
            rows.append({
                "check_id": "analytic_bound_%s" % name,
                "lhs": bound.lhs,
                "rhs": bound.rhs,
                "satisfied": bound.satisfied,
                "saturated": bound.saturated,
                "passed": bound.satisfied,
            })
        rows.append({
            "check_id": "supercritical_witness",
            "r": witness.r,
            "phi": witness.phi,
            "product": witness.product,
            "floor": witness.floor,
            "violated": witness.violated,
            "passed": False,
        })
        report = RunReport(command="check", params=_params_echo(params), rows=rows)
        return report, True
    space = fock.make_space(ns.cutoff)
    fock.check_buffer(space, ns.buffer)
    ops = fock.build_operator_set(params, space)
    reports = list(verifier.identity_suite(params, space, amps, z, buffer=ns.buffer, ops=ops))
    reports += verifier.crosscheck_suite(params, space, [(amps, z)], buffer=ns.buffer, ops=ops)
    rows = _residual_rows(reports)
    failed = any(not rep.passed for rep in reports)
    report = RunReport(command="check", params=_params_echo(params), rows=rows)
    return report, failed


def _cmd_overcompleteness(ns: argparse.Namespace) -> Tuple[RunReport, bool]:
    params = _params_from(ns)
    z = _squeeze_from(ns)
    explicit = [ns.alpha, ns.beta, ns.alpha2, ns.beta2]
    if any(v is not None for v in explicit):
        pair = (
            ModeAmplitudes(ns.alpha if ns.alpha is not None else 0.0,
                           ns.beta if ns.beta is not None else 0.0),
            ModeAmplitudes(ns.alpha2 if ns.alpha2 is not None else 0.0,
                           ns.beta2 if ns.beta2 is not None else 0.0),
        )
        probes = [pair]
    else:
        probes = [(ModeAmplitudes(*lhs), ModeAmplitudes(*rhs))
                  for lhs, rhs in _DEFAULT_PROBES]
    reports = verifier.overcompleteness_mc(params, probes, ns.samples, ns.seed, z)
    rows: List[Dict[str, object]] = []
    for idx, (probe, rep) in enumerate(zip(probes, reports)):
        rows.append({
            "probe": idx,
            "psi1_alpha": format_complex(probe[0].alpha),
            "psi1_beta": format_complex(probe[0].beta),
            "psi2_alpha": format_complex(probe[1].alpha),
            "psi2_beta": format_complex(probe[1].beta),
            "estimate_re": rep.estimate.real,
            "estimate_im": rep.estimate.imag,
            "reference_re": rep.reference.real,
            "reference_im": rep.reference.imag,
            "stderr": rep.stderr,
            "z_score": rep.z_score,
            "ess": rep.ess,
            "samples": rep.samples,
            "seed": rep.seed,
            "passed": rep.passed,
        })
    failed = any(not rep.passed for rep in reports)
    report = RunReport(command="overcompleteness", params=_params_echo(params),
                       rows=rows, seed=ns.seed)
    return report, failed


def _cmd_sweep(ns: argparse.Namespace) -> Tuple[RunReport, bool]:
    fixed: Dict[str, float] = {
        "mu": ns.mu,
        "nu": ns.nu,
        "hbar": 1.0 if ns.natural else ns.hbar,
    }
    if ns.natural:
        fixed["mu"] = fixed["nu"] = 1.0
    if ns.r is not None:
        fixed["r"] = ns.r
    if ns.phi is not None:
        fixed["phi"] = ns.phi
    spec = SweepSpec(variable=ns.variable, start=ns.start, stop=ns.stop,
                     step=ns.step, fixed=fixed)
    report = sweep(spec, ns.quantity)
    return report, False


def _cmd_oscillator(ns: argparse.Namespace) -> Tuple[RunReport, bool]:
    params = _params_from(ns)
    osc = analytic.OscillatorParams(ns.m, ns.omega)
    check = analytic.oscillator_consistency(osc, params)
    row: Dict[str, object] = {
        "mass": osc.mass,
        "omega": osc.omega,
        "lhs": check.lhs,
        "rhs": check.rhs,
        "consistent": check.consistent,
    }
    report = RunReport(command="oscillator", params=_params_echo(params),
                       rows=[row], single=True)
    return report, not check.consistent


# ---------------------------------------------------------------------------
# argument plumbing


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mu", type=float, default=1.0,
                     help="coordinate-pair deformation scale (default 1)")
    sub.add_argument("--nu", type=float, default=1.0,
                     help="momentum-pair deformation scale (default 1)")
    sub.add_argument("--hbar", type=float, default=1.0,
                     help="action scale (default 1)")
    sub.add_argument("--natural", action="store_true",
                     help="force hbar = mu = nu = 1")


def _add_squeeze_flags(sub: argparse.ArgumentParser, *, required_default: bool,
                       default_r: float = 0.0, default_phi: float = 0.0) -> None:
    if required_default:
        sub.add_argument("--r", type=float, default=default_r,
                         help="squeeze magnitude (default %g)" % default_r)
        sub.add_argument("--phi", type=float, default=default_phi,
                         help="squeeze phase in radians (default %g)" % default_phi)
    else:
        sub.add_argument("--r", type=float, default=None,
                         help="squeeze magnitude (omit for a coherent state)")
        sub.add_argument("--phi", type=float, default=None,
                         help="squeeze phase in radians")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ncsq", allow_abbrev=False,
                     description="Deformed squeezed-state calculator for a "
                                 "noncommuting phase-plane pair.")
    subs = parser.add_subparsers(dest="command", metavar="command")
    subs.required = True

    p = subs.add_parser("params", help="derive theta, kappa and the constraint class")
    _add_param_flags(p)
    p.set_defaults(handler=_cmd_params)

    p = subs.add_parser("variance", help="closed-form variance and product report")
    _add_param_flags(p)
    _add_squeeze_flags(p, required_default=False)
    p.set_defaults(handler=_cmd_variance)

    p = subs.add_parser("overlap", help="overlap between two states")
    _add_param_flags(p)
    _add_squeeze_flags(p, required_default=False)
    p.add_argument("--alpha", type=parse_complex, default=0j,
                   help="ket first-mode amplitude, e.g. 0.5+0.2i")
    p.add_argument("--beta", type=parse_complex, default=0j,
                   help="ket second-mode amplitude")
    p.add_argument("--alpha2", type=parse_complex, default=0j,
                   help="bra first-mode amplitude")
    p.add_argument("--beta2", type=parse_complex, default=0j,
                   help="bra second-mode amplitude")
    p.set_defaults(handler=_cmd_overlap)

    p = subs.add_parser("bogoliubov", help="squeeze-transform coefficients of both modes")
    _add_param_flags(p)
    _add_squeeze_flags(p, required_default=True)
    p.set_defaults(handler=_cmd_bogoliubov)

    p = subs.add_parser("check", help="run the matrix-engine identity and crosscheck suites")
    _add_param_flags(p)
    _add_squeeze_flags(p, required_default=True, default_r=0.3,
                       default_phi=math.pi / 4)
    p.add_argument("--alpha", type=parse_complex, default=0.5 + 0j,
                   help="first-mode displacement (default 0.5)")
    p.add_argument("--beta", type=parse_complex, default=0.2j,
                   help="second-mode displacement (default 0.2i)")
    p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF,
                   help="per-mode occupation cutoff (default %d)" % DEFAULT_CUTOFF)
    p.add_argument("--buffer", type=int, default=fock.DEFAULT_BUFFER,
                   help="safe-subspace buffer levels (default %d)" % fock.DEFAULT_BUFFER)
    p.set_defaults(handler=_cmd_check)

    p = subs.add_parser("overcompleteness",
                        help="Monte Carlo resolution-of-identity test")
    _add_param_flags(p)
    _add_squeeze_flags(p, required_default=False)
    p.add_argument("--alpha", type=parse_complex, default=None,
                   help="left probe first-mode amplitude")
    p.add_argument("--beta", type=parse_complex, default=None,
                   help="left probe second-mode amplitude")
    p.add_argument("--alpha2", type=parse_complex, default=None,
                   help="right probe first-mode amplitude")
    p.add_argument("--beta2", type=parse_complex, default=None,
                   help="right probe second-mode amplitude")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                   help="Monte Carlo sample count (default %d)" % DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="RNG seed (default %d)" % DEFAULT_SEED)
    p.set_defaults(handler=_cmd_overcompleteness)

    p = subs.add_parser("sweep", help="grid a closed-form quantity over one variable")
    _add_param_flags(p)
    _add_squeeze_flags(p, required_default=False)
    p.add_argument("--variable", required=True, choices=_SWEEP_VARIABLES,
                   help="which variable the grid runs over")
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--quantity", required=True,
                   help="row key to report, e.g. dx2, prod_xpx, prod_XP")
    p.set_defaults(handler=_cmd_sweep)

    p = subs.add_parser("oscillator",
                        help="check an isotropic-oscillator mass/frequency pair")
    _add_param_flags(p)
    p.add_argument("--m", type=float, required=True, help="oscillator mass")
    p.add_argument("--omega", type=float, required=True, help="oscillator frequency")
    p.set_defaults(handler=_cmd_oscillator)

    for sub in subs.choices.values():
        sub.add_argument("--out", default=None,
                         help="write the report to this path (CSV if it ends in .csv)")
        sub.add_argument("--json", action="store_true", dest="force_json",
                         help="emit JSON even when --out ends in .csv")
    return parser


# ---------------------------------------------------------------------------
# serialization


def _csv_cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def _to_csv(report: RunReport) -> str:
    scalar = (str, int, float, bool, type(None))
    columns = [k for k, v in report.rows[0].items() if isinstance(v, scalar)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in report.rows:
        writer.writerow([_csv_cell(row.get(col)) for col in columns])
    return buf.getvalue()


def _to_json(report: RunReport) -> str:
    if report.single:
        obj = report.header()
        obj["result"] = report.rows[0]
        return json.dumps(obj, indent=2) + "\n"
    lines = [json.dumps(report.header(), separators=(",", ":"))]
    lines += [json.dumps(row, separators=(",", ":")) for row in report.rows]
    return "\n".join(lines) + "\n"


def _emit(report: RunReport, out: Optional[str], force_json: bool) -> None:
    as_csv = out is not None and out.endswith(".csv") and not force_json
    text = _to_csv(report) if as_csv else _to_json(report)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


_USER_ERRORS = (
    _UsageError,
    GridTooLarge,
    NonPositiveParameter,
    NonFinite,
    fock.BufferOutOfRange,
    fock.CutoffOutOfRange,
    fock.SqueezeTooLargeForCutoff,
    fock.PopulationOverflow,
    fock.SaturatedOrSuperCritical,
    verifier.ThetaAtOrAboveOne,
    verifier.SamplesTooFew,
    verifier.SamplesTooMany,
    ValueError,
)


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse ``argv``, run one subcommand, emit its report.

    Returns the process exit code instead of raising SystemExit, so the
    function is callable in-process.
    """

    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print("ncsq: error: %s" % exc, file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        report, failed = ns.handler(ns)
        _emit(report, ns.out, ns.force_json)
    except _USER_ERRORS as exc:
        print("ncsq: error: %s" % exc, file=sys.stderr)
        return 2
    return 1 if failed else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
