"""Release gate: nine numbered acceptance checks with pinned tolerances.

Each check prints one verdict line (``AC<n> PASS``/``AC<n> FAIL``) before
asserting, so a plain run shows the per-criterion outcome at a glance.
AC3/AC4 share one module-scope crosscheck run over a seeded 54-case family.
"""

import cmath
import math
import time

import numpy as np
import pytest

from conftest import fit_mode_block, squeeze_conjugated_block, squeeze_flow, ulp_between
from ncsq import (
    ModeAmplitudes,
    OperatorMatrix,
    SqueezeParam,
    algebra_residuals,
    bogoliubov_coefficients,
    build_operator_set,
    coherent_overlap,
    convergence_probe,
    crosscheck_suite,
    expectation_and_variance,
    make_params,
    make_space,
    make_state,
    overcompleteness_mc,
    single_mode_report,
    squeezed_overlap,
    supercritical_witness,
)
from ncsq.cli import SweepSpec, sweep
from ncsq.verifier import _squeeze_commutator_residual

CUTOFF = 40
CASE_THETAS = (0.2, 0.5, 0.8)
PHI_GRID = np.linspace(-math.pi, math.pi, 6285)


def _verdict(number: int, ok: bool, detail: str) -> None:
    print("AC%d %s (%s)" % (number, "PASS" if ok else "FAIL", detail))
    assert ok, "AC%d failed: %s" % (number, detail)


def _case_family():
    """54 random cases, drawn inside both the stated amplitude/squeeze
    bounds and the truncation guard of the matrix engine."""
    rng = np.random.default_rng(20240816)
    family = {}
    for theta in CASE_THETAS:
        cases = []
        for _ in range(18):
            r = rng.uniform(0.05, 0.38 / (1.0 + theta))
            phi = rng.uniform(-math.pi, math.pi)
            pair = []
            for _ in range(2):
                mag = 0.7 * math.sqrt(rng.uniform())
                ang = rng.uniform(-math.pi, math.pi)
                pair.append(mag * cmath.exp(1j * ang))
            cases.append((ModeAmplitudes(*pair), SqueezeParam(r, phi)))
        family[theta] = cases
    return family


@pytest.fixture(scope="module")
def crosschecks():
    space = make_space(CUTOFF)
    family = _case_family()
    reports = {}
    for theta, cases in family.items():
        params = make_params(theta, theta, 1.0)
        reports[theta] = crosscheck_suite(params, space, cases)
    return family, reports


def _transform_gap(got, want):
    return max(abs(got.c_a - want.c_a), abs(got.c_b - want.c_b),
               abs(got.c_bdag - want.c_bdag), abs(got.c_adag - want.c_adag))


def test_ac1_algebra_realization():
    t0 = time.perf_counter()
    space = make_space(30)
    worst = 0.0
    for theta in (0.1, 0.5, 0.9):
        ops = build_operator_set(make_params(theta, theta, 1.0), space)
        worst = max(worst, max(algebra_residuals(ops).values()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    _verdict(1, ok, "worst residual %.2e, %.1fs" % (worst, elapsed))


def test_ac2_generalized_bogoliubov():
    space = make_space(CUTOFF)
    worst = 0.0
    grid = {0.3: [(0.1, 0.0), (0.5, math.pi / 2)],
            0.6: [(0.1, 0.0), (0.5, math.pi / 2)],
            0.9: [(0.1, 0.0), (0.5, math.pi / 4), (0.5, math.pi / 2)]}
    for theta, points in grid.items():
        params = make_params(theta, theta, 1.0)
        ops = build_operator_set(params, space)
        for r, phi in points:
            # the engine's [G, m] against the closed-form commutators, and
            # the flow of those commutators against the closed conjugation
            z = SqueezeParam(r, phi)
            flow_a, flow_b = squeeze_flow(params, z)
            closed = bogoliubov_coefficients(params, z)
            worst = max(worst, _squeeze_commutator_residual(ops, z),
                        _transform_gap(flow_a, closed.mode_a),
                        _transform_gap(flow_b, closed.mode_b))

    # direct conjugate-and-fit route, on a truncation-clean block
    params = make_params(0.5, 0.5, 1.0)
    ops = build_operator_set(params, space)
    z = SqueezeParam(0.2, 0.0)
    idx = np.flatnonzero(space.n_tot <= 6)
    closed = bogoliubov_coefficients(params, z)
    for op, want in ((ops.a_def, closed.mode_a), (ops.b_def, closed.mode_b)):
        conj = squeeze_conjugated_block(ops, z, op, idx)
        fitted, fit_resid = fit_mode_block(ops, conj, idx)
        worst = max(worst, fit_resid, _transform_gap(fitted, want))

    ok = worst < 1e-8
    _verdict(2, ok, "worst coefficient residual %.2e" % worst)


def test_ac3_overlap_formula(crosschecks):
    family, reports = crosschecks
    n_cases = sum(len(cases) for cases in family.values())
    overlaps = [r for reps in reports.values() for r in reps
                if r.check_id.startswith("overlap")]
    worst = max(r.residual for r in overlaps)
    ok = n_cases >= 50 and len(overlaps) == n_cases and worst < 1e-6

    # z = 0 must collapse to the coherent formula within 4 ulp
    rng = np.random.default_rng(5)
    p = make_params(0.5, 0.5, 1.0)
    worst_ulp = 0.0
    for _ in range(10):
        d = rng.uniform(-0.7, 0.7, size=8)
        bra = ModeAmplitudes(complex(d[0], d[1]), complex(d[2], d[3]))
        ket = ModeAmplitudes(complex(d[4], d[5]), complex(d[6], d[7]))
        direct = coherent_overlap(p, bra, ket)
        via = squeezed_overlap(p, bra, ket, SqueezeParam(0.0, 1.3))
        worst_ulp = max(worst_ulp,
                        ulp_between(via.real, direct.real),
                        ulp_between(via.imag, direct.imag))
    ok = ok and worst_ulp <= 4.0
    _verdict(3, ok, "%d cases, worst rel %.2e, z=0 within %.0f ulp"
             % (n_cases, worst, worst_ulp))


def test_ac4_variance_formulas(crosschecks):
    family, reports = crosschecks
    variances = [r for reps in reports.values() for r in reps
                 if r.check_id.startswith("variance")]
    worst = max(r.residual for r in variances)
    ok = worst < 1e-6 and all(r.passed for r in variances)

    # exchange identities under phi -> -phi, 4 ulp
    worst_ulp = 0.0
    for theta in CASE_THETAS:
        p = make_params(theta, theta, 1.0)
        for r, phi in [(0.1, 0.4), (0.3, 1.2), (0.45, -2.3)]:
            plus = single_mode_report(p, SqueezeParam(r, phi))
            minus = single_mode_report(p, SqueezeParam(r, -phi))
            worst_ulp = max(worst_ulp,
                            ulp_between(minus.gain_x, plus.gain_px),
                            ulp_between(minus.gain_px, plus.gain_x),
                            ulp_between(minus.dy2, plus.dx2),
                            ulp_between(minus.dpy2, plus.dpx2))
    ok = ok and worst_ulp <= 4.0

    # displacement independence: same z, three amplitude sets, engine drift
    space = make_space(CUTOFF)
    params = make_params(0.5, 0.5, 1.0)
    ops = build_operator_set(params, space)
    z = SqueezeParam(0.3, math.pi / 4)
    x, y, px, py = ops.coeffs[:4]
    quads = {"dx2": ops.x, "dy2": ops.y, "dpx2": ops.px, "dpy2": ops.py,
             "dX2": OperatorMatrix(space, 0.5 * (x + y)),
             "dP2": OperatorMatrix(space, 0.5 * (px + py))}
    tracked = {name: [] for name in quads}
    for alpha, beta in ((0.0, 0.0), (0.5, 0.2j), (-0.4 + 0.3j, 0.6)):
        state = make_state(ops, ModeAmplitudes(alpha, beta), z)
        for name, op in quads.items():
            _, var = expectation_and_variance(state, op)
            tracked[name].append(var)
    drift = max((max(vals) - min(vals)) / max(vals)
                for vals in tracked.values())
    ok = ok and drift < 1e-8
    _verdict(4, ok, "worst rel %.2e, exchange %.0f ulp, drift %.2e"
             % (worst, worst_ulp, drift))


def test_ac5_single_mode_minimum_and_critical_boundary():
    worst = 0.0
    for theta, r in [(0.3, 0.2), (0.6, 0.35), (0.9, 0.5)]:
        p = make_params(theta, theta, 1.0)
        values = [single_mode_report(p, SqueezeParam(r, float(phi))).prod_xpx
                  for phi in PHI_GRID]
        idx = int(np.argmin(values))
        closed = 0.25 * (1.0 + (1.0 - theta**2) * math.sinh(2.0 * r) ** 2)
        worst = max(worst, abs(values[idx] - closed) / closed,
                    abs(abs(float(PHI_GRID[idx])) - math.pi / 2))
    ok = worst < 1e-10

    saturated = make_params(1.0, 1.0, 1.0)
    sat_gap = max(
        abs(min(single_mode_report(saturated, SqueezeParam(r, float(phi))).prod_xpx
                for phi in PHI_GRID) - 0.25)
        for r in (0.1, 0.3, 0.5))
    ok = ok and sat_gap < 1e-10

    witness = supercritical_witness(make_params(2.0, 2.0, 1.0), r=0.3)
    ok = ok and witness.violated and witness.product < 0.25
    _verdict(5, ok, "grid gap %.2e, saturated gap %.2e, witness %.3f < 0.25"
             % (worst, sat_gap, witness.product))


def test_ac6_two_mode_minimum():
    worst = 0.0
    for theta, r in [(0.3, 0.2), (0.6, 0.35), (0.9, 0.5)]:
        p = make_params(theta, theta, 1.0)
        values = [single_mode_report(p, SqueezeParam(r, float(phi))).prod_XP
                  for phi in PHI_GRID]
        idx = int(np.argmin(values))
        closed = (1.0 + (1.0 - theta**2)
                  * math.sinh(2.0 * r * theta) ** 2) / 16.0
        worst = max(worst, abs(values[idx] - closed) / closed,
                    abs(math.sin(float(PHI_GRID[idx]))))
    ok = worst < 1e-10
    _verdict(6, ok, "grid gap %.2e" % worst)


def test_ac7_overcompleteness_monte_carlo():
    probes = [
        (ModeAmplitudes(0.0, 0.0), ModeAmplitudes(0.0, 0.0)),
        (ModeAmplitudes(1.0, 0.0), ModeAmplitudes(0.0, 1.0)),
        (ModeAmplitudes(0.7, 0.2j), ModeAmplitudes(0.7, 0.2j)),
        (ModeAmplitudes(0.5, 0.5), ModeAmplitudes(-0.5, 0.3j)),
        (ModeAmplitudes(1.0, 0.0), ModeAmplitudes(1.0, 0.0)),
    ]
    t0 = time.perf_counter()
    worst_z = 0.0
    for theta in (0.3, 0.6):
        p = make_params(theta, theta, 1.0)
        for rep in overcompleteness_mc(p, probes, 1_000_000, 42):
            worst_z = max(worst_z, rep.z_score)
    elapsed = time.perf_counter() - t0
    ok = worst_z <= 4.0 and elapsed < 60.0
    _verdict(7, ok, "worst z-score %.2f, %.1fs" % (worst_z, elapsed))


def test_ac8_squeezing_region():
    fixed = {"hbar": 1.0, "r": 0.3}
    main = sweep(SweepSpec(variable="theta", start=0.05, stop=0.95, step=0.05,
                           fixed=dict(fixed, phi=math.pi / 2)), "gain_px")
    px_region = [row["theta"] for row in main.rows if row["squeezed_px"]]
    mirror = sweep(SweepSpec(variable="theta", start=0.05, stop=0.95, step=0.05,
                             fixed=dict(fixed, phi=-math.pi / 2)), "gain_x")
    x_region = [row["theta"] for row in mirror.rows if row["squeezed_x"]]

    # the commutative slice must show no squeezing in any quadrature
    flat = sweep(SweepSpec(variable="r", start=0.05, stop=0.5, step=0.05,
                           fixed={"mu": 1e-200, "nu": 1e-200, "hbar": 1.0,
                                  "phi": math.pi / 2}), "gain_px")
    flat_hits = [row for row in flat.rows
                 if row["squeezed_px"] or row["squeezed_x"]]
    ok = bool(px_region) and bool(x_region) and not flat_hits
    _verdict(8, ok, "%d of %d grid points squeezed, commutative slice %d"
             % (len(px_region), len(main.rows), len(flat_hits)))


def test_ac9_cutoff_convergence():
    cases = [
        (0.2, ModeAmplitudes(0.5, -0.3 + 0.2j), SqueezeParam(0.30, 1.0)),
        (0.5, ModeAmplitudes(0.5, 0.2j), SqueezeParam(0.25, math.pi / 4)),
        (0.8, ModeAmplitudes(0.6j, 0.4), SqueezeParam(0.21, -2.0)),
    ]
    worst = 0.0
    ok = True
    for theta, amps, z in cases:
        params = make_params(theta, theta, 1.0)
        for report in convergence_probe(params, amps, z, (30, 40)):
            ok = ok and report.passed
            worst = max(worst, report.residual)
    ok = ok and worst < 1e-8
    _verdict(9, ok, "worst 30->40 drift %.2e" % worst)
