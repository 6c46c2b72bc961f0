"""Verification layer: identity suites, crosschecks, MC, convergence."""

import cmath
import dataclasses
import itertools
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _coherent_overlap_raw,
    _squeezed_overlap_exponent,
    commutator_residual,
    displacement_generator_csr,
    fit_mode_block,
    oracle_identity_residuals,
    squeeze_conjugated_block,
    squeeze_flow,
    squeeze_generator_csr,
    to_csr,
)
from ncsq import (
    BufferOutOfRange,
    IntegrandUnderflow,
    ModeAmplitudes,
    NonFinite,
    OperatorMatrix,
    SamplesTooFew,
    SamplesTooMany,
    SqueezeParam,
    ThetaAtOrAboveOne,
    algebra_residuals,
    bogoliubov_coefficients,
    build_operator_set,
    coherent_eigenvalues,
    convergence_probe,
    crosscheck_suite,
    displacement_op,
    identity_suite,
    make_params,
    make_space,
    overcompleteness_mc,
    supercritical_witness,
)
from ncsq import analytic, fock, verifier
from ncsq.fock import (
    PopulationOverflow,
    SqueezeTooLargeForCutoff,
)
from ncsq.verifier import (
    MC_MAX_SAMPLES,
    _MC_BLOCK,
    _MC_CHUNK,
    _squeeze_commutator_residual,
)

P05 = make_params(0.5, 0.5, 1.0)
P00 = make_params(1e-200, 1e-200, 1.0)

IDENTITY_IDS = {
    "heisenberg_weyl",
    "deformed_algebra",
    "ordinary_algebra",
    "displacement_property",
    "bogoliubov",
    "two_mode_commutator",
}


def _eigenvalue_report(ops, amps):
    """crosscheck_suite's eigenvalue relation on the coherent state of amps."""
    reports = crosscheck_suite(ops.params, ops.space, [(amps, None)], ops=ops)
    assert reports[0].check_id == "eigenvalue[0]"
    return reports[0]


# ---------------------------------------------------------------------------
# algebra residuals and transforms


def test_algebra_residuals_complete_and_small(space20):
    ops = build_operator_set(P05, space20)
    resids = algebra_residuals(ops)
    want_keys = {
        "xy", "pxpy", "xpx", "ypy", "xpy", "ypx",
        "a_adag", "b_bdag", "ab", "a_bdag", "b_adag",
        "ord_a_adag", "ord_b_bdag", "ord_ab", "ord_a_bdag", "XP",
    }
    assert set(resids) == want_keys
    assert max(resids.values()) < 1e-10


def test_fit_recovers_a_bare_operator(space20):
    ops = build_operator_set(P05, space20)
    idx = np.flatnonzero(space20.n_tot <= space20.cutoff - 5)
    block = ops.a_def.matrix[np.ix_(idx, idx)]
    transform, resid = fit_mode_block(ops, block, idx)
    assert resid < 1e-12
    assert transform.c_a == pytest.approx(1.0, abs=1e-12)
    for coef in (transform.c_b, transform.c_bdag, transform.c_adag):
        assert abs(coef) < 1e-12


def test_direct_fit_adjoint_and_closed_form_agree(space30):
    """Three routes to the same coefficients: conjugate-and-fit on a clean
    block, the flow of the closed-form commutators (which the engine's
    commutators match on the safe block), and the closed forms."""
    z = SqueezeParam(0.2, 0.6)
    ops = build_operator_set(P05, space30)
    idx = np.flatnonzero(space30.n_tot <= 6)
    conj_a = squeeze_conjugated_block(ops, z, ops.a_def, idx)

    # full-exponential conjugation reflects truncation error deep into the
    # matrix, so the direct fit must stay on a low-occupation block
    fitted, fit_resid = fit_mode_block(ops, conj_a, idx)
    assert fit_resid < 1e-8

    assert _squeeze_commutator_residual(ops, z) < 1e-10
    flow_a, _ = squeeze_flow(P05, z)

    closed = bogoliubov_coefficients(P05, z).mode_a
    for attr in ("c_a", "c_b", "c_bdag", "c_adag"):
        assert abs(getattr(fitted, attr) - getattr(closed, attr)) < 1e-8
        assert abs(getattr(flow_a, attr) - getattr(closed, attr)) < 1e-8


def test_adjoint_transform_textbook_limit(space20):
    """Near theta = 0 the engine's [G, a] and [G, b] match the closed forms,
    whose flow is the textbook two-mode squeeze."""
    params = make_params(1e-4, 1e-4, 1.0)
    ops = build_operator_set(params, space20)
    for r, phi in [(0.2, 0.0), (0.3, 1.1)]:
        z = SqueezeParam(r, phi)
        assert _squeeze_commutator_residual(ops, z) < 1e-10
        flow_a, flow_b = squeeze_flow(params, z)
        phase = cmath.exp(1j * phi)
        assert abs(flow_a.c_a - math.cosh(r)) < 1e-6
        assert abs(flow_a.c_bdag - phase * math.sinh(r)) < 1e-6
        # the cross coefficients vanish only like r*theta, not faster
        assert abs(flow_a.c_b) < 5e-5 and abs(flow_a.c_adag) < 5e-5
        assert abs(flow_b.c_b - math.cosh(r)) < 1e-6
        assert abs(flow_b.c_adag - phase * math.sinh(r)) < 1e-6


@pytest.mark.parametrize("wrong, row", [("mode_a", 4), ("mode_b", 5)])
def test_squeeze_commutator_residual_sees_a_missing_theta_term(space20, monkeypatch, wrong, row):
    """With one mode's closed form replaced by the textbook commutator
    ([G, a] = z b+ or [G, b] = z a+), which drops its i*theta term, the
    residual reads that term's size."""
    ops = build_operator_set(P05, space20)
    z = SqueezeParam(0.2, 0.6)
    assert _squeeze_commutator_residual(ops, z) < 1e-12
    right = analytic.squeeze_commutators(P05, z)
    textbook = analytic.squeeze_commutators(make_params(1e-200, 1e-200, 1.0), z)
    patched = dataclasses.replace(right, **{wrong: getattr(textbook, wrong)})
    monkeypatch.setattr(analytic, "squeeze_commutators", lambda params, z: patched)
    # i*theta*z times a_def+ (or b_def+): each of its ladder terms fills its
    # own band, whose largest weight on the safe block is sqrt(cutoff - buffer)
    size = P05.theta * z.r * np.abs(ops.coeffs[row]).max() * math.sqrt(space20.cutoff - 5)
    assert _squeeze_commutator_residual(ops, z) == pytest.approx(size, rel=1e-12)


# ---------------------------------------------------------------------------
# identity suite


def test_identity_suite_all_pass(space30):
    ops = build_operator_set(P05, space30)
    amps = ModeAmplitudes(0.5, 0.2j)
    reports = identity_suite(ops, amps, SqueezeParam(0.3, math.pi / 4))
    assert {r.check_id for r in reports} == IDENTITY_IDS
    for report in [*reports, _eigenvalue_report(ops, amps)]:
        assert report.passed, (report.check_id, report.residual)
        assert report.residual < 1e-8


def test_identity_suite_without_squeeze(space20):
    ops = build_operator_set(P05, space20)
    amps = ModeAmplitudes(0.3, 0.1j)
    reports = identity_suite(ops, amps, SqueezeParam(0.0, 0.0))
    assert {r.check_id for r in reports} == IDENTITY_IDS
    assert all(r.passed for r in reports)
    assert _eigenvalue_report(ops, amps).passed


@pytest.mark.parametrize("mu, nu, hbar", [
    (1e-200, 5e-201, 1e-200), (1e-6, 1e-6, 1.0), (1e-200, 1e-200, 1.0),
    (1e-6, 1.0, 1.0), (1.0, 1e-6, 1.0), (1e-10, 1e-3, 1.0), (1e-3, 1e-3, 1e-2),
    (0.5, 0.5, 1.0), (2.0, 3.0, 4.0)])
def test_phase_plane_residuals_stay_at_rounding_across_scales(space30, mu, nu, hbar):
    # each relation is read relative to its own size, so mixed scales
    # (hbar 1 with tiny mu and nu, or mu far from nu) stay at rounding
    ops = build_operator_set(make_params(mu, nu, hbar), space30)
    resids = algebra_residuals(ops)
    assert max(resids[k] for k in ("xy", "pxpy", "xpx", "ypy", "xpy", "ypx", "XP")) < 1e-12
    # mu far from nu maps a unit displacement far past the cutoff, so the
    # suite runs undisplaced
    by_id = {r.check_id: r for r in
             identity_suite(ops, ModeAmplitudes(0.0, 0.0), SqueezeParam(0.0, 0.0))}
    for check_id in ("heisenberg_weyl", "two_mode_commutator"):
        assert by_id[check_id].passed and by_id[check_id].residual < 1e-12


@settings(max_examples=40, deadline=None)
@given(log_ratio=st.floats(-6.0, 6.0), theta=st.floats(1e-3, 0.9))
def test_algebra_holds_at_any_ratio_of_mu_to_nu(space12, log_ratio, theta):
    # the ordinary modes are expanded at the deformed modes' scale, so a
    # mu/nu far from 1 conditions the ladder map no worse than mu = nu
    root = 10.0 ** (0.5 * log_ratio)
    ops = build_operator_set(make_params(theta * root, theta / root, 1.0), space12)
    resids = algebra_residuals(ops)
    assert max(resids.values()) <= verifier.COMMUTATOR_TOL, resids


@pytest.mark.parametrize("ratio", [1e-3, 1e-1, 1.0, 1e1, 1e3])
@pytest.mark.parametrize("theta", [0.0, 0.1, 0.5, 0.9, 0.999])
def test_u_and_v_are_independent_modes(space12, theta, ratio):
    """On the engine's rows, u, v = (a_def +- i b_def)/sqrt(2) are two
    independent modes with [u, u+] = 1 + theta and [v, v+] = 1 - theta,
    the split that analytic's overlaps are built on."""
    root, scale = math.sqrt(ratio), theta or 1e-200
    ops = build_operator_set(make_params(scale * root, scale / root, 1.0), space12)
    a_row, b_row = ops.coeffs[4:]
    u, v = (a_row + 1j * b_row) / math.sqrt(2.0), (a_row - 1j * b_row) / math.sqrt(2.0)
    checks = {
        "u_udag": (u, fock._adjoint(u), 1.0 + ops.params.theta),
        "v_vdag": (v, fock._adjoint(v), 1.0 - ops.params.theta),
        "u_vdag": (u, fock._adjoint(v), 0.0),
        "u_v": (u, v, 0.0),
    }
    for name, (left, right, want) in checks.items():
        assert abs(left @ fock._J @ right - want) <= verifier.COMMUTATOR_TOL, name


def test_boson_algebra_at_an_extreme_ratio_of_mu_to_nu(space30):
    # expanded at the ordinary quadratures' scale, [a_def, a_def+] = 1 came
    # out of cancelling terms of size sqrt(nu/mu) and read 1.0 here
    resids = algebra_residuals(build_operator_set(make_params(1e-200, 1e-3, 1.0), space30))
    assert max(resids.values()) < 1e-13, resids


@pytest.mark.parametrize("field", ["mu", "nu", "hbar"])
def test_phase_plane_residuals_see_a_wrong_small_scale(space12, field):
    # operators built for mu, nu, hbar ~ 1e-200, checked against a
    # relation a third off: an absolute residual (~1e-200) would pass,
    # the relative one reads the error at its own size
    values = {"mu": 1e-200, "nu": 5e-201, "hbar": 1e-200}
    ops = build_operator_set(make_params(**values), space12)
    values[field] *= 1.5
    wrong = dataclasses.replace(ops, params=make_params(**values))
    resids = algebra_residuals(wrong)
    key = {"mu": "xy", "nu": "pxpy", "hbar": "xpx"}[field]
    assert resids[key] == pytest.approx(1.0 / 3.0, rel=1e-6)
    assert not next(r for r in identity_suite(wrong, ModeAmplitudes(0.0, 0.0),
                                               SqueezeParam(0.0, 0.0))
                    if r.check_id == "heisenberg_weyl").passed


def test_displacement_shift_matches_dense_conjugation(space20, monkeypatch):
    """The dense route is the oracle: D+ m D - m - lambda_m from the full
    unitary vanishes on a deep block, the commutator report reads zero
    there too, and a wrong lambda shows up at its own size."""
    amps = ModeAmplitudes(0.5, 0.2j)
    ops = build_operator_set(P05, space20)
    idx = np.flatnonzero(space20.n_tot <= 5)
    disp = displacement_op(P05, space20, amps, ops).matrix
    eye = np.eye(space20.dim)
    lams = (amps.alpha + 0.5j * amps.beta, amps.beta - 0.5j * amps.alpha)
    for mode, lam in zip((ops.a_def, ops.b_def), lams):
        m = mode.matrix
        shift = (disp.conj().T @ m @ disp - m - lam * eye)[np.ix_(idx, idx)]
        assert np.abs(shift).max() < 1e-8

    reports = identity_suite(ops, amps, SqueezeParam(0.0, 0.0))
    by_id = {r.check_id: r for r in reports}
    assert by_id["displacement_property"].residual <= 1e-12

    monkeypatch.setattr(analytic, "coherent_eigenvalues", lambda p, a: (lams[0] - 1e-3, lams[1]))
    by_id = {r.check_id: r for r in identity_suite(ops, amps, SqueezeParam(0.0, 0.0))}
    assert by_id["displacement_property"].residual == pytest.approx(1e-3, rel=1e-8)


def test_identity_suite_at_a_large_displacement_and_cutoff():
    # |alpha| 0.7 sits well inside what the tail guard admits at cutoff 40
    ops = build_operator_set(make_params(0.8, 0.8, 1.0), make_space(40))
    amps = ModeAmplitudes(0.7j, 0.0)
    reports = identity_suite(ops, amps, SqueezeParam(0.2, 0.5))
    assert {r.check_id for r in reports} == IDENTITY_IDS
    for report in [*reports, _eigenvalue_report(ops, amps)]:
        assert report.passed, (report.check_id, report.residual)


@pytest.mark.parametrize("amps", [ModeAmplitudes(0.5, 0.2j), ModeAmplitudes(0.0, 0.0)])
def test_identity_suite_makes_no_exponential(space30, monkeypatch, amps):
    ops = build_operator_set(P05, space30)
    calls = _count_states(monkeypatch)
    identity_suite(ops, amps, SqueezeParam(0.3, math.pi / 4))
    assert calls == []
    assert not hasattr(fock, "expm_multiply") and not hasattr(verifier, "expm_multiply")


def test_crosscheck_refuses_a_failure_the_tail_explains():
    # at cutoff 40 this coherent state leaks 7e-10 of its population into
    # the top 5 levels, past the default guard of 1e-10, and its eigenvalue
    # relation reads 8.5e-8 against 1e-8: a refusal, not a failed check
    p = make_params(0.8, 0.8, 1.0)
    amp = 2.5 / math.sqrt(2.0)
    amps = ModeAmplitudes(amp * cmath.exp(0.25j * math.pi), amp)
    with pytest.raises(PopulationOverflow, match="within 5 quanta of cutoff 40"):
        crosscheck_suite(p, make_space(40), [(amps, None)])
    # at buffer 0 the caller trusts the truncation up to the cutoff
    eigen = crosscheck_suite(p, make_space(40), [(amps, None)], buffer=0)[0]
    assert eigen.check_id == "eigenvalue[0]" and not eigen.passed
    assert 8e-8 < eigen.residual < 9e-8


_BOX = st.floats(-2.0, 2.0)


# make_params refuses subnormal scales, so theta is drawn without them
@settings(max_examples=40, deadline=None)
@given(theta=st.floats(0.0, 0.95, allow_subnormal=False), re_a=_BOX, im_a=_BOX, re_b=_BOX,
       im_b=_BOX)
def test_displacement_commutator_is_the_closed_form_shift(
        space12, theta, re_a, im_a, re_b, im_b):
    p = make_params(theta or 1e-200, theta or 1e-200, 1.0)
    ops = build_operator_set(p, space12)
    amps = ModeAmplitudes(complex(re_a, im_a), complex(re_b, im_b))
    shift = fock._displacement_row(ops, amps)
    a, b = to_csr(ops.a_def), to_csr(ops.b_def)
    gen = displacement_generator_csr(a, b, amps)
    # on rows, and by the banded oracle on the safe block
    for row, mode, lam in zip(ops.coeffs[4:], (a, b), coherent_eigenvalues(p, amps)):
        assert abs(row @ fock._J @ shift - lam) <= 1e-12
        assert commutator_residual(space12, mode, gen, lam, 5) <= 1e-12


@pytest.mark.parametrize("buffer", [-1, 21])
def test_suites_refuse_out_of_range_buffer(space20, buffer):
    amps, z = ModeAmplitudes(0.1, 0.0), SqueezeParam(0.1, 0.0)
    with pytest.raises(BufferOutOfRange, match=r"\[0, 20\]"):
        identity_suite(build_operator_set(P05, space20), amps, z, buffer=buffer)
    with pytest.raises(BufferOutOfRange, match=r"\[0, 20\]"):
        crosscheck_suite(P05, space20, [(amps, z)], buffer=buffer)


def test_identity_suite_reports_at_the_buffer_range_edges(space12):
    # buffer = cutoff leaves only |0,0>, where every span operator is zero:
    # the suite must still report each class, not crash on the empty fit
    ops = build_operator_set(P05, space12)
    for buffer in (0, space12.cutoff):
        reports = identity_suite(ops, ModeAmplitudes(0.1, 0.0),
                                 SqueezeParam(0.1, 0.0), buffer=buffer)
        assert {r.check_id for r in reports} == IDENTITY_IDS


def test_identity_suite_refuses_a_displacement_the_cutoff_cannot_hold(space12):
    # unrefused, the generator's entries overflow with RuntimeWarnings
    ops = build_operator_set(P05, space12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PopulationOverflow, match="mean occupation inf exceeds cutoff 12"):
            identity_suite(ops, ModeAmplitudes(1.7e308, 0.0), SqueezeParam(0.1, 0.0))


def test_safe_block_max_refuses_an_empty_block(space12):
    # buffer = cutoff leaves |0,0> alone, where every ladder entry is off
    # the block: the Bogoliubov residual's safe-block max reads 0, as the
    # oracle's does, even against a wrong image; one more is refused
    ops = build_operator_set(P05, space12)
    z = SqueezeParam(0.2, 0.6)
    gen = squeeze_generator_csr(ops, z)
    a = to_csr(ops.a_def)
    assert commutator_residual(space12, gen, a, 0.5 * a, space12.cutoff) == 0.0
    assert _squeeze_commutator_residual(ops, z, space12.cutoff) == 0.0
    with pytest.raises(BufferOutOfRange):
        _squeeze_commutator_residual(ops, z, space12.cutoff + 1)
    with pytest.raises(BufferOutOfRange):
        algebra_residuals(ops, space12.cutoff + 1)


def test_identity_reports_carry_context(space20):
    reports = identity_suite(build_operator_set(P05, space20), ModeAmplitudes(0.2, 0.0),
                             SqueezeParam(0.1, 0.0))
    by_id = {r.check_id: r for r in reports}
    assert by_id["bogoliubov"].metadata["r"] == 0.1
    assert by_id["heisenberg_weyl"].metadata["cutoff"] == 20
    assert by_id["bogoliubov"].residual < 1e-10


# ---------------------------------------------------------------------------
# residuals from coefficient rows, against the banded oracle


def _linear_rows(ops):
    """Rows of every shape the residuals meet: a plane operator, a_def, an
    ordinary ladder, and the displacement generator with and without
    terms."""
    return {
        "x": ops.coeffs[0],
        "a_def": ops.coeffs[4],
        "b_ord": fock._UNIT[2],
        "disp": fock._displacement_row(ops, ModeAmplitudes(0.4, 0.3j)),
        "disp0": fock._displacement_row(ops, ModeAmplitudes(0.0, 0.0)),
    }


@pytest.mark.parametrize("cutoff", [1, 2, 3, 12])
def test_commutator_residual_matches_the_dense_oracle_and_the_product_route(cutoff):
    """Every pair of linear operators has the c-number commutator
    u @ _J @ w, and the squeeze generator's commutator with each is the
    operator of the row M @ w (fock._squeeze_action).  Both equal the
    dense products and the scipy product route on the safe block, at
    buffers 1 and cutoff, down to cutoff 1, where the +-1 and +-(cutoff+1)
    offsets sit next to each other and every row edge wraps."""
    space = make_space(cutoff)
    ops = build_operator_set(make_params(0.7, 0.4, 1.0), space)
    ops_of = {name: OperatorMatrix(space, row) for name, row in _linear_rows(ops).items()}
    assert not np.any(ops_of["disp0"] @ np.ones(space.dim, dtype=np.complex128))
    dense = {name: op.matrix for name, op in ops_of.items()}
    sparse = {name: to_csr(op) for name, op in ops_of.items()}
    z = SqueezeParam(0.3, 0.7)
    action = fock._squeeze_action(fock._squeeze_terms(ops, z))
    gen_sparse = squeeze_generator_csr(ops, z)
    gen = gen_sparse.toarray()
    checks = []
    for left, right in itertools.product(ops_of, repeat=2):
        c_number = ops_of[left].row @ fock._J @ ops_of[right].row
        lr, rl = dense[left] @ dense[right], dense[right] @ dense[left]
        checks.append(((left, right), lr - rl - c_number * np.eye(space.dim),
                       (sparse[left], sparse[right], c_number),
                       max(1.0, np.abs(lr).max(), np.abs(rl).max())))
    for name, op in ops_of.items():
        image = OperatorMatrix(space, action @ op.row)
        comm = gen @ dense[name] - dense[name] @ gen
        checks.append(((name,), comm - image.matrix, (gen_sparse, sparse[name], to_csr(image)),
                       max(1.0, np.abs(comm).max())))
    for buffer in (1, cutoff):
        safe = space.n_tot <= cutoff - buffer
        for case, difference, operands, scale in checks:
            assert np.abs(difference[np.ix_(safe, safe)]).max() <= 1e-14 * scale, (case, buffer)
            assert commutator_residual(space, *operands, buffer) <= 1e-14 * scale, (case, buffer)


def test_commutator_residual_forms_no_product_operator():
    """At cutoff 200 one band of an operator is 0.65 MB, and a banded
    commutator residual peaked at 2.6 MB of arrays.  From rows, the whole
    identity suite allocates no array of the space's dimension."""
    ops = build_operator_set(P05, make_space(200))
    z = SqueezeParam(0.3, math.pi / 4)
    tracemalloc.start()
    try:
        reports = identity_suite(ops, ModeAmplitudes(0.5, 0.2j), z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports)
    assert peak < 16 * ops.space.dim, peak


# the six (mu, nu, hbar) points at which the coefficient residuals are
# compared with the banded oracle's
ORACLE_POINTS = [(0.5, 0.5, 1.0), (0.8, 0.8, 1.0), (0.1, 0.9, 1.0), (1e-3, 10.0, 1.0),
                 (1e-200, 5e-201, 1e-200), (0.999, 0.999, 1.0)]


def _coefficient_residuals(ops, amps, z, buffer):
    """algebra_residuals, with identity_suite's displacement_property and
    bogoliubov rows."""
    by_id = {r.check_id: r for r in identity_suite(ops, amps, z, buffer)}
    return {**algebra_residuals(ops, buffer),
            "displacement_property": by_id["displacement_property"].residual,
            "bogoliubov": by_id["bogoliubov"].residual}


def _assert_routes_agree(ops, buffer):
    amps, z = ModeAmplitudes(0.3, -0.2j), SqueezeParam(0.3, 0.7)
    got = _coefficient_residuals(ops, amps, z, buffer)
    oracle = oracle_identity_residuals(ops, amps, z, buffer)
    assert got.keys() == oracle.keys()
    for key, value in got.items():
        tol = verifier.OPERATOR_TOL if key in ("displacement_property", "bogoliubov") \
            else verifier.COMMUTATOR_TOL
        assert value <= 1e-13 and oracle[key] <= tol, (key, value, oracle[key])
        assert abs(value - oracle[key]) <= 1e-12, (key, value, oracle[key])


@pytest.mark.parametrize("cutoff", [12, 40])
@pytest.mark.parametrize("point", ORACLE_POINTS)
def test_coefficient_residuals_match_the_banded_oracle(point, cutoff):
    """Each residual of algebra_residuals and identity_suite, read from
    rows, against the safe-block max of the banded oracle (scipy products
    of the truncated operators), at buffers 1, 2 and 5: both pass at the
    suite's tolerances, and they agree to rounding."""
    ops = build_operator_set(make_params(*point), make_space(cutoff))
    for buffer in (1, 2, 5):
        _assert_routes_agree(ops, buffer)


def test_coefficient_residuals_at_the_largest_cutoff():
    """The routes agree at cutoff 200 too, where the oracle's ladder
    weights round at n up to 200; the rows read at most 1e-13 at all six
    points."""
    space = make_space(200)
    for buffer in (1, 2, 5):
        _assert_routes_agree(build_operator_set(make_params(0.999, 0.999, 1.0), space), buffer)
    for point in ORACLE_POINTS:
        got = _coefficient_residuals(build_operator_set(make_params(*point), space),
                                     ModeAmplitudes(0.3, -0.2j), SqueezeParam(0.3, 0.7), 5)
        assert max(got.values()) <= 1e-13, (point, got)


def test_planted_errors_read_the_same_from_both_routes(space20, monkeypatch):
    """A missing i*theta term in a closed-form squeeze commutator, a wrong
    eigenvalue (off by 1e-3) and a wrong scale (a relation a third off)
    each read their own size, the same from rows and from the oracle."""
    amps, z = ModeAmplitudes(0.5, 0.2j), SqueezeParam(0.2, 0.6)
    ops = build_operator_set(P05, space20)
    right = analytic.squeeze_commutators(P05, z)
    textbook = analytic.squeeze_commutators(P00, z)
    lam_a, lam_b = coherent_eigenvalues(P05, amps)
    with monkeypatch.context() as patch:
        patch.setattr(analytic, "squeeze_commutators",
                      lambda params, z: dataclasses.replace(right, mode_a=textbook.mode_a))
        patch.setattr(analytic, "coherent_eigenvalues", lambda p, a: (lam_a, lam_b - 1e-3))
        got = _coefficient_residuals(ops, amps, z, 5)
        oracle = oracle_identity_residuals(ops, amps, z, 5)
    size = P05.theta * z.r * np.abs(ops.coeffs[4]).max() * math.sqrt(space20.cutoff - 5)
    assert got["bogoliubov"] == pytest.approx(size, rel=1e-12)
    assert got["displacement_property"] == pytest.approx(1e-3, rel=1e-12)
    for key in ("bogoliubov", "displacement_property"):
        assert got[key] == pytest.approx(oracle[key], rel=1e-12), key

    small = {"mu": 1e-200, "nu": 5e-201, "hbar": 1e-200}
    built = build_operator_set(make_params(**small), space20)
    wrong = dataclasses.replace(built, params=make_params(**{**small, "mu": 1.5e-200}))
    got = algebra_residuals(wrong)["xy"]
    assert got == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert got == pytest.approx(oracle_identity_residuals(
        wrong, ModeAmplitudes(0.0, 0.0), z, 5)["xy"], rel=1e-12)


def test_a_nan_in_any_row_fails_its_report(space12, monkeypatch):
    """A NaN in any coefficient row makes every residual that reads the
    row NaN, and its report fails, wherever it sits among the relations
    of its class; a NaN in a_def or b_def also reaches the displacement
    row, whose mean occupation refuses it."""
    ops = build_operator_set(P05, space12)
    amps, z = ModeAmplitudes(0.1, 0.0), SqueezeParam(0.2, 0.6)
    # the rows each relation reads, in fock's row order
    reads = {"xy": (0, 1), "pxpy": (2, 3), "xpx": (0, 2), "ypy": (1, 3), "xpy": (0, 3),
             "ypx": (1, 2), "a_adag": (4,), "b_bdag": (5,), "ab": (4, 5), "a_bdag": (4, 5),
             "b_adag": (4, 5), "XP": (0, 1, 2, 3)}
    for row, entry in itertools.product(range(6), range(4)):
        coeffs = ops.coeffs.copy()
        coeffs[row, entry] = np.nan
        broken = dataclasses.replace(ops, coeffs=coeffs)
        resids = algebra_residuals(broken)
        for key, value in resids.items():
            assert math.isnan(value) == (row in reads.get(key, ())), (row, entry, key)
        if row >= 4:
            assert math.isnan(_squeeze_commutator_residual(broken, z))
            with pytest.raises(PopulationOverflow, match="mean occupation nan"):
                identity_suite(broken, amps, z)
            continue
        failed = {r.check_id for r in identity_suite(broken, amps, z) if not r.passed}
        assert failed == {"heisenberg_weyl", "two_mode_commutator"}, (row, entry)
    # a NaN eigenvalue, second of the two the displacement row reads
    real = analytic.coherent_eigenvalues
    monkeypatch.setattr(analytic, "coherent_eigenvalues", lambda p, a: (real(p, a)[0], math.nan))
    shift = next(r for r in identity_suite(ops, amps, z) if r.check_id == "displacement_property")
    assert math.isnan(shift.residual) and not shift.passed


def test_each_displaced_state_computes_its_row_once(monkeypatch):
    """The mean-occupation refusal and the state's shift share one
    displacement row: one call per displaced state built."""
    cases = [(ModeAmplitudes(0.3, 0.1j), None), (ModeAmplitudes(0.2j, -0.1), SqueezeParam(0.1, 0.5)),
             (ModeAmplitudes(0.0, 0.0), SqueezeParam(0.15, -1.0)),
             (ModeAmplitudes(-0.1, 0.2 - 0.1j), SqueezeParam(0.0, 1.0)),
             (ModeAmplitudes(0.5, -0.4j), None)]
    calls = []
    real = fock._displacement_row
    monkeypatch.setattr(fock, "_displacement_row", lambda ops, amps: calls.append(amps) or real(ops, amps))
    reports = crosscheck_suite(P05, make_space(30), cases)
    assert all(r.passed for r in reports)
    # the coherent states of cases 0, 1, 3 and 4 and the squeezed state of
    # case 1; case 2 is not displaced, and case 3's squeeze is zero
    assert calls == [cases[0][0], cases[1][0], cases[1][0], cases[3][0], cases[4][0]]


# ---------------------------------------------------------------------------
# state-level crosschecks


def test_crosscheck_squeezed_vacuum():
    space = make_space(40)
    cases = [(ModeAmplitudes(0.0, 0.0), SqueezeParam(0.3, math.pi / 4))]
    reports = crosscheck_suite(P05, space, cases)
    assert len(reports) == 3
    for report in reports:
        assert report.passed
        assert report.residual < 1e-8


def test_crosscheck_commutative_regression():
    # theta = 0 exactly: the engine must reproduce the textbook formulas
    space = make_space(40)
    rng = np.random.default_rng(101)
    cases = []
    for _ in range(4):
        d = rng.uniform(-0.6, 0.6, size=4)
        amps = ModeAmplitudes(complex(d[0], d[1]), complex(d[2], d[3]))
        cases.append((amps, SqueezeParam(rng.uniform(0.0, 0.4), rng.uniform(-3, 3))))
    for report in crosscheck_suite(P00, space, cases):
        assert report.passed
        assert report.residual < 1e-8


def test_crosscheck_stress_near_saturation():
    # strong coupling wants a deep space; tolerance per the contract is 1e-6
    params = make_params(0.9, 0.9, 1.0)
    space = make_space(60)
    cases = [(ModeAmplitudes(0.3, 0.1j), SqueezeParam(0.2, 0.0))]
    for report in crosscheck_suite(params, space, cases):
        assert report.passed
        assert report.residual < 1e-6


def test_crosscheck_metadata_names_cases(space30):
    cases = [(ModeAmplitudes(0.1, 0.0), None),
             (ModeAmplitudes(0.0, 0.2j), SqueezeParam(0.2, 0.5))]
    reports = crosscheck_suite(P05, space30, cases)
    ids = [r.check_id for r in reports]
    assert ids == ["eigenvalue[0]", "overlap[0]", "variance[0]",
                   "eigenvalue[1]", "overlap[1]", "variance[1]"]
    assert reports[3].metadata["r"] == 0.2
    assert reports[3].metadata == reports[4].metadata


def test_crosscheck_rows_carry_the_tail_of_their_states(space30):
    """A case's rows carry the larger safe_norm_fraction of its coherent
    and squeezed states at the caller's buffer."""
    ops = build_operator_set(P05, space30)
    cases = [(ModeAmplitudes(0.6, 0.2j), None),
             (ModeAmplitudes(0.1j, -0.3), SqueezeParam(0.2, 0.5))]
    reports = crosscheck_suite(P05, space30, cases, buffer=8, ops=ops)
    for index, (amps, z) in enumerate(cases):
        states = [fock.make_state(ops, amps, buffer=8), fock.make_state(ops, amps, z, buffer=8)]
        want = max(fock.safe_norm_fraction(state, buffer=8) for state in states)
        assert want > 0.0
        for report in reports[3 * index:3 * index + 3]:
            assert report.metadata["tail"] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("buffer", [0, 2, 5, 8])
def test_crosscheck_guards_states_at_the_callers_buffer(space12, buffer):
    cases = [(ModeAmplitudes(1.2, 0.0), None)]
    with pytest.raises(PopulationOverflow, match=rf"within {buffer} quanta of cutoff 12"):
        crosscheck_suite(P05, space12, cases, buffer=buffer)


def test_crosscheck_admits_what_the_callers_buffer_admits(space12):
    cases = [(ModeAmplitudes(0.7, 0.0), None)]
    reports = crosscheck_suite(P05, space12, cases, buffer=2)
    assert all(r.passed for r in reports)
    with pytest.raises(PopulationOverflow, match="within 5 quanta"):
        crosscheck_suite(P05, space12, cases, buffer=5)


def _count_states(monkeypatch):
    """The states fock's stacked builder fills, which every state passes
    through: one entry per row of each stack."""
    calls = []
    real = fock._gaussian_states

    def counted(space, rows, *args):
        calls.extend(rows)
        return real(space, rows, *args)

    monkeypatch.setattr(fock, "_gaussian_states", counted)
    return calls


def test_crosscheck_builds_each_state_once(space30, monkeypatch):
    calls = _count_states(monkeypatch)
    cases = [(ModeAmplitudes(0.3, 0.1j), None),
             (ModeAmplitudes(0.0, 0.2j), SqueezeParam(0.2, 0.5)),
             (ModeAmplitudes(-0.2j, 0.1), SqueezeParam(0.0, 1.0)),
             (ModeAmplitudes(0.1, 0.0), SqueezeParam(0.15, -2.0))]
    reports = crosscheck_suite(P05, space30, cases)
    assert all(r.passed for r in reports)
    # the vacuum once, one coherent state per case and one squeezed state
    # per squeezed case, counted as the rows of the builder's stacks
    assert len(calls) == 1 + 2 * 1 + 2 * 2


def test_crosscheck_applies_the_ladders_once_per_state(space30, monkeypatch):
    """Each case's coherent state has its ladder images built once, for
    both eigenvalue residuals and, when the case is not squeezed, its
    variances; a squeezed state has its own once, for its variances.  The
    vacuum, read only through overlaps, has none.  The six variances of
    each case come from one fock._moments call."""
    images, moments = [], []
    real_images, real_moments = fock._ladder_images, fock._moments

    def counted_images(space, vectors):
        images.append(vectors.shape)
        return real_images(space, vectors)

    def counted_moments(state, rows, images=None):
        moments.append(len(rows))
        return real_moments(state, rows, images)

    for module in (fock, verifier):
        monkeypatch.setattr(module, "_ladder_images", counted_images)
    monkeypatch.setattr(verifier, "_moments", counted_moments)
    cases = [(ModeAmplitudes(0.3, 0.1j), None),
             (ModeAmplitudes(0.2j, -0.1), SqueezeParam(0.1, 0.5)),
             (ModeAmplitudes(0.0, 0.0), SqueezeParam(0.15, -1.0)),
             (ModeAmplitudes(-0.1, 0.2 - 0.1j), SqueezeParam(0.0, 1.0)),
             (ModeAmplitudes(0.5, -0.4j), None)]
    reports = crosscheck_suite(P05, space30, cases)
    assert len(reports) == 3 * len(cases) and all(r.passed for r in reports)
    # three coherent cases (one at r = 0) and two squeezed ones
    assert len(images) == 3 * 1 + 2 * 2
    assert all(shape == (space30.dim,) for shape in images)
    assert moments == [6] * len(cases)


def test_suites_refuse_a_large_squeeze_before_building_a_state(space20, monkeypatch):
    calls = _count_states(monkeypatch)
    ops = build_operator_set(P05, space20)
    amps, big = ModeAmplitudes(0.3, 0.0), SqueezeParam(0.75, 0.0)
    with pytest.raises(SqueezeTooLargeForCutoff):
        crosscheck_suite(P05, space20, [(amps, None), (amps, big)], ops=ops)
    with pytest.raises(SqueezeTooLargeForCutoff):
        identity_suite(ops, amps, big)
    assert calls == []


@pytest.mark.parametrize("params, cutoff", [(make_params(0.8, 0.8, 1.0), 30), (P05, 20)])
def test_crosscheck_refuses_an_operator_set_built_for_other_inputs(
        space30, monkeypatch, params, cutoff):
    calls = _count_states(monkeypatch)
    ops = build_operator_set(params, make_space(cutoff))
    cases = [(ModeAmplitudes(0.3, 0.1j), SqueezeParam(0.2, 0.5))]
    with pytest.raises(fock.SpaceMismatch, match="operator set built for"):
        crosscheck_suite(P05, space30, cases, ops=ops)
    assert calls == []


# ---------------------------------------------------------------------------
# Monte-Carlo overcompleteness


VAC = ModeAmplitudes(0.0, 0.0)
PROBE = ModeAmplitudes(0.7, 0.2j)


def test_mc_identity_vacuum_probe():
    p = make_params(0.3, 0.3, 1.0)
    reports = overcompleteness_mc(p, [(VAC, VAC)], 1_000_000, 42)
    rep = reports[0]
    assert rep.passed
    assert rep.z_score <= 4.0
    assert rep.reference == pytest.approx(1.0)
    assert 1e-4 < rep.stderr < 2e-2
    assert rep.samples == 1_000_000 and rep.seed == 42


def test_mc_is_deterministic():
    # one chunk, then three: both draw buffers reused, the last chunk partial
    p = make_params(0.6, 0.6, 1.0)
    for samples in (20_000, 2 * _MC_CHUNK + 1):
        first = overcompleteness_mc(p, [(PROBE, VAC)], samples, 7)
        second = overcompleteness_mc(p, [(PROBE, VAC)], samples, 7)
        assert first == second
        third = overcompleteness_mc(p, [(PROBE, VAC)], samples, 8)
        assert third[0].estimate != first[0].estimate


def test_mc_calls_on_several_threads_match_their_sequential_runs():
    # each call draws from its own generator into its own buffers; four
    # calls and their draw threads outnumber the cores, and a short switch
    # interval makes the threads interleave often
    p = make_params(0.6, 0.6, 1.0)
    probes = [(PROBE, VAC), (PROBE, PROBE)]
    samples = 2 * _MC_CHUNK + 1
    seeds = (7, 8, 9, 10)
    sequential = {seed: overcompleteness_mc(p, probes, samples, seed) for seed in seeds}
    concurrent = {}
    barrier = threading.Barrier(len(seeds))

    def call(seed):
        barrier.wait()
        concurrent[seed] = overcompleteness_mc(p, probes, samples, seed)

    callers = [threading.Thread(target=call, args=(seed,)) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert concurrent == sequential


def test_mc_leaves_no_thread_behind(monkeypatch):
    samples = 3 * _MC_CHUNK
    before = threading.active_count()
    overcompleteness_mc(P05, [(PROBE, VAC)], samples, 1)
    assert threading.active_count() == before

    # a reduction that raises while the next chunk is being drawn
    failure = RuntimeError("reduction failed")
    phase_factors = verifier._phase_factors
    calls = []

    def third_call_fails(phase, scratch):
        calls.append(phase.shape)
        if len(calls) == 3:
            raise failure
        return phase_factors(phase, scratch)

    monkeypatch.setattr(verifier, "_phase_factors", third_call_fails)
    with pytest.raises(RuntimeError) as raised:
        overcompleteness_mc(P05, [(PROBE, VAC)], samples, 1)
    assert raised.value is failure
    assert threading.active_count() == before
    monkeypatch.undo()

    # a draw that raises on the draw thread, while the main thread waits
    default_rng = np.random.default_rng

    class SecondDrawFails:
        def __init__(self, seed):
            self.rng = default_rng(seed)
            self.draws = 0

        def standard_normal(self, out):
            self.draws += 1
            if self.draws == 2:
                raise failure
            return self.rng.standard_normal(out=out)

    monkeypatch.setattr(np.random, "default_rng", SecondDrawFails)
    with pytest.raises(RuntimeError) as raised:
        overcompleteness_mc(P05, [(PROBE, VAC)], samples, 1)
    assert raised.value is failure
    assert threading.active_count() == before


def test_mc_gemm_stays_below_the_blas_threading_threshold(monkeypatch):
    # five probes with phases make ten GEMM rows, the most the command
    # line issues; OpenBLAS may run a larger product on a second thread,
    # where it contends with the draws
    matmul = np.matmul
    sizes = []

    def recording_matmul(left, right, **kwargs):
        sizes.append(left.shape[0] * left.shape[1] * right.shape[1])
        return matmul(left, right, **kwargs)

    probes = [(PROBE, VAC), (VAC, PROBE), (PROBE, ModeAmplitudes(0.5, 0.5)),
              (ModeAmplitudes(0.5, 0.5), ModeAmplitudes(-0.5, 0.3j)),
              (ModeAmplitudes(1.0, 0.0), ModeAmplitudes(0.0, 1.0))]
    monkeypatch.setattr(np, "matmul", recording_matmul)
    overcompleteness_mc(P05, probes, _MC_CHUNK + 1, 3)
    assert sizes and max(sizes) <= 65536 * 4, max(sizes)
    assert sum(sizes) == 10 * 15 * (_MC_CHUNK + 1)


def test_mc_squeezed_family_resolves_identity():
    # sampling squeezed rather than coherent states must leave the
    # resolution of the identity (and the reference values) unchanged
    p = make_params(0.6, 0.6, 1.0)
    z = SqueezeParam(0.3, 0.8)
    reports = overcompleteness_mc(
        p, [(VAC, VAC), (PROBE, ModeAmplitudes(0.5, 0.5))], 200_000, 42, z=z)
    for rep in reports:
        assert rep.passed, rep.z_score


def test_mc_input_guards():
    with pytest.raises(ThetaAtOrAboveOne):
        overcompleteness_mc(make_params(1.0, 1.0, 1.0), [(VAC, VAC)], 10_000, 1)
    with pytest.raises(ThetaAtOrAboveOne):
        overcompleteness_mc(make_params(2.0, 2.0, 1.0), [(VAC, VAC)], 10_000, 1)
    with pytest.raises(SamplesTooFew):
        overcompleteness_mc(P05, [(VAC, VAC)], 999, 1)
    with pytest.raises(SamplesTooMany, match="bounds the run time"):
        overcompleteness_mc(P05, [(VAC, VAC)], MC_MAX_SAMPLES + 1, 1)


def test_mc_refuses_an_overflowing_integrand_before_any_draw(monkeypatch):
    def no_draws(seed):
        raise AssertionError("drew samples for a refused probe")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for amps in (ModeAmplitudes(1e160, 0.0), ModeAmplitudes(0.0, -1e200j)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match="probe 1"):
                overcompleteness_mc(P05, [(VAC, VAC), (VAC, amps)], 1000, 1)


def test_mc_refuses_a_probe_whose_squared_integrand_underflows():
    # from amplitude 30 up |F|**2 underflows on every draw; 28 still reports
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (30.0, 1e100, 1e154):
            far = (ModeAmplitudes(alpha, 0.0), VAC)
            with pytest.raises(IntegrandUnderflow, match="probe 1"):
                overcompleteness_mc(P05, [(VAC, VAC), far], 1000, 42)
        near = overcompleteness_mc(P05, [(ModeAmplitudes(28.0, 0.0), VAC)], 1000, 42)[0]
    assert near.stderr > 0.0
    assert math.isfinite(near.z_score)
    assert 1.0 <= near.ess <= near.samples


def test_phase_factors_match_cos_and_sin():
    rng = np.random.default_rng(3)
    special = np.array([0.0, -0.0, math.pi, -math.pi, math.nan])
    phases = np.concatenate([rng.uniform(-bound, bound, 200_000)
                             for bound in (math.pi, 10.0, 1e3, 1e9)] + [special])
    cosine, sine = verifier._phase_factors(phases.copy(), np.empty_like(phases))
    for got, want in ((cosine, np.cos(phases)), (sine, np.sin(phases))):
        # +-pi within the bound only: their last ulp depends on the tan
        assert np.nanmax(np.abs(got - want)) <= 2.0 * 2.0**-52
        # +-0 and NaN exactly, the sign of zero included
        exact = [0, 1, 4]
        assert np.array_equal(got[-5:][exact], want[-5:][exact], equal_nan=True)
        assert np.array_equal(np.signbit(got[-5:][exact]), np.signbit(want[-5:][exact]))


def _three_exp_mc(params, probes, samples, seed, z=None):
    """Estimates and stderrs from the integrand as a product of three
    exponentials over the whole sample array: two overlaps and the
    importance weight, each evaluated on its own by the paper-form oracle
    of conftest.  The draws are the call's shared stream:
    standard_normal((4, n)) per chunk, in order."""
    theta = params.theta
    rng = np.random.default_rng(seed)
    chunks = [rng.standard_normal((4, min(_MC_CHUNK, samples - start)))
              for start in range(0, samples, _MC_CHUNK)]
    draws = math.sqrt(0.5) * np.concatenate(chunks, axis=1)
    alpha = draws[0] + 1j * draws[1]
    beta = draws[2] + 1j * draws[3]
    gauss_weight = np.exp(np.abs(alpha) ** 2 + np.abs(beta) ** 2)
    out = []
    for psi1, psi2 in probes:
        if z is None:
            left = _coherent_overlap_raw(theta, psi1.alpha, psi1.beta, alpha, beta)
            right = _coherent_overlap_raw(theta, alpha, beta, psi2.alpha, psi2.beta)
        else:
            left = np.exp(_squeezed_overlap_exponent(
                theta, psi1.alpha, psi1.beta, alpha, beta, z.r, z.phi))
            right = np.conjugate(np.exp(_squeezed_overlap_exponent(
                theta, psi2.alpha, psi2.beta, alpha, beta, z.r, z.phi)))
        values = (1.0 - theta * theta) * left * right * gauss_weight
        spread = (values.real.var(ddof=1) + values.imag.var(ddof=1)) / samples
        out.append((complex(values.mean()), math.sqrt(spread)))
    return out


# the diagonal probe has a real integrand, so it takes the path without
# phase factors; the last probe's phases reach |27|, wrapping past +-pi
MC_ORACLE_PROBES = [(PROBE, ModeAmplitudes(0.5, 0.5)),
                    (ModeAmplitudes(0.5, 0.5), ModeAmplitudes(-0.5, 0.3j)),
                    (PROBE, PROBE),
                    (ModeAmplitudes(3.0, 0.5j), ModeAmplitudes(2.5j, 3.0))]


@pytest.mark.parametrize("samples", [1000, _MC_BLOCK - 1, _MC_BLOCK + 1, _MC_CHUNK - 1,
                                     _MC_CHUNK + 1, _MC_CHUNK + _MC_BLOCK // 2,
                                     5 * _MC_CHUNK // 2])
@pytest.mark.parametrize("theta", [0.3, 0.6, 0.9])
def test_mc_fused_integrand_matches_three_exp_oracle(theta, samples):
    p = make_params(theta, theta, 1.0)
    for z in (None, SqueezeParam(0.3, 0.8)):
        got = overcompleteness_mc(p, MC_ORACLE_PROBES, samples, 11, z=z)
        want = _three_exp_mc(p, MC_ORACLE_PROBES, samples, 11, z=z)
        for rep, (estimate, stderr), (psi1, psi2) in zip(got, want, MC_ORACLE_PROBES):
            assert abs(rep.estimate - estimate) <= 1e-12 * abs(estimate)
            assert abs(rep.stderr - stderr) <= 1e-12 * stderr
            if psi1 == psi2:
                assert rep.estimate.imag == 0.0


_AMP = st.floats(-1.5, 1.5)
_DRAW = st.floats(-4.0, 4.0)


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(0.0, 0.95), r=st.sampled_from([0.0, 0.05, 0.3, 0.8]),
       phi=st.floats(-math.pi, math.pi), amps=st.lists(_AMP, min_size=8, max_size=8),
       g=st.lists(_DRAW, min_size=4, max_size=4))
def test_log_integrand_is_the_polarized_quadratic_form(theta, r, phi, amps, g):
    psi1 = ModeAmplitudes(complex(amps[0], amps[1]), complex(amps[2], amps[3]))
    psi2 = ModeAmplitudes(complex(amps[4], amps[5]), complex(amps[6], amps[7]))
    c, w, quad = analytic._identity_integrand_coefficients(theta, psi1, psi2, r, phi)
    assert np.abs(quad.imag).max() <= 1e-14
    g = np.array(g)
    fused = np.exp(c + w @ g + g @ quad.real @ g)

    alpha = math.sqrt(0.5) * complex(g[0], g[1])
    beta = math.sqrt(0.5) * complex(g[2], g[3])
    if r == 0.0:
        left = _coherent_overlap_raw(theta, psi1.alpha, psi1.beta, alpha, beta)
        right = _coherent_overlap_raw(theta, alpha, beta, psi2.alpha, psi2.beta)
    else:
        left = np.exp(_squeezed_overlap_exponent(theta, psi1.alpha, psi1.beta, alpha, beta, r, phi))
        right = np.conjugate(
            np.exp(_squeezed_overlap_exponent(theta, psi2.alpha, psi2.beta, alpha, beta, r, phi)))
    want = (1.0 - theta * theta) * left * right * math.exp(abs(alpha) ** 2 + abs(beta) ** 2)
    assert abs(fused - want) <= 1e-12 * abs(want)


def test_mc_effective_sample_size():
    p = make_params(0.6, 0.6, 1.0)
    for z in (None, SqueezeParam(0.3, 0.8)):
        first = overcompleteness_mc(p, MC_ORACLE_PROBES, 20_000, 7, z=z)
        second = overcompleteness_mc(p, MC_ORACLE_PROBES, 20_000, 7, z=z)
        for a, b in zip(first, second):
            assert 0.0 < a.ess <= a.samples
            assert a.ess == b.ess
    # a flat integrand counts every sample: <0|alpha, beta><alpha, beta|0>
    # times the weight is the constant 1 - theta**2 at theta = 0
    flat = overcompleteness_mc(P00, [(VAC, VAC)], 5000, 3)[0]
    assert flat.ess == pytest.approx(5000, rel=1e-12)


MC_FIVE_PROBES = [(VAC, VAC), (ModeAmplitudes(1.0, 0.0), ModeAmplitudes(0.0, 1.0)),
                  (PROBE, PROBE), (ModeAmplitudes(0.5, 0.5), ModeAmplitudes(-0.5, 0.3j)),
                  (ModeAmplitudes(1.0, 0.0), ModeAmplitudes(1.0, 0.0))]


def _close(got, want):
    return abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("z", [None, SqueezeParam(0.3, 0.8)])
def test_mc_probe_does_not_depend_on_the_other_probes(z):
    # the probes share one stream of draws, and each is its own row of
    # the GEMM, so a probe reads the same alone, among others, or moved
    p = make_params(0.4, 0.4, 1.0)
    samples = _MC_CHUNK + 1000
    together = overcompleteness_mc(p, MC_FIVE_PROBES, samples, 5, z=z)
    reordered = overcompleteness_mc(p, MC_FIVE_PROBES[::-1], samples, 5, z=z)[::-1]
    for index, probe in enumerate(MC_FIVE_PROBES):
        alone = overcompleteness_mc(p, [probe], samples, 5, z=z)[0]
        for rep in (together[index], reordered[index]):
            assert _close(rep.estimate, alone.estimate)
            assert _close(rep.stderr, alone.stderr)
            assert _close(rep.ess, alone.ess)


def test_mc_memory_does_not_grow_with_the_samples():
    # the draws are streamed, so the call holds one chunk of draws and the
    # block buffers; drawing the whole (4, samples) array and the
    # integrand values peaks above 50 MB
    p = make_params(0.5, 0.5, 1.0)
    tracemalloc.start()
    try:
        overcompleteness_mc(p, MC_FIVE_PROBES, 1_000_000, 42)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24e6, peak


def test_mc_arithmetic_runs_in_fixed_block_buffers():
    # one chunk of draws (1 MB) and buffers of _MC_BLOCK columns: no
    # temporary grows with the chunk times the probe count
    p = make_params(0.5, 0.5, 1.0)
    tracemalloc.start()
    try:
        reports = overcompleteness_mc(p, MC_FIVE_PROBES, 1_000_000, 42)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6e6, peak
    for rep, (psi1, psi2) in zip(reports, MC_FIVE_PROBES):
        if psi1 == psi2:
            assert rep.estimate.imag == 0.0


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(0.0, 0.999), r=st.floats(0.0, 0.5),
       phi=st.floats(-math.pi, math.pi), amps=st.lists(_AMP, min_size=8, max_size=8))
def test_identity_integrand_has_the_closed_form_gaussian_mean(theta, r, phi, amps):
    # F = exp(c + w.g + g.Q.g) with g ~ N(0, I) has the mean
    # det(A)^(-1/2) exp(c + w.A^-1.w / 2), A = I - 2 Re Q, and the
    # resolution of the identity says that mean is <psi1|psi2>
    psi1 = ModeAmplitudes(complex(amps[0], amps[1]), complex(amps[2], amps[3]))
    psi2 = ModeAmplitudes(complex(amps[4], amps[5]), complex(amps[6], amps[7]))
    c, w, quad = analytic._identity_integrand_coefficients(theta, psi1, psi2, r, phi)
    a = np.eye(4) - 2.0 * quad.real
    mean = np.linalg.det(a) ** -0.5 * np.exp(c + 0.5 * w @ np.linalg.solve(a, w))
    p = make_params(max(theta, 1e-200), max(theta, 1e-200), 1.0)
    want = analytic.coherent_overlap(p, psi1, psi2)
    assert abs(mean - want) <= 1e-10 * abs(want)


# ---------------------------------------------------------------------------
# convergence and the critical boundary


def test_convergence_probe_shrinks():
    reports = convergence_probe(P05, ModeAmplitudes(0.5, 0.2j),
                                SqueezeParam(0.3, math.pi / 4), (20, 30, 40))
    names = {r.check_id for r in reports}
    assert names == {"convergence:" + n for n in
                     ("dx2", "dy2", "dpx2", "dpy2", "dX2", "dP2", "vac_overlap")}
    for report in reports:
        assert report.passed, (report.check_id, report.metadata["differences"])
        assert report.residual < 1e-8


def test_convergence_probe_unsqueezed_floor():
    # coherent states truncate so sharply the differences sit at float noise
    reports = convergence_probe(P05, ModeAmplitudes(0.4, 0.1j), None, (20, 30))
    for report in reports:
        assert report.passed
        assert report.residual < 1e-12


def test_convergence_probe_reads_each_quantity_relative_to_itself():
    # the variances are near 1e-200 here: a fixed floor would read their
    # differences as ~1e-182, a vacuous pass
    reports = convergence_probe(make_params(1e-200, 5e-201, 1e-200), ModeAmplitudes(0.5, 0.2j),
                                SqueezeParam(0.3, 0.785), (20, 30, 40))
    for report in reports:
        *_, before, last = report.metadata["values"]
        assert report.residual == abs(last - before) / abs(last), report.check_id


def test_convergence_probe_validates_cutoffs():
    with pytest.raises(ValueError):
        convergence_probe(P05, ModeAmplitudes(0.1, 0.0), None, (30,))
    with pytest.raises(ValueError):
        convergence_probe(P05, ModeAmplitudes(0.1, 0.0), None, (30, 20))
    with pytest.raises(ValueError):
        convergence_probe(P05, ModeAmplitudes(0.1, 0.0), None, (20, 20, 30))


def test_supercritical_witness_violates_floor():
    witness = supercritical_witness(make_params(2.0, 2.0, 1.0), r=0.3)
    assert witness.violated
    assert witness.product < witness.floor
    assert witness.phi == pytest.approx(math.pi / 2)

    benign = supercritical_witness(P05, r=0.3)
    assert not benign.violated
    assert benign.product >= benign.floor
