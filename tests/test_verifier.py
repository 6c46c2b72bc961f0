"""Verification layer: identity suites, crosschecks, MC, convergence."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fit_mode_block, squeeze_conjugated_block, squeezed_eigen_residual
from ncsq import (
    BufferOutOfRange,
    ModeAmplitudes,
    SamplesTooFew,
    SamplesTooMany,
    SqueezeParam,
    ThetaAtOrAboveOne,
    adjoint_mode_transform,
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
    make_state,
    overcompleteness_mc,
    supercritical_witness,
)
from ncsq import analytic, fock, verifier
from ncsq.fock import (
    PopulationOverflow,
    SqueezeTooLargeForCutoff,
    _displacement_generator,
    _squeeze_generator,
)
from ncsq.verifier import (
    MC_MAX_SAMPLES,
    _MC_CHUNK,
    _commutator_residual,
    _safe_block_max,
)

P05 = make_params(0.5, 0.5, 1.0)
P00 = make_params(1e-200, 1e-200, 1.0)

IDENTITY_IDS = {
    "heisenberg_weyl",
    "deformed_algebra",
    "ordinary_algebra",
    "displacement_property",
    "bogoliubov",
    "eigenvalue_relations",
    "two_mode_commutator",
}


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
    block = ops.a_def.matrix[idx][:, idx].toarray()
    transform, resid = fit_mode_block(ops, block, idx)
    assert resid < 1e-12
    assert transform.c_a == pytest.approx(1.0, abs=1e-12)
    for coef in (transform.c_b, transform.c_bdag, transform.c_adag):
        assert abs(coef) < 1e-12


def test_direct_fit_adjoint_and_closed_form_agree(space30):
    """Three routes to the same coefficients: conjugate-and-fit on a clean
    block, the adjoint flow, and the closed forms."""
    z = SqueezeParam(0.2, 0.6)
    ops = build_operator_set(P05, space30)
    idx = np.flatnonzero(space30.n_tot <= 6)
    conj_a = squeeze_conjugated_block(ops, z, ops.a_def, idx)

    # full-exponential conjugation reflects truncation error deep into the
    # matrix, so the direct fit must stay on a low-occupation block
    fitted, fit_resid = fit_mode_block(ops, conj_a, idx)
    assert fit_resid < 1e-8

    ad_a, _, closure = adjoint_mode_transform(_squeeze_generator(ops, z), ops)
    assert closure < 1e-10

    closed = bogoliubov_coefficients(P05, z).mode_a
    for attr in ("c_a", "c_b", "c_bdag", "c_adag"):
        assert abs(getattr(fitted, attr) - getattr(closed, attr)) < 1e-8
        assert abs(getattr(ad_a, attr) - getattr(closed, attr)) < 1e-8


def test_adjoint_transform_textbook_limit(space20):
    params = make_params(1e-4, 1e-4, 1.0)
    ops = build_operator_set(params, space20)
    for r, phi in [(0.2, 0.0), (0.3, 1.1)]:
        z = SqueezeParam(r, phi)
        ad_a, ad_b, closure = adjoint_mode_transform(
            _squeeze_generator(ops, z), ops)
        assert closure < 1e-10
        phase = cmath.exp(1j * phi)
        assert abs(ad_a.c_a - math.cosh(r)) < 1e-6
        assert abs(ad_a.c_bdag - phase * math.sinh(r)) < 1e-6
        # the cross coefficients vanish only like r*theta, not faster
        assert abs(ad_a.c_b) < 5e-5 and abs(ad_a.c_adag) < 5e-5
        assert abs(ad_b.c_b - math.cosh(r)) < 1e-6
        assert abs(ad_b.c_adag - phase * math.sinh(r)) < 1e-6


# ---------------------------------------------------------------------------
# identity suite


def test_identity_suite_all_pass(space30):
    reports = identity_suite(P05, space30, ModeAmplitudes(0.5, 0.2j),
                             SqueezeParam(0.3, math.pi / 4))
    assert {r.check_id for r in reports} == IDENTITY_IDS
    for report in reports:
        assert report.passed, (report.check_id, report.residual)
        assert report.residual < 1e-8


def test_identity_suite_without_squeeze(space20):
    reports = identity_suite(P05, space20, ModeAmplitudes(0.3, 0.1j),
                             SqueezeParam(0.0, 0.0))
    assert {r.check_id for r in reports} == IDENTITY_IDS
    assert all(r.passed for r in reports)


def test_displacement_shift_matches_dense_conjugation(space20):
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
        m = mode.matrix.toarray()
        shift = (disp.conj().T @ m @ disp - m - lam * eye)[np.ix_(idx, idx)]
        assert np.abs(shift).max() < 1e-8

    reports = identity_suite(P05, space20, amps, SqueezeParam(0.0, 0.0), ops=ops)
    by_id = {r.check_id: r for r in reports}
    assert by_id["displacement_property"].residual <= 1e-12

    gen = _displacement_generator(ops, amps)
    wrong = _commutator_residual(ops.a_def, gen, lams[0] - 1e-3, 5)
    assert wrong == pytest.approx(1e-3, rel=1e-8)


def test_identity_suite_at_a_large_displacement_and_cutoff():
    # |alpha| 0.7 sits well inside what the tail guard admits at cutoff 40
    p = make_params(0.8, 0.8, 1.0)
    reports = identity_suite(p, make_space(40), ModeAmplitudes(0.7j, 0.0),
                             SqueezeParam(0.2, 0.5))
    assert {r.check_id for r in reports} == IDENTITY_IDS
    for report in reports:
        assert report.passed, (report.check_id, report.residual)


@pytest.mark.parametrize("theta", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("amps, z", [
    (ModeAmplitudes(0.5, 0.2j), SqueezeParam(0.3, math.pi / 4)),
    (ModeAmplitudes(0.7, 0.0), SqueezeParam(0.2, -1.0)),
    (ModeAmplitudes(0.0, -0.4j), SqueezeParam(0.38 / 1.8, 2.0)),
])
def test_eigenvalue_relations_equal_the_squeezed_round_trip(space30, theta, amps, z):
    """The truncated squeeze S is unitary, so the relation of S m S+ on
    S|coh>, applied as S+, then m, then S, has the residual that
    identity_suite reports on |coh> alone."""
    p = make_params(theta, theta, 1.0)
    ops = build_operator_set(p, space30)
    by_id = {r.check_id: r for r in identity_suite(p, space30, amps, z, ops=ops)}
    # squeezing fattens the tail (3e-10 within 5 quanta at r 0.3, past the
    # default guard); the oracle only needs the vector
    sqz = make_state(p, space30, amps, z, ops=ops, tail_tol=1e-6)
    round_trip = squeezed_eigen_residual(ops, z, sqz.vector,
                                         *coherent_eigenvalues(p, amps))
    assert abs(round_trip - by_id["eigenvalue_relations"].residual) <= 1e-14


@pytest.mark.parametrize("amps, calls_made", [
    (ModeAmplitudes(0.5, 0.2j), 1),
    (ModeAmplitudes(0.0, 0.0), 0),
])
def test_identity_suite_makes_one_exponential(space30, monkeypatch, amps, calls_made):
    ops = build_operator_set(P05, space30)
    calls = _count_expm_multiply(monkeypatch)
    identity_suite(P05, space30, amps, SqueezeParam(0.3, math.pi / 4), ops=ops)
    assert len(calls) == calls_made
    assert not hasattr(verifier, "expm_multiply")


def test_identity_suite_refuses_a_failure_the_tail_explains():
    # at cutoff 40 this coherent state leaks 7e-10 of its population into
    # the top 5 levels, past the default guard of 1e-10, and its eigenvalue
    # relation reads 1.2e-7 against 1e-8: a refusal, not a failed check
    p = make_params(0.8, 0.8, 1.0)
    amp = 2.5 / math.sqrt(2.0)
    amps = ModeAmplitudes(amp * cmath.exp(0.25j * math.pi), amp)
    with pytest.raises(PopulationOverflow, match="within 5 quanta of cutoff 40"):
        identity_suite(p, make_space(40), amps, SqueezeParam(0.0, 0.0))


_BOX = st.floats(-2.0, 2.0)


@settings(max_examples=40, deadline=None)
@given(theta=st.floats(0.0, 0.95), re_a=_BOX, im_a=_BOX, re_b=_BOX, im_b=_BOX)
def test_displacement_commutator_is_the_closed_form_shift(
        space12, theta, re_a, im_a, re_b, im_b):
    p = make_params(theta or 1e-200, theta or 1e-200, 1.0)
    ops = build_operator_set(p, space12)
    amps = ModeAmplitudes(complex(re_a, im_a), complex(re_b, im_b))
    gen = _displacement_generator(ops, amps)
    lam_a, lam_b = coherent_eigenvalues(p, amps)
    assert _commutator_residual(ops.a_def, gen, lam_a, 5) <= 1e-12
    assert _commutator_residual(ops.b_def, gen, lam_b, 5) <= 1e-12


@pytest.mark.parametrize("buffer", [-1, 21])
def test_suites_refuse_out_of_range_buffer(space20, buffer):
    amps, z = ModeAmplitudes(0.1, 0.0), SqueezeParam(0.1, 0.0)
    with pytest.raises(BufferOutOfRange, match=r"\[0, 20\]"):
        identity_suite(P05, space20, amps, z, buffer=buffer)
    with pytest.raises(BufferOutOfRange, match=r"\[0, 20\]"):
        crosscheck_suite(P05, space20, [(amps, z)], buffer=buffer)


def test_identity_suite_reports_at_the_buffer_range_edges(space12):
    # buffer = cutoff leaves only |0,0>, where every span operator is zero:
    # the suite must still report each class, not crash on the empty fit
    for buffer in (0, space12.cutoff):
        reports = identity_suite(P05, space12, ModeAmplitudes(0.1, 0.0),
                                 SqueezeParam(0.1, 0.0), buffer=buffer)
        assert {r.check_id for r in reports} == IDENTITY_IDS


def test_safe_block_max_refuses_an_empty_block(space12):
    ops = build_operator_set(P05, space12)
    assert _safe_block_max(space12, ops.a_def.matrix, space12.cutoff) == 0.0
    with pytest.raises(BufferOutOfRange):
        _safe_block_max(space12, ops.a_def.matrix, space12.cutoff + 1)


def test_identity_reports_carry_context(space20):
    reports = identity_suite(P05, space20, ModeAmplitudes(0.2, 0.0),
                             SqueezeParam(0.1, 0.0))
    by_id = {r.check_id: r for r in reports}
    assert by_id["bogoliubov"].metadata["r"] == 0.1
    assert by_id["heisenberg_weyl"].metadata["cutoff"] == 20
    assert by_id["bogoliubov"].metadata["closure_residual"] < 1e-10


# ---------------------------------------------------------------------------
# state-level crosschecks


def test_crosscheck_squeezed_vacuum():
    space = make_space(40)
    cases = [(ModeAmplitudes(0.0, 0.0), SqueezeParam(0.3, math.pi / 4))]
    reports = crosscheck_suite(P05, space, cases)
    assert len(reports) == 2
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
    assert ids == ["overlap[0]", "variance[0]", "overlap[1]", "variance[1]"]
    assert reports[2].metadata["r"] == 0.2


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


def _count_expm_multiply(monkeypatch):
    calls = []
    real = fock.expm_multiply

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fock, "expm_multiply", counted)
    return calls


def test_crosscheck_builds_each_state_once(space30, monkeypatch):
    calls = _count_expm_multiply(monkeypatch)
    cases = [(ModeAmplitudes(0.3, 0.1j), None),
             (ModeAmplitudes(0.0, 0.2j), SqueezeParam(0.2, 0.5)),
             (ModeAmplitudes(-0.2j, 0.1), SqueezeParam(0.0, 1.0)),
             (ModeAmplitudes(0.1, 0.0), SqueezeParam(0.15, -2.0))]
    reports = crosscheck_suite(P05, space30, cases)
    assert all(r.passed for r in reports)
    # one displacement per case and one squeeze per squeezed case
    assert len(calls) == 2 * 1 + 2 * 2


def test_suites_refuse_a_large_squeeze_before_building_a_state(space20, monkeypatch):
    calls = _count_expm_multiply(monkeypatch)
    ops = build_operator_set(P05, space20)
    amps, big = ModeAmplitudes(0.3, 0.0), SqueezeParam(0.75, 0.0)
    with pytest.raises(SqueezeTooLargeForCutoff):
        crosscheck_suite(P05, space20, [(amps, None), (amps, big)], ops=ops)
    with pytest.raises(SqueezeTooLargeForCutoff):
        identity_suite(P05, space20, amps, big, ops=ops)
    assert calls == []
    assert "ground" not in vars(ops)


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
    p = make_params(0.6, 0.6, 1.0)
    first = overcompleteness_mc(p, [(PROBE, VAC)], 20_000, 7)
    second = overcompleteness_mc(p, [(PROBE, VAC)], 20_000, 7)
    assert first[0].estimate == second[0].estimate
    assert first[0].stderr == second[0].stderr
    third = overcompleteness_mc(p, [(PROBE, VAC)], 20_000, 8)
    assert third[0].estimate != first[0].estimate


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


def _three_exp_mc(params, probes, samples, seed, z=None):
    """Estimates and stderrs from the integrand as a product of three
    exponentials over the whole sample array: two overlaps and the
    importance weight, each evaluated on its own.  The draws are the
    call's shared stream: standard_normal((4, n)) per chunk, in order."""
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
            left = analytic._coherent_overlap_raw(theta, psi1.alpha, psi1.beta, alpha, beta)
            right = analytic._coherent_overlap_raw(theta, alpha, beta, psi2.alpha, psi2.beta)
        else:
            left = analytic._squeezed_overlap_raw(
                theta, psi1.alpha, psi1.beta, alpha, beta, z.r, z.phi)
            right = np.conjugate(analytic._squeezed_overlap_raw(
                theta, psi2.alpha, psi2.beta, alpha, beta, z.r, z.phi))
        values = (1.0 - theta * theta) * left * right * gauss_weight
        spread = (values.real.var(ddof=1) + values.imag.var(ddof=1)) / samples
        out.append((complex(values.mean()), math.sqrt(spread)))
    return out


MC_ORACLE_PROBES = [(PROBE, ModeAmplitudes(0.5, 0.5)),
                    (ModeAmplitudes(0.5, 0.5), ModeAmplitudes(-0.5, 0.3j))]


@pytest.mark.parametrize("samples", [1000, _MC_CHUNK - 1, _MC_CHUNK + 1, 5 * _MC_CHUNK // 2])
@pytest.mark.parametrize("theta", [0.3, 0.6, 0.9])
def test_mc_fused_integrand_matches_three_exp_oracle(theta, samples):
    p = make_params(theta, theta, 1.0)
    for z in (None, SqueezeParam(0.3, 0.8)):
        got = overcompleteness_mc(p, MC_ORACLE_PROBES, samples, 11, z=z)
        want = _three_exp_mc(p, MC_ORACLE_PROBES, samples, 11, z=z)
        for rep, (estimate, stderr) in zip(got, want):
            assert abs(rep.estimate - estimate) <= 1e-12 * abs(estimate)
            assert abs(rep.stderr - stderr) <= 1e-12 * stderr


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
        left = analytic._coherent_overlap_raw(theta, psi1.alpha, psi1.beta, alpha, beta)
        right = analytic._coherent_overlap_raw(theta, alpha, beta, psi2.alpha, psi2.beta)
    else:
        left = analytic._squeezed_overlap_raw(theta, psi1.alpha, psi1.beta, alpha, beta, r, phi)
        right = np.conjugate(
            analytic._squeezed_overlap_raw(theta, psi2.alpha, psi2.beta, alpha, beta, r, phi))
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
    # the draws are streamed, so the call holds a few chunks; drawing the
    # whole (4, samples) array and the integrand values peaks above 50 MB
    p = make_params(0.5, 0.5, 1.0)
    tracemalloc.start()
    try:
        overcompleteness_mc(p, MC_FIVE_PROBES, 1_000_000, 42)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24e6, peak


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
