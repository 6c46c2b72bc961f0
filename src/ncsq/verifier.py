"""Crosschecks between the closed forms and the truncated-matrix engine.

Three families of evidence that the two sides describe the same physics:

* identity checks: commutator residuals, the displacement shift property
  (as its c-number commutator) and the deformed Bogoliubov transformation
  (as the commutators of the squeeze generator with each annihilator,
  against their closed forms), measured directly on matrices over the
  safe subspace, where a single commutator is exact and a conjugation is
  not; they build no state;
* state crosschecks, which build every state: the eigenvalue relations of
  each coherent state, and overlaps and quadrature variances of concrete
  states, engine versus closed form;
* Monte-Carlo overcompleteness: the weighted coherent-state integral of
  the identity operator, sampled with a Gaussian importance density and
  compared against the closed-form overlap it must reproduce.

Every result is a small immutable report carrying its residual, tolerance
and enough metadata to rerun it.  The Monte Carlo draws one stream per
call from its seed and shares it among the probes of the call, so a
probe's result does not depend on the other probes or their order.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import analytic
from .analytic import ModeAmplitudes, SqueezeParam
from .fock import (
    DEFAULT_BUFFER,
    FockSpace,
    OperatorMatrix,
    OperatorSet,
    SpaceMismatch,
    _adjoint,
    _commutator_bands,
    _displacement_generator,
    _from_coefficients,
    _identity,
    _refuse_large_squeeze,
    _slices,
    _squeeze_generator,
    build_operator_set,
    check_buffer,
    check_displacement,
    expectation_and_variance,
    make_space,
    make_state,
)
from .params import NcParams, NonFinite

__all__ = [
    "COMMUTATOR_TOL",
    "CROSSCHECK_TOL",
    "IntegrandUnderflow",
    "MC_MAX_SAMPLES",
    "MC_MAX_Z_SCORE",
    "OPERATOR_TOL",
    "McReport",
    "ResidualReport",
    "SamplesTooFew",
    "SamplesTooMany",
    "SupercriticalWitness",
    "ThetaAtOrAboveOne",
    "algebra_residuals",
    "convergence_probe",
    "crosscheck_suite",
    "identity_suite",
    "overcompleteness_mc",
    "supercritical_witness",
]

COMMUTATOR_TOL = 1e-10
OPERATOR_TOL = 1e-8
CROSSCHECK_TOL = 1e-6
MC_MAX_Z_SCORE = 4.0
MC_MIN_SAMPLES = 1000
# The Monte Carlo streams its draws, so its memory does not grow with the
# sample count; this cap bounds the run time of one call.
MC_MAX_SAMPLES = 10_000_000

# Samples per chunk of the Monte Carlo.  It fixes the random stream: chunk
# k is standard_normal((4, n_k)) from the call's generator.
_MC_CHUNK = 1 << 15
# Samples per block: the arithmetic runs on buffers of this many columns,
# reused for every block, so the working set stays in L2.
_MC_BLOCK = 1 << 12
# Index pairs (i <= j) of the quadratic features g_i g_j.
_MC_PAIRS = np.triu_indices(4)


class ThetaAtOrAboveOne(ValueError):
    """The overcompleteness weight 1 - theta**2 is not positive."""


class SamplesTooFew(ValueError):
    """Monte-Carlo sample count below the statistical minimum."""


class SamplesTooMany(ValueError):
    """Monte-Carlo sample count above the supported maximum."""


class IntegrandUnderflow(ValueError):
    """A Monte-Carlo probe whose squared integrand underflowed to 0 on
    every draw, so its standard error and effective sample size are
    undefined."""


@dataclass(frozen=True)
class ResidualReport:
    """One deterministic check: residual against a fixed tolerance."""

    check_id: str
    residual: float
    tolerance: float
    passed: bool
    metadata: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class McReport:
    """One Monte-Carlo overcompleteness check.

    ``ess`` is Kish's effective sample size (sum |f|)**2 / sum |f|**2 of
    the integrand magnitudes |f|: equal to ``samples`` for a flat
    integrand, and small when a few samples carry the estimate, in which
    case ``stderr`` (and the z-score) is not to be trusted.
    """

    estimate: complex
    reference: complex
    stderr: float
    samples: int
    seed: int
    z_score: float
    ess: float

    @property
    def passed(self) -> bool:
        return self.z_score <= MC_MAX_Z_SCORE


@dataclass(frozen=True)
class SupercriticalWitness:
    """A (r, phi) point whose x-px uncertainty product undercuts its floor."""

    r: float
    phi: float
    product: float
    floor: float
    violated: bool


def _report(check_id: str, residual: float, tolerance: float, **metadata) -> ResidualReport:
    residual = float(residual)
    return ResidualReport(
        check_id=check_id,
        residual=residual,
        tolerance=tolerance,
        passed=residual <= tolerance,
        metadata=metadata,
    )


def _params_meta(params: NcParams, space: FockSpace, buffer: int) -> Dict[str, object]:
    return {
        "mu": params.mu,
        "nu": params.nu,
        "hbar": params.hbar,
        "theta": params.theta,
        "cutoff": space.cutoff,
        "buffer": buffer,
    }


def _safe_mask(space: FockSpace, buffer: int) -> np.ndarray:
    """Whether each index has total occupation <= cutoff - buffer; never
    all false, because check_buffer refuses a buffer outside [0, cutoff]."""
    check_buffer(space, buffer)
    return space.n_tot <= space.cutoff - buffer


def _bands_safe_max(safe: np.ndarray, bands) -> float:
    """Max magnitude over the (offset, band) pairs' entries whose row and
    column are both safe; a NaN in any band reads NaN."""
    worst = 0.0
    for offset, band in bands:
        rows, cols = _slices(offset, safe.size)
        worst = np.maximum(worst, np.abs(band[rows][safe[rows] & safe[cols]]).max(initial=0.0))
    return float(worst)


def _safe_block_max(space: FockSpace, op: OperatorMatrix, buffer: int) -> float:
    """Max magnitude over entries whose row and column are both safe."""
    return _bands_safe_max(_safe_mask(space, buffer), zip(op.offsets, op.bands))


_QUADRATURE_NAMES = ("dx2", "dy2", "dpx2", "dpy2", "dX2", "dP2")


def _quadratures(ops: OperatorSet) -> Dict[str, OperatorMatrix]:
    """x, y, px, py and the collective X = (x + y)/2, P = (px + py)/2,
    keyed by the names of their variances in _QUADRATURE_NAMES order."""
    x, y, px, py = ops.x, ops.y, ops.px, ops.py
    return dict(zip(_QUADRATURE_NAMES, (x, y, px, py, 0.5 * (x + y), 0.5 * (px + py))))


def _commutator_residual(
    left: OperatorMatrix, right: OperatorMatrix, want: OperatorMatrix, buffer: int
) -> float:
    """Safe-block max of [left, right] - want, taken one output band at a
    time: want's band at each offset is subtracted from the commutator's,
    and the difference dropped before the next band, so no product,
    commutator or difference operator is formed."""
    wants = dict(zip(want.offsets, want.bands))

    def differences():
        for offset, band in _commutator_bands(left, right):
            if offset in wants:
                band -= wants.pop(offset)
            yield offset, band
        # want's offsets that the commutator lacks
        yield from wants.items()

    return _bands_safe_max(_safe_mask(left.space, buffer), differences())


def algebra_residuals(
    ops: OperatorSet, buffer: int = DEFAULT_BUFFER
) -> Dict[str, float]:
    """Safe-subspace residuals of every defining commutation relation,
    each divided by min(1, size), with size the scale of the terms the
    relation sums: mu for [x, y], nu for [px, py], hbar for [x, px],
    [y, py] and [X, P], max(mu, nu) for [x, py] and [y, px] (zero by
    cancellation of mu- and nu-sized terms), and 1 for the dimensionless
    boson algebras.  Below 1 a residual is so read relative to its own
    relation, and a small scale cannot pass vacuously; at sizes >= 1 the
    divisor is exactly 1."""
    p = ops.params
    quads = _quadratures(ops)
    relations = {
        "xy": (ops.x, ops.y, 1j * p.mu, p.mu),
        "pxpy": (ops.px, ops.py, 1j * p.nu, p.nu),
        "xpx": (ops.x, ops.px, 1j * p.hbar, p.hbar),
        "ypy": (ops.y, ops.py, 1j * p.hbar, p.hbar),
        "xpy": (ops.x, ops.py, 0.0, max(p.mu, p.nu)),
        "ypx": (ops.y, ops.px, 0.0, max(p.mu, p.nu)),
        "a_adag": (ops.a_def, ops.a_def.dag(), 1.0, 1.0),
        "b_bdag": (ops.b_def, ops.b_def.dag(), 1.0, 1.0),
        "ab": (ops.a_def, ops.b_def, 0.0, 1.0),
        "a_bdag": (ops.a_def, ops.b_def.dag(), 1j * p.theta, 1.0),
        "b_adag": (ops.b_def, ops.a_def.dag(), -1j * p.theta, 1.0),
        "ord_a_adag": (ops.a_ord, ops.a_ord.dag(), 1.0, 1.0),
        "ord_b_bdag": (ops.b_ord, ops.b_ord.dag(), 1.0, 1.0),
        "ord_ab": (ops.a_ord, ops.b_ord, 0.0, 1.0),
        "ord_a_bdag": (ops.a_ord, ops.b_ord.dag(), 0.0, 1.0),
        "XP": (quads["dX2"], quads["dP2"], 0.5j * p.hbar, p.hbar),
    }
    eye = _identity(ops.space)
    return {key: _commutator_residual(left, right, lam * eye, buffer) / min(1.0, size)
            for key, (left, right, lam, size) in relations.items()}


def _mode_image(ops: OperatorSet, image: analytic.ModeTransform) -> OperatorMatrix:
    """image's combination of (a_def, b_def, b_def+, a_def+), built from the
    coefficient rows of a_def and b_def."""
    a_row, b_row = ops.coeffs[4:]
    row = (image.c_a * a_row + image.c_b * b_row
           + image.c_bdag * _adjoint(b_row) + image.c_adag * _adjoint(a_row))
    return _from_coefficients(ops.space, row)


def _squeeze_commutator_residual(
    ops: OperatorSet, z: SqueezeParam, buffer: int = DEFAULT_BUFFER
) -> float:
    """Worst safe-block max of [G, m] - want_m over m in (a_def, b_def),
    with G the squeeze generator and want_m from squeeze_commutators.

    These commutators generate the Bogoliubov transformation, so they
    check it at any squeeze strength, exactly on the safe block, where a
    conjugation by exp(G) would carry reflected truncation error.  The
    creators need no check of their own: the engine's G satisfies
    G+ = -G exactly, so [G, m+] = ([G, m])+.
    """
    gen = _squeeze_generator(ops, z)
    want = analytic.squeeze_commutators(ops.params, z)
    return max(
        _commutator_residual(gen, mode, _mode_image(ops, image), buffer)
        for mode, image in ((ops.a_def, want.mode_a), (ops.b_def, want.mode_b))
    )


# identity class -> the algebra_residuals entries it reports
_ALGEBRA_CLASSES = {
    "heisenberg_weyl": ("xy", "pxpy", "xpx", "ypy", "xpy", "ypx"),
    "deformed_algebra": ("a_adag", "b_bdag", "ab", "a_bdag", "b_adag"),
    "ordinary_algebra": ("ord_a_adag", "ord_b_bdag", "ord_ab", "ord_a_bdag"),
}


def identity_suite(
    ops: OperatorSet,
    amps: ModeAmplitudes,
    z: SqueezeParam,
    buffer: int = DEFAULT_BUFFER,
) -> List[ResidualReport]:
    """All operator-level identities of ops, one report per identity class.

    Classes: the phase-plane commutators, the deformed and ordinary boson
    algebras, the displacement shift property, the deformed Bogoliubov
    transformation and the collective-quadrature commutator.  The shift
    D+ m D = m + lambda_m holds exactly because [m, G] = lambda_m is a
    c-number for the displacement generator G, so it is checked as that
    commutator on the safe block.  The Bogoliubov transformation S m S+ is
    the flow of one annihilator's image [G, m] under the squeeze generator
    G, so it is checked as that commutator against squeeze_commutators, on
    the safe block, for m = a_def and b_def.  The suite builds no state:
    the eigenvalue relations are crosscheck_suite's.  Every residual is
    taken one output band of its commutator at a time, so the suite forms
    no product or commutator operator.  The commutator residuals are
    algebra_residuals', each relative to its own relation below size 1.
    Refuses a buffer
    outside [0, cutoff] with BufferOutOfRange, and a squeeze beyond
    make_state's bound with SqueezeTooLargeForCutoff, before computing
    anything; refuses a displacement whose mean occupation exceeds the
    cutoff with make_state's PopulationOverflow before building its
    generator.
    """
    params, space = ops.params, ops.space
    check_buffer(space, buffer)
    _refuse_large_squeeze(z)
    meta = _params_meta(params, space, buffer)
    resids = algebra_residuals(ops, buffer)
    reports = [
        _report(check_id, max(resids[k] for k in keys), COMMUTATOR_TOL, **meta)
        for check_id, keys in _ALGEBRA_CLASSES.items()
    ]

    lam_a, lam_b = analytic.coherent_eigenvalues(params, amps)
    # the suite builds no state, so it refuses only a displacement the
    # cutoff itself cannot hold, before its generator can overflow
    check_displacement(ops, amps, 0)
    gen = _displacement_generator(ops, amps)
    eye = _identity(space)
    reports.append(
        _report(
            "displacement_property",
            max(_commutator_residual(ops.a_def, gen, lam_a * eye, buffer),
                _commutator_residual(ops.b_def, gen, lam_b * eye, buffer)),
            OPERATOR_TOL,
            alpha=str(amps.alpha),
            beta=str(amps.beta),
            **meta,
        )
    )

    reports.append(
        _report(
            "bogoliubov",
            _squeeze_commutator_residual(ops, z, buffer),
            OPERATOR_TOL,
            r=z.r,
            phi=z.phi,
            **meta,
        )
    )

    reports.append(_report("two_mode_commutator", resids["XP"], COMMUTATOR_TOL, **meta))
    return reports


def _relative_error(got: complex, want: complex) -> float:
    # floored at the smallest normal float, not at a fixed small number,
    # so quantities of any scale are read relative to themselves
    return abs(got - want) / max(abs(want), sys.float_info.min)


def crosscheck_suite(
    params: NcParams,
    space: FockSpace,
    cases: Sequence[Tuple[ModeAmplitudes, Optional[SqueezeParam]]],
    buffer: int = DEFAULT_BUFFER,
    ops: Optional[OperatorSet] = None,
) -> List[ResidualReport]:
    """State-level closed-form versus engine comparisons.

    For each (amplitudes, squeeze) case: the eigenvalue relations
    m|coh> = lambda_m|coh> (m = a_def, b_def) of its coherent state at
    tolerance 1e-8, then the overlaps of the state against the deformed
    vacuum and the coherent state, and its six quadrature variances, at
    relative tolerance 1e-6 against their closed forms.  Every state comes
    from make_state, which takes its eigenvalues from the engine's own
    commutators and its squeeze from the coefficient rows, not from these
    closed forms.  Each case's coherent state is built once and serves as
    the bra; a squeezed case builds its state too, all under the tail
    guard at the caller's buffer.  Refuses a buffer outside [0, cutoff]
    (BufferOutOfRange), a squeeze beyond make_state's bound
    (SqueezeTooLargeForCutoff) and an ops built for other params or
    another cutoff (SpaceMismatch) before building anything.
    """
    check_buffer(space, buffer)
    for _, z in cases:
        _refuse_large_squeeze(z)
    if ops is None:
        ops = build_operator_set(params, space)
    elif ops.params != params or ops.space != space:
        raise SpaceMismatch(f"operator set built for theta {ops.params.theta!r} at cutoff "
                            f"{ops.space.cutoff}, not {params.theta!r} at {space.cutoff}")
    vac_amps = ModeAmplitudes(0.0, 0.0)
    vacuum = make_state(ops, buffer=buffer)
    quads = _quadratures(ops)

    reports: List[ResidualReport] = []
    for index, (amps, z) in enumerate(cases):
        coherent = make_state(ops, amps, buffer=buffer)
        case_meta = {
            "case": index,
            "alpha": str(amps.alpha),
            "beta": str(amps.beta),
            "r": 0.0 if z is None else z.r,
            "phi": 0.0 if z is None else z.phi,
        }
        case_meta.update(_params_meta(params, space, buffer))

        eig = max(np.linalg.norm(m @ coherent.vector - lam * coherent.vector) for m, lam
                  in zip((ops.a_def, ops.b_def), analytic.coherent_eigenvalues(params, amps)))
        reports.append(_report(f"eigenvalue[{index}]", eig, OPERATOR_TOL, **case_meta))

        if z is None or z.r == 0.0:
            state = coherent
            want_vac = analytic.coherent_overlap(params, vac_amps, amps)
            want_self = analytic.coherent_overlap(params, amps, amps)
        else:
            state = make_state(ops, amps, z, buffer=buffer)
            want_vac = analytic.squeezed_overlap(params, vac_amps, amps, z)
            want_self = analytic.squeezed_overlap(params, amps, amps, z)
        overlap_resid = max(
            _relative_error(vacuum.inner(state), want_vac),
            _relative_error(coherent.inner(state), want_self),
        )
        reports.append(
            _report(f"overlap[{index}]", overlap_resid, CROSSCHECK_TOL, **case_meta)
        )

        rep = analytic.single_mode_report(params, z)
        wants = (rep.dx2, rep.dy2, rep.dpx2, rep.dpy2, rep.dX2, rep.dP2)
        var_resid = 0.0
        values: Dict[str, float] = {}
        for (name, op), want in zip(quads.items(), wants):
            _, got = expectation_and_variance(state, op)
            values[name] = got
            var_resid = max(var_resid, _relative_error(got, want))
        reports.append(
            _report(
                f"variance[{index}]",
                var_resid,
                CROSSCHECK_TOL,
                oracle_values=values,
                **case_meta,
            )
        )
    return reports


def _phase_factors(phase: np.ndarray, scratch: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(cos(phase), sin(phase)), written into scratch and phase in place.

    By the half-angle identities: with u = tan(phase/2) and
    h = 2/(1 + u**2), cos = h - 1 and sin = u h.  numpy's float64 tan is
    vectorised where its cos and sin are scalar calls, so this runs
    several times faster than np.cos and np.sin.  It agrees with them to
    an absolute error below 2 * 2**-52, and exactly at +-0, +-pi and NaN.
    """
    np.multiply(phase, 0.5, out=phase)
    np.tan(phase, out=phase)
    np.multiply(phase, phase, out=scratch)
    scratch += 1.0
    np.divide(2.0, scratch, out=scratch)
    phase *= scratch
    scratch -= 1.0
    return scratch, phase


def overcompleteness_mc(
    params: NcParams,
    probes: Sequence[Tuple[ModeAmplitudes, ModeAmplitudes]],
    samples: int,
    seed: int,
    z: Optional[SqueezeParam] = None,
) -> List[McReport]:
    """Monte-Carlo check of the weighted resolution of the identity.

    For each probe pair (psi1, psi2) the matrix element <psi1|I|psi2> is
    estimated by sampling (alpha, beta) from the standard complex Gaussian
    and weighting with (1 - theta**2) * exp(|alpha|**2 + |beta|**2), the
    importance correction for that density.  The reference value is the
    closed-form overlap <psi1|psi2>.  With a squeeze given, the sampled
    family consists of squeezed states instead; the identity (and hence
    the reference) is unchanged.  No squeeze is the squeezed family at
    r = 0.

    All probes of a call share one stream of draws from default_rng(seed):
    chunk k is standard_normal((4, n_k)), n_k <= _MC_CHUNK, so the chunk
    fixes the stream, and a probe's result does not depend on the other
    probes or their order.  The arithmetic runs on blocks of _MC_BLOCK
    columns of each chunk, in buffers allocated once per call.  The log of
    each probe's integrand is a quadratic form in the four real draws
    (analytic._identity_integrand_coefficients), so one GEMM of the
    stacked coefficients against the block's 15 features (1, g_i,
    g_i g_j) gives every probe's log-integrand.  Each sample then costs
    one real exp per probe, and one tan per probe whose integrand has a
    phase, its cos and sin taken by the half-angle identities
    (_phase_factors): with psi1 == psi2 log F is real, and the estimate's
    imaginary part is exactly 0.  The block means and sums of squared
    deviations are merged as they come (Chan et al.'s pairwise update),
    so memory is one chunk of draws and the block buffers, whatever the
    sample count.  More than MC_MAX_SAMPLES samples are refused
    with SamplesTooMany, and a probe whose integrand coefficients are not
    finite (an amplitude near the square root of the largest float) with
    NonFinite, before any draw; a probe whose squared integrand underflows
    to 0 on every draw is refused after sampling with IntegrandUnderflow.
    """
    theta = params.theta
    if theta >= 1.0:
        raise ThetaAtOrAboveOne(
            f"resolution of the identity needs theta < 1, got {theta}"
        )
    if samples < MC_MIN_SAMPLES:
        raise SamplesTooFew(f"need at least {MC_MIN_SAMPLES} samples, got {samples}")
    if samples > MC_MAX_SAMPLES:
        raise SamplesTooMany(
            f"at most {MC_MAX_SAMPLES} samples are supported, got {samples} "
            f"(the cap bounds the run time; memory does not grow with the samples)"
        )
    if not probes:
        return []

    r, phi = (0.0, 0.0) if z is None else (z.r, z.phi)
    rows = []
    for index, (psi1, psi2) in enumerate(probes):
        # an amplitude near sqrt of the largest float overflows the
        # exponents: refuse it here, before any draw and with no warning
        with np.errstate(over="ignore", invalid="ignore"):
            c, w, quad = analytic._identity_integrand_coefficients(theta, psi1, psi2, r, phi)
        if not (cmath.isfinite(c) and np.isfinite(w).all() and np.isfinite(quad).all()):
            raise NonFinite(
                f"probe {index}: its integrand's coefficients are not finite "
                f"(amplitudes {psi1.alpha}, {psi1.beta}, {psi2.alpha}, {psi2.beta})"
            )
        # g.Q.g counts each off-diagonal pair twice
        pairs = (2.0 * quad.real - np.diag(quad.real.diagonal()))[_MC_PAIRS]
        rows.append(np.concatenate([[c], w, pairs]))
    table = np.array(rows)
    count = len(probes)
    # psi1 == psi2 makes log F exactly real, so only the other probes
    # have a phase and need cos and sin
    phased = np.flatnonzero(np.any(table.imag != 0, axis=1))
    # real rows, then the phased probes' imaginary rows: one GEMM gives
    # log F of every probe
    weights = np.vstack([table.real, table.imag[phased]])

    # running means and squared deviations of the rows of F: the real
    # parts, then the phased probes' imaginary parts
    mean = np.zeros(len(weights))
    sq_dev = np.zeros(len(weights))
    sum_abs = np.zeros(count)
    sum_sq = np.zeros(count)
    # one chunk of draws, and the buffers every block reuses; the
    # features are the rows 1, g_i, g_i g_j
    draw_buf = np.empty(4 * min(_MC_CHUNK, samples))
    features = np.empty((15, _MC_BLOCK))
    features[0] = 1.0
    log_buf = np.empty((len(weights), _MC_BLOCK))
    cos_buf = np.empty((len(phased), _MC_BLOCK))
    rng = np.random.default_rng(seed)
    for start in range(0, samples, _MC_CHUNK):
        size = min(_MC_CHUNK, samples - start)
        # filling a contiguous (4, size) array is standard_normal((4, size))
        draws = draw_buf[:4 * size].reshape(4, size)
        rng.standard_normal(out=draws)
        for lo in range(0, size, _MC_BLOCK):
            n = min(_MC_BLOCK, size - lo)
            feat = features[:, :n]
            g = feat[1:5]
            g[...] = draws[:, lo:lo + n]
            row = 5
            for i in range(4):
                np.multiply(g[i], g[i:], out=feat[row:row + 4 - i])
                row += 4 - i
            log_f = np.matmul(weights, feat, out=log_buf[:, :n])
            magnitude, phase = log_f[:count], log_f[count:]
            np.exp(magnitude, out=magnitude)
            sum_abs += magnitude.sum(axis=1)
            sum_sq += np.einsum("pi,pi->p", magnitude, magnitude)
            # overwrite log_f with the real and imaginary parts of F
            cosine, sine = _phase_factors(phase, cos_buf[:, :n])
            for k, index in enumerate(phased):
                sine[k] *= magnitude[index]
                magnitude[index] *= cosine[k]

            # merge the block's means and squared deviations (Chan et al.)
            block_mean = log_f.mean(axis=1)
            log_f -= block_mean[:, None]
            seen = start + lo
            delta = block_mean - mean
            mean += delta * (n / (seen + n))
            sq_dev += np.einsum("pi,pi->p", log_f, log_f)
            sq_dev += delta * delta * (seen * n / (seen + n))

    # far from the proposal's mass a probe's |F|**2 underflows on every
    # draw (at theta 0.5, amplitudes from about 30 up): refuse it rather
    # than report a zero stderr and a 0/0 effective sample size
    empty = np.flatnonzero(sum_sq == 0.0)
    if empty.size:
        index = int(empty[0])
        psi1, psi2 = probes[index]
        raise IntegrandUnderflow(
            f"probe {index}: its squared integrand underflowed to 0 on all {samples} draws "
            f"(amplitudes {psi1.alpha}, {psi1.beta}, {psi2.alpha}, {psi2.beta})"
        )

    estimate_im = np.zeros(count)
    estimate_im[phased] = mean[count:]
    spread = sq_dev[:count]
    spread[phased] += sq_dev[count:]

    reports: List[McReport] = []
    for index, (psi1, psi2) in enumerate(probes):
        estimate = complex(mean[index], estimate_im[index])
        stderr = float(math.sqrt(spread[index] / (samples - 1) / samples))
        reference = analytic.coherent_overlap(params, psi1, psi2)
        diff = abs(estimate - reference)
        if stderr == 0.0:
            z_score = 0.0 if diff == 0.0 else math.inf
        else:
            z_score = diff / stderr
        reports.append(
            McReport(
                estimate=estimate,
                reference=reference,
                stderr=stderr,
                samples=samples,
                seed=seed,
                z_score=z_score,
                ess=float(sum_abs[index] ** 2 / sum_sq[index]),
            )
        )
    return reports


def convergence_probe(
    params: NcParams,
    amps: ModeAmplitudes,
    z: Optional[SqueezeParam],
    cutoffs: Sequence[int],
    buffer: int = DEFAULT_BUFFER,
) -> List[ResidualReport]:
    """Truncation-convergence check across increasing cutoffs.

    Tracks the six quadrature variances and the vacuum overlap of the same
    state built at each cutoff, and reports the successive differences,
    each relative to the later value (floored at the smallest normal
    float, so a quantity of any scale is read against itself).  A quantity
    passes when the differences shrink (tiny floors forgiven) and the last
    one is below 1e-8.
    """
    if len(cutoffs) < 2:
        raise ValueError("need at least two cutoffs to measure convergence")
    if list(cutoffs) != sorted(set(cutoffs)):
        raise ValueError(f"cutoffs must be strictly increasing, got {cutoffs!r}")

    tracked: Dict[str, List[float]] = {name: [] for name in _QUADRATURE_NAMES}
    tracked["vac_overlap"] = []
    for cutoff in cutoffs:
        space = make_space(cutoff)
        ops = build_operator_set(params, space)
        # The probe exists to measure truncation error, so it must be able
        # to build states whose truncation error is still visible.
        state = make_state(ops, amps, z, buffer=buffer, tail_tol=1e-3)
        vacuum = make_state(ops, buffer=buffer, tail_tol=1e-3)
        for name, op in _quadratures(ops).items():
            _, variance = expectation_and_variance(state, op)
            tracked[name].append(variance)
        tracked["vac_overlap"].append(abs(vacuum.inner(state)))

    reports = []
    for name, values in tracked.items():
        diffs = [_relative_error(a, b) for a, b in zip(values[:-1], values[1:])]
        shrinking = all(
            later <= max(earlier, 1e-12)
            for earlier, later in zip(diffs[:-1], diffs[1:])
        )
        final = diffs[-1]
        reports.append(
            ResidualReport(
                check_id=f"convergence:{name}",
                residual=final,
                tolerance=1e-8,
                passed=shrinking and final <= 1e-8,
                metadata={
                    "cutoffs": list(cutoffs),
                    "values": values,
                    "differences": diffs,
                    "mu": params.mu,
                    "nu": params.nu,
                    "hbar": params.hbar,
                },
            )
        )
    return reports


def supercritical_witness(params: NcParams, r: float = 0.3) -> SupercriticalWitness:
    """Exhibit an uncertainty-floor violation for super-critical parameters.

    At phi = pi/2 the x-px product equals its phi-minimum
    (hbar**2/4)*(1 + (1 - theta**2)*sinh(2r)**2), which drops below the
    floor hbar**2/4 exactly when mu*nu > hbar**2 and r > 0.  For
    sub-critical parameters the returned witness is simply not violated.
    """
    z = SqueezeParam(r=r, phi=0.5 * math.pi)
    bound = analytic.single_mode_report(params, z).bounds["xpx"]
    return SupercriticalWitness(
        r=r,
        phi=z.phi,
        product=bound.lhs,
        floor=bound.rhs,
        violated=bool(bound.lhs < bound.rhs),
    )
