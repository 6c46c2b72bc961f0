"""Crosschecks between the closed forms and the truncated-matrix engine.

Three families of evidence that the two sides describe the same physics:

* identity checks: commutator residuals, the displacement shift property
  (as its c-number commutator), the squeeze conjugation coefficients and
  eigenvalue relations, measured directly on matrices over the safe
  subspace, where a single commutator is exact and a conjugation is not;
* state crosschecks: overlaps and quadrature variances of concrete states,
  engine versus closed form;
* Monte-Carlo overcompleteness: the weighted coherent-state integral of
  the identity operator, sampled with a Gaussian importance density and
  compared against the closed-form overlap it must reproduce.

Every result is a small immutable report carrying its residual, tolerance
and enough metadata to rerun it.  Stochastic checks derive one child seed
per case from (master seed, case index), so results do not depend on
execution order.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from scipy.linalg import expm
from scipy.sparse import csr_array, eye_array
from scipy.sparse.linalg import expm_multiply

from . import analytic
from .analytic import ModeAmplitudes, SqueezeParam
from .fock import (
    DEFAULT_BUFFER,
    FockSpace,
    OperatorMatrix,
    OperatorSet,
    _displacement_generator,
    _squeeze_generator,
    build_operator_set,
    check_buffer,
    commutator,
    expectation_and_variance,
    make_space,
    make_state,
)
from .params import NcParams

__all__ = [
    "COMMUTATOR_TOL",
    "CROSSCHECK_TOL",
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
    "fit_mode_transform",
    "identity_suite",
    "overcompleteness_mc",
    "supercritical_witness",
]

COMMUTATOR_TOL = 1e-10
OPERATOR_TOL = 1e-8
CROSSCHECK_TOL = 1e-6
MC_MAX_Z_SCORE = 4.0
MC_MIN_SAMPLES = 1000
MC_MAX_SAMPLES = 10_000_000

# The Monte Carlo holds the (4, samples) float64 draws and the complex128
# integrand values: 48 bytes per sample.
_MC_BYTES_PER_SAMPLE = 48
# Samples per chunk of the integrand evaluation; a chunk's temporaries
# stay in cache.
_MC_CHUNK = 1 << 15


class ThetaAtOrAboveOne(ValueError):
    """The overcompleteness weight 1 - theta**2 is not positive."""


class SamplesTooFew(ValueError):
    """Monte-Carlo sample count below the statistical minimum."""


class SamplesTooMany(ValueError):
    """Monte-Carlo sample count above the supported maximum."""


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


def _safe_indices(space: FockSpace, buffer: int) -> np.ndarray:
    """Indices with total occupation <= cutoff - buffer; never empty,
    because check_buffer refuses a buffer outside [0, cutoff]."""
    check_buffer(space, buffer)
    return np.flatnonzero(space.n_tot <= space.cutoff - buffer)


def _safe_block_max(space: FockSpace, matrix, buffer: int) -> float:
    """Max magnitude over entries whose row and column are both safe."""
    idx = _safe_indices(space, buffer)
    return float(abs(matrix[idx][:, idx]).max())


def _block_entries(matrices: Sequence, idx: np.ndarray) -> np.ndarray:
    """Entries of each matrix on the (idx, idx) block, one column each.

    Rows run over the union of the nonzero patterns of all the blocks;
    every entry outside it is zero in every matrix, so a fit or residual
    over these rows equals one over the whole block.
    """
    blocks = [csr_array(m[idx][:, idx]) for m in matrices]
    rows, cols = sum(abs(block) for block in blocks).nonzero()
    if rows.size == 0:  # every block is zero, as on the 1x1 block buffer = cutoff
        return np.zeros((0, len(blocks)), dtype=np.complex128)
    return np.column_stack([block[rows, cols] for block in blocks])


_QUADRATURE_NAMES = ("dx2", "dy2", "dpx2", "dpy2", "dX2", "dP2")


def _quadratures(ops: OperatorSet) -> Dict[str, OperatorMatrix]:
    """x, y, px, py and the collective X = (x + y)/2, P = (px + py)/2,
    keyed by the names of their variances in _QUADRATURE_NAMES order."""
    x, y, px, py = ops.x, ops.y, ops.px, ops.py
    return dict(zip(_QUADRATURE_NAMES, (x, y, px, py, 0.5 * (x + y), 0.5 * (px + py))))


def _commutator_residual(
    left: OperatorMatrix, right: OperatorMatrix, want: complex, buffer: int
) -> float:
    """Safe-block max of [left, right] - want*1."""
    space = left.space
    eye = eye_array(space.dim, dtype=np.complex128, format="csr")
    comm = commutator(left, right).matrix - want * eye
    return _safe_block_max(space, comm, buffer)


def algebra_residuals(
    ops: OperatorSet, buffer: int = DEFAULT_BUFFER
) -> Dict[str, float]:
    """Safe-subspace residuals of every defining commutation relation."""
    p = ops.params
    quads = _quadratures(ops)
    relations = {
        "xy": (ops.x, ops.y, 1j * p.mu),
        "pxpy": (ops.px, ops.py, 1j * p.nu),
        "xpx": (ops.x, ops.px, 1j * p.hbar),
        "ypy": (ops.y, ops.py, 1j * p.hbar),
        "xpy": (ops.x, ops.py, 0.0),
        "ypx": (ops.y, ops.px, 0.0),
        "a_adag": (ops.a_def, ops.a_def.dag(), 1.0),
        "b_bdag": (ops.b_def, ops.b_def.dag(), 1.0),
        "ab": (ops.a_def, ops.b_def, 0.0),
        "a_bdag": (ops.a_def, ops.b_def.dag(), 1j * p.theta),
        "b_adag": (ops.b_def, ops.a_def.dag(), -1j * p.theta),
        "ord_a_adag": (ops.a_ord, ops.a_ord.dag(), 1.0),
        "ord_b_bdag": (ops.b_ord, ops.b_ord.dag(), 1.0),
        "ord_ab": (ops.a_ord, ops.b_ord, 0.0),
        "ord_a_bdag": (ops.a_ord, ops.b_ord.dag(), 0.0),
        "XP": (quads["dX2"], quads["dP2"], 0.5j * p.hbar),
    }
    return {key: _commutator_residual(*rel, buffer) for key, rel in relations.items()}


def _span(ops: OperatorSet) -> List:
    """Matrices of (a_def, b_def, b_def+, a_def+), the ModeTransform order."""
    return [ops.a_def.matrix, ops.b_def.matrix,
            ops.b_def.dag().matrix, ops.a_def.dag().matrix]


def fit_mode_transform(
    conjugated: OperatorMatrix,
    ops: OperatorSet,
    buffer: int = DEFAULT_BUFFER,
    block_top: Optional[int] = None,
) -> Tuple[analytic.ModeTransform, float]:
    """Least-squares coefficients of a conjugated annihilator.

    Expresses the given matrix as c_a*a + c_b*b + c_bdag*b+ + c_adag*a+
    (deformed operators) over a truncation-clean block and returns the
    coefficient quadruple together with the max-norm fit residual there.

    A full matrix-exponential conjugation smears edge artifacts well
    below cutoff - buffer (unlike single commutators), so callers
    fitting an explicitly conjugated matrix should pass a small
    ``block_top`` (bound on total occupation) to stay in clean matrix
    elements; see adjoint_mode_transform for the route that does not
    need this.
    """
    space = ops.space
    idx = _safe_indices(space, buffer)
    if block_top is not None:
        idx = idx[space.n_tot[idx] <= block_top]
    table = _block_entries(_span(ops) + [conjugated.matrix], idx)
    design, rhs = table[:, :4], table[:, 4]
    coef, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    resid = float(np.abs(design @ coef - rhs).max(initial=0.0))
    return analytic.ModeTransform(*(complex(c) for c in coef)), resid


def adjoint_mode_transform(
    gen: OperatorMatrix, ops: OperatorSet, buffer: int = DEFAULT_BUFFER
) -> Tuple[analytic.ModeTransform, analytic.ModeTransform, float]:
    """Conjugation coefficients of both annihilators via the adjoint action.

    The commutator of the squeeze generator with any of (a, b, b+, a+)
    lands back in that span, so conjugation by exp(G) acts on the span
    through a 4x4 matrix exponential.  Commutators, unlike full
    conjugations, are exact on the safe block at any squeeze strength,
    which makes this route accurate where a direct fit of S a S+ drowns
    in reflected truncation error.  Returns the transforms of the two
    annihilators and the worst closure residual of the four commutator
    fits; a large closure value would mean the span assumption itself
    fails, so callers should fold it into their residual.  The fits run
    over the union of the nonzero patterns of the span and the
    commutators on the safe block.
    """
    idx = _safe_indices(ops.space, buffer)
    span = _span(ops)
    table = _block_entries(span + [gen.matrix @ m - m @ gen.matrix for m in span], idx)
    design, comms = table[:, :4], table[:, 4:]
    action, *_ = np.linalg.lstsq(design, comms, rcond=None)
    closure = float(np.abs(design @ action - comms).max(initial=0.0))
    flow = expm(action)
    ad_a, ad_b = (analytic.ModeTransform(*(complex(c) for c in flow[:, col]))
                  for col in (0, 1))
    return ad_a, ad_b, closure


def _transform_distance(
    fitted: analytic.ModeTransform, closed: analytic.ModeTransform
) -> float:
    return max(abs(f - c) for f, c in zip(astuple(fitted), astuple(closed)))


# identity class -> the algebra_residuals entries it reports
_ALGEBRA_CLASSES = {
    "heisenberg_weyl": ("xy", "pxpy", "xpx", "ypy", "xpy", "ypx"),
    "deformed_algebra": ("a_adag", "b_bdag", "ab", "a_bdag", "b_adag"),
    "ordinary_algebra": ("ord_a_adag", "ord_b_bdag", "ord_ab", "ord_a_bdag"),
}


def identity_suite(
    params: NcParams,
    space: FockSpace,
    amps: ModeAmplitudes,
    z: SqueezeParam,
    buffer: int = DEFAULT_BUFFER,
    ops: Optional[OperatorSet] = None,
) -> List[ResidualReport]:
    """All operator-level identities, one report per identity class.

    Classes: the phase-plane commutators, the deformed and ordinary boson
    algebras, the displacement shift property, the squeeze conjugation
    coefficients, eigenvalue relations of the constructed states, and the
    collective-quadrature commutator.  The shift D+ m D = m + lambda_m
    holds exactly because [m, G] = lambda_m is a c-number for the
    displacement generator G, so it is checked as that commutator on the
    safe block.  Refuses a buffer outside [0, cutoff] with
    BufferOutOfRange before building anything.  The eigenvalue states
    keep make_state's default tail guard: at buffer = cutoff the caller's
    buffer would count all population as tail and raise PopulationOverflow.
    """
    check_buffer(space, buffer)
    if ops is None:
        ops = build_operator_set(params, space)
    meta = _params_meta(params, space, buffer)
    resids = algebra_residuals(ops, buffer)
    reports = [
        _report(check_id, max(resids[k] for k in keys), COMMUTATOR_TOL, **meta)
        for check_id, keys in _ALGEBRA_CLASSES.items()
    ]

    lam_a, lam_b = analytic.coherent_eigenvalues(params, amps)
    gen = _displacement_generator(ops, amps)
    reports.append(
        _report(
            "displacement_property",
            max(_commutator_residual(ops.a_def, gen, lam_a, buffer),
                _commutator_residual(ops.b_def, gen, lam_b, buffer)),
            OPERATOR_TOL,
            alpha=str(amps.alpha),
            beta=str(amps.beta),
            **meta,
        )
    )

    squeeze = _squeeze_generator(ops, z)
    closed = analytic.bogoliubov_coefficients(params, z)
    ad_a, ad_b, closure = adjoint_mode_transform(squeeze, ops, buffer)
    reports.append(
        _report(
            "bogoliubov",
            max(
                _transform_distance(ad_a, closed.mode_a),
                _transform_distance(ad_b, closed.mode_b),
                closure,
            ),
            OPERATOR_TOL,
            closure_residual=closure,
            r=z.r,
            phi=z.phi,
            **meta,
        )
    )

    # Identity checks stay exact under truncation (the construction and
    # the relation share the same truncated generators), so a fatter tail
    # than the oracle-grade default is acceptable here.
    coh = make_state(params, space, amps, ops=ops, tail_tol=1e-6)
    eig = max(
        float(np.linalg.norm(ops.a_def.matrix @ coh.vector - lam_a * coh.vector)),
        float(np.linalg.norm(ops.b_def.matrix @ coh.vector - lam_b * coh.vector)),
    )
    if z.r > 0.0:
        # S a S+ on the squeezed state, applied as S+, then a, then S
        sqz = make_state(params, space, amps, z, ops=ops, tail_tol=1e-6)
        unsqueezed = expm_multiply(-squeeze.matrix, sqz.vector)
        for mode, lam in ((ops.a_def, lam_a), (ops.b_def, lam_b)):
            lowered = expm_multiply(squeeze.matrix, mode.matrix @ unsqueezed)
            eig = max(eig, float(np.linalg.norm(lowered - lam * sqz.vector)))
    reports.append(
        _report(
            "eigenvalue_relations",
            eig,
            OPERATOR_TOL,
            alpha=str(amps.alpha),
            beta=str(amps.beta),
            r=z.r,
            phi=z.phi,
            **meta,
        )
    )

    reports.append(_report("two_mode_commutator", resids["XP"], COMMUTATOR_TOL, **meta))
    return reports


def _relative_error(got: complex, want: complex) -> float:
    scale = max(abs(want), 1e-30)
    return abs(got - want) / scale


def crosscheck_suite(
    params: NcParams,
    space: FockSpace,
    cases: Sequence[Tuple[ModeAmplitudes, Optional[SqueezeParam]]],
    buffer: int = DEFAULT_BUFFER,
    ops: Optional[OperatorSet] = None,
) -> List[ResidualReport]:
    """State-level closed-form versus engine comparisons.

    For each (amplitudes, squeeze) case: the overlaps of the state against
    the deformed vacuum and against the coherent state with the same
    amplitudes, and the six quadrature variances, all compared to their
    closed forms at relative tolerance 1e-6.  Every state is built under
    the tail guard at the caller's buffer.  Refuses a buffer outside
    [0, cutoff] with BufferOutOfRange before building anything.
    """
    check_buffer(space, buffer)
    if ops is None:
        ops = build_operator_set(params, space)
    vac_amps = ModeAmplitudes(0.0, 0.0)
    vacuum = make_state(params, space, ops=ops, buffer=buffer)
    quads = _quadratures(ops)

    reports: List[ResidualReport] = []
    for index, (amps, z) in enumerate(cases):
        state = make_state(params, space, amps, z, ops=ops, buffer=buffer)
        case_meta = {
            "case": index,
            "alpha": str(amps.alpha),
            "beta": str(amps.beta),
            "r": 0.0 if z is None else z.r,
            "phi": 0.0 if z is None else z.phi,
        }
        case_meta.update(_params_meta(params, space, buffer))

        if z is None or z.r == 0.0:
            want_vac = analytic.coherent_overlap(params, vac_amps, amps)
            want_self = analytic.coherent_overlap(params, amps, amps)
        else:
            want_vac = analytic.squeezed_overlap(params, vac_amps, amps, z)
            want_self = analytic.squeezed_overlap(params, amps, amps, z)
        coherent_bra = make_state(params, space, amps, ops=ops, buffer=buffer)
        overlap_resid = max(
            _relative_error(vacuum.inner(state), want_vac),
            _relative_error(coherent_bra.inner(state), want_self),
        )
        reports.append(
            _report(f"overlap[{index}]", overlap_resid, CROSSCHECK_TOL, **case_meta)
        )

        single = analytic.single_mode_report(params, z)
        two = analytic.two_mode_report(params, z)
        wants = (single.dx2, single.dy2, single.dpx2, single.dpy2, two.dX2, two.dP2)
        var_resid = 0.0
        values: Dict[str, float] = {}
        for (name, op), want in zip(quads.items(), wants):
            _, got = expectation_and_variance(state, op)
            values[name] = got
            var_resid = max(var_resid, abs(got - want) / max(abs(want), 1e-30))
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

    The log of the integrand is a quadratic form in the four real draws
    (analytic._identity_integrand_coefficients), so each sample costs one
    real exp and one cos and sin, evaluated over chunks of _MC_CHUNK
    samples.  A call
    holds 48 bytes per sample; more than MC_MAX_SAMPLES samples are
    refused with SamplesTooMany before anything is allocated.
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
            f"(about {samples * _MC_BYTES_PER_SAMPLE / 1e9:.1f} GB)"
        )

    r, phi = (0.0, 0.0) if z is None else (z.r, z.phi)
    draws = np.empty((4, samples))
    values = np.empty(samples, dtype=np.complex128)
    reports: List[McReport] = []
    for index, (psi1, psi2) in enumerate(probes):
        rng = np.random.default_rng([seed, index])
        rng.standard_normal(out=draws)
        c, w, quad = analytic._identity_integrand_coefficients(theta, psi1, psi2, r, phi)
        linear = np.stack([w.real, w.imag])
        quad = quad.real
        sum_abs = sum_sq = 0.0
        for start in range(0, samples, _MC_CHUNK):
            g = draws[:, start:start + _MC_CHUNK]
            re, im = linear @ g
            re += np.einsum("ij,ij->j", g, quad @ g)
            re += c.real
            im += c.imag
            magnitude = np.exp(re, out=re)
            block = values[start:start + _MC_CHUNK]
            np.multiply(magnitude, np.cos(im), out=block.real)
            np.multiply(magnitude, np.sin(im), out=block.imag)
            sum_abs += float(magnitude.sum())
            sum_sq += float(magnitude @ magnitude)

        estimate = complex(values.mean())
        spread = (values.real.var(ddof=1) + values.imag.var(ddof=1)) / samples
        stderr = float(math.sqrt(spread))
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
                ess=sum_abs * sum_abs / sum_sq,
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
    state built at each cutoff, and reports the successive relative
    differences.  A quantity passes when the differences shrink (tiny
    floors forgiven) and the last one is below 1e-8.
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
        state = make_state(params, space, amps, z, ops=ops, buffer=buffer,
                           tail_tol=1e-3)
        vacuum = make_state(params, space, ops=ops, buffer=buffer,
                            tail_tol=1e-3)
        for name, op in _quadratures(ops).items():
            _, variance = expectation_and_variance(state, op)
            tracked[name].append(variance)
        tracked["vac_overlap"].append(abs(vacuum.inner(state)))

    reports = []
    for name, values in tracked.items():
        diffs = [
            abs(b - a) / max(abs(b), 1e-30)
            for a, b in zip(values[:-1], values[1:])
        ]
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
    products = analytic.variance_products(params, z)
    floor = 0.25 * params.hbar**2
    return SupercriticalWitness(
        r=r,
        phi=z.phi,
        product=products.prod_xpx,
        floor=floor,
        violated=bool(products.prod_xpx < floor),
    )
