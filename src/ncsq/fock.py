"""Truncated two-mode number-basis realisation of the deformed pair.

The Hilbert space is spanned by |n_a, n_b> with both occupations capped at
``cutoff``; index layout is row-major, i = n_a*(cutoff+1) + n_b.  The plane
operators (x, y, px, py), the deformed pair (a_def, b_def), the ordinary
pair and the displacement generator are exact linear combinations of the
ordinary a, a+, b, b+, with coefficient 4-vectors from inverting the 4x4
map that defines the ordinary modes in terms of the plane operators.  Each
space caches one CSR pattern, the union of the four ladder patterns, which
are disjoint; every such operator is built on it from its coefficient
4-vector, one coefficient times one ladder weight per stored entry, with
no sparse sums or transposes.  Generators are at most quadratic in the
ladder, so states are built by exponential-times-vector products:
expm_multiply, a truncated Taylor series whose degree and step count come
from the generator's exact 1-norm; a squeezed state is its coherent state
squeezed, so callers that need both build the coherent state once.  Every
operator is CSR; the one dense dim x dim matrix is the unitary of
displacement_op, about 45 MB at cutoff 40, which the tests and the
benchmark's displacement probe still conjugate.  It is also the only
function that loads scipy.linalg, inside its body; the module needs only
scipy.sparse.

Truncation is the only approximation.  Operator identities hold exactly on
the subspace of total occupation <= cutoff - buffer; states are guarded by a
tail-population check so that a state silently pressed against the cutoff
raises instead of returning garbage.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np
from scipy.sparse import csr_array, eye_array, issparse

from .analytic import ModeAmplitudes, SqueezeParam
from .params import ConstraintClass, NcParams, NonFinite

__all__ = [
    "BufferOutOfRange",
    "CutoffOutOfRange",
    "FockSpace",
    "NonHermitianOperator",
    "OperatorMatrix",
    "OperatorSet",
    "PopulationOverflow",
    "SaturatedOrSuperCritical",
    "SpaceMismatch",
    "SqueezeTooLargeForCutoff",
    "StateVector",
    "basis_state",
    "build_operator_set",
    "check_buffer",
    "commutator",
    "deformed_vacuum",
    "displacement_op",
    "expectation",
    "expectation_and_variance",
    "expm_multiply",
    "make_space",
    "make_state",
    "safe_norm_fraction",
]

MAX_CUTOFF = 200
DEFAULT_MAX_SQUEEZE = 0.7
DEFAULT_TAIL_TOL = 1e-10
DEFAULT_BUFFER = 5

# below this the 4x4 map is numerically singular (the plane operators blow up)
MIN_LAMBDA_DENOM = 1e-8


class CutoffOutOfRange(ValueError):
    """Cutoff is not an integer in [1, MAX_CUTOFF]."""


class BufferOutOfRange(ValueError):
    """Safe-subspace buffer is not an integer in [0, cutoff]."""


class SaturatedOrSuperCritical(ValueError):
    """The plane-operator construction needs strictly sub-critical parameters."""


class SqueezeTooLargeForCutoff(ValueError):
    """Requested squeeze strength exceeds the configured safety bound."""


class PopulationOverflow(RuntimeError):
    """Too much state population sits near the occupation cutoff."""


class SpaceMismatch(ValueError):
    """Operands live on different truncated spaces."""


class NonHermitianOperator(ValueError):
    """A variance was requested for an operator that is not Hermitian."""


@dataclass(frozen=True, eq=False)
class FockSpace:
    """Two-mode truncated number basis with per-mode occupation <= cutoff."""

    cutoff: int
    dim: int
    n_a: np.ndarray
    n_b: np.ndarray
    n_tot: np.ndarray

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FockSpace) and other.cutoff == self.cutoff

    def __hash__(self) -> int:
        return hash(("FockSpace", self.cutoff))

    @functools.cached_property
    def _ladder_pattern(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """CSR (indptr, indices) of the union of a, a+, b, b+, with the ladder
        weight sqrt(n) of each stored entry and which of the four (0 to 3,
        in that order) it belongs to.

        The four patterns are disjoint, so the operator with coefficient
        4-vector c stores exactly c[which] * weight at each entry.  Within
        a row the columns run i - side (a+), i - 1 (b+), i + 1 (b) and
        i + side (a), which keeps the indices sorted.
        """
        side = self.cutoff + 1
        n_a, n_b = self.n_a, self.n_b
        offsets = np.array([-side, -1, 1, side])
        ladders = np.array([1, 3, 2, 0])
        weights = np.sqrt(np.stack([n_a, n_b, n_b + 1, n_a + 1]).astype(float))
        present = np.stack([n_a > 0, n_b > 0, n_b < self.cutoff, n_a < self.cutoff]).T
        indices = (np.arange(self.dim)[:, None] + offsets)[present].astype(np.int32)
        indptr = np.concatenate([[0], np.cumsum(present.sum(axis=1))]).astype(np.int32)
        which = np.broadcast_to(ladders, present.shape)[present]
        pattern = (indptr, indices, weights.T[present], which)
        for arr in pattern:
            arr.setflags(write=False)
        return pattern

    def index_of(self, n_a: int, n_b: int) -> int:
        if not (0 <= n_a <= self.cutoff and 0 <= n_b <= self.cutoff):
            raise CutoffOutOfRange(
                f"occupation ({n_a}, {n_b}) outside [0, {self.cutoff}]"
            )
        return n_a * (self.cutoff + 1) + n_b


def make_space(cutoff: int) -> FockSpace:
    """Build the truncated space; cutoff must be an integer in [1, 200]."""
    if isinstance(cutoff, bool) or not isinstance(cutoff, numbers.Integral):
        raise CutoffOutOfRange(f"cutoff must be an integer, got {cutoff!r}")
    cutoff = int(cutoff)
    if not (1 <= cutoff <= MAX_CUTOFF):
        raise CutoffOutOfRange(f"cutoff must be in [1, {MAX_CUTOFF}], got {cutoff}")
    side = cutoff + 1
    dim = side * side
    idx = np.arange(dim)
    n_a = idx // side
    n_b = idx % side
    n_tot = n_a + n_b
    for arr in (n_a, n_b, n_tot):
        arr.setflags(write=False)
    return FockSpace(cutoff=cutoff, dim=dim, n_a=n_a, n_b=n_b, n_tot=n_tot)


def _check_same_space(left: FockSpace, right: FockSpace) -> None:
    if left != right:
        raise SpaceMismatch(
            f"operands live on different spaces (cutoffs {left.cutoff} and {right.cutoff})"
        )


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Complex matrix tagged with the space it acts on.

    Every engine operator is CSR.  The one dense matrix is the unitary of
    displacement_op, which stays until the benchmark's displacement probe
    becomes a commutator residual (ROADMAP item 1); the arithmetic works
    on both, and mixtures come out dense.
    """

    space: FockSpace
    matrix: Union[csr_array, np.ndarray]

    def dag(self) -> "OperatorMatrix":
        adjoint = self.matrix.conj().T
        return OperatorMatrix(
            self.space, adjoint.tocsr() if issparse(adjoint) else adjoint.copy()
        )

    @functools.cached_property
    def _hermiticity(self) -> Tuple[float, float]:
        """(max |M - M+|, max(1, max |M|)), computed once: no operator's
        matrix is changed after it is built."""
        return (float(abs(self.matrix - self.dag().matrix).max()),
                max(1.0, float(abs(self.matrix).max())))

    def hermiticity_defect(self) -> float:
        return self._hermiticity[0]

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        _check_same_space(self.space, other.space)
        return OperatorMatrix(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        _check_same_space(self.space, other.space)
        return OperatorMatrix(self.space, self.matrix - other.matrix)

    def __neg__(self) -> "OperatorMatrix":
        return OperatorMatrix(self.space, -self.matrix)

    def __mul__(self, scalar: complex) -> "OperatorMatrix":
        if not isinstance(scalar, numbers.Complex):
            return NotImplemented
        return OperatorMatrix(self.space, self.matrix * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, OperatorMatrix):
            _check_same_space(self.space, other.space)
            return OperatorMatrix(self.space, self.matrix @ other.matrix)
        if isinstance(other, StateVector):
            _check_same_space(self.space, other.space)
            return StateVector(self.space, self.matrix @ other.vector)
        return NotImplemented


def commutator(left: OperatorMatrix, right: OperatorMatrix) -> OperatorMatrix:
    return left @ right - right @ left


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex state vector tagged with its space."""

    space: FockSpace
    vector: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalise the zero vector")
        return StateVector(self.space, self.vector / n)

    def inner(self, other: "StateVector") -> complex:
        """<self|other>, conjugating this vector."""
        _check_same_space(self.space, other.space)
        return complex(np.vdot(self.vector, other.vector))

    def population(self) -> np.ndarray:
        return np.abs(self.vector) ** 2


def basis_state(space: FockSpace, n_a: int, n_b: int) -> StateVector:
    """Number state |n_a, n_b> as a unit vector."""
    vec = np.zeros(space.dim, dtype=np.complex128)
    vec[space.index_of(n_a, n_b)] = 1.0
    return StateVector(space, vec)


def _from_coefficients(space: FockSpace, coeffs: np.ndarray) -> csr_array:
    """sum_k coeffs[k] L_k over (a, a+, b, b+), stored on the space's ladder
    pattern; entries of a zero coefficient are dropped, as a CSR sum would."""
    indptr, indices, weights, which = space._ladder_pattern
    data = np.asarray(coeffs, dtype=np.complex128)[which] * weights
    matrix = csr_array((data, indices.copy(), indptr.copy()), shape=(space.dim, space.dim))
    matrix.eliminate_zeros()
    return matrix


def _adjoint(coeffs: np.ndarray) -> np.ndarray:
    """Coefficient 4-vectors (rows) of the adjoints: a <-> a+, b <-> b+, conjugated."""
    return np.conjugate(coeffs[..., [1, 0, 3, 2]])


# rows: the coefficient 4-vectors of a, a+, b and b+ themselves
_UNIT = np.eye(4)


def _ladder_coefficients(params: NcParams) -> np.ndarray:
    """Rows x, y, px, py, a_def, b_def as coefficient 4-vectors over (a, a+, b, b+).

    The plane rows solve the 4x4 map that defines the ordinary modes in
    terms of the plane operators, with the quadratures of a and b on the
    right; they are hermitised (an a+ weight is the conjugate of the a
    weight) to kill rounding asymmetry.  a_def mixes x with px, b_def y with
    py, with the quartic-root weights that make the pair dimensionless.
    Requires strictly sub-critical parameters: beyond, the map is singular.
    """
    if (
        params.constraint_class is not ConstraintClass.SUB_CRITICAL
        or params.lambda_denom is None
        or params.lambda_denom <= MIN_LAMBDA_DENOM
    ):
        raise SaturatedOrSuperCritical(
            "plane operators need sub-critical parameters with a well-conditioned "
            f"map; got class {params.constraint_class.value!r}, "
            f"denominator {params.lambda_denom!r}"
        )
    hbar = params.hbar
    kappa = params.kappa
    coeff = np.array(
        [
            [kappa, 0.0, 0.0, params.mu / (2.0 * hbar)],
            [0.0, -params.nu / (2.0 * kappa * hbar), 1.0, 0.0],
            [0.0, kappa, -params.mu / (2.0 * hbar), 0.0],
            [params.nu / (2.0 * kappa * hbar), 0.0, 0.0, 1.0],
        ]
    )
    # a + a+, (a - a+)/i, b + b+, (b - b+)/i over (a, a+, b, b+)
    quadratures = np.array(
        [[1, 1, 0, 0], [-1j, 1j, 0, 0], [0, 0, 1, 1], [0, 0, -1j, 1j]]
    )
    scale = math.sqrt(0.5 * hbar) * params.lambda_denom
    sol = np.linalg.solve(coeff, scale * quadratures)
    plane = 0.5 * (sol + _adjoint(sol))
    x, y, px, py = plane
    c = (params.nu / params.mu) ** 0.25
    d = (params.mu / params.nu) ** 0.25
    scale = 1.0 / math.sqrt(2.0 * hbar)
    a_def = scale * (c * x + (1j * d) * px)
    b_def = scale * (c * y + (1j * d) * py)
    return np.vstack([plane, a_def, b_def])


@dataclass(frozen=True, eq=False)
class OperatorSet:
    """All the matrices most callers need, built once per (params, space);
    ``coeffs`` holds the _ladder_coefficients rows each operator is built from."""

    space: FockSpace
    params: NcParams
    a_ord: OperatorMatrix
    b_ord: OperatorMatrix
    x: OperatorMatrix
    y: OperatorMatrix
    px: OperatorMatrix
    py: OperatorMatrix
    a_def: OperatorMatrix
    b_def: OperatorMatrix
    coeffs: np.ndarray

    @functools.cached_property
    def pair_annihilator(self) -> OperatorMatrix:
        """a_def @ b_def, cached: it anchors every squeeze generator."""
        return self.a_def @ self.b_def

    @functools.cached_property
    def pair_creator(self) -> OperatorMatrix:
        return self.pair_annihilator.dag()

    @functools.cached_property
    def ground(self) -> StateVector:
        """The joint null state of both deformed annihilators, cached."""
        return deformed_vacuum(self.params, self.space, self)


def build_operator_set(params: NcParams, space: FockSpace) -> OperatorSet:
    coeffs = _ladder_coefficients(params)
    x, y, px, py, a_def, b_def, a_ord, b_ord = (
        OperatorMatrix(space, _from_coefficients(space, row))
        for row in (*coeffs, _UNIT[0], _UNIT[2])
    )
    return OperatorSet(
        space=space, params=params, a_ord=a_ord, b_ord=b_ord,
        x=x, y=y, px=px, py=py, a_def=a_def, b_def=b_def, coeffs=coeffs,
    )


def _displacement_generator(ops: OperatorSet, amps: ModeAmplitudes) -> OperatorMatrix:
    """alpha a_def+ + beta b_def+ - conj(alpha) a_def - conj(beta) b_def,
    built from its coefficient 4-vector."""
    alpha, beta = amps.alpha, amps.beta
    a_row, b_row = ops.coeffs[4:]
    row = (alpha * _adjoint(a_row) + beta * _adjoint(b_row)
           - np.conjugate(alpha) * a_row - np.conjugate(beta) * b_row)
    return OperatorMatrix(ops.space, _from_coefficients(ops.space, row))


def _squeeze_generator(ops: OperatorSet, z: SqueezeParam) -> OperatorMatrix:
    zc = z.z
    return np.conjugate(zc) * ops.pair_annihilator - zc * ops.pair_creator


def _refuse_large_squeeze(z: Optional[SqueezeParam], max_r: float) -> None:
    if z is not None and z.r > max_r:
        raise SqueezeTooLargeForCutoff(
            f"squeeze r={z.r} exceeds max_r={max_r}; raise max_r explicitly "
            "if the cutoff can absorb it"
        )


def displacement_op(
    params: NcParams, space: FockSpace, amps: ModeAmplitudes,
    ops: Optional[OperatorSet] = None,
) -> OperatorMatrix:
    """Dense unitary displacement of the deformed pair by (alpha, beta).

    The only dense dim x dim array of the engine, and the only caller of
    scipy.linalg, which it imports here so that no other path loads it.
    No state or check uses it (make_state applies the generator with
    expm_multiply); the tests and the benchmark's displacement probe
    conjugate it, so it stays until that probe becomes a commutator
    residual (ROADMAP item 1).  Raises NonFinite on a non-finite generator
    or unitary.
    """
    from scipy.linalg import expm

    if ops is None:
        ops = build_operator_set(params, space)
    gen = _displacement_generator(ops, amps).matrix.toarray()
    if not np.isfinite(gen).all():
        raise NonFinite("displacement generator has non-finite entries")
    unitary = expm(gen)
    if not np.isfinite(unitary).all():
        raise NonFinite("displacement unitary has non-finite entries")
    return OperatorMatrix(ops.space, unitary)


def deformed_vacuum(
    params: NcParams, space: FockSpace, ops: Optional[OperatorSet] = None
) -> StateVector:
    """The state annihilated by both deformed annihilators.

    a_def and b_def are exact linear combinations of the ordinary ladder
    matrices, so the joint null state is a Gaussian over the ordinary basis:
    exp(Q)|0,0> with Q quadratic in the ordinary creators.  The three
    quadratic coefficients solve a small overdetermined linear system in
    the ladder coefficients of a_def and b_def; exp(Q)|0,0> is summed as a
    terminating Taylor series because Q only raises total occupation.
    """
    if ops is None:
        ops = build_operator_set(params, space)
    # a_def = A_a a + A_adag a+ + A_b b + A_bdag b+ (b_def alike)
    (a_a, a_adag, a_b, a_bdag), (b_a, b_adag, b_b, b_bdag) = ops.coeffs[4:]
    sys = np.array(
        [[a_a, a_b, 0.0], [0.0, a_a, a_b], [b_a, b_b, 0.0], [0.0, b_a, b_b]],
        dtype=np.complex128,
    )
    rhs = -np.array([a_adag, a_bdag, b_adag, b_bdag], dtype=np.complex128)
    lam, *_ = np.linalg.lstsq(sys, rhs, rcond=None)
    fit = sys @ lam - rhs
    if float(np.linalg.norm(fit)) > 1e-10:
        raise SaturatedOrSuperCritical(
            "no Gaussian null state: quadratic coefficient fit did not close "
            f"(residual {float(np.linalg.norm(fit)):.3e})"
        )

    adag = _from_coefficients(space, _UNIT[1])
    bdag = _from_coefficients(space, _UNIT[3])

    def quad_apply(v: np.ndarray) -> np.ndarray:
        av = adag @ v
        bv = bdag @ v
        return 0.5 * lam[0] * (adag @ av) + lam[1] * (adag @ bv) \
            + 0.5 * lam[2] * (bdag @ bv)

    vec = np.zeros(space.dim, dtype=np.complex128)
    vec[space.index_of(0, 0)] = 1.0
    term = vec.copy()
    for k in range(1, space.cutoff + 2):
        term = quad_apply(term) / k
        tnorm = float(np.linalg.norm(term))
        if tnorm == 0.0:
            break
        vec = vec + term
        if tnorm < 1e-18 * float(np.linalg.norm(vec)):
            break
    return StateVector(space, vec).normalized()


# Al-Mohy and Higham's theta_m for double precision: the largest 1-norm of
# the (shifted) matrix for which m Taylor terms meet the unit roundoff.
# m <= 30 from Higham and Al-Mohy, Acta Numerica 19 (2010), table A.3; the
# rest from Al-Mohy and Higham, SIAM J. Sci. Comput. 33 (2011), table 3.1.
_TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}


def expm_multiply(matrix: Union[csr_array, np.ndarray], block: np.ndarray) -> np.ndarray:
    """exp(matrix) @ block for a square CSR or dense matrix and a vector or
    block of columns.

    The truncated Taylor algorithm of Al-Mohy and Higham (2011), algorithm
    3.2: the matrix is shifted by its mean diagonal mu, the exponential of
    the rest is taken in s steps of a degree-m Taylor polynomial, each step
    stops early once two successive terms fall below the unit roundoff of
    the partial sum, and exp(mu/s) is restored per step.  (m, s) minimise
    m*s over the theta table, from the exact 1-norm of the shifted matrix
    (its largest absolute column sum), so no norm estimate is needed.
    Raises NonFinite on a non-finite matrix.
    """
    dim = matrix.shape[0]
    mu = matrix.diagonal().sum() / dim
    if mu != 0.0:
        eye = eye_array(dim, format="csr") if issparse(matrix) else np.eye(dim)
        matrix = matrix - mu * eye
    norm = float(abs(matrix).sum(axis=0).max())
    if not math.isfinite(norm):
        raise NonFinite("matrix of the exponential has non-finite entries")
    if norm == 0.0:
        degree, steps = 0, 1
    else:
        degree, steps = min(
            ((m, math.ceil(norm / theta)) for m, theta in _TAYLOR_THETA.items()),
            key=lambda ms: ms[0] * ms[1],
        )
    eta = np.exp(mu / steps)
    out = block
    for _ in range(steps):
        term = out
        c1 = np.linalg.norm(term, np.inf)
        for j in range(degree):
            term = matrix @ term
            term *= 1.0 / (steps * (j + 1))
            c2 = np.linalg.norm(term, np.inf)
            out = out + term
            if c1 + c2 <= 2.0 ** -53 * np.linalg.norm(out, np.inf):
                break
            c1 = c2
        out = eta * out
    return out


def make_state(
    params: NcParams,
    space: FockSpace,
    amps: Optional[ModeAmplitudes] = None,
    z: Optional[SqueezeParam] = None,
    *,
    ops: Optional[OperatorSet] = None,
    buffer: int = DEFAULT_BUFFER,
    tail_tol: float = DEFAULT_TAIL_TOL,
    max_r: float = DEFAULT_MAX_SQUEEZE,
) -> StateVector:
    """Displaced, optionally squeezed state of the deformed pair.

    Pipeline: deformed vacuum, then the displacement, then the squeeze (so
    the squeeze acts last), each unitary applied to the vector by
    expm_multiply's truncated Taylor series rather than formed as a full
    matrix exponential.
    The result is normalised and guarded: if more than tail_tol of its
    population sits within ``buffer`` quanta of the cutoff, the truncation
    cannot be trusted and PopulationOverflow is raised.
    """
    _refuse_large_squeeze(z, max_r)
    if ops is None:
        ops = build_operator_set(params, space)
    vec = ops.ground.vector
    if amps is not None and (amps.alpha != 0.0 or amps.beta != 0.0):
        vec = expm_multiply(_displacement_generator(ops, amps).matrix, vec)
    return _squeeze_and_guard(ops, vec, z, buffer, tail_tol)


def _squeeze_and_guard(
    ops: OperatorSet,
    vec: np.ndarray,
    z: Optional[SqueezeParam],
    buffer: int = DEFAULT_BUFFER,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> StateVector:
    """The last steps of make_state: squeeze vec (when r > 0), normalise,
    and raise PopulationOverflow if more than tail_tol of the population
    lies within ``buffer`` quanta of the cutoff.  Callers that already hold
    a displaced state squeeze it here rather than rebuild it; they refuse
    r beyond max_r first, as make_state does."""
    if z is not None and z.r > 0.0:
        vec = expm_multiply(_squeeze_generator(ops, z).matrix, vec)
    out = StateVector(ops.space, vec).normalized()
    leak = safe_norm_fraction(out, buffer=buffer)
    if leak > tail_tol:
        raise PopulationOverflow(
            f"{leak:.3e} of the population lies within {buffer} quanta of "
            f"cutoff {out.space.cutoff}; increase the cutoff"
        )
    return out


def safe_norm_fraction(state: StateVector, buffer: int = DEFAULT_BUFFER) -> float:
    """Fraction of squared norm with total occupation above cutoff - buffer.

    This is the truncation-leakage diagnostic: 0 for states living deep
    inside the space, approaching 1 as population piles up at the cutoff.
    """
    space = state.space
    check_buffer(space, buffer)
    mask = space.n_tot > space.cutoff - buffer
    pop = state.population()
    total = float(np.sum(pop))
    if total == 0.0:
        raise ValueError("zero state has no population fractions")
    return float(np.sum(pop[mask])) / total


def check_buffer(space: FockSpace, buffer: int) -> None:
    """Refuse a safe-subspace buffer outside [0, cutoff]: a negative one
    would trust the truncation edge, a larger one leaves no safe block."""
    if isinstance(buffer, bool) or not isinstance(buffer, numbers.Integral) \
            or not 0 <= buffer <= space.cutoff:
        raise BufferOutOfRange(
            f"buffer must be an integer in [0, {space.cutoff}], got {buffer!r}"
        )


def expectation(state: StateVector, op: OperatorMatrix) -> complex:
    """<state|op|state> for any operator, Hermitian or not."""
    _check_same_space(state.space, op.space)
    return complex(np.vdot(state.vector, op.matrix @ state.vector))


def expectation_and_variance(
    state: StateVector, op: OperatorMatrix
) -> Tuple[complex, float]:
    """Mean and variance of a Hermitian operator in the given state.

    Refuses non-Hermitian input, since variance is only meaningful for
    observables; use expectation() for general means.  Tiny negative
    variances from rounding are clamped to zero.
    """
    _check_same_space(state.space, op.space)
    defect, scale = op._hermiticity
    if defect > 1e-10 * scale:
        raise NonHermitianOperator(
            f"hermiticity defect {defect:.3e} exceeds tolerance for variance"
        )
    applied = op.matrix @ state.vector
    mean = complex(np.vdot(state.vector, applied))
    second = float(np.real(np.vdot(applied, applied)))
    var = second - (mean.real * mean.real + mean.imag * mean.imag)
    if var < 0.0:
        var = 0.0
    return mean, var
