"""Truncated two-mode number-basis realisation of the deformed pair.

The Hilbert space is spanned by |n_a, n_b> with both occupations capped at
``cutoff``; index layout is row-major, i = n_a*(cutoff+1) + n_b.  The plane
operators (x, y, px, py), the deformed pair (a_def, b_def) and the ordinary
pair are exact linear combinations of the ordinary a, a+, b, b+ (taken at
the deformed modes' scale), with coefficient 4-vectors (rows) from
inverting the 4x4 map that defines the ordinary modes in terms of the
plane operators.  An OperatorMatrix is its space and its row.  A state's
amplitudes sit on the (cutoff+1, cutoff+1) grid psi[n_a, n_b], where each
ladder is one shifted slice times sqrt(n) (_ladder_images), so an
operator applied to a state is its row times the state's four ladder
images, and the means and variances of several operators read one set of
images (_moments).  Adjoints act on rows.  No product of operators is
formed: the operator identities are 4x4 algebra on rows, since the
commutator of two linear operators is the c-number u @ _J @ w, and the
squeeze generator G, quadratic in the pair, acts on rows as the matrix M
of [G, w.L] = (M w).L (_squeeze_action).
Every state S D |0_def> is a Gaussian fixed by two annihilators
linear in the ladders, and make_states fills a batch of them by one
recurrence over stacks of at most 2**16 amplitudes; no exponential of a
dim x dim operator is formed or applied.
The module imports numpy only.  The one dense dim x dim matrix is the
unitary of displacement_op, about 45 MB at cutoff 40, which the tests and
the benchmark's displacement probe still conjugate; it is the Kronecker
product of two single-mode exponentials, each (cutoff+1) x (cutoff+1).

Truncation is the only approximation.  Operator identities hold exactly on
the subspace of total occupation <= cutoff - buffer; states are guarded by a
tail-population check so that a state silently pressed against the cutoff
raises instead of returning garbage.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

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
    "check_displacement",
    "deformed_vacuum",
    "displacement_op",
    "expectation",
    "expectation_and_variance",
    "make_space",
    "make_state",
    "make_states",
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


def _adjoint(coeffs: np.ndarray) -> np.ndarray:
    """Coefficient 4-vectors (rows) of the adjoints: a <-> a+, b <-> b+, conjugated."""
    return np.conjugate(coeffs[..., [1, 0, 3, 2]])


def _lowering(cutoff: int) -> np.ndarray:
    """The single-mode annihilator A, (cutoff+1) x (cutoff+1): a = A (x) 1
    and b = 1 (x) A on the two-mode space."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)


def _ladder_images(space: FockSpace, vectors: np.ndarray) -> np.ndarray:
    """a, a+, b and b+ applied to each vector of a (..., dim) stack, as
    (..., 4, dim).  On the amplitude grid psi[n_a, n_b] each is one shifted
    slice times sqrt(n): (a psi)[n] = sqrt(n_a + 1) psi[n + e_a] and
    (a+ psi)[n] = sqrt(n_a) psi[n - e_a], likewise for b along n_b, zero
    where the ladder leaves the space, so nothing wraps across a row of n_b."""
    side = space.cutoff + 1
    lead = vectors.shape[:-1]
    grid = vectors.reshape(lead + (side, side))
    root = np.sqrt(np.arange(1.0, side))
    out = np.zeros(lead + (4, side, side), dtype=np.result_type(vectors, np.complex128))
    out[..., 0, :-1, :] = root[:, None] * grid[..., 1:, :]
    out[..., 1, 1:, :] = root[:, None] * grid[..., :-1, :]
    out[..., 2, :, :-1] = root * grid[..., :, 1:]
    out[..., 3, :, 1:] = root * grid[..., :, :-1]
    return out.reshape(lead + (4, space.dim))


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """The operator row . (a, a+, b, b+) on a truncated space.

    ``row`` is its coefficient 4-vector over the ordinary ladders; the
    adjoint is the row's (_adjoint), and the Hermiticity defect is read
    from the row.  A product with a vector is the row times the vector's
    _ladder_images.  ``matrix`` is a dense dim x dim array built on each
    access, for tests and the benchmark's displacement probe only.
    """

    space: FockSpace
    row: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """A new dense dim x dim array of the operator (dim**2 complex
        entries: about 45 MB at cutoff 40), for tests and the benchmark's
        displacement probe only; no module of the package reads it.  As
        M[n_a, n_b, m_a, m_b], with a = A (x) 1 and b = 1 (x) A, each
        coefficient fills the entries of its ladder where A is non-zero."""
        side = self.space.cutoff + 1
        lower = _lowering(self.space.cutoff)
        n, m = np.nonzero(lower)
        k = np.arange(side)[:, None]
        c = np.asarray(self.row, dtype=np.complex128)
        dense = np.zeros((side,) * 4, dtype=np.complex128)
        dense[n, k, m, k] = c[0] * lower[n, m]
        dense[m, k, n, k] = c[1] * lower[n, m]
        dense[k, n, k, m] = c[2] * lower[n, m]
        dense[k, m, k, n] = c[3] * lower[n, m]
        return dense.reshape(self.space.dim, self.space.dim)

    def dag(self) -> "OperatorMatrix":
        return OperatorMatrix(self.space, _adjoint(self.row))

    @functools.cached_property
    def _hermiticity(self) -> Tuple[float, float]:
        """(max |M - M+|, max(1, max |M|)), computed once from the row:
        M - M+ is (row - adjoint row) . (a, a+, b, b+), and every ladder's
        weights peak at sqrt(cutoff), so both maxima are a coefficient's
        size times sqrt(cutoff)."""
        row, peak = np.asarray(self.row), math.sqrt(self.space.cutoff)
        defect = float(np.abs(row - _adjoint(row)).max()) * peak
        return defect, max(1.0, float(np.abs(row).max()) * peak)

    def hermiticity_defect(self) -> float:
        return self._hermiticity[0]

    def _apply(self, block: np.ndarray) -> np.ndarray:
        """M @ block for a vector or a (dim, m) block of columns."""
        row = np.asarray(self.row)
        if block.ndim == 1:
            return row @ _ladder_images(self.space, block)
        return (row @ _ladder_images(self.space, block.T)).T

    def __matmul__(self, other):
        if isinstance(other, StateVector):
            _check_same_space(self.space, other.space)
            return StateVector(self.space, self._apply(other.vector))
        if isinstance(other, np.ndarray):
            return self._apply(other)
        return NotImplemented


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex state vector tagged with its space."""

    space: FockSpace
    vector: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))

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


# rows: the coefficient 4-vectors of a, a+, b and b+ themselves
_UNIT = np.eye(4)


def _ladder_coefficients(params: NcParams) -> np.ndarray:
    """Rows x, y, px, py, a_def, b_def as coefficient 4-vectors over (a, a+, b, b+).

    The plane rows solve the 4x4 map that defines the ordinary modes in
    terms of the plane operators, with the quadratures of a and b on the
    right, x-like ones times s = (mu/nu)**(1/4) and p-like ones over it, so
    the deformed vacuum is near |0,0> at any mu/nu; they are hermitised (an
    a+ weight is the conjugate of the a weight) to kill rounding asymmetry.
    a_def mixes x with px, b_def y with py, with the quartic-root weights
    that make the pair dimensionless.
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
    # s (a + a+), (a - a+)/(i s), s (b + b+), (b - b+)/(i s) over
    # (a, a+, b, b+), built so rather than scaled afterwards; s = 1 at mu = nu
    s = (params.mu / params.nu) ** 0.25
    quadratures = np.array(
        [[s, s, 0, 0], [-1j / s, 1j / s, 0, 0], [0, 0, s, s], [0, 0, -1j / s, 1j / s]]
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


def build_operator_set(params: NcParams, space: FockSpace) -> OperatorSet:
    coeffs = _ladder_coefficients(params)
    x, y, px, py, a_def, b_def, a_ord, b_ord = (
        OperatorMatrix(space, row) for row in (*coeffs, _UNIT[0], _UNIT[2])
    )
    return OperatorSet(
        space=space, params=params, a_ord=a_ord, b_ord=b_ord,
        x=x, y=y, px=px, py=py, a_def=a_def, b_def=b_def, coeffs=coeffs,
    )


def _displacement_row(ops: OperatorSet, amps: ModeAmplitudes) -> np.ndarray:
    """The coefficient 4-vector over (a, a+, b, b+) of the displacement
    generator alpha a_def+ + beta b_def+ - conj(alpha) a_def - conj(beta) b_def."""
    alpha, beta = amps.alpha, amps.beta
    a_row, b_row = ops.coeffs[4:]
    return (alpha * _adjoint(a_row) + beta * _adjoint(b_row)
            - np.conjugate(alpha) * a_row - np.conjugate(beta) * b_row)


def check_displacement(ops: OperatorSet, amps: ModeAmplitudes, buffer: int) -> np.ndarray:
    """The displacement generator's row (_displacement_row), once its mean
    occupation is admitted: refuse with PopulationOverflow a displacement
    whose mean occupation in the engine's basis, |<a>|**2 + |<b>|**2 over
    its ordinary modes (the row's a+ and b+ weights), exceeds
    cutoff - buffer.  The state cannot fit, and a large enough one
    overflows its amplitudes to NaN in make_state's recurrence."""
    row = _displacement_row(ops, amps)
    _admit_mean_occupation(row, ops.space, buffer)
    return row


def _admit_mean_occupation(row: np.ndarray, space: FockSpace, buffer: int) -> None:
    """check_displacement's refusal, on a displacement row already built."""
    # Python floats: the square overflows to inf, without a warning
    mean = math.hypot(abs(row[1]), abs(row[3]))
    if not mean * mean <= space.cutoff - buffer:
        raise PopulationOverflow(
            f"in the engine's basis, the displaced state's mean occupation "
            f"{mean * mean:.3e} exceeds cutoff {space.cutoff} minus buffer {buffer}; "
            "increase the cutoff"
        )


def _refuse_large_squeeze(z: Optional[SqueezeParam]) -> None:
    if z is not None and z.r > DEFAULT_MAX_SQUEEZE:
        raise SqueezeTooLargeForCutoff(
            f"squeeze r={z.r} exceeds the engine's bound r <= {DEFAULT_MAX_SQUEEZE}"
        )


@dataclass(frozen=True, eq=False)
class _DenseUnitary:
    """displacement_op's unitary as a dense dim x dim array, the Kronecker
    product of its two single-mode factors."""

    matrix: np.ndarray

    def dag(self) -> "_DenseUnitary":
        return _DenseUnitary(self.matrix.conj().T.copy())


def displacement_op(
    params: NcParams, space: FockSpace, amps: ModeAmplitudes,
    ops: Optional[OperatorSet] = None,
) -> _DenseUnitary:
    """Dense unitary displacement of the deformed pair by (alpha, beta).

    The generator is row . (a, a+, b, b+) with row from _displacement_row,
    and on the truncated space a = A (x) 1 and b = 1 (x) A, with A the
    single-mode annihilator.  So it is the Kronecker sum of the blocks
    G_a = row[0] A + row[1] A+ and G_b = row[2] A + row[3] A+, and its
    exponential is exactly exp(G_a) (x) exp(G_b): two (cutoff+1)-square
    exponentials from one _expm call, then one Kronecker product.
    The only dense dim x dim array of the engine.  No state or check uses
    it (make_state builds states from their Gaussian data); the tests and
    the benchmark's displacement probe conjugate it, so it stays until
    that probe becomes a commutator residual (ROADMAP item 1).  Raises
    NonFinite on a generator that is not finite or too large for _expm to
    scale (a 1-norm above 2**1022), then PopulationOverflow on a mean
    occupation above the cutoff (check_displacement's refusal at buffer 0,
    on the same row).
    """
    if ops is None:
        ops = build_operator_set(params, space)
    A = _lowering(ops.space.cutoff)
    with np.errstate(over="ignore", invalid="ignore"):
        row = _displacement_row(ops, amps)
        blocks = np.array([row[0] * A + row[1] * A.T, row[2] * A + row[3] * A.T])
        if not np.abs(blocks).sum(axis=-2).max() <= 2.0 ** 1022:
            raise NonFinite("displacement generator is not finite, or too large to exponentiate")
        _admit_mean_occupation(row, ops.space, 0)
        factors = _expm(blocks)
    return _DenseUnitary(np.kron(*factors))


# [u.L, w.L] = u @ _J @ w for coefficient 4-vectors over L = (a, a+, b, b+),
# from [a, a+] = [b, b+] = 1
_J = np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])

# The 16-node Gauss-Legendre rule on [0, 1], from the positive nodes of the
# rule on [-1, 1] and their weights (Abramowitz and Stegun, table 25.4)
_LEGENDRE_X = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499])
_LEGENDRE_W = np.array([
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176])
_NODES = 0.5 * np.concatenate([1.0 - _LEGENDRE_X[::-1], 1.0 + _LEGENDRE_X])
_WEIGHTS = 0.5 * np.concatenate([_LEGENDRE_W[::-1], _LEGENDRE_W])


def _expm(m: np.ndarray) -> np.ndarray:
    """exp of each matrix of a stack of small ones: scaled by 2**-s until
    every 1-norm is at most 1/2, a degree-18 Taylor polynomial (remainder
    below 1e-22 relative), then squared s times."""
    norm = float(np.abs(m).sum(axis=-2).max())
    steps = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0.0 else 0
    m = m / 2.0 ** steps
    out = term = np.eye(m.shape[-1])
    for k in range(1, 19):
        term = term @ m / k
        out = out + term
    for _ in range(steps):
        out = out @ out
    return out


def _pair_data(rows: np.ndarray, g: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(L, l) of the state annihilated by rows . (a, a+, b, b+) - g.

    With rows = Ma (a, b) + Mc (a+, b+), the state is
    exp(a+^T L a+ / 2 + l . a+)|0,0> up to a factor, with L = -Ma^-1 Mc and
    l = Ma^-1 g from one 2x2 solve.  It exists exactly when L is symmetric,
    which is [rows_0, rows_1] = 0; a singular Ma, or an asymmetry |L01 - L10|
    above 1e-10, raises SaturatedOrSuperCritical.  rows may be a (..., 2, 4)
    stack, g (2,) or (..., 2)."""
    g = np.broadcast_to(np.asarray(g, dtype=np.complex128)[..., None], rows.shape[:-1] + (1,))
    try:
        sol = np.linalg.solve(rows[..., [0, 2]], np.concatenate([-rows[..., [1, 3]], g], axis=-1))
    except np.linalg.LinAlgError:
        raise SaturatedOrSuperCritical("no Gaussian null state: singular (a, b) part") from None
    pair, linear = sol[..., :2], sol[..., 2]
    asymmetry = float(np.abs(pair[..., 0, 1] - pair[..., 1, 0]).max())
    if asymmetry > 1e-10:
        raise SaturatedOrSuperCritical(
            "no Gaussian null state: the pair matrix is not symmetric "
            f"(asymmetry {asymmetry:.3e})"
        )
    return pair, linear


def _gaussian_states(space: FockSpace, rows: np.ndarray, g: np.ndarray,
                     phase: np.ndarray) -> np.ndarray:
    """The (S, dim) unit states annihilated by rows[s] . (a, a+, b, b+) - g[s],
    with phase[s] on |0,0>.  a_j acts on state s as (L a+ + l)_j, (L, l) from
    _pair_data, so sqrt(n_j + 1) psi[n + e_j] = l_j psi[n] + sum_k L_jk sqrt(n_k) psi[n - e_k]
    (Miatto and Quesada, Quantum 4, 366 (2020)): from psi[0, 0] = 1, along
    n_b on the row n_a = 0 (j = b), then one row of n_a at a time (j = a),
    each step once for the whole stack (root[0] = 0 drops psi[-1] at n = 0)."""
    pair, linear = _pair_data(rows, g)
    cutoff = space.cutoff
    root = np.sqrt(np.arange(cutoff + 1.0))
    psi = np.zeros((len(rows), cutoff + 1, cutoff + 1), dtype=np.complex128)
    psi[:, 0, 0] = 1.0
    first, l_b, pair_bb = psi[:, 0], linear[:, 1], pair[:, 1, 1]
    for n in range(cutoff):
        first[:, n + 1] = (l_b * first[:, n] + (pair_bb * root[n]) * first[:, n - 1]) / root[n + 1]
    l_a, pair_aa, cross = linear[:, 0, None], pair[:, 0, 0, None], pair[:, 0, 1, None] * root[1:]
    for n in range(cutoff):
        row = l_a * psi[:, n]
        row[:, 1:] += cross * psi[:, n, :-1]
        row += (pair_aa * root[n]) * psi[:, n - 1]
        psi[:, n + 1] = row / root[n + 1]
    psi = psi.reshape(len(rows), space.dim)
    for vector, angle in zip(psi, phase):
        vector *= cmath.exp(1j * angle) / np.linalg.norm(vector)
    return psi


def deformed_vacuum(ops: OperatorSet) -> StateVector:
    """The unit state annihilated by a_def and b_def of ops, positive on
    |0,0>; SaturatedOrSuperCritical when none exists (see _pair_data)."""
    vector, = _gaussian_states(ops.space, ops.coeffs[None, 4:], np.zeros((1, 2)), np.zeros(1))
    return StateVector(ops.space, vector)


def _squeeze_terms(ops: OperatorSet, z: SqueezeParam):
    """The squeeze generator G = conj(z) a_def b_def - z a_def+ b_def+ as
    its terms (c, x, y), each c X Y with x and y the rows of X and Y."""
    a_row, b_row = ops.coeffs[4:]
    return ((np.conjugate(z.z), a_row, b_row), (-z.z, _adjoint(a_row), _adjoint(b_row)))


def _squeeze_action(terms) -> np.ndarray:
    """The 4x4 M of [G, w.L] = (M w).L, for G the sum of the terms c X Y:
    [XY, W] = X[Y, W] + [X, W]Y, and each bracket is a c-number (_J)."""
    return sum(c * (np.outer(x, y @ _J) + np.outer(y, x @ _J)) for c, x, y in terms)


def _squeezed_rows(ops: OperatorSet, rows: np.ndarray, g: np.ndarray, z: SqueezeParam):
    """(rows of S A S+, Im log(<0,0|S psi> / <0,0|psi>)) for the annihilators
    A = rows . (a, a+, b, b+) - g of psi, S = exp(G), G = conj(z) a_def b_def
    - z a_def+ b_def+.  [G, w.L] = (M w).L, with M from _squeeze_action,
    so S A S+ has rows @ exp(M)^T and the same g.  d log <0,0|exp(tG) psi>
    / dt is G's normal-ordering constant plus sum_ij A_ij (L_t + l_t l_t^T)_ij,
    A its a_i a_j part and (L_t, l_t) from _pair_data at t, integrated by
    the 16-node rule."""
    terms = _squeeze_terms(ops, z)
    action = _squeeze_action(terms)
    constant = sum(c * (x[0] * y[1] + x[2] * y[3]) for c, x, y in terms)
    lowering = sum(c * np.outer(x[[0, 2]], y[[0, 2]]) for c, x, y in terms)
    flows = _expm(np.append(_NODES, 1.0)[:, None, None] * action)
    stacked = rows @ flows.swapaxes(-1, -2)
    pair, linear = _pair_data(stacked[:-1], g)
    moments = pair + linear[:, :, None] * linear[:, None, :]
    rate = constant + np.einsum("ij,tij->t", lowering, moments)
    return stacked[-1], float((_WEIGHTS @ rate).imag)


def _gaussian_data(ops: OperatorSet, vacuum_pair: np.ndarray, amps, z, buffer: int):
    """(rows, g, phase) of S D |0_def>: the Gaussian annihilated by a_def and
    b_def, shifted by their c-number commutators g with the displacement
    generator X, and carried through S by _squeezed_rows, with the phase of
    <0,0|S D|0_def>: Im(c.d/2 + d^T L0 d/2) for D by Baker-Campbell-Hausdorff,
    c and d the creator and annihilator parts of X and L0 = vacuum_pair."""
    rows = ops.coeffs[4:]
    g = np.zeros(2, dtype=np.complex128)
    phase = 0.0
    if amps is not None and (amps.alpha != 0.0 or amps.beta != 0.0):
        row = check_displacement(ops, amps, buffer)
        g = rows @ _J @ row
        ann, cre = row[[0, 2]], row[[1, 3]]
        phase = float((cre @ ann + ann @ vacuum_pair @ ann).imag) / 2.0
    if z is not None and z.r > 0.0:
        rows, squeeze_phase = _squeezed_rows(ops, rows, g, z)
        phase += squeeze_phase
    return rows, g, phase


# complex amplitudes of one stack (1 MiB): 68 states at cutoff 30, one at 200
_STACK_ENTRIES = 2 ** 16


def make_states(
    ops: OperatorSet, cases: Sequence[Tuple[Optional[ModeAmplitudes], Optional[SqueezeParam]]],
    *, buffer: int = DEFAULT_BUFFER, tail_tol: float = DEFAULT_TAIL_TOL,
) -> Iterator[Tuple[StateVector, float]]:
    """S D |0_def> and its tail fraction (safe_norm_fraction) for each (amps, z)
    case in order, None for no D or S, built in stacks of _STACK_ENTRIES
    amplitudes as they are asked for.  Refuses, when first asked, a buffer
    outside [0, cutoff] and r above DEFAULT_MAX_SQUEEZE in any case, then in
    case order a mean occupation above cutoff - buffer (check_displacement)
    and more than tail_tol of a state within ``buffer`` quanta of the cutoff."""
    space = ops.space
    check_buffer(space, buffer)
    for _, z in cases:
        _refuse_large_squeeze(z)
    vacuum_pair, _ = _pair_data(ops.coeffs[4:], np.zeros(2))
    size = max(1, _STACK_ENTRIES // space.dim)
    for start in range(0, len(cases), size):
        data, refusal = [], None
        for amps, z in cases[start:start + size]:
            try:
                data.append(_gaussian_data(ops, vacuum_pair, amps, z, buffer))
            except (PopulationOverflow, SaturatedOrSuperCritical) as exc:
                # raised once the states before it are out
                refusal = exc
                break
        if data:
            for vector in _gaussian_states(space, *(np.array(column) for column in zip(*data))):
                state = StateVector(space, vector)
                leak = safe_norm_fraction(state, buffer=buffer)
                if not leak <= tail_tol:
                    raise PopulationOverflow(f"{leak:.3e} of the population lies within {buffer} "
                                             f"quanta of cutoff {space.cutoff}; increase the cutoff")
                yield state, leak
        if refusal is not None:
            raise refusal


def make_state(ops: OperatorSet, amps: Optional[ModeAmplitudes] = None,
               z: Optional[SqueezeParam] = None, *, buffer: int = DEFAULT_BUFFER,
               tail_tol: float = DEFAULT_TAIL_TOL) -> StateVector:
    """The state S D |0_def> of the one case (amps, z), from make_states."""
    return next(make_states(ops, [(amps, z)], buffer=buffer, tail_tol=tail_tol))[0]


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
    return complex(np.vdot(state.vector, op @ state.vector))


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
    return _moments(state, np.asarray(op.row)[None])[0]


def _moments(state: StateVector, rows: np.ndarray,
             images: Optional[np.ndarray] = None) -> List[Tuple[complex, float]]:
    """Mean and variance in state of each Hermitian operator rows[k] .
    (a, a+, b, b+), from one application of the ladders: images is the
    state's _ladder_images, built here unless the caller has it.  Tiny
    negative variances from rounding are clamped to zero."""
    if images is None:
        images = _ladder_images(state.space, state.vector)
    moments = []
    for applied in rows @ images:
        mean = complex(np.vdot(state.vector, applied))
        second = float(np.real(np.vdot(applied, applied)))
        var = second - (mean.real * mean.real + mean.imag * mean.imag)
        moments.append((mean, max(var, 0.0)))
    return moments
