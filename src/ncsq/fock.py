"""Truncated two-mode number-basis realisation of the deformed pair.

The Hilbert space is spanned by |n_a, n_b> with both occupations capped at
``cutoff``; index layout is row-major, i = n_a*(cutoff+1) + n_b.  The plane
operators (x, y, px, py), the deformed pair (a_def, b_def), the ordinary
pair and the displacement generator are exact linear combinations of the
ordinary a, a+, b, b+, with coefficient 4-vectors from inverting the 4x4
map that defines the ordinary modes in terms of the plane operators.
Every operator is stored banded (OperatorMatrix): a tuple of diagonal
offsets and one row of entries per offset.  The ladders sit at offsets
+-1 and +-(cutoff+1); each space caches their weights once, and every
linear operator is one coefficient times one ladder weight per entry.
Generators are at most quadratic in the ladder, so their products and
commutators stay a handful of bands, and every operation (product,
adjoint, sum, matrix-vector product, 1-norm) is a few numpy slices per
band.  A commutator [L, R] is produced one output band at a time
(_commutator_bands): its band at offset o sums the band pairs p + q = o
of LR and of RL, with no product operator formed.  The verifier takes
each commutator identity, such as one annihilator's image [G, m] under
the squeeze generator G, from these bands one at a time, subtracting the
expected band and reading its safe-block max before the next.  States
are built by exponential-times-vector products: expm_multiply, a
truncated Taylor series applied to one vector, whose degree and step
count come from the generator's exact 1-norm.  The deformed vacuum is
the first: exp(Q)|0,0> with Q quadratic in the ordinary creators only,
its 2x2 pair matrix from one solve in the ladder coefficients of a_def
and b_def and closed by that matrix's symmetry.  A squeezed state is its
coherent state squeezed, so callers that need both build the coherent
state once; every state function takes its params and space from one
OperatorSet.  The module imports numpy only.  The one dense dim x dim matrix is the unitary
of displacement_op, about 45 MB at cutoff 40, which the tests and the
benchmark's displacement probe still conjugate; it is the package's only
user of scipy, whose scipy.linalg it imports inside its body.

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
from typing import Optional, Tuple

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
    def _ladder_bands(self) -> Tuple[Tuple[int, ...], np.ndarray]:
        """Offsets (-side, -1, 1, side) and the (4, dim) ladder weights of
        a+, b+, b and a on them, in that order: sqrt(n_a), sqrt(n_b),
        sqrt(n_b + 1) and sqrt(n_a + 1), zero where the ladder leaves the
        space or would wrap across a row of n_b."""
        side = self.cutoff + 1
        n_a, n_b = self.n_a, self.n_b
        weights = np.sqrt(np.stack([
            n_a, n_b,
            np.where(n_b < self.cutoff, n_b + 1, 0),
            np.where(n_a < self.cutoff, n_a + 1, 0),
        ]).astype(float))
        weights.setflags(write=False)
        return (-side, -1, 1, side), weights

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


def _slices(offset: int, dim: int) -> Tuple[slice, slice]:
    """Rows i, and their columns i + offset, of the entries a band at this
    offset holds inside a dim x dim matrix (|offset| < dim)."""
    if offset >= 0:
        return slice(0, dim - offset), slice(offset, dim)
    return slice(-offset, dim), slice(0, dim + offset)


def _merged(space: FockSpace, terms) -> "OperatorMatrix":
    """The operator whose bands are the sums of the (offset, band) terms that
    share an offset, with offsets in ascending order."""
    sums: dict = {}
    for offset, band in terms:
        sums[offset] = sums[offset] + band if offset in sums else band
    offsets = tuple(sorted(sums))
    bands = np.array([sums[o] for o in offsets], dtype=np.complex128)
    return OperatorMatrix(space, offsets, bands.reshape(len(offsets), space.dim))


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Complex matrix tagged with the space it acts on, in banded form.

    Every engine operator is linear or quadratic in the ladders, so it is a
    few diagonals at fixed offsets (+-1, +-(cutoff+1) and their pairwise
    sums).  It is stored as the standard diagonal (DIA) format: ``offsets``
    is a tuple of distinct offsets in ascending order, and row k of the
    (len(offsets), dim) array ``bands`` holds ``M[i, i + offsets[k]]`` at
    index i, zero where that column falls outside the space or the entry
    wraps across a row of n_b.  Products, adjoints and sums work band by
    band with numpy slices.  ``matrix`` is a dense dim x dim view built on
    each access, for tests and the benchmark's displacement probe only.
    """

    space: FockSpace
    offsets: Tuple[int, ...]
    bands: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """A new dense dim x dim array of the operator (dim**2 complex
        entries: about 45 MB at cutoff 40), for tests and the benchmark's
        displacement probe only; no engine path reads it."""
        index = np.arange(self.space.dim)
        dense = np.zeros((self.space.dim, self.space.dim), dtype=np.complex128)
        for rows, cols, entries in self._diagonals:
            dense[index[rows], index[cols]] = entries
        return dense

    @functools.cached_property
    def _diagonals(self) -> list:
        """(rows, cols, entries) per band: the rows it fills, their columns
        and its entries on those rows, sliced once per operator."""
        diagonals = []
        for offset, band in zip(self.offsets, self.bands):
            rows, cols = _slices(offset, self.space.dim)
            diagonals.append((rows, cols, band[rows]))
        return diagonals

    def band(self, offset: int) -> np.ndarray:
        """The band at this offset, zeros if none is stored."""
        if offset in self.offsets:
            return self.bands[self.offsets.index(offset)]
        return np.zeros(self.space.dim, dtype=np.complex128)

    def onenorm(self) -> float:
        """The exact 1-norm: the largest absolute column sum."""
        sums = np.zeros(self.space.dim)
        for _, cols, entries in self._diagonals:
            sums[cols] += np.abs(entries)
        return float(sums.max())

    def dag(self) -> "OperatorMatrix":
        """Adjoint: the band at offset o becomes the conjugated band at -o,
        shifted by o, since M+[j, j - o] = conj(M[j - o, j])."""
        bands = np.zeros_like(self.bands)
        for k, (_, cols, entries) in enumerate(self._diagonals):
            bands[k, cols] = np.conjugate(entries)
        return OperatorMatrix(
            self.space, tuple(-o for o in reversed(self.offsets)), bands[::-1].copy()
        )

    @functools.cached_property
    def _hermiticity(self) -> Tuple[float, float]:
        """(max |M - M+|, max(1, max |M|)), computed once: no operator's
        bands are changed after it is built."""
        defect = np.abs((self - self.dag()).bands).max(initial=0.0)
        return float(defect), max(1.0, float(np.abs(self.bands).max(initial=0.0)))

    def hermiticity_defect(self) -> float:
        return self._hermiticity[0]

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        _check_same_space(self.space, other.space)
        return _merged(self.space, [*zip(self.offsets, self.bands),
                                    *zip(other.offsets, other.bands)])

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "OperatorMatrix":
        return OperatorMatrix(self.space, self.offsets, -self.bands)

    def __mul__(self, scalar: complex) -> "OperatorMatrix":
        if not isinstance(scalar, numbers.Complex):
            return NotImplemented
        return OperatorMatrix(self.space, self.offsets, self.bands * complex(scalar))

    __rmul__ = __mul__

    def _product(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Band by band: (AB)[i, i + p + q] gets A[i, i + p] B[i + p, i + p + q]."""
        dim = self.space.dim
        sums: dict = {}
        for p, (rows, cols, left) in zip(self.offsets, self._diagonals):
            for q, right in zip(other.offsets, other.bands):
                if abs(p + q) >= dim:
                    continue
                acc = sums.get(p + q)
                if acc is None:
                    acc = sums[p + q] = np.zeros(dim, dtype=np.complex128)
                acc[rows] += left * right[cols]
        return _merged(self.space, sums.items())

    def _apply(self, block: np.ndarray) -> np.ndarray:
        """M @ block for a vector or a (dim, m) block of columns."""
        out = np.zeros(block.shape, dtype=np.result_type(self.bands, block))
        for rows, cols, entries in self._diagonals:
            out[rows] += (entries if block.ndim == 1 else entries[:, None]) * block[cols]
        return out

    def __matmul__(self, other):
        if isinstance(other, OperatorMatrix):
            _check_same_space(self.space, other.space)
            return self._product(other)
        if isinstance(other, StateVector):
            _check_same_space(self.space, other.space)
            return StateVector(self.space, self._apply(other.vector))
        if isinstance(other, np.ndarray):
            return self._apply(other)
        return NotImplemented


def _identity(space: FockSpace) -> OperatorMatrix:
    return OperatorMatrix(space, (0,), np.ones((1, space.dim), dtype=np.complex128))


def _commutator_bands(left: OperatorMatrix, right: OperatorMatrix):
    """[left, right] one output offset o at a time, in ascending order, as
    (o, band) with band a new dim-entry array.

    (LR)_o and (RL)_o are each accumulated over the band pairs with
    p + q = o in the order _product visits them, and then subtracted, so
    every entry equals that of left @ right - right @ left, up to the sign
    of a zero; no product operator is formed.  Offsets with |o| >= dim are
    skipped, as _product skips them.
    """
    _check_same_space(left.space, right.space)
    dim = left.space.dim
    left_bands, right_bands = (dict(zip(op.offsets, op.bands)) for op in (left, right))
    # scratch for one band pair's term, and for (RL)_o
    term = np.empty(dim, dtype=np.complex128)
    reverse = np.empty(dim, dtype=np.complex128)

    def accumulate(acc: np.ndarray, a: OperatorMatrix, b_bands: dict, o: int) -> np.ndarray:
        """acc += (ab)_o: a[i, i + p] b[i + p, i + o] over p in a's order."""
        for p, (rows, cols, entries) in zip(a.offsets, a._diagonals):
            band = b_bands.get(o - p)
            if band is not None:
                acc[rows] += np.multiply(entries, band[cols], out=term[rows])
        return acc

    for o in sorted({p + q for p in left.offsets for q in right.offsets if abs(p + q) < dim}):
        reverse.fill(0.0)
        band = accumulate(np.zeros(dim, dtype=np.complex128), left, right_bands, o)
        band -= accumulate(reverse, right, left_bands, o)
        yield o, band


def commutator(left: OperatorMatrix, right: OperatorMatrix) -> OperatorMatrix:
    """[left, right], merged from _commutator_bands."""
    return _merged(left.space, _commutator_bands(left, right))


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


# the ladder of each band of FockSpace._ladder_bands, as an index into
# a coefficient 4-vector over (a, a+, b, b+)
_BAND_LADDER = [1, 3, 2, 0]


def _from_coefficients(space: FockSpace, coeffs: np.ndarray) -> OperatorMatrix:
    """sum_k coeffs[k] L_k over (a, a+, b, b+), one coefficient times one
    ladder weight per entry; the band of a zero coefficient is dropped."""
    offsets, weights = space._ladder_bands
    coeffs = np.asarray(coeffs, dtype=np.complex128)[_BAND_LADDER]
    keep = coeffs != 0.0
    return OperatorMatrix(
        space,
        tuple(o for o, k in zip(offsets, keep) if k),
        coeffs[keep, None] * weights[keep],
    )


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
        return deformed_vacuum(self)


def build_operator_set(params: NcParams, space: FockSpace) -> OperatorSet:
    coeffs = _ladder_coefficients(params)
    x, y, px, py, a_def, b_def, a_ord, b_ord = (
        _from_coefficients(space, row) for row in (*coeffs, _UNIT[0], _UNIT[2])
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


def _displacement_generator(ops: OperatorSet, amps: ModeAmplitudes) -> OperatorMatrix:
    return _from_coefficients(ops.space, _displacement_row(ops, amps))


def _squeeze_generator(ops: OperatorSet, z: SqueezeParam) -> OperatorMatrix:
    zc = z.z
    return np.conjugate(zc) * ops.pair_annihilator - zc * ops.pair_creator


def check_displacement(ops: OperatorSet, amps: ModeAmplitudes, buffer: int) -> None:
    """Refuse with PopulationOverflow a displacement whose mean ordinary
    occupation |<a>|**2 + |<b>|**2 (the generator's a+ and b+ weights)
    exceeds cutoff - buffer: its truncated exponential would reflect off
    the cutoff, and a large enough one overflows its generator."""
    row = _displacement_row(ops, amps)
    # Python floats: the square overflows to inf, without a warning
    mean = math.hypot(abs(row[1]), abs(row[3]))
    if not mean * mean <= ops.space.cutoff - buffer:
        raise PopulationOverflow(
            f"the displaced state's mean occupation {mean * mean:.3e} exceeds "
            f"cutoff {ops.space.cutoff} minus buffer {buffer}; increase the cutoff"
        )


def _refuse_large_squeeze(z: Optional[SqueezeParam]) -> None:
    if z is not None and z.r > DEFAULT_MAX_SQUEEZE:
        raise SqueezeTooLargeForCutoff(
            f"squeeze r={z.r} exceeds the engine's bound r <= {DEFAULT_MAX_SQUEEZE}"
        )


@dataclass(frozen=True, eq=False)
class _DenseUnitary:
    """displacement_op's unitary as a dense dim x dim array."""

    matrix: np.ndarray

    def dag(self) -> "_DenseUnitary":
        return _DenseUnitary(self.matrix.conj().T.copy())


def displacement_op(
    params: NcParams, space: FockSpace, amps: ModeAmplitudes,
    ops: Optional[OperatorSet] = None,
) -> _DenseUnitary:
    """Dense unitary displacement of the deformed pair by (alpha, beta).

    The only dense dim x dim array of the engine, and the package's only
    user of scipy, whose scipy.linalg.expm it imports here so that no
    other path loads scipy.
    No state or check uses it (make_state applies the generator with
    expm_multiply); the tests and the benchmark's displacement probe
    conjugate it, so it stays until that probe becomes a commutator
    residual (ROADMAP item 1).  Raises NonFinite on a non-finite generator
    or unitary.
    """
    from scipy.linalg import expm

    if ops is None:
        ops = build_operator_set(params, space)
    gen = _displacement_generator(ops, amps).matrix
    if not np.isfinite(gen).all():
        raise NonFinite("displacement generator has non-finite entries")
    unitary = expm(gen)
    if not np.isfinite(unitary).all():
        raise NonFinite("displacement unitary has non-finite entries")
    return _DenseUnitary(unitary)


def deformed_vacuum(ops: OperatorSet) -> StateVector:
    """The state annihilated by both deformed annihilators of ops.

    Write a_def and b_def as Ma (a, b) + Mc (a+, b+), with Ma and Mc the
    2x2 annihilator and creator parts of their ladder coefficients.  The
    joint null state is the Gaussian exp(Q)|0,0>, Q = a+^T L a+ / 2 over
    the ordinary creators, with L = -Ma^-1 Mc from one 2x2 solve.  Such a
    state exists exactly when L is symmetric, which is [a_def, b_def] = 0;
    an asymmetry |L01 - L10| above 1e-10 raises SaturatedOrSuperCritical.
    Q only raises the occupation, and exp(Q)|0,0> is one expm_multiply.
    """
    space = ops.space
    # rows a_def, b_def over (a, a+, b, b+): annihilator columns 0 and 2
    rows = ops.coeffs[4:]
    lam = -np.linalg.solve(rows[:, [0, 2]], rows[:, [1, 3]])
    asymmetry = float(abs(lam[0, 1] - lam[1, 0]))
    if asymmetry > 1e-10:
        raise SaturatedOrSuperCritical(
            "no Gaussian null state: the pair matrix is not symmetric "
            f"(asymmetry {asymmetry:.3e})"
        )
    adag = _from_coefficients(space, _UNIT[1])
    bdag = _from_coefficients(space, _UNIT[3])
    quad = (0.5 * lam[0, 0]) * (adag @ adag) + lam[0, 1] * (adag @ bdag) \
        + (0.5 * lam[1, 1]) * (bdag @ bdag)
    vac = expm_multiply(quad, basis_state(space, 0, 0).vector)
    return StateVector(space, vac).normalized()


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


def expm_multiply(matrix: OperatorMatrix, vector: np.ndarray) -> np.ndarray:
    """exp(matrix) @ vector for a banded operator and a vector.

    The truncated Taylor algorithm of Al-Mohy and Higham (2011), algorithm
    3.2: the matrix is shifted by its mean diagonal mu, the exponential of
    the rest is taken in s steps of a degree-m Taylor polynomial, each step
    stops early once two successive terms fall below the unit roundoff of
    the partial sum (all in the max-norm), and exp(mu/s) is restored per
    step.  (m, s) minimise m*s over the theta table, from the exact 1-norm
    of the shifted matrix (its largest absolute column sum), so no norm
    estimate is needed.  Raises NonFinite on a non-finite matrix.
    """
    mu = matrix.band(0).sum() / matrix.space.dim
    if mu != 0.0:
        matrix = matrix - mu * _identity(matrix.space)
    norm = matrix.onenorm()
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
    out = vector
    for _ in range(steps):
        term = out
        c1 = np.abs(term).max()
        for j in range(degree):
            term = matrix @ term
            term *= 1.0 / (steps * (j + 1))
            c2 = np.abs(term).max()
            out = out + term
            if c1 + c2 <= 2.0 ** -53 * np.abs(out).max():
                break
            c1 = c2
        out = eta * out
    return out


def make_state(
    ops: OperatorSet,
    amps: Optional[ModeAmplitudes] = None,
    z: Optional[SqueezeParam] = None,
    *,
    buffer: int = DEFAULT_BUFFER,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> StateVector:
    """Displaced, optionally squeezed state of the deformed pair of ops.

    Pipeline: deformed vacuum, then the displacement, then the squeeze (so
    the squeeze acts last), each unitary applied to the vector by
    expm_multiply's truncated Taylor series rather than formed as a full
    matrix exponential.
    Refused before any exponential: a buffer outside [0, cutoff]
    (BufferOutOfRange), r above DEFAULT_MAX_SQUEEZE (SqueezeTooLargeForCutoff),
    and a displacement whose mean ordinary occupation |<a>|**2 + |<b>|**2
    (the generator's a+ and b+ weights) exceeds cutoff - buffer
    (PopulationOverflow): its truncated exponential would reflect off the
    cutoff, unseen by the tail guard, in a step count that grows with it.
    The result is normalised and guarded: if more than tail_tol of its
    population sits within ``buffer`` quanta of the cutoff, the truncation
    cannot be trusted and PopulationOverflow is raised.
    """
    space = ops.space
    check_buffer(space, buffer)
    _refuse_large_squeeze(z)
    vec = ops.ground.vector
    if amps is not None and (amps.alpha != 0.0 or amps.beta != 0.0):
        check_displacement(ops, amps, buffer)
        vec = expm_multiply(_displacement_generator(ops, amps), vec)
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
    r beyond DEFAULT_MAX_SQUEEZE first, as make_state does."""
    if z is not None and z.r > 0.0:
        vec = expm_multiply(_squeeze_generator(ops, z), vec)
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
    applied = op @ state.vector
    mean = complex(np.vdot(state.vector, applied))
    second = float(np.real(np.vdot(applied, applied)))
    var = second - (mean.real * mean.real + mean.imag * mean.imag)
    if var < 0.0:
        var = 0.0
    return mean, var
