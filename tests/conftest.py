"""Shared fixtures, float-comparison helpers and reference routes."""

import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse import csr_array, diags_array, eye_array, kron
from scipy.sparse.linalg import expm_multiply

from ncsq import ModeTransform, analytic, make_space, squeeze_commutators


def ulp_between(a: float, b: float) -> float:
    """|a - b| measured in ulps of the larger magnitude."""
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def to_csr(op):
    """An engine operator as a scipy CSR array: its row times scipy
    Kronecker products of the single-mode ladder, a = A (x) 1 and
    b = 1 (x) A, so scipy's arithmetic on it is a reference that shares
    nothing with how the engine applies its ladders."""
    side = op.space.cutoff + 1
    lower = diags_array(np.sqrt(np.arange(1.0, side)), offsets=1)
    eye = eye_array(side)
    ladders = (kron(lower, eye), kron(lower.T, eye), kron(eye, lower), kron(eye, lower.T))
    return csr_array(sum(c * ladder for c, ladder in zip(op.row, ladders)), dtype=np.complex128)


# ---------------------------------------------------------------------------
# the sparse oracle: commutators as scipy products of the engine's matrices


def squeeze_generator_csr(ops, z):
    """G = conj(z) a_def b_def - z a_def+ b_def+ as a scipy product of the
    engine's truncated a_def and b_def, the creator pair its adjoint."""
    pair = to_csr(ops.a_def) @ to_csr(ops.b_def)
    return np.conjugate(z.z) * pair - z.z * pair.conj().T


def displacement_generator_csr(a_def, b_def, amps):
    """alpha a_def+ + beta b_def+ - conj(alpha) a_def - conj(beta) b_def,
    summed by scipy from the given sparse a_def and b_def."""
    alpha, beta = amps.alpha, amps.beta
    return (alpha * a_def.conj().T + beta * b_def.conj().T
            - np.conjugate(alpha) * a_def - np.conjugate(beta) * b_def)


def safe_block_max(space, matrix, buffer):
    """Max magnitude over the stored entries of a scipy sparse matrix whose
    row and column both have total occupation <= cutoff - buffer; NaN if
    any of them is NaN."""
    safe = space.n_tot <= space.cutoff - buffer
    coo = matrix.tocoo()
    return float(np.max(np.abs(coo.data[safe[coo.row] & safe[coo.col]]), initial=0.0))


def commutator_residual(space, left, right, want, buffer):
    """Safe-block max of [left, right] - want, the commutator formed by
    scipy products; want is a c-number (times the identity) or a sparse
    matrix."""
    if np.isscalar(want):
        want = want * eye_array(space.dim, dtype=np.complex128)
    return safe_block_max(space, left @ right - right @ left - want, buffer)


def _image_csr(a_def, b_def, image):
    """image's combination of (a_def, b_def, b_def+, a_def+)."""
    return (image.c_a * a_def + image.c_b * b_def
            + image.c_bdag * b_def.conj().T + image.c_adag * a_def.conj().T)


def oracle_identity_residuals(ops, amps, z, buffer):
    """The residuals algebra_residuals and identity_suite report, read by
    the sparse oracle: each relation's safe-block max from scipy products
    of the engine's truncated operators (over min(1, size), as
    algebra_residuals scales them), displacement_property from the
    commutators of a_def and b_def with the displacement generator, and
    bogoliubov from those of the squeeze generator with each annihilator.
    Truncation shows only within buffer quanta of the cutoff: at buffer 0
    the algebra reads the edge, where [a, a+] = -cutoff on |cutoff, n_b>."""
    p, space = ops.params, ops.space
    x, y, px, py, a, b, a_ord, b_ord = (to_csr(getattr(ops, name)) for name in (
        "x", "y", "px", "py", "a_def", "b_def", "a_ord", "b_ord"))
    relations = {
        "xy": (x, y, 1j * p.mu, p.mu),
        "pxpy": (px, py, 1j * p.nu, p.nu),
        "xpx": (x, px, 1j * p.hbar, p.hbar),
        "ypy": (y, py, 1j * p.hbar, p.hbar),
        "xpy": (x, py, 0.0, max(p.mu, p.nu)),
        "ypx": (y, px, 0.0, max(p.mu, p.nu)),
        "a_adag": (a, a.conj().T, 1.0, 1.0),
        "b_bdag": (b, b.conj().T, 1.0, 1.0),
        "ab": (a, b, 0.0, 1.0),
        "a_bdag": (a, b.conj().T, 1j * p.theta, 1.0),
        "b_adag": (b, a.conj().T, -1j * p.theta, 1.0),
        "ord_a_adag": (a_ord, a_ord.conj().T, 1.0, 1.0),
        "ord_b_bdag": (b_ord, b_ord.conj().T, 1.0, 1.0),
        "ord_ab": (a_ord, b_ord, 0.0, 1.0),
        "ord_a_bdag": (a_ord, b_ord.conj().T, 0.0, 1.0),
        "XP": (0.5 * (x + y), 0.5 * (px + py), 0.5j * p.hbar, p.hbar),
    }
    out = {key: commutator_residual(space, left, right, lam, buffer) / min(1.0, size)
           for key, (left, right, lam, size) in relations.items()}
    gen = displacement_generator_csr(a, b, amps)
    out["displacement_property"] = max(
        commutator_residual(space, mode, gen, lam, buffer)
        for mode, lam in zip((a, b), analytic.coherent_eigenvalues(p, amps)))
    gen = squeeze_generator_csr(ops, z)
    want = analytic.squeeze_commutators(p, z)
    out["bogoliubov"] = max(
        commutator_residual(space, gen, mode, _image_csr(a, b, image), buffer)
        for mode, image in ((a, want.mode_a), (b, want.mode_b)))
    return out


# ---------------------------------------------------------------------------
# the paper-form oracle: both overlap exponents expanded in (a, b) by hand,
# for scalars or ndarray batches; the package evaluates them as two
# single-mode overlaps of u, v = (a +- i b)/sqrt(2) instead


def _coherent_overlap_raw(theta, a1, b1, a2, b2):
    """<a1, b1 | a2, b2> for scalar or ndarray amplitude batches."""
    a1c = np.conjugate(a1)
    b1c = np.conjugate(b1)
    a2c = np.conjugate(a2)
    b2c = np.conjugate(b2)
    exponent = (
        -0.5 * (a2c * a2 + b2c * b2 + a1c * a1 + b1c * b1)
        + a1c * a2
        + b1c * b2
        + 0.5j * theta * (b2c * a2 - a2c * b2 + b1c * a1 - a1c * b1)
        + 1j * theta * (a1c * b2 - b1c * a2)
    )
    return np.exp(exponent)


def _squeezed_overlap_exponent(theta, a1, b1, a2, b2, r, phi):
    """log <a1, b1 | a2, b2; z>, the log of the 1/sqrt(cosh cosh)
    prefactor included; at r = 0 it is the coherent exponent.  For fixed
    (a1, b1) it is a polynomial of degree two in the real and imaginary
    parts of (a2, b2)."""
    rp = r * (1.0 + theta)
    rm = r * (1.0 - theta)
    chp = np.cosh(rp)
    chm = np.cosh(rm)
    thp = np.tanh(rp)
    thm = np.tanh(rm)
    a1c = np.conjugate(a1)
    b1c = np.conjugate(b1)
    a2c = np.conjugate(a2)
    b2c = np.conjugate(b2)

    log_prefactor = -0.5 * np.log(chp * chm)
    norm_term = -0.5 * (
        a2c * a2 + b2c * b2 + a1c * a1 + b1c * b1
        + 1j * theta * (a2c * b2 - b2c * a2 + a1c * b1 - b1c * a1)
    )
    cross = a1c * a2 + b1c * b2
    branch_p = (1.0 + theta) * (cross + 1j * a1c * b2 - 1j * b1c * a2) / (2.0 * chp)
    branch_m = (1.0 - theta) * (cross - 1j * a1c * b2 + 1j * b1c * a2) / (2.0 * chm)
    ket_quad = -1j * np.exp(-1j * phi) * (
        0.25 * (1.0 + theta) * thp * (a2 + 1j * b2) ** 2
        - 0.25 * (1.0 - theta) * thm * (a2 - 1j * b2) ** 2
    )
    bra_quad = -1j * np.exp(1j * phi) * (
        0.25 * (1.0 + theta) * thp * (a1c - 1j * b1c) ** 2
        - 0.25 * (1.0 - theta) * thm * (a1c + 1j * b1c) ** 2
    )
    return log_prefactor + norm_term + branch_p + branch_m + ket_quad + bra_quad


@pytest.fixture(scope="session")
def space12():
    return make_space(12)


@pytest.fixture(scope="session")
def space20():
    return make_space(20)


@pytest.fixture(scope="session")
def space30():
    return make_space(30)


def squeeze_conjugated_block(ops, z, op, idx):
    """The (idx, idx) block of S op S+ with S = exp(G) the squeeze.

    Only the block's columns are conjugated: expm_multiply(-G) applies S+
    to those basis vectors, then op, then expm_multiply(G) applies S, and
    the block's rows are kept.  This is the dense conjugation's block, up
    to rounding, without a dense matrix exponential.
    """
    gen = squeeze_generator_csr(ops, z)
    cols = np.zeros((ops.space.dim, idx.size), dtype=np.complex128)
    cols[idx, np.arange(idx.size)] = 1.0
    cols = expm_multiply(gen, to_csr(op) @ expm_multiply(-gen, cols))
    return cols[idx]


def squeezed_eigen_residual(ops, z, vec, lam_a, lam_b):
    """max over m in (a_def, b_def) of ||S m S+ vec - lambda_m vec||, with
    S = exp(G) the squeeze applied as S+, then m, then S by expm_multiply:
    the eigenvalue relation of a squeezed state vec = S|coh>, checked
    through the round trip rather than on |coh> itself."""
    gen = squeeze_generator_csr(ops, z)
    unsqueezed = expm_multiply(-gen, vec)
    return max(
        float(np.linalg.norm(expm_multiply(gen, to_csr(mode) @ unsqueezed) - lam * vec))
        for mode, lam in ((ops.a_def, lam_a), (ops.b_def, lam_b))
    )


def fit_mode_block(ops, block, idx):
    """Least-squares coefficients of an (idx, idx) block over the deformed
    (a_def, b_def, b_def+, a_def+), the ModeTransform order, with the
    max-norm fit residual: the direct conjugate-and-fit route."""
    span = (ops.a_def, ops.b_def, ops.b_def.dag(), ops.a_def.dag())
    design = np.column_stack([m.matrix[np.ix_(idx, idx)].ravel() for m in span])
    rhs = block.ravel()
    coef, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    resid = float(np.abs(design @ coef - rhs).max())
    return ModeTransform(*(complex(c) for c in coef)), resid


def _adjoint_image(image):
    """The ModeTransform of the adjoint of image's operator: a <-> a+ and
    b <-> b+, conjugated."""
    return ModeTransform(*(complex(c).conjugate() for c in
                           (image.c_adag, image.c_bdag, image.c_b, image.c_a)))


def squeeze_flow(params, z):
    """S a S+ and S b S+ by scipy's expm of the 4x4 adjoint action of the
    squeeze generator G on (a, b, b+, a+): its columns are the
    squeeze_commutators images [G, a] and [G, b], then [G, b+] and
    [G, a+] built as their adjoints, since G+ = -G."""
    comm = squeeze_commutators(params, z)
    columns = (comm.mode_a, comm.mode_b, _adjoint_image(comm.mode_b),
               _adjoint_image(comm.mode_a))
    action = np.array([[t.c_a, t.c_b, t.c_bdag, t.c_adag] for t in columns]).T
    flow = expm(action)
    return tuple(ModeTransform(*(complex(c) for c in flow[:, col])) for col in (0, 1))
