"""Shared fixtures, float-comparison helpers and reference routes."""

import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse import csr_array
from scipy.sparse.linalg import expm_multiply

from ncsq import ModeTransform, make_space, squeeze_commutators
from ncsq.fock import _squeeze_generator


def ulp_between(a: float, b: float) -> float:
    """|a - b| measured in ulps of the larger magnitude."""
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def to_csr(op):
    """A banded operator as a scipy CSR array, entry by entry from its
    bands (row i, column i + offset), so scipy's arithmetic on it is an
    independent reference for the engine's band arithmetic."""
    dim = op.space.dim
    rows, cols, data = [], [], []
    for offset, band in zip(op.offsets, op.bands):
        index = np.arange(max(0, -offset), min(dim, dim - offset))
        rows.append(index)
        cols.append(index + offset)
        data.append(band[index])
    if not data:
        return csr_array((dim, dim), dtype=np.complex128)
    return csr_array((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                     shape=(dim, dim), dtype=np.complex128)


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
    gen = to_csr(_squeeze_generator(ops, z))
    cols = np.zeros((ops.space.dim, idx.size), dtype=np.complex128)
    cols[idx, np.arange(idx.size)] = 1.0
    cols = expm_multiply(gen, to_csr(op) @ expm_multiply(-gen, cols))
    return cols[idx]


def squeezed_eigen_residual(ops, z, vec, lam_a, lam_b):
    """max over m in (a_def, b_def) of ||S m S+ vec - lambda_m vec||, with
    S = exp(G) the squeeze applied as S+, then m, then S by expm_multiply:
    the eigenvalue relation of a squeezed state vec = S|coh>, checked
    through the round trip rather than on |coh> itself."""
    gen = to_csr(_squeeze_generator(ops, z))
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
