"""Shared fixtures, float-comparison helpers and reference routes."""

import math

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

from ncsq import ModeTransform, make_space
from ncsq.fock import _squeeze_generator


def ulp_between(a: float, b: float) -> float:
    """|a - b| measured in ulps of the larger magnitude."""
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


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
    gen = _squeeze_generator(ops, z).matrix
    cols = np.zeros((ops.space.dim, idx.size), dtype=np.complex128)
    cols[idx, np.arange(idx.size)] = 1.0
    cols = expm_multiply(gen, op.matrix @ expm_multiply(-gen, cols))
    return cols[idx]


def squeezed_eigen_residual(ops, z, vec, lam_a, lam_b):
    """max over m in (a_def, b_def) of ||S m S+ vec - lambda_m vec||, with
    S = exp(G) the squeeze applied as S+, then m, then S by expm_multiply:
    the eigenvalue relation of a squeezed state vec = S|coh>, checked
    through the round trip rather than on |coh> itself."""
    gen = _squeeze_generator(ops, z).matrix
    unsqueezed = expm_multiply(-gen, vec)
    return max(
        float(np.linalg.norm(expm_multiply(gen, mode.matrix @ unsqueezed) - lam * vec))
        for mode, lam in ((ops.a_def, lam_a), (ops.b_def, lam_b))
    )


def fit_mode_block(ops, block, idx):
    """Least-squares coefficients of an (idx, idx) block over the deformed
    (a_def, b_def, b_def+, a_def+), the ModeTransform order, with the
    max-norm fit residual: the direct conjugate-and-fit route."""
    span = (ops.a_def, ops.b_def, ops.b_def.dag(), ops.a_def.dag())
    design = np.column_stack([m.matrix[idx][:, idx].toarray().ravel() for m in span])
    rhs = block.ravel()
    coef, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    resid = float(np.abs(design @ coef - rhs).max())
    return ModeTransform(*(complex(c) for c in coef)), resid
