"""Matrix engine: spaces, operators, state construction, guards.

The operator realization is checked against an independently transcribed
forward map (reconstructing the ordinary ladder pair from the returned
phase-space matrices must give back the input), and the deformed vacuum
against an SVD null-space oracle.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse import csr_array, diags_array, eye_array, issparse, kron

from conftest import squeezed_eigen_residual

from ncsq import (
    CutoffOutOfRange,
    ModeAmplitudes,
    NonFinite,
    NonHermitianOperator,
    OperatorMatrix,
    PopulationOverflow,
    SaturatedOrSuperCritical,
    SpaceMismatch,
    SqueezeParam,
    SqueezeTooLargeForCutoff,
    StateVector,
    basis_state,
    build_operator_set,
    coherent_eigenvalues,
    commutator,
    deformed_vacuum,
    displacement_op,
    expectation,
    expectation_and_variance,
    make_params,
    make_space,
    make_state,
    safe_norm_fraction,
)
import ncsq
from ncsq import fock, verifier
from ncsq.fock import _displacement_generator, _squeeze_generator

P05 = make_params(0.5, 0.5, 1.0)


def _safe_max(space, matrix, buffer=5):
    mask = space.n_tot <= space.cutoff - buffer
    return float(np.abs(matrix[np.ix_(mask, mask)]).max())


# ---------------------------------------------------------------------------
# space layout


def test_space_layout():
    s = make_space(3)
    assert s.dim == 16
    assert s.index_of(0, 0) == 0
    assert s.index_of(1, 0) == 4
    assert s.index_of(2, 3) == 11
    assert list(s.n_tot[:5]) == [0, 1, 2, 3, 1]


def test_space_index_bounds():
    s = make_space(3)
    with pytest.raises(CutoffOutOfRange):
        s.index_of(4, 0)
    with pytest.raises(CutoffOutOfRange):
        s.index_of(0, -1)


@pytest.mark.parametrize("bad", [0, -2, 201, 2.5, True, "12"])
def test_make_space_rejects_bad_cutoffs(bad):
    with pytest.raises(CutoffOutOfRange):
        make_space(bad)


def test_space_equality_is_by_cutoff():
    assert make_space(7) == make_space(7)
    assert make_space(7) != make_space(8)


# ---------------------------------------------------------------------------
# ladder matrices


def test_ordinary_ladder_elements(space12):
    ops = build_operator_set(P05, space12)
    a, b = ops.a_ord, ops.b_ord
    one = basis_state(space12, 1, 0)
    two = basis_state(space12, 2, 0)
    assert one.inner(a @ two) == pytest.approx(math.sqrt(2.0))
    mixed = basis_state(space12, 3, 4)
    up = basis_state(space12, 3, 5)
    assert up.inner(b.dag() @ mixed) == pytest.approx(math.sqrt(5.0))


def test_ordinary_commutator_sees_truncation_only_at_edge(space12):
    a = build_operator_set(P05, space12).a_ord
    comm = commutator(a, a.dag()).matrix - np.eye(space12.dim)
    # sqrt(n+1)^2 - n rounds at the last bit, so near-zero rather than zero;
    # the only structural artifact is the last per-mode level, where the
    # truncated a+ drops the outgoing amplitude and the diagonal reads
    # -cutoff - 1
    assert _safe_max(space12, comm, buffer=1) < 1e-13
    edge = space12.index_of(space12.cutoff, 0)
    assert comm[edge, edge] == pytest.approx(-(space12.cutoff + 1.0))


# ---------------------------------------------------------------------------
# phase-space realization


def _reconstruct_ordinary(params, x, y, px, py):
    """Forward map from phase-space matrices to the ordinary ladder pair.

    Transcribed directly from the defining linear combination, so it shares
    nothing with the 4x4 solve under test.
    """
    kap = params.kappa
    lam = params.lambda_denom
    hbar = params.hbar
    pref = 1.0 / (math.sqrt(2.0 * hbar) * lam)
    nu_term = params.nu / (2.0 * kap * hbar)
    mu_term = params.mu / (2.0 * hbar)
    rec_a = pref * (kap * x.matrix + mu_term * py.matrix
                    + 1j * (px.matrix - nu_term * y.matrix))
    rec_b = pref * (kap * y.matrix - mu_term * px.matrix
                    + 1j * (py.matrix + nu_term * x.matrix))
    return rec_a, rec_b


@pytest.mark.parametrize("theta", [0.1, 0.5, 0.9])
def test_phase_space_ops_invert_the_forward_map(theta, space20):
    params = make_params(theta, theta, 1.0)
    ops = build_operator_set(params, space20)
    x, y, px, py = ops.x, ops.y, ops.px, ops.py
    a, b = ops.a_ord, ops.b_ord
    rec_a, rec_b = _reconstruct_ordinary(params, x, y, px, py)
    # linear identity, no operator products: exact on the full space
    assert np.abs(rec_a - a.matrix).max() < 1e-12
    assert np.abs(rec_b - b.matrix).max() < 1e-12


def _dense_reference_ops(params, space):
    """x, y, px, py, a_def and b_def by the original dense construction.

    The 4x4 map is solved with the dense truncated ladder matrices stacked
    as a 4 x dim**2 right-hand side, the solutions are hermitised as
    matrices, and the deformed pair is assembled from them; the engine
    now does all of this on coefficient 4-vectors instead.
    """
    side = space.cutoff + 1
    ladder = np.diag(np.sqrt(np.arange(1.0, side)), k=1)
    a = np.kron(ladder, np.eye(side)).astype(np.complex128)
    b = np.kron(np.eye(side), ladder).astype(np.complex128)
    hbar, kap, mu, nu = params.hbar, params.kappa, params.mu, params.nu
    coeff = np.array([
        [kap, 0.0, 0.0, mu / (2.0 * hbar)],
        [0.0, -nu / (2.0 * kap * hbar), 1.0, 0.0],
        [0.0, kap, -mu / (2.0 * hbar), 0.0],
        [nu / (2.0 * kap * hbar), 0.0, 0.0, 1.0],
    ])
    scale = math.sqrt(0.5 * hbar) * params.lambda_denom
    rhs = np.stack([
        scale * (a + a.conj().T), scale * (a - a.conj().T) / 1j,
        scale * (b + b.conj().T), scale * (b - b.conj().T) / 1j,
    ]).reshape(4, -1)
    sol = np.linalg.solve(coeff, rhs).reshape(4, space.dim, space.dim)
    x, y, px, py = (0.5 * (m + m.conj().T) for m in sol)
    c = (nu / mu) ** 0.25
    d = (mu / nu) ** 0.25
    pref = 1.0 / math.sqrt(2.0 * hbar)
    return {"x": x, "y": y, "px": px, "py": py,
            "a_def": pref * (c * x + 1j * d * px),
            "b_def": pref * (c * y + 1j * d * py)}


@pytest.mark.parametrize("theta", [0.1, 0.5, 0.9])
def test_csr_operators_match_dense_solve(theta, space12):
    params = make_params(theta, theta, 1.0)
    ops = build_operator_set(params, space12)
    for name, want in _dense_reference_ops(params, space12).items():
        got = getattr(ops, name).matrix
        assert issparse(got), name
        assert np.abs(got.toarray() - want).max() < 1e-13, name
    # every engine operator is CSR; only displacement_op's unitary is dense
    engine = {name: getattr(ops, name) for name in (
        "x", "y", "px", "py", "a_def", "b_def", "a_ord", "b_ord",
        "pair_annihilator", "pair_creator")}
    engine["displacement generator"] = _displacement_generator(
        ops, ModeAmplitudes(0.4, 0.3j))
    engine["squeeze generator"] = _squeeze_generator(ops, SqueezeParam(0.3, 0.9))
    for name, op in engine.items():
        assert issparse(op.matrix) and op.matrix.format == "csr", name


def _ladder(space):
    """(a, a+, b, b+) as kron products, the basis of every coefficient
    4-vector, built independently of the engine's ladder pattern."""
    side = space.cutoff + 1
    lower = diags_array(np.sqrt(np.arange(1.0, side)), offsets=1)
    eye = eye_array(side)
    a = csr_array(kron(lower, eye), dtype=np.complex128)
    b = csr_array(kron(eye, lower), dtype=np.complex128)
    return a, a.T.tocsr(), b, b.T.tocsr()


def _oracle_generator(ops, amps):
    """The displacement generator as a sum of scaled operators and adjoints."""
    alpha, beta = amps.alpha, amps.beta
    return (alpha * ops.a_def.dag() + beta * ops.b_def.dag()
            - np.conjugate(alpha) * ops.a_def - np.conjugate(beta) * ops.b_def).matrix


@pytest.mark.parametrize("cutoff", [1, 12, 30])
@pytest.mark.parametrize("theta", [0.0, 0.5, 0.9])
def test_pattern_operators_equal_the_csr_sums(cutoff, theta):
    params = make_params(theta or 1e-200, theta or 1e-200, 1.0)
    space = make_space(cutoff)
    ops = build_operator_set(params, space)
    ladder = _ladder(space)
    names = ("x", "y", "px", "py", "a_def", "b_def")
    for name, row in zip(names, ops.coeffs):
        want = sum(c * m for c, m in zip(row, ladder))
        assert abs(getattr(ops, name).matrix - want).max() <= 1e-15, name
    for got, want in zip((ops.a_ord, ops.b_ord), ladder[::2]):
        assert abs(got.matrix - want).max() == 0.0
    for amps in (ModeAmplitudes(0.4, 0.3j), ModeAmplitudes(-0.7j, 1.0 + 0.2j)):
        want = _oracle_generator(ops, amps)
        got = _displacement_generator(ops, amps).matrix
        assert abs(got - want).max() <= 1e-15 * abs(want).max()


def test_phase_space_ops_hermitian(space20):
    ops = build_operator_set(P05, space20)
    for op in (ops.x, ops.y, ops.px, ops.py):
        assert op.hermiticity_defect() < 1e-12


@pytest.mark.parametrize("theta", [0.5, 0.9])
def test_phase_space_commutators(theta, space30):
    params = make_params(theta, theta, 1.0)
    ops = build_operator_set(params, space30)
    x, y, px, py = ops.x, ops.y, ops.px, ops.py
    eye = np.eye(space30.dim)
    pairs = [
        (x, y, 1j * params.mu),
        (px, py, 1j * params.nu),
        (x, px, 1j * params.hbar),
        (y, py, 1j * params.hbar),
        (x, py, 0.0),
        (y, px, 0.0),
    ]
    for left, right, want in pairs:
        resid = commutator(left, right).matrix - want * eye
        assert _safe_max(space30, resid) < 1e-10


def test_phase_space_ops_refuse_saturation(space12):
    with pytest.raises(SaturatedOrSuperCritical):
        build_operator_set(make_params(1.0, 1.0, 1.0), space12)
    with pytest.raises(SaturatedOrSuperCritical):
        build_operator_set(make_params(2.0, 2.0, 1.0), space12)


def test_deformed_algebra(space30):
    ops = build_operator_set(P05, space30)
    theta = P05.theta
    eye = np.eye(space30.dim)
    checks = [
        (commutator(ops.a_def, ops.a_def.dag()).matrix - eye),
        (commutator(ops.b_def, ops.b_def.dag()).matrix - eye),
        commutator(ops.a_def, ops.b_def).matrix,
        (commutator(ops.a_def, ops.b_def.dag()).matrix - 1j * theta * eye),
        (commutator(ops.b_def, ops.a_def.dag()).matrix + 1j * theta * eye),
    ]
    for resid in checks:
        assert _safe_max(space30, resid) < 1e-10


def test_cross_commutator_expectation_tracks_theta(space12):
    params = make_params(1e-4, 1e-4, 1.0)
    ops = build_operator_set(params, space12)
    vac = basis_state(space12, 0, 0)
    got = expectation(vac, commutator(ops.a_def, ops.b_def.dag()))
    assert got == pytest.approx(1j * params.theta, abs=1e-10)


def test_operator_set_shares_space(space12):
    ops = build_operator_set(P05, space12)
    assert ops.space is space12
    assert ops.params is P05


# ---------------------------------------------------------------------------
# the unitaries


def test_displacement_unitary(space20):
    ops = build_operator_set(P05, space20)
    disp = displacement_op(P05, space20, ModeAmplitudes(0.4, 0.3j), ops)
    eye = np.eye(space20.dim)
    assert np.abs(disp.dag().matrix @ disp.matrix - eye).max() < 1e-10


def test_displacement_of_nothing_is_identity(space20):
    disp = displacement_op(P05, space20, ModeAmplitudes(0.0, 0.0))
    assert np.abs(disp.matrix - np.eye(space20.dim)).max() < 1e-14


def test_displacement_op_rejects_nonfinite(space12):
    # a NaN weight in a_def reaches the generator
    ops = build_operator_set(P05, space12)
    coeffs = ops.coeffs.copy()
    coeffs[4, 0] = math.nan
    with pytest.raises(NonFinite):
        displacement_op(P05, space12, ModeAmplitudes(0.1, 0.0),
                        dataclasses.replace(ops, coeffs=coeffs))


def _dense_squeeze(ops, z):
    """The squeeze unitary by a dense matrix exponential: a reference only,
    the engine squeezes states with expm_multiply."""
    return OperatorMatrix(ops.space, expm(_squeeze_generator(ops, z).matrix.toarray()))


def test_squeeze_adjoint_is_negated_squeeze():
    space = make_space(40)
    ops = build_operator_set(P05, space)
    z = SqueezeParam(0.3, math.pi / 4)
    neg = SqueezeParam(0.3, math.pi / 4 - math.pi)
    sq = _dense_squeeze(ops, z)
    sq_neg = _dense_squeeze(ops, neg)
    assert np.abs(sq.dag().matrix - sq_neg.matrix).max() < 1e-11


# ---------------------------------------------------------------------------
# the Taylor exponential, against scipy's routines as test-only references


@pytest.mark.parametrize("cutoff", [12, 30, 120, 200])
@pytest.mark.parametrize("theta", [0.2, 0.5, 0.8])
def test_expm_multiply_matches_scipy_on_the_generators(theta, cutoff):
    from scipy.sparse.linalg import expm_multiply as reference

    p = make_params(theta, theta, 1.0)
    ops = build_operator_set(p, make_space(cutoff))
    vec = ops.ground.vector
    gens = [_displacement_generator(ops, ModeAmplitudes(1.5 * np.exp(0.3j), -2.0j)),
            _squeeze_generator(ops, SqueezeParam(0.7, 1.0))]
    for gen in gens:
        got = fock.expm_multiply(gen.matrix, vec)
        assert np.abs(got - reference(gen.matrix, vec)).max() < 1e-14
        vec = got


@pytest.mark.parametrize("theta", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("r", [0.05, 0.3, 0.7])
def test_expm_multiply_matches_dense_expm_on_the_adjoint_actions(theta, r, monkeypatch, space12):
    """The 4x4 flows of adjoint_mode_transform, recorded from its calls."""
    calls = []

    def recorded(matrix, block):
        flow = fock.expm_multiply(matrix, block)
        calls.append((matrix, block, flow))
        return flow

    monkeypatch.setattr(verifier, "_expm_action", recorded)
    ops = build_operator_set(make_params(theta, theta, 1.0), space12)
    for phi in (0.0, 1.0, -2.5):
        verifier.adjoint_mode_transform(_squeeze_generator(ops, SqueezeParam(r, phi)), ops)
    assert len(calls) == 3
    for action, block, flow in calls:
        want = expm(action) @ block
        assert np.abs(flow - want).max() <= 1e-13 * np.abs(want).max()


def test_expm_multiply_of_a_zero_matrix_is_the_identity():
    block = np.arange(12.0).reshape(4, 3) + 1j
    for zero in (np.zeros((4, 4)), csr_array((4, 4), dtype=np.complex128)):
        assert np.array_equal(fock.expm_multiply(zero, block), block)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_expm_multiply_refuses_a_nonfinite_matrix(bad):
    dense = np.eye(3, dtype=np.complex128)
    dense[0, 2] = bad
    for matrix in (dense, csr_array(dense)):
        with pytest.raises(NonFinite):
            fock.expm_multiply(matrix, np.ones(3))


# ---------------------------------------------------------------------------
# deformed vacuum


def test_deformed_vacuum_is_the_joint_null_direction():
    """SVD of the stacked annihilators must show a one-dimensional kernel
    containing the constructed vacuum."""
    for theta in (0.5, 0.9):
        params = make_params(theta, theta, 1.0)
        space = make_space(14)
        ops = build_operator_set(params, space)
        stacked = np.vstack([ops.a_def.matrix.toarray(), ops.b_def.matrix.toarray()])
        _, sv, vt = np.linalg.svd(stacked)
        assert sv[-1] < 1e-12
        assert sv[-2] > 0.1
        kernel = vt[-1].conj()
        vac = deformed_vacuum(params, space, ops)
        assert abs(np.vdot(kernel, vac.vector)) > 1.0 - 1e-12


def test_deformed_vacuum_refuses_an_open_fit(space12):
    # a b_def whose a+ weight breaks the quadratic-coefficient system
    ops = build_operator_set(P05, space12)
    coeffs = ops.coeffs.copy()
    coeffs[5, 1] += 0.1
    with pytest.raises(SaturatedOrSuperCritical):
        deformed_vacuum(P05, space12, dataclasses.replace(ops, coeffs=coeffs))


def test_deformed_vacuum_annihilated(space30):
    ops = build_operator_set(P05, space30)
    vac = deformed_vacuum(P05, space30, ops)
    assert vac.norm() == pytest.approx(1.0, rel=1e-14)
    assert np.linalg.norm(ops.a_def.matrix @ vac.vector) < 1e-10
    assert np.linalg.norm(ops.b_def.matrix @ vac.vector) < 1e-10


def test_deformed_vacuum_differs_from_bare_vacuum(space30):
    # at theta = 0.5 the pair correlations are real: the overlap with
    # |0,0> must be high but strictly below one
    vac = deformed_vacuum(P05, space30)
    ov = abs(basis_state(space30, 0, 0).inner(vac))
    assert 0.99 < ov < 1.0 - 1e-4

    tiny = make_params(1e-4, 1e-4, 1.0)
    vac_tiny = deformed_vacuum(tiny, space30)
    assert abs(basis_state(space30, 0, 0).inner(vac_tiny)) > 1.0 - 1e-7


# ---------------------------------------------------------------------------
# make_state and guards


def test_coherent_state_is_joint_eigenvector():
    space = make_space(40)
    params = P05
    ops = build_operator_set(params, space)
    amps = ModeAmplitudes(1.0, 0.5j)
    state = make_state(params, space, amps, ops=ops)
    lam_a = amps.alpha + 1j * params.theta * amps.beta
    lam_b = amps.beta - 1j * params.theta * amps.alpha
    assert np.linalg.norm(ops.a_def.matrix @ state.vector
                          - lam_a * state.vector) < 1e-8
    assert np.linalg.norm(ops.b_def.matrix @ state.vector
                          - lam_b * state.vector) < 1e-8


def test_squeezed_state_is_eigenvector_of_conjugated_mode():
    """S m S+ applied to S D |vac> keeps the displaced eigenvalue, for
    m = a_def and b_def; the round trip applies S+, then m, then S, so no
    full matrix exponential is needed."""
    space = make_space(30)
    ops = build_operator_set(P05, space)
    amps = ModeAmplitudes(0.4, 0.2j)
    z = SqueezeParam(0.25, 0.9)
    state = make_state(P05, space, amps, z, ops=ops)
    lam_a, lam_b = coherent_eigenvalues(P05, amps)
    assert squeezed_eigen_residual(ops, z, state.vector, lam_a, lam_b) < 1e-8


def test_make_state_population_guard():
    space = make_space(10)
    with pytest.raises(PopulationOverflow):
        make_state(P05, space, ModeAmplitudes(6.0, 0.0))


def test_make_state_rejects_big_squeeze(space20):
    with pytest.raises(SqueezeTooLargeForCutoff):
        make_state(P05, space20, ModeAmplitudes(0.0, 0.0), SqueezeParam(0.75, 0.0))


def test_coherent_tail_is_poissonian_small():
    space = make_space(40)
    state = make_state(P05, space, ModeAmplitudes(1.0, 0.0))
    assert safe_norm_fraction(state, buffer=5) < 1e-20


def test_safe_norm_fraction_vacuum_and_validation(space12):
    vac = basis_state(space12, 0, 0)
    assert safe_norm_fraction(vac) == 0.0
    with pytest.raises(ValueError):
        safe_norm_fraction(vac, buffer=-1)
    with pytest.raises(ValueError):
        safe_norm_fraction(vac, buffer=space12.cutoff + 1)
    with pytest.raises(ValueError):
        safe_norm_fraction(StateVector(space12, np.zeros(space12.dim)))


# ---------------------------------------------------------------------------
# expectations


def test_vacuum_quadrature_variance(space20):
    ops = build_operator_set(P05, space20)
    vac = make_state(P05, space20, ops=ops)
    mean, var = expectation_and_variance(vac, ops.x)
    assert abs(mean) < 1e-12
    # (hbar/2)*sqrt(mu/nu) with mu = nu reduces to hbar/2
    assert var == pytest.approx(0.5, rel=1e-10)


def test_expectation_and_variance_requires_hermitian(space12):
    ops = build_operator_set(P05, space12)
    vac = basis_state(space12, 0, 0)
    for _ in range(2):  # the second call reads the cached defect
        with pytest.raises(NonHermitianOperator):
            expectation_and_variance(vac, ops.a_def)


def test_space_mismatch_raises(space12, space20):
    ops12 = build_operator_set(P05, space12)
    vac20 = basis_state(space20, 0, 0)
    with pytest.raises(SpaceMismatch):
        expectation(vac20, ops12.x)
    with pytest.raises(SpaceMismatch):
        ops12.x @ vac20


def test_operator_algebra_helpers(space12):
    ops = build_operator_set(P05, space12)
    a, b = ops.a_ord, ops.b_ord
    doubled = 2.0 * a
    assert np.array_equal(doubled.matrix.toarray(), (2.0 * a.matrix).toarray())
    diff = (a + b) - b
    assert np.abs(diff.matrix - a.matrix).max() == 0.0
    assert (-a).matrix[1, 0] == -a.matrix[1, 0]
    anti = 1j * (a - a.dag())
    herm = 0.5 * (anti + anti.dag())
    assert herm.hermiticity_defect() == 0.0


# ---------------------------------------------------------------------------
# public surface


def test_star_import_and_every_exported_name_resolves():
    namespace = {}
    exec("from ncsq import *", namespace)
    assert set(ncsq.__all__) <= set(namespace)
    for module in (ncsq, fock, verifier):
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)
