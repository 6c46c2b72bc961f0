"""Matrix engine: spaces, operators, state construction, guards.

The operator realization is checked against an independently transcribed
forward map (reconstructing the ordinary ladder pair from the returned
phase-space matrices must give back the input), and the deformed vacuum
against an SVD null-space oracle.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.sparse import csr_array, diags_array, eye_array, kron

from conftest import (
    commutator_residual,
    displacement_generator_csr,
    safe_block_max,
    squeeze_generator_csr,
    squeezed_eigen_residual,
    to_csr,
)

from ncsq import (
    BufferOutOfRange,
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
    a = to_csr(build_operator_set(P05, space12).a_ord)
    comm = (a @ a.conj().T - a.conj().T @ a).toarray() - np.eye(space12.dim)
    # sqrt(n+1)^2 - n rounds at the last bit, so near-zero rather than zero;
    # the only structural artifact is the last per-mode level, where the
    # truncated a+ drops the outgoing amplitude and the diagonal reads
    # -cutoff - 1
    assert _safe_max(space12, comm, buffer=1) < 1e-13
    edge = space12.index_of(space12.cutoff, 0)
    assert comm[edge, edge] == pytest.approx(-(space12.cutoff + 1.0))
    # the oracle's safe-block max reads that edge at buffer 0, and the
    # coefficient route, which holds the algebra and not its truncation,
    # does not
    assert commutator_residual(space12, a, a.conj().T, 1.0, 0) == pytest.approx(
        space12.cutoff + 1.0)
    assert verifier.algebra_residuals(build_operator_set(P05, space12), 0)["ord_a_adag"] == 0.0


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
def test_banded_operators_match_dense_solve(theta, space12):
    params = make_params(theta, theta, 1.0)
    ops = build_operator_set(params, space12)
    for name, want in _dense_reference_ops(params, space12).items():
        got = getattr(ops, name).matrix
        assert np.abs(got - want).max() < 1e-13, name
    # every engine operator is banded and equals its scipy reference built
    # from the kron ladders; only displacement_op's unitary is dense, the
    # Kronecker product of two single-mode exponentials
    want = _kron_references(ops)
    amps = ModeAmplitudes(0.4, 0.3j)
    want["displacement generator"] = displacement_generator_csr(
        want["a_def"], want["b_def"], amps)
    engine = {name: getattr(ops, name) for name in want if hasattr(ops, name)}
    engine["displacement generator"] = OperatorMatrix(space12, fock._displacement_row(ops, amps))
    assert engine.keys() == want.keys()
    for name, op in engine.items():
        assert isinstance(op, OperatorMatrix) and op.bands.shape == (
            len(op.offsets), space12.dim), name
        assert abs(to_csr(op) - want[name]).max() <= 1e-13, name


def _ladder(space):
    """(a, a+, b, b+) as kron products, the basis of every coefficient
    4-vector, built independently of the engine's ladder pattern."""
    side = space.cutoff + 1
    lower = diags_array(np.sqrt(np.arange(1.0, side)), offsets=1)
    eye = eye_array(side)
    a = csr_array(kron(lower, eye), dtype=np.complex128)
    b = csr_array(kron(eye, lower), dtype=np.complex128)
    return a, a.T.tocsr(), b, b.T.tocsr()


_LINEAR = ("x", "y", "px", "py", "a_def", "b_def")


def _kron_references(ops):
    """scipy CSR references of the operator set's linear operators: each
    coefficient row over the kron-built (a, a+, b, b+), and a_ord, b_ord."""
    ladder = _ladder(ops.space)
    refs = {name: sum(c * m for c, m in zip(row, ladder))
            for name, row in zip(_LINEAR, ops.coeffs)}
    refs["a_ord"], refs["b_ord"] = ladder[::2]
    return refs


@pytest.mark.parametrize("cutoff", [1, 12, 30])
@pytest.mark.parametrize("theta", [0.0, 0.5, 0.9])
def test_pattern_operators_equal_the_csr_sums(cutoff, theta):
    params = make_params(theta or 1e-200, theta or 1e-200, 1.0)
    space = make_space(cutoff)
    ops = build_operator_set(params, space)
    refs = _kron_references(ops)
    for name in _LINEAR:
        assert abs(to_csr(getattr(ops, name)) - refs[name]).max() <= 1e-15, name
    for name in ("a_ord", "b_ord"):
        assert abs(to_csr(getattr(ops, name)) - refs[name]).max() == 0.0
    for amps in (ModeAmplitudes(0.4, 0.3j), ModeAmplitudes(-0.7j, 1.0 + 0.2j)):
        want = displacement_generator_csr(refs["a_def"], refs["b_def"], amps)
        got = to_csr(OperatorMatrix(space, fock._displacement_row(ops, amps)))
        assert abs(got - want).max() <= 1e-15 * abs(want).max()


@pytest.mark.parametrize("cutoff", [1, 2, 12, 30])
def test_band_arithmetic_matches_scipy(cutoff):
    """Adjoints, combinations of rows and matrix-vector products against
    scipy on the kron-built references, and the oracle's safe-block max
    against the dense view.  At cutoffs 1 and 2 the +-1 and +-(cutoff+1)
    offsets sit next to each other and every row edge wraps."""
    space = make_space(cutoff)
    ops = build_operator_set(make_params(0.7, 0.4, 1.0), space)
    refs = _kron_references(ops)
    engine = {name: getattr(ops, name) for name in refs}
    rng = np.random.default_rng(cutoff)
    block = rng.standard_normal((space.dim, 3)) + 1j * rng.standard_normal((space.dim, 3))

    def close(got, want):
        scale = max(1.0, abs(want).max())
        return abs(to_csr(got) - want).max() <= 1e-14 * scale

    for name, op in engine.items():
        ref = refs[name]
        assert close(op.dag(), ref.conj().T), name
        combined = OperatorMatrix(space, 2.5j * op.row - op.dag().row)
        assert close(combined, 2.5j * ref - ref.conj().T), name
        for got, want in ((op, ref), (op.dag(), ref.conj().T)):
            assert np.abs(got @ block - want @ block).max() <= 1e-14 * np.abs(want @ block).max()
            assert np.abs(got @ block[:, 0] - want @ block[:, 0]).max() <= 1e-14 * max(
                1.0, np.abs(want @ block[:, 0]).max())
        for buffer in (0, 1):
            safe = space.n_tot <= cutoff - buffer
            dense = op.matrix[np.ix_(safe, safe)]
            got = safe_block_max(space, to_csr(op), buffer)
            assert got == np.abs(dense).max(initial=0.0), name


def test_phase_space_ops_hermitian(space20):
    ops = build_operator_set(P05, space20)
    for op in (ops.x, ops.y, ops.px, ops.py):
        assert op.hermiticity_defect() < 1e-12


@pytest.mark.parametrize("theta", [0.5, 0.9])
def test_phase_space_commutators(theta, space30):
    params = make_params(theta, theta, 1.0)
    ops = build_operator_set(params, space30)
    x, y, px, py = (to_csr(op) for op in (ops.x, ops.y, ops.px, ops.py))
    pairs = [
        (x, y, 1j * params.mu),
        (px, py, 1j * params.nu),
        (x, px, 1j * params.hbar),
        (y, py, 1j * params.hbar),
        (x, py, 0.0),
        (y, px, 0.0),
    ]
    for left, right, want in pairs:
        assert commutator_residual(space30, left, right, want, 5) < 1e-10


def test_phase_space_ops_refuse_saturation(space12):
    with pytest.raises(SaturatedOrSuperCritical):
        build_operator_set(make_params(1.0, 1.0, 1.0), space12)
    with pytest.raises(SaturatedOrSuperCritical):
        build_operator_set(make_params(2.0, 2.0, 1.0), space12)


def test_deformed_algebra(space30):
    ops = build_operator_set(P05, space30)
    theta = P05.theta
    a, b = to_csr(ops.a_def), to_csr(ops.b_def)
    checks = [
        (a, a.conj().T, 1.0),
        (b, b.conj().T, 1.0),
        (a, b, 0.0),
        (a, b.conj().T, 1j * theta),
        (b, a.conj().T, -1j * theta),
    ]
    for left, right, want in checks:
        assert commutator_residual(space30, left, right, want, 5) < 1e-10


def test_cross_commutator_expectation_tracks_theta(space12):
    params = make_params(1e-4, 1e-4, 1.0)
    ops = build_operator_set(params, space12)
    vac = basis_state(space12, 0, 0).vector
    a, bdag = to_csr(ops.a_def), to_csr(ops.b_def.dag())
    got = np.vdot(vac, (a @ bdag - bdag @ a) @ vac)
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


@pytest.mark.parametrize("mu, nu", [(0.5, 0.5), (0.1, 0.9), (1e-3, 10.0)])
@pytest.mark.parametrize("cutoff", [12, 20])
def test_displacement_op_matches_dense_scipy_expm(mu, nu, cutoff):
    """The Kronecker product of the two single-mode exponentials equals
    scipy's expm of the dense two-mode generator, the route it replaced."""
    from scipy.linalg import expm

    params = make_params(mu, nu, 1.0)
    space = make_space(cutoff)
    ops = build_operator_set(params, space)
    for amps in (ModeAmplitudes(0.0, 0.0), ModeAmplitudes(0.7j, 0.3 - 0.2j)):
        want = expm(displacement_generator_csr(
            to_csr(ops.a_def), to_csr(ops.b_def), amps).toarray())
        got = displacement_op(params, space, amps, ops).matrix
        assert np.abs(got - want).max() <= 1e-13, amps


def test_displacement_op_rejects_nonfinite(space12):
    # a NaN weight in a_def reaches the generator
    ops = build_operator_set(P05, space12)
    coeffs = ops.coeffs.copy()
    coeffs[4, 0] = math.nan
    with pytest.raises(NonFinite):
        displacement_op(P05, space12, ModeAmplitudes(0.1, 0.0),
                        dataclasses.replace(ops, coeffs=coeffs))
    # amplitudes whose generator is too large to scale by a power of two
    # (1e307), and whose generator overflows as it is built (1.7e308): a
    # refusal, no warning
    for alpha in (1e307, 1.7e308):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite):
                displacement_op(P05, space12, ModeAmplitudes(alpha, 0.0), ops)
    # finite generators whose mean occupation is past the cutoff, where the
    # truncated exponential is far from unitary (|U+U - 1| read 8.1 at 1e15
    # before this refusal): check_displacement's refusal, no warning
    for alpha in (1e12, 1e15, 1e150, 1e300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PopulationOverflow, match="exceeds cutoff 12 minus buffer 0"):
                displacement_op(P05, space12, ModeAmplitudes(alpha, 0.0), ops)


def test_displacement_op_builds_its_row_once(space12, monkeypatch):
    # the NonFinite check and the mean-occupation admission read one row
    calls = []
    row = fock._displacement_row

    def counting(*args):
        calls.append(args)
        return row(*args)

    monkeypatch.setattr(fock, "_displacement_row", counting)
    ops = build_operator_set(P05, space12)
    displacement_op(P05, space12, ModeAmplitudes(0.4, 0.3j), ops)
    assert len(calls) == 1
    with pytest.raises(PopulationOverflow):
        displacement_op(P05, space12, ModeAmplitudes(1e12, 0.0), ops)
    assert len(calls) == 2


def test_squeeze_adjoint_is_negated_squeeze():
    """exp(G)+ = exp(G+) for any matrix, so S(z)+ = S(-z) reduces to
    G(z)+ = G(-z), checked entry for entry on the truncated generators,
    and on their 4x4 actions on rows."""
    space = make_space(40)
    ops = build_operator_set(P05, space)
    z = SqueezeParam(0.3, math.pi / 4)
    neg = SqueezeParam(0.3, math.pi / 4 - math.pi)
    gen_dag, gen_neg = squeeze_generator_csr(ops, z).conj().T, squeeze_generator_csr(ops, neg)
    assert abs(gen_dag - gen_neg).max() < 1e-11
    # [G(z), W]+ = [W+, G(z)+] = -[G(-z), W+]: on rows, the adjoint of
    # z's action on w is minus the action of -z on w's adjoint
    action, action_neg = (fock._squeeze_action(fock._squeeze_terms(ops, t)) for t in (z, neg))
    rows = np.eye(4)
    assert np.abs(fock._adjoint(rows @ action.T) + fock._adjoint(rows) @ action_neg.T
                  ).max() < 1e-15


# ---------------------------------------------------------------------------
# the Gaussian route, against scipy's exponentials as test-only references


def _scipy_state(ops, amps, z):
    """exp(G_S) exp(G_D) exp(Q)|0,0> by scipy's expm_multiply on the
    engine's generators as CSR arrays, with Q = a+^T L a+ / 2 over the
    kron-built creators and L = -Ma^-1 Mc from the rows of a_def and b_def."""
    from scipy.sparse.linalg import expm_multiply

    rows = ops.coeffs[4:]
    pair = -np.linalg.solve(rows[:, [0, 2]], rows[:, [1, 3]])
    _, adag, _, bdag = _ladder(ops.space)
    quad = 0.5 * pair[0, 0] * (adag @ adag) + pair[0, 1] * (adag @ bdag) \
        + 0.5 * pair[1, 1] * (bdag @ bdag)
    vec = expm_multiply(quad, basis_state(ops.space, 0, 0).vector)
    gen = displacement_generator_csr(to_csr(ops.a_def), to_csr(ops.b_def), amps)
    vec = expm_multiply(gen, vec / np.linalg.norm(vec))
    return expm_multiply(squeeze_generator_csr(ops, z), vec)


@pytest.mark.parametrize("theta, cutoff", [(0.2, 120), (0.5, 120), (0.8, 120)])
def test_make_state_matches_scipy_expm_multiply(theta, cutoff):
    """Vacuum, coherent and squeezed states inside the benchmark's region
    (amplitude radius <= 0.7, r <= 0.38/(1 + theta)) equal scipy's
    exponentials of the generators as complex vectors, so the global
    phase of S D |0_def> is pinned too."""
    ops = build_operator_set(make_params(theta, theta, 1.0), make_space(cutoff))
    r = 0.38 / (1.0 + theta)
    for amps, z in [(ModeAmplitudes(0.0, 0.0), SqueezeParam(0.0, 0.0)),
                    (ModeAmplitudes(0.4 + 0.3j, -0.45j), SqueezeParam(0.0, 0.0)),
                    (ModeAmplitudes(0.4 + 0.3j, -0.45j), SqueezeParam(r, 1.0)),
                    (ModeAmplitudes(-0.5j, 0.0), SqueezeParam(r, -2.5)),
                    (ModeAmplitudes(0.0, 0.0), SqueezeParam(r, 0.4))]:
        got = make_state(ops, amps, z).vector
        assert np.abs(got - _scipy_state(ops, amps, z)).max() <= 1e-12, (amps, z)


def test_gauss_legendre_literals_match_numpy():
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert np.abs(fock._NODES - 0.5 * (nodes + 1.0)).max() <= 1e-15
    assert np.abs(fock._WEIGHTS - 0.5 * weights).max() <= 1e-15


# ---------------------------------------------------------------------------
# deformed vacuum


def test_deformed_vacuum_is_the_joint_null_direction():
    """SVD of the stacked annihilators must show a one-dimensional kernel
    containing the constructed vacuum."""
    for theta in (0.5, 0.9):
        params = make_params(theta, theta, 1.0)
        space = make_space(14)
        ops = build_operator_set(params, space)
        stacked = np.vstack([ops.a_def.matrix, ops.b_def.matrix])
        _, sv, vt = np.linalg.svd(stacked)
        assert sv[-1] < 1e-12
        assert sv[-2] > 0.1
        kernel = vt[-1].conj()
        vac = deformed_vacuum(ops)
        assert abs(np.vdot(kernel, vac.vector)) > 1.0 - 1e-12


def test_deformed_vacuum_refuses_an_open_fit(space12):
    # a b_def whose a+ weight makes the pair matrix L asymmetric
    ops = build_operator_set(P05, space12)
    coeffs = ops.coeffs.copy()
    coeffs[5, 1] += 0.1
    with pytest.raises(SaturatedOrSuperCritical):
        deformed_vacuum(dataclasses.replace(ops, coeffs=coeffs))


@pytest.mark.parametrize("theta", [0.05, 0.5, 0.9, 0.999])
def test_deformed_vacuum_annihilated(space30, theta):
    params = make_params(theta, theta, 1.0)
    ops = build_operator_set(params, space30)
    vac = deformed_vacuum(ops)
    assert vac.norm() == pytest.approx(1.0, rel=1e-14)
    assert np.linalg.norm(ops.a_def.matrix @ vac.vector) < 1e-10
    assert np.linalg.norm(ops.b_def.matrix @ vac.vector) < 1e-10


def test_deformed_vacuum_differs_from_bare_vacuum(space30):
    # at theta = 0.5 the pair correlations are real: the overlap with
    # |0,0> must be high but strictly below one
    vac = deformed_vacuum(build_operator_set(P05, space30))
    ov = abs(basis_state(space30, 0, 0).inner(vac))
    assert 0.99 < ov < 1.0 - 1e-4

    tiny = make_params(1e-4, 1e-4, 1.0)
    vac_tiny = deformed_vacuum(build_operator_set(tiny, space30))
    assert abs(basis_state(space30, 0, 0).inner(vac_tiny)) > 1.0 - 1e-7


# ---------------------------------------------------------------------------
# make_state and guards


def test_coherent_state_is_joint_eigenvector():
    space = make_space(40)
    params = P05
    ops = build_operator_set(params, space)
    amps = ModeAmplitudes(1.0, 0.5j)
    state = make_state(ops, amps)
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
    state = make_state(ops, amps, z)
    lam_a, lam_b = coherent_eigenvalues(P05, amps)
    assert squeezed_eigen_residual(ops, z, state.vector, lam_a, lam_b) < 1e-8


def test_make_state_population_guard():
    space = make_space(10)
    with pytest.raises(PopulationOverflow):
        make_state(build_operator_set(P05, space), ModeAmplitudes(6.0, 0.0))


def test_displacement_row_holds_the_ordinary_means():
    """The a+ and b+ weights of the displacement generator are <a> and <b>
    of the displaced state, which make_state's mean-occupation refusal
    reads before it builds anything."""
    ops = build_operator_set(P05, make_space(40))
    for amps in (ModeAmplitudes(0.5, 0.2j), ModeAmplitudes(2.0, 0.2j)):
        row = fock._displacement_row(ops, amps)
        state = make_state(ops, amps)
        assert abs(expectation(state, ops.a_ord) - row[1]) < 1e-12
        assert abs(expectation(state, ops.b_ord) - row[3]) < 1e-12


def test_make_state_refuses_a_displacement_the_truncation_reflects(monkeypatch):
    """At theta 0.05 and cutoff 40 this displacement has mean occupation
    336, far past the cutoff.  make_state refuses the mean before it fills
    any amplitude: a larger one would overflow the recurrence to NaN."""
    p = make_params(0.05, 0.05, 1.0)
    ops = build_operator_set(p, make_space(40))
    amps = ModeAmplitudes(-12.649110640673518, 12.649110640673518j)
    calls = []
    real = fock._gaussian_states
    monkeypatch.setattr(fock, "_gaussian_states", lambda *a: calls.append(a) or real(*a))
    with pytest.raises(PopulationOverflow, match="engine's basis, the displaced state's "
                                                 "mean occupation 3.36.e[+]02 exceeds cutoff 40"):
        make_state(ops, amps)
    assert calls == []


# vacuum, coherent, displaced squeezed, squeezed vacuum and a zero squeeze
MIXED_CASES = [(None, None), (ModeAmplitudes(0.3, 0.1j), None),
               (ModeAmplitudes(0.2j, -0.1), SqueezeParam(0.1, 0.5)),
               (None, SqueezeParam(0.15, -1.0)),
               (ModeAmplitudes(-0.1, 0.2 - 0.1j), SqueezeParam(0.0, 1.0)),
               (ModeAmplitudes(0.0, 0.0), SqueezeParam(0.05, 2.5))]


@pytest.mark.parametrize("theta", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("cutoff", [12, 30])
def test_make_states_match_the_states_built_alone(theta, cutoff):
    """Each state of one stacked call equals its case built alone, global
    phase included, and comes with its safe_norm_fraction.  At cutoff 12
    the squeezed tails exceed the default guard, so it is loosened for
    both builds alike."""
    ops = build_operator_set(make_params(theta, theta, 1.0), make_space(cutoff))
    built = list(fock.make_states(ops, MIXED_CASES, tail_tol=1e-3))
    assert len(built) == len(MIXED_CASES)
    for (state, tail), (amps, z) in zip(built, MIXED_CASES):
        alone = make_state(ops, amps, z, tail_tol=1e-3)
        assert np.abs(state.vector - alone.vector).max() <= 1e-15, (amps, z)
        assert tail == pytest.approx(safe_norm_fraction(alone), rel=1e-12, abs=1e-300)


def test_make_states_split_a_long_batch_into_stacks(space30, monkeypatch):
    """With room for two states a stack, seven cases take four stacks and
    give the states of one stack."""
    ops = build_operator_set(P05, space30)
    cases = MIXED_CASES + [(ModeAmplitudes(0.1j, 0.1), SqueezeParam(0.2, -0.3))]
    whole = [state.vector for state, _ in fock.make_states(ops, cases)]
    sizes = []
    real = fock._gaussian_states
    monkeypatch.setattr(fock, "_gaussian_states",
                        lambda space, rows, *a: sizes.append(len(rows)) or real(space, rows, *a))
    monkeypatch.setattr(fock, "_STACK_ENTRIES", 2 * space30.dim + 1)
    split = [state.vector for state, _ in fock.make_states(ops, cases)]
    assert sizes == [2, 2, 2, 1]
    assert np.abs(np.array(split) - np.array(whole)).max() <= 1e-15


TAIL_REFUSAL = "3.686e-05 of the population lies within 5 quanta of cutoff 12; increase the cutoff"
MEAN_REFUSAL = ("in the engine's basis, the displaced state's mean occupation 3.392e+01 "
                "exceeds cutoff 12 minus buffer 5; increase the cutoff")


@pytest.mark.parametrize("first, second, message", [
    (1.2, 6.0, TAIL_REFUSAL),
    (6.0, 1.2, MEAN_REFUSAL),
])
def test_make_states_raise_the_first_refusal_in_build_order(space12, first, second, message):
    """Of two refused cases, the one built first is raised, whether its
    refusal is the tail guard (alpha 1.2) or the mean occupation (alpha 6),
    with the message of the state built alone; the states before it are
    yielded first, and the crosscheck raises the same."""
    ops = build_operator_set(P05, space12)
    cases = [(None, None), (ModeAmplitudes(first, 0.0), None),
             (ModeAmplitudes(second, 0.0), None)]
    yielded = []
    with pytest.raises(PopulationOverflow) as refusal:
        for state, _ in fock.make_states(ops, cases):
            yielded.append(state)
    assert str(refusal.value) == message
    assert len(yielded) == 1
    with pytest.raises(PopulationOverflow) as refusal:
        verifier.crosscheck_suite(P05, space12, [case for case in cases[1:]])
    assert str(refusal.value) == message


def test_make_state_refuses_a_buffer_outside_the_cutoff(space12):
    ops = build_operator_set(P05, space12)
    for buffer in (-1, 13):
        with pytest.raises(BufferOutOfRange):
            make_state(ops, ModeAmplitudes(0.1, 0.0), buffer=buffer)


def test_make_state_rejects_big_squeeze(space20):
    with pytest.raises(SqueezeTooLargeForCutoff):
        make_state(build_operator_set(P05, space20), ModeAmplitudes(0.0, 0.0),
                   SqueezeParam(0.75, 0.0))


def test_coherent_tail_is_poissonian_small():
    space = make_space(40)
    state = make_state(build_operator_set(P05, space), ModeAmplitudes(1.0, 0.0))
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
    vac = make_state(ops)
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
    """An operator is its row: scaling or summing rows scales or sums the
    matrices, the adjoint is the adjoint row, and a row equal to its
    adjoint has no Hermiticity defect."""
    ops = build_operator_set(P05, space12)
    a, b = ops.a_ord, ops.b_ord
    doubled = OperatorMatrix(space12, 2.0 * a.row)
    assert np.array_equal(doubled.matrix, 2.0 * a.matrix)
    both = OperatorMatrix(space12, a.row + b.row)
    assert np.abs(both.matrix - a.matrix - b.matrix).max() == 0.0
    assert np.array_equal(a.dag().matrix, a.matrix.conj().T)
    anti = OperatorMatrix(space12, 1j * (a.row - a.dag().row))
    herm = OperatorMatrix(space12, 0.5 * (anti.row + anti.dag().row))
    assert herm.hermiticity_defect() == 0.0
    # the defect and the scale are the entry-level ones: a coefficient's
    # size times the ladders' largest weight, sqrt(cutoff)
    for op in (ops.a_def, anti):
        dense = op.matrix
        defect, scale = op._hermiticity
        assert defect == pytest.approx(np.abs(dense - dense.conj().T).max(), rel=1e-15)
        assert scale == pytest.approx(max(1.0, np.abs(dense).max()), rel=1e-15)


# ---------------------------------------------------------------------------
# public surface


def test_star_import_and_every_exported_name_resolves():
    namespace = {}
    exec("from ncsq import *", namespace)
    assert set(ncsq.__all__) <= set(namespace)
    for module in (ncsq, fock, verifier):
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)
