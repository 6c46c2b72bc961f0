"""Closed-form layer: overlaps, Bogoliubov coefficients, variances, minima.

The derived values asserted here are either hand-checkable limits or are
recomputed by an independent route inside the test (plain-boson matrix
oracle, dense phi grids, coefficient-space commutators).
"""

import cmath
import decimal
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse import diags_array, eye_array, kron
from scipy.sparse.linalg import expm_multiply

from conftest import _squeezed_overlap_exponent, squeeze_flow, ulp_between
from ncsq import (
    ModeAmplitudes,
    SqueezeParam,
    bogoliubov_coefficients,
    coherent_eigenvalues,
    coherent_overlap,
    make_params,
    oscillator_consistency,
    single_mode_report,
    squeezed_overlap,
)
from ncsq import analytic
from ncsq.analytic import OscillatorParams
from ncsq.cli import _variance_row

P05 = make_params(0.5, 0.5, 1.0)
# mu*nu underflows to exactly zero: the commutative limit without branching
P00 = make_params(1e-200, 1e-200, 1.0)

PHI_GRID = np.linspace(-math.pi, math.pi, 6285)


def _rng(seed=7):
    return np.random.default_rng(seed)


def _random_amps(rng, scale=0.7):
    d = rng.uniform(-scale, scale, size=4)
    return ModeAmplitudes(complex(d[0], d[1]), complex(d[2], d[3]))


# ---------------------------------------------------------------------------
# input types


def test_squeeze_phase_canonicalized():
    assert SqueezeParam(0.1, 3.0 * math.pi).phi == pytest.approx(math.pi)
    assert SqueezeParam(0.1, -math.pi).phi == pytest.approx(math.pi)
    assert SqueezeParam(0.1, 0.3).phi == 0.3
    assert SqueezeParam(0.2).phi == 0.0


def test_squeeze_z_property():
    z = SqueezeParam(0.4, 1.1)
    assert z.z == pytest.approx(0.4 * cmath.exp(1.1j))


def test_negative_squeeze_rejected():
    with pytest.raises(ValueError):
        SqueezeParam(-0.1, 0.0)


def test_nonfinite_inputs_rejected():
    with pytest.raises(ValueError):
        SqueezeParam(math.nan, 0.0)
    with pytest.raises(ValueError):
        ModeAmplitudes(complex(math.inf, 0.0), 0.0)


def test_coherent_eigenvalues_mix_modes():
    lam_a, lam_b = coherent_eigenvalues(P05, ModeAmplitudes(0.4, 0.2j))
    assert lam_a == pytest.approx(0.3 + 0.0j)
    assert lam_b == pytest.approx(0.0 + 0.0j, abs=1e-15)
    # commutative limit: the eigenvalues are the amplitudes themselves
    lam_a, lam_b = coherent_eigenvalues(P00, ModeAmplitudes(0.4, 0.2j))
    assert lam_a == 0.4 + 0.0j
    assert lam_b == 0.2j


# ---------------------------------------------------------------------------
# overlaps


def test_coherent_self_overlap_is_one():
    rng = _rng()
    for _ in range(10):
        amps = _random_amps(rng)
        assert abs(coherent_overlap(P05, amps, amps) - 1.0) < 1e-14


def test_coherent_overlap_hermitian_symmetry():
    rng = _rng(11)
    for theta in (0.2, 0.5, 0.8):
        p = make_params(theta, theta, 1.0)
        for _ in range(10):
            bra, ket = _random_amps(rng), _random_amps(rng)
            forward = coherent_overlap(p, bra, ket)
            backward = coherent_overlap(p, ket, bra)
            assert abs(forward - backward.conjugate()) < 1e-14


def test_vacuum_overlap_magnitude():
    """Splitting the displacement exponential leaves a c-number Gaussian.

    The cross commutator adds a real theta*Im(conj(alpha)*beta) correction
    on top of the usual -(|alpha|^2+|beta|^2)/2, so the magnitude is fully
    hand-derivable.
    """
    rng = _rng(13)
    vac = ModeAmplitudes(0.0, 0.0)
    for theta in (0.0, 0.5, 0.9):
        p = make_params(theta, theta, 1.0) if theta else P00
        for _ in range(5):
            ket = _random_amps(rng, scale=1.0)
            cross = (np.conj(ket.alpha) * ket.beta).imag
            want = math.exp(-(abs(ket.alpha) ** 2 + abs(ket.beta) ** 2) / 2.0
                            + theta * cross)
            assert abs(coherent_overlap(p, vac, ket)) == pytest.approx(want, rel=1e-13)


def test_squeezed_vacuum_prefactor():
    vac = ModeAmplitudes(0.0, 0.0)
    value = squeezed_overlap(P05, vac, vac, SqueezeParam(0.3, math.pi / 4))
    want = (math.cosh(0.45) * math.cosh(0.15)) ** -0.5
    assert value.imag == 0.0
    assert value.real == pytest.approx(want, rel=1e-12)


def test_squeezed_vacuum_commutative_limit():
    vac = ModeAmplitudes(0.0, 0.0)
    for r, phi in [(0.2, 0.0), (0.35, 1.3), (0.5, -2.0)]:
        value = squeezed_overlap(P00, vac, vac, SqueezeParam(r, phi))
        assert abs(value) == pytest.approx(1.0 / math.cosh(r), rel=1e-12)


def test_zero_squeeze_reduces_to_coherent_exactly():
    rng = _rng(17)
    for _ in range(10):
        bra, ket = _random_amps(rng), _random_amps(rng)
        via_z = squeezed_overlap(P05, bra, ket, SqueezeParam(0.0, 0.4))
        direct = coherent_overlap(P05, bra, ket)
        assert via_z == direct


def test_squeezed_overlap_bounded_by_one():
    # both states are normalized, so Cauchy-Schwarz caps the overlap
    rng = _rng(19)
    for theta in (0.3, 0.6, 0.8):
        p = make_params(theta, theta, 1.0)
        for _ in range(20):
            bra, ket = _random_amps(rng, 1.0), _random_amps(rng, 1.0)
            z = SqueezeParam(rng.uniform(0.0, 0.4), rng.uniform(-3.0, 3.0))
            assert abs(squeezed_overlap(p, bra, ket, z)) <= 1.0 + 1e-12


def _plain_boson_overlap(bra, ket, z, levels=23):
    """Textbook two-mode oracle at theta = 0: sparse kron ladders, with
    expm_multiply applying each exponential to the vacuum.

    Built from nothing but numpy and scipy primitives so it shares no code
    with the formula under test.
    """
    low = diags_array(np.sqrt(np.arange(1.0, levels)), offsets=1, dtype=np.complex128)
    eye = eye_array(levels, dtype=np.complex128)
    op_a = kron(low, eye, format="csr")
    op_b = kron(eye, low, format="csr")
    vac = np.zeros(levels * levels, dtype=np.complex128)
    vac[0] = 1.0

    def displaced(amps):
        gen = (amps.alpha * op_a.conj().T - np.conj(amps.alpha) * op_a
               + amps.beta * op_b.conj().T - np.conj(amps.beta) * op_b)
        return expm_multiply(gen, vac)

    zc = z.r * cmath.exp(1j * z.phi)
    pair = op_a @ op_b
    ket_vec = expm_multiply(np.conj(zc) * pair - zc * pair.conj().T, displaced(ket))
    return complex(np.vdot(displaced(bra), ket_vec))


def test_squeezed_overlap_against_plain_boson_oracle():
    rng = _rng(23)
    for _ in range(6):
        bra, ket = _random_amps(rng), _random_amps(rng)
        z = SqueezeParam(rng.uniform(0.05, 0.4), rng.uniform(-3.0, 3.0))
        want = _plain_boson_overlap(bra, ket, z)
        got = squeezed_overlap(P00, bra, ket, z)
        assert abs(got - want) < 1e-12


# ---------------------------------------------------------------------------
# Bogoliubov coefficients


def test_bogoliubov_identity_at_zero_squeeze():
    coeffs = bogoliubov_coefficients(P05, SqueezeParam(0.0, 0.7))
    assert coeffs.mode_a.c_a == 1.0
    assert coeffs.mode_a.c_b == coeffs.mode_a.c_bdag == coeffs.mode_a.c_adag == 0.0
    assert coeffs.mode_b.c_b == 1.0
    assert coeffs.mode_b.c_a == coeffs.mode_b.c_bdag == coeffs.mode_b.c_adag == 0.0


def test_bogoliubov_commutative_limit_is_textbook():
    for r, phi in [(0.2, 0.0), (0.4, 1.1), (0.3, -2.5)]:
        coeffs = bogoliubov_coefficients(P00, SqueezeParam(r, phi))
        phase = cmath.exp(1j * phi)
        assert coeffs.mode_a.c_a == pytest.approx(math.cosh(r), rel=1e-15)
        assert coeffs.mode_a.c_b == 0.0
        assert coeffs.mode_a.c_bdag == pytest.approx(phase * math.sinh(r), rel=1e-15)
        assert coeffs.mode_a.c_adag == 0.0
        assert coeffs.mode_b.c_b == pytest.approx(math.cosh(r), rel=1e-15)
        assert coeffs.mode_b.c_adag == pytest.approx(phase * math.sinh(r), rel=1e-15)


def _coeff_commutator(left, right_dagged, theta):
    """[L, R] in coefficient space on the ordered basis (a, b, b+, a+).

    right_dagged holds the coefficients of R itself; the caller passes the
    adjoint by conjugate-swapping.  Only the six nonzero elementary
    commutators contribute.
    """
    l1, l2, l3, l4 = left
    r1, r2, r3, r4 = right_dagged
    return (l1 * r4 - l4 * r1           # [a, a+] and [a+, a]
            + l2 * r3 - l3 * r2         # [b, b+] and [b+, b]
            + 1j * theta * (l1 * r3 - l3 * r1)   # [a, b+] and [b+, a]
            - 1j * theta * (l2 * r4 - l4 * r2))  # [b, a+] and [a+, b]


def _as_tuple(tr):
    return (tr.c_a, tr.c_b, tr.c_bdag, tr.c_adag)


def _dagged(tr):
    # adjoint swaps a <-> a+ and b <-> b+ with conjugated coefficients
    return (np.conj(tr.c_adag), np.conj(tr.c_bdag),
            np.conj(tr.c_b), np.conj(tr.c_a))


@pytest.mark.parametrize("theta", [0.0, 0.3, 0.9, 0.999])
@pytest.mark.parametrize("r", [0.1, 1.0, 3.0])
def test_squeeze_commutators_generate_the_bogoliubov_coefficients(theta, r):
    """exp of the 4x4 adjoint action built from squeeze_commutators (the
    creator columns as adjoints) is the closed-form conjugation."""
    p = P00 if theta == 0.0 else make_params(theta, theta, 1.0)
    assert p.theta == pytest.approx(theta, abs=1e-15)
    for phi in (0.0, 0.7, -2.0, math.pi, math.pi / 2):
        z = SqueezeParam(r, phi)
        closed = bogoliubov_coefficients(p, z)
        for got, want in zip(squeeze_flow(p, z), (closed.mode_a, closed.mode_b)):
            scale = max(abs(c) for c in _as_tuple(want))
            gap = max(abs(g - w) for g, w in zip(_as_tuple(got), _as_tuple(want)))
            assert gap <= 1e-12 * scale, (phi, gap / scale)


def test_bogoliubov_preserves_deformed_algebra():
    """Conjugation cannot change the commutators, so the coefficient
    quadruples must satisfy the same algebra as the bare operators."""
    rng = _rng(29)
    for theta in (0.1, 0.5, 0.9):
        p = make_params(theta, theta, 1.0)
        for _ in range(8):
            z = SqueezeParam(rng.uniform(0.0, 0.6), rng.uniform(-3.0, 3.0))
            coeffs = bogoliubov_coefficients(p, z)
            mode_a = _as_tuple(coeffs.mode_a)
            mode_b = _as_tuple(coeffs.mode_b)
            checks = {
                "aa_dag": (_coeff_commutator(mode_a, _dagged(coeffs.mode_a), theta), 1.0),
                "bb_dag": (_coeff_commutator(mode_b, _dagged(coeffs.mode_b), theta), 1.0),
                "ab": (_coeff_commutator(mode_a, mode_b, theta), 0.0),
                "ab_dag": (_coeff_commutator(mode_a, _dagged(coeffs.mode_b), theta), 1j * theta),
            }
            for name, (got, want) in checks.items():
                assert abs(got - want) < 1e-13, (name, theta, z)


# ---------------------------------------------------------------------------
# variances and uncertainty products


def test_unsqueezed_variances_scale_with_mu_nu():
    rep = single_mode_report(make_params(4.0, 1.0, 1.0))
    assert rep.dx2 == 1.0
    assert rep.dy2 == 1.0
    assert rep.dpx2 == 0.25
    assert rep.dpy2 == 0.25
    assert rep.gain_x == 1.0 and rep.gain_px == 1.0
    assert rep.prod_xpx == 0.25


def test_commutative_squeeze_grows_x():
    rep = single_mode_report(P00, SqueezeParam(0.3, 0.0))
    assert rep.gain_x == pytest.approx(math.cosh(0.6), rel=1e-15)
    assert not rep.squeezed_x


def test_exchange_under_phase_reflection():
    for theta in (0.2, 0.5, 0.8):
        p = make_params(theta, theta, 1.0)
        for r, phi in [(0.1, 0.3), (0.3, 1.2), (0.45, -2.1)]:
            plus = single_mode_report(p, SqueezeParam(r, phi))
            minus = single_mode_report(p, SqueezeParam(r, -phi))
            assert ulp_between(minus.gain_x, plus.gain_px) <= 4.0
            assert ulp_between(minus.gain_px, plus.gain_x) <= 4.0
            assert ulp_between(minus.dy2, plus.dx2) <= 4.0
            assert ulp_between(minus.dpy2, plus.dpx2) <= 4.0


def _prod_xpx_direct(params, r, phi):
    """(dx2 * dpx2) evaluated from its own expanded closed form."""
    theta = params.theta
    c2r, s2r = math.cosh(2.0 * r), math.sinh(2.0 * r)
    c2t, s2t = math.cosh(2.0 * r * theta), math.sinh(2.0 * r * theta)
    s4r, s4t = math.sinh(4.0 * r), math.sinh(4.0 * r * theta)
    sphi2 = math.sin(phi) ** 2
    cphi2 = math.cos(phi) ** 2
    bracket = (
        c2r * c2r * (c2t * c2t - sphi2 * s2t * s2t)
        + 0.5 * theta * cphi2 * s4r * s4t
        + theta * theta * s2r * s2r * (s2t * s2t - sphi2 * c2t * c2t)
    )
    return 0.25 * params.hbar**2 * bracket


def _prod_xp_two_mode_direct(params, r, phi):
    """(dX2 * dP2) evaluated from its own expanded closed form."""
    theta = params.theta
    c2r, s2r = math.cosh(2.0 * r), math.sinh(2.0 * r)
    s2t = math.sinh(2.0 * r * theta)
    s4r, s4t = math.sinh(4.0 * r), math.sinh(4.0 * r * theta)
    cphi2 = math.cos(phi) ** 2
    sphi2 = math.sin(phi) ** 2
    bracket = (
        (c2r * c2r - cphi2 * s2r * s2r)
        + 0.5 * theta * sphi2 * s4r * s4t
        + ((c2r * c2r + theta * theta * s2r * s2r)
           - cphi2 * (theta * theta * c2r * c2r + s2r * s2r)) * s2t * s2t
    )
    return params.hbar**2 / 16.0 * bracket


def test_product_direct_form_matches_variance_product():
    # two algebraic arrangements of the same product, compared blind
    rng = _rng(31)
    for _ in range(25):
        theta = rng.uniform(0.05, 0.95)
        p = make_params(theta, theta, 1.0)
        z = SqueezeParam(rng.uniform(0.0, 0.6), rng.uniform(-3.0, 3.0))
        rep = single_mode_report(p, z)
        direct_xpx = _prod_xpx_direct(p, z.r, z.phi)
        assert direct_xpx == pytest.approx(rep.dx2 * rep.dpx2, rel=1e-13)
        assert direct_xpx == pytest.approx(rep.prod_xpx, rel=1e-13)
        direct_xp = _prod_xp_two_mode_direct(p, z.r, z.phi)
        assert direct_xp == pytest.approx(rep.dX2 * rep.dP2, rel=1e-13)
        assert direct_xp == pytest.approx(rep.prod_XP, rel=1e-13)


def _grid_min(fn):
    values = [fn(float(phi)) for phi in PHI_GRID]
    i = int(np.argmin(values))
    return values[i], float(PHI_GRID[i])


def test_single_mode_minimum_on_dense_grid():
    for theta, r in [(0.3, 0.2), (0.5, 0.3), (0.8, 0.45)]:
        p = make_params(theta, theta, 1.0)
        rep = single_mode_report(p, SqueezeParam(r, 0.1))
        got, arg = _grid_min(
            lambda phi: single_mode_report(p, SqueezeParam(r, phi)).prod_xpx)
        closed = 0.25 * (1.0 + (1.0 - theta**2) * math.sinh(2.0 * r) ** 2)
        assert abs(got - closed) < 1e-10 * closed
        assert abs(abs(arg) - math.pi / 2) < 1e-9
        assert rep.min_xpx == pytest.approx(closed, rel=1e-12)
        row = _variance_row(p, SqueezeParam(r, 0.1))
        assert abs(row["argmin_phi"]) == pytest.approx(math.pi / 2, rel=1e-12)


def test_two_mode_minimum_on_dense_grid():
    for theta, r in [(0.3, 0.2), (0.5, 0.3), (0.8, 0.45)]:
        p = make_params(theta, theta, 1.0)
        rep = single_mode_report(p, SqueezeParam(r, 0.1))
        got, arg = _grid_min(
            lambda phi: single_mode_report(p, SqueezeParam(r, phi)).prod_XP)
        closed = (1.0 + (1.0 - theta**2) * math.sinh(2.0 * r * theta) ** 2) / 16.0
        assert abs(got - closed) < 1e-10 * closed
        # the minimizing set is sin(phi) = 0; the grid scan may land on
        # phi = -pi first, which attains the same value as phi = 0
        assert abs(math.sin(arg)) < 1e-9
        assert rep.min_XP == pytest.approx(closed, rel=1e-12)
        row = _variance_row(p, SqueezeParam(r, 0.1))
        assert row["argmin_phi_XP"] == pytest.approx(0.0, abs=1e-12)


def test_saturated_theta_pins_minimum_to_floor():
    p = make_params(1.0, 1.0, 1.0)
    for r in (0.1, 0.3, 0.5):
        rep = single_mode_report(p, SqueezeParam(r, 0.7))
        assert rep.min_xpx == pytest.approx(0.25, rel=1e-12)


def test_heisenberg_report_at_rest():
    checks = single_mode_report(P05).bounds
    assert set(checks) == {"xy", "pxpy", "xpx", "ypy", "XP"}
    for name in ("xpx", "ypy", "XP"):
        assert checks[name].satisfied and checks[name].saturated
    # xy and pxpy floors only saturate on the mu*nu = hbar^2 boundary
    assert checks["xy"].satisfied and not checks["xy"].saturated
    assert checks["pxpy"].satisfied and not checks["pxpy"].saturated
    sat = single_mode_report(make_params(1.0, 1.0, 1.0)).bounds
    assert sat["xy"].saturated and sat["pxpy"].saturated


def test_heisenberg_violated_beyond_critical_coupling():
    p = make_params(2.0, 2.0, 1.0)
    checks = single_mode_report(p, SqueezeParam(0.3, math.pi / 2)).bounds
    assert not checks["xpx"].satisfied
    assert checks["xpx"].lhs < checks["xpx"].rhs


def test_variances_scale_out_of_natural_units():
    # doubling hbar with mu, nu fixed rescales variances but not gains
    base = single_mode_report(make_params(0.5, 0.5, 1.0), SqueezeParam(0.3, 1.0))
    scaled = single_mode_report(make_params(1.0, 1.0, 2.0), SqueezeParam(0.3, 1.0))
    assert scaled.gain_x == pytest.approx(base.gain_x, rel=1e-15)
    assert scaled.dx2 == pytest.approx(2.0 * base.dx2, rel=1e-14)


# theta in [0, 1), weighted towards the last 1e-6 below 1
_THETA = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                   st.floats(-16.0, -6.0).map(lambda e: 1.0 - 10.0**e))
_RATIO = st.floats(0.1, 10.0)
_HBAR = st.floats(0.3, 3.0)
_PHI = st.one_of(st.sampled_from([0.0, 0.5 * math.pi, -0.5 * math.pi, math.pi]),
                 st.floats(-10.0, 10.0))


def _params_at(theta, ratio, hbar):
    """Parameters near theta with mu/nu = ratio**2; below 1e-150 theta is
    replaced by 0, where mu*nu underflows."""
    scale = theta * hbar if theta > 1e-150 else 1e-200
    return make_params(scale * ratio, scale / ratio, hbar)


def _decimal_oracle(params, z):
    """Every report field from the plain bracket formulas at 50 digits.

    The float inputs, sin(phi) and cos(phi) included, are taken as exact;
    cosh and sinh are built from Decimal.exp.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        D = decimal.Decimal
        theta, hbar, mu, nu, r = (D(v) for v in (params.theta, params.hbar,
                                                  params.mu, params.nu, z.r))
        s, c = D(math.sin(z.phi)), D(math.cos(z.phi))

        def cosh_sinh(x):
            e, inv = x.exp(), (-x).exp()
            return (e + inv) / 2, (e - inv) / 2

        c2r, s2r = cosh_sinh(2 * r)
        c2t, s2t = cosh_sinh(2 * r * theta)
        plus = c2r * (c2t + s * s2t) + theta * s2r * (s2t + s * c2t)
        minus = c2r * (c2t - s * s2t) + theta * s2r * (s2t - s * c2t)
        bx = c2t * (c2r - c * s2r) + theta * s2t * (s2r - c * c2r)
        bp = c2t * (c2r + c * s2r) + theta * s2t * (s2r + c * c2r)
        s1 = 1 + (1 - theta * theta) * s2r * s2r
        s2 = 1 + (1 - theta * theta) * s2t * s2t
        sx = hbar / 2 * (mu / nu).sqrt()
        sp = hbar / 2 * (nu / mu).sqrt()
        return {
            "dx2": sx * plus, "dy2": sx * minus, "dpx2": sp * minus, "dpy2": sp * plus,
            "dX2": sx / 2 * bx, "dP2": sp / 2 * bp,
            "gain_x": plus, "gain_px": minus,
            "prod_xpx": sx * sp * plus * minus, "prod_ypy": sx * sp * plus * minus,
            "prod_xy": sx * sx * plus * minus, "prod_pxpy": sp * sp * plus * minus,
            "prod_XP": sx * sp / 4 * bx * bp,
            "min_xpx": sx * sp * s1, "min_xy": sx * sx * s1, "min_pxpy": sp * sp * s1,
            "min_XP": sx * sp / 4 * s2,
        }


@settings(max_examples=300, deadline=None)
@given(theta=_THETA, ratio=_RATIO, hbar=_HBAR, r=st.floats(0.0, 8.0), phi=_PHI)
def test_report_matches_fifty_digit_oracle(theta, ratio, hbar, r, phi):
    p = _params_at(theta, ratio, hbar)
    assume(p.theta < 1.0)
    z = SqueezeParam(r, phi)
    rep = single_mode_report(p, z)
    for name, want in _decimal_oracle(p, z).items():
        got = decimal.Decimal(getattr(rep, name))
        assert abs(got - want) <= decimal.Decimal("1e-14") * abs(want), (name, got, want)


@settings(max_examples=200, deadline=None)
@given(theta=st.floats(0.0, 3.0), r=st.floats(0.0, 8.0),
       phi=st.floats(-math.pi, math.pi, exclude_min=True, exclude_max=True))
def test_phase_reflection_exchanges_bitwise(theta, r, phi):
    p = _params_at(theta, 1.7, 1.0)
    plus = single_mode_report(p, SqueezeParam(r, phi))
    minus = single_mode_report(p, SqueezeParam(r, -phi))
    assert (minus.gain_x, minus.gain_px) == (plus.gain_px, plus.gain_x)
    assert (minus.dy2, minus.dpy2) == (plus.dx2, plus.dpx2)


_BOUND_MINIMA = {"xy": "min_xy", "pxpy": "min_pxpy", "xpx": "min_xpx",
                 "ypy": "min_xpx", "XP": "min_XP"}


@settings(max_examples=200, deadline=None)
@given(theta=st.floats(0.0, 3.0), ratio=_RATIO, hbar=_HBAR, r=st.floats(0.0, 8.0),
       phi=_PHI)
def test_bound_lhs_is_the_stored_product_above_its_minimum(theta, ratio, hbar, r, phi):
    rep = single_mode_report(_params_at(theta, ratio, hbar), SqueezeParam(r, phi))
    assert list(rep.bounds) == ["xy", "pxpy", "xpx", "ypy", "XP"]
    for name, bound in rep.bounds.items():
        assert bound.lhs == getattr(rep, "prod_" + name)
        assert bound.lhs >= getattr(rep, _BOUND_MINIMA[name])


@settings(max_examples=200, deadline=None)
@given(r=st.floats(0.0, 8.0), phi=_PHI)
def test_commutative_limit_of_the_factors(r, phi):
    # theta -> 0 (mu*nu underflows, as the sweep's theta = 0 point does):
    # each mode of a two-mode squeezed state is thermal, so both gains are
    # cosh 2r at every phase; the phase enters the collective quadratures
    rep = single_mode_report(P00, SqueezeParam(r, phi))
    assert rep.gain_x == pytest.approx(math.cosh(2.0 * r), rel=1e-14)
    assert rep.gain_px == pytest.approx(math.cosh(2.0 * r), rel=1e-14)
    if r <= 0.5:
        # the plain difference loses at most a factor e**(2r) <= e here
        z = SqueezeParam(r, phi)
        c2r, s2r, cphi = math.cosh(2.0 * r), math.sinh(2.0 * r), math.cos(z.phi)
        assert 4.0 * rep.dX2 == pytest.approx(c2r - cphi * s2r, rel=1e-14)
        assert 4.0 * rep.dP2 == pytest.approx(c2r + cphi * s2r, rel=1e-14)


_AMP = st.builds(ModeAmplitudes, st.complex_numbers(max_magnitude=2.0),
                 st.complex_numbers(max_magnitude=2.0))


@settings(max_examples=200, deadline=None)
@given(theta=_THETA, bra=_AMP, ket=_AMP, r=st.floats(0.0, 3.0), phi=_PHI)
def test_overlaps_of_unit_states_are_at_most_one(theta, bra, ket, r, phi):
    # Cauchy-Schwarz; 1e-13 covers the rounding of exponents up to about 20
    p = _params_at(theta, 1.0, 1.0)
    assert abs(coherent_overlap(p, bra, ket)) <= 1.0 + 1e-13
    assert abs(squeezed_overlap(p, bra, ket, SqueezeParam(r, phi))) <= 1.0 + 1e-13


@settings(max_examples=200, deadline=None)
@given(theta=_THETA, bra=_AMP, ket=_AMP)
def test_coherent_overlap_is_hermitian_and_unit_on_the_diagonal(theta, bra, ket):
    p = _params_at(theta, 1.0, 1.0)
    forward = coherent_overlap(p, bra, ket)
    backward = coherent_overlap(p, ket, bra)
    assert abs(forward - backward.conjugate()) <= 1e-13 * abs(forward)
    for state in (bra, ket):
        assert abs(coherent_overlap(p, state, state) - 1.0) <= 1e-13


@settings(max_examples=300, deadline=None)
@given(theta=st.floats(0.0, 0.999), r=st.floats(0.0, 3.0),
       phi=st.floats(allow_nan=False, allow_infinity=False))
def test_bogoliubov_preserves_deformed_algebra_at_any_squeeze(theta, r, phi):
    """test_bogoliubov_preserves_deformed_algebra over the engine's theta
    range, r up to 3 and any phase.  Each commutator sums products of two
    coefficients, so its rounding grows as the square of the largest one,
    |c_a| = cosh(r) cosh(r theta): up to cosh(3)**2, about 101, here,
    against at most 1.9 on that test's grid.  The tolerance is its 1e-13
    times that square."""
    p = _params_at(theta, 1.0, 1.0)
    coeffs = bogoliubov_coefficients(p, SqueezeParam(r, phi))
    mode_a = _as_tuple(coeffs.mode_a)
    mode_b = _as_tuple(coeffs.mode_b)
    scale = max(abs(c) for c in mode_a + mode_b) ** 2
    checks = {
        "aa_dag": (_coeff_commutator(mode_a, _dagged(coeffs.mode_a), p.theta), 1.0),
        "bb_dag": (_coeff_commutator(mode_b, _dagged(coeffs.mode_b), p.theta), 1.0),
        "ab": (_coeff_commutator(mode_a, mode_b, p.theta), 0.0),
        "ab_dag": (_coeff_commutator(mode_a, _dagged(coeffs.mode_b), p.theta), 1j * p.theta),
    }
    for name, (got, want) in checks.items():
        assert abs(got - want) <= 1e-13 * scale, (name, abs(got - want) / scale)


def _textbook_overlap(bra, ket):
    """<bra|ket> of two single-mode coherent states."""
    return cmath.exp(-0.5 * abs(bra) ** 2 - 0.5 * abs(ket) ** 2 + bra.conjugate() * ket)


@settings(max_examples=200, deadline=None)
@given(bra=_AMP, ket=_AMP, log_theta=st.floats(-12.0, -2.0))
def test_coherent_overlap_tends_to_the_textbook_product(bra, ket, log_theta):
    """At theta 0 the overlap is <a1|a2><b1|b2>.  Its exponent is linear
    in theta, E = E0 + theta E1, and the theta terms of the paper form
    (conftest's _coherent_overlap_raw) bound the derivative:
    |dE/dtheta| = |E1| <= |a2||b2| + |a1||b1| + |a1||b2| + |b1||a2|
    = (|a1| + |a2|)(|b1| + |b2|) = D.  So, from |e^w - 1| <= |w| e^|w|,
    |F(theta) - F(0)| = |F(0)| |e^(theta E1) - 1| <= |F(0)| theta D e^(theta D).
    Rounding adds at most 1e-14 of |F| per unit of S, the sum of the
    exponent terms' magnitudes."""
    want = _textbook_overlap(bra.alpha, ket.alpha) * _textbook_overlap(bra.beta, ket.beta)
    a_sum = abs(bra.alpha) + abs(ket.alpha)
    b_sum = abs(bra.beta) + abs(ket.beta)
    d = a_sum * b_sum
    for p in (P00, make_params(10.0 ** log_theta, 10.0 ** log_theta, 1.0)):
        grown = math.exp(p.theta * d)
        s = 0.5 * (a_sum ** 2 + b_sum ** 2) + p.theta * d
        rounding = 1e-14 * (1.0 + s) * abs(want) * grown
        gap = abs(coherent_overlap(p, bra, ket) - want)
        assert gap <= abs(want) * p.theta * d * grown + rounding, (p.theta, gap)


_ORACLE_AMP = st.builds(ModeAmplitudes, st.complex_numbers(max_magnitude=0.7),
                       st.complex_numbers(max_magnitude=0.7))


@settings(max_examples=100, deadline=None)
@given(bra=_ORACLE_AMP, ket=_ORACLE_AMP, r=st.floats(0.0, 0.4), phi=_PHI,
       log_theta=st.floats(-12.0, -2.0))
# the norm term's derivative alone, at its bound UV: a zero bra and a ket
# with quarter-turn phases, at so small an r that the squeeze adds ~1e-3
@example(bra=ModeAmplitudes(0.0, 0.0), ket=ModeAmplitudes(0.7, 0.7j), r=1e-3, phi=0.0,
         log_theta=-2.0)
def test_squeezed_overlap_tends_to_the_textbook_value(bra, ket, r, phi, log_theta):
    """At theta 0 the squeezed overlap F(0) is the plain-boson oracle's.
    With u, v the bra's and U, V the ket's amplitude sizes, each theta term
    of the paper-form exponent E (conftest's _squeezed_overlap_exponent) has a bounded
    theta-derivative:
    - the prefactor's is r (tanh(r+) - tanh(r-))/2, at most r**2 theta;
    - the norm term's is at most uv + UV;
    - with r+- = r (1 +- theta), the two branches' is
      cross (h(r+) - h(r-)) + Y (h(r+) + h(r-)), with |cross| <= uU + vV,
      |Y| <= uV + vU and h(y) = (1 - y tanh y) / (2 cosh y), which lies in
      [-1/2, 1/2] with |h'| <= 1, so theirs is at most
      2 r theta (uU + vV) + uV + vU;
    - the quadratic terms weigh the squares of U +- iV and u -+ iv by
      q(r+-) / (4r), q(y) = y tanh y, with theta-derivatives q'(r+-) / 4
      and 0 <= q' <= 2y, and |U + iV|**2 + |U - iV|**2 = 2 (U**2 + V**2),
      so theirs is at most r (1 + theta) (u**2 + v**2 + U**2 + V**2).
    Their sum D bounds |dE/dtheta| on [0, theta], so, from
    |e^w - 1| <= |w| e^|w|, |F(theta) - F(0)| <= |F(0)| theta D e^(theta D).
    Rounding adds at most 1e-14 of |F| per unit of S, a bound on the sum
    of the exponent terms' magnitudes."""
    z = SqueezeParam(r, phi)
    want = squeezed_overlap(P00, bra, ket, z)
    assert abs(want - _plain_boson_overlap(bra, ket, z)) < 1e-12
    u, v, big_u, big_v = (abs(c) for c in (bra.alpha, bra.beta, ket.alpha, ket.beta))
    p = make_params(10.0 ** log_theta, 10.0 ** log_theta, 1.0)
    theta = p.theta
    d = ((u + big_u) * (v + big_v) + r * (1.0 + theta) * (u * u + v * v + big_u ** 2 + big_v ** 2)
         + r * theta * (r + 2.0 * (u * big_u + v * big_v)))
    grown = math.exp(theta * d)
    s = r + (u + v + big_u + big_v) ** 2 + theta * d
    rounding = 1e-14 * (1.0 + s) * abs(want) * grown
    gap = abs(squeezed_overlap(p, bra, ket, z) - want)
    assert gap <= abs(want) * theta * d * grown + rounding, (theta, gap)


_NEAR_ONE = st.floats(-9.0, 0.0).map(lambda e: 1.0 - 10.0 ** e)


@settings(max_examples=300, deadline=None)
@given(theta=st.one_of(st.floats(0.0, 1.0 - 1e-9), _NEAR_ONE), r=st.floats(0.0, 8.0),
       phi=_PHI, amps=st.lists(st.complex_numbers(max_magnitude=3.0), min_size=4, max_size=4))
@example(theta=0.5, r=0.0, phi=1.0, amps=[0.3 - 1j, 2.0, -1.5j, 0.7 + 0.7j])
def test_overlap_exponent_is_the_paper_form(theta, r, phi, amps):
    """The single-mode exponents of u, v = (a +- i b)/sqrt(2) sum to the
    paper form, expanded in (a, b) by hand (conftest), within 1e-14 of
    the size of its terms, up to theta = 1 - 1e-9 and r = 8."""
    got = analytic._overlap_exponent(theta, *amps, r, phi)
    want = complex(_squeezed_overlap_exponent(theta, *amps, r, phi))
    scale = max(1.0, sum(abs(c) ** 2 for c in amps), r)
    assert abs(got - want) <= 1e-14 * scale, abs(got - want) / scale


# ---------------------------------------------------------------------------
# oscillator consistency


def test_oscillator_consistency():
    ok = oscillator_consistency(OscillatorParams(1.0, 2.0), make_params(4.0, 1.0, 1.0))
    assert ok.consistent and ok.lhs == pytest.approx(ok.rhs)

    bad = oscillator_consistency(OscillatorParams(4.0, 1.0), make_params(1.0, 2.0, 1.0))
    assert not bad.consistent

    third = oscillator_consistency(OscillatorParams(3.0, 1.0 / 3.0), P05)
    assert third.consistent


def test_oscillator_params_validated():
    with pytest.raises(ValueError):
        OscillatorParams(0.0, 1.0)
    with pytest.raises(ValueError):
        OscillatorParams(1.0, -2.0)
