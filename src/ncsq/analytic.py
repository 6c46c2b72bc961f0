"""Closed-form results for deformed two-mode coherent and squeezed states.

Two deformed boson modes (a, b) are built from the noncommuting phase-space
operators.  They satisfy the usual single-mode relations [a, a+] = [b, b+] = 1
and commute as [a, b] = 0, but pick up the cross relation [a, b+] = i*theta,
with theta from :mod:`ncsq.params`.  States are labelled by a pair of complex
displacement amplitudes (alpha, beta) and an optional two-mode squeeze
parameter z = r*exp(i*phi).

Everything in this module is a scalar closed form: overlaps, eigenvalues of
the annihilators on displaced states, the coefficients of the squeeze
conjugation, quadrature variances, uncertainty products and their minima over
the squeeze phase.  No truncated Hilbert space is involved; the matrix
realisation lives in :mod:`ncsq.fock` and is checked against this module by
:mod:`ncsq.verifier`.

Conventions: in an overlap <bra|ket> the primed/bra amplitudes enter
conjugated; phases are canonicalised to (-pi, pi]; variances carry their
dimensional prefactors sqrt(mu/nu) etc. unless callers normalise them away.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .params import NcParams, NonFinite

__all__ = [
    "BogoliubovCoeffs",
    "BoundCheck",
    "ModeAmplitudes",
    "ModeTransform",
    "OscillatorCheck",
    "OscillatorParams",
    "SqueezeParam",
    "VarianceReport",
    "bogoliubov_coefficients",
    "coherent_eigenvalues",
    "coherent_overlap",
    "oscillator_consistency",
    "single_mode_report",
    "squeezed_overlap",
]

SATURATION_CHECK_RTOL = 1e-10


def _require_finite_complex(name: str, value: complex) -> complex:
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ModeAmplitudes:
    """Complex displacement amplitudes (alpha for mode a, beta for mode b)."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _require_finite_complex("alpha", self.alpha))
        object.__setattr__(self, "beta", _require_finite_complex("beta", self.beta))


@dataclass(frozen=True)
class SqueezeParam:
    """Two-mode squeeze strength r >= 0 and phase phi in (-pi, pi]."""

    r: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        r = float(self.r)
        phi = float(self.phi)
        if not math.isfinite(r) or not math.isfinite(phi):
            raise ValueError(f"squeeze parameter must be finite, got r={r!r} phi={phi!r}")
        if r < 0.0:
            raise ValueError(f"squeeze magnitude must be >= 0, got {r!r}")
        phi = math.remainder(phi, 2.0 * math.pi)
        if phi <= -math.pi:
            phi += 2.0 * math.pi
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "phi", phi)

    @property
    def z(self) -> complex:
        return self.r * cmath.exp(1j * self.phi)


@dataclass(frozen=True)
class ModeTransform:
    """Coefficients of one conjugated annihilator on (a, b, b+, a+)."""

    c_a: complex
    c_b: complex
    c_bdag: complex
    c_adag: complex


@dataclass(frozen=True)
class BogoliubovCoeffs:
    """Both conjugated annihilators S a S+ and S b S+ as linear combinations."""

    mode_a: ModeTransform
    mode_b: ModeTransform


@dataclass(frozen=True)
class BoundCheck:
    """One uncertainty bound, compared on squared products.

    lhs is the product of the two variances, rhs the squared floor.
    ``satisfied`` allows rounding slack; ``saturated`` means equality within
    1e-10 relative.
    """

    name: str
    lhs: float
    rhs: float
    satisfied: bool
    saturated: bool


@dataclass(frozen=True)
class VarianceReport:
    """Quadrature variances of a displaced (optionally squeezed) state,
    their uncertainty products, the products' minima over phi and the five
    uncertainty bounds.

    Single-mode variances dx2 .. dpy2 carry prefactors (hbar/2)*sqrt(mu/nu)
    or (hbar/2)*sqrt(nu/mu); the collective quadratures dX2/dP2 of
    (x+y)/2 and (px+py)/2 carry (hbar/4)*sqrt(mu/nu) and
    (hbar/4)*sqrt(nu/mu).  gain_x and gain_px are the dimensionless
    factors of dx2 (= dpy2) and dpx2 (= dy2) relative to the unsqueezed
    state.  All values are independent of the displacement amplitudes.

    Every factor is A + t*B with A**2 - B**2 = S, B >= 0 and t = sin(phi)
    or cos(phi) (see single_mode_report).  Each product is its prefactor
    times S + (1 - t**2)*B**2 and its phi-minimum the prefactor times S, so
    min_* <= prod_* holds exactly.  For theta < 1 (S > 0) no field loses
    digits to cancellation: at r <= 8 every float field is within 1e-14
    relative of a 50-digit evaluation of the plain bracket formulas
    (2.3e-15 worst measured).

    min_xpx (also the minimum of prod_ypy), min_xy and min_pxpy are
    attained at phi = +/- pi/2, min_XP at phi = 0 and pi.  ``bounds``
    holds the five BoundCheck verdicts in the order xy, pxpy, xpx, ypy,
    XP; each lhs is the stored product.

    The squeezed_x / squeezed_px flags follow the non-strict condition
    gain <= 1, so an unsqueezed state (gain exactly 1) reports True; sweep
    emission uses the strict version to delimit genuine squeezing regions.
    """

    dx2: float
    dy2: float
    dpx2: float
    dpy2: float
    dX2: float
    dP2: float
    gain_x: float
    gain_px: float
    squeezed_x: bool
    squeezed_px: bool
    prod_xpx: float
    prod_ypy: float
    prod_xy: float
    prod_pxpy: float
    prod_XP: float
    min_xpx: float
    min_xy: float
    min_pxpy: float
    min_XP: float
    bounds: Dict[str, BoundCheck]


@dataclass(frozen=True)
class OscillatorParams:
    """Mass and frequency of an isotropic oscillator on the deformed plane."""

    mass: float
    omega: float

    def __post_init__(self) -> None:
        for name, value in (("mass", self.mass), ("omega", self.omega)):
            value = float(value)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        object.__setattr__(self, "mass", float(self.mass))
        object.__setattr__(self, "omega", float(self.omega))


@dataclass(frozen=True)
class OscillatorCheck:
    """Whether m**2 w**2 matches mu/nu, the consistency condition."""

    lhs: float
    rhs: float
    consistent: bool


def coherent_eigenvalues(params: NcParams, amps: ModeAmplitudes) -> Tuple[complex, complex]:
    """Eigenvalues of (a, b) on the displaced state with amplitudes amps.

    The cross commutator [a, b+] = i*theta shifts the usual eigenvalues to
    (alpha + i*theta*beta, beta - i*theta*alpha).
    """
    theta = params.theta
    return (
        amps.alpha + 1j * theta * amps.beta,
        amps.beta - 1j * theta * amps.alpha,
    )


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


def _squeezed_overlap_raw(theta, a1, b1, a2, b2, r, phi):
    """<a1, b1 | a2, b2; z> with the bra coherent and the ket squeezed."""
    return np.exp(_squeezed_overlap_exponent(theta, a1, b1, a2, b2, r, phi))


def _identity_integrand_coefficients(
    theta: float, psi1: ModeAmplitudes, psi2: ModeAmplitudes, r: float, phi: float
) -> Tuple[complex, np.ndarray, np.ndarray]:
    """(c, w, Q) with log F = c + w.g + g.Q.g, F the sampled integrand of
    the resolution of the identity.

    F = (1 - theta**2) <psi1|alpha, beta; z> <alpha, beta; z|psi2>
    exp(|alpha|**2 + |beta|**2) at (alpha, beta) = sqrt(1/2) (g0 + i g1,
    g2 + i g3).  log F is a polynomial of degree two in g, so its values
    at 0, +-e_i and e_i + e_j (15 points) give the coefficients exactly.
    The |alpha|**2 + |beta|**2 terms cancel, which leaves Q real:
    2 theta Im(conj(alpha) beta) plus twice the real part of the ket's
    squeeze term.  Q is returned complex; its imaginary part is rounding.
    """
    log_weight = math.log(1.0 - theta * theta)

    def log_f(g: np.ndarray) -> complex:
        alpha = math.sqrt(0.5) * complex(g[0], g[1])
        beta = math.sqrt(0.5) * complex(g[2], g[3])
        left = _squeezed_overlap_exponent(theta, psi1.alpha, psi1.beta, alpha, beta, r, phi)
        right = _squeezed_overlap_exponent(theta, psi2.alpha, psi2.beta, alpha, beta, r, phi)
        return complex(log_weight + left + np.conjugate(right)
                       + abs(alpha) ** 2 + abs(beta) ** 2)

    unit = np.eye(4)
    c = log_f(np.zeros(4))
    plus = [log_f(e) for e in unit]
    minus = [log_f(-e) for e in unit]
    w = np.array([0.5 * (hi - lo) for hi, lo in zip(plus, minus)])
    quad = np.diag([0.5 * (hi + lo) - c for hi, lo in zip(plus, minus)])
    for i in range(4):
        for j in range(i + 1, 4):
            quad[i, j] = quad[j, i] = 0.5 * (log_f(unit[i] + unit[j]) - plus[i] - plus[j] + c)
    return c, w, quad


def coherent_overlap(params: NcParams, bra: ModeAmplitudes, ket: ModeAmplitudes) -> complex:
    """Overlap of two displaced states of the deformed mode pair.

    Reduces to the ordinary two-mode coherent overlap at theta -> 0; the
    i*theta terms entangle the two displacement planes.
    """
    return complex(
        _coherent_overlap_raw(params.theta, bra.alpha, bra.beta, ket.alpha, ket.beta)
    )


def squeezed_overlap(
    params: NcParams, bra: ModeAmplitudes, ket: ModeAmplitudes, z: SqueezeParam
) -> complex:
    """Overlap of a displaced bra with a squeezed displaced ket.

    The two-mode squeeze acts after the displacement on the ket.  At r == 0
    the squeeze is the identity and the coherent overlap is returned
    unchanged (same code path, bit for bit).
    """
    if z.r == 0.0:
        return coherent_overlap(params, bra, ket)
    return complex(
        _squeezed_overlap_raw(
            params.theta, bra.alpha, bra.beta, ket.alpha, ket.beta, z.r, z.phi
        )
    )


def bogoliubov_coefficients(params: NcParams, z: SqueezeParam) -> BogoliubovCoeffs:
    """Coefficients of S(z) a S(z)+ and S(z) b S(z)+ on (a, b, b+, a+).

    The deformation splits the usual two-mode hyperbolic mixing into two
    branches with arguments r and r*theta.  Each annihilator mixes with the
    opposite creator at sinh(r)*cosh(r*theta) and, new at theta > 0, with
    its own creator at cosh(r)*sinh(r*theta) and the opposite annihilator
    at sinh(r)*sinh(r*theta); the theta-induced terms carry factors of i.
    """
    theta = params.theta
    r = z.r
    phase = cmath.exp(1j * z.phi)
    ch_r, sh_r = math.cosh(r), math.sinh(r)
    ch_t, sh_t = math.cosh(r * theta), math.sinh(r * theta)

    mode_a = ModeTransform(
        c_a=complex(ch_r * ch_t),
        c_b=1j * sh_r * sh_t,
        c_bdag=phase * sh_r * ch_t,
        c_adag=1j * phase * ch_r * sh_t,
    )
    mode_b = ModeTransform(
        c_a=-1j * sh_r * sh_t,
        c_b=complex(ch_r * ch_t),
        c_bdag=-1j * phase * ch_r * sh_t,
        c_adag=phase * sh_r * ch_t,
    )
    return BogoliubovCoeffs(mode_a=mode_a, mode_b=mode_b)


def _factor_pair(a: float, b: float, t: float, s: float) -> Tuple[float, float, float]:
    """(a + t*b, a - t*b) and their product, for a**2 - b**2 == s and b >= 0.

    The product is s + (1 - t**2)*b**2, the larger factor a + |t|*b and
    the smaller one the product over the larger, divided term by term so
    that it stays finite where b**2 overflows; for s >= 0 no digits
    cancel.  At t == 0 both factors are a, which keeps the pair symmetric
    bit for bit under t -> -t.
    """
    big = a + abs(t) * b
    rest = (1.0 - abs(t)) * (1.0 + abs(t)) * b
    small = s / big + rest * (b / big) if t else big
    prod = s + rest * b
    return (big, small, prod) if t >= 0.0 else (small, big, prod)


def _bound(name: str, lhs: float, rhs: float) -> BoundCheck:
    saturated = abs(lhs - rhs) <= SATURATION_CHECK_RTOL * abs(rhs)
    satisfied = saturated or lhs >= rhs * (1.0 - 1e-12)
    return BoundCheck(name=name, lhs=lhs, rhs=rhs, satisfied=satisfied, saturated=saturated)


def single_mode_report(params: NcParams, z: Optional[SqueezeParam] = None) -> VarianceReport:
    """Variances, uncertainty products, their phi-minima and bounds.

    With c2r, s2r = cosh 2r, sinh 2r and c2t, s2t = cosh 2r*theta,
    sinh 2r*theta, every variance factor comes from three combinations

        A  = c2r*c2t + theta*s2r*s2t
        B  = c2r*s2t + theta*s2r*c2t
        B' = c2t*s2r + theta*s2t*c2r

    as gain_x, gain_px = A +/- sin(phi)*B (dx2 = dpy2 and dpx2 = dy2 up to
    their prefactors) and X, P factors A -/+ cos(phi)*B'.  Because
    A**2 - B**2 = S1 = 1 + (1 - theta**2)*sinh(2r)**2 and
    A**2 - B'**2 = S2 = 1 + (1 - theta**2)*sinh(2r*theta)**2, the
    single-mode products are their prefactors times S1 + cos(phi)**2*B**2,
    minimal over phi at S1 (phi = +/- pi/2), and the collective product is
    (hbar**2/16)*(S2 + sin(phi)**2*B'**2), minimal at S2 (phi = 0, pi).
    _factor_pair evaluates each pair and its product without cancellation
    for theta < 1, taking cos(phi)**2 as 1 - sin(phi)**2 (and the
    reverse), so a stored product is the product of the stored factors to
    rounding.
    Above the critical point S1 and S2 dip below 1 and the floors are
    undercut; super-critical parameters are legal input here and simply
    produce unsatisfied bounds.

    Bounds compare the products with the squared floors mu**2/4,
    nu**2/4, hbar**2/4 (twice) and hbar**2/16.  With z absent the state
    is purely coherent and the report holds the vacuum values.
    """
    theta = params.theta
    hbar = params.hbar
    r = 0.0 if z is None else z.r
    phi = 0.0 if z is None else z.phi

    try:
        c2r, s2r = math.cosh(2.0 * r), math.sinh(2.0 * r)
        c2t, s2t = math.cosh(2.0 * r * theta), math.sinh(2.0 * r * theta)
    except OverflowError:
        raise _overflow(r, theta) from None
    a = c2r * c2t + theta * s2r * s2t
    b = c2r * s2t + theta * s2r * c2t
    b_xp = c2t * s2r + theta * s2t * c2r
    deficit = (1.0 - theta) * (1.0 + theta)
    s1 = 1.0 + deficit * s2r * s2r
    s2 = 1.0 + deficit * s2t * s2t

    gain_x, gain_px, q1 = _factor_pair(a, b, math.sin(phi), s1)
    factor_p, factor_x, q2 = _factor_pair(a, b_xp, math.cos(phi), s2)

    scale_x = 0.5 * hbar * math.sqrt(params.mu / params.nu)
    scale_p = 0.5 * hbar * math.sqrt(params.nu / params.mu)
    scale_xx = scale_x * scale_x
    scale_pp = scale_p * scale_p
    h2_4 = 0.25 * hbar * hbar
    h2_16 = hbar * hbar / 16.0

    # in the order of the bounds: xy, pxpy, xpx, ypy, XP
    prods = {
        "xy": scale_xx * q1,
        "pxpy": scale_pp * q1,
        "xpx": h2_4 * q1,
        "ypy": h2_4 * q1,
        "XP": h2_16 * q2,
    }
    floors = {
        "xy": 0.25 * params.mu * params.mu,
        "pxpy": 0.25 * params.nu * params.nu,
        "xpx": h2_4,
        "ypy": h2_4,
        "XP": h2_16,
    }
    report = VarianceReport(
        dx2=scale_x * gain_x,
        dy2=scale_x * gain_px,
        dpx2=scale_p * gain_px,
        dpy2=scale_p * gain_x,
        dX2=0.5 * scale_x * factor_x,
        dP2=0.5 * scale_p * factor_p,
        gain_x=gain_x,
        gain_px=gain_px,
        squeezed_x=gain_x <= 1.0,
        squeezed_px=gain_px <= 1.0,
        prod_xpx=prods["xpx"],
        prod_ypy=prods["ypy"],
        prod_xy=prods["xy"],
        prod_pxpy=prods["pxpy"],
        prod_XP=prods["XP"],
        min_xpx=h2_4 * s1,
        min_xy=scale_xx * s1,
        min_pxpy=scale_pp * s1,
        min_XP=h2_16 * s2,
        bounds={name: _bound(name, lhs, floors[name]) for name, lhs in prods.items()},
    )
    if not all(map(math.isfinite, (v for v in vars(report).values() if isinstance(v, float)))):
        raise _overflow(r, theta)
    return report


def _overflow(r: float, theta: float) -> NonFinite:
    return NonFinite(
        f"the variances at r={r!r}, theta={theta!r} overflow a float; "
        "r must stay below about 177/(1 + theta)"
    )


def oscillator_consistency(osc: OscillatorParams, params: NcParams) -> OscillatorCheck:
    """Check m**2 w**2 == mu/nu, required for an isotropic oscillator.

    The condition ties the oscillator scales to the ratio of the two
    noncommutativity parameters; it is judged at 1e-12 relative.
    """
    lhs = (osc.mass * osc.omega) ** 2
    rhs = params.mu / params.nu
    consistent = abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))
    return OscillatorCheck(lhs=lhs, rhs=rhs, consistent=consistent)
