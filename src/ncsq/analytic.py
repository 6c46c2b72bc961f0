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

from .params import NcParams

__all__ = [
    "BogoliubovCoeffs",
    "BoundCheck",
    "ModeAmplitudes",
    "ModeTransform",
    "OscillatorCheck",
    "OscillatorParams",
    "ProductMinima",
    "SqueezeParam",
    "TwoModeReport",
    "VarianceReport",
    "bogoliubov_coefficients",
    "coherent_eigenvalues",
    "coherent_overlap",
    "heisenberg_report",
    "oscillator_consistency",
    "single_mode_report",
    "squeezed_overlap",
    "two_mode_report",
    "variance_products",
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
class VarianceReport:
    """Quadrature variances of a displaced (optionally squeezed) state.

    Single-mode variances dx2 .. dpy2 carry prefactors (hbar/2)*sqrt(mu/nu)
    or (hbar/2)*sqrt(nu/mu); the collective quadratures dX2/dP2 carry
    (hbar/4)*sqrt(mu/nu) and (hbar/4)*sqrt(nu/mu).  Products are products of
    the stored variances, gains are the dimensionless variance ratios
    relative to the unsqueezed state, and sat_* flags mark uncertainty
    products equal to their floors within 1e-10 relative (on the squared
    product).  All values are independent of the displacement amplitudes.

    The squeezed_x / squeezed_px flags follow the non-strict condition
    gain <= 1, so an unsqueezed state (gain exactly 1) reports True; sweep
    emission uses the strict version to delimit genuine squeezing regions.
    """

    dx2: float
    dy2: float
    dpx2: float
    dpy2: float
    gain_x: float
    gain_px: float
    squeezed_x: bool
    squeezed_px: bool
    prod_xpx: float
    prod_ypy: float
    prod_xy: float
    prod_pxpy: float
    dX2: float
    dP2: float
    prod_XP: float
    sat_xpx: bool
    sat_ypy: bool
    sat_xy: bool
    sat_pxpy: bool
    sat_XP: bool


@dataclass(frozen=True)
class ProductMinima:
    """Position-momentum product at (r, phi) and its minima over phi."""

    prod_xpx: float
    min_xpx: float
    min_xy: float
    min_pxpy: float
    argmin_phi: float


@dataclass(frozen=True)
class TwoModeReport:
    """Variances of the collective quadratures (x+y)/2 and (px+py)/2."""

    dX2: float
    dP2: float
    prod_XP: float
    min_XP: float
    argmin_phi: float


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


def _single_mode_brackets(theta: float, r: float, phi: float) -> Tuple[float, float]:
    """Dimensionless variance factors (plus branch, minus branch).

    The plus branch multiplies dx2 and dpy2, the minus branch dpx2 and dy2.
    Both equal 1 at r == 0.
    """
    c2r, s2r = math.cosh(2.0 * r), math.sinh(2.0 * r)
    c2t, s2t = math.cosh(2.0 * r * theta), math.sinh(2.0 * r * theta)
    sphi = math.sin(phi)
    plus = c2r * (c2t + sphi * s2t) + theta * s2r * (s2t + sphi * c2t)
    minus = c2r * (c2t - sphi * s2t) + theta * s2r * (s2t - sphi * c2t)
    return plus, minus


def _two_mode_brackets(theta: float, r: float, phi: float) -> Tuple[float, float]:
    """Dimensionless factors for the collective quadratures (X then P)."""
    c2r, s2r = math.cosh(2.0 * r), math.sinh(2.0 * r)
    c2t, s2t = math.cosh(2.0 * r * theta), math.sinh(2.0 * r * theta)
    cphi = math.cos(phi)
    bx = c2t * (c2r - cphi * s2r) + theta * s2t * (s2r - cphi * c2r)
    bp = c2t * (c2r + cphi * s2r) + theta * s2t * (s2r + cphi * c2r)
    return bx, bp


def _prod_xpx_direct(params: NcParams, r: float, phi: float) -> float:
    """(dx2 * dpx2) evaluated from its own closed form, not from factors."""
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


def _prod_xp_two_mode_direct(params: NcParams, r: float, phi: float) -> float:
    """(dX2 * dP2) evaluated from its own closed form."""
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


def single_mode_report(params: NcParams, z: Optional[SqueezeParam] = None) -> VarianceReport:
    """Variances and uncertainty products of the four plane quadratures.

    With z absent the state is purely coherent and the report reduces to the
    vacuum values (hbar/2)*sqrt(mu/nu) etc.  The y/py variances follow from
    the x/px ones through the exchange symmetry
    sqrt(nu/mu)*dy2 == sqrt(mu/nu)*dpx2 (and x <-> py), which holds for
    every (r, phi).  Gains are evaluated from their own closed forms so that
    squeezing flags do not inherit cancellation error from the division.
    """
    theta = params.theta
    hbar = params.hbar
    r = 0.0 if z is None else z.r
    phi = 0.0 if z is None else z.phi

    plus, minus = _single_mode_brackets(theta, r, phi)
    scale_x = 0.5 * hbar * math.sqrt(params.mu / params.nu)
    scale_p = 0.5 * hbar * math.sqrt(params.nu / params.mu)

    dx2 = scale_x * plus
    dpx2 = scale_p * minus
    dy2 = scale_x * minus
    dpy2 = scale_p * plus

    bx, bp = _two_mode_brackets(theta, r, phi)
    dX2 = 0.25 * hbar * math.sqrt(params.mu / params.nu) * bx
    dP2 = 0.25 * hbar * math.sqrt(params.nu / params.mu) * bp

    prod_xpx = dx2 * dpx2
    prod_ypy = dy2 * dpy2
    prod_xy = dx2 * dy2
    prod_pxpy = dpx2 * dpy2
    prod_XP = dX2 * dP2

    floor_h2 = 0.25 * hbar * hbar
    floor_mu2 = 0.25 * params.mu * params.mu
    floor_nu2 = 0.25 * params.nu * params.nu
    floor_XP2 = hbar * hbar / 16.0

    return VarianceReport(
        dx2=dx2,
        dy2=dy2,
        dpx2=dpx2,
        dpy2=dpy2,
        gain_x=plus,
        gain_px=minus,
        squeezed_x=plus <= 1.0,
        squeezed_px=minus <= 1.0,
        prod_xpx=prod_xpx,
        prod_ypy=prod_ypy,
        prod_xy=prod_xy,
        prod_pxpy=prod_pxpy,
        dX2=dX2,
        dP2=dP2,
        prod_XP=prod_XP,
        sat_xpx=_is_saturated(prod_xpx, floor_h2),
        sat_ypy=_is_saturated(prod_ypy, floor_h2),
        sat_xy=_is_saturated(prod_xy, floor_mu2),
        sat_pxpy=_is_saturated(prod_pxpy, floor_nu2),
        sat_XP=_is_saturated(prod_XP, floor_XP2),
    )


def _is_saturated(lhs: float, rhs: float) -> bool:
    return abs(lhs - rhs) <= SATURATION_CHECK_RTOL * abs(rhs)


def variance_products(params: NcParams, z: Optional[SqueezeParam] = None) -> ProductMinima:
    """x-px product at (r, phi) and the phi-minima of the three products.

    All three products share the minimiser phi = +/- pi/2, where they drop
    to their floor times 1 + (1 - theta**2)*sinh(2r)**2; above the critical
    point that factor dips below 1 and the floor is undercut.
    """
    r = 0.0 if z is None else z.r
    phi = 0.0 if z is None else z.phi
    theta = params.theta
    hbar2 = params.hbar**2
    shrink = 1.0 + (1.0 - theta * theta) * math.sinh(2.0 * r) ** 2
    return ProductMinima(
        prod_xpx=_prod_xpx_direct(params, r, phi),
        min_xpx=0.25 * hbar2 * shrink,
        min_xy=0.25 * hbar2 * (params.mu / params.nu) * shrink,
        min_pxpy=0.25 * hbar2 * (params.nu / params.mu) * shrink,
        argmin_phi=0.5 * math.pi,
    )


def two_mode_report(params: NcParams, z: Optional[SqueezeParam] = None) -> TwoModeReport:
    """Collective-quadrature variances, their product and its phi-minimum.

    The roles of r and r*theta swap relative to the single-mode case: the
    squeeze phase enters through cos(phi) and the minimum sits at phi = 0
    (equivalently pi), where the product equals
    (hbar**2/16) * (1 + (1 - theta**2)*sinh(2*r*theta)**2).
    """
    r = 0.0 if z is None else z.r
    phi = 0.0 if z is None else z.phi
    theta = params.theta
    bx, bp = _two_mode_brackets(theta, r, phi)
    dX2 = 0.25 * params.hbar * math.sqrt(params.mu / params.nu) * bx
    dP2 = 0.25 * params.hbar * math.sqrt(params.nu / params.mu) * bp
    shrink = 1.0 + (1.0 - theta * theta) * math.sinh(2.0 * r * theta) ** 2
    return TwoModeReport(
        dX2=dX2,
        dP2=dP2,
        prod_XP=_prod_xp_two_mode_direct(params, r, phi),
        min_XP=params.hbar**2 / 16.0 * shrink,
        argmin_phi=0.0,
    )


_BOUND_ORDER = ("xy", "pxpy", "xpx", "ypy", "XP")


def heisenberg_report(
    params: NcParams, z: Optional[SqueezeParam] = None
) -> Dict[str, BoundCheck]:
    """All five uncertainty products against their floors, at fixed (r, phi).

    Comparisons are made on squared products: the floors are mu**2/4,
    nu**2/4, hbar**2/4 (twice) and hbar**2/16.  Super-critical parameters
    are legal input here; they simply produce unsatisfied bounds.
    """
    rep = single_mode_report(params, z)
    two = two_mode_report(params, z)
    hbar2 = params.hbar**2
    floors = {
        "xy": 0.25 * params.mu**2,
        "pxpy": 0.25 * params.nu**2,
        "xpx": 0.25 * hbar2,
        "ypy": 0.25 * hbar2,
        "XP": hbar2 / 16.0,
    }
    values = {
        "xy": rep.prod_xy,
        "pxpy": rep.prod_pxpy,
        "xpx": rep.prod_xpx,
        "ypy": rep.prod_ypy,
        "XP": two.prod_XP,
    }
    out: Dict[str, BoundCheck] = {}
    for name in _BOUND_ORDER:
        lhs = values[name]
        rhs = floors[name]
        saturated = _is_saturated(lhs, rhs)
        satisfied = saturated or lhs >= rhs * (1.0 - 1e-12)
        out[name] = BoundCheck(
            name=name, lhs=lhs, rhs=rhs, satisfied=satisfied, saturated=saturated
        )
    return out


def oscillator_consistency(osc: OscillatorParams, params: NcParams) -> OscillatorCheck:
    """Check m**2 w**2 == mu/nu, required for an isotropic oscillator.

    The condition ties the oscillator scales to the ratio of the two
    noncommutativity parameters; it is judged at 1e-12 relative.
    """
    lhs = (osc.mass * osc.omega) ** 2
    rhs = params.mu / params.nu
    consistent = abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))
    return OscillatorCheck(lhs=lhs, rhs=rhs, consistent=consistent)
