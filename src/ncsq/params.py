"""Parameter handling for a pair of noncommuting phase-space planes.

The model is fixed by three strictly positive reals: the coordinate
noncommutativity ``mu`` ([x, y] = i*mu), the momentum noncommutativity
``nu`` ([px, py] = i*nu) and the usual ``hbar`` ([x, px] = [y, py] =
i*hbar).  Everything downstream is controlled by the dimensionless
combination ``theta = sqrt(mu*nu)/hbar``:

* ``theta < 1``  -- sub-critical; a map onto ordinary boson pairs exists,
* ``theta == 1`` -- saturated; the map degenerates,
* ``theta > 1``  -- super-critical; closed-form expressions stay finite
  but uncertainty floors can be undercut.

``kappa`` and ``lambda_denom`` are the auxiliary constants of the boson
map; they only exist for ``mu*nu <= hbar**2``.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "ConstraintClass",
    "NcParams",
    "NonFinite",
    "NonPositiveParameter",
    "SATURATION_RTOL",
    "classify_constraint",
    "make_params",
]

# Relative width of the band around mu*nu == hbar**2 treated as saturated.
SATURATION_RTOL = 1e-12


class NonPositiveParameter(ValueError):
    """A model parameter that must be strictly positive is not."""


class NonFinite(ValueError):
    """A numeric input is NaN or infinite."""


class ConstraintClass(enum.Enum):
    """Position of mu*nu relative to the critical value hbar**2."""

    SUB_CRITICAL = "sub_critical"
    SATURATED = "saturated"
    SUPER_CRITICAL = "super_critical"


@dataclass(frozen=True)
class NcParams:
    """Validated parameter set plus derived constants.

    Attributes
    ----------
    mu, nu, hbar:
        The three commutator scales, all strictly positive.
    theta:
        sqrt(mu*nu)/hbar, the single deformation parameter.
    kappa:
        (1 + sqrt(1 - mu*nu/hbar**2))/2, or None when mu*nu > hbar**2.
    lambda_denom:
        sqrt(1 - mu*nu/hbar**2), the normalisation denominator of the
        boson map, algebraically equal to kappa - mu*nu/(4*kappa*hbar**2);
        computed directly because that form cancels near saturation.  None
        whenever kappa is.
    constraint_class:
        Classification of mu*nu against hbar**2.
    """

    mu: float
    nu: float
    hbar: float
    theta: float
    kappa: Optional[float]
    lambda_denom: Optional[float]
    constraint_class: ConstraintClass


def classify_constraint(params: NcParams) -> ConstraintClass:
    """Classify mu*nu against hbar**2 with a 1e-12 relative saturation band."""
    return _classify(_ratio(params.mu, params.nu, params.hbar))


def _ratio(mu: float, nu: float, hbar: float) -> float:
    """mu*nu/hbar**2 as (mu/hbar)*(nu/hbar), which neither overflows nor
    underflows when the three scales are large or small together (and is
    mu*nu exactly at hbar = 1).  Raises NonFinite when the ratio itself
    overflows."""
    ratio = (mu / hbar) * (nu / hbar)
    if not math.isfinite(ratio):
        raise NonFinite(
            f"mu*nu/hbar**2 overflows for mu={mu!r}, nu={nu!r}, hbar={hbar!r}"
        )
    return ratio


def _classify(ratio: float) -> ConstraintClass:
    if abs(ratio - 1.0) <= SATURATION_RTOL:
        return ConstraintClass.SATURATED
    if ratio < 1.0:
        return ConstraintClass.SUB_CRITICAL
    return ConstraintClass.SUPER_CRITICAL


def make_params(mu: float, nu: float, hbar: float = 1.0) -> NcParams:
    """Validate inputs and derive theta, kappa and lambda_denom.

    Raises
    ------
    NonFinite
        If any input is NaN or infinite, or mu*nu/hbar**2 overflows.
    NonPositiveParameter
        If any input is zero, negative or (with a finite ratio) subnormal.
    """
    _validate(mu, nu, hbar)
    mu = float(mu)
    nu = float(nu)
    hbar = float(hbar)

    ratio = _ratio(mu, nu, hbar)
    # a subnormal scale has lost digits, and so has every ratio built from it
    for name, value in (("mu", mu), ("nu", nu), ("hbar", hbar)):
        if value < sys.float_info.min:
            raise NonPositiveParameter(f"{name}={value!r} is below the smallest normal float")
    theta = math.sqrt(ratio)

    kappa: Optional[float]
    lambda_denom: Optional[float]
    if ratio <= 1.0:
        kappa = 0.5 * (1.0 + math.sqrt(1.0 - ratio))
        lambda_denom = math.sqrt(1.0 - ratio)
    else:
        kappa = None
        lambda_denom = None

    return NcParams(
        mu=mu,
        nu=nu,
        hbar=hbar,
        theta=theta,
        kappa=kappa,
        lambda_denom=lambda_denom,
        constraint_class=_classify(ratio),
    )


def _validate(mu: float, nu: float, hbar: float) -> None:
    for name, value in (("mu", mu), ("nu", nu), ("hbar", hbar)):
        try:
            value = float(value)
        except (TypeError, ValueError) as exc:
            raise NonFinite(f"{name} is not a real number: {value!r}") from exc
        if not math.isfinite(value):
            raise NonFinite(f"{name} must be finite, got {value!r}")
        if value <= 0.0:
            raise NonPositiveParameter(f"{name} must be strictly positive, got {value!r}")
