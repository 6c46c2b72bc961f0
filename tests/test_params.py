"""Parameter derivation, constraint classification and input validation."""

import decimal
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ulp_between
from ncsq import (
    ConstraintClass,
    NonFinite,
    NonPositiveParameter,
    classify_constraint,
    make_params,
)


def test_subcritical_example():
    p = make_params(0.5, 0.5, 1.0)
    assert p.theta == 0.5
    assert p.kappa == 0.9330127018922193
    assert p.constraint_class is ConstraintClass.SUB_CRITICAL
    # kappa - mu*nu/(4*kappa*hbar^2) collapses to sqrt(1 - theta^2)
    assert p.lambda_denom == pytest.approx(0.8660254037844386, rel=1e-15)


def test_saturated_boundary():
    p = make_params(1.0, 1.0, 1.0)
    assert p.theta == 1.0
    assert p.kappa == 0.5
    assert p.lambda_denom == 0.0
    assert p.constraint_class is ConstraintClass.SATURATED


def test_supercritical_has_no_kappa():
    p = make_params(2.0, 2.0, 1.0)
    assert p.theta == 2.0
    assert p.kappa is None
    assert p.lambda_denom is None
    assert p.constraint_class is ConstraintClass.SUPER_CRITICAL


def test_classify_matches_stored_class():
    for mu, nu, hbar in [(0.5, 0.5, 1.0), (1.0, 1.0, 1.0), (3.0, 1.0, 1.0),
                         (0.09, 1.0, 0.3), (4.0, 1.0, 2.0)]:
        p = make_params(mu, nu, hbar)
        assert classify_constraint(p) is p.constraint_class


def test_saturation_band_is_relative():
    # within 1e-12 of mu*nu = hbar^2 counts as saturated
    p = make_params(1.0 + 1e-13, 1.0, 1.0)
    assert p.constraint_class is ConstraintClass.SATURATED


def test_lambda_denom_equals_sqrt_one_minus_theta_sq():
    """The two closed forms agree to a few ulp across the open interval."""
    worst = 0.0
    for k in range(1, 95):
        theta = k / 100.0
        p = make_params(theta, theta, 1.0)  # mu = nu = theta gives this theta
        worst = max(worst, ulp_between(p.lambda_denom,
                                       math.sqrt(1.0 - theta * theta)))
    assert worst <= 8.0


def test_lambda_denom_near_saturation_against_decimal_reference():
    """sqrt(1 - mu*nu/hbar**2) within 2 ulp of a 50-digit reference where
    1 - theta**2 is 1e-8 .. 1e-14.  With nu = hbar = 1, mu*nu/hbar**2 is
    mu exactly, so the reference measures the formula alone."""
    decimal.getcontext().prec = 50
    for gap in (1e-8, 1e-10, 1e-12, 1e-14):
        mu = 1.0 - gap
        p = make_params(mu, 1.0, 1.0)
        want = float((1 - decimal.Decimal(mu)).sqrt())
        assert ulp_between(p.lambda_denom, want) <= 2.0, gap


def test_theta_is_scale_invariant():
    # theta depends on mu*nu/hbar^2 only; c=2 rescaling is exact in floats
    base = make_params(0.5, 0.5, 1.0)
    doubled = make_params(1.0, 1.0, 2.0)
    assert doubled.theta == base.theta
    for c in (10.0, 1.0 / 3.0):
        scaled = make_params(0.5 * c, 0.5 * c, c)
        assert ulp_between(scaled.theta, base.theta) <= 4.0


def test_commutative_limit_by_underflow():
    # mu*nu underflows to zero, giving an exact theta = 0 parameter point
    p = make_params(1e-200, 1e-200, 1.0)
    assert p.theta == 0.0
    assert p.kappa == 1.0
    assert p.lambda_denom == 1.0
    assert p.constraint_class is ConstraintClass.SUB_CRITICAL


def test_scaled_inputs_neither_overflow_nor_underflow():
    # mu*nu and hbar*hbar each overflow here, to theta inf before the ratio
    # was formed as (mu/hbar)*(nu/hbar)
    p = make_params(1e200, 1e200, 1e200)
    assert p.theta == 1.0
    assert p.constraint_class is ConstraintClass.SATURATED
    # and each underflows here, to a ZeroDivisionError
    p = make_params(1e-200, 5e-201, 1e-200)
    assert ulp_between(p.theta, math.sqrt(0.5)) <= 2.0
    assert p.constraint_class is ConstraintClass.SUB_CRITICAL


def test_overflowing_ratio_is_refused():
    with pytest.raises(NonFinite, match="overflows"):
        make_params(1e308, 1e308, 1e-308)


_SCALE = st.floats(1e-100, 1e100)


@settings(max_examples=200, deadline=None)
@given(mu=_SCALE, nu=_SCALE, hbar=_SCALE, k=st.integers(-600, 600))
def test_theta_and_class_invariant_under_power_of_two_scaling(mu, nu, hbar, k):
    """Scaling all three by 2**k is exact in floats, so theta and the
    class must not move; a point whose ratio overflows is refused at
    every scale."""
    def derive(*args):
        try:
            p = make_params(*args)
        except NonFinite:
            return None
        return p.theta, p.constraint_class

    scaled = [math.ldexp(v, k) for v in (mu, nu, hbar)]
    assert derive(*scaled) == derive(mu, nu, hbar)


def test_hbar_defaults_to_one():
    assert make_params(0.5, 0.5).hbar == 1.0


@pytest.mark.parametrize("bad", [0.0, -1.0, -1e-300])
def test_nonpositive_rejected(bad):
    with pytest.raises(NonPositiveParameter):
        make_params(bad, 1.0, 1.0)
    with pytest.raises(NonPositiveParameter):
        make_params(1.0, bad, 1.0)
    with pytest.raises(NonPositiveParameter):
        make_params(1.0, 1.0, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_rejected(bad):
    with pytest.raises(NonFinite):
        make_params(bad, 1.0, 1.0)
    with pytest.raises(NonFinite):
        make_params(1.0, 1.0, bad)


def test_nonfinite_wins_over_sign_check():
    # -inf is both nonpositive and nonfinite; finiteness is checked first
    with pytest.raises(NonFinite):
        make_params(-math.inf, 1.0, 1.0)


def test_params_frozen():
    p = make_params(0.5, 0.5, 1.0)
    with pytest.raises(AttributeError):
        p.mu = 2.0
