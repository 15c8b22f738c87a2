import json
import math

import mpmath
import numpy as np
import pytest

from opbellman import campaign, checks, cli, constants
from opbellman.constants import (
    beta,
    beta_log,
    complement_power_fn,
    delta_bellman,
    delta_affine_power,
    gamma,
    gamma_power,
    log_mean,
    t_star,
    zeta_aczel,
)
from opbellman.errors import (
    DegenerateIntervalError,
    DomainError,
    HypothesisError,
    ParameterError,
    UnboundedRatioError,
)
from opbellman.means import RepresentingFunction, arithmetic_w, geometric_w, log_fn, power_fn


def test_gamma_affine_is_one():
    for lam, m, M in [(0.2, 0.5, 2.0), (0.5, 0.1, 0.9), (0.8, 1.5, 3.0)]:
        g = gamma(arithmetic_w(lam), m, M)
        assert g.value == pytest.approx(1.0, abs=1e-12)


def test_gamma_identity_function_is_one():
    g = gamma(geometric_w(1.0), 0.5, 2.0)
    assert g.value == pytest.approx(1.0, abs=1e-12)


def test_gamma_sqrt_quarter_four():
    g = gamma(power_fn(0.5), 0.25, 4.0)
    assert g.value == pytest.approx(1.25, abs=1e-9)
    assert g.argmax == pytest.approx(1.0, abs=1e-6)
    assert g.method == "oracle"


def test_gamma_unbounded_ratio_error():
    shifted = RepresentingFunction(
        label="shifted", fn=lambda t: t - 2.0, normalized=False
    )
    with pytest.raises(UnboundedRatioError):
        gamma(shifted, 1.0, 3.0)


def test_beta_affine_is_zero():
    b = beta(arithmetic_w(0.4), 0.5, 2.0)
    assert b.value == pytest.approx(0.0, abs=1e-12)


def test_beta_log_unit_e():
    b = beta(log_fn, 1.0, math.e)
    expected = math.log(math.e - 1.0) - 1.0 + 1.0 / (math.e - 1.0)
    assert b.value == pytest.approx(expected, abs=1e-9)
    assert b.value == pytest.approx(0.12330, abs=1e-5)
    assert b.argmax == pytest.approx(math.e - 1.0, abs=1e-6)
    closed = beta_log(1.0, math.e)
    assert closed.value == pytest.approx(b.value, rel=1e-9)


def test_beta_complement_power_half():
    b = beta(complement_power_fn(0.5), 0.0, 1.0)
    assert b.value == pytest.approx(0.25, abs=1e-9)
    assert b.argmax == pytest.approx(0.75, abs=1e-6)
    assert b.value == pytest.approx(delta_bellman(0.0, 1.0, 0.5).value, rel=1e-9)


def test_beta_argmax_solves_stationarity():
    # for strictly concave differentiable f the maximizer satisfies f' = mu,
    # the slope of the chord; f' by central differences
    rng = np.random.default_rng(1)
    h = 1e-6
    for f in [geometric_w(0.3), log_fn, power_fn(0.6)]:
        m = rng.uniform(0.2, 0.8)
        M = m + rng.uniform(0.5, 2.0)
        b = beta(f, m, M)
        mu = (float(f(M)) - float(f(m))) / (M - m)
        slope = (float(f(b.argmax + h)) - float(f(b.argmax - h))) / (2 * h)
        assert slope == pytest.approx(mu, rel=1e-5)


def test_gamma_power_against_oracle():
    gh = gamma_power(1.0, 4.0, 0.5)
    oracle = gamma(power_fn(0.5), 1.0, 4.0)
    assert gh.value == pytest.approx(oracle.value, rel=1e-9)
    assert gh.value >= 1.0


def test_gamma_power_sweep_at_least_one():
    rng = np.random.default_rng(2)
    for _ in range(25):
        a = rng.uniform(0.05, 2.0)
        b = a + rng.uniform(0.1, 5.0)
        p = rng.uniform(0.05, 0.95)
        r = gamma_power(a, b, p)
        assert r.value >= 1.0 - 1e-12
        assert a <= r.argmax <= b


def test_gamma_power_parameter_errors():
    with pytest.raises(ParameterError):
        gamma_power(2.0, 1.0, 0.5)
    with pytest.raises(DegenerateIntervalError):
        gamma_power(1.0, 1.0 + 1e-13, 0.5)
    with pytest.raises(ParameterError):
        gamma_power(1.0, 2.0, 1e-6)  # exponent clamp


def test_delta_bellman_closed_form_limit():
    for p in np.arange(0.1, 0.95, 0.1):
        d = delta_bellman(0.0, 1.0, float(p))
        assert d.value == pytest.approx((1 - p) * p ** (p / (1 - p)), abs=1e-12)


def test_delta_bellman_oracle_agreement():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.uniform(0.0, 0.4)
        M = m + rng.uniform(0.1, 0.99 - m)
        p = rng.uniform(0.1, 0.9)
        closed = delta_bellman(m, M, p)
        oracle = beta(complement_power_fn(p), m, M)
        assert closed.value == pytest.approx(oracle.value, rel=1e-9)
        assert closed.value >= -1e-15


def test_delta_bellman_hypothesis_error():
    with pytest.raises(HypothesisError):
        delta_bellman(0.2, 1.5, 0.5)


def test_t_star_examples():
    assert t_star(0.0, 1.0, 0.5) == pytest.approx(0.75, abs=1e-12)
    rng = np.random.default_rng(4)
    for _ in range(8):
        m = rng.uniform(0.0, 0.3)
        M = m + rng.uniform(0.2, 0.6)
        p = rng.uniform(0.15, 0.85)
        oracle = beta(complement_power_fn(p), m, M)
        ts = t_star(m, M, p)
        assert ts == pytest.approx(oracle.argmax, abs=1e-6)
        assert m < ts < M


def test_zeta_aczel_frozen_value():
    z = zeta_aczel(1.0, 2.0, 0.5)
    expected = 0.25 / (math.sqrt(2.0) - 1.0) - (2.0 - math.sqrt(2.0))
    assert z.value == pytest.approx(expected, abs=1e-12)
    assert z.value == pytest.approx(0.017767, abs=1e-6)


def test_zeta_aczel_oracle_agreement_and_limits():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = rng.uniform(0.1, 1.5)
        M = m + rng.uniform(0.2, 3.0)
        p = rng.uniform(0.1, 0.9)
        z = zeta_aczel(m, M, p)
        oracle = beta(power_fn(p), m, M)
        assert z.value == pytest.approx(oracle.value, rel=1e-9, abs=1e-12)
        assert z.value >= -1e-15
    assert zeta_aczel(1.0, 1.0 + 1e-6, 0.5).value == pytest.approx(0.0, abs=1e-7)
    with pytest.raises(ParameterError):
        zeta_aczel(-0.1, 1.0, 0.5)


def test_log_mean():
    assert log_mean(1.3, 1.3) == pytest.approx(1.3)
    assert log_mean(1.0, math.e) == pytest.approx(math.e - 1.0, rel=1e-14)
    with pytest.raises(ParameterError):
        log_mean(-1.0, 2.0)


def test_beta_log_oracle_agreement():
    rng = np.random.default_rng(6)
    for _ in range(8):
        m = rng.uniform(0.1, 2.0)
        M = m + rng.uniform(0.2, 5.0)
        closed = beta_log(m, M)
        oracle = beta(log_fn, m, M)
        assert closed.value == pytest.approx(oracle.value, rel=1e-9, abs=1e-12)
        assert closed.argmax == pytest.approx(log_mean(m, M), rel=1e-12)


def test_delta_affine_power_reduces_to_gamma_power():
    r = delta_affine_power(1.0, 0.5, 2.0, 0.5)
    direct = gamma_power(0.5, 2.0, 0.5)
    assert r.value == pytest.approx(direct.value, rel=1e-14)


def test_delta_affine_power_oracle_agreement():
    lam, m, M, p = 0.5, 0.5, 2.0, 0.5
    r = delta_affine_power(lam, m, M, p)
    f = arithmetic_w(lam)
    oracle = gamma(power_fn(p), float(f(m)), float(f(M)))
    assert r.value == pytest.approx(oracle.value, rel=1e-9)
    assert r.value >= 1.0


def test_delta_affine_power_degenerate_weight():
    with pytest.raises(DegenerateIntervalError):
        delta_affine_power(0.0, 0.5, 2.0, 0.5)


def test_oracle_uses_high_precision():
    # the golden-section bracket is 1e-12 wide: argmax of a known stationary
    # point must come back at matching precision
    g = gamma(power_fn(0.5), 0.25, 4.0)
    assert abs(g.argmax - 1.0) < 1e-6
    with mpmath.workdps(30):
        ratio = mpmath.mpf(g.argmax) ** mpmath.mpf(0.5) / (
            mpmath.mpf(0.4) * g.argmax + mpmath.mpf(0.4)
        )
        assert abs(float(ratio) - g.value) < 1e-9


def test_registered_concave_functions_have_gamma_at_least_one_and_beta_nonneg():
    rng = np.random.default_rng(7)
    fns = [arithmetic_w(0.3), geometric_w(0.5), power_fn(0.7), log_fn]
    for f in fns:
        for _ in range(5):
            m = rng.uniform(1.1, 1.5) if f.label == "log" else rng.uniform(0.2, 0.9)
            M = m + rng.uniform(0.3, 2.0)
            assert gamma(f, m, M).value >= 1.0 - 1e-12
            assert beta(f, m, M).value >= -1e-12


def test_beta_returns_for_a_maximizer_near_1e19():
    # 30 digits cannot shrink a bracket around 2.5e19 to GOLDEN_WIDTH; the
    # golden-section loop used to run forever here
    b = beta(geometric_w(0.5), 0.5, 1e20)
    closed = zeta_aczel(0.5, 1e20, 0.5)
    assert b.value == pytest.approx(closed.value, rel=1e-9)
    assert b.argmax == pytest.approx(closed.argmax, rel=1e-6)


def test_oracle_refuses_an_f_infinite_at_an_end():
    # log(0) = -inf leaves the chord undefined; beta used to return NaN
    with pytest.raises(DomainError, match="f finite at m and M"):
        beta(log_fn, 0.0, 1.0)
    with pytest.raises(UnboundedRatioError, match="needs f > 0"):
        gamma(log_fn, 0.0, 1.0)


def test_cli_constants_log_from_zero_notes_both_oracles(capsys):
    # run under the suite's error::RuntimeWarning filter: no warning is raised
    assert cli.main(["constants", "--f", "log", "--m", "0", "--M", "1", "--format", "json"]) == 0
    rows = {r["constant"]: r for r in json.loads(capsys.readouterr().out)}
    assert rows["beta_f"]["oracle"] is None and rows["beta_f"]["note"].startswith("chord needs f finite")
    assert rows["gamma_f"]["oracle"] is None and rows["gamma_f"]["note"].startswith("ratio objective needs f > 0")
    assert rows["gamma_h"]["closed_form"] is None and rows["gamma_h"]["note"].startswith("need 0 < a < b")


def test_golden_step_cap_never_binds_on_the_sweep_or_acceptance_grid(monkeypatch):
    """Every oracle call of the constants sweep, of the narrow cell [1e-5,
    2e-5] and of a campaign over the acceptance grid's intervals, exponents
    and means ends on the bracket width, before the step cap."""
    real = constants._golden_max
    steps_left = []

    def recording(g, lo, hi, width):
        calls = []

        def counted(t):
            calls.append(t)
            return g(t)

        out = real(counted, lo, hi, width)
        steps_left.append(constants._golden_steps(lo, hi, width) - (len(calls) - 3))
        return out

    monkeypatch.setattr(constants, "_golden_max", recording)
    checks._gamma_cached.cache_clear()
    checks._beta_cached.cache_clear()
    cli.constants_sweep()
    cli.constant_rows("geom:0.5", 1e-5, 2e-5, 0.5, 0.5)
    cfg = campaign.CampaignConfig(
        trials=1,
        dims=(1,),
        n_values=(1,),
        intervals=((0.5, 2.0), (0.8, 1.25), (0.2, 0.8), (0.1, 0.7)),
        p_grid=(0.25, 0.5, 0.75),
        lambda_grid=(0.3, 0.7),
        means=("arith:0.5", "geom:0.5", "power:0.3"),
        maps=("id",),
    )
    campaign.run_campaign(cfg)
    checks._gamma_cached.cache_clear()
    checks._beta_cached.cache_clear()
    assert len(steps_left) > 100
    assert min(steps_left) > 0, sorted(set(steps_left))


#: The closed forms on [m, M] = [anchor, anchor + width]: anchors near 0,
#: near 1 and above 1 (the Bellman constant needs M <= 1), widths 1e-1 to 1e-11.
_ANCHORS = (0.01, 0.875, 2.5)
_WIDTHS = tuple(10.0**-k for k in range(1, 12))


def _reference(name, m, M, p, lam):
    """(value, maximizer, scale) of constant ``name`` on [m, M] at 60
    digits, from its definition: f over its chord (gamma, scale 1) or f
    minus its chord (beta, scale max |f| at the ends) at the stationary
    point of that objective."""
    with mpmath.workdps(60):
        m, M, p, lam = (mpmath.mpf(x) for x in (m, M, p, lam))
        if name in ("gamma_power", "delta_affine_power"):
            if name == "delta_affine_power":
                m, M = (1 - lam) + lam * m, (1 - lam) + lam * M
            mu = (M**p - m**p) / (M - m)
            nu = m**p - mu * m
            t = p * nu / ((1 - p) * mu)
            return float(t**p / (mu * t + nu)), float(t), 1.0
        f, t_of_slope = {
            "zeta_aczel": (lambda t: t**p, lambda s: (s / p) ** (1 / (p - 1))),
            "delta_bellman": (lambda t: (1 - t) ** p, lambda s: 1 - (-s / p) ** (1 / (p - 1))),
            "beta_log": (mpmath.log, lambda s: 1 / s),
        }[name]
        mu = (f(M) - f(m)) / (M - m)
        t = t_of_slope(mu)
        return float(f(t) - f(m) - mu * (t - m)), float(t), float(max(abs(f(m)), abs(f(M))))


@pytest.mark.parametrize("name", ["gamma_power", "delta_affine_power", "zeta_aczel", "delta_bellman", "beta_log"])
def test_closed_forms_keep_their_digits_on_narrow_intervals(name):
    # each closed form subtracts nearly equal quantities on a narrow
    # interval; evaluated at 30 digits and rounded once, its value agrees
    # with a 60-digit evaluation of the definition to 1e-9 relative plus a
    # few ulps of the objective's scale, and its maximizer to 1e-12 relative
    lam = 0.3
    compared = 0
    for anchor in _ANCHORS:
        if name == "delta_bellman" and anchor > 1.0:
            continue
        for width in _WIDTHS:
            m, M = anchor, anchor + width
            for p in (0.25, 0.5, 0.75) if name != "beta_log" else (0.5,):
                args = {"delta_affine_power": (lam, m, M, p), "beta_log": (m, M)}.get(name, (m, M, p))
                got = getattr(constants, name)(*args)
                value, argmax, scale = _reference(name, m, M, p, lam)
                where = (name, m, M, p)
                assert abs(got.value - value) <= 1e-9 * abs(value) + 4 * 2.0**-52 * scale, (where, got.value, value)
                assert abs(got.argmax - argmax) <= 1e-12 * abs(argmax), where
                compared += 1
    assert compared == {"beta_log": 33, "delta_bellman": 66}.get(name, 99)
