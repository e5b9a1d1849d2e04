import math

import numpy as np
import pytest

from bb84_mismatch import (
    ConfigError,
    NoKeyError,
    binary_entropy,
    detection_imbalance,
    effective_phase_error,
    feasible,
    keyrate_balanced,
    keyrate_discard_optimized,
    keyrate_fung1,
    keyrate_fung2,
    keyrate_general,
    keyrate_two_detectors,
    mismatch_penalty_ratio,
)
from bb84_mismatch.keyrates import _GOLDEN, _golden_min

h = binary_entropy


def test_imbalance_zero_at_balanced_point():
    for eta in (0.3, 0.6, 0.9):
        for t in (0.2, 1.0):
            assert detection_imbalance(t * (1 + eta) / 2, t, eta) == 0.0


def test_imbalance_extremes_and_arithmetic():
    assert math.isclose(detection_imbalance(1.0, 1.0, 0.5), 1.0)
    assert math.isclose(detection_imbalance(0.8, 1.0, 0.5), 0.2, abs_tol=1e-15)


def test_imbalance_eta_one_guard():
    assert detection_imbalance(0.7, 0.7, 1.0) == 0.0
    with pytest.raises(ValueError):
        detection_imbalance(0.8, 0.7, 1.0)


def test_feasible_conditions():
    assert feasible(0.0, 0.0)
    assert feasible(0.3, 0.0)
    assert not feasible(0.49, 1.0)
    assert feasible(0.5, 1.0)
    # Boundary case: 2*0.1 = 1 - sqrt(1 - 0.36) = 0.2.
    assert feasible(0.1, 0.6)
    assert not feasible(0.0999999, 0.6)
    assert not feasible(0.3, 1.5)
    # The q_x > 1/2 side: 2*q_x <= 1 + sqrt(1 - delta^2).
    assert feasible(0.9, 0.6)
    assert not feasible(0.9000001, 0.6)
    assert not feasible(0.9, 0.8)
    assert feasible(1.0, 0.0)


def test_phase_error_reduces_to_qber_without_mismatch():
    for q in (0.0, 0.05, 0.25):
        for t in (0.3, 1.0):
            assert math.isclose(effective_phase_error(q, 1.0, t, t), q, abs_tol=1e-14)


def test_phase_error_noiseless_is_zero():
    for eta in (0.2, 0.7):
        p_pass = (1 + eta) / 2
        assert abs(effective_phase_error(0.0, eta, 1.0, p_pass)) <= 1e-14


def test_phase_error_matches_balanced_closed_form():
    # Independent closed form for the balanced case:
    # 1/2 - 1/2*sqrt(1 - 16*eta*q*(1-q)/(1+eta)^2).
    q, eta = 0.05, 0.5
    expected = 0.5 - 0.5 * math.sqrt(1 - 16 * eta * q * (1 - q) / (1 + eta) ** 2)
    got = effective_phase_error(q, eta, 1.0, (1 + eta) / 2)
    assert math.isclose(got, expected, abs_tol=1e-14)
    assert math.isclose(got, 0.04417352229408855, abs_tol=1e-14)


def test_general_rate_ideal_detection():
    for qz in (0.0, 0.03, 0.1):
        for qx in (0.0, 0.05, 0.11):
            for t in (0.2, 0.7, 1.0):
                res = keyrate_general(qz, qx, 1.0, t, t)
                expected = t * (1 - h(qx) - h(qz))
                assert math.isclose(res.rate, expected, abs_tol=1e-12)


def test_general_rate_noiseless():
    for eta in (0.25, 0.5, 0.8):
        for t in (0.5, 1.0):
            p_pass = t * (1 + eta) / 2
            res = keyrate_general(0.0, 0.0, eta, t, p_pass)
            assert math.isclose(res.rate, p_pass * h(1 / (1 + eta)), abs_tol=1e-12)


def test_general_rate_infeasible_inputs():
    # q_x = 0 with an unbalanced pass rate admits no PSD state.
    res = keyrate_general(0.05, 0.0, 0.5, 1.0, 0.8)
    assert not res.feasible
    assert res.rate is None


def test_general_rate_infeasible_above_half_x_error():
    # delta = 0.8 and 2*q_x = 1.8 > 1 + sqrt(1 - delta^2) = 1.6: no PSD state,
    # so an infeasible result, not a negative phase-error argument's ValueError.
    res = keyrate_general(0.02, 0.9, 0.6, 0.75, 0.72)
    assert not res.feasible
    assert res.rate is None and res.lam is None
    assert math.isclose(res.delta, 0.8, rel_tol=1e-12)


def test_balanced_rate_perfect():
    assert math.isclose(keyrate_balanced(0.0, 0.0, 1.0, 1.0).rate, 1.0, abs_tol=1e-14)


def test_balanced_rate_noiseless_mismatch():
    res = keyrate_balanced(0.0, 0.0, 0.5, 1.0)
    assert math.isclose(res.rate, 0.6887218755408672, abs_tol=1e-12)


def test_balanced_matches_general_at_balanced_point():
    for eta in (0.3, 0.7):
        for t in (0.4, 1.0):
            res_b = keyrate_balanced(0.04, 0.06, eta, t)
            res_g = keyrate_general(0.04, 0.06, eta, t, t * (1 + eta) / 2)
            assert math.isclose(res_b.rate, res_g.rate, abs_tol=1e-14)


def test_discard_optimized_is_never_below_balanced():
    # eta1 = 1 is one of the discard search's candidates and is the balanced
    # rate's kernel, so the order holds exactly, with no slack. The first
    # point printed as 0.476944781901 against 0.476944781902 in an eta sweep.
    points = [(0.026977300935659195, 0.03011598942990113, 0.61, 1.0)]
    rng = np.random.default_rng(14)
    points += [tuple(rng.uniform((0, 0, 0.01, 0.01), (0.11, 0.11, 1, 1))) for _ in range(300)]
    for q_z, q_x, eta, t in points:
        assert keyrate_discard_optimized(q_z, q_x, eta, t).rate >= keyrate_balanced(q_z, q_x, eta, t).rate


def test_balanced_dominates_fung1_across_mismatch_range():
    for q in (0.0, 0.05):
        for eta in np.linspace(0.05, 1.0, 40):
            balanced = keyrate_balanced(q, q, float(eta), 1.0)
            fung = keyrate_fung1(q, q, float(eta), (1 + float(eta)) / 2)
            assert balanced.rate >= fung.rate - 1e-12


def test_fung_rates_noiseless_coincide():
    for eta in (0.2, 0.6, 1.0):
        p_pass = (1 + eta) / 2
        k1 = keyrate_fung1(0.0, 0.0, eta, p_pass).rate
        k2 = keyrate_fung2(0.0, 0.0, eta, p_pass).rate
        assert math.isclose(k1, k2, abs_tol=1e-14)
        assert math.isclose(k1, p_pass * 2 * eta / (1 + eta), abs_tol=1e-14)


def test_fung_rates_ideal_detection():
    for qz, qx in [(0.0, 0.0), (0.05, 0.03)]:
        k1 = keyrate_fung1(qz, qx, 1.0, 1.0).rate
        k2 = keyrate_fung2(qz, qx, 1.0, 1.0).rate
        ideal = 1 - h(qx) - h(qz)
        assert math.isclose(k1, ideal, abs_tol=1e-14)
        assert math.isclose(k2, ideal, abs_tol=1e-14)


def test_balanced_beats_fung1_at_moderate_noise():
    eta, q = 0.5, 0.05
    assert (
        keyrate_balanced(q, q, eta, 1.0).rate
        > keyrate_fung1(q, q, eta, (1 + eta) / 2).rate
    )


def test_discard_collapses_without_mismatch():
    res = keyrate_discard_optimized(0.05, 0.05, 1.0)
    assert math.isclose(res.rate, keyrate_balanced(0.05, 0.05, 1.0).rate, abs_tol=1e-14)
    assert res.optimizer_args == (1.0, 1.0)


def test_discard_noiseless_optimum_keeps_everything():
    # Discarding only loses rate in the noiseless case.
    for eta in (0.1, 0.4, 0.8):
        res = keyrate_discard_optimized(0.0, 0.0, eta)
        balanced = keyrate_balanced(0.0, 0.0, eta)
        assert math.isclose(res.rate, balanced.rate, rel_tol=1e-9)
        assert res.optimizer_args[0] >= 1.0 - 1e-6


def test_discard_beats_balanced_for_noisy_small_eta():
    res = keyrate_discard_optimized(0.10, 0.10, 0.15)
    balanced = keyrate_balanced(0.10, 0.10, 0.15)
    assert res.rate > balanced.rate + 1e-6


def test_discard_dominates_both_endpoints():
    # Endpoints eta1 = 1 (balanced) and eta1 = eta (pure discarding) are in
    # the search domain, so the maximum dominates them.
    for q in (0.0, 0.05, 0.10):
        for eta in (0.1, 0.3, 0.6, 0.9):
            res = keyrate_discard_optimized(q, q, eta)
            balanced = keyrate_balanced(q, q, eta).rate
            discard_all = keyrate_fung2(q, q, eta, (1 + eta) / 2).rate
            assert res.rate >= balanced - 1e-10
            assert res.rate >= discard_all - 1e-10


def test_two_detectors_scaling():
    res = keyrate_two_detectors(0.02, 0.02, 0.1, 0.1)
    base = keyrate_balanced(0.02, 0.02, 1.0)
    assert math.isclose(res.rate, 0.1 * base.rate, abs_tol=1e-14)

    res = keyrate_two_detectors(0.02, 0.02, 0.1, 0.07)
    base = keyrate_balanced(0.02, 0.02, 0.7)
    assert math.isclose(res.rate, 0.1 * base.rate, abs_tol=1e-14)

    res = keyrate_two_detectors(0.02, 0.02, 1.0, 0.5)
    assert math.isclose(res.rate, keyrate_balanced(0.02, 0.02, 0.5).rate, abs_tol=1e-14)


def test_penalty_ratio_no_mismatch_is_one():
    assert math.isclose(mismatch_penalty_ratio(0.05, 1.0), 1.0, abs_tol=1e-12)


def test_penalty_ratio_above_ninety_percent():
    assert mismatch_penalty_ratio(0.09, 0.7) > 0.9


def test_penalty_ratio_noiseless_closed_form():
    # Numerator is (1+eta)/2*h(1/(1+eta)), denominator (1+eta)/2.
    for eta in (0.3, 0.6, 0.9):
        assert math.isclose(mismatch_penalty_ratio(0.0, eta), h(1 / (1 + eta)), abs_tol=1e-12)


def test_penalty_ratio_no_key_error():
    with pytest.raises(NoKeyError):
        mismatch_penalty_ratio(0.3, 0.7)


def test_reduction_identity_random():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        qz = rng.uniform(0.0, 0.3)
        qx = rng.uniform(0.0, 0.3)
        t = rng.uniform(0.1, 1.0)
        res = keyrate_general(qz, qx, 1.0, t, t)
        assert abs(res.rate - t * (1 - h(qx) - h(qz))) <= 1e-12


def test_noiseless_identity_grid():
    for eta in np.linspace(0.05, 1.0, 50):
        for t in (0.5, 1.0):
            res = keyrate_balanced(0.0, 0.0, float(eta), t)
            expected = t * (1 + eta) / 2 * h(1 / (1 + float(eta)))
            assert abs(res.rate - expected) <= 1e-12


def test_balanced_monotone_in_errors():
    qs = np.linspace(0.0, 0.11, 23)
    for eta in (0.3, 0.5, 0.7, 1.0):
        for fixed in (0.0, 0.05):
            rates_z = [keyrate_balanced(float(q), fixed, eta).rate for q in qs]
            rates_x = [keyrate_balanced(fixed, float(q), eta).rate for q in qs]
            assert all(a >= b - 1e-12 for a, b in zip(rates_z, rates_z[1:]))
            assert all(a >= b - 1e-12 for a, b in zip(rates_x, rates_x[1:]))


def test_phase_error_range_on_feasible_grid():
    for eta in np.linspace(0.1, 1.0, 10):
        for q in np.linspace(0.0, 0.5, 11):
            lam = effective_phase_error(float(q), float(eta), 1.0, (1 + float(eta)) / 2)
            assert -1e-15 <= lam <= 0.5 + 1e-15


def test_negative_rates_returned_unclamped():
    res = keyrate_balanced(0.3, 0.3, 0.5)
    assert res.rate < 0.0
    assert res.operational_rate == 0.0


@pytest.mark.parametrize("f_ec", [math.nan, math.inf, -1.0, -1e-300])
def test_general_rate_rejects_bad_f_ec(f_ec):
    with pytest.raises(ConfigError):
        keyrate_general(0.05, 0.05, 0.7, 1.0, 0.85, f_ec=f_ec)
    with pytest.raises(ConfigError):
        keyrate_balanced(0.05, 0.05, 0.7, f_ec=f_ec)


def test_general_rate_accepts_zero_f_ec():
    res = keyrate_general(0.05, 0.05, 0.7, 1.0, 0.85, f_ec=0.0)
    assert res.feasible and res.rate > keyrate_general(0.05, 0.05, 0.7, 1.0, 0.85).rate


@pytest.mark.parametrize("q_z,eta,t", [(0.05, 0.5, 1.0), (0.05, 0.3, 0.7)])
def test_discard_optimized_at_full_x_error(q_z, eta, t):
    # At q_x = 1 the x-error gain equals the discarded transparency, so lambda
    # is 0 up to rounding for every eta1. A remapped x-error rate used to round
    # just above 1 here and raise.
    res = keyrate_discard_optimized(q_z, 1.0, eta, t)
    assert res.rate >= keyrate_balanced(q_z, 1.0, eta, t).rate - 1e-12


def _pinned_discard_points():
    # The point where remapping the inputs overstated the pure-discarding rate
    # by 7.2e-12, then seeded points whose optimum sits at eta1 = eta.
    points = [(0.14271318066333735, 0.08378534408647496, 0.8701133810445539, 0.7397536541964851)]
    rng = np.random.default_rng(2018)
    for _ in range(300):
        q_z, q_x = rng.uniform(0.0, 0.2, 2)
        eta, t = rng.uniform(0.01, 1.0, 2)
        res = keyrate_discard_optimized(q_z, q_x, eta, t)
        if abs(res.optimizer_args[0] - eta) <= 1e-8:
            points.append((q_z, q_x, eta, t))
    return points


def test_discard_optimized_at_pure_discarding_is_a_lower_bound():
    # At eta1 = eta the discard-optimized rate is the pure-discarding rate,
    # which fung2 gives exactly; a reported rate must not exceed it.
    points = _pinned_discard_points()
    assert len(points) > 50
    for q_z, q_x, eta, t in points:
        res = keyrate_discard_optimized(q_z, q_x, eta, t)
        assert res.rate <= keyrate_fung2(q_z, q_x, eta, t * (1 + eta) / 2).rate + 1e-14
        assert res.delta == 0


@pytest.mark.parametrize("t", [1e-200, 1e-300])
def test_rates_scale_with_transparency_down_to_tiny_t(t):
    # Each rate is t times a function of (q_z, q_x, eta, p_pass/t). The gains
    # scale with t, and squaring gains below about 1e-154 underflows.
    rates = (
        lambda s: keyrate_balanced(0.05, 0.05, 0.5, s),
        lambda s: keyrate_general(0.05, 0.05, 0.5, s, 0.8 * s),
        lambda s: keyrate_discard_optimized(0.05, 0.05, 0.5, s),
    )
    for rate in rates:
        assert math.isclose(rate(t).rate / t, rate(1.0).rate, rel_tol=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: detection_imbalance(2.5e-324, 5e-324, 0.5),
        lambda: detection_imbalance(np.float64(0.0), np.float64(0.0), 0.5),
        lambda: detection_imbalance(np.float64(0.3), np.float64(5e-324), 0.5),
        lambda: keyrate_general(0.05, 0.05, 0.5, 5e-324, 0.5),
        lambda: keyrate_balanced(0.05, 0.05, 0.25, 5e-324),
        lambda: keyrate_balanced(0.05, 0.05, math.nan),
        lambda: keyrate_discard_optimized(0.0, 0.0, 5.8e-274, 5.8e-274),
    ],
    ids=[
        "imbalance",
        "imbalance_numpy_zero",
        "imbalance_numpy_underflow",
        "general",
        "balanced_tiny_t",
        "balanced_nan_eta",
        "discard_optimized",
    ],
)
@pytest.mark.filterwarnings("error")
def test_underflow_and_nan_raise_value_error(call):
    # Underflowing products and nan raise ValueError, not ZeroDivisionError
    # or AssertionError, and warn nothing on the way; numpy scalars divide
    # by zero without raising, so they are covered apart from Python floats.
    with pytest.raises(ValueError):
        call()


@pytest.mark.filterwarnings("error")
def test_general_rejects_gains_that_cancel_without_warning():
    # At eta = 1, p_pass = 1.2e-307 passes the 1e-12 test against t = 1.2e-38,
    # and the outcome gains t/2 and p_pass - t/2 sum to 0.
    with pytest.raises(ValueError, match="inconsistent"):
        keyrate_general(0.0, 0.0, 1.0, 1.1754943508222875e-38, 1.1550564397656548e-307)


def _golden_min_loop(fn, a, b):
    """The golden-section loop as it was before it became a generator, kept
    verbatim as the reference for ``_golden_min``."""
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > 1e-10:
        if f1 > f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fn(x1)
    return (a + b) / 2.0


def test_golden_min_matches_the_plain_loop():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = float(rng.uniform(-2.0, 1.0))
        b = a + float(rng.uniform(1e-9, 3.0))
        c, w = float(rng.uniform(a - 0.5, b + 0.5)), float(rng.uniform(1.0, 40.0))
        fns = [
            lambda x: (x - c) ** 2,  # unimodal
            lambda x: math.sin(w * x) + 0.1 * x,  # many local minima
            lambda x: math.floor(4.0 * (x - c) ** 2),  # plateaus: ties
            lambda x: 0.0,  # all ties
            lambda x: math.inf if x > c else -x,  # inf beyond c
        ]
        for fn in fns:
            calls, loop_calls = [], []
            got = _golden_min(lambda x: calls.append(x) or fn(x), a, b)
            want = _golden_min_loop(lambda x: loop_calls.append(x) or fn(x), a, b)
            assert got == want
            assert calls == loop_calls
