import math
import re

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
    mismatch_penalty_ratio,
)
from bb84_mismatch.cli import main

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


def test_imbalance_of_arrays_is_the_scalar_call_entry_by_entry():
    rng = np.random.default_rng(5)
    eta = np.append(rng.uniform(0.01, 1.0, 300), 1.0)
    t = rng.uniform(1e-6, 1.0, eta.size)
    p = t * ((1.0 + eta) / 2.0 + rng.uniform(-1.0, 1.0, eta.size) * (1.0 - eta) / 2.0)
    p[-1] = t[-1]
    scalar = [detection_imbalance(*point) for point in zip(p.tolist(), t.tolist(), eta.tolist())]
    assert detection_imbalance(p, t, eta).tolist() == scalar
    # A float broadcasts against the arrays.
    assert detection_imbalance(p[:3], 1.0, eta[:3]).tolist() == [
        detection_imbalance(x, 1.0, e) for x, e in zip(p.tolist(), eta[:3].tolist())
    ]
    # The first failing entry, in row-major order, raises the scalar call's error.
    bad = tuple(map(np.array, ([[0.8, 0.9], [2.5e-324, 0.8]], [[1.0, 0.7], [5e-324, 0.7]], [[0.5, 1.0], [0.5, 1.0]])))
    for got, first in ((bad, (0.9, 0.7, 1.0)), ((bad[0][1:], bad[1][1:], bad[2][1:]), (2.5e-324, 5e-324, 0.5))):
        with pytest.raises(ValueError) as scalar_error:
            detection_imbalance(*first)
        with pytest.raises(ValueError, match=re.escape(str(scalar_error.value))):
            detection_imbalance(*got)


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


def _discard_draws(seed, count):
    """Seeded (q_z, q_x, eta, t, f_ec): q_z in [0, 1/2], q_x in [0, 1], eta
    and t log-uniform down to 1e-3 and 1e-6, f_ec in [0, 2]."""
    rng = np.random.default_rng(seed)
    return zip(
        rng.uniform(0.0, 0.5, count).tolist(), rng.uniform(0.0, 1.0, count).tolist(),
        (10.0 ** rng.uniform(-3.0, 0.0, count)).tolist(), (10.0 ** rng.uniform(-6.0, 0.0, count)).tolist(),
        rng.uniform(0.0, 2.0, count).tolist(),
    )


def _near_flat_draws(seed, count):
    """Seeded (q_z, q_x, eta, t, f_ec) as ``_discard_draws``', q_z from 0.01,
    with f_ec set so that the slope at eta1 = 1 is within 1e-6 relative of 0:
    f_ec*h(q_z) is the slope at f_ec = 0 times 1 +- 1e-6."""
    from bb84_mismatch.keyrates import _discard_slope

    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        q_z, q_x = rng.uniform(0.01, 0.5), rng.uniform(0.0, 1.0)
        eta, t = 10.0 ** rng.uniform(-3.0, 0.0), 10.0 ** rng.uniform(-6.0, 0.0)
        rise = float(_discard_slope(q_x, eta, 0.0)[0])
        if rise > 0.0:
            draws.append((q_z, q_x, eta, t, rise * (1.0 + rng.uniform(-1e-6, 1e-6)) / h(q_z)))
    return draws


def _searched_discard(q_z, q_x, eta, t, f_ec):
    """``keyrate_discard_optimized`` without its certificate: the grid zoom and
    the first best of (1, zoom point, eta), as (rate, lambda, eta1*)."""
    from bb84_mismatch.keyrates import _check_balanced, _discarded_rate

    _check_balanced(q_z, q_x, eta, t, f_ec)
    ec = f_ec * h(q_z)
    lo, hi, x = eta, 1.0, eta
    while hi - lo > 1e-10:
        grid = np.linspace(lo, hi, 256)
        k = int(np.argmax(_discarded_rate(q_x, eta, t, grid, ec)[0]))
        lo, hi, x = grid[[max(k - 1, 0), min(k + 1, 255), k]].tolist()
    candidates = [(*_discarded_rate(q_x, eta, t, eta1, ec), eta1) for eta1 in (1.0, x, eta)]
    rate, lam, eta1 = max(candidates, key=lambda c: c[0])
    return float(rate), float(lam), eta1


@pytest.mark.parametrize(
    "draws, counts",
    [(lambda: _discard_draws(191, 1000), (51, 949, 0)), (lambda: _near_flat_draws(192, 200), (114, 86, 112))],
    ids=["seeded", "near_flat"],
)
def test_certificate_fires_only_where_the_maximum_is_at_eta1_one(draws, counts):
    # Where the slope at eta1 = 1 beats its allowance, the result is the
    # eta1 = 1 candidate, and the search, which has that candidate, ends
    # there or at a rate above it by no more than rounding (its last level
    # spans 1e-10, where the rate is flat to rounding); elsewhere the search
    # runs as before, bit for bit. counts: (certified, searched, certified
    # points where the search picks eta1 < 1).
    from bb84_mismatch.keyrates import _discard_slope

    certified = searched = rounded_up = 0
    for q_z, q_x, eta, t, f_ec in draws():
        ec = f_ec * h(q_z)
        res = keyrate_discard_optimized(q_z, q_x, eta, t, f_ec)
        rate, lam, eta1 = _searched_discard(q_z, q_x, eta, t, f_ec)
        slope, allowance = _discard_slope(q_x, eta, ec)
        if slope > allowance:
            certified += 1
            assert res.optimizer_args == (1.0, eta)
            assert res.rate == keyrate_balanced(q_z, q_x, eta, t, f_ec).rate
            if eta1 != 1.0:
                rounded_up += 1
                assert res.rate < rate <= res.rate + 1e-14 * t * (2.0 + ec)
            else:
                assert (res.rate, res.lam) == (rate, lam)
        else:
            searched += 1
            assert (res.rate, res.lam, res.optimizer_args) == (rate, lam, (eta1, eta / eta1))
    assert (certified, searched, rounded_up) == counts


def test_slope_at_one_is_within_its_allowance(mp50, h50):
    # The allowance bounds the computed slope's rounding error, against a
    # 50-digit evaluation of g(s) + (1 - s)*g'(s) as written, without the
    # kernel's block coordinates or the rewrites that avoid cancellation. The
    # last draws put lambda near 0 and eta near 1.
    from bb84_mismatch.keyrates import _discard_slope

    mp = mp50
    rng = np.random.default_rng(194)
    draws = [(q_x, eta, f_ec * h(q_z)) for q_z, q_x, eta, _, f_ec in _discard_draws(193, 300)]
    draws += [(q_x, eta, f_ec * h(q_z)) for q_z, q_x, eta, _, f_ec in _near_flat_draws(195, 100)]
    draws += [(10.0 ** rng.uniform(-15.0, -1.0), 1.0 - 10.0 ** rng.uniform(-15.0, -1.0), 0.1) for _ in range(100)]
    for q_x, eta, ec in draws:
        slope, allowance = _discard_slope(q_x, eta, ec)
        s, c = 1 / (1 + mp.mpf(eta)), 1 - 2 * mp.mpf(q_x)
        rho = mp.sqrt((2 * s - 1) ** 2 + 4 * c**2 * s * (1 - s))
        lam, dlam = (1 - rho) / 2, -(2 * s - 1) * (1 - c**2) / rho
        bend = mp.log((1 - lam) / lam, 2) * dlam if lam > 0 else 0
        exact = h50(s) - h50(lam) - ec + (1 - s) * (mp.log((1 - s) / s, 2) - bend)
        assert abs(slope - exact) <= allowance


def test_log2_and_hypot_are_within_one_ulp(mp50):
    # The kernel's allowance takes numpy's log2 and hypot within one ulp of the
    # correctly rounded value. Arguments span what it and the value path pass:
    # lambda down to the subnormal edge, 1 - lambda and p/gain near 1, p/gain
    # up to 1e300, and hypot legs of every ratio.
    mp = mp50
    rng = np.random.default_rng(29)
    x = np.concatenate([10.0 ** rng.uniform(-307.0, 300.0, 1000), rng.uniform(0.0, 1.0, 1000),
                        1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 500), 1.0 + 10.0 ** rng.uniform(-16.0, 0.0, 500)])
    np.testing.assert_array_max_ulp(np.log2(x), np.array([float(mp.log(v, 2)) for v in x]), maxulp=1)
    legs = 10.0 ** rng.uniform(-150.0, 0.0, (2000, 2)) * rng.choice((-1.0, 1.0), (2000, 2))
    exact = [float(mp.sqrt(mp.mpf(u) ** 2 + mp.mpf(v) ** 2)) for u, v in legs]
    np.testing.assert_array_max_ulp(np.hypot(legs[:, 0], legs[:, 1]), np.array(exact), maxulp=1)


def test_discarded_rate_is_midpoint_concave_in_eta1():
    # The discard search's exactness rests on this concavity (the perspective
    # argument in keyrate_discard_optimized's docstring).
    from bb84_mismatch.keyrates import _discarded_rate

    rng = np.random.default_rng(19)
    for q_z, q_x, eta, t, f_ec in _discard_draws(190, 2000):
        ec = f_ec * h(q_z)
        ends = eta + (1.0 - eta) * rng.uniform(size=(2, 64))
        rate = _discarded_rate(q_x, eta, t, np.vstack([ends, ends.mean(axis=0)]), ec)[0]
        # Each rate is t times terms of size at most 2 + ec, each rounded.
        assert np.all(rate[2] >= (rate[0] + rate[1]) / 2.0 - 1e-14 * t * (2.0 + ec))


def test_discard_concavity_premise_reduces_to_two_monotone_lemmas(mp50, h50):
    # keyrate_discard_optimized's proof: with c = 4s(1 - s), k = 4q_x(1 - q_x)
    # and phi(u) = h((1 - sqrt(1 - u))/2), h(s) = phi(c) and h(lambda(s)) =
    # phi(kc); psi(u) = phi(u) - phi(ku) is nondecreasing and concave by (L1)
    # u*phi'(u) nondecreasing and (L2) u^2*phi''(u) nonincreasing.
    from fractions import Fraction

    from bb84_mismatch.keyrates import _discarded_rate

    mp = mp50
    ln2 = mp.log(2)

    def phi(u):
        return h50((1 - mp.sqrt(1 - u)) / 2)

    def lemmas(u):
        # u*phi'(u) and u^2*phi''(u) from artanh(v) = ln((1 + v)^2/u)/2, v = sqrt(1 - u).
        v = mp.sqrt(1 - u)
        artanh = mp.log((1 + v) ** 2 / u) / 2
        return u * artanh / (2 * v * ln2), -(u**2) * (v / u - artanh) / (4 * v**3 * ln2)

    rng = np.random.default_rng(1810)
    for s, q_x in [(0.5, 0.25), (0.9, 0.0), (0.3, 0.5), *rng.uniform(0.0, 1.0, (20, 2)) * (1.0, 0.5)]:
        a, b, x = mp.mpf(s), 1 - mp.mpf(s), 2 * mp.mpf(s) * mp.mpf(q_x)  # eta1*t = 2a, mismatch b/a
        lam = (1 - mp.sqrt((a - b) ** 2 + b / a * (2 * a - 2 * x) ** 2)) / 2
        c, k = 4 * a * b, 4 * mp.mpf(q_x) * (1 - mp.mpf(q_x))
        assert abs(h50(a) - phi(c)) < mp.mpf(10) ** -45 and abs(h50(lam) - phi(k * c)) < mp.mpf(10) ** -45
        if 0.0 < s < 1.0:  # the rate at eta1 = 1 is the perspective (a + b)*(psi(c) - ec)
            eta = (1.0 - s) / s
            rate = _discarded_rate(q_x, eta, 2.0 * s, 1.0, 0.1)[0]
            a, b = mp.mpf(s), mp.mpf(eta) * mp.mpf(s)
            c = 4 * a * b / (a + b) ** 2
            assert abs(rate - (a + b) * (phi(c) - phi(k * c) - mp.mpf(0.1))) <= 1e-14

    grid = [mp.mpf(10) ** -30, mp.mpf(10) ** -9, *mp.linspace(mp.mpf(0.001), mp.mpf(0.999), 200), 1 - mp.mpf(10) ** -30]
    values = [lemmas(u) for u in grid]
    for (l1, l2), (m1, m2) in zip(values, values[1:]):
        assert m1 >= l1 and m2 <= l2
    for u in (mp.mpf(0.3), mp.mpf(0.77)):
        w = 1 - u
        l1 = (1 - mp.nsum(lambda j: 2 * w**j / ((2 * j - 1) * (2 * j + 1)), [1, mp.inf])) / (2 * ln2)
        l2 = -(u**2) * mp.nsum(lambda j: (2 * j + 2) / (2 * j + 3) * w**j, [0, mp.inf]) / (4 * ln2)
        assert abs(lemmas(u)[0] - l1) < 1e-41 and abs(lemmas(u)[1] - l2) < 1e-41

    # (L2)'s series: (1 - w)^2 times sum (2j + 2)/(2j + 3) w^j, exactly.
    series = [Fraction(2 * j + 2, 2 * j + 3) for j in range(200)]
    product = [series[j] - 2 * (series[j - 1] if j else 0) + (series[j - 2] if j > 1 else 0) for j in range(200)]
    assert product[:2] == [Fraction(2, 3), Fraction(-8, 15)] and all(c < 0 for c in product[2:])


def test_discard_optimized_is_never_below_a_dense_grid():
    from bb84_mismatch.keyrates import _discarded_rate

    # The near-flat draws reach the certificate's decisions where the slope at
    # eta1 = 1 is smallest.
    for q_z, q_x, eta, t, f_ec in [*_discard_draws(191, 1000), *_near_flat_draws(196, 200)]:
        ec = f_ec * h(q_z)
        grid_max = _discarded_rate(q_x, eta, t, np.linspace(eta, 1.0, 4097), ec)[0].max()
        assert keyrate_discard_optimized(q_z, q_x, eta, t, f_ec).rate >= grid_max - 1e-14 * t * (2.0 + ec)


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
    # Discarding only loses rate in the noiseless case: lambda = 0, and the
    # slope at eta1 = 1 is -log2(s) = log2(1 + eta) > 0, so the point is certified.
    from bb84_mismatch.keyrates import _discard_slope

    for eta in (0.1, 0.4, 0.8):
        slope, allowance = _discard_slope(0.0, eta, 0.0)
        assert slope == math.log2(1.0 + eta) > allowance
        res = keyrate_discard_optimized(0.0, 0.0, eta)
        assert res.rate == keyrate_balanced(0.0, 0.0, eta).rate
        assert res.optimizer_args == (1.0, eta)


def test_discard_at_half_x_error_drops_every_zero_it_may():
    # At q_x = 1/2, lambda = 1 - s and g(s) = -ec, so the rate falls linearly
    # in eta1 with slope -ec < 0: the point is searched and ends at eta1 = eta.
    from bb84_mismatch.keyrates import _discard_slope

    ec = h(0.05)
    for eta in (0.1, 0.4, 0.8):
        slope, allowance = _discard_slope(0.5, eta, ec)
        assert abs(slope + ec) <= allowance
        res = keyrate_discard_optimized(0.05, 0.5, eta)
        assert res.optimizer_args == (eta, 1.0)
        assert math.isclose(res.rate, -eta * ec, rel_tol=1e-14)


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


def test_two_detectors_scaling(capsys):
    # `rate --eta0 --eta1` prints the common loss max(eta0, eta1) times the
    # rate at the mismatch min/max; K is printed to 12 significant digits.
    for eta0, eta1, eta in ((0.1, 0.1, 1.0), (0.1, 0.07, 0.7), (1.0, 0.5, 0.5)):
        argv = ["rate", "--qz", "0.02", "--qx", "0.02", "--eta0", str(eta0), "--eta1", str(eta1)]
        assert main(argv) == 0
        k = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("K = "))
        expected = max(eta0, eta1) * keyrate_balanced(0.02, 0.02, eta).rate
        assert math.isclose(float(k[4:]), expected, rel_tol=1e-11)


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


def test_general_rate_reads_an_entropy_argument_rounded_above_one_as_one():
    # At delta = 1 the gain a = (p_pass - t*eta)/(1 - eta) rounds above p_pass
    # here, so b = p_pass - a is a rounding below 0 and a/p rounds to
    # 1 + 2^-52; _h reads it as 1, so h(a/p) = 0 and lambda = 0.
    from bb84_mismatch.keyrates import _checked_lam

    point = (0.5, 0.7322308634965454, 0.5579328062353852, 0.5579328062353852)
    q_x, eta, t, p_pass = point
    a, p, lam = _checked_lam(p_pass, t * eta, t, t * q_x, eta)
    assert (a / p, lam) == (1.0 + 2.0**-52, -(2.0**-52))
    result = keyrate_general(0.02, *point)
    assert result.rate == -p_pass * h(0.02) and result.lam == 0.0
    # The CLI twin's point: a/p rounded to 1 + 2^-52 at a = t*(1 + delta)/2 and is exactly 1 now.
    result = keyrate_general(0.02, 0.5, 0.019022432350671914, 0.8802329510773045, 0.8802329510773039)
    assert result.rate == -0.8802329510773039 * h(0.02) == -0.12450062616356176 and result.lam == 0.0


def test_eta_one_pass_rate_tolerance_is_relative_to_t():
    # An absolute 1e-12 accepted p_pass = 9 t here and rated it 1.29e-14.
    with pytest.raises(ValueError, match="eta = 1 requires p_pass = t"):
        keyrate_general(0.0, 0.0, 1.0, 1e-13, 9e-13)
    for t in (1e-13, 0.7):
        assert keyrate_general(0.05, 0.05, 1.0, t, t * (1.0 + 1e-15)).feasible
