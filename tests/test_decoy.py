import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from bb84_mismatch import (
    ChannelModel,
    ConfigError,
    DecoyConfig,
    TruncationError,
    binary_entropy,
    bound_Q1,
    bound_Y0,
    bound_e1q1,
    decoy_keyrate,
    detection_imbalance,
    gamma2_upper,
    poisson_gain,
    simulate_error,
    simulate_observations,
    simulate_yield,
    theoretical_limit,
    transmittance,
)
from bb84_mismatch.decoy import DecoyObservations, _evaluate, _poisson_weights, poisson_pmf
from bb84_mismatch.errors import _require_in

h = binary_entropy

BENCHMARK_CFG = DecoyConfig(mu=0.5, nu1=0.1, nu2=0.0)


def benchmark_model(length_km, eta0=0.1, eta1=0.07, dark=1e-6, e_det=0.01):
    return ChannelModel(
        alpha_db_per_km=0.2,
        length_km=length_km,
        bob_loss_db=5.0,
        e_det=e_det,
        eta0=eta0,
        eta1=eta1,
        dark=(dark, dark),
    )


def actual_singles(model, cfg):
    """True single-photon gains, error rates, and weighted error parameter."""
    w1 = poisson_pmf(1, cfg.mu)
    q1 = [simulate_yield(model, 1, "z", b) * w1 for b in (0, 1)]
    e1 = [simulate_error(model, 1, "x", b) for b in (0, 1)]
    eta = model.eta
    gamma2 = eta * e1[0] * q1[0] + e1[1] * q1[1]
    return q1, e1, gamma2


def test_config_invariants():
    with pytest.raises(ConfigError):
        DecoyConfig(mu=0.5, nu1=0.1, nu2=0.2)
    with pytest.raises(ConfigError):
        DecoyConfig(mu=0.15, nu1=0.1, nu2=0.06)
    with pytest.raises(ConfigError):
        DecoyConfig(mu=0.5, nu1=0.1, nu2=0.0, i_max=5)


def test_yield_vacuum_gives_dark_counts():
    model = benchmark_model(50.0)
    assert simulate_yield(model, 0, "z", 0) == 1e-6
    assert simulate_yield(model, 0, "x", 1) == 1e-6


def test_yield_direct_substitution():
    model = ChannelModel(
        alpha_db_per_km=0.2,
        length_km=0.0,
        bob_loss_db=0.0,
        e_det=0.0,
        eta0=1.0,
        eta1=1.0,
        dark=(0.0, 0.0),
    )
    assert math.isclose(simulate_yield(model, 1, "z", 0), 0.5, abs_tol=1e-15)


def test_yield_benchmark_single_photon():
    # 1e-6 + 10^(-(0.2*50+5)/10) * 0.1/2, frozen by scalar substitution.
    model = benchmark_model(50.0)
    assert math.isclose(
        simulate_yield(model, 1, "z", 0), 0.0015821388300841896, rel_tol=1e-12
    )


def test_error_rate_reduces_to_optical_error():
    model = benchmark_model(30.0, dark=0.0)
    for i in (1, 2, 5):
        for beta in (0, 1):
            assert math.isclose(simulate_error(model, i, "z", beta), 0.01, abs_tol=1e-15)


def test_error_rate_pure_dark_counts_is_half():
    model = benchmark_model(30.0)
    assert math.isclose(simulate_error(model, 0, "z", 0), 0.5, abs_tol=1e-15)


def test_error_rate_between_optical_and_half():
    model = benchmark_model(50.0)
    e = simulate_error(model, 1, "z", 0)
    assert 0.01 < e < 0.5


def test_poisson_gain_certain_detection():
    q = poisson_gain([1.0] * 26, 0.5, 25)
    assert math.isclose(q, 1.0, abs_tol=1e-12)


def test_poisson_gain_constant_yield():
    q = poisson_gain([1e-6] * 26, 0.5, 25)
    assert math.isclose(q, 1e-6, rel_tol=1e-10)


def test_poisson_gain_linear_yield_gives_mean():
    # sum_i i*c*P(i; mu) = c*mu, the Poisson mean.
    c, mu = 1e-3, 0.5
    q = poisson_gain([c * i for i in range(26)], mu, 25)
    assert math.isclose(q, c * mu, rel_tol=1e-12)


def test_poisson_gain_truncation_error():
    with pytest.raises(TruncationError):
        poisson_gain([1.0] * 11, 8.0, 10)


def test_decoy_inputs_that_leave_no_value_raise():
    with pytest.raises(ValueError, match="need yields up to i_max"):
        poisson_gain([0.1, 0.2], 0.0, 10)
    # Without dark counts the vacuum never clicks, so its error rate is undefined.
    with pytest.raises(ValueError, match="yield vanishes"):
        simulate_error(benchmark_model(20.0, dark=0.0), 0, "z", 0)
    with pytest.raises(ValueError, match="unknown basis 'y'"):
        simulate_error(benchmark_model(20.0), 1, "y", 0)


def test_bound_y0_vacuum_decoy_collapse():
    # With nu2 = 0 the bound equals the vacuum-decoy gain itself.
    model = benchmark_model(20.0)
    obs = simulate_observations(model, BENCHMARK_CFG)
    for beta in (0, 1):
        assert math.isclose(
            bound_Y0(obs, BENCHMARK_CFG, beta), obs.gain("d2", "z", beta), rel_tol=1e-12
        )


def test_bound_y0_never_exceeds_actual():
    cfg = DecoyConfig(mu=0.5, nu1=0.1, nu2=0.02)
    for length in (0.0, 40.0, 90.0):
        model = benchmark_model(length)
        obs = simulate_observations(model, cfg)
        for beta in (0, 1):
            assert bound_Y0(obs, cfg, beta) <= model.dark[beta] + 1e-12


def test_bound_y0_clamps_at_zero():
    obs = simulate_observations(benchmark_model(20.0, dark=0.0), BENCHMARK_CFG)
    for beta in (0, 1):
        assert bound_Y0(obs, BENCHMARK_CFG, beta) == 0.0


def test_bound_q1_sandwich_on_distance_grid():
    for length in np.linspace(0.0, 120.0, 13):
        model = benchmark_model(float(length))
        obs = simulate_observations(model, BENCHMARK_CFG)
        q1_actual, _, _ = actual_singles(model, BENCHMARK_CFG)
        for beta in (0, 1):
            lower, upper = bound_Q1(obs, BENCHMARK_CFG, beta)
            assert lower <= q1_actual[beta] + 1e-12
            assert q1_actual[beta] <= upper + 1e-12


def test_bound_q1_tight_as_decoy_intensity_vanishes():
    cfg = DecoyConfig(mu=0.5, nu1=1e-3, nu2=0.0)
    model = benchmark_model(20.0)
    obs = simulate_observations(model, cfg)
    q1_actual, _, _ = actual_singles(model, cfg)
    for beta in (0, 1):
        lower, _ = bound_Q1(obs, cfg, beta)
        assert q1_actual[beta] - lower < 1e-3 * q1_actual[beta]


def test_bound_q1_zero_transmission():
    model = ChannelModel(
        alpha_db_per_km=0.2,
        length_km=4000.0,
        bob_loss_db=5.0,
        e_det=0.01,
        eta0=0.1,
        eta1=0.07,
        dark=(0.0, 0.0),
    )
    obs = simulate_observations(model, BENCHMARK_CFG)
    for beta in (0, 1):
        lower, upper = bound_Q1(obs, BENCHMARK_CFG, beta)
        assert lower <= 1e-15
        assert upper <= 1e-15


def test_bound_e1q1_soundness_and_noiseless():
    for length in (0.0, 30.0, 80.0):
        model = benchmark_model(float(length))
        obs = simulate_observations(model, BENCHMARK_CFG)
        q1_actual, e1, _ = actual_singles(model, BENCHMARK_CFG)
        for beta in (0, 1):
            assert bound_e1q1(obs, BENCHMARK_CFG, beta) >= e1[beta] * q1_actual[beta] - 1e-12

    clean = simulate_observations(benchmark_model(20.0, dark=0.0, e_det=0.0), BENCHMARK_CFG)
    for beta in (0, 1):
        assert bound_e1q1(clean, BENCHMARK_CFG, beta) <= 1e-15


def test_gamma2_upper_soundness():
    for length in (0.0, 50.0, 110.0):
        model = benchmark_model(float(length))
        obs = simulate_observations(model, BENCHMARK_CFG)
        _, _, gamma2_actual = actual_singles(model, BENCHMARK_CFG)
        assert gamma2_upper(obs, BENCHMARK_CFG, model.eta) >= gamma2_actual - 1e-12


def test_gamma2_upper_noiseless_and_eta_one():
    clean = simulate_observations(benchmark_model(20.0, dark=0.0, e_det=0.0), BENCHMARK_CFG)
    assert gamma2_upper(clean, BENCHMARK_CFG, 0.7) <= 1e-15

    model = benchmark_model(20.0, eta0=0.085, eta1=0.085)
    obs = simulate_observations(model, BENCHMARK_CFG)
    aggregate = (
        (obs.error_gain("d1", "x", 0) + obs.error_gain("d1", "x", 1)) * math.exp(0.1)
        - (obs.error_gain("d2", "x", 0) + obs.error_gain("d2", "x", 1))
    ) * 0.5 * math.exp(-0.5) / 0.1
    assert math.isclose(gamma2_upper(obs, BENCHMARK_CFG, 1.0), aggregate, rel_tol=1e-12)


@pytest.mark.filterwarnings("error")
def test_eta_with_infinite_reciprocal_is_rejected():
    # Outcome 1's gains are divided by eta; 1/eta overflows below 1/max.
    model = benchmark_model(20.0, eta1=1e-320)
    obs = simulate_observations(model, BENCHMARK_CFG)
    for call in (
        lambda: gamma2_upper(obs, BENCHMARK_CFG, model.eta),
        lambda: gamma2_upper(obs, BENCHMARK_CFG, 1.0 / sys.float_info.max),
        lambda: theoretical_limit(model, obs, BENCHMARK_CFG),
        lambda: theoretical_limit(benchmark_model(20.0), obs, BENCHMARK_CFG, eta=1e-320),
        lambda: decoy_keyrate(obs, BENCHMARK_CFG, model.eta),
    ):
        with pytest.raises(ValueError, match="^eta = "):
            call()
    smallest = math.nextafter(1.0 / sys.float_info.max, 1.0)
    assert math.isfinite(gamma2_upper(obs, BENCHMARK_CFG, smallest))


def test_decoy_rate_positive_and_close_to_limit_at_20km():
    model = benchmark_model(20.0)
    obs = simulate_observations(model, BENCHMARK_CFG)
    res = decoy_keyrate(obs, BENCHMARK_CFG, model.eta)
    limit = theoretical_limit(model, obs, BENCHMARK_CFG)
    assert res.feasible and res.rate > 0.0
    assert 0.9 * limit.rate <= res.rate <= limit.rate


def test_decoy_rate_minimum_at_lower_corner():
    for length in (0.0, 40.0, 100.0):
        model = benchmark_model(float(length))
        obs = simulate_observations(model, BENCHMARK_CFG)
        res = decoy_keyrate(obs, BENCHMARK_CFG, model.eta)
        assert res.at_lower_corner
        lower0, _ = bound_Q1(obs, BENCHMARK_CFG, 0)
        lower1, _ = bound_Q1(obs, BENCHMARK_CFG, 1)
        assert math.isclose(res.argmin[0], lower0, rel_tol=1e-6)
        assert math.isclose(res.argmin[1], lower1, rel_tol=1e-6)


def test_decoy_rate_never_exceeds_theoretical_limit():
    for length in np.linspace(0.0, 120.0, 7):
        model = benchmark_model(float(length))
        obs = simulate_observations(model, BENCHMARK_CFG)
        res = decoy_keyrate(obs, BENCHMARK_CFG, model.eta)
        limit = theoretical_limit(model, obs, BENCHMARK_CFG)
        assert res.rate <= limit.rate + 1e-10


def test_decoy_rate_monotone_in_error_bound():
    # Inflating the error parameter can only reduce the rate.
    from bb84_mismatch.decoy import _ec_term, _singles_rate

    model = benchmark_model(20.0)
    obs = simulate_observations(model, BENCHMARK_CFG)
    eta = model.eta
    lower0, _ = bound_Q1(obs, BENCHMARK_CFG, 0)
    lower1, _ = bound_Q1(obs, BENCHMARK_CFG, 1)
    q_base = gamma2_upper(obs, BENCHMARK_CFG, eta) / eta
    ec = _ec_term(obs, 1.0)
    rates = []
    for factor in np.linspace(1.0, 20.0, 20):
        out = _singles_rate(lower0, lower1, q_base * float(factor), eta, ec)
        assert out is not None
        rates.append(out[0])
    assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))


def test_decoy_rate_reduces_to_symmetric_formula_without_mismatch():
    # Equal detectors: K = p_pass*(1 - h(q/p_pass)) - Q^sz*h(E^sz).
    model = benchmark_model(20.0, eta0=0.085, eta1=0.085)
    obs = simulate_observations(model, BENCHMARK_CFG)
    res = decoy_keyrate(obs, BENCHMARK_CFG, 1.0)
    lower = [bound_Q1(obs, BENCHMARK_CFG, b)[0] for b in (0, 1)]
    q = gamma2_upper(obs, BENCHMARK_CFG, 1.0)
    p_pass = sum(lower)
    q_total = obs.gain("s", "z", 0) + obs.gain("s", "z", 1)
    e_total = (obs.error_gain("s", "z", 0) + obs.error_gain("s", "z", 1)) / q_total
    lam_t = 0.5 - abs(lower[0] - lower[1]) / (2 * p_pass)
    expected = p_pass * (h(lam_t) - h(q / p_pass)) - q_total * h(e_total)
    assert math.isclose(res.rate, expected, rel_tol=1e-6)


def test_theoretical_limit_best_channel_bounded_by_poisson_weight():
    model = ChannelModel(
        alpha_db_per_km=0.2,
        length_km=0.0,
        bob_loss_db=0.0,
        e_det=0.0,
        eta0=1.0,
        eta1=1.0,
        dark=(0.0, 0.0),
    )
    res = theoretical_limit(model, simulate_observations(model, BENCHMARK_CFG), BENCHMARK_CFG)
    assert 0.0 < res.rate <= 0.5 * math.exp(-0.5)


def test_theoretical_limit_decreases_with_distance():
    rates = []
    for length in np.linspace(0.0, 180.0, 19):
        model = benchmark_model(float(length))
        res = theoretical_limit(model, simulate_observations(model, BENCHMARK_CFG), BENCHMARK_CFG)
        rates.append(res.rate)
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert rates[0] > 0.0
    assert rates[-1] <= 0.0


def test_no_mismatch_limit_slightly_higher():
    mismatch, matched = (
        theoretical_limit(model, simulate_observations(model, BENCHMARK_CFG), BENCHMARK_CFG)
        for model in (benchmark_model(20.0), benchmark_model(20.0, eta0=0.085, eta1=0.085))
    )
    assert matched.rate > mismatch.rate
    assert mismatch.rate > 0.9 * matched.rate


def test_gain_decomposition_reconstructs_observations():
    model = benchmark_model(35.0)
    obs = simulate_observations(model, BENCHMARK_CFG)
    for v in ("s", "d1", "d2"):
        mu_v = BENCHMARK_CFG.intensity(v)
        for b in ("z", "x"):
            for beta in (0, 1):
                yields = [simulate_yield(model, i, b, beta) for i in range(26)]
                assert math.isclose(
                    obs.gain(v, b, beta), poisson_gain(yields, mu_v, 25), rel_tol=1e-12
                )


def test_transmittance():
    assert math.isclose(transmittance(benchmark_model(50.0)), 10 ** (-1.5), rel_tol=1e-12)


def test_simulate_observations_truncation_error():
    with pytest.raises(TruncationError):
        simulate_observations(benchmark_model(20.0), DecoyConfig(mu=8.0, nu1=0.1, nu2=0.0, i_max=10))


@pytest.mark.parametrize(
    "field,bad",
    [(f, v) for f in ("mu", "nu1", "nu2", "i_max") for v in (math.nan, math.inf, -math.inf)] + [("i_max", 12.5)],
)
def test_config_rejects_bad_values(field, bad):
    kwargs = {"mu": 0.5, "nu1": 0.1, "nu2": 0.0, field: bad}
    with pytest.raises(ConfigError):
        DecoyConfig(**kwargs)


@pytest.mark.parametrize("i_max", [4097, 10**400, 10**5000], ids=["4097", "1e400", "1e5000"])
def test_config_caps_i_max_promptly(i_max):
    # Uncapped, i_max = 10**400 was accepted and _poisson_weights would have
    # built a list over range(i_max + 1) that never ends.
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="^i_max = "):
        DecoyConfig(mu=0.5, nu1=0.1, nu2=0.0, i_max=i_max)
    assert time.perf_counter() - start < 0.1
    assert DecoyConfig(mu=0.5, nu1=0.1, nu2=0.0, i_max=4096).i_max == 4096


@pytest.mark.parametrize(
    "value", [10**5000, -(10**5000), 10**1000, Fraction(10**5000, 3)], ids=["1e5000", "-1e5000", "1e1000", "fraction"]
)
def test_range_errors_keep_the_callers_class_and_name_for_huge_values(value):
    # Python refuses to print an int of over 4,300 digits; the message once
    # formatted the value whole and raised Python's own ValueError instead.
    with pytest.raises(ConfigError, match=r"^mu = .{1,40} outside ") as caught:
        _require_in("mu", value, 0.0, math.inf, error=ConfigError)
    assert type(caught.value) is ConfigError
    with pytest.raises(ConfigError, match=r"^i_max = .{1,40} is not an integer"):
        _require_in("i_max", Fraction(10**5000, 3), 0, math.inf, integer=True, error=ConfigError)


@pytest.mark.parametrize(
    "field,bad",
    [
        (f, v)
        for f in ("alpha_db_per_km", "length_km", "bob_loss_db")
        for v in (math.nan, math.inf, -1.0)
    ]
    + [(f, v) for f in ("eta0", "eta1") for v in (math.nan, 0.0, -0.1, 1.1)]
    # eta1 > eta0: outcome 1 must be the less efficient detector.
    + [("eta1", 0.2)]
    + [(f, v) for f in ("e_det", "dark") for v in (math.nan, -0.1, 1.1)],
)
def test_channel_model_rejects_bad_parameters(field, bad):
    kwargs = dict(
        alpha_db_per_km=0.2, length_km=20.0, bob_loss_db=5.0, e_det=0.01, eta0=0.1, eta1=0.07, dark=(1e-6, 1e-6)
    )
    kwargs[field] = (bad, 1e-6) if field == "dark" else bad
    with pytest.raises(ValueError):
        ChannelModel(**kwargs)


@pytest.mark.parametrize("f_ec", [math.nan, math.inf, -1.0])
def test_decoy_rates_reject_bad_f_ec(f_ec):
    model = benchmark_model(20.0)
    obs = simulate_observations(model, BENCHMARK_CFG)
    with pytest.raises(ConfigError):
        decoy_keyrate(obs, BENCHMARK_CFG, model.eta, f_ec=f_ec)
    with pytest.raises(ConfigError):
        theoretical_limit(model, obs, BENCHMARK_CFG, f_ec=f_ec)


_MODEL = benchmark_model(20.0)
_OBS = simulate_observations(_MODEL, BENCHMARK_CFG)


@pytest.mark.parametrize(
    "call",
    [
        lambda: bound_Q1(_OBS, BENCHMARK_CFG, 2),
        lambda: bound_e1q1(_OBS, BENCHMARK_CFG, 5),
        lambda: bound_Y0(_OBS, BENCHMARK_CFG, -1),
        lambda: simulate_yield(_MODEL, 1, "z", 2),
        lambda: simulate_error(_MODEL, 1, "z", 3),
        lambda: simulate_yield(_MODEL, 1.5, "z", 0),
        lambda: simulate_yield(_MODEL, 10**400, "z", 0),
        lambda: poisson_gain([1e-3] * 26, math.nan, 25),
        lambda: poisson_gain([1e-3] * 25 + [math.nan], 0.5, 25),
        lambda: poisson_pmf(1, math.nan),
        lambda: poisson_pmf(1, -0.5),
        lambda: detection_imbalance(math.nan, 1.0, 0.5),
        lambda: detection_imbalance(0.8, math.inf, 0.5),
        lambda: detection_imbalance(0.8, 1.0, 2.0),
        lambda: detection_imbalance(np.array([0.8, math.nan]), 1.0, 0.5),
        lambda: detection_imbalance(0.8, 1.0, np.array([0.5, 2.0])),
    ],
    ids=[
        "q1_outcome", "e1q1_outcome", "y0_outcome", "yield_outcome", "error_outcome", "yield_photons",
        "yield_photons_beyond_float",
        "gain_nan_mu", "gain_nan_yield", "pmf_nan_mu", "pmf_negative_mu", "imbalance_nan", "imbalance_inf",
        "imbalance_eta", "imbalance_array_nan", "imbalance_array_eta",
    ],
)
def test_every_argument_is_range_checked(call):
    # Each once raised IndexError, OverflowError, returned nan or another
    # outcome's value, or raised "math domain error".
    with pytest.raises(ValueError, match=r" outside [\[(]| is not an integer"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda obs: decoy_keyrate(obs, BENCHMARK_CFG, _MODEL.eta),
        lambda obs: bound_Y0(obs, BENCHMARK_CFG, 0),
        lambda obs: bound_Q1(obs, BENCHMARK_CFG, 0),
        lambda obs: bound_e1q1(obs, BENCHMARK_CFG, 0),
        lambda obs: gamma2_upper(obs, BENCHMARK_CFG, _MODEL.eta),
        lambda obs: theoretical_limit(_MODEL, obs, BENCHMARK_CFG),
    ],
    ids=["decoy_keyrate", "bound_Y0", "bound_Q1", "bound_e1q1", "gamma2_upper", "theoretical_limit"],
)
def test_one_observation_functions_reject_stacked_observations(call):
    # decoy_keyrate returned the first observation's rate; the others raised
    # TypeError or IndexError.
    stacked = _stack([simulate_observations(benchmark_model(km), BENCHMARK_CFG) for km in (10.0, 20.0)])
    with pytest.raises(ValueError, match=r"shape \(3, 2, 2\), got observations of shape \(2, 3, 2, 2\)"):
        call(stacked)


def test_singles_rate_array_matches_scalar_loop():
    # The grid scan evaluates the box as one array; each entry must agree with
    # a point-by-point evaluation, nan exactly where that one is infeasible.
    from bb84_mismatch.decoy import _ec_term, _singles_rate

    model = benchmark_model(60.0)
    obs = simulate_observations(model, BENCHMARK_CFG)
    eta = model.eta
    q = gamma2_upper(obs, BENCHMARK_CFG, eta) / eta
    ec = _ec_term(obs, 1.0)
    up0 = bound_Q1(obs, BENCHMARK_CFG, 0)[1]
    up1 = bound_Q1(obs, BENCHMARK_CFG, 1)[1]
    # From zero gains (infeasible) past the box, so both kinds of point occur.
    grid0 = np.linspace(0.0, up0, 40)
    grid1 = np.linspace(0.0, up1, 40)
    rates, lams = _singles_rate(grid0[:, None], grid1[None, :], q, eta, ec)
    assert rates.shape == lams.shape == (40, 40)
    best, loop_argmin = math.inf, None
    for i, a in enumerate(grid0):
        for j, b in enumerate(grid1):
            rate, lam = _singles_rate(float(a), float(b), q, eta, ec)
            if np.isnan(rate):
                assert np.isnan(rates[i, j]) and np.isnan(lams[i, j]) and np.isnan(lam)
                continue
            assert math.isclose(rates[i, j], rate, rel_tol=1e-12, abs_tol=1e-18)
            assert math.isclose(lams[i, j], lam, rel_tol=1e-12, abs_tol=1e-18)
            if rate < best:
                best, loop_argmin = rate, (i, j)
    assert np.isnan(rates).any() and not np.isnan(rates).all()
    # decoy_keyrate's argmin rule: the first minimum in row-major order.
    assert np.unravel_index(np.nanargmin(rates), rates.shape) == loop_argmin



def test_channel_model_asks_to_relabel_swapped_detectors():
    with pytest.raises(ValueError, match="relabel"):
        benchmark_model(20.0, eta0=0.07, eta1=0.1)


def test_observations_stack_only_with_matching_shapes():
    obs = simulate_observations(benchmark_model(20.0), BENCHMARK_CFG)
    stacked = DecoyObservations(gains=np.stack([obs.gains] * 2), error_rates=np.stack([obs.error_rates] * 2))
    assert stacked.gains.shape == (2, 3, 2, 2)
    for gains, error_rates in ((stacked.gains, obs.error_rates), (obs.gains[0], obs.error_rates[0])):
        with pytest.raises(ValueError, match="must have shape"):
            DecoyObservations(gains=gains, error_rates=error_rates)


def test_observations_reject_non_finite_entries():
    # A nan entry used to pass the range check, and a nan d1 z-basis gain then
    # gave an optimistic feasible rate.
    obs = simulate_observations(benchmark_model(20.0), BENCHMARK_CFG)
    for name in ("gains", "error_rates"):
        for index in np.ndindex(3, 2, 2):
            for bad in (math.nan, math.inf):
                arrays = {"gains": obs.gains.copy(), "error_rates": obs.error_rates.copy()}
                arrays[name][index] = bad
                with pytest.raises(ValueError, match="must lie in"):
                    DecoyObservations(**arrays)


def test_poisson_weights_are_cached_read_only():
    weights = _poisson_weights(0.5, 25)
    assert _poisson_weights(0.5, 25) is weights
    with pytest.raises(ValueError):
        weights[0] = 1.0


def _seeded_boxes(seed, count):
    """Observations of seeded channels, each also with its outcome axis swapped,
    all under one config and mismatch, as one decoy row of ``_evaluate`` takes them."""
    rng = np.random.default_rng(seed)
    mu = float(rng.uniform(0.3, 0.8))
    cfg = DecoyConfig(mu=mu, nu1=0.2 * mu, nu2=float(rng.uniform(0.0, 0.05)) * mu)
    eta0 = float(rng.uniform(0.05, 1.0))
    eta1 = eta0 * float(rng.uniform(0.1, 1.0))
    observations = []
    for _ in range(count):
        model = ChannelModel(
            alpha_db_per_km=0.2,
            length_km=float(rng.uniform(0.0, 150.0)),
            bob_loss_db=float(rng.uniform(0.0, 6.0)),
            e_det=float(rng.uniform(0.0, 0.08)),
            eta0=eta0,
            eta1=eta1,
            dark=tuple(10.0 ** rng.uniform(-8.0, -4.0, 2)),
        )
        obs = simulate_observations(model, cfg)
        # A swapped outcome axis is what a channel with eta0 < eta1 would
        # give; its minima leave the lower corner, so refines run more rounds.
        swapped = DecoyObservations(gains=obs.gains[..., ::-1], error_rates=obs.error_rates[..., ::-1])
        observations += [obs, swapped]
    return observations, cfg, eta1 / eta0


def _golden_min(fn, a, b):
    """Golden-section minimizer of ``fn`` on [a, b] to absolute tolerance
    1e-10, the midpoint of the final bracket; ties keep the lower point. The
    search the reference below ran, kept here as it was."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - ratio * (b - a), a + ratio * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > 1e-10:
        if f1 > f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + ratio * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - ratio * (b - a)
            f1 = fn(x1)
    return (a + b) / 2.0


def _decoy_argmin_loop(obs, cfg, eta, f_ec):
    """The grid scan and coordinate descent of golden-section searches that
    decoy_keyrate ran before its array zoom, kept as the reference."""
    from bb84_mismatch.decoy import _ec_term, _singles_rate

    lo0, up0 = bound_Q1(obs, cfg, 0)
    lo1, up1 = bound_Q1(obs, cfg, 1)
    q = gamma2_upper(obs, cfg, eta) / eta
    ec = _ec_term(obs, f_ec)

    def rate_or_inf(a, b):
        rate = _singles_rate(a, b, q, eta, ec)[0]
        return math.inf if math.isnan(rate) else float(rate)

    grid0 = np.linspace(lo0, up0, 64)
    grid1 = np.linspace(lo1, up1, 64)
    rates = _singles_rate(grid0[:, None], grid1[None, :], q, eta, ec)[0]
    if np.isnan(rates).all():
        return None
    k0, k1 = np.unravel_index(np.nanargmin(rates), rates.shape)
    best, arg = float(rates[k0, k1]), (float(grid0[k0]), float(grid1[k1]))
    a, b = arg
    for _ in range(40):
        prev = best
        a = _golden_min(lambda x: rate_or_inf(x, b), lo0, up0)
        b = _golden_min(lambda y: rate_or_inf(a, y), lo1, up1)
        candidate = rate_or_inf(a, b)
        if candidate > best:
            break
        best, arg = candidate, (a, b)
        if prev - best < 1e-12:
            break
    return arg


def _rate_at(a, b, obs, cfg, eta, f_ec):
    from bb84_mismatch.decoy import _ec_term, _singles_rate

    return float(_singles_rate(a, b, gamma2_upper(obs, cfg, eta) / eta, eta, _ec_term(obs, f_ec))[0])


def _stack(observations):
    """The observations as one stacked ``DecoyObservations``, shape (n, 3, 2, 2)."""
    return DecoyObservations(
        gains=np.array([obs.gains for obs in observations]).reshape(-1, 3, 2, 2),
        error_rates=np.array([obs.error_rates for obs in observations]).reshape(-1, 3, 2, 2),
    )


def _decoy_row(observations, cfg, eta, f_ec):
    """``_evaluate``'s decoy row over ``observations``: (rate, lam, delta, a, b),
    each a list, and the box (lo, up, q, searched)."""
    stacked = _stack(observations)
    one_channel = DecoyObservations(gains=stacked.gains[None], error_rates=stacked.error_rates[None])
    rows, box = _evaluate(one_channel, cfg, f_ec, eta, None, ())
    return [v[0].tolist() for v in rows], box


def test_batched_boxes_match_one_box_at_a_time():
    off_corner = 0
    for seed in range(12):
        observations, cfg, eta = _seeded_boxes(seed, 8)
        f_ec = (1.0, 1.16, 0.0)[seed % 3]
        rows, (lo, up, q, searched) = _decoy_row(observations, cfg, eta, f_ec)
        assert len(rows[0]) == len(observations)
        for k, (obs, (rate, lam, delta, a, b)) in enumerate(zip(observations, zip(*rows))):
            alone = decoy_keyrate(obs, cfg, eta, f_ec)
            assert _same(rate, alone.rate) and _same(lam, alone.lam) and _same(delta, alone.delta)
            assert alone.argmin is None or alone.argmin == (a, b)
            for beta in (0, 1):
                assert (lo[k, beta], up[k, beta]) == bound_Q1(obs, cfg, beta)
            assert q[k] == gamma2_upper(obs, cfg, eta) / eta
            # A box the corner test certifies has its rate as its lower bound.
            assert searched[k] or alone.rate_lower == alone.rate
            # The coordinate descent is the reference: the zoom never reports
            # a higher rate, and keeps every minimum the descent found at the lower corner.
            reference = _decoy_argmin_loop(obs, cfg, eta, f_ec)
            assert (reference is None) == (alone.argmin is None)
            if reference is not None:
                assert alone.rate <= _rate_at(*reference, obs, cfg, eta, f_ec)
                if reference == (bound_Q1(obs, cfg, 0)[0], bound_Q1(obs, cfg, 1)[0]):
                    assert alone.argmin == reference
            off_corner += alone.at_lower_corner is False
    # Minima off the corner, where the zoom moves, are exercised too.
    assert off_corner > 0
    assert _decoy_row([], BENCHMARK_CFG, 0.7, 1.0)[0] == [[]] * 5


def test_decoy_keyrate_is_at_most_the_dense_grid_minimum():
    from bb84_mismatch.decoy import _ec_term, _singles_rate

    feasible = certified = 0
    for seed in range(12):
        observations, cfg, eta = _seeded_boxes(seed, 8)
        f_ec = (1.0, 1.16, 0.0)[seed % 3]
        for obs in observations:
            (lo0, up0), (lo1, up1) = bound_Q1(obs, cfg, 0), bound_Q1(obs, cfg, 1)
            q, ec = gamma2_upper(obs, cfg, eta) / eta, _ec_term(obs, f_ec)
            grid0, grid1 = np.linspace(lo0, up0, 257), np.linspace(lo1, up1, 257)
            rates = _singles_rate(grid0[:, None], grid1[None, :], q, eta, ec)[0]
            if np.isnan(rates).all():
                continue
            feasible += 1
            dense = float(np.nanmin(rates))
            res = decoy_keyrate(obs, cfg, eta, f_ec)
            # A certified corner and a searched point alike.
            assert res.rate <= dense + 1e-12 * max(abs(dense), ec)
            assert res.rate_lower <= min(res.rate, dense + 1e-12 * max(abs(dense), ec))
            certified += res.rate_lower == res.rate and res.argmin == (lo0, lo1)
    assert feasible > 100 and certified > 50


def test_entropy_grad_matches_central_differences():
    from bb84_mismatch.decoy import _gain_grad, _singles_rate

    rng = np.random.default_rng(2)
    checked = 0
    for seed in range(10):
        observations, cfg, eta = _seeded_boxes(seed, 8)
        for obs in observations:
            (lo0, up0), (lo1, up1) = bound_Q1(obs, cfg, 0), bound_Q1(obs, cfg, 1)
            q = gamma2_upper(obs, cfg, eta) / eta
            a, b = rng.uniform(lo0, up0, 16), rng.uniform(lo1, up1, 16)
            # Away from the edge lambda = 0, where the third derivatives blow up.
            inside = (_singles_rate(a, b, q, eta, 0.0)[1] > 1e-3) & (a > 0.0) & (b > 0.0)
            a, b = a[inside], b[inside]
            grads, slacks = _gain_grad(a, b, q, eta)
            da, db = 1e-6 * a, 1e-6 * b
            for grad, slack, plus, minus, step in (
                (grads[:, 0], slacks[:, 0], _singles_rate(a + da, b, q, eta, 0.0)[0],
                 _singles_rate(a - da, b, q, eta, 0.0)[0], da),
                (grads[:, 1], slacks[:, 1], _singles_rate(a, b + db, q, eta, 0.0)[0],
                 _singles_rate(a, b - db, q, eta, 0.0)[0], db),
            ):
                scale = np.maximum(np.abs(grad), 1.0)
                assert np.all(np.abs((plus - minus) / (2.0 * step) - grad) <= 1e-6 * scale)
                assert np.all(slack <= 1e-9 * scale)
            checked += a.size
    assert checked > 1000
    # A zero gain, or a corner outside the cone (lambda < 0), is never certified.
    grad, slack = _gain_grad(
        np.array([0.0, 1e-3, 1e-3]), np.array([1e-3, 0.0, 1e-3]), np.array([1e-4, 1e-4, 3e-3]), 0.5
    )
    assert not (grad > slack).all(axis=1).any()


def test_gain_grad_is_within_its_allowance(mp50):
    # Each computed partial against a 50-digit evaluation of the partials as
    # first derived in (a, b) along t = a + b/eta, without the kernel's block
    # coordinates: d/da = log2(p/a) - [(1 - r_a)*log2(1/lambda) +
    # (1 + r_a)*log2(1/(1 - lambda))]/2 with r_a = (a - b + eta*d)/r, d = t - 2q,
    # and d/db the same with log2(p/b) and r_b = (b - a + d)/r. The points are
    # the seeded lower corners, then draws with lambda near 0 and eta near 1.
    from bb84_mismatch.decoy import _gain_grad

    mp = mp50
    points = []
    for seed in range(8):
        observations, cfg, eta = _seeded_boxes(seed, 8)
        points += [(bound_Q1(obs, cfg, 0)[0], bound_Q1(obs, cfg, 1)[0], gamma2_upper(obs, cfg, eta) / eta, eta)
                   for obs in observations]
    rng = np.random.default_rng(23)
    for _ in range(100):
        a, b = 10.0 ** rng.uniform(-6.0, -1.0, 2)
        eta = 1.0 - 10.0 ** rng.uniform(-15.0, -1.0) if rng.random() < 0.5 else 10.0 ** rng.uniform(-3.0, 0.0)
        # y^2 = eta*d^2 = 4ab*(1 - eps) puts lambda near eps*ab/p^2.
        d = math.sqrt(4.0 * a * b * (1.0 - 10.0 ** rng.uniform(-12.0, -1.0)) / eta)
        points.append((a, b, (a + b / eta - d) / 2.0, eta))
    checked = 0
    for a, b, q, eta in points:
        grad, slack = _gain_grad(a, b, q, eta)
        a50, b50, q50, eta50 = (mp.mpf(v) for v in (a, b, q, eta))
        p, d = a50 + b50, a50 + b50 / eta50 - 2 * q50
        r = mp.sqrt((a50 - b50) ** 2 + eta50 * d**2)
        lam = (p - r) / (2 * p)
        if not 0 < lam < mp.mpf(1) / 2:
            assert not np.isfinite(slack).all() or not (grad > slack).all()
            continue
        for g, s, gain, r_i in ((grad[0], slack[0], a50, (a50 - b50 + eta50 * d) / r),
                                (grad[1], slack[1], b50, (b50 - a50 + d) / r)):
            exact = mp.log(p / gain, 2) - ((1 - r_i) * -mp.log(lam, 2) + (1 + r_i) * -mp.log(1 - lam, 2)) / 2
            assert abs(g - exact) <= s
        checked += 1
    assert checked > 150


def test_singles_rate_is_midpoint_convex_on_seeded_boxes():
    # The corner certificate rests on this convexity, and on the convexity of
    # each box's feasible part: the midpoint of two feasible points is feasible.
    from bb84_mismatch.decoy import _singles_rate

    pairs = 0
    for seed in range(60):
        rng = np.random.default_rng(1000 + seed)
        observations, cfg, eta = _seeded_boxes(seed, 8)
        for obs in observations:
            (lo0, up0), (lo1, up1) = bound_Q1(obs, cfg, 0), bound_Q1(obs, cfg, 1)
            q = gamma2_upper(obs, cfg, eta) / eta
            u = rng.uniform(size=(2, 2, 64))
            a, b = lo0 + (up0 - lo0) * u[:, 0], lo1 + (up1 - lo1) * u[:, 1]
            ends = _singles_rate(a, b, q, eta, 0.0)[0]
            mid = _singles_rate((a[0] + a[1]) / 2.0, (b[0] + b[1]) / 2.0, q, eta, 0.0)[0]
            ok = ~np.isnan(ends).any(axis=0)
            assert not np.isnan(mid[ok]).any()
            chord = (ends[0, ok] + ends[1, ok]) / 2.0
            assert np.all(mid[ok] <= chord + 1e-12 * np.abs(ends[:, ok]).max(axis=0))
            pairs += int(ok.sum())
    assert pairs > 30000


def test_corner_certificate_holds_exactly_where_the_search_ends_at_the_corner():
    from bb84_mismatch.decoy import _ec_term, _gain_grad, _search_boxes

    certified = feasible = 0
    for seed in range(60):
        observations, cfg, eta = _seeded_boxes(seed, 8)
        f_ec = (1.0, 1.16, 0.0)[seed % 3]
        boxes = np.array([
            (*bound_Q1(obs, cfg, 0), *bound_Q1(obs, cfg, 1), gamma2_upper(obs, cfg, eta) / eta, _ec_term(obs, f_ec))
            for obs in observations
        ])
        points, found = _search_boxes(boxes, eta)
        grad, slack = _gain_grad(boxes[:, 0], boxes[:, 2], boxes[:, 4], eta)
        corner = (grad > slack).all(axis=1)
        assert np.array_equal(corner, found & (points == boxes[:, [0, 2]]).all(axis=1))
        certified += int(corner.sum())
        feasible += int(found.sum())
    assert (certified, feasible) == (637, 713)


def _parity_channels(seed):
    """Seeded channels under one config, at distances from 0 km: both detector
    orders, the ascending ones relabelled as ``decoy-sim`` relabels them (the
    efficiencies and dark counts swapped together), zero and non-zero dark
    counts, e_det = 0, and a lossless link whose yields clamp at 1."""
    rng = np.random.default_rng(seed)
    mu = float(rng.uniform(0.3, 0.8))
    cfg = DecoyConfig(mu=mu, nu1=0.2 * mu, nu2=float(rng.uniform(0.0, 0.05)) * mu)
    models = []
    for k in range(6):
        eta = sorted(rng.uniform(0.05, 1.0, 2), reverse=k % 2 == 0)
        dark = list(10.0 ** rng.uniform(-8.0, -4.0, 2)) if k % 3 else [0.0, 0.0]
        if eta[0] < eta[1]:
            eta, dark = eta[::-1], dark[::-1]
        e_det = 0.0 if k % 2 else float(rng.uniform(0.0, 0.08))
        models.append(ChannelModel(0.2, 0.0, float(rng.uniform(0.0, 6.0)), e_det, *map(float, eta), tuple(dark)))
    models.append(ChannelModel(0.0, 0.0, 0.0, 0.01, 1.0, 1.0, (0.5, 0.3)))
    return models, cfg, [0.0, *rng.uniform(0.0, 150.0, 4)]


def _simulate_loop(model, cfg):
    """``simulate_observations`` as one ``np.dot`` per (intensity, outcome) in
    a loop, the form the array simulation must reproduce bit for bit."""
    from bb84_mismatch.decoy import INTENSITIES

    gains, errors = np.zeros((3, 2, 2)), np.zeros((3, 2, 2))
    arrived = np.arange(cfg.i_max + 1) * transmittance(model)
    for beta, (eff, dark) in enumerate(zip((model.eta0, model.eta1), model.dark)):
        y = np.minimum(dark + arrived * eff / 2.0, 1.0)
        ey = (dark + arrived * model.e_det * eff) / 2.0
        for vi, v in enumerate(INTENSITIES):
            weights = _poisson_weights(cfg.intensity(v), cfg.i_max)
            q = float(np.dot(y, weights))
            gains[vi, :, beta] = q
            errors[vi, :, beta] = float(np.dot(ey, weights)) / q if q > 0.0 else 0.0
    return gains, errors


def _scalar_references(model, obs, cfg, f_ec):
    """The vacuum-yield and single-photon gain bounds of each outcome,
    gamma2_upper, the error-correction term and the theoretical limit's
    (rate, lambda), as the scalar formulas they were before the array ones."""
    from bb84_mismatch.decoy import _singles_rate

    mu, nu1, nu2, eta = cfg.mu, cfg.nu1, cfg.nu2, model.eta
    den = mu * nu1 - mu * nu2 - nu1**2 + nu2**2
    y0, q1_bounds = [], []
    for beta in (0, 1):
        qs, qd1, qd2 = (obs.gain(v, "z", beta) for v in ("s", "d1", "d2"))
        y0.append(max((nu1 * qd2 * math.exp(nu2) - nu2 * qd1 * math.exp(nu1)) / (nu1 - nu2), 0.0))
        lower = mu**2 * math.exp(-mu) / den * (
            qd1 * math.exp(nu1) - qd2 * math.exp(nu2) - (nu1**2 - nu2**2) / mu**2 * (qs * math.exp(mu) - y0[-1])
        )
        q1_bounds.append((min(max(lower, 0.0), qs), qs))
    eg = {(v, beta): obs.error_gain(v, "x", beta) for v in ("d1", "d2") for beta in (0, 1)}
    gamma2 = max((
        (eg["d1", 0] + eg["d1", 1] / eta) * math.exp(nu1) - (eg["d2", 0] + eg["d2", 1] / eta) * math.exp(nu2)
    ) * mu * math.exp(-mu) / (nu1 - nu2), 0.0) * eta
    q_total = obs.gain("s", "z", 0) + obs.gain("s", "z", 1)
    e_total = (obs.error_gain("s", "z", 0) + obs.error_gain("s", "z", 1)) / q_total
    ec = f_ec * q_total * h(min(e_total, 1.0)) if q_total > 0.0 else 0.0
    w1 = poisson_pmf(1, mu)
    q1 = [simulate_yield(model, 1, "z", beta) * w1 for beta in (0, 1)]
    e1 = [simulate_error(model, 1, "x", beta) for beta in (0, 1)]
    limit = _singles_rate(q1[0], q1[1], (eta * e1[0] * q1[0] + e1[1] * q1[1]) / eta, eta, ec)
    return y0, q1_bounds, gamma2, ec, tuple(map(float, limit))


def _same(x, y):
    """Equal, or both nan (None standing for nan)."""
    x, y = (math.nan if v is None else v for v in (x, y))
    return x == y or (math.isnan(x) and math.isnan(y))


def test_array_simulation_matches_the_per_model_loop_bitwise():
    from dataclasses import replace

    from bb84_mismatch.decoy import _simulate

    for seed in range(6):
        models, cfg, lengths = _parity_channels(seed)
        stacked, (y1, ey1) = _simulate(models, cfg, lengths)
        assert stacked.gains.shape == stacked.error_rates.shape == (len(models), len(lengths), 3, 2, 2)
        assert y1.shape == ey1.shape == (len(models), len(lengths), 2)
        for c, model in enumerate(models):
            for k, length in enumerate(lengths):
                at = replace(model, length_km=float(length))
                alone = simulate_observations(at, cfg)
                loop = _simulate_loop(at, cfg)
                for got in (stacked.gains[c, k], alone.gains), (stacked.error_rates[c, k], alone.error_rates):
                    assert np.array_equal(*got)
                assert np.array_equal(alone.gains, loop[0]) and np.array_equal(alone.error_rates, loop[1])
                # The single-photon yields the limits read are the simulation's own.
                for beta in (0, 1):
                    assert y1[c, k, beta] == simulate_yield(at, 1, "z", beta)
                    assert ey1[c, k, beta] / y1[c, k, beta] == simulate_error(at, 1, "z", beta)
    # The lossless link's yields clamp at 1 from two photons on.
    assert simulate_yield(models[-1], 2, "z", 1) == 1.0 < 0.3 + 2 / 2


def test_array_bounds_and_limits_match_one_row_calls_and_scalar_formulas_bitwise():
    from dataclasses import replace

    from bb84_mismatch.decoy import _channel_rates, _ec_term, _gamma2_upper, _q1_bounds, _simulate, _y0_lower

    for seed in range(6):
        models, cfg, lengths = _parity_channels(seed)
        f_ec = (1.0, 1.16, 0.0)[seed % 3]
        stacked, singles = _simulate(models, cfg, lengths)
        y0, (lower, upper) = _y0_lower(stacked.gains, cfg), _q1_bounds(stacked.gains, cfg)
        ec = _ec_term(stacked, f_ec)
        (rate, lam, delta, a, b), _ = _evaluate(stacked, cfg, f_ec, None, singles, [m.eta for m in models])
        assert np.array_equal(_channel_rates(models, cfg, lengths, f_ec, False, True), rate, equal_nan=True)
        for c, model in enumerate(models):
            gamma2 = _gamma2_upper(stacked.gains[c], stacked.error_rates[c], cfg, model.eta)
            for k, length in enumerate(lengths):
                at = replace(model, length_km=float(length))
                obs = simulate_observations(at, cfg)
                ref_y0, ref_q1, ref_gamma2, ref_ec, ref_limit = _scalar_references(at, obs, cfg, f_ec)
                for beta in (0, 1):
                    assert y0[c, k, beta] == bound_Y0(obs, cfg, beta) == ref_y0[beta]
                    assert (lower[c, k, beta], upper[c, k, beta]) == bound_Q1(obs, cfg, beta) == ref_q1[beta]
                assert gamma2[k] == gamma2_upper(obs, cfg, model.eta) == ref_gamma2
                assert ec[c, k] == _ec_term(obs, f_ec) == ref_ec
                one = theoretical_limit(at, obs, cfg, f_ec=f_ec)
                assert _same(rate[c, k], one.rate) and _same(rate[c, k], ref_limit[0])
                assert _same(lam[c, k], one.lam) and _same(lam[c, k], ref_limit[1])
                assert _same(delta[c, k], one.delta)
                assert one.argmin is None or one.argmin == (a[c, k], b[c, k])


def test_decoy_sim_truncation_error_keeps_exit_code_and_stderr(capsys):
    from bb84_mismatch.cli import main
    from bb84_mismatch.decoy import _simulate

    with pytest.raises(TruncationError):
        _simulate([benchmark_model(0.0)], DecoyConfig(mu=8.0, nu1=0.1, nu2=0.0), [0.0, 10.0])
    assert main(["decoy-sim", "--mu", "8"]) == 1
    assert capsys.readouterr() == ("", "error: Poisson tail mass 3.551e-07 beyond i_max = 25 exceeds 1e-12\n")


def _one_row_results(d, lengths, f_ec, columns):
    """Each distance's ``decoy_keyrate`` and ``theoretical_limit`` results for
    the flags ``d``, one call per distance, relabelled as ``decoy-sim`` relabels."""
    from dataclasses import replace

    eta, dark = (d["eta0"], d["eta1"]), (d["dark0"], d["dark1"])
    if eta[0] < eta[1]:
        eta, dark = eta[::-1], dark[::-1]
    cfg = DecoyConfig(mu=d["mu"], nu1=d["nu1"], nu2=d["nu2"])
    rows = []
    for length in lengths.tolist():
        model = ChannelModel(d["alpha_db_km"], length, d["bob_loss_db"], d["e_det"], *eta, dark)
        matched = replace(model, eta0=(eta[0] + eta[1]) / 2.0, eta1=(eta[0] + eta[1]) / 2.0)
        obs = simulate_observations(model, cfg)
        calls = {
            "decoy": lambda: decoy_keyrate(obs, cfg, model.eta, f_ec),
            "theoretical_limit": lambda: theoretical_limit(model, obs, cfg, f_ec=f_ec),
            "no_mismatch_limit": lambda: theoretical_limit(
                matched, simulate_observations(matched, cfg), cfg, f_ec=f_ec
            ),
        }
        rows.append([calls[c]() for c in columns])
    return rows


def test_distance_rates_equal_the_one_row_calls_bitwise():
    from bb84_mismatch.cli import _BENCHMARK_DEFAULTS, _distance_rates

    every = ("decoy", "theoretical_limit", "no_mismatch_limit")
    cases = [
        ({}, np.linspace(0.0, 120.0, 25), 1.0, every),
        # Ascending detectors, relabelled together with their dark counts.
        ({"eta0": 0.07, "eta1": 0.1, "dark0": 3e-6}, np.linspace(0.0, 120.0, 25), 1.16, every),
        # High optical error: some boxes fail the corner test and are searched.
        ({"e_det": 0.3, "eta0": 0.04, "eta1": 0.1}, np.linspace(0.0, 400.0, 9), 1.0, every),
        # Gains at the bottom of the subnormals: boxes with no feasible point.
        ({"dark0": 0.0, "dark1": 0.0, "bob_loss_db": 3198.0, "eta1": 0.03}, np.linspace(0.0, 120.0, 13), 1.0,
         ("decoy",)),
        ({"e_det": 0.02, "nu2": 0.02}, np.linspace(10.0, 90.0, 7), 0.0, ("theoretical_limit", "decoy")),
    ]
    rng = np.random.default_rng(18)
    for _ in range(6):
        eta0, eta1 = rng.uniform(0.02, 0.3, 2)
        flags = {"eta0": float(eta0), "eta1": float(eta1), "e_det": float(rng.uniform(0.0, 0.1))}
        flags.update(dark0=float(10 ** rng.uniform(-8, -4)), dark1=float(10 ** rng.uniform(-8, -4)))
        cases.append((flags, np.linspace(0.0, float(rng.uniform(50.0, 250.0)), 11), 1.0, every))
    infeasible = searched = 0
    for flags, lengths, f_ec, columns in cases:
        d = {**_BENCHMARK_DEFAULTS, **flags}
        got = _distance_rates(d, lengths, f_ec, columns)
        assert got.shape == (len(lengths), len(columns))
        for row, results in zip(got.tolist(), _one_row_results(d, lengths, f_ec, columns)):
            assert all(_same(x, res.rate) for x, res in zip(row, results))
            infeasible += sum(res.rate is None for res in results)
            searched += sum(res.method == "decoy" and res.at_lower_corner is False for res in results)
    assert infeasible > 0 and searched > 0
