import math
import sys

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
    gamma2_upper,
    poisson_gain,
    simulate_error,
    simulate_observations,
    simulate_yield,
    theoretical_limit,
    transmittance,
)
from bb84_mismatch.decoy import DecoyObservations, _decoy_keyrates, _poisson_weights, poisson_pmf

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


def test_poisson_weights_are_cached_read_only():
    weights = _poisson_weights(0.5, 25)
    assert _poisson_weights(0.5, 25) is weights
    with pytest.raises(ValueError):
        weights[0] = 1.0


def _seeded_boxes(seed, count):
    """Observations of seeded channels, each also with its outcome axis swapped,
    all under one config and mismatch as ``_decoy_keyrates`` takes them."""
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


def _decoy_argmin_loop(obs, cfg, eta, f_ec):
    """The grid scan and coordinate descent of golden-section searches that
    decoy_keyrate ran before its array zoom, kept as the reference."""
    from bb84_mismatch.decoy import _ec_term, _singles_rate
    from bb84_mismatch.keyrates import _golden_min

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
    from bb84_mismatch.decoy import _box_result, _ec_term

    return _box_result(a, b, gamma2_upper(obs, cfg, eta) / eta, eta, _ec_term(obs, f_ec), "decoy").rate


def test_batched_boxes_match_one_box_at_a_time():
    off_corner = 0
    for seed in range(12):
        observations, cfg, eta = _seeded_boxes(seed, 8)
        f_ec = (1.0, 1.16, 0.0)[seed % 3]
        together = _decoy_keyrates(observations, cfg, eta, f_ec)
        assert len(together) == len(observations)
        for obs, res in zip(observations, together):
            alone = decoy_keyrate(obs, cfg, eta, f_ec)
            assert (res.rate, res.lam, res.delta, res.argmin, res.at_lower_corner) == (
                alone.rate, alone.lam, alone.delta, alone.argmin, alone.at_lower_corner
            )
            assert res.feasible == alone.feasible
            # The coordinate descent is the reference: the zoom never reports
            # a higher rate, and keeps every minimum the descent found at the lower corner.
            reference = _decoy_argmin_loop(obs, cfg, eta, f_ec)
            assert (reference is None) == (alone.argmin is None)
            if reference is not None:
                assert alone.rate <= _rate_at(*reference, obs, cfg, eta, f_ec)
                if reference == (bound_Q1(obs, cfg, 0)[0], bound_Q1(obs, cfg, 1)[0]):
                    assert alone.argmin == reference
            off_corner += res.at_lower_corner is False
    # Minima off the corner, where the zoom moves, are exercised too.
    assert off_corner > 0
    assert _decoy_keyrates([], BENCHMARK_CFG, 0.7, 1.0) == []


def test_decoy_keyrate_is_at_most_the_dense_grid_minimum():
    from bb84_mismatch.decoy import _ec_term, _singles_rate

    feasible = 0
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
            assert decoy_keyrate(obs, cfg, eta, f_ec).rate <= dense + 1e-12 * max(abs(dense), ec)
    assert feasible > 100
