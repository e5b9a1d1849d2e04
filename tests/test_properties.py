"""Property tests of the array sweep evaluator against the public rates, the
rates behind it, `decoy-sim`, the oracle `minimize` against the closed form,
the error contract of the entry points that take a mismatch eta, and the
exit-code contract of the CLI."""

import contextlib
import io
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bb84_mismatch import (  # noqa: E402
    ChannelModel,
    DecoyConfig,
    DecoyObservations,
    FeasibilityError,
    binary_entropy,
    build_gamma_set,
    channel_G,
    detection_imbalance,
    effective_phase_error,
    eigenvalues_check,
    error_correction_leak,
    feasible,
    gradient,
    ignorance_term,
    keyrate_balanced,
    keyrate_discard_optimized,
    keyrate_fung1,
    keyrate_fung2,
    keyrate_general,
    kkt_orthogonality_check,
    minimize,
    mismatch_penalty_ratio,
    objective,
    decoy_keyrate,
    gamma2_upper,
    optimal_attack_state,
    simulate_error,
    simulate_observations,
    theoretical_limit,
)
from bb84_mismatch.cli import _sweep_rates, main  # noqa: E402
from bb84_mismatch.decoy import _ec_term  # noqa: E402
from bb84_mismatch.keyrates import _MIN_GAIN, _admissible, _common_loss, _gains, _lam  # noqa: E402
from bb84_mismatch.protocol import GammaSet  # noqa: E402
from edge_corpus import edge_corpus  # noqa: E402

METHODS = ("balanced", "discard_optimized", "fung1", "fung2")
SWEEP_METHODS = METHODS + ("general", "penalty_ratio")

qber = st.floats(min_value=0.0, max_value=1.0)
unit_open = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
f_ec = st.floats(min_value=0.0, max_value=2.0)

props = settings(max_examples=150, deadline=None)


def _public_rate(method, q_z, q_x, eta, t, f, p_pass=None):
    """The public rate a sweep cell of ``method`` stands for, unscaled; nan
    where that call raises a ValueError or has no rate. The Fung et al. rates
    take the balanced pass rate, and only ``general`` reads p_pass."""
    p_bal = t * (1.0 + eta) / 2.0
    calls = {
        "balanced": lambda: keyrate_balanced(q_z, q_x, eta, t, f).rate,
        "discard_optimized": lambda: keyrate_discard_optimized(q_z, q_x, eta, t, f).rate,
        "fung1": lambda: keyrate_fung1(q_z, q_x, eta, p_bal).rate,
        "fung2": lambda: keyrate_fung2(q_z, q_x, eta, p_bal).rate,
        "general": lambda: keyrate_general(q_z, q_x, eta, t, p_pass, f).rate,
        "penalty_ratio": lambda: mismatch_penalty_ratio(q_x, eta),
    }
    try:
        rate = calls[method]()
    except ValueError:
        return math.nan
    return math.nan if rate is None else rate


def _two_detector_rate(q_z, q_x, eta0, eta1, method, t, f):
    """The rate `sweep --eta0 --eta1` computes for ``method`` at one point,
    unformatted; nan where it prints nan."""
    eta, scale = _common_loss(eta0, eta1)
    fixed = {"q_z": q_z, "q_x": q_x, "t": t, "f_ec": f}
    return _sweep_rates((method,), "eta", np.array([eta]), fixed, scale).item()


@seed(20261021)
@props
@given(qber, qber, unit_open, unit_open, st.sampled_from(METHODS), unit_open, f_ec)
def test_two_detectors_scale_the_normalized_rate(q_z, q_x, eta0, eta1, method, t, f):
    scale = max(eta0, eta1)
    base = _public_rate(method, q_z, q_x, min(eta0, eta1) / scale, t, f)
    got = _two_detector_rate(q_z, q_x, eta0, eta1, method, t, f)
    if math.isnan(base):
        assert math.isnan(got)
    else:
        assert got == scale * base


@seed(20261022)
@props
@given(qber, qber, unit_open, unit_open, st.sampled_from(METHODS), unit_open, f_ec)
def test_detector_relabelling_leaves_rate_unchanged(q_z, q_x, eta0, eta1, method, t, f):
    got, swapped = (_two_detector_rate(q_z, q_x, *etas, method, t, f) for etas in ((eta0, eta1), (eta1, eta0)))
    assert got == swapped or math.isnan(got) and math.isnan(swapped)


# f_ec stays at or below 1: fung2 is the pure-discarding rate at the Shannon
# limit, so with f_ec > 1 the optimized rate pays a larger leak than fung2.
@seed(20261023)
@props
@given(qber, qber, unit_open, unit_open, st.floats(min_value=0.0, max_value=1.0))
def test_discard_optimized_dominates_balanced_and_fung2(q_z, q_x, eta, t, f):
    best, balanced, fung2 = (
        _public_rate(m, q_z, q_x, eta, t, f) for m in ("discard_optimized", "balanced", "fung2")
    )
    # A ValueError (t*eta underflowing, say) meets the error contract; the
    # comparison needs all three rates.
    if not any(math.isnan(r) for r in (best, balanced, fung2)):
        assert best >= max(balanced, fung2) - 1e-12


_ENDPOINT = st.one_of(st.sampled_from([1e-9, 0.5, 1.0]), st.floats(min_value=1e-9, max_value=1.0))


@st.composite
def _sweep_case(draw):
    """An eta or q sweep of 2 to 9 rows with every method, its fixed
    parameters and, half the time, the two-detector scale."""
    variable = draw(st.sampled_from(["eta", "q"]))
    start, stop = sorted(draw(st.lists(_ENDPOINT, min_size=2, max_size=2, unique=True)))
    t = draw(st.one_of(st.sampled_from([5e-324, 1e-300]), unit_open))
    fixed = {"q_z": draw(qber), "q_x": draw(qber), "t": t, "f_ec": draw(f_ec), "p_pass": draw(unit_open)}
    fixed["eta"], scale = _common_loss(draw(unit_open), draw(unit_open)) if draw(st.booleans()) else (
        draw(unit_open), 1.0)
    return variable, np.linspace(start, stop, draw(st.integers(2, 9))), fixed, scale


# The examples pin each kind of nan cell: infeasible general rates (q_x = 0
# off the balanced pass rate; a pass rate far above a tiny t), ValueError
# (general at eta = 1 with p_pass != t; t*eta underflowing in the balanced
# rates) and NoKeyError (penalty ratios at q >= 0.15).
@seed(20261025)
@settings(max_examples=100, deadline=None)
@given(_sweep_case())
@example(("eta", np.linspace(0.2, 1.0, 5), {"q_z": 0.2, "q_x": 0.0, "t": 1.0, "f_ec": 1.0, "p_pass": 0.9}, 1.0))
@example(("q", np.linspace(0.0, 0.3, 7), {"q_z": 0.0, "q_x": 0.0, "t": 5e-324, "f_ec": 1.0, "p_pass": 0.5,
                                          "eta": 0.7}, 0.9))
def test_sweep_cells_equal_their_one_row_calls(case):
    variable, grid, fixed, scale = case
    table = _sweep_rates(SWEEP_METHODS, variable, grid, fixed, scale)
    assert table.shape == (grid.size, len(SWEEP_METHODS))
    for x, row in zip(grid.tolist(), table.tolist()):
        eta, q_z, q_x = (x, fixed["q_z"], fixed["q_x"]) if variable == "eta" else (fixed["eta"], x, x)
        for method, got in zip(SWEEP_METHODS, row):
            want = _public_rate(method, q_z, q_x, eta, fixed["t"], fixed["f_ec"], fixed["p_pass"])
            if method != "penalty_ratio":
                want *= scale
            assert got == want or math.isnan(got) and math.isnan(want), (method, x)


def _decoy_sim_rows(eta0, eta1, dark0, dark1, e_det, l_max):
    """Exit code and data rows of a three-distance ``decoy-sim`` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([
            "decoy-sim", "--l-min", "0", "--l-max", repr(l_max), "--l-steps", "3", "--e-det", repr(e_det),
            "--eta0", repr(eta0), "--eta1", repr(eta1), "--dark0", repr(dark0), "--dark1", repr(dark1),
        ])
    return code, [line for line in out.getvalue().splitlines() if not line.startswith("#")][1:]


efficiency = st.floats(min_value=0.01, max_value=1.0)
dark_count = st.floats(min_value=1e-8, max_value=1e-4)


# Few examples: each makes two decoy-sim runs.
@seed(20261019)
@settings(max_examples=12, deadline=None)
@given(efficiency, efficiency, dark_count, dark_count, st.floats(min_value=0.0, max_value=0.1),
       st.floats(min_value=1.0, max_value=200.0))
def test_decoy_sim_limit_is_finite_and_dominates_either_detector_order(eta0, eta1, dark0, dark1, e_det, l_max):
    code, rows = _decoy_sim_rows(eta0, eta1, dark0, dark1, e_det, l_max)
    assert code == 0
    for row in rows:
        _, decoy, limit, _ = (float(x) for x in row.split(","))
        if math.isfinite(decoy):
            assert math.isfinite(limit)
            assert decoy <= limit + 1e-10
    if eta0 != eta1:
        # Relabelling the outcomes is a symmetry: swapped flags, same rows.
        assert _decoy_sim_rows(eta1, eta0, dark1, dark0, e_det, l_max) == (code, rows)


@st.composite
def _oracle_point(draw):
    """(eta, t, delta, q_x) with q_x in the feasible interval of delta, half
    the time on its lower edge 2*q_x = 1 - sqrt(1 - delta^2), and 1 - eta
    log-uniform in [1e-15, 1e-2] in half the draws."""
    if draw(st.booleans()):
        eta = 1.0 - 10.0 ** draw(st.floats(min_value=-15.0, max_value=-2.0))
    else:
        eta = draw(st.floats(min_value=0.01, max_value=1.0))
    t = draw(st.floats(min_value=1e-3, max_value=1.0))
    # At eta = 1 the pass rate carries no imbalance.
    delta = 0.0 if eta == 1.0 else draw(st.floats(min_value=-0.999999, max_value=0.999999))
    root = math.sqrt(1.0 - delta * delta)
    lower = (1.0 - root) / 2.0
    q_x = lower if draw(st.booleans()) else draw(st.floats(min_value=lower, max_value=(1.0 + root) / 2.0))
    return eta, t, delta, q_x


@seed(20261018)
@settings(max_examples=400, deadline=None)
@given(_oracle_point())
# Lower-edge states whose least eigenvalue minimize's former allowance of
# 8*eps*kappa*t rejected after its pre-check had admitted the inputs.
@example((0.9992524965526236, 0.75, 0.6, 0.09999999999999998))
@example((0.993044464620526, 0.75, -0.76, 0.17503846381456156))
def test_minimize_attains_the_closed_form_over_the_domain(point):
    """|f* - ignorance_term| <= 2^-45*t off the q_x edge, ignorance_term
    raises exactly where minimize does, which is exactly where the rule
    ``keyrates._admissible`` rejects the closed form's lambda, and every
    state minimize returns is ``converged``.

    Both read the outcome-0 gain of ``keyrates._gains``, so off the edge the
    gap is the rounding of eigh and of the logarithms. On the edge the float
    inputs can leave the closed form's lambda below 0, by up to the rule's
    allowance, which grows as 1 - eta -> 0, where p_pass carries delta only
    through t*(1 - eta)*delta/2. The closed form reads such a lambda as 0.
    The solved state keeps the eigenvalue p*lambda/2 < 0 in each of its two
    blocks, and the objective's sum of w*log2(w) over positive eigenvalues
    drops it, so
    f* - F = p(1 - lambda)log2(p(1 - lambda)/2) - p*log2(p/2)
           = -p|lambda|log2(2/p) + p(1 + |lambda|)log2(1 + |lambda|),
    at most p|lambda|(log2(2/p) + 2) in size, as p <= t <= 1 and |lambda| <= 1:
    the objective's own sensitivity at lambda = 0.
    """
    eta, t, delta, q_x = point
    p_pass = t * ((1.0 + eta) / 2.0 + delta * (1.0 - eta) / 2.0)
    a, b = _gains(p_pass, t * eta, eta)
    p, lam = _lam(a, b, t, t * q_x, eta)
    try:
        report = minimize(build_gamma_set(eta), (t * eta, t * eta * q_x, p_pass))
    except FeasibilityError:
        assert not _admissible(lam, a, p, t, t * q_x, eta)
        with pytest.raises(ValueError):
            ignorance_term(q_x, eta, t, p_pass)
        return
    assert _admissible(lam, a, p, t, t * q_x, eta)
    assert report.converged
    assert report.constraint_residuals.max() <= 1e-14
    edge = p * max(-lam, 0.0) * (math.log2(2.0 / p) + 2.0)
    assert abs(report.f_star - ignorance_term(q_x, eta, t, p_pass)) <= 2.0**-45 * t + edge


def test_one_feasibility_rule_decides_every_entry_point_on_the_q_x_edge():
    """On 2,000 draws of the q_x-edge corpus (``edge_corpus``) the entry
    points that ask whether a PSD state matches the observations agree, as
    they all read ``keyrates._admits``: ``feasible`` with
    ``optimal_attack_state``, ``keyrate_general``'s rate with ``minimize``'s
    ``converged``, ``ignorance_term``'s raise with ``minimize``'s, and
    ``feasible`` with ``keyrate_general`` wherever 1 - eta >= 1e-3. Closer to
    eta = 1 the pass rate no longer fixes the outcome-0 gain that delta gives
    ``feasible``, so the last pair may differ."""
    disagree = {"attack": [], "converged": [], "raises": [], "rate": []}
    for eta, t, delta, q_x, p_pass in edge_corpus(20261022, 2000):
        feasible_here = bool(feasible(q_x, delta))
        try:
            optimal_attack_state(0.05, q_x, delta, t)
            attack = True
        except FeasibilityError:
            attack = False
        rate = keyrate_general(0.05, q_x, eta, t, p_pass).rate is not None
        try:
            report = minimize(build_gamma_set(eta), (t * eta, t * eta * q_x, p_pass))
            returned, converged = True, report.converged
        except FeasibilityError:
            returned = converged = False
        try:
            ignorance_term(q_x, eta, t, p_pass)
            closed_form = True
        except ValueError:
            closed_form = False
        pairs = {"attack": (feasible_here, attack), "converged": (rate, converged), "raises": (closed_form, returned),
                 "rate": (feasible_here, rate if 1.0 - eta >= 1e-3 else feasible_here)}
        for name, (x, y) in pairs.items():
            if x != y:
                disagree[name].append((eta, t, delta, q_x))
    assert disagree == {"attack": [], "converged": [], "raises": [], "rate": []}


@seed(20261031)
@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-13.0, max_value=-2.0), st.floats(min_value=1e-3, max_value=1.0),
       st.floats(min_value=-0.9, max_value=0.9), st.floats(min_value=0.25, max_value=0.75))
def test_minimize_kkt_residual_near_eta_one_is_rounding(log_gap, t, delta, place):
    """At 1 - eta = 10^log_gap, kkt_residual <= 2^-40 on interior points:
    |delta| <= 0.9 and q_x in the middle half of its feasible interval, where
    lambda >= 0.037.

    The residual is the gradient's distance from the span of the constant
    operators I, (I - J)/2 and G0 = diag(1, 0, 1, 0) (``minimize``'s
    docstring), one product with their exact projector on these full-rank
    states, whose condition does not depend on eta, and
    the solved state's entries are coefficients of at most two roundings of
    t, gamma_2/eta and the outcome-0 gain. So no factor 1/(1 - eta) reaches
    the residual, which Gamma_1 and Gamma_3 would bring with their condition
    number of about 4/(1 - eta). What is left is the rounding of eigh and of
    the logarithms, about eps/lambda ~ 6e-15 on these points; 2^-40 ~ 9e-13
    leaves room. Measured: at most 1.2e-14 over 4,000 seeded such points with
    1 - eta in [1e-15, 1e-2], where a solve on Gamma_1 and Gamma_3 read up
    to 2.07.
    """
    eta = 1.0 - 10.0**log_gap
    root = math.sqrt(1.0 - delta * delta)
    q_x = (1.0 - root) / 2.0 + place * root
    p_pass = t * ((1.0 + eta) + delta * (1.0 - eta)) / 2.0
    report = minimize(build_gamma_set(eta), (t * eta, t * eta * q_x, p_pass))
    assert report.converged
    assert report.kkt_residual <= 2.0**-40


def _kkt_by_compressed_least_squares(rho, eta):
    """(residual, |grad|_F): the stationarity residual as a real least-squares
    solve of the gradient compressed onto rho's eigenbasis on the compressed
    constant operators, written out here from the measurement model."""
    eye, anti = np.eye(4), np.eye(4)[::-1]
    ops = build_gamma_set(1.0).as_list() if eta == 1.0 else [eye, (eye - anti) / 2.0, np.diag([1.0, 0, 1, 0])]
    grad = gradient(rho, eta)
    U = np.linalg.eigh(rho)[1]
    flat = (U.conj().T @ np.array([grad, *ops]) @ U).reshape(len(ops) + 1, -1).view(float)
    coef = np.linalg.lstsq(flat[1:].T, flat[0], rcond=1e-12)[0]
    return float(np.linalg.norm(flat[0] - coef @ flat[1:])), float(np.linalg.norm(grad))


@seed(20261033)
@props
@given(st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32), st.floats(1e-3, 1.0),
       st.one_of(unit_open, st.floats(1.0, 15.0).map(lambda e: 1.0 - 10.0**-e), st.just(1.0)))
def test_full_rank_kkt_residual_is_the_compressed_least_squares_residual(entries, floor, eta):
    """On a full-rank state ``kkt_orthogonality_check`` takes one product with
    the constant projector; it must agree with the compressed solve, which is
    the same quantity as the compression is a rotation there, to 2^-45 times
    max(1, |grad|_F). The smallest eigenvalue is at least floor/36 of the
    largest, far above ``_FACE_CUTOFF``, so the face is always full."""
    raw = np.reshape(entries[:16], (4, 4)) + 1j * np.reshape(entries[16:], (4, 4))
    rho = raw @ raw.conj().T + floor * np.eye(4)
    rho /= np.trace(rho).real
    reference, size = _kkt_by_compressed_least_squares(rho, eta)
    assert abs(kkt_orthogonality_check(rho, eta) - reference) <= 2.0**-45 * max(1.0, size)


@seed(20261030)
@settings(max_examples=100, deadline=None)
@given(st.one_of(st.just(1.0), st.floats(min_value=0.01, max_value=0.99)), st.integers(1, 47), st.booleans())
def test_minimize_accepts_only_the_model_operators_exactly(eta, entry, up):
    # The solve rests on the symmetry of build_gamma_set(eta)'s operators, so
    # an entry one ulp off is refused. Entry 0, Gamma_1[0, 0], is where eta
    # is read; nudging it changes the model the values are checked against.
    values = (0.8 * eta, 0.04 * eta, 0.4 * (1.0 + eta))
    reference = minimize(build_gamma_set(eta), values)
    ops = np.array(build_gamma_set(eta).as_list())
    # Equal operators in other arrays, even complex ones, give the same report.
    same = minimize(GammaSet(*ops.astype(complex)), values)
    for field in fields(reference):
        assert np.array_equal(getattr(same, field.name), getattr(reference, field.name))
    ops.reshape(-1)[entry] = np.nextafter(ops.reshape(-1)[entry], math.inf if up else -math.inf)
    with pytest.raises(ValueError, match="not build_gamma_set") as info:
        minimize(GammaSet(*ops), values)
    assert not isinstance(info.value, FeasibilityError)


def _assert_oracle_minimum(eta, a, b, q, value):
    """``_assert_oracle_values`` at outcome gains (a, b) and x-error gain q:
    the values (eta*a + b, eta*q, a + b).

    At eta = 1 those values drop the outcome split that ``value`` rests on, so
    where a != b the program's minimum over every split can only be lower:
    there f* <= value within the slack is asserted.
    """
    _assert_oracle_values(eta, (eta * a + b, eta * q, a + b), value, one_sided=eta == 1.0 and a != b)


def _assert_oracle_values(eta, values, value, one_sided=False):
    """Assert that the convex program at constraint ``values`` and mismatch
    eta has f* = value within 2^-45*t/(1 - eta), or 2^-45*t at eta = 1, with
    t = values[0]/eta; only f* <= value within it if ``one_sided``. Values
    formed from gains round apart from them, and the program reads the
    outcome-0 gain back as (gamma_3 - gamma_1)/(1 - eta), within about
    eps/(1 - eta) of the gain ``value`` rests on.
    """
    t = values[0] / eta
    try:
        f_star = minimize(build_gamma_set(eta), values).f_star
    except ValueError:
        # Within 2^-48 of eta = 1 the values fix the imbalance only to about
        # eps/(1 - eta), and minimize may decline, as in the property above.
        assert 0.0 < 1.0 - eta < 2.0**-48
        return
    slack = 2.0**-45 * t / (1.0 - eta) if eta < 1.0 else 2.0**-45 * t
    if one_sided:
        assert f_star <= value + slack
    else:
        assert abs(f_star - value) <= slack


@st.composite
def _decoy_channel(draw):
    """A fiber channel with eta1 <= eta0, its intensities, f_ec, and whether
    the decoy row reads its observations with the outcomes swapped, which
    moves the box minimum off the lower corner and into the search."""
    mu = draw(st.floats(min_value=0.3, max_value=0.8))
    cfg = DecoyConfig(mu=mu, nu1=0.2 * mu, nu2=draw(st.floats(min_value=0.0, max_value=0.05)) * mu)
    eta0 = draw(st.floats(min_value=0.02, max_value=1.0))
    dark = [10.0 ** draw(st.floats(min_value=-8.0, max_value=-4.0)) for _ in range(2)]
    if draw(st.booleans()):
        dark[1] = dark[0]  # as decoy-sim's defaults: then the matched limit has equal outcome gains
    model = ChannelModel(
        0.2, draw(st.floats(min_value=0.0, max_value=200.0)), draw(st.floats(min_value=0.0, max_value=8.0)),
        draw(st.floats(min_value=0.0, max_value=0.1)), eta0, eta0 * draw(st.floats(min_value=0.05, max_value=1.0)),
        tuple(dark),
    )
    return model, cfg, draw(st.sampled_from([0.0, 1.0, 1.16])), draw(st.booleans())


# The oracle behind each printed decoy-sim row: at the row's argmin, the
# program's f* is the rate plus the error-correction leakage it subtracts.
@seed(20261027)
@settings(max_examples=150, deadline=None)
@given(_decoy_channel())
# Searched boxes, which the draws reach only a few times: swapped outcomes
# with a mismatch near 1/2, one of them at a negative rate.
@example((ChannelModel(0.2, 86.0, 5.0, 0.07, 0.4, 0.4 * 0.54, (1e-6, 1e-6)), DecoyConfig(0.5, 0.1, 0.0), 1.0, True))
@example((ChannelModel(0.2, 5.0, 4.0, 0.09, 0.79, 0.79 * 0.51, (1e-6, 1e-6)), DecoyConfig(0.5, 0.1, 0.0), 1.16, True))
@example((ChannelModel(0.2, 189.0, 6.0, 0.04, 0.04, 0.04 * 0.1, (1e-6, 1e-6)), DecoyConfig(0.5, 0.1, 0.0), 1.0, True))
def test_decoy_sim_rows_are_the_oracle_minimum_at_their_argmin(channel):
    model, cfg, f_ec, swap = channel
    obs = simulate_observations(model, cfg)
    estimated = DecoyObservations(gains=obs.gains[..., ::-1], error_rates=obs.error_rates[..., ::-1]) if swap else obs
    res = decoy_keyrate(estimated, cfg, model.eta, f_ec)
    if res.feasible:
        q = gamma2_upper(estimated, cfg, model.eta) / model.eta
        _assert_oracle_minimum(model.eta, *res.argmin, q, res.rate + float(_ec_term(estimated, f_ec)))
    matched = (model.eta0 + model.eta1) / 2.0
    for limited in (model, replace(model, eta0=matched, eta1=matched)):
        limited_obs = simulate_observations(limited, cfg)
        res = theoretical_limit(limited, limited_obs, cfg, f_ec=f_ec)
        (a, b), eta = res.argmin, limited.eta
        e1 = [simulate_error(limited, 1, "x", beta) for beta in (0, 1)]
        q = (eta * e1[0] * a + e1[1] * b) / eta
        _assert_oracle_minimum(eta, a, b, q, res.rate + float(_ec_term(limited_obs, f_ec)))


# The oracle behind the printed balanced and discard-optimized sweep cells:
# discarding zero outcomes with probability 1 - eta1* leaves gains
# (eta1*t/2, eta*t/2), mismatch eta/eta1* and transparency eta1*t.
@seed(20261028)
@settings(max_examples=200, deadline=None)
@given(qber, qber, st.floats(min_value=0.01, max_value=1.0), st.floats(min_value=1e-3, max_value=1.0), f_ec)
def test_sweep_rates_are_the_oracle_minimum_at_their_eta1(q_z, q_x, eta, t, f):
    for res in (keyrate_balanced(q_z, q_x, eta, t, f), keyrate_discard_optimized(q_z, q_x, eta, t, f)):
        eta1 = 1.0 if res.optimizer_args is None else res.optimizer_args[0]
        a, b = eta1 * t / 2.0, eta * t / 2.0
        _assert_oracle_minimum(eta / eta1, a, b, eta1 * t * q_x, res.rate + (a + b) * f * binary_entropy(q_z))


# The oracle behind the printed general sweep cells: the program at the rate's
# own inputs (t*eta, t*eta*q_x, p_pass), from which both read the outcome gains.
@seed(20261029)
@settings(max_examples=120, deadline=None)
@given(qber, st.floats(min_value=0.01, max_value=1.0), st.floats(min_value=1e-3, max_value=1.0), f_ec,
       st.floats(min_value=-0.99, max_value=0.99), st.floats(min_value=0.0, max_value=1.0))
def test_general_rates_are_the_oracle_minimum(q_z, eta, t, f, delta, place):
    # delta and q_x drawn inside the feasible region: |2q_x - 1| <= sqrt(1 - delta^2).
    root = math.sqrt(1.0 - delta * delta)
    q_x = (1.0 - root) / 2.0 + place * root
    p_pass = t * ((1.0 + eta) + delta * (1.0 - eta)) / 2.0
    rate = keyrate_general(q_z, q_x, eta, t, p_pass, f).rate
    if rate is not None:
        _assert_oracle_values(eta, (t * eta, t * eta * q_x, p_pass), rate + p_pass * f * binary_entropy(q_z))


_RHO = optimal_attack_state(0.05, 0.08, 0.02, 1.0)
_MODEL = ChannelModel(0.2, 20.0, 5.0, 0.01, 0.1, 0.07, (1e-6, 1e-6))
_CFG = DecoyConfig(mu=0.5, nu1=0.1, nu2=0.0)
_OBS = simulate_observations(_MODEL, _CFG)

# Each public entry point that takes eta, with its other arguments fixed.
ETA_ENTRY_POINTS = {
    "channel_G": lambda eta: channel_G(_RHO, eta),
    "objective": lambda eta: objective(_RHO, eta),
    "gradient": lambda eta: gradient(_RHO, eta),
    "kkt_orthogonality_check": lambda eta: kkt_orthogonality_check(_RHO, eta),
    "eigenvalues_check": lambda eta: eigenvalues_check(_RHO, eta),
    "error_correction_leak": lambda eta: error_correction_leak(_RHO, eta),
    "ignorance_term": lambda eta: ignorance_term(0.05, eta, 1.0, 0.75),
    "effective_phase_error": lambda eta: effective_phase_error(0.05, eta, 1.0, 0.75),
    # An infeasible rate is None.
    "theoretical_limit": lambda eta: theoretical_limit(_MODEL, _OBS, _CFG, eta=eta).rate,
}

any_eta = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1.0, 1.0 + 1e-15, 1.5, 2.0]),
    st.floats(),
)


@seed(20261024)
@props
@given(any_eta)
def test_eta_entry_points_return_finite_or_raise_value_error(eta):
    for name, call in ETA_ENTRY_POINTS.items():
        try:
            result = call(eta)
        except ValueError:
            continue
        assert 0.0 < eta <= 1.0, name  # an eta outside (0, 1] must raise
        assert result is None or np.all(np.isfinite(result)), name


# A pass rate far above a subnormal t overflowed the imbalance to inf, so
# effective_phase_error returned nan and keyrate_general a delta of inf.
@seed(20261026)
@props
@given(st.sampled_from([5e-324, 1e-320]), qber, unit_open, unit_open)
def test_subnormal_transparency_gives_finite_results_or_raises(t, q, eta, p_pass):
    calls = {
        "detection_imbalance": lambda: detection_imbalance(p_pass, t, eta),
        "effective_phase_error": lambda: effective_phase_error(q, eta, t, p_pass),
        "ignorance_term": lambda: ignorance_term(q, eta, t, p_pass),
        "keyrate_general": lambda: keyrate_general(q, q, eta, t, p_pass),
    }
    for name, call in calls.items():
        try:
            result = call()
        except ValueError:
            continue
        if name == "keyrate_general":
            # An infeasible result has no rate and no lambda, but its delta.
            result = (result.delta,) if not result.feasible else (result.rate, result.delta, result.lam)
        assert np.all(np.isfinite(result)), name


@st.composite
def _closed_form_point(draw):
    """(q_z, q_x, eta, t, p_pass) over the closed form's whole domain and past
    it: 1 - eta down to 1e-15, eta down to 1e-12, t down to subnormal, delta
    slightly beyond [-1, 1], p_pass = 0 or above t, q_x of 0 and 1/2."""
    eta = draw(st.one_of(st.just(1.0), st.floats(1e-12, 1.0), st.floats(1.0, 15.0).map(lambda e: 1.0 - 10.0**-e),
                         st.floats(0.0, 12.0).map(lambda e: 10.0**-e)))
    t = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0), st.floats(0.0, 323.0).map(lambda e: 10.0**-e),
                       st.sampled_from([5e-324, 1e-310])))
    delta = draw(st.floats(-1.05, 1.05))
    p_pass = draw(st.one_of(st.just(t * ((1.0 + eta) / 2.0 + delta * (1.0 - eta) / 2.0)), st.just(0.0),
                            st.floats(1.0, 2.0).map(lambda f: f * t)))
    q_x = draw(st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5), st.floats(0.0, 1.0)))
    return draw(st.floats(0.0, 0.2)), q_x, eta, t, p_pass


@seed(20261032)
@settings(max_examples=300, deadline=None)
@given(_closed_form_point())
def test_closed_form_and_oracle_return_finite_values_or_raise_value_errors(point):
    # pytest's configuration turns any RuntimeWarning into an error.
    q_z, q_x, eta, t, p_pass = point
    calls = {
        "keyrate_general": lambda: keyrate_general(q_z, q_x, eta, t, p_pass),
        "effective_phase_error": lambda: effective_phase_error(q_x, eta, t, p_pass),
        "ignorance_term": lambda: ignorance_term(q_x, eta, t, p_pass),
        "minimize": lambda: minimize(build_gamma_set(eta), (t * eta, t * eta * q_x, p_pass)),
    }
    for name, call in calls.items():
        try:
            result = call()
        except ValueError:
            continue
        if name == "keyrate_general":
            # A rate needs outcome gains of 0 or in the normal range: fewer bits are noise.
            gains = _gains(p_pass, t * eta, eta)
            assert not result.feasible or all(g == 0.0 or abs(g) >= _MIN_GAIN for g in gains), (gains, p_pass)
            # An infeasible result has no rate and no lambda, but its delta.
            result = (result.delta,) if not result.feasible else (result.rate, result.delta, result.lam)
        elif name == "minimize":
            result = (result.f_star, result.kkt_residual, *result.rho_star.ravel(), *result.constraint_residuals)
        assert np.all(np.isfinite(result)), name


# Flag values: about one in six is a float that breaks naive checks, the rest
# lie in [lo, hi]. Each goes as one ``--flag=value`` token, so "-inf" reads as a value.
_SPECIAL = st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1", "1e-320", "1e300"])


@st.composite
def _value(draw, lo, hi):
    if draw(st.sampled_from([False] * 5 + [True])):
        return draw(_SPECIAL)
    return repr(draw(st.floats(min_value=lo, max_value=hi)))


_UNIT = _value(0.0, 1.0)
_RATE_VALUES = {"--t": _UNIT, "--p-pass": _UNIT, "--f-ec": _value(0.0, 2.0)}
_CHANNEL_VALUES = {"--eta0": _UNIT, "--eta1": _UNIT, "--f-ec": _value(0.0, 2.0), "--mu": _value(0.2, 1.0),
                   "--nu1": _value(0.0, 0.15), "--nu2": _value(0.0, 0.05), "--alpha-db-km": _value(0.0, 0.5),
                   "--bob-loss-db": _value(0.0, 10.0), "--e-det": _value(0.0, 0.1), "--dark0": _value(0.0, 1e-4),
                   "--dark1": _value(0.0, 1e-4)}
_VERIFY_VALUES = {"--eta": _UNIT, "--grid-density": st.integers(-1, 3).map(str), "--perturb": _value(-1.0, 1.0)}
# A flag that each subcommand does not read.
_UNREAD = {"rate": "--mu=0.5", "sweep": "--l-max=50", "decoy-sim": "--eta=0.5", "verify": "--qz=0.1"}
_SWEEP_RANGES = {"eta": (0.0, 1.0), "q": (0.0, 0.5), "distance_km": (0.0, 200.0)}


@st.composite
def _cli_argv(draw):
    """A ``rate``, ``sweep`` (at most 3 steps), ``decoy-sim`` (2 distances) or
    ``verify`` (grid density at most 3) argument list, and whether it carries a
    flag the subcommand does not read."""
    command = draw(st.sampled_from(["rate", "sweep", "decoy-sim", "verify"]))
    if command == "rate":
        argv, optional = ["rate", f"--qz={draw(_UNIT)}", f"--qx={draw(_UNIT)}"], _RATE_VALUES
    elif command == "sweep":
        variable = draw(st.sampled_from(sorted(_SWEEP_RANGES)))
        names = ["decoy", "theoretical_limit"] if variable == "distance_km" else [
            "balanced", "discard_optimized", "fung1", "fung2", "general", "penalty_ratio"]
        methods = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))
        endpoint = _value(*_SWEEP_RANGES[variable])
        start, stop = sorted((draw(endpoint), draw(endpoint)), key=float)
        argv = ["sweep", f"--variable={variable}", f"--start={start}", f"--stop={stop}",
                f"--steps={draw(st.integers(2, 3))}", f"--methods={','.join(methods)}"]
        optional = {**_RATE_VALUES, "--qz": _UNIT, "--qx": _UNIT, **_CHANNEL_VALUES}
        del optional["--eta0"], optional["--eta1"]
    elif command == "decoy-sim":
        argv = ["decoy-sim", "--l-steps=2", f"--l-min={draw(_value(0.0, 50.0))}",
                f"--l-max={draw(_value(50.0, 200.0))}"]
        optional = _CHANNEL_VALUES
    else:
        argv, optional = ["verify"], _VERIFY_VALUES
    flags = draw(st.lists(st.sampled_from(sorted(optional)), unique=True, max_size=4))
    if command in ("rate", "sweep"):
        # The mismatch as --eta or as the pair --eta0/--eta1, mostly not both.
        flags += draw(st.sampled_from([[], ["--eta"], ["--eta0", "--eta1"], ["--eta", "--eta0", "--eta1"]]))
    argv += [f"{flag}={draw(optional.get(flag, _UNIT))}" for flag in flags]
    unread = draw(st.sampled_from([False] * 9 + [True]))
    if unread:
        argv.append(_UNREAD[command])
    return argv, unread


# About 4 s on a 2-core host; the budget is 5 s.
@seed(20261020)
@settings(max_examples=300, deadline=None)
@given(_cli_argv())
def test_cli_exits_zero_to_three_without_warnings(case):
    argv, unread = case
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    if unread:
        assert code == 1
    if argv[0] == "rate" and code == 0:
        (k,) = [line.split(" = ")[1] for line in out.getvalue().splitlines() if line.startswith("K = ")]
        assert math.isfinite(float(k))
    if argv[0] == "verify" and code == 0:
        assert "nan" not in out.getvalue()
