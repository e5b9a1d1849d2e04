"""Property tests of the key-rate method dispatcher, the rates behind it,
`decoy-sim`, the error contract of the entry points that take a mismatch
eta, and the exit-code contract of the CLI."""

import contextlib
import io
import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bb84_mismatch import (  # noqa: E402
    ChannelModel,
    DecoyConfig,
    channel_G,
    effective_phase_error,
    eigenvalues_check,
    error_correction_leak,
    gradient,
    ignorance_term,
    keyrate_two_detectors,
    kkt_orthogonality_check,
    objective,
    optimal_attack_state,
    simulate_observations,
    theoretical_limit,
)
from bb84_mismatch.cli import main  # noqa: E402
from bb84_mismatch.keyrates import _method_rate  # noqa: E402

METHODS = ("balanced", "discard_optimized", "fung1", "fung2")

qber = st.floats(min_value=0.0, max_value=1.0)
unit_open = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
f_ec = st.floats(min_value=0.0, max_value=2.0)

props = settings(max_examples=150, deadline=None)


def _rate_or_error(fn, *args):
    try:
        return fn(*args).rate
    except ValueError as exc:
        return type(exc)


@props
@given(qber, qber, unit_open, unit_open, st.sampled_from(METHODS), unit_open, f_ec)
def test_two_detectors_scale_the_normalized_rate(q_z, q_x, eta0, eta1, method, t, f):
    scale = max(eta0, eta1)
    base = _rate_or_error(_method_rate, method, q_z, q_x, min(eta0, eta1) / scale, t, f)
    got = _rate_or_error(keyrate_two_detectors, q_z, q_x, eta0, eta1, method, t, f)
    if isinstance(base, float):
        assert got == scale * base
    else:
        assert got == base


@props
@given(qber, qber, unit_open, unit_open, st.sampled_from(METHODS), unit_open, f_ec)
def test_detector_relabelling_leaves_rate_unchanged(q_z, q_x, eta0, eta1, method, t, f):
    assert _rate_or_error(keyrate_two_detectors, q_z, q_x, eta0, eta1, method, t, f) == (
        _rate_or_error(keyrate_two_detectors, q_z, q_x, eta1, eta0, method, t, f)
    )


# f_ec stays at or below 1: fung2 is the pure-discarding rate at the Shannon
# limit, so with f_ec > 1 the optimized rate pays a larger leak than fung2.
@props
@given(qber, qber, unit_open, unit_open, st.floats(min_value=0.0, max_value=1.0))
def test_discard_optimized_dominates_balanced_and_fung2(q_z, q_x, eta, t, f):
    best, balanced, fung2 = (
        _rate_or_error(_method_rate, m, q_z, q_x, eta, t, f)
        for m in ("discard_optimized", "balanced", "fung2")
    )
    # A ValueError (t*eta underflowing, say) meets the error contract; the
    # comparison needs all three rates.
    if all(isinstance(r, float) for r in (best, balanced, fung2)):
        assert best >= max(balanced, fung2) - 1e-12


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
# A flag that each subcommand does not read.
_UNREAD = {"rate": "--mu=0.5", "sweep": "--l-max=50", "decoy-sim": "--eta=0.5"}
_SWEEP_RANGES = {"eta": (0.0, 1.0), "q": (0.0, 0.5), "distance_km": (0.0, 200.0)}


@st.composite
def _cli_argv(draw):
    """A ``rate``, ``sweep`` (at most 3 steps) or ``decoy-sim`` (2 distances)
    argument list, and whether it carries a flag the subcommand does not read."""
    command = draw(st.sampled_from(["rate", "sweep", "decoy-sim"]))
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
    else:
        argv = ["decoy-sim", "--l-steps=2", f"--l-min={draw(_value(0.0, 50.0))}",
                f"--l-max={draw(_value(50.0, 200.0))}"]
        optional = _CHANNEL_VALUES
    flags = draw(st.lists(st.sampled_from(sorted(optional)), unique=True, max_size=4))
    if command != "decoy-sim":
        # The mismatch as --eta or as the pair --eta0/--eta1, mostly not both.
        flags += draw(st.sampled_from([[], ["--eta"], ["--eta0", "--eta1"], ["--eta", "--eta0", "--eta1"]]))
    argv += [f"{flag}={draw(optional.get(flag, _UNIT))}" for flag in flags]
    unread = draw(st.sampled_from([False] * 9 + [True]))
    if unread:
        argv.append(_UNREAD[command])
    return argv, unread


# About 2 s on a 2-core host; the budget is 5 s.
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
