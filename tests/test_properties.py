"""Property tests of the key-rate method dispatcher, the rates behind it,
`decoy-sim`, and the error contract of the entry points that take a mismatch
eta."""

import contextlib
import io
import math

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
