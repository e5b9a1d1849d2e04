"""Seeded inputs, the operation and the correctness check of each workload.

A workload is a sequence of operations fed by a closed loop: one caller in
one process sends the next operation only after the previous one returned.
The benchmark draws every input from ``--seed``; the program only receives
the generated inputs.

- ``certify``: ``build_gamma_set`` + ``minimize`` + ``ignorance_term`` at one
  point, checked against criterion 3's tolerances.
- ``decoy``: an in-process ``cli.main(["decoy-sim", ...])`` over 25 distances.
- ``sweep``: an in-process ``cli.main(["sweep", "--variable", "eta", ...])``
  over 99 mismatch values and five methods.

Each check returns ``(ok, discrepancy)``. ``discrepancy`` is the largest
disagreement with an independent reference (``agree_digits`` is its -log10):
the closed-form ignorance term for ``certify``, and this file's own
references for the CSV the CLI prints: the decoy rate and the theoretical
limit (``decoy``) and the balanced rate (``sweep``).
"""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np

import bb84_mismatch as bm
from bb84_mismatch import cli

WORKLOADS = ("certify", "decoy", "sweep")

# Criterion 3's tolerances.
CERTIFY_TOL = 1e-4
CERTIFY_LOWER_SLACK = 1e-6
DECOY_LIMIT_SLACK = 1e-10
SWEEP_DOMINANCE_SLACK = 1e-12
# Relative disagreement with the closed-form references above which a printed
# CSV value counts as wrong. Printing uses 12 significant digits.
REFERENCE_RTOL = 1e-9
# The decoy-rate reference's first grid over the estimated box, and the finer
# grids it zooms in with.
DECOY_REF_GRID = 65
DECOY_REF_ZOOM_GRID = 17
DECOY_REF_ZOOMS = 12

# One certify block: ten interior points, one point at eta = 1 and, last, one
# point on the qx = 0, delta = 0, eta < 1 boundary. A run starting at op 0
# therefore holds a fixed one-in-twelve boundary share.
CERTIFY_BLOCK = 12
CERTIFY_ETA1_SLOT = 5
# The boundary points are the criterion-3 grid's own, in the same order for
# every seed. A boundary op costs about ten interior ones, a run holds only
# three to five, and their cost jumps with eta (host-corrected, 0.5 s at
# 0.97-0.99 but 1.7-3.3 s near 0.41): seeded positions made certify's
# throughput a draw of those few.
CERTIFY_BOUNDARY_ETAS = (0.3, 0.5, 0.7, 0.9)
LATIN_BLOCK = 8

DECOY_STEPS = 25
DECOY_ETA0 = 0.1
SWEEP_STEPS = 99
SWEEP_START, SWEEP_STOP = 0.02, 1.0
SWEEP_METHODS = ("balanced", "discard_optimized", "fung1", "fung2", "penalty_ratio")
SWEEP_RATE_COLUMNS = ("balanced", "discard_optimized", "fung1", "fung2")


def _latin(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """n points in [0, 1)^dims, one in each of n equal slices of every axis."""
    strata = np.array([rng.permutation(n) for _ in range(dims)]).T
    return (strata + rng.random((n, dims))) / n


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def certify_inputs(seed: int, count: int) -> list[tuple[float, float, float, float]]:
    """``count`` points (eta, qx, delta, t) in the proportions of the
    criterion-3 grid: about one in ten interior points at t = 0.8, one in
    twelve at eta = 1 and a fixed one in twelve on the boundary."""
    rng = _rng("certify", seed)
    points = []
    for block in range((count + CERTIFY_BLOCK - 1) // CERTIFY_BLOCK):
        u = _latin(rng, 10, 3)
        low_t = rng.integers(10)
        interior = [
            (
                0.3 + 0.7 * float(a),
                0.02 + 0.09 * float(b),
                -0.05 + 0.1 * float(c),
                0.8 if k == low_t else 1.0,
            )
            for k, (a, b, c) in enumerate(u)
        ]
        interior.insert(CERTIFY_ETA1_SLOT, (1.0, 0.02 + 0.09 * float(rng.random()), 0.0, 1.0))
        eta_b = CERTIFY_BOUNDARY_ETAS[block % len(CERTIFY_BOUNDARY_ETAS)]
        points.extend(interior + [(eta_b, 0.0, 0.0, 1.0)])
    return points[:count]


def is_boundary(point: tuple[float, float, float, float]) -> bool:
    eta, qx, delta, _ = point
    return qx == 0.0 and delta == 0.0 and eta < 1.0


def mix_mean(workload: str, items: list, latencies: list[float]) -> float:
    """Mean op latency of the workload's input mix.

    A timed run stops wherever its time runs out, often inside a certify
    block, so its share of boundary points, which cost about ten interior
    points each, falls anywhere between 0 and 1/12. The boundary points
    therefore weigh exactly one in twelve here, whatever their share of the
    run.
    """
    if workload != "certify":
        return float(np.mean(latencies))
    boundary = np.array([is_boundary(p) for p in items])
    lat = np.asarray(latencies)
    if boundary.all() or not boundary.any():
        return float(lat.mean())
    share = 1.0 / CERTIFY_BLOCK
    return float((1.0 - share) * lat[~boundary].mean() + share * lat[boundary].mean())


def decoy_inputs(seed: int, count: int) -> list[list[str]]:
    """``decoy-sim`` argument lists: eta1 in [0.03, 0.1] against eta0 = 0.1,
    e_det in [0.005, 0.03], l_max in [60, 150] km."""
    rng = _rng("decoy", seed)
    out = []
    while len(out) < count:
        for a, b, c in _latin(rng, LATIN_BLOCK, 3):
            out.append(
                _decoy_argv(0.03 + 0.07 * float(a), 0.005 + 0.025 * float(b), 60.0 + 90.0 * float(c))
            )
    return out[:count]


def _decoy_argv(eta1: float, e_det: float, l_max: float) -> list[str]:
    return [
        "decoy-sim",
        "--l-steps", str(DECOY_STEPS),
        "--l-min", "0",
        "--l-max", repr(l_max),
        "--eta0", repr(DECOY_ETA0),
        "--eta1", repr(eta1),
        "--e-det", repr(e_det),
    ]


def sweep_inputs(seed: int, count: int) -> list[list[str]]:
    """``sweep`` argument lists over eta with qz and qx in [0, 0.11]."""
    rng = _rng("sweep", seed)
    out = []
    while len(out) < count:
        for a, b in _latin(rng, LATIN_BLOCK, 2):
            out.append(_sweep_argv(0.11 * float(a), 0.11 * float(b)))
    return out[:count]


def _sweep_argv(qz: float, qx: float) -> list[str]:
    return [
        "sweep",
        "--variable", "eta",
        "--start", repr(SWEEP_START),
        "--stop", repr(SWEEP_STOP),
        "--steps", str(SWEEP_STEPS),
        "--qz", repr(qz),
        "--qx", repr(qx),
        "--methods", ",".join(SWEEP_METHODS),
    ]


# Fixed warm-up inputs, independent of the seed, so set-up time does not
# depend on which points a seed draws.
WARMUP = {
    "certify": (0.7, 0.05, 0.0, 1.0),
    "decoy": _decoy_argv(0.07, 0.01, 120.0),
    "sweep": _sweep_argv(0.05, 0.05),
}


def inputs(workload: str, seed: int, count: int) -> list:
    return {"certify": certify_inputs, "decoy": decoy_inputs, "sweep": sweep_inputs}[workload](
        seed, count
    )


# --- operations --------------------------------------------------------------


def certify_op(point):
    """Oracle value and closed form at one point: (report, analytic)."""
    eta, qx, delta, t = point
    p_pass = t * ((1.0 + eta) / 2.0 + delta * (1.0 - eta) / 2.0)
    report = bm.minimize(bm.build_gamma_set(eta), (t * eta, t * eta * qx, p_pass))
    return report, bm.ignorance_term(qx, eta, t, p_pass)


def cli_op(argv):
    """Run the CLI in-process: (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


OPS = {"certify": certify_op, "decoy": cli_op, "sweep": cli_op}


# --- checks ------------------------------------------------------------------


def check_certify(point, result) -> tuple[bool, float]:
    report, analytic = result
    diff = abs(report.f_star - analytic)
    ok = bool(
        np.isfinite(report.f_star)
        and diff <= CERTIFY_TOL
        and report.f_star >= analytic - CERTIFY_LOWER_SLACK
    )
    return ok, diff if np.isfinite(diff) else math.inf


def _parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = rows[0].split(",")
    data = np.array([[float(x) for x in row.split(",")] for row in rows[1:]], dtype=float)
    return header, data.reshape(len(rows) - 1, len(header))


def _flag(argv, name: str) -> float:
    return float(argv[argv.index(name) + 1])


def _rel_diff(printed: np.ndarray, reference: tuple[np.ndarray, np.ndarray]) -> float:
    """Largest disagreement relative to the reference's term magnitudes.

    ``reference`` is (value, scale), scale being the summed magnitude of the
    entropy terms the value is made of, so that rates cancelling to near zero
    are held to the precision of their terms. A nan on one side only is
    infinitely far off.
    """
    value, scale = reference
    if np.any(np.isfinite(printed) != np.isfinite(value)):
        return math.inf
    both = np.isfinite(printed)
    if not both.any():
        return 0.0
    return float(np.max(np.abs(printed[both] - value[both]) / np.maximum(scale[both], 1e-300)))


def check_decoy(argv, result) -> tuple[bool, float]:
    code, text = result
    if code != 0:
        return False, math.inf
    try:
        header, data = _parse_csv(text)
    except (ValueError, IndexError):
        return False, math.inf
    if header != ["distance_km", "decoy", "theoretical_limit", "no_mismatch_limit"]:
        return False, math.inf
    if data.shape[0] != int(_flag(argv, "--l-steps")):
        return False, math.inf
    decoy, limit = data[:, 1], data[:, 2]
    both = np.isfinite(decoy) & np.isfinite(limit)
    ok = bool(np.all(decoy[both] <= limit[both] + DECOY_LIMIT_SLACK))
    channel = (data[:, 0], _flag(argv, "--eta0"), _flag(argv, "--eta1"), _flag(argv, "--e-det"))
    diff = max(
        _rel_diff(decoy, reference_decoy_rate(*channel)),
        _rel_diff(limit, reference_theoretical_limit(*channel)),
    )
    return ok and diff <= REFERENCE_RTOL, diff


def check_sweep(argv, result) -> tuple[bool, float]:
    code, text = result
    if code != 0:
        return False, math.inf
    try:
        header, data = _parse_csv(text)
    except (ValueError, IndexError):
        return False, math.inf
    if header != ["eta", *SWEEP_METHODS] or data.shape[0] != SWEEP_STEPS:
        return False, math.inf
    col = {name: data[:, header.index(name)] for name in header}
    rates = np.column_stack([col[m] for m in SWEEP_RATE_COLUMNS])
    ok = bool(np.all(np.isfinite(rates)))
    floor = np.maximum(col["balanced"], col["fung2"]) - SWEEP_DOMINANCE_SLACK
    ok = ok and bool(np.all(col["discard_optimized"] >= floor))
    reference = reference_balanced_rate(col["eta"], _flag(argv, "--qz"), _flag(argv, "--qx"))
    diff = _rel_diff(col["balanced"], reference)
    return ok and diff <= REFERENCE_RTOL, diff


CHECKS = {"certify": check_certify, "decoy": check_decoy, "sweep": check_sweep}


# --- closed-form references, written independently of the package -----------


def _h(p: np.ndarray) -> np.ndarray:
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    return np.where((p == 0.0) | (p == 1.0), 0.0, out)


def reference_balanced_rate(eta: np.ndarray, qz: float, qx: float) -> tuple[np.ndarray, np.ndarray]:
    """Balanced-pass-rate key rate (t = 1, f_ec = 1) and its term scale:
    (1+eta)/2 * [h(1/(1+eta)) - h(lambda) - h(qz)] with
    lambda = 1/2 - sqrt((1-eta)^2 + 4 eta (1-2qx)^2) / (2 (1+eta))."""
    eta = np.asarray(eta, dtype=float)
    lam = 0.5 - np.sqrt((1.0 - eta) ** 2 + 4.0 * eta * (1.0 - 2.0 * qx) ** 2) / (2.0 * (1.0 + eta))
    entropies = [_h(1.0 / (1.0 + eta)), _h(np.maximum(lam, 0.0)), np.full_like(eta, _h(qz))]
    terms = (1.0 + eta) / 2.0 * np.array(entropies)
    return terms[0] - terms[1] - terms[2], terms.sum(axis=0)


# The CLI's default decoy channel: signal and decoy intensities, attenuation,
# receiver loss, dark counts and photon-number cutoff.
_MU, _NU1, _NU2 = 0.5, 0.1, 0.0
_ALPHA_DB_KM, _BOB_LOSS_DB, _DARK, _I_MAX = 0.2, 5.0, 1e-6, 25


def _poisson(mu: float) -> np.ndarray:
    """Poisson weights of photon numbers 0 .. _I_MAX."""
    if mu == 0.0:
        return np.eye(1, _I_MAX + 1)[0]
    return np.array([math.exp(k * math.log(mu) - mu - math.lgamma(k + 1)) for k in range(_I_MAX + 1)])


def _channel(distance_km, eta0: float, eta1: float, e_det: float):
    """Per distance and outcome: the yields Y_i = dark + i T eta_b / 2 (at
    most 1) and the error-weighted yields (dark + i T e_det eta_b) / 2, shape
    (distances, 2, _I_MAX + 1), and the mismatch eta."""
    T = 10.0 ** (-(_ALPHA_DB_KM * np.asarray(distance_km, dtype=float) + _BOB_LOSS_DB) / 10.0)
    i_T_eff = np.arange(_I_MAX + 1)[None, None, :] * T[:, None, None] * np.array([eta0, eta1])[None, :, None]
    yields = np.minimum(_DARK + i_T_eff / 2.0, 1.0)
    error_yields = (_DARK + i_T_eff * e_det) / 2.0
    return yields, error_yields, min(eta0, eta1) / max(eta0, eta1)


def _ec_leak(yields: np.ndarray, error_yields: np.ndarray) -> np.ndarray:
    """f_ec Q h(E) (f_ec = 1) from the signal's gains summed over outcomes."""
    w = _poisson(_MU)
    q_total = (yields @ w).sum(axis=1)
    return q_total * _h(np.minimum((error_yields @ w).sum(axis=1) / q_total, 1.0))


def _singles_rate(a, b, q, eta: float, ec):
    """Rate from single-photon gains (a, b) and error parameter q, nan where
    infeasible (lambda(q) < -1e-15), and its term scale: with p = a + b,
    t = a + b / eta and lambda(x) = 1/2 - sqrt((a-b)^2 + eta (t-2x)^2) / (2p),
    p h(lambda(t/2)) - p h(lambda(q)) - ec."""
    p, t = a + b, a + b / eta
    with np.errstate(divide="ignore", invalid="ignore"):
        lam_t = 0.5 - np.abs(a - b) / (2.0 * p)
        lam_q = 0.5 - np.sqrt((a - b) ** 2 + eta * (t - 2.0 * q) ** 2) / (2.0 * p)
    terms = (p * _h(lam_t), p * _h(np.maximum(lam_q, 0.0)), ec)
    feasible = (p > 0.0) & (lam_q >= -1e-15)
    return np.where(feasible, terms[0] - terms[1] - terms[2], np.nan), terms[0] + terms[1] + terms[2]


def reference_theoretical_limit(
    distance_km: np.ndarray, eta0: float, eta1: float, e_det: float
) -> tuple[np.ndarray, np.ndarray]:
    """Key rate at the channel's true single-photon values (nan if
    infeasible) and its term scale.

    Single-photon gains Q1_b = Y1_b mu e^-mu; the x-basis error parameter
    q = (eta e1_0 Q1_0 + e1_1 Q1_1) / eta.
    """
    yields, error_yields, eta = _channel(distance_km, eta0, eta1, e_det)
    w1 = _MU * math.exp(-_MU)
    q1 = yields[:, :, 1] * w1
    q_err = (eta * error_yields[:, 0, 1] + error_yields[:, 1, 1]) * w1 / eta
    return _singles_rate(q1[:, 0], q1[:, 1], q_err, eta, _ec_leak(yields, error_yields))


def reference_decoy_rate(
    distance_km: np.ndarray, eta0: float, eta1: float, e_det: float
) -> tuple[np.ndarray, np.ndarray]:
    """Worst-case key rate over the decoy-estimated single-photon box (nan if
    no point of it is feasible) and its term scale at the minimiser.

    The box: Q1_b between the two-decoy lower bound (with the vacuum-yield
    bound Y0 >= (nu1 Q_d2 e^nu2 - nu2 Q_d1 e^nu1) / (nu1 - nu2), clamped into
    [0, Q_s]) and the signal gain Q_s; the error parameter is its decoy upper
    bound. The minimum is found by a dense grid over the box, refined by
    repeated finer grids around the best point.
    """
    yields, error_yields, eta = _channel(distance_km, eta0, eta1, e_det)
    mu, nu1, nu2 = _MU, _NU1, _NU2
    gains = yields @ np.array([_poisson(mu), _poisson(nu1), _poisson(nu2)]).T
    error_gains = error_yields @ np.array([_poisson(nu1), _poisson(nu2)]).T
    q_s, q_d1, q_d2 = gains[:, :, 0], gains[:, :, 1], gains[:, :, 2]
    y0 = np.maximum((nu1 * q_d2 * math.exp(nu2) - nu2 * q_d1 * math.exp(nu1)) / (nu1 - nu2), 0.0)
    lower = (
        mu**2 * math.exp(-mu) / (mu * nu1 - mu * nu2 - nu1**2 + nu2**2)
        * (q_d1 * math.exp(nu1) - q_d2 * math.exp(nu2) - (nu1**2 - nu2**2) / mu**2 * (q_s * math.exp(mu) - y0))
    )
    box_lo, box_hi = np.clip(lower, 0.0, q_s), q_s
    weighted = error_gains[:, 0, :] + error_gains[:, 1, :] / eta
    q_err = np.maximum(
        (weighted[:, 0] * math.exp(nu1) - weighted[:, 1] * math.exp(nu2)) * mu * math.exp(-mu) / (nu1 - nu2),
        0.0,
    )[:, None]
    ec = _ec_leak(yields, error_yields)[:, None]

    rows = np.arange(box_lo.shape[0])
    lo, hi = box_lo.copy(), box_hi.copy()
    best = np.full(rows.size, np.inf)
    scale = np.full(rows.size, np.nan)
    for n in (DECOY_REF_GRID,) + (DECOY_REF_ZOOM_GRID,) * DECOY_REF_ZOOMS:
        grid = lo[:, :, None] + (hi - lo)[:, :, None] * np.linspace(0.0, 1.0, n)
        a, b = np.broadcast_arrays(grid[:, 0, :, None], grid[:, 1, None, :])
        rate, term_scale = _singles_rate(a, b, q_err[:, :, None], eta, ec[:, :, None])
        flat = np.where(np.isnan(rate), np.inf, rate).reshape(rows.size, -1)
        k = flat.argmin(axis=1)
        better = flat[rows, k] < best
        best = np.where(better, flat[rows, k], best)
        scale = np.where(better, term_scale.reshape(rows.size, -1)[rows, k], scale)
        # Next grid: two steps of this one either side of its best point.
        centre = np.stack([a.reshape(rows.size, -1)[rows, k], b.reshape(rows.size, -1)[rows, k]], axis=1)
        step = 2.0 * (hi - lo) / (n - 1)
        lo, hi = np.maximum(centre - step, box_lo), np.minimum(centre + step, box_hi)
    return np.where(np.isfinite(best), best, np.nan), scale
