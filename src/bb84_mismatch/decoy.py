"""Decoy-state estimation for weak-coherent-pulse sources.

Per-basis, per-outcome gain bookkeeping for one signal and two decoy
intensities, single-photon yield and error bounds, the worst-case key rate
over the estimated box, and the fiber-channel model used to simulate the
observations. Detector-efficiency mismatch makes the statistics
outcome-dependent, so every quantity is tracked separately for Bob's
outcomes 0 and 1. Outcome 1 is the less efficient detector's: the
single-photon transparency a + b/eta and ``gamma2_upper`` divide its gains by
the mismatch eta <= 1, so a channel whose outcome 0 is the weaker one must be
relabelled (swap the outcomes, a symmetry of BB84) before estimation.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, TruncationError, _require_in
from .keyrates import KeyRateResult, _entropy_args, _require_f_ec, detection_imbalance
from .linalg import binary_entropy

INTENSITIES = ("s", "d1", "d2")
BASES = ("z", "x")

# Outcome 1's gains are divided by eta, so eta must exceed 1/max, below which
# 1/eta is not finite.
_ETA_MIN = 1.0 / sys.float_info.max


@dataclass(frozen=True)
class DecoyConfig:
    """Signal and decoy intensities plus the photon-number cutoff.

    Requires 0 <= nu2 < nu1 and nu1 + nu2 < mu, the regime in which the
    single-photon bounds hold.
    """

    mu: float
    nu1: float
    nu2: float
    i_max: int = 25

    def __post_init__(self):
        # Checks are written so that nan fails them.
        _require_in("mu", self.mu, 0.0, math.inf, open_lo=True, error=ConfigError)
        if not 0.0 <= self.nu2 < self.nu1:
            raise ConfigError(f"decoy intensities must satisfy 0 <= nu2 < nu1, got {self.nu1}, {self.nu2}")
        if self.nu1 + self.nu2 >= self.mu:
            raise ConfigError(
                f"decoy intensities must satisfy nu1 + nu2 < mu, got {self.nu1} + {self.nu2} >= {self.mu}"
            )
        if not (isinstance(self.i_max, (int, np.integer)) and self.i_max >= 10):
            raise ConfigError(f"i_max = {self.i_max} must be an integer of at least 10")

    def intensity(self, v: str) -> float:
        return {"s": self.mu, "d1": self.nu1, "d2": self.nu2}[v]


@dataclass(frozen=True)
class DecoyObservations:
    """Gains Q^{v b beta} and error rates E^{v b beta}, shape (3, 2, 2).

    Axes: intensity (s, d1, d2), basis (z, x), Bob's outcome (0, 1).
    """

    gains: np.ndarray
    error_rates: np.ndarray

    def __post_init__(self):
        for name in ("gains", "error_rates"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape != (3, 2, 2):
                raise ValueError(f"{name} must have shape (3, 2, 2), got {arr.shape}")
            if np.any(arr < 0.0) or np.any(arr > 1.0):
                raise ValueError(f"{name} entries must lie in [0, 1]")

    def gain(self, v: str, b: str, beta: int) -> float:
        return float(self.gains[INTENSITIES.index(v), BASES.index(b), beta])

    def error_rate(self, v: str, b: str, beta: int) -> float:
        return float(self.error_rates[INTENSITIES.index(v), BASES.index(b), beta])

    def error_gain(self, v: str, b: str, beta: int) -> float:
        """The product E^{v b beta} * Q^{v b beta}."""
        return self.error_rate(v, b, beta) * self.gain(v, b, beta)


@dataclass(frozen=True)
class ChannelModel:
    """Fiber link with lossy detectors, dark counts and a fixed optical error.

    Requires eta0 >= eta1: outcome 1 is the less efficient detector's (see
    the module docstring).
    """

    alpha_db_per_km: float
    length_km: float
    bob_loss_db: float
    e_det: float
    eta0: float
    eta1: float
    dark: tuple[float, float]

    def __post_init__(self):
        for name in ("alpha_db_per_km", "length_km", "bob_loss_db"):
            _require_in(name, getattr(self, name), 0.0, math.inf)
        for name, p in zip(("e_det", "dark0", "dark1"), (self.e_det, *self.dark)):
            _require_in(name, p, 0.0, 1.0)
        for name in ("eta0", "eta1"):
            _require_in(name, getattr(self, name), 0.0, 1.0, open_lo=True)
        if self.eta0 < self.eta1:
            raise ValueError(
                f"eta0 = {self.eta0} < eta1 = {self.eta1}: outcome 1 must be the less efficient "
                "detector; relabel the outcomes by swapping eta0/eta1 and the dark counts"
            )

    @property
    def eta(self) -> float:
        return self.eta1 / self.eta0

    def efficiency(self, beta: int) -> float:
        return (self.eta0, self.eta1)[beta]


def transmittance(model: ChannelModel) -> float:
    """Probability that a photon reaches Bob's detectors."""
    return 10.0 ** (-(model.alpha_db_per_km * model.length_km + model.bob_loss_db) / 10.0)


def _photon_yields(model: ChannelModel, i, beta: int):
    """Yield Y_i and error-weighted yield e_i * Y_i on detector beta, for a
    photon number ``i`` or an integer array of them; dark counts are errors
    half the time. Formulas in ``simulate_yield`` and ``simulate_error``.
    """
    arrived = i * transmittance(model)
    eff = model.efficiency(beta)
    y = np.minimum(model.dark[beta] + arrived * eff / 2.0, 1.0)
    ey = (model.dark[beta] + arrived * model.e_det * eff) / 2.0
    return y, ey


def simulate_yield(model: ChannelModel, i: int, b: str, beta: int) -> float:
    """Detection probability of an i-photon pulse on detector beta.

    dark + i * T * eta_beta / 2, clamped to 1; the linear-in-i form neglects
    multiple photons surviving the line, which is accurate for lossy links.
    Basis-independent in this model.
    """
    if i < 0:
        raise ValueError("photon number must be non-negative")
    if b not in BASES:
        raise ValueError(f"unknown basis {b!r}")
    return float(_photon_yields(model, i, beta)[0])


def simulate_error(model: ChannelModel, i: int, b: str, beta: int) -> float:
    """Error rate of an i-photon pulse on detector beta.

    (dark + i * T * e_det * eta_beta) / (2 * Y_i); equals 1/2 for pure dark
    counts and e_det for a dark-count-free link.
    """
    y = simulate_yield(model, i, b, beta)
    if y <= 0.0:
        raise ValueError(f"yield vanishes for i = {i}, beta = {beta}; error rate undefined")
    return float(_photon_yields(model, i, beta)[1]) / y


def poisson_pmf(i: int, mu: float) -> float:
    """Poisson weight mu^i e^-mu / i!, with the mu = 0 case concentrated at i = 0."""
    if mu == 0.0:
        return 1.0 if i == 0 else 0.0
    return math.exp(i * math.log(mu) - mu - math.lgamma(i + 1))


@functools.lru_cache(maxsize=64)
def _poisson_weights(mu: float, i_max: int) -> np.ndarray:
    """Poisson weights for i = 0..i_max, read-only, as they are cached and
    shared by every caller with the same (mu, i_max).

    Raises:
        TruncationError: if the Poisson tail mass beyond i_max is >= 1e-12.
    """
    weights = np.array([poisson_pmf(i, mu) for i in range(i_max + 1)])
    tail = 1.0 - float(weights.sum())
    if tail >= 1e-12:
        raise TruncationError(
            f"Poisson tail mass {tail:.3e} beyond i_max = {i_max} exceeds 1e-12"
        )
    weights.flags.writeable = False
    return weights


def poisson_gain(yields, mu_v: float, i_max: int) -> float:
    """Gain sum_i Y_i * Poisson(i; mu_v) truncated at i_max.

    Raises:
        TruncationError: if the Poisson tail mass beyond i_max is >= 1e-12.
    """
    weights = _poisson_weights(mu_v, i_max)
    y = np.asarray(list(yields), dtype=float)[: i_max + 1]
    if y.size < i_max + 1:
        raise ValueError("need yields up to i_max")
    return float(np.dot(y, weights))


def simulate_observations(model: ChannelModel, cfg: DecoyConfig) -> DecoyObservations:
    """Observed gains and error rates for all intensities, bases and outcomes.

    The yields and error-weighted yields are arrays over photon number, built
    once per outcome; the Poisson weights once per intensity. Each gain is one
    dot product over i = 0..i_max. The model is basis-independent, so both
    bases get the same values.

    Raises:
        TruncationError: if an intensity leaves Poisson tail mass >= 1e-12
            beyond ``cfg.i_max``.
    """
    per_outcome = [_photon_yields(model, np.arange(cfg.i_max + 1), beta) for beta in (0, 1)]
    gains = np.zeros((3, 2, 2))
    errors = np.zeros((3, 2, 2))
    for vi, v in enumerate(INTENSITIES):
        weights = _poisson_weights(cfg.intensity(v), cfg.i_max)
        for beta, (y, ey) in enumerate(per_outcome):
            q = float(np.dot(y, weights))
            gains[vi, :, beta] = q
            errors[vi, :, beta] = float(np.dot(ey, weights)) / q if q > 0.0 else 0.0
    return DecoyObservations(gains=gains, error_rates=errors)


def bound_Y0(obs: DecoyObservations, cfg: DecoyConfig, beta: int) -> float:
    """Lower bound on the vacuum yield from the two decoy gains in the z basis."""
    q1 = obs.gain("d1", "z", beta)
    q2 = obs.gain("d2", "z", beta)
    raw = (cfg.nu1 * q2 * math.exp(cfg.nu2) - cfg.nu2 * q1 * math.exp(cfg.nu1)) / (
        cfg.nu1 - cfg.nu2
    )
    return max(raw, 0.0)


def bound_Q1(obs: DecoyObservations, cfg: DecoyConfig, beta: int) -> tuple[float, float]:
    """Lower and upper bounds on the single-photon signal gain Q_1^{s z beta}.

    The upper bound is the full signal gain; the lower bound combines the
    decoy gains with the vacuum-yield bound and is clamped into [0, upper].
    """
    mu, nu1, nu2 = cfg.mu, cfg.nu1, cfg.nu2
    den = mu * nu1 - mu * nu2 - nu1**2 + nu2**2
    if den <= 0.0:
        raise ConfigError("degenerate decoy intensities: mu*nu1 - mu*nu2 - nu1^2 + nu2^2 <= 0")
    qs = obs.gain("s", "z", beta)
    qd1 = obs.gain("d1", "z", beta)
    qd2 = obs.gain("d2", "z", beta)
    y0 = bound_Y0(obs, cfg, beta)
    lower = (
        mu**2
        * math.exp(-mu)
        / den
        * (
            qd1 * math.exp(nu1)
            - qd2 * math.exp(nu2)
            - (nu1**2 - nu2**2) / mu**2 * (qs * math.exp(mu) - y0)
        )
    )
    upper = qs
    return (min(max(lower, 0.0), upper), upper)


def bound_e1q1(obs: DecoyObservations, cfg: DecoyConfig, beta: int) -> float:
    """Upper bound on the single-photon error-gain product e_1 * Q_1^{s x beta}."""
    nu1, nu2 = cfg.nu1, cfg.nu2
    raw = (
        obs.error_gain("d1", "x", beta) * math.exp(nu1)
        - obs.error_gain("d2", "x", beta) * math.exp(nu2)
    ) * cfg.mu * math.exp(-cfg.mu) / (nu1 - nu2)
    return max(raw, 0.0)


def gamma2_upper(obs: DecoyObservations, cfg: DecoyConfig, eta: float) -> float:
    """Upper bound q*eta on the weighted x-basis error-rate constraint value.

    Outcome 1's error gains are divided by eta: it is the less efficient
    detector's.
    """
    _require_in("eta", eta, _ETA_MIN, 1.0, open_lo=True)
    nu1, nu2 = cfg.nu1, cfg.nu2
    q = (
        (obs.error_gain("d1", "x", 0) + obs.error_gain("d1", "x", 1) / eta)
        * math.exp(nu1)
        - (obs.error_gain("d2", "x", 0) + obs.error_gain("d2", "x", 1) / eta)
        * math.exp(nu2)
    ) * cfg.mu * math.exp(-cfg.mu) / (nu1 - nu2)
    return max(q, 0.0) * eta


def _singles_rate(q1_0, q1_1, q: float, eta: float, ec_term: float):
    """Key rate from single-photon gains (q1_0, q1_1) and x-error gain q: the
    closed form ``keyrates._entropy_args``, elementwise over scalars or arrays.

    Returns (rate, lambda_of_q), both nan where the point is infeasible: no
    detections, or a phase-error argument below -1e-15. ``ec_term`` is the
    full error-correction leakage, already multiplied by its gain.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        p_pass, arg, lam_q = _entropy_args(q1_0, q1_1, q1_0 + q1_1 / eta, q, eta)
    ok = (p_pass > 0.0) & (lam_q >= -1e-15)
    # Infeasible points get entropy arguments of 0, so h() sees no nan.
    lam_q = _where(ok, np.maximum(lam_q, 0.0), 0.0)
    rate = p_pass * (binary_entropy(_where(ok, arg, 0.0)) - binary_entropy(lam_q)) - ec_term
    return _where(ok, rate, np.nan), _where(ok, lam_q, np.nan)


def _where(ok, x, fill):
    """``np.where(ok, x, fill)``; a scalar ``ok`` (``_box_result``'s single
    point) picks without it, as ``np.where`` costs more than the formula itself."""
    return np.where(ok, x, fill) if isinstance(ok, np.ndarray) else (x if ok else fill)


def _ec_term(obs: DecoyObservations, f_ec: float) -> float:
    _require_f_ec(f_ec)
    q_total = obs.gain("s", "z", 0) + obs.gain("s", "z", 1)
    if q_total <= 0.0:
        return 0.0
    e_total = (obs.error_gain("s", "z", 0) + obs.error_gain("s", "z", 1)) / q_total
    return f_ec * q_total * binary_entropy(min(e_total, 1.0))


def _box_result(a: float, b: float, q: float, eta: float, ec: float, method: str) -> KeyRateResult:
    """The rate at single-photon gains (a, b), as a result with argmin (a, b)."""
    rate, lam_q = _singles_rate(a, b, q, eta, ec)
    if math.isnan(rate):
        return KeyRateResult(rate=None, feasible=False, delta=None, lam=None, method=method)
    return KeyRateResult(
        rate=float(rate),
        feasible=True,
        delta=detection_imbalance(a + b, a + b / eta, eta),
        lam=float(lam_q),
        method=method,
        argmin=(a, b),
    )


def decoy_keyrate(
    obs: DecoyObservations, cfg: DecoyConfig, eta: float, f_ec: float = 1.0
) -> KeyRateResult:
    """Worst-case key rate over the estimated single-photon box.

    The rate is minimized over Q_1^{s z beta} between the decoy lower bound
    and the trivial upper bound for each outcome, with the error parameter
    fixed at its upper bound (the rate decreases monotonically in it). A
    64x64 grid over the box seeds the search with its first minimum in
    row-major order (outcome-0 gain outer). Sixteen zoom levels follow, each
    a 9x9 grid over +-2 steps of the previous grid around the best point so
    far, clipped to the box; the window halves at each level, and a point
    replaces the best only if its rate is strictly lower. The result records
    the argmin and whether it sits at the lower-bound corner.
    """
    return _decoy_keyrates([obs], cfg, eta, f_ec)[0]


def _decoy_keyrates(observations, cfg: DecoyConfig, eta: float, f_ec: float) -> list[KeyRateResult]:
    """``decoy_keyrate`` of each of ``observations``: one 64x64 seed scan per
    box, then each zoom level as one ``_singles_rate`` call over every box
    with a feasible seed; a box whose seed grid is all infeasible is
    infeasible. The formula is elementwise, so each result equals
    ``decoy_keyrate``'s bit for bit.
    """
    boxes, seeds = [], []
    for obs in observations:
        (lo0, up0), (lo1, up1) = bound_Q1(obs, cfg, 0), bound_Q1(obs, cfg, 1)
        q, ec = gamma2_upper(obs, cfg, eta) / eta, _ec_term(obs, f_ec)
        boxes.append((lo0, up0, lo1, up1, q, ec))
        grid0 = np.linspace(lo0, up0, 64)
        grid1 = np.linspace(lo1, up1, 64)
        rates = _singles_rate(grid0[:, None], grid1[None, :], q, eta, ec)[0]
        if np.isnan(rates).all():
            seeds.append(None)
            continue
        k0, k1 = np.unravel_index(np.nanargmin(rates), rates.shape)
        seeds.append((grid0[k0], grid1[k1], rates[k0, k1]))

    found = [k for k, seed in enumerate(seeds) if seed is not None]
    lo0, up0, lo1, up1, q, ec = np.array([boxes[k] for k in found]).reshape(-1, 6).T
    a, b, best = np.array([seeds[k] for k in found]).reshape(-1, 3).T
    lo, up, x = np.stack([lo0, lo1], 1), np.stack([up0, up1], 1), np.stack([a, b], 1)
    half = 2.0 * (up - lo) / 63.0  # +-2 steps of the seed grid
    rows, q, ec = np.arange(len(found)), q[:, None, None], ec[:, None, None]
    for _ in range(16):
        grid = np.linspace(np.maximum(x - half, lo), np.minimum(x + half, up), 9, axis=-1)
        rates = _singles_rate(grid[:, 0, :, None], grid[:, 1, None, :], q, eta, ec)[0]
        rates = np.where(np.isnan(rates), np.inf, rates).reshape(-1, 81)
        k = rates.argmin(axis=1)  # the first minimum in row-major order
        better = rates[rows, k] < best
        best = np.where(better, rates[rows, k], best)
        x = np.where(better[:, None], np.stack([grid[rows, 0, k // 9], grid[rows, 1, k % 9]], 1), x)
        half = half / 2.0

    results = [KeyRateResult(rate=None, feasible=False, delta=None, lam=None, method="decoy")] * len(boxes)
    for k, (a, b) in zip(found, x.tolist()):
        lo0, up0, lo1, up1, q, ec = boxes[k]
        atol0 = 1e-7 * max(up0 - lo0, 1e-300)
        atol1 = 1e-7 * max(up1 - lo1, 1e-300)
        corner = abs(a - lo0) <= atol0 and abs(b - lo1) <= atol1
        results[k] = replace(_box_result(a, b, q, eta, ec, "decoy"), at_lower_corner=bool(corner))
    return results


def theoretical_limit(
    model: ChannelModel,
    obs: DecoyObservations,
    cfg: DecoyConfig,
    eta: float | None = None,
    f_ec: float = 1.0,
) -> KeyRateResult:
    """Rate evaluated at the channel's actual single-photon values, no estimation.

    Uses the true single-photon gains and the true weighted error parameter
    from the simulation model; the gap to ``decoy_keyrate`` measures the
    estimation penalty. ``obs`` are the channel's observations,
    ``simulate_observations(model, cfg)``; they supply the error-correction
    term, so that a channel is simulated once for both rates.
    """
    eta = _require_in("eta", model.eta if eta is None else eta, _ETA_MIN, 1.0, open_lo=True)
    w1 = poisson_pmf(1, cfg.mu)
    q1 = [simulate_yield(model, 1, "z", beta) * w1 for beta in (0, 1)]
    e1 = [simulate_error(model, 1, "x", beta) for beta in (0, 1)]
    q_actual = (eta * e1[0] * q1[0] + e1[1] * q1[1]) / eta
    return _box_result(q1[0], q1[1], q_actual, eta, _ec_term(obs, f_ec), "theoretical_limit")
