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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TruncationError, _require_in
from .keyrates import KeyRateResult, _admits, _coherence, _coherence_grad, _require_f_ec, detection_imbalance
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
    single-photon bounds hold, and 10 <= i_max <= 4096, so that the rounding
    of a sum of i_max + 1 Poisson weights, up to i_max*2^-53 (Higham, ch. 4),
    stays below the 1e-12 tail mass that ``_poisson_weights`` tests for.
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
        _require_in("i_max", self.i_max, 10, 4096, integer=True, error=ConfigError)

    def intensity(self, v: str) -> float:
        return {"s": self.mu, "d1": self.nu1, "d2": self.nu2}[v]


@dataclass(frozen=True)
class DecoyObservations:
    """Gains Q^{v b beta} and error rates E^{v b beta}, shape (3, 2, 2), or
    (..., 3, 2, 2) for observations stacked over leading axes.

    Axes: intensity (s, d1, d2), basis (z, x), Bob's outcome (0, 1). The
    accessors ``gain``, ``error_rate`` and ``error_gain`` read one observation.
    """

    gains: np.ndarray
    error_rates: np.ndarray

    def __post_init__(self):
        for name in ("gains", "error_rates"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape[-3:] != (3, 2, 2) or arr.shape != self.gains.shape:
                raise ValueError(f"{name} must have shape (..., 3, 2, 2), as gains, got {arr.shape}")
            # Written so that nan fails it.
            if not np.all((arr >= 0.0) & (arr <= 1.0)):
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


def transmittance(model: ChannelModel) -> float:
    """Probability that a photon reaches Bob's detectors."""
    return _transmittance(model, [model.length_km])[0]


def _transmittance(model: ChannelModel, lengths) -> list[float]:
    return [10.0 ** (-(model.alpha_db_per_km * length + model.bob_loss_db) / 10.0) for length in lengths]


def _yields(models, lengths, photons: np.ndarray):
    """Yields Y_i and error-weighted yields e_i * Y_i, shape (len(models),
    len(lengths), 2 detectors, len(photons)), of each model at each length (km,
    in place of its own); dark counts are errors half the time. Formulas in
    ``simulate_yield`` and ``simulate_error``; each transmittance is one scalar
    ``**``, as numpy's array power rounds some in the last bit otherwise."""
    t = np.array([_transmittance(m, map(float, lengths)) for m in models])
    arrived = t[:, :, None, None] * photons
    eff = np.array([(m.eta0, m.eta1) for m in models])[:, None, :, None]
    dark = np.array([m.dark for m in models])[:, None, :, None]
    e_det = np.array([m.e_det for m in models])[:, None, None, None]
    y = np.minimum(dark + arrived * eff / 2.0, 1.0)
    ey = (dark + arrived * e_det * eff) / 2.0
    return y, ey


def simulate_yield(model: ChannelModel, i: int, b: str, beta: int) -> float:
    """Detection probability of an i-photon pulse on detector beta.

    dark + i * T * eta_beta / 2, clamped to 1; the linear-in-i form neglects
    multiple photons surviving the line, which is accurate for lossy links.
    Basis-independent in this model.
    """
    return _photon_yields(model, i, b, beta)[0]


def simulate_error(model: ChannelModel, i: int, b: str, beta: int) -> float:
    """Error rate of an i-photon pulse on detector beta.

    (dark + i * T * e_det * eta_beta) / (2 * Y_i); equals 1/2 for pure dark
    counts and e_det for a dark-count-free link.
    """
    y, ey = _photon_yields(model, i, b, beta)
    if y <= 0.0:
        raise ValueError(f"yield vanishes for i = {i}, beta = {beta}; error rate undefined")
    return ey / y


def _photon_yields(model: ChannelModel, i: int, b: str, beta: int) -> tuple[float, float]:
    """(Y_i, e_i * Y_i) of detector beta, after checking the arguments."""
    _require_in("i", i, 0, math.inf, integer=True)
    if b not in BASES:
        raise ValueError(f"unknown basis {b!r}")
    _require_in("beta", beta, 0, 1, integer=True)
    return tuple(float(v[0, 0, beta, 0]) for v in _yields([model], [model.length_km], np.array([i])))


def poisson_pmf(i: int, mu: float) -> float:
    """Poisson weight mu^i e^-mu / i!, with the mu = 0 case concentrated at i = 0;
    ValueError unless i is an integer >= 0 and mu is finite and >= 0."""
    _require_in("i", i, 0, math.inf, integer=True)
    _require_in("mu", mu, 0.0, math.inf)
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
        raise TruncationError(f"Poisson tail mass {tail:.3e} beyond i_max = {i_max} exceeds 1e-12")
    weights.flags.writeable = False
    return weights


def poisson_gain(yields, mu_v: float, i_max: int) -> float:
    """Gain sum_i Y_i * Poisson(i; mu_v) truncated at i_max.

    Raises:
        TruncationError: if the Poisson tail mass beyond i_max is >= 1e-12.
        ValueError: unless i_max is an integer >= 0, 0 <= mu_v < inf and the yields lie in [0, 1].
    """
    _require_in("i_max", i_max, 0, math.inf, integer=True)
    weights = _poisson_weights(mu_v, i_max)
    y = np.asarray(list(yields), dtype=float)[: i_max + 1]
    if y.size < i_max + 1:
        raise ValueError("need yields up to i_max")
    for value in y.tolist():
        _require_in("yield", value, 0.0, 1.0)
    return float(np.dot(y, weights))


def simulate_observations(model: ChannelModel, cfg: DecoyConfig) -> DecoyObservations:
    """Observed gains and error rates for all intensities, bases and outcomes:
    ``_simulate`` of the one model at its own length.

    Raises:
        TruncationError: if an intensity leaves Poisson tail mass >= 1e-12
            beyond ``cfg.i_max``.
    """
    obs = _simulate([model], cfg, [model.length_km])[0]
    return DecoyObservations(gains=obs.gains[0, 0], error_rates=obs.error_rates[0, 0])


def _simulate(models, cfg: DecoyConfig, lengths) -> tuple[DecoyObservations, np.ndarray]:
    """The observations of each of ``models`` at each of ``lengths`` (km),
    stacked as (len(models), len(lengths), 3, 2, 2) and checked once, and their
    single-photon (yields, error-weighted yields), shape (2, len(models),
    len(lengths), 2). The model is basis-independent: both bases get the same values.

    Each gain dots one row of yields over photon number with an intensity's
    Poisson weights, as a stack of (1, n) @ (n, 1) products: numpy computes
    each scalar output with the vector dot kernel of ``np.dot``, so the bits are
    those of one ``np.dot`` per row; an (m, n) @ (n,) gemv would round otherwise.
    """
    weights = np.stack([_poisson_weights(cfg.intensity(v), cfg.i_max) for v in INTENSITIES])
    rows = np.stack(_yields(models, lengths, np.arange(cfg.i_max + 1)))
    q, eq = (rows[..., None, None, :] @ weights[..., None])[..., 0, 0].swapaxes(-1, -2)
    errors = np.divide(eq, q, out=np.zeros_like(q), where=q > 0.0)
    return DecoyObservations(*(np.repeat(a[..., None, :], 2, axis=-2) for a in (q, errors))), rows[..., 1]


def _require_one(obs: DecoyObservations) -> None:
    """Raise ValueError unless ``obs`` holds one observation, shape (3, 2, 2)."""
    if obs.gains.shape != (3, 2, 2):
        raise ValueError(f"expected one observation of shape (3, 2, 2), got observations of shape {obs.gains.shape}")


def bound_Y0(obs: DecoyObservations, cfg: DecoyConfig, beta: int) -> float:
    """Lower bound on the vacuum yield from the two decoy gains in the z basis."""
    _require_one(obs)
    return float(_y0_lower(obs.gains, cfg)[_require_in("beta", beta, 0, 1, integer=True)])


def _y0_lower(gains: np.ndarray, cfg: DecoyConfig):
    """``bound_Y0`` of both outcomes (last axis) of stacked gains (..., 3, 2, 2)."""
    z = gains[..., 0, :]
    raw = cfg.nu1 * z[..., 2, :] * math.exp(cfg.nu2) - cfg.nu2 * z[..., 1, :] * math.exp(cfg.nu1)
    return np.maximum(raw / (cfg.nu1 - cfg.nu2), 0.0)


def bound_Q1(obs: DecoyObservations, cfg: DecoyConfig, beta: int) -> tuple[float, float]:
    """Lower and upper bounds on the single-photon signal gain Q_1^{s z beta}.

    The upper bound is the full signal gain; the lower bound combines the
    decoy gains with the vacuum-yield bound and is clamped into [0, upper].
    """
    _require_one(obs)
    _require_in("beta", beta, 0, 1, integer=True)
    lower, upper = _q1_bounds(obs.gains, cfg)
    return float(lower[beta]), float(upper[beta])


def _q1_bounds(gains: np.ndarray, cfg: DecoyConfig):
    """``bound_Q1`` of both outcomes (last axis) of stacked gains (..., 3, 2, 2)."""
    mu, nu1, nu2 = cfg.mu, cfg.nu1, cfg.nu2
    den = mu * nu1 - mu * nu2 - nu1**2 + nu2**2
    # A subnormal den passes den > 0 but overflows the prefactor to inf.
    scale = mu**2 * math.exp(-mu) / den if den > 0.0 else math.inf
    if not math.isfinite(scale):
        raise ConfigError(
            f"degenerate decoy intensities: mu*nu1 - mu*nu2 - nu1^2 + nu2^2 = {den:.3g} is too small to divide by"
        )
    qs, qd1, qd2 = (gains[..., v, 0, :] for v in range(3))
    y0 = _y0_lower(gains, cfg)
    lower = scale * (
        qd1 * math.exp(nu1) - qd2 * math.exp(nu2) - (nu1**2 - nu2**2) / mu**2 * (qs * math.exp(mu) - y0)
    )
    return np.minimum(np.maximum(lower, 0.0), qs), qs


def bound_e1q1(obs: DecoyObservations, cfg: DecoyConfig, beta: int) -> float:
    """Upper bound on the single-photon error-gain product e_1 * Q_1^{s x beta}."""
    _require_one(obs)
    _require_in("beta", beta, 0, 1, integer=True)
    nu1, nu2 = cfg.nu1, cfg.nu2
    raw = obs.error_gain("d1", "x", beta) * math.exp(nu1) - obs.error_gain("d2", "x", beta) * math.exp(nu2)
    return max(raw * cfg.mu * math.exp(-cfg.mu) / (nu1 - nu2), 0.0)


def gamma2_upper(obs: DecoyObservations, cfg: DecoyConfig, eta: float) -> float:
    """Upper bound q*eta on the weighted x-basis error-rate constraint value.

    Outcome 1's error gains are divided by eta: it is the less efficient
    detector's.
    """
    _require_one(obs)
    return float(_gamma2_upper(obs.gains, obs.error_rates, cfg, eta))


def _gamma2_upper(gains: np.ndarray, error_rates: np.ndarray, cfg: DecoyConfig, eta: float):
    """``gamma2_upper`` of each of stacked (gains, error_rates), (..., 3, 2, 2)."""
    _require_in("eta", eta, _ETA_MIN, 1.0, open_lo=True)
    nu1, nu2 = cfg.nu1, cfg.nu2
    eg = error_rates[..., 1, :] * gains[..., 1, :]  # x basis: (..., intensity, outcome)
    q = (eg[..., 1, 0] + eg[..., 1, 1] / eta) * math.exp(nu1) - (eg[..., 2, 0] + eg[..., 2, 1] / eta) * math.exp(nu2)
    return np.maximum(q * cfg.mu * math.exp(-cfg.mu) / (nu1 - nu2), 0.0) * eta


def _singles_rate(q1_0, q1_1, q, eta, ec_term):
    """Key rate from single-photon gains (q1_0, q1_1) and x-error gain q: the
    closed form's value kernel ``keyrates._coherence``, elementwise over arrays.

    Returns (rate, lambda_of_q), both nan where the point is infeasible: no
    detections, or a phase-error argument ``keyrates._admits`` rejects.
    ``ec_term`` is the full error-correction leakage, already multiplied by
    its gain.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        t = q1_0 + q1_1 / eta
        p_pass, _, lam_q, clamped, h = _coherence(q1_0, q1_1, t, q, eta)
        ok = _admits(lam_q, p_pass, t, q, 0.0)
        rate = p_pass * h - ec_term
    return np.where(ok, rate, np.nan), np.where(ok, clamped, np.nan)


def _gain_grad(a, b, q, eta):
    """(partials, allowances), last axis (a, b), of ``_singles_rate`` in the
    gains at x-error gain q: ``keyrates._coherence_grad``'s chain rule along
    t = a + b/eta, with d = t - 2q, w = 4ab - eta*d^2 = (p - r)(p + r) from the
    value path's r, dw/da = 4b - 2*eta*d, dw/db = 4a - 2d. With s = p + t + 2q,
    r is within 6u*s (u = 2^-53), w within 17u*p*s and each |dw/di| <= 6s within
    14u*s: relative 2^-48*p*s/w and 2^-50*s/r, and 4(14u*s + 2u*6s) <= 2^-45*s."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p, t, q2 = a + b, a + b / eta, 2.0 * q
        d = t - q2
        r = np.hypot(a - b, math.sqrt(eta) * d)
        w, s = (p - r) * (p + r), p + t + q2
        (f_a, f_b, f_w), (e_a, e_b, e_w) = _coherence_grad(a, b, w, r, 2.0**-48 * p * s / w, 2.0**-50 * s / r)
        m_a, m_b = 4.0 * b - (2.0 * eta) * d, 4.0 * a - 2.0 * d
        grad = np.stack((f_a + f_w * m_a, f_b + f_w * m_b), axis=-1)
        slack = np.stack((e_a + abs(m_a) * e_w, e_b + abs(m_b) * e_w), axis=-1)
        return grad, slack + (2.0**-45 * s * abs(f_w))[..., None]


def _ec_term(obs: DecoyObservations, f_ec: float):
    """Error-correction leakage f_ec * Q * h(E) of the signal's z-basis gain Q and
    error rate E, both summed over outcomes (0 where Q = 0), per stacked observation."""
    _require_f_ec(f_ec)
    q, eq = obs.gains[..., 0, 0, :], obs.error_rates[..., 0, 0, :] * obs.gains[..., 0, 0, :]
    q_total = q[..., 0] + q[..., 1]
    empty = q_total <= 0.0  # not nan, so that a nan gain reaches binary_entropy and raises
    e_total = np.divide(eq[..., 0] + eq[..., 1], q_total, out=np.zeros_like(q_total), where=~empty)
    return np.where(empty, 0.0, f_ec * q_total * binary_entropy(np.minimum(e_total, 1.0)))


def _result(method: str, rate: float, lam: float, delta: float, a: float, b: float, **extra) -> KeyRateResult:
    """One point's (rate, lambda, delta) as a result with argmin (a, b)."""
    if math.isnan(rate):
        return KeyRateResult(rate=None, feasible=False, delta=None, lam=None, method=method)
    return KeyRateResult(rate=rate, feasible=True, delta=delta, lam=lam, method=method, argmin=(a, b), **extra)


def _one(obs: DecoyObservations) -> DecoyObservations:
    """One observation as a stack of shape (1, 1, 3, 2, 2), as ``_evaluate`` takes it."""
    _require_one(obs)
    return DecoyObservations(gains=obs.gains[None, None], error_rates=obs.error_rates[None, None])


def decoy_keyrate(obs: DecoyObservations, cfg: DecoyConfig, eta: float, f_ec: float = 1.0) -> KeyRateResult:
    """Worst-case key rate over the estimated single-photon box.

    The rate is minimized over Q_1^{s z beta} between the decoy lower bound
    and the trivial upper bound for each outcome, with the error parameter
    fixed at its upper bound (the rate decreases monotonically in it).

    The rate is convex in the two gains, so the lower-bound corner is the
    minimum whenever both partials there are positive beyond their rounding
    allowance (``_gain_grad``, by the chain rule from the block's coherence
    kernel): the rate is then certified at the corner, and
    ``rate_lower`` equals ``rate``. Any other box is searched. A 64x64 grid
    over the box seeds the search with its first minimum in row-major order
    (outcome-0 gain outer). Sixteen zoom levels follow, each a 9x9 grid over
    +-2 steps of the previous grid around the best point so far, clipped to
    the box; the window halves at each level, and a point replaces the best
    only if its rate is strictly lower. A searched box's ``rate_lower`` is the
    Frank-Wolfe bound at the point found. The result records the argmin and
    whether it sits at the lower-bound corner. The rate is the one-row call
    of ``_evaluate``, the pass ``decoy-sim`` runs.

    Why the corner test certifies: the rate is R(a, b) = f*(gamma(a, b)) - ec,
    f* the value of the convex program ``verifier.minimize`` solves (Winick,
    Luetkenhaus & Coles, Quantum 2, 77 (2018)), as a function of the program's
    right-hand side gamma = (eta*a + b, eta*q, a + b). That function is
    convex, and gamma is affine in the gains (a, b) at fixed q, so R is convex
    on the feasible part of the box, itself convex (lambda >= 0 says that a
    norm of an affine map is at most the affine p). At the lower corner c,
    R(x) >= R(c) + grad R(c).(x - c) >= R(c) for every feasible x of the box
    when both partials are >= 0. The test asks each computed partial to
    exceed its rounding allowance (``_gain_grad``), so that the
    exact partial is positive, and fails wherever the corner is infeasible or
    has a zero gain.

    The same inequality at a searched box's final point y, with each partial
    g_i widened by its allowance s_i, gives rate_lower = R(y) +
    sum_i min((g_i + s_i)*(lo_i - y_i), (g_i - s_i)*(up_i - y_i)), up to the
    rounding of R(y) itself, and None where it is not finite; at a certified
    corner both terms are 0, so its gap is not computed.
    """
    (rate, lam, delta, a, b), (lo, up, q, searched) = _evaluate(_one(obs), cfg, f_ec, eta, None, ())
    x = np.column_stack([a[0], b[0]])
    lower = rate[0]
    if searched[0]:
        grad, slack = _gain_grad(a[0], b[0], q, eta)
        with np.errstate(invalid="ignore"):
            lower = lower + np.minimum((grad + slack) * (lo - x), (grad - slack) * (up - x)).sum(axis=1)
    corner = (np.abs(x - lo) <= 1e-7 * np.maximum(up - lo, 1e-300)).all(axis=1)
    return _result(
        "decoy", *(v.item() for v in (rate, lam, delta, a, b)), at_lower_corner=corner.item(),
        rate_lower=lower.item() if np.isfinite(lower) else None,
    )


def _evaluate(obs: DecoyObservations, cfg: DecoyConfig, f_ec: float, eta, singles, etas):
    """The rows of one array pass over observations stacked (M, L, 3, 2, 2):
    the decoy worst case of ``obs[0]`` at mismatch ``eta`` (none if None),
    then, from the single-photon (yields, error-weighted yields) ``singles``
    of ``_simulate``, (2, M, L, 2), the theoretical limit of each channel at
    its mismatch in ``etas`` (none if None). Each row's error correction is
    its channel's.

    Returns (rate, lam, delta, a, b), each (rows, L), nan where infeasible,
    (a, b) the argmin; and the decoy row's box (lo, up, q, searched): corners
    (L, 2), x-error gain and whether the corner test left it to the search,
    each (L,), or None. One ``_ec_term``, one ``_singles_rate`` and one
    imbalance check, all elementwise, so each row equals its one-row call
    (``decoy_keyrate``, ``theoretical_limit``) bit for bit. Errors in the
    arguments come first (the decoy intensities and mismatch, the limits'
    mismatches, f_ec), then those of the data in row order: the decoy row's
    imbalance (a second check where a single-photon yield vanishes), the
    vanishing yield, the limits'.
    """
    points, box = [], None
    if eta is not None:
        lo, up = _q1_bounds(obs.gains[0], cfg)
        q = _gamma2_upper(obs.gains[0], obs.error_rates[0], cfg, eta) / eta
    if singles is not None:
        limit_eta = np.array([[_require_in("eta", e, _ETA_MIN, 1.0, open_lo=True)] for e in etas])
        y, ey = singles
        a, b = np.moveaxis(y * poisson_pmf(1, cfg.mu), -1, 0)
        # A vanishing yield's error rate counts as 0 here; its error is raised below.
        e1 = np.divide(ey, y, out=np.zeros_like(y), where=y > 0.0)
        limit_q = (limit_eta * e1[..., 0] * a + e1[..., 1] * b) / limit_eta
    ec = _ec_term(obs, f_ec)
    if eta is not None:
        # Each box's worst case: its lower corner where the corner test
        # certifies it, else the search's point (nan on an infeasible box).
        grad, slack = _gain_grad(lo[:, 0], lo[:, 1], q, eta)
        searched = ~(grad > slack).all(axis=1)
        x = lo.copy()
        if searched.any():
            boxes = np.column_stack([lo[:, 0], up[:, 0], lo[:, 1], up[:, 1], q, ec[0]])
            x[searched] = _search_boxes(boxes[searched], eta)[0]
        box = lo, up, q, searched
        points.append((x[None, :, 0], x[None, :, 1], q[None], np.full((1, len(q)), eta), ec[:1]))
    if singles is not None:
        points.append((a, b, limit_q, np.broadcast_to(limit_eta, a.shape), ec))
    a, b, q, mismatch, ec = (np.concatenate(v) for v in zip(*points))
    rate, lam = _singles_rate(a, b, q, mismatch, ec)
    ok = ~np.isnan(rate)
    p, t = a + b, a + b / mismatch
    if singles is not None and (singles[0] <= 0.0).any():
        k = int(box is not None)
        detection_imbalance(p[:k][ok[:k]], t[:k][ok[:k]], mismatch[:k][ok[:k]])
        beta = np.argwhere(singles[0] <= 0.0)[0, -1]
        raise ValueError(f"yield vanishes for i = 1, beta = {beta}; error rate undefined")
    delta = np.full(rate.shape, np.nan)
    delta[ok] = detection_imbalance(p[ok], t[ok], mismatch[ok])
    return (rate, lam, delta, a, b), box


def _search_boxes(boxes: np.ndarray, eta: float):
    """The seed scan and zoom of ``decoy_keyrate`` over the rows
    (lo0, up0, lo1, up1, q, ec) of ``boxes``: one 64x64 scan per box, then
    each zoom level as one ``_singles_rate`` call over every box with a
    feasible seed. Returns the final points, shape (n, 2), and which boxes
    have a feasible seed; a box whose seed grid is all infeasible is
    infeasible, and its point nan.
    """
    seeds = np.full((len(boxes), 3), np.nan)
    for k, (lo0, up0, lo1, up1, q, ec) in enumerate(boxes.tolist()):
        grid0 = np.linspace(lo0, up0, 64)
        grid1 = np.linspace(lo1, up1, 64)
        rates = _singles_rate(grid0[:, None], grid1[None, :], q, eta, ec)[0]
        if not np.isnan(rates).all():
            k0, k1 = np.unravel_index(np.nanargmin(rates), rates.shape)
            seeds[k] = grid0[k0], grid1[k1], rates[k0, k1]
    found = ~np.isnan(seeds[:, 2])
    points = seeds[:, :2]
    if not found.any():
        return points, found

    lo0, up0, lo1, up1, q, ec = boxes[found].T
    a, b, best = seeds[found].T
    lo, up, x = np.stack([lo0, lo1], 1), np.stack([up0, up1], 1), np.stack([a, b], 1)
    half = 2.0 * (up - lo) / 63.0  # +-2 steps of the seed grid
    rows, q, ec = np.arange(len(x)), q[:, None, None], ec[:, None, None]
    for _ in range(16):
        grid = np.linspace(np.maximum(x - half, lo), np.minimum(x + half, up), 9, axis=-1)
        rates = _singles_rate(grid[:, 0, :, None], grid[:, 1, None, :], q, eta, ec)[0]
        rates = np.where(np.isnan(rates), np.inf, rates).reshape(-1, 81)
        k = rates.argmin(axis=1)  # the first minimum in row-major order
        better = rates[rows, k] < best
        best = np.where(better, rates[rows, k], best)
        x = np.where(better[:, None], np.stack([grid[rows, 0, k // 9], grid[rows, 1, k % 9]], 1), x)
        half = half / 2.0
    points[found] = x
    return points, found


def theoretical_limit(
    model: ChannelModel, obs: DecoyObservations, cfg: DecoyConfig, eta: float | None = None, f_ec: float = 1.0
) -> KeyRateResult:
    """Rate evaluated at the channel's actual single-photon values, no estimation.

    Uses the true single-photon gains and the true weighted error parameter
    from the simulation model; the gap to ``decoy_keyrate`` measures the
    estimation penalty. ``obs`` are the channel's observations,
    ``simulate_observations(model, cfg)``; they supply the error-correction
    term, so that a channel is simulated once for both rates.
    """
    singles = np.stack(_yields([model], [model.length_km], np.array([1])))[..., 0]
    rows = _evaluate(_one(obs), cfg, f_ec, None, singles, [model.eta if eta is None else eta])[0]
    return _result("theoretical_limit", *(v.item() for v in rows))


def _channel_rates(models, cfg: DecoyConfig, lengths, f_ec: float, decoy: bool, limits: bool) -> np.ndarray:
    """Rates at each of ``lengths`` (km), nan where infeasible, one row each:
    the decoy worst case of ``models[0]`` if ``decoy``, then the theoretical
    limit of each of ``models`` if ``limits``. One simulation and one
    ``_evaluate`` pass, so each rate is its one-row call's bit for bit and
    those calls' errors are raised, the decoy rows' first."""
    obs, singles = _simulate(models, cfg, lengths)
    eta = models[0].eta if decoy else None
    return _evaluate(obs, cfg, f_ec, eta, singles if limits else None, [m.eta for m in models])[0][0]
