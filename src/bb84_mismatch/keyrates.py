"""Closed-form secret-key rates for BB84 with detection-efficiency mismatch.

Rates are in bits per channel use and may be negative; callers decide
whether to clamp. The error-correction term h(q_z) can be scaled by an
inefficiency factor ``f_ec`` (default 1, the Shannon limit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError, NoKeyError
from .linalg import binary_entropy

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class KeyRateResult:
    """A key-rate value with its feasibility flag and intermediate quantities.

    ``rate`` is None when ``feasible`` is False. ``delta`` is the detection
    imbalance, ``lam`` the effective phase-error argument entering h().
    ``optimizer_args`` holds (eta1, eta2) for the discard-optimized rate;
    ``argmin`` and ``at_lower_corner`` describe the decoy box minimum.
    """

    rate: float | None
    feasible: bool
    delta: float | None
    lam: float | None
    method: str
    optimizer_args: tuple[float, float] | None = None
    argmin: tuple[float, float] | None = None
    at_lower_corner: bool | None = None

    @property
    def operational_rate(self) -> float:
        """The rate actually extractable: max(rate, 0), or 0 when infeasible."""
        if not self.feasible or self.rate is None:
            return 0.0
        return max(self.rate, 0.0)


def _check_ranges(q_z: float, q_x: float, eta: float, t: float, p_pass: float):
    if not 0.0 <= q_z <= 1.0:
        raise ValueError(f"q_z = {q_z} outside [0, 1]")
    if not 0.0 <= q_x <= 1.0:
        raise ValueError(f"q_x = {q_x} outside [0, 1]")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta = {eta} outside (0, 1]")
    if not 0.0 < t <= 1.0:
        raise ValueError(f"t = {t} outside (0, 1]")
    if not 0.0 < p_pass <= 1.0:
        raise ValueError(f"p_pass = {p_pass} outside (0, 1]")


def _require_f_ec(f_ec: float) -> None:
    """Reject an error-correction inefficiency that is nan, infinite or negative.

    Raises:
        ConfigError: unless 0 <= f_ec < inf.
    """
    if not 0.0 <= f_ec < math.inf:
        raise ConfigError(f"f_ec = {f_ec} must be finite and non-negative")


def detection_imbalance(p_pass: float, t: float, eta: float) -> float:
    """Deviation of the pass rate from its balanced value t*(1+eta)/2.

    Returns (2*p_pass - t*(1+eta)) / (t*(1-eta)); zero exactly at the
    balanced point. For eta = 1 the expression degenerates: the only
    consistent observation is p_pass = t, for which 0 is returned.

    Raises:
        ValueError: if eta = 1 but p_pass differs from t beyond 1e-12, or
            t*(1-eta) underflows to 0.
    """
    if eta == 1.0:
        if abs(p_pass - t) <= 1e-12:
            return 0.0
        raise ValueError(
            f"eta = 1 requires p_pass = t, got p_pass = {p_pass}, t = {t}"
        )
    try:
        return (2.0 * p_pass - t * (1.0 + eta)) / (t * (1.0 - eta))
    except ZeroDivisionError:
        raise ValueError(f"t*(1-eta) underflows to 0 at t = {t}, eta = {eta}") from None


def feasible(q_x: float, delta: float) -> bool:
    """Whether a PSD state compatible with (q_x, delta) exists.

    True iff 2*q_x >= 1 - sqrt(1 - delta^2); |delta| > 1 is always infeasible.
    """
    if abs(delta) > 1.0:
        return False
    return 2.0 * q_x >= 1.0 - math.sqrt(1.0 - delta**2)


def effective_phase_error(q: float, eta: float, t: float, p_pass: float) -> float:
    """The argument of the phase-error entropy term, in [0, 1/2].

    Computes 1/2 - t/(4*p_pass) * sqrt([1-eta+delta*(1+eta)]^2 +
    4*eta*(1-2q)^2) with delta the detection imbalance of (p_pass, t, eta).
    """
    delta = detection_imbalance(p_pass, t, eta)
    s = math.sqrt((1.0 - eta + delta * (1.0 + eta)) ** 2 + 4.0 * eta * (1.0 - 2.0 * q) ** 2)
    lam = 0.5 - t * s / (4.0 * p_pass)
    if lam < -1e-12:
        raise ValueError(
            f"phase-error argument {lam} is negative: observations are inconsistent"
        )
    return max(lam, 0.0)


def keyrate_general(
    q_z: float,
    q_x: float,
    eta: float,
    t: float,
    p_pass: float,
    f_ec: float = 1.0,
) -> KeyRateResult:
    """Tight key rate for arbitrary pass rate:
    p_pass * [h(t*(1+delta)/(2*p_pass)) - h(lambda) - f_ec*h(q_z)].

    Returns an infeasible result (rate None) when no PSD state matches the
    observations. Raises ValueError if t*(1+delta)/(2*p_pass) falls outside
    [0, 1] beyond rounding, which signals inconsistent observations, and
    ConfigError unless f_ec is finite and non-negative.
    """
    _check_ranges(q_z, q_x, eta, t, p_pass)
    _require_f_ec(f_ec)
    delta = detection_imbalance(p_pass, t, eta)
    if not feasible(q_x, delta):
        return KeyRateResult(
            rate=None, feasible=False, delta=delta, lam=None, method="general"
        )
    arg = t * (1.0 + delta) / (2.0 * p_pass)
    if arg < -1e-12 or arg > 1.0 + 1e-12:
        raise ValueError(
            f"entropy argument {arg} outside [0, 1]: observations are inconsistent"
        )
    arg = min(max(arg, 0.0), 1.0)
    lam = effective_phase_error(q_x, eta, t, p_pass)
    rate = p_pass * (
        binary_entropy(arg) - binary_entropy(lam) - f_ec * binary_entropy(q_z)
    )
    return KeyRateResult(
        rate=rate, feasible=True, delta=delta, lam=lam, method="general"
    )


def keyrate_balanced(
    q_z: float, q_x: float, eta: float, t: float = 1.0, f_ec: float = 1.0
) -> KeyRateResult:
    """Key rate at the balanced pass rate p_pass = t*(1+eta)/2:
    p_pass * [h(1/(1+eta)) - h(lambda(q_x, eta)) - f_ec*h(q_z)].
    """
    p_pass = t * (1.0 + eta) / 2.0
    # The balanced premise is checked, not assumed; nan and rounding at tiny t fail it.
    if not abs(detection_imbalance(p_pass, t, eta)) < 1e-12:
        raise ValueError(f"no balanced pass rate at t = {t}, eta = {eta}")
    return replace(keyrate_general(q_z, q_x, eta, t, p_pass, f_ec=f_ec), method="balanced")


def _discarded_rate(
    q_z: float, q_x: float, eta: float, t: float, eta1: float, f_ec: float
) -> KeyRateResult:
    """Balanced rate after discarding zero outcomes with probability 1 - eta1.

    Discarding rescales the zero-outcome detection and error rates by eta1,
    leaving an effective mismatch eta2 = eta/eta1; the observed values are
    remapped accordingly before re-applying the balanced formula.
    """
    eta2 = eta / eta1
    r0, r1 = eta1 * t / 2.0, t * eta / 2.0
    m0, m1 = eta1 * t * q_x / 2.0, eta * t * q_x / 2.0
    t_eff = r0 + r1 / eta2
    p_eff = r0 + r1
    try:
        q_x_eff = (m1 + eta2 * m0) / (t_eff * eta2)
    except ZeroDivisionError:
        raise ValueError(f"t*eta underflows to 0 at t = {t}, eta = {eta}") from None
    # q_x_eff equals q_x up to rounding, which can lift it above 1 at q_x = 1.
    if q_x_eff > 1.0:
        q_x_eff = 1.0
    return keyrate_general(q_z, q_x_eff, eta2, t_eff, p_eff, f_ec=f_ec)


def keyrate_discard_optimized(
    q_z: float, q_x: float, eta: float, t: float = 1.0, f_ec: float = 1.0
) -> KeyRateResult:
    """Balanced rate maximized over the zero-discarding probability.

    Searches eta1 in [eta, 1] (probability 1 - eta1 of dropping each zero
    outcome); eta1 = 1 reproduces the plain balanced rate and eta1 = eta
    the pure discarding rate. Golden-section search seeded by a 64-point
    scan guards against non-unimodality.
    """
    _check_ranges(q_z, q_x, eta, t, t * (1.0 + eta) / 2.0)
    if eta == 1.0:
        base = keyrate_balanced(q_z, q_x, eta, t, f_ec=f_ec)
        return replace(base, method="discard_optimized", optimizer_args=(1.0, 1.0))

    def loss(eta1: float) -> float:
        res = _discarded_rate(q_z, q_x, eta, t, eta1, f_ec)
        return -res.rate if res.feasible else math.inf

    lo, hi = eta, 1.0
    grid = [lo + (hi - lo) * k / 63.0 for k in range(64)]
    losses = [loss(x) for x in grid]
    ibest = min(range(64), key=losses.__getitem__)
    eta1_best = _golden_min(loss, grid[max(ibest - 1, 0)], grid[min(ibest + 1, 63)])
    # min keeps the first of equal losses, so ties go to the earlier candidate.
    eta1_star = min([eta1_best, grid[ibest], eta, 1.0], key=loss)
    best = _discarded_rate(q_z, q_x, eta, t, eta1_star, f_ec)
    return replace(best, method="discard_optimized", optimizer_args=(eta1_star, eta / eta1_star))


def _golden_min(fn, a: float, b: float) -> float:
    """Golden-section minimizer of ``fn`` on [a, b], to absolute tolerance 1e-10.

    Returns the midpoint of the final bracket. Ties move the bracket's upper
    end down, so of two equal values the lower point is kept.
    """
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


def keyrate_fung1(q_z: float, q_x: float, eta: float, p_pass: float) -> KeyRateResult:
    """Prior-work comparison rate p_pass*{2*eta/(1+eta)*[1-h(q_x)] - h(q_z)}."""
    _check_ranges(q_z, q_x, eta, 1.0, p_pass)
    rate = p_pass * (
        2.0 * eta / (1.0 + eta) * (1.0 - binary_entropy(q_x)) - binary_entropy(q_z)
    )
    return KeyRateResult(rate=rate, feasible=True, delta=None, lam=None, method="fung1")


def keyrate_fung2(q_z: float, q_x: float, eta: float, p_pass: float) -> KeyRateResult:
    """Pure-discarding comparison rate p_pass*2*eta/(1+eta)*[1-h(q_z)-h(q_x)]."""
    _check_ranges(q_z, q_x, eta, 1.0, p_pass)
    rate = (
        p_pass
        * 2.0
        * eta
        / (1.0 + eta)
        * (1.0 - binary_entropy(q_z) - binary_entropy(q_x))
    )
    return KeyRateResult(rate=rate, feasible=True, delta=None, lam=None, method="fung2")


def keyrate_two_detectors(
    q_z: float,
    q_x: float,
    eta0: float,
    eta1: float,
    method: str = "balanced",
    t: float = 1.0,
    f_ec: float = 1.0,
) -> KeyRateResult:
    """Rate for two imperfect detectors: max(eta0, eta1) * K(q_z, q_x, min/max).

    The common loss max(eta0, eta1) is folded into the transmission; the
    residual mismatch enters K through the chosen method.
    """
    if not 0.0 < eta0 <= 1.0 or not 0.0 < eta1 <= 1.0:
        raise ValueError("detector efficiencies must lie in (0, 1]")
    scale = max(eta0, eta1)
    base = _method_rate(method, q_z, q_x, min(eta0, eta1) / scale, t, f_ec)
    return replace(base, rate=scale * base.rate if base.rate is not None else None)


def _method_rate(
    method: str, q_z: float, q_x: float, eta: float, t: float, f_ec: float
) -> KeyRateResult:
    """The rate of a named method at mismatch eta and transparency t.

    The Fung et al. rates take no f_ec and are evaluated at the balanced
    pass rate t*(1+eta)/2.
    """
    if method == "balanced":
        return keyrate_balanced(q_z, q_x, eta, t, f_ec=f_ec)
    if method == "discard_optimized":
        return keyrate_discard_optimized(q_z, q_x, eta, t, f_ec=f_ec)
    if method == "fung1":
        return keyrate_fung1(q_z, q_x, eta, t * (1.0 + eta) / 2.0)
    if method == "fung2":
        return keyrate_fung2(q_z, q_x, eta, t * (1.0 + eta) / 2.0)
    raise ValueError(f"unknown method {method!r}")


def mismatch_penalty_ratio(q: float, eta: float) -> float:
    """Rate with detectors (1, eta) relative to matched detectors ((1+eta)/2 each).

    Both rates use QBER q in both bases and a perfect line. Raises
    NoKeyError when the no-mismatch reference rate is not positive.
    """
    reference = (1.0 + eta) / 2.0 * (1.0 - 2.0 * binary_entropy(q))
    if reference <= 0.0:
        raise NoKeyError(
            f"no-mismatch reference rate is {reference:.3e} <= 0 at q = {q}"
        )
    mismatch = keyrate_balanced(q, q, eta, 1.0)
    return mismatch.rate / reference
