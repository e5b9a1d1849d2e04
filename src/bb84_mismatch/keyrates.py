"""Closed-form secret-key rates for BB84 with detection-efficiency mismatch.

Every tight rate here is one formula in gain coordinates (``_entropy_args``).
With outcome gains a, b, pass rate p = a + b, transparency t = a + b/eta and
x-basis error gain x, it is p*[h(a/p) - h(lambda)] - f_ec*p*h(q_z), where
lambda = 1/2 - sqrt((a-b)^2 + eta*(t-2x)^2) / (2p). ``keyrate_general`` takes
a = t*(1+delta)/2, b = p - a, x = t*q_x; the discard-optimized rate is the
same form at gains (eta1*t/2, eta*t/2), x = eta1*t*q_x and mismatch eta/eta1.

Rates are in bits per channel use and may be negative; callers decide
whether to clamp. The error-correction term h(q_z) can be scaled by an
inefficiency factor ``f_ec`` (default 1, the Shannon limit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NoKeyError, _require_in
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


def _check_ranges(**named):
    """Error rates (q_z, q_x) must lie in [0, 1], the other named values in (0, 1]."""
    for name, value in named.items():
        _require_in(name, value, 0.0, 1.0, open_lo=name not in ("q_z", "q_x"))


def _require_f_ec(f_ec: float) -> None:
    """Reject an error-correction inefficiency that is nan, infinite or negative.

    Raises:
        ConfigError: unless 0 <= f_ec < inf.
    """
    _require_in("f_ec", f_ec, 0.0, math.inf, error=ConfigError)


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
    denominator = t * (1.0 - eta)
    if denominator == 0.0:
        raise ValueError(f"t*(1-eta) underflows to 0 at t = {t}, eta = {eta}")
    return (2.0 * p_pass - t * (1.0 + eta)) / denominator


def feasible(q_x: float, delta: float) -> bool:
    """Whether a PSD state compatible with (q_x, delta) exists.

    True iff 1 - sqrt(1 - delta^2) <= 2*q_x <= 1 + sqrt(1 - delta^2); |delta| > 1
    is always infeasible.
    """
    if abs(delta) > 1.0:
        return False
    root = math.sqrt(1.0 - delta**2)
    return 1.0 - root <= 2.0 * q_x <= 1.0 + root


def _entropy_args(a, b, t, x, eta):
    """(p, a/p, lambda) of the module docstring's formula, unclamped and
    elementwise; p = 0 gives nan or inf, never ZeroDivisionError. The root is
    a ``hypot``, so gains far below 1e-154 do not underflow when squared."""
    p = a + b
    return p, np.divide(a, p), 0.5 - np.hypot(a - b, np.sqrt(eta) * (t - 2.0 * x)) / (2.0 * p)


def _general_args(q_x: float, eta: float, t: float, p_pass: float, delta: float):
    """(h argument, lambda) at pass rate p_pass and imbalance delta: the kernel at
    gains a = t*(1+delta)/2, b = p_pass - a and x-error gain t*q_x. lambda is
    clamped at 0; below -1e-12 it raises ValueError (inconsistent observations).
    """
    a = t * (1.0 + delta) / 2.0
    # The gains can cancel to p = 0 (eta = 1 accepts |p_pass - t| <= 1e-12
    # at any scale); lambda is then -inf or nan and is rejected below.
    with np.errstate(divide="ignore", invalid="ignore"):
        _, arg, lam = _entropy_args(a, p_pass - a, t, t * q_x, eta)
    if lam < -1e-12:
        raise ValueError(f"phase-error argument {lam} is negative: observations are inconsistent")
    return float(arg), max(float(lam), 0.0)


def effective_phase_error(q: float, eta: float, t: float, p_pass: float) -> float:
    """The phase-error argument lambda of the closed form, in [0, 1/2], at
    pass rate p_pass and x-basis error rate q."""
    _check_ranges(q_x=q, eta=eta, t=t, p_pass=p_pass)
    return _general_args(q, eta, t, p_pass, detection_imbalance(p_pass, t, eta))[1]


def keyrate_general(
    q_z: float, q_x: float, eta: float, t: float, p_pass: float, f_ec: float = 1.0
) -> KeyRateResult:
    """Tight key rate for arbitrary pass rate:
    p_pass * [h(t*(1+delta)/(2*p_pass)) - h(lambda) - f_ec*h(q_z)].

    Returns an infeasible result (rate None) when no PSD state matches the
    observations. Raises ValueError if t*(1+delta)/(2*p_pass) falls outside
    [0, 1] beyond rounding, which signals inconsistent observations, and
    ConfigError unless f_ec is finite and non-negative.
    """
    _check_ranges(q_z=q_z, q_x=q_x, eta=eta, t=t, p_pass=p_pass)
    _require_f_ec(f_ec)
    delta = detection_imbalance(p_pass, t, eta)
    if not feasible(q_x, delta):
        return KeyRateResult(rate=None, feasible=False, delta=delta, lam=None, method="general")
    arg, lam = _general_args(q_x, eta, t, p_pass, delta)
    if arg < -1e-12 or arg > 1.0 + 1e-12:
        raise ValueError(f"entropy argument {arg} outside [0, 1]: observations are inconsistent")
    arg = min(max(arg, 0.0), 1.0)
    rate = p_pass * (binary_entropy(arg) - binary_entropy(lam) - f_ec * binary_entropy(q_z))
    return KeyRateResult(rate=rate, feasible=True, delta=delta, lam=lam, method="general")


def keyrate_balanced(
    q_z: float, q_x: float, eta: float, t: float = 1.0, f_ec: float = 1.0
) -> KeyRateResult:
    """Key rate at the balanced pass rate p_pass = t*(1+eta)/2:
    p_pass * [h(1/(1+eta)) - h(lambda(q_x, eta)) - f_ec*h(q_z)].

    The discard-optimized kernel at eta1 = 1, so ``keyrate_discard_optimized``,
    which has eta1 = 1 among its candidates, is never below it.

    Raises:
        ValueError: if an input is out of range or t*eta underflows to 0.
        ConfigError: unless f_ec is finite and non-negative.
    """
    rate, lam = _discarded_rate(q_x, eta, t, 1.0, _balanced_ec(q_z, q_x, eta, t, f_ec))
    return KeyRateResult(rate=float(rate), feasible=True, delta=0.0, lam=float(lam), method="balanced")


def _balanced_ec(q_z: float, q_x: float, eta: float, t: float, f_ec: float) -> float:
    """Check the inputs of a balanced rate; return its leakage f_ec*h(q_z)."""
    _check_ranges(q_z=q_z, q_x=q_x, eta=eta, t=t, p_pass=t * (1.0 + eta) / 2.0)
    _require_f_ec(f_ec)
    if not eta * t / 2.0 > 0.0:
        raise ValueError(f"t*eta underflows to 0 at t = {t}, eta = {eta}")
    return f_ec * binary_entropy(q_z)


def _discarded_rate(q_x: float, eta: float, t: float, eta1, ec: float):
    """Rate and lambda after discarding zero outcomes with probability 1 - eta1.

    The closed form at gains (eta1*t/2, eta*t/2), transparency eta1*t, x-error
    gain eta1*t*q_x and mismatch eta/eta1; it is balanced for every eta1.
    ``ec`` is f_ec*h(q_z). Elementwise over a scalar or an array ``eta1``.
    """
    t_eff = eta1 * t
    p, arg, lam = _entropy_args(t_eff / 2.0, eta * t / 2.0, t_eff, t_eff * q_x, eta / eta1)
    # lambda >= 0 holds exactly here; the clamp only absorbs rounding.
    lam = np.maximum(lam, 0.0)
    return p * (binary_entropy(arg) - binary_entropy(lam) - ec), lam


def keyrate_discard_optimized(
    q_z: float, q_x: float, eta: float, t: float = 1.0, f_ec: float = 1.0
) -> KeyRateResult:
    """Balanced rate maximized over the zero-discarding probability.

    Searches eta1 in [eta, 1] (probability 1 - eta1 of dropping each zero
    outcome); eta1 = 1 reproduces the plain balanced rate and eta1 = eta
    the pure discarding rate. Golden-section search seeded by a 64-point
    scan, evaluated as one array, guards against non-unimodality.

    Raises:
        ValueError: if an input is out of range or t*eta underflows to 0.
        ConfigError: unless f_ec is finite and non-negative.
    """
    ec = _balanced_ec(q_z, q_x, eta, t, f_ec)

    def loss(eta1):
        return -_discarded_rate(q_x, eta, t, eta1, ec)[0]

    grid = eta + (1.0 - eta) * np.arange(64) / 63.0
    ibest = int(np.argmin(loss(grid)))
    eta1_best = _golden_min(loss, float(grid[max(ibest - 1, 0)]), float(grid[min(ibest + 1, 63)]))
    # min keeps the first of equal losses, so ties go to the earlier candidate.
    eta1_star = min([eta1_best, float(grid[ibest]), eta, 1.0], key=loss)
    rate, lam = _discarded_rate(q_x, eta, t, eta1_star, ec)
    return KeyRateResult(
        rate=float(rate), feasible=True, delta=0.0, lam=float(lam),
        method="discard_optimized", optimizer_args=(eta1_star, eta / eta1_star),
    )


def _golden_min(fn, a: float, b: float) -> float:
    """Golden-section minimizer of ``fn`` on [a, b], to absolute tolerance
    1e-10; returns the midpoint of the final bracket. Ties move the bracket's
    upper end down, so of two equal values the lower point is kept.
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
    _check_ranges(q_z=q_z, q_x=q_x, eta=eta, p_pass=p_pass)
    rate = p_pass * (
        2.0 * eta / (1.0 + eta) * (1.0 - binary_entropy(q_x)) - binary_entropy(q_z)
    )
    return KeyRateResult(rate=rate, feasible=True, delta=None, lam=None, method="fung1")


def keyrate_fung2(q_z: float, q_x: float, eta: float, p_pass: float) -> KeyRateResult:
    """Pure-discarding comparison rate p_pass*2*eta/(1+eta)*[1-h(q_z)-h(q_x)]."""
    _check_ranges(q_z=q_z, q_x=q_x, eta=eta, p_pass=p_pass)
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
    eta, scale = _common_loss(eta0, eta1)
    base = _method_rate(method, q_z, q_x, eta, t, f_ec)
    return replace(base, rate=scale * base.rate if base.rate is not None else None)


def _common_loss(eta0: float, eta1: float) -> tuple[float, float]:
    """(eta, scale): the normalized mismatch min/max of two detector
    efficiencies in (0, 1], and the common loss max(eta0, eta1)."""
    _check_ranges(eta0=eta0, eta1=eta1)
    scale = max(eta0, eta1)
    return min(eta0, eta1) / scale, scale


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
