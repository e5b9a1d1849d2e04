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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NoKeyError, _require_in
from .linalg import binary_entropy

@dataclass(frozen=True)
class KeyRateResult:
    """A key-rate value with its feasibility flag and intermediate quantities.

    ``rate`` is None when ``feasible`` is False. ``delta`` is the detection
    imbalance, ``lam`` the effective phase-error argument entering h().
    ``optimizer_args`` holds (eta1, eta2) for the discard-optimized rate;
    ``argmin`` and ``at_lower_corner`` describe the decoy box minimum, and
    ``rate_lower`` is a certified lower bound on it (None where it has none).
    """

    rate: float | None
    feasible: bool
    delta: float | None
    lam: float | None
    method: str
    optimizer_args: tuple[float, float] | None = None
    argmin: tuple[float, float] | None = None
    at_lower_corner: bool | None = None
    rate_lower: float | None = None

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

    Numpy arrays (broadcast together) give an array, equal entry by entry to the
    scalar results, and raise the scalar error of their first failing entry.

    Raises:
        ValueError: unless 0 <= p_pass < inf, 0 < t < inf and 0 < eta <= 1; if
            eta = 1 but p_pass - t exceeds 1e-12*t, or t*(1-eta) underflows to 0.
    """
    if isinstance(p_pass, np.ndarray) or isinstance(t, np.ndarray) or isinstance(eta, np.ndarray):
        p_pass, t, eta = np.broadcast_arrays(p_pass, t, eta)
        balanced, denominator = eta == 1.0, t * (1.0 - eta)
        bad = ~((p_pass >= 0.0) & (p_pass < math.inf) & (t > 0.0) & (t < math.inf) & (eta > 0.0) & (eta <= 1.0))
        bad |= np.where(balanced, ~(np.abs(p_pass - t) <= 1e-12 * t), denominator == 0.0)
        for point in zip(*(v[bad][:1].tolist() for v in (p_pass, t, eta))):
            detection_imbalance(*point)
        return np.divide(2.0 * p_pass - t * (1.0 + eta), denominator, out=np.zeros(p_pass.shape), where=~balanced)
    _require_in("p_pass", p_pass, 0.0, math.inf)
    _require_in("t", t, 0.0, math.inf, open_lo=True)
    _require_in("eta", eta, 0.0, 1.0, open_lo=True)
    if eta == 1.0:
        if abs(p_pass - t) <= 1e-12 * t:
            return 0.0
        raise ValueError(f"eta = 1 requires p_pass = t, got p_pass = {p_pass}, t = {t}: observations are inconsistent")
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


def _entropy_grad(a, b, x, eta):
    """Partials in a and b of the formula's p*[h(a/p) - h(lambda)] along the
    single-photon transparency t = a + b/eta, at a fixed x-error gain x >= 0,
    with a rounding allowance for each; elementwise, never raising.

    With d = t - 2x and r = hypot(a - b, sqrt(eta)*d) = p*(1 - 2*lambda):
      d/da = log2(p/a) - [(1 - r_a)*log2(1/lambda) + (1 + r_a)*log2(1/(1 - lambda))]/2,
    r_a = (a - b + eta*d)/r; d/db is the same with log2(p/b) and r_b = (b - a + d)/r.

    Allowance: every argument of the root is within a few ulps of
    S = p + t + 2x, so r is off by at most 6u*S (u = 2^-53), lambda by 4u*S/p
    and r_i by 7u*S*(1 + |r_i|)/r. Carried through the logarithms, the computed
    partial i is within a quarter of
      2^-48 * [1 + |log2(p/gain_i)| + (1 + |r_i|)*S*((L1 + L2)/r + 1/(p*lambda*(1 - lambda)))]
    of the exact one (L1, L2 the two logarithms), to first order. The
    allowance is inf or nan wherever a gain is 0, r = 0 or lambda <= 0, so the
    test ``partial > allowance`` fails at such points.

    Returns (partials, allowances), each with a last axis of 2: (a, b).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p, t = a + b, a + b / eta
        d = t - 2.0 * x
        r = np.hypot(a - b, np.sqrt(eta) * d)
        lam = 0.5 - r / (2.0 * p)
        l1, l2 = -np.log2(lam), -np.log2(1.0 - lam)
        cond = (p + t + 2.0 * x) * ((l1 + l2) / r + 1.0 / (p * lam * (1.0 - lam)))
        partials, allowances = [], []
        for gain, r_i in ((a, (a - b + eta * d) / r), (b, (b - a + d) / r)):
            head = np.log2(p / gain)
            partials.append(head - ((1.0 - r_i) * l1 + (1.0 + r_i) * l2) / 2.0)
            allowances.append(2.0**-48 * (1.0 + np.abs(head) + (1.0 + np.abs(r_i)) * cond))
    return np.stack(partials, axis=-1), np.stack(allowances, axis=-1)


def _general_args(q_x: float, eta: float, t: float, p_pass: float, delta: float):
    """(h argument, lambda) at pass rate p_pass and imbalance delta: the kernel at
    gains a = t*(1+delta)/2, b = p_pass - a and x-error gain x = t*q_x. lambda
    is clamped at 0; below -max(1e-12, 4u*(p + t + 2x)/p), its rounding
    allowance (``_entropy_grad``; u = 2^-53, p = a + b), it raises ValueError
    (inconsistent observations).
    """
    a, x = t * (1.0 + delta) / 2.0, t * q_x
    # Gains that cancel to p = 0 give a lambda of -inf or nan, rejected below.
    with np.errstate(divide="ignore", invalid="ignore"):
        p, arg, lam = _entropy_args(a, p_pass - a, t, x, eta)
    allowance = 2.0**-51 * (p + t + 2.0 * x) / p if p > 0.0 else 0.0
    if lam < -max(1e-12, allowance):
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


def _slope_at_one(q_x: float, eta: float, ec: float) -> tuple[float, float]:
    """dR/da of the discarded rate R = p*g(s) at eta1 = 1, with a rounding
    allowance; 0 < eta < 1, ``ec`` = f_ec*h(q_z) as in ``_discarded_rate``.

    With a = eta1*t/2, s = 1/(1 + eta), c = 1 - 2q_x, rho = hypot(2s - 1,
    2c*sqrt(s(1 - s))) and lambda = 1/2 - rho/2,
      dR/da = g(s) + (1 - s)*[log2((1 - s)/s) - log2((1 - lambda)/lambda)*lambda'],
    lambda' = -(2s - 1)(1 - c^2)/rho, the lambda term 0 where lambda = 0. Since
    h(s) + (1 - s)*log2((1 - s)/s) = -log2(s), this is computed as
      log2(1 + eta) - h(lambda) - ec + m*L,  L = log2((1 - lambda)/lambda),
    from k = 1 - c^2 = 4q_x(1 - q_x), m = (1 - s)(2s - 1)k/rho and lambda =
    2s(1 - s)k/(1 + rho), which is (1 - rho)/2 without its cancellation.

    Allowance: 1 - s, s and 2s - 1 are computed as eta, 1 and 1 - eta over
    1 + eta, so with log2 and hypot within one ulp, each of them, k, rho, m
    and lambda is within 18u relative of its exact value (u = 2^-53). So L is
    off by at most 58u + 3u*L, h(lambda) by 25u*h(lambda) + 2u (as
    lambda*L <= h(lambda)), log2(1 + eta) by 4u and, to first order, the
    computed slope is within
      u*[9 + 28*h(lambda) + 3*ec + m*(58 + 25*L)] <= 2^-47 * [1 + h(lambda) + ec + m*(1 + L)]
    of the exact one. Intermediates below the normal range move it by far
    less than the constant term.

    Returns (slope, allowance).
    """
    s0, s, d = eta / (1.0 + eta), 1.0 / (1.0 + eta), (1.0 - eta) / (1.0 + eta)
    k = 4.0 * q_x * (1.0 - q_x)
    rho = math.hypot(d, 2.0 * (1.0 - 2.0 * q_x) * math.sqrt(s * s0))
    lam, m = 2.0 * s * s0 * k / (1.0 + rho), s0 * d * k / rho
    h_lam = log_odds = 0.0
    if lam > 0.0:
        log_odds = math.log2(1.0 - lam) - math.log2(lam)
        h_lam = -lam * math.log2(lam) - (1.0 - lam) * math.log2(1.0 - lam)
    slope = math.log2(1.0 + eta) - h_lam - ec + m * log_odds
    return slope, 2.0**-47 * (1.0 + h_lam + ec + m * (1.0 + log_odds))


def keyrate_discard_optimized(
    q_z: float, q_x: float, eta: float, t: float = 1.0, f_ec: float = 1.0
) -> KeyRateResult:
    """Balanced rate maximized over the zero-discarding probability.

    Searches eta1 in [eta, 1] (probability 1 - eta1 of dropping each zero
    outcome); eta1 = 1 reproduces the plain balanced rate and eta1 = eta
    the pure discarding rate. At gains a = eta1*t/2, b = eta*t/2 the mismatch
    eta/eta1 = b/a makes lambda a function of s = a/(a + b), so the rate is
    (a + b)*g(a/(a + b)), the perspective of g(s) = h(s) - h(lambda(s)) -
    f_ec*h(q_z) (Boyd & Vandenberghe, Convex Optimization, sec. 3.2.6). g is
    concave (checked to 40 digits; constant at q_x = 1/2), so the rate is
    concave in eta1: a maximizer lies within one step of a grid's first best
    point.

    Certificate: a concave rate whose slope at eta1 = 1 is positive peaks
    there. So where the closed-form slope dR/da = g(s) + (1 - s)*g'(s) at
    s = 1/(1 + eta) exceeds its first-order rounding allowance, 2^-47 times
    1 + h(lambda) + f_ec*h(q_z) + a lambda term (``_slope_at_one``), eta1 = 1
    is returned without a search: the balanced rate, bit for bit. Elsewhere
    256-point grids shrink to the first best point's neighbours until those
    are at most 1e-10 apart; the first best of eta1 = 1, that point and
    eta1 = eta wins, so a tie goes to the balanced rate.

    Raises:
        ValueError: if an input is out of range or t*eta underflows to 0.
        ConfigError: unless f_ec is finite and non-negative.
    """
    ec = _balanced_ec(q_z, q_x, eta, t, f_ec)
    eta1s = (1.0,)
    if eta < 1.0:
        slope, allowance = _slope_at_one(q_x, eta, ec)
        if not slope > allowance:
            lo, hi, x = eta, 1.0, eta
            while hi - lo > 1e-10:
                grid = np.linspace(lo, hi, 256)
                k = int(np.argmax(_discarded_rate(q_x, eta, t, grid, ec)[0]))
                lo, hi, x = grid[[max(k - 1, 0), min(k + 1, 255), k]].tolist()
            eta1s = (1.0, x, eta)
    candidates = [(*_discarded_rate(q_x, eta, t, eta1, ec), eta1) for eta1 in eta1s]
    rate, lam, eta1_star = max(candidates, key=lambda c: c[0])  # the first of equal rates
    return KeyRateResult(
        rate=float(rate), feasible=True, delta=0.0, lam=float(lam),
        method="discard_optimized", optimizer_args=(eta1_star, eta / eta1_star),
    )


def keyrate_fung1(q_z: float, q_x: float, eta: float, p_pass: float) -> KeyRateResult:
    """Prior-work comparison rate p_pass*{2*eta/(1+eta)*[1-h(q_x)] - h(q_z)}."""
    _check_ranges(q_z=q_z, q_x=q_x, eta=eta, p_pass=p_pass)
    rate = p_pass * (2.0 * eta / (1.0 + eta) * (1.0 - binary_entropy(q_x)) - binary_entropy(q_z))
    return KeyRateResult(rate=rate, feasible=True, delta=None, lam=None, method="fung1")


def keyrate_fung2(q_z: float, q_x: float, eta: float, p_pass: float) -> KeyRateResult:
    """Pure-discarding comparison rate p_pass*2*eta/(1+eta)*[1-h(q_z)-h(q_x)]."""
    _check_ranges(q_z=q_z, q_x=q_x, eta=eta, p_pass=p_pass)
    rate = p_pass * 2.0 * eta / (1.0 + eta) * (1.0 - binary_entropy(q_z) - binary_entropy(q_x))
    return KeyRateResult(rate=rate, feasible=True, delta=None, lam=None, method="fung2")


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
        raise NoKeyError(f"no-mismatch reference rate is {reference:.3e} <= 0 at q = {q}")
    mismatch = keyrate_balanced(q, q, eta, 1.0)
    return mismatch.rate / reference
