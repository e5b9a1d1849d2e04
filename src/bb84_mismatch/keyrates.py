"""Closed-form secret-key rates for BB84 with detection-efficiency mismatch.

Every tight rate here is one formula in gain coordinates (``_coherence``).
With outcome gains a, b, pass rate p = a + b, transparency t = a + b/eta and
x-basis error gain x, it is p*[h(a/p) - h(lambda)] - f_ec*p*h(q_z), where
lambda = 1/2 - sqrt((a-b)^2 + eta*(t-2x)^2) / (2p) (``_lam``). ``keyrate_general`` takes
the gains of ``_gains`` and x = t*q_x; the discard-optimized rate is the
same form at gains (eta1*t/2, eta*t/2), x = eta1*t*q_x and mismatch eta/eta1.
Its first term is the relative entropy of coherence of the block
[[a, y/2], [y/2, b]], y^2 = eta*(t-2x)^2, with eigenvalues p*lambda and
p*(1 - lambda): ``_coherence_grad`` gives its partials, whose chain rules are
the decoy corner test and the discard slope, and ``_admits`` judges feasibility.

Rates are in bits per channel use and may be negative; callers decide
whether to clamp. The error-correction term h(q_z) can be scaled by an
inefficiency factor ``f_ec`` (default 1, the Shannon limit).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NoKeyError, _require_in
from .linalg import _h, binary_entropy

# No rate where the smaller outcome gain is subnormal: its few bits make the rate noise.
_MIN_GAIN = sys.float_info.min

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
            eta = 1 but p_pass - t exceeds 1e-12*t, if t*(1-eta) underflows to 0,
            or if the quotient overflows (a pass rate far above a subnormal t).
    """
    if isinstance(p_pass, np.ndarray) or isinstance(t, np.ndarray) or isinstance(eta, np.ndarray):
        delta, bad = _imbalance(p_pass, t, eta)
        for point in zip(*(v[bad][:1].tolist() for v in np.broadcast_arrays(p_pass, t, eta))):
            detection_imbalance(*point)
        return delta
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
    delta = (2.0 * p_pass - t * (1.0 + eta)) / denominator
    if not math.isfinite(delta):
        raise ValueError(f"imbalance overflows at p_pass = {p_pass}, t = {t}, eta = {eta}")
    return delta


def _imbalance(p_pass, t, eta):
    """``detection_imbalance`` elementwise over arrays, never raising: (delta,
    bad), with bad where the scalar call raises and delta 0 there."""
    p_pass, t, eta = np.broadcast_arrays(p_pass, t, eta)
    balanced, denominator = eta == 1.0, t * (1.0 - eta)
    bad = ~((p_pass >= 0.0) & (p_pass < math.inf) & (t > 0.0) & (t < math.inf) & (eta > 0.0) & (eta <= 1.0))
    bad |= np.where(balanced, ~(np.abs(p_pass - t) <= 1e-12 * t), denominator == 0.0)
    with np.errstate(over="ignore"):
        numerator = 2.0 * p_pass - t * (1.0 + eta)
        delta = np.divide(numerator, denominator, out=np.zeros(p_pass.shape), where=~(balanced | bad))
    overflow = ~np.isfinite(delta)
    delta[overflow] = 0.0
    return delta, bad | overflow


def _gains(p_pass, rate, eta):
    """The one home of the outcome gains (a, b) that p_pass, rate = t*eta and eta fix, elementwise:
    a = (p_pass - rate)/(1 - eta), or t/2 at eta = 1, b = p_pass - a. No ``np.where``: 5 us a call."""
    one = eta == 1.0
    a = (p_pass - rate) * (1.0 - one) / (1.0 - eta + one) + one * rate / 2.0
    return a, p_pass - a


def feasible(q_x, delta):
    """Whether a PSD state compatible with (q_x, delta) exists, elementwise: ``_admits``
    at the eta = 1 gains ((1 + delta)/2, (1 - delta)/2), given, t = 1 and x = q_x. In exact
    arithmetic, |delta| <= 1 and 1 - sqrt(1 - delta^2) <= 2*q_x <= 1 + sqrt(1 - delta^2)."""
    p, lam = _lam((1.0 + delta) / 2.0, (1.0 - delta) / 2.0, 1.0, q_x, 1.0)
    return _admits(lam, p, 1.0, q_x, 0.0)


def _lam(a, b, t, x, eta):
    """(p, lambda) of the module docstring's formula, lambda unclamped and
    elementwise; p = 0 gives nan or inf, never ZeroDivisionError. The root is
    a ``hypot``, so gains far below 1e-154 do not underflow when squared."""
    p = a + b
    return p, 0.5 - np.hypot(a - b, np.sqrt(eta) * (t - 2.0 * x)) / (2.0 * p)


def _coherence(a, b, t, x, eta):
    """(p, a/p, lambda, lambda clamped at 0, h(a/p) - h(clamped lambda)): the
    value of the module docstring's formula per pass rate, elementwise, with
    a + b of the broadcast shape. Unchecked: ``_h`` reads an argument beyond
    [0, 1] as its nearer end, and ``_admits`` judges lambda."""
    p, lam = _lam(a, b, t, x, eta)
    arg, clamped = np.divide(a, p), np.maximum(lam, 0.0)
    h_arg, h_lam = _h(np.array((arg, clamped)))  # one call for both halves the overhead
    return p, arg, lam, clamped, h_arg - h_lam


def _coherence_grad(a, b, w, r, ew, er):
    """Partials (F_a, F_b, F_w) and allowances (E_a, E_b, E_w) of F =
    p*[h(a/p) - h(lambda)], the relative entropy of coherence of the block
    [[a, y/2], [y/2, b]], in block coordinates: p = a + b and w = 4ab - y^2 =
    p^2 - r^2, four times the determinant, with r = p*(1 - 2*lambda), the
    eigenvalues' gap; the caller passes w and r free of cancellation. As
    lambda = w/(2p(p + r)), dlambda/dw = 1/(4pr), dlambda/da = -w/(2p^2*r):
      F_a = log2(p/a) - h(lambda) + L*w/(2pr),  F_b likewise,  F_w = -L/(4r),
    L = log2((1 - lambda)/lambda), every L term 0 where lambda = 0.

    Allowance: u = 2^-53. +, -, *, / and sqrt round correctly (within u
    relative); log2 and hypot are taken within one ulp of the correctly
    rounded value, so within 3u of the exact one. numpy's accuracy test
    asserts that bound for float64 log2 on whichever vectorized path runs,
    glibc's error table gives it for hypot, and
    ``test_log2_and_hypot_are_within_one_ulp`` checks both on the build in use. With a, b exact and w and r within
    relative ew and er, lambda is within ew + er/2 + 5u relative, which moves
    h(lambda) by lambda*L <= h(lambda) times that and L by 2.9 times it. To
    first order F_i is within 4u*|log2(p/gain_i)| + 10u + 1.5u*W*l +
    e0*(h(lambda) + |L|*W/2 + 1.5W) and F_w within (3e0 + 4u*l)/(4r) + e0*|F_w|:
    e0 = ew + er + 16u, W = w/(pr), l = -log2(lambda(1 - lambda)) >= |L|. A
    chain rule F_i + F_w*m_i - c, m_i = dw/di within dm_i and c >= 0 exact,
    adds |F_w|*dm_i and roundings of 2u*|F_i| + 3u*|F_w*m_i| + u*c. As
    h(lambda) <= 1 and u <= e0/16, it is then within a quarter of
    E_i + |m_i|*E_w + 4|F_w|(dm_i + 2u|m_i|) + 4u*c, with the returned
      E_i = 2^-48*(2 + |log2(p/gain_i)|) + e*(1 + W*(2 + l)),  E_w = 0.75*e*(1 + l)/r,
    e = 4*e0: the factor 4 is headroom for what first order drops.
    Intermediates below the normal range move F_i by far less than its
    constant term. Allowances are inf or nan where a gain is 0, r = 0 or
    lambda < 0, so tests against them fail.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p = np.add(a, b)
        lam = w / (2.0 * p * (p + r))
        # log2(1) = 0 in place of log2(lambda) at lambda = 0 zeroes every L term.
        lg1, lg2 = np.log2(np.where(lam == 0.0, 1.0, lam)), np.log2(1.0 - lam)
        big_l, big_w, l = lg2 - lg1, w / (p * r), -(lg1 + lg2)
        rest = big_l * (lam - big_w / 2.0) - lg2  # h(lambda) - L*w/(2pr)
        head_a, head_b = np.log2(p / a), np.log2(p / b)
        e = 4.0 * (ew + er + 2.0**-49)
        e_ab = 2.0**-47 + e * (1.0 + big_w * (2.0 + l))
        partials = (head_a - rest, head_b - rest, big_l / (-4.0 * r))
        allowances = (2.0**-48 * abs(head_a) + e_ab, 2.0**-48 * abs(head_b) + e_ab, 0.75 * e * (1.0 + l) / r)
    return partials, allowances


def _admits(lam, p, t, x, span):
    """Whether observations admit a PSD state, elementwise: the one feasibility
    rule of the rates, the oracle and the attack state. It tests lambda (``_lam``)
    at pass rate p, transparency t and x-error gain x against lambda >= -allowance,
    allowance = 2^-51*(s + span)/p, s = p + t + 2x. With u = 2^-53, 2^-51*s/p is
    the value path's rounding: at exact gains r is within 6u*s, so lambda is
    within 3u*s/p and its own roundings. 2^-51*span/p is how finely the inputs
    fix the outcome-0 gain: span is 0 where the gains are given, and
    ``_admissible``'s where ``_gains`` derives them. Taken as
    p*lambda + 2^-51*(s + span) >= 0, which p = 0, nan and -inf fail without a division."""
    return lam * p + 2.0**-51 * (p + t + 2.0 * x + span) >= 0.0


def _admissible(lam, a, p, t, x, eta):
    """``_admits`` at a of ``_gains`` and p = a + b: the rule of the general rate,
    ``ignorance_term`` and ``minimize``. p_pass and t*eta are known to u*t each
    and a's roundings add 2u*t, so a - b is known to 5u*t/(1 - eta) and p to u*t
    (inside the value path's part). That moves p*lambda by |a - b|/(2r) times it,
    and r = p(1 - 2*lambda) >= p(1 - lambda) where the rule decides (lambda <= 0):
    span = t*|a - b|/((1 - eta)p(1 - lambda)) gives 4u*span against 2.5u*span.
    At eta = 1, a = t/2 is exact and span is 0."""
    span = t * abs(2.0 * a - p) * (eta < 1.0) / ((1.0 - eta + (eta == 1.0)) * (p - lam * p))
    return _admits(lam, p, t, x, span)


def _checked_lam(p_pass, rate, t, x, eta):
    """(a, p, lambda unclamped) at the gains of ``_gains`` and x-error gain x:
    the one check of ``effective_phase_error``, ``verifier.ignorance_term`` and
    ``verifier.minimize``. ValueError where ``detection_imbalance`` or
    ``_admissible`` rejects the values."""
    detection_imbalance(p_pass, t, eta)  # for its errors only
    a, b = _gains(p_pass, rate, eta)
    with np.errstate(divide="ignore", invalid="ignore"):  # gains that cancel to p = 0 give lambda -inf or nan
        p, lam = _lam(a, b, t, x, eta)
        if not _admissible(lam, a, p, t, x, eta):
            raise ValueError(f"phase-error argument {lam} at gains ({a}, {b}): the observations admit no PSD state")
    return a, p, lam


def effective_phase_error(q: float, eta: float, t: float, p_pass: float) -> float:
    """The phase-error argument lambda of the closed form, in [0, 1/2], at
    pass rate p_pass and x-basis error rate q."""
    _check_ranges(q_x=q, eta=eta, t=t, p_pass=p_pass)
    return float(max(_checked_lam(p_pass, t * eta, t, t * q, eta)[2], 0.0))


def _subnormal(gain):
    """Whether an outcome gain is nonzero but below ``_MIN_GAIN`` in size, elementwise."""
    return (gain != 0.0) & (np.abs(gain) < _MIN_GAIN)


def keyrate_general(
    q_z: float, q_x: float, eta: float, t: float, p_pass: float, f_ec: float = 1.0
) -> KeyRateResult:
    """Tight key rate for arbitrary pass rate:
    p_pass * [h(a/p_pass) - h(lambda) - f_ec*h(q_z)], a the outcome-0 gain of ``_gains``.

    Returns an infeasible result (rate None) where ``_admissible`` rejects
    the gains: no PSD state matches the observations. Raises ValueError if
    ``detection_imbalance`` rejects the inputs or an outcome gain a or
    p_pass - a is nonzero but below ``_MIN_GAIN`` (a gain of 0, at
    delta = +-1, is kept), and ConfigError unless f_ec is finite and
    non-negative.
    """
    _check_ranges(q_z=q_z, q_x=q_x, eta=eta, t=t, p_pass=p_pass)
    _require_f_ec(f_ec)
    delta = detection_imbalance(p_pass, t, eta)
    for name, gain in zip(("a", "p_pass - a"), _gains(p_pass, t * eta, eta)):
        if _subnormal(gain):
            _require_in(f"outcome gain {name}", gain, _MIN_GAIN, 1.0)
    rate, lam, _ = _rates("general", q_z, q_x, eta, t, f_ec, p_pass)
    if np.isnan(rate[0]):
        return KeyRateResult(rate=None, feasible=False, delta=delta, lam=None, method="general")
    return KeyRateResult(rate=rate.item(), feasible=True, delta=delta, lam=lam.item(), method="general")


def keyrate_balanced(
    q_z: float, q_x: float, eta: float, t: float = 1.0, f_ec: float = 1.0
) -> KeyRateResult:
    """Key rate at the balanced pass rate p_pass = t*(1+eta)/2:
    p_pass * [h(1/(1+eta)) - h(lambda(q_x, eta)) - f_ec*h(q_z)].

    The discarded rate at eta1 = 1, so ``keyrate_discard_optimized``,
    which has eta1 = 1 among its candidates, is never below it.

    Raises:
        ValueError: if an input is out of range or t*eta/2 is below ``_MIN_GAIN``.
        ConfigError: unless f_ec is finite and non-negative.
    """
    _check_balanced(q_z, q_x, eta, t, f_ec)
    rate, lam, _ = _rates("balanced", q_z, q_x, eta, t, f_ec)
    return KeyRateResult(rate=rate.item(), feasible=True, delta=0.0, lam=lam.item(), method="balanced")


def _check_balanced(q_z: float, q_x: float, eta: float, t: float, f_ec: float) -> None:
    """Raise unless a balanced rate's inputs are in range and its smaller
    outcome gain t*eta/2 is at least ``_MIN_GAIN``."""
    _check_ranges(q_z=q_z, q_x=q_x, eta=eta, t=t, p_pass=t * (1.0 + eta) / 2.0)
    _require_f_ec(f_ec)
    _require_in("outcome gain t*eta/2", eta * t / 2.0, _MIN_GAIN, 1.0)


def _discarded_rate(q_x: float, eta: float, t: float, eta1, ec: float):
    """Rate and lambda after discarding zero outcomes with probability 1 - eta1.

    The closed form at gains (eta1*t/2, eta*t/2), transparency eta1*t, x-error
    gain eta1*t*q_x and mismatch eta/eta1; it is balanced for every eta1.
    ``ec`` is f_ec*h(q_z). Elementwise over a scalar or an array ``eta1``, or
    over arrays q_x, eta and ec of one shape.
    """
    t_eff = eta1 * t
    # lambda >= 0 holds exactly here; the clamp only absorbs rounding.
    p, _, _, lam, h = _coherence(t_eff / 2.0, eta * t / 2.0, t_eff, t_eff * q_x, eta / eta1)
    return p * (h - ec), lam


def _discard_slope(q_x, eta, ec):
    """(dR/da, allowance) of the discarded rate R at eta1 = 1, elementwise;
    ``ec`` as in ``_discarded_rate``. The kernel's chain rule where a = eta1*t/2
    moves and b = eta*t/2 does not: y^2 = 4ab*(1 - k), so w = 4ab*k with
    k = 4q_x(1 - q_x), dw/da = w/a and dR/da = log2(p/a) - h(lambda) - ec +
    L*(a - b)*w/(4apr). It is free of scale, so (a, b) = (1, eta): w and r are
    within 3u and 6u relative (u = 2^-53; passed as 2^-51 and 2^-50), m = w/a
    = w, and the chain rule adds 4(dm + 2u*m) <= 2^-48*w and 4u*ec = 2^-51*ec."""
    k = 4.0 * q_x * (1.0 - q_x)
    w, r = 4.0 * eta * k, np.hypot(1.0 - eta, 2.0 * np.sqrt(eta) * (1.0 - 2.0 * q_x))
    (f_a, _, f_w), (e_a, _, e_w) = _coherence_grad(1.0, eta, w, r, 2.0**-51, 2.0**-50)
    return f_a + f_w * w - ec, e_a + w * (e_w + 2.0**-48 * np.abs(f_w)) + 2.0**-51 * ec


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
    concave, so the rate is concave in eta1: a maximizer lies within one step
    of a grid's first best point. Proof: with c = 4s(1 - s), k = 4q_x(1 - q_x)
    and phi(u) = h((1 - sqrt(1 - u))/2), h(s) = phi(c), h(lambda(s)) = phi(kc)
    and g = psi(c) - f_ec*h(q_z), psi(u) = phi(u) - phi(ku). c is concave in
    s, so g is concave if psi is nondecreasing and concave (sec. 3.2.4), which
    for 0 <= k <= 1 follows from (L1) u*phi'(u) nondecreasing and (L2)
    u^2*phi''(u) nonincreasing. Both are series in w = 1 - u: u*phi'(u) =
    [1 - sum_{j>=1} 2w^j/((2j-1)(2j+1))]/(2 ln 2) and u^2*phi''(u) =
    -(1-w)^2*sum_{j>=0} (2j+2)/(2j+3)*w^j/(4 ln 2), whose product series has
    coefficients 2/3, -8/15, then -Delta^2[1/(2j+1)] < 0 (1/x is convex).

    Certificate: a concave rate whose slope at eta1 = 1 is positive peaks
    there. So where the closed-form slope dR/da = g(s) + (1 - s)*g'(s) at
    s = 1/(1 + eta) exceeds its first-order rounding allowance in
    ``_discard_slope`` (the coherence kernel's chain rule), eta1 = 1
    is returned without a search: the balanced rate, bit for bit. Elsewhere
    256-point grids shrink to the first best point's neighbours until those
    are at most 1e-10 apart; the first best of eta1 = 1, that point and
    eta1 = eta wins, so a tie goes to the balanced rate.

    Raises:
        ValueError: if an input is out of range or t*eta/2 is below ``_MIN_GAIN``.
        ConfigError: unless f_ec is finite and non-negative.
    """
    _check_balanced(q_z, q_x, eta, t, f_ec)
    rate, lam, eta1 = (v.item() for v in _rates("discard_optimized", q_z, q_x, eta, t, f_ec))
    return KeyRateResult(
        rate=rate, feasible=True, delta=0.0, lam=lam, method="discard_optimized", optimizer_args=(eta1, eta / eta1)
    )


def _zoom(q_x: float, eta: float, t: float, ec: float) -> list[tuple]:
    """(rate, lambda, eta1) at the grid zoom's point and at eta1 = eta."""
    lo, hi, x = eta, 1.0, eta
    while hi - lo > 1e-10:
        grid = np.linspace(lo, hi, 256)
        k = int(np.argmax(_discarded_rate(q_x, eta, t, grid, ec)[0]))
        lo, hi, x = grid[[max(k - 1, 0), min(k + 1, 255), k]].tolist()
    return list(zip(*_discarded_rate(q_x, eta, t, np.array([x, eta]), ec), (x, eta)))


def keyrate_fung1(q_z: float, q_x: float, eta: float, p_pass: float) -> KeyRateResult:
    """Prior-work comparison rate p_pass*{2*eta/(1+eta)*[1-h(q_x)] - h(q_z)}."""
    _check_ranges(q_z=q_z, q_x=q_x, eta=eta, p_pass=p_pass)
    _require_in("outcome gain eta*p_pass/(1+eta)", eta * p_pass / (1.0 + eta), _MIN_GAIN, 1.0)
    rate = _rates("fung1", q_z, q_x, eta, p_pass=p_pass)[0].item()
    return KeyRateResult(rate=rate, feasible=True, delta=None, lam=None, method="fung1")


def keyrate_fung2(q_z: float, q_x: float, eta: float, p_pass: float) -> KeyRateResult:
    """Pure-discarding comparison rate p_pass*2*eta/(1+eta)*[1-h(q_z)-h(q_x)]."""
    _check_ranges(q_z=q_z, q_x=q_x, eta=eta, p_pass=p_pass)
    _require_in("outcome gain eta*p_pass/(1+eta)", eta * p_pass / (1.0 + eta), _MIN_GAIN, 1.0)
    rate = _rates("fung2", q_z, q_x, eta, p_pass=p_pass)[0].item()
    return KeyRateResult(rate=rate, feasible=True, delta=None, lam=None, method="fung2")


def _common_loss(eta0: float, eta1: float) -> tuple[float, float]:
    """(eta, scale): the normalized mismatch min/max of two detector
    efficiencies in (0, 1], and the common loss max(eta0, eta1)."""
    _check_ranges(eta0=eta0, eta1=eta1)
    scale = max(eta0, eta1)
    return min(eta0, eta1) / scale, scale


def mismatch_penalty_ratio(q: float, eta: float) -> float:
    """Rate with detectors (1, eta) relative to matched detectors ((1+eta)/2 each).

    Both rates use QBER q in both bases and a perfect line. Raises
    NoKeyError when the no-mismatch reference rate is not positive.
    """
    _check_balanced(q, q, eta, 1.0, 1.0)
    ratio, _, reference = _rates("penalty_ratio", q, q, eta)
    if np.isnan(ratio[0]):
        raise NoKeyError(f"no-mismatch reference rate is {reference.item():.3e} <= 0 at q = {q}")
    return ratio.item()


def _rates(method: str, q_z, q_x, eta, t: float = 1.0, f_ec: float = 1.0, p_pass: float | None = None):
    """``method``'s (rate, lambda, extra) at each point of q_z, q_x and eta,
    broadcast to 1-d arrays, at floats t, f_ec and p_pass, all range-checked by
    the caller; the public rates are its one-row calls. The rate is nan where
    the public call raises or has no rate, lambda nan where a method has none;
    ``extra`` is delta (general), eta1* (balanced: 1; discard_optimized) or the
    no-mismatch reference rate (penalty_ratio). fung1 and fung2 take p_pass
    or, without it, the balanced pass rate t*(1+eta)/2 of the balanced methods.
    """
    q_z, q_x, eta = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in (q_z, q_x, eta)))
    rate, lam, extra = (np.full(eta.shape, np.nan) for _ in range(3))
    if method == "penalty_ratio":
        extra = (1.0 + eta) / 2.0 * (1.0 - 2.0 * binary_entropy(q_x))
        np.divide(_rates("balanced", q_x, q_x, eta)[0], extra, out=rate, where=extra > 0.0)
    elif method in ("fung1", "fung2"):
        p = t * (1.0 + eta) / 2.0 if p_pass is None else p_pass
        h_z, h_x = binary_entropy(q_z), binary_entropy(q_x)
        if method == "fung1":
            rate = p * (2.0 * eta / (1.0 + eta) * (1.0 - h_x) - h_z)
        else:
            rate = p * 2.0 * eta / (1.0 + eta) * (1.0 - h_z - h_x)
        rate = np.where(eta * p / (1.0 + eta) >= _MIN_GAIN, rate, np.nan)
    elif method == "general":
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # delta can overflow, p cancel to 0
            extra, bad = _imbalance(p_pass, t, eta)
            (a, b), x = _gains(p_pass, t * eta, eta), t * q_x
            p, _, raw, clamped, h = _coherence(a, b, t, x, eta)
            ok = ~bad & _admissible(raw, a, p, t, x, eta) & ~_subnormal(a) & ~_subnormal(b)
        lam[ok] = clamped[ok]
        rate[ok] = p_pass * (h[ok] - f_ec * binary_entropy(q_z[ok]))
    else:
        ok = eta * t / 2.0 >= _MIN_GAIN
        ec = f_ec * binary_entropy(q_z)
        rate[ok], lam[ok] = _discarded_rate(q_x[ok], eta[ok], t, 1.0, ec[ok])
        extra = np.ones(eta.shape)
        if method == "discard_optimized":
            slope, allowance = _discard_slope(q_x, eta, ec)
            for i in np.flatnonzero(ok & (eta < 1.0) & ~(slope > allowance)).tolist():
                # The first of equal rates wins, so a tie goes to eta1 = 1.
                zoomed = _zoom(q_x[i].item(), eta[i].item(), t, ec[i].item())
                rate[i], lam[i], extra[i] = max([(rate[i], lam[i], 1.0), *zoomed], key=lambda cand: cand[0])
    return rate, lam, extra
