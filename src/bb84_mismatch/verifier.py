"""Numerical certification of the analytic key-rate minimum.

Evaluates the relative entropy of coherence of the post-measurement state,
its gradient, and minimizes it over the constrained PSD set with a
projected-gradient method, so the closed-form rate can be checked against an
independent optimizer. Also hosts the spectral, stationarity and
error-correction consistency checks. The stationarity check derives the
allowed directions from the constraint operators of ``build_gamma_set``, so it
is the residual ``minimize`` reports and holds at every eta, eta = 1 (where
two of the operators coincide) included.

The objective and the minimizer share one relative-entropy kernel,
``linalg._relative_entropy``, and one gradient, ``_gradient_block``; the
public ``objective`` and ``gradient`` validate their input and then call them.

The objective only depends on the 4x4 photon block (vacuum components drop
out of the post-selection map), so the minimizer works on that block; 6x6
inputs are accepted everywhere and reduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FeasibilityError, _require_in
from .keyrates import _check_ranges, _general_args, detection_imbalance, effective_phase_error
from .keyrates import feasible as _feasible
from .linalg import (
    _psd_project,
    _relative_entropy,
    binary_entropy,
    relative_entropy,
    require_hermitian,
    support_log2,
)
from .protocol import ALICE_BITS, BOB_BITS, GammaSet, _depolarized_bell, build_gamma_set, photon_block

_PINCH_MASK = (ALICE_BITS[:, None] == ALICE_BITS[None, :]).astype(float)


@dataclass(frozen=True)
class MinimizationReport:
    """Outcome of a constrained minimization run.

    ``constraint_residuals`` are |Tr Gamma_i rho* - gamma_i|; ``kkt_residual``
    is the norm of the gradient projected onto the allowed directions at
    rho_star (restricted to the support face when rho_star is singular).
    ``projection_sweeps`` counts the Dykstra sweeps of all feasible-set
    projections of the run, and ``projection_cap_hits`` the projections that
    stopped at their sweep cap instead of converging.
    """

    rho_star: np.ndarray
    f_star: float
    iterations: int
    converged: bool
    constraint_residuals: np.ndarray
    kkt_residual: float
    projection_sweeps: int = 0
    projection_cap_hits: int = 0


def _weights(eta: float) -> np.ndarray:
    """Entrywise weights eta^((j+l)/2) indexed by Bob's bits of row and column."""
    root = np.sqrt(eta)
    return root ** (BOB_BITS[:, None] + BOB_BITS[None, :])


def channel_G(rho: np.ndarray, eta: float) -> np.ndarray:
    """Post-selection map onto the sifted key: weighted photon block, vacuum dropped.

    Entry (ij, kl) of the output is eta^((j+l)/2) * rho_(ij,kl) with j, l
    Bob's bit values; identical to the photon block when eta = 1.
    """
    _require_in("eta", eta, 0.0, 1.0, open_lo=True)
    block = photon_block(np.asarray(rho, dtype=complex))
    return _weights(eta) * block


def pinch_Z(M: np.ndarray) -> np.ndarray:
    """Dephase the key register: zero every entry whose Alice indices differ."""
    M = np.asarray(M, dtype=complex)
    if M.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {M.shape}")
    return M * _PINCH_MASK


def objective(rho: np.ndarray, eta: float) -> float:
    """Relative entropy of coherence D(G(rho) || Z(G(rho))) in bits.

    Always finite: the pinching's kernel lies inside the kernel of G(rho).
    """
    rho = require_hermitian(rho)
    g = channel_G(rho, eta)
    value = relative_entropy(g, pinch_Z(g))
    return max(value, 0.0)


def _objective_block(block: np.ndarray, eta: float) -> float:
    """Objective on a trusted photon block, skipping input validation."""
    g = _weights(eta) * block
    return max(_relative_entropy(g, pinch_Z(g)), 0.0)


def _gradient_block(block: np.ndarray, eta: float) -> np.ndarray:
    """Gradient on a trusted photon block: the post-selection weights applied
    to log G(rho) - log Z(G(rho)), each log taken on its support."""
    g = _weights(eta) * block
    L = support_log2(g) - support_log2(pinch_Z(g))
    return _weights(eta) * L


def gradient(rho: np.ndarray, eta: float) -> np.ndarray:
    """Gradient of the objective, as the Hermitian matrix pairing with
    directions via Tr(grad * direction).

    Computed as the dual map applied to log G(rho) - log Z(G(rho)) on the
    support; well defined by continuity on degenerate inputs. The output has
    the same dimension as rho, with vanishing vacuum components.
    """
    rho = require_hermitian(rho)
    _require_in("eta", eta, 0.0, 1.0, open_lo=True)
    out = np.zeros(rho.shape, dtype=complex)
    out[:4, :4] = _gradient_block(photon_block(rho), eta)
    return out


def _checked_block(rho_bar: np.ndarray) -> np.ndarray:
    """The photon block of a Hermitian ``rho_bar``, for the public checks.

    Raises ``ValueError`` unless the block's trace is positive: the leak and
    the spectrum normalize by it, and a state without single-photon weight
    has no stationarity to check.
    """
    block = photon_block(require_hermitian(rho_bar))
    trace = float(np.real(np.trace(block)))
    if not trace > 0.0:
        raise ValueError(f"photon block trace = {trace}: the state has no single-photon weight")
    return block


def kkt_orthogonality_check(rho_bar: np.ndarray, eta: float) -> float:
    """Norm of the gradient projected onto the directions the constraint
    operators of ``build_gamma_set(eta)`` allow at rho_bar: the stationarity
    residual that ``minimize`` reports, with the same face restriction.

    A residual at rounding level certifies stationarity; a perturbed state
    shows a residual of the order of the perturbation. Near the feasibility
    boundary the gradient is only defined by continuity and the residual
    loses meaning.
    """
    return _face_kkt_residual(_checked_block(rho_bar), eta, build_gamma_set(eta))


def _extract_attack_parameters(block: np.ndarray, eta: float):
    """Recover (q_z, q_x, delta, t, p_pass) from a two-block attack state."""
    diag = np.real(np.diag(block))
    t = float(diag.sum())
    qz = float((diag[1] + diag[2]) / t)
    if qz < 1.0:
        delta = float((diag[0] - diag[3]) / (t * (1.0 - qz)))
        corner = float(np.real(block[0, 3]))
        qx = 0.5 * (1.0 - 2.0 * corner / (t * (1.0 - qz)))
    else:
        delta = float((diag[2] - diag[1]) / (t * qz))
        corner = float(np.real(block[1, 2]))
        qx = 0.5 * (1.0 - 2.0 * corner / (t * qz))
    p_pass = float(diag[0] + eta * diag[1] + diag[2] + eta * diag[3])
    return qz, qx, delta, t, p_pass


def eigenvalues_check(rho_bar: np.ndarray, eta: float, tol: float = 1e-10) -> bool:
    """Whether the spectrum of G(rho_bar) matches its closed form.

    The expected eigenvalues are {(1-q_z)*lam_pm, q_z*lam_pm} with
    lam_minus = p_pass * lambda(q_x, eta, t, p_pass) and
    lam_plus = p_pass - lam_minus.
    """
    block = _checked_block(rho_bar)
    qz, qx, _, t, p_pass = _extract_attack_parameters(block, eta)
    lam_minus = p_pass * effective_phase_error(qx, eta, t, p_pass)
    lam_plus = p_pass - lam_minus
    expected = np.sort(
        [
            (1.0 - qz) * lam_minus,
            (1.0 - qz) * lam_plus,
            qz * lam_minus,
            qz * lam_plus,
        ]
    )
    actual = np.sort(np.linalg.eigvalsh(channel_G(block, eta)))
    return bool(np.max(np.abs(actual - expected)) <= tol)


def error_correction_leak(rho_bar: np.ndarray, eta: float) -> float:
    """Conditional entropy H(A|B) of the sifted-key joint distribution, in bits.

    The joint distribution of Alice's and Bob's bits is the normalized
    diagonal of G(rho_bar). Equals h(q_z) for the extremal attack state.
    """
    block = _checked_block(rho_bar)
    p = np.real(np.diag(channel_G(block, eta)))
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    joint = -float(np.sum(p[p > 0] * np.log2(p[p > 0])))
    pb = np.array([p[BOB_BITS == 0].sum(), p[BOB_BITS == 1].sum()])
    marg = -float(np.sum(pb[pb > 0] * np.log2(pb[pb > 0])))
    return joint - marg


def _gram(ops: list[np.ndarray]) -> np.ndarray:
    """Real Gram matrix Re Tr(a b) of a list of Hermitian operators."""
    return np.array([[float(np.real(np.trace(a @ b))) for b in ops] for a in ops])


def _face_kkt_residual(
    x: np.ndarray, eta: float, gammas: GammaSet, cutoff: float = 1e-7
) -> float:
    """Norm of the gradient projected onto the directions allowed at x.

    At a singular x the two-sided directions are those preserving the
    support face, so the gradient is compressed onto the face before the
    constraint span is projected out. ``cutoff`` is the relative eigenvalue
    noise floor separating the face from projection round-off.
    """
    w, V = np.linalg.eigh(x)
    keep = w > cutoff * max(float(w[-1]), 1e-300)
    U = V[:, keep]
    if U.shape[1] == 0:
        return float("inf")
    grad4 = _gradient_block(x, eta)
    Mg = U.conj().T @ grad4 @ U
    Cs = [U.conj().T @ G @ U for G in gammas.as_list()]
    coef = np.linalg.pinv(_gram(Cs), rcond=1e-12) @ np.array(
        [float(np.real(np.trace(c @ Mg))) for c in Cs]
    )
    residual = Mg - sum(c * C for c, C in zip(coef, Cs))
    return float(np.linalg.norm(residual))


class _ConstraintProjector:
    """Projection machinery for the affine set {Tr Gamma_i rho = gamma_i}.

    Counts the Dykstra sweeps of every ``onto_feasible`` call, and the calls
    that stopped at their sweep cap.
    """

    def __init__(self, gammas: GammaSet, values: np.ndarray):
        # The affine step subtracts the real operators: complex zeros could
        # flip the sign of zero imaginary parts. The traces use one stack.
        self.gammas = gammas.as_list()
        self.stacked = np.array(self.gammas, dtype=complex)
        self.values = np.asarray(values, dtype=float)
        # Pseudoinverse: at eta = 1 the first and third operators coincide.
        self.gram_pinv = np.linalg.pinv(_gram(self.gammas), rcond=1e-12)
        self.sweeps = 0
        self.cap_hits = 0

    def residuals(self, X: np.ndarray) -> np.ndarray:
        return (self.stacked @ X).trace(axis1=1, axis2=2).real - self.values

    def affine(self, X: np.ndarray) -> np.ndarray:
        coef = self.gram_pinv @ self.residuals(X)
        out = X.astype(complex)
        for c, g in zip(coef, self.gammas):
            out -= c * g
        return out

    def onto_feasible(self, X: np.ndarray, cap: int = 500, tol: float = 1e-10):
        """Dykstra alternating projections onto PSD intersect affine.

        X must be complex Hermitian. Every iterate then stays exactly
        Hermitian (the PSD step symmetrizes, the affine step subtracts real
        multiples of the symmetric Gamma_i), so the PSD step skips validation.
        """
        p = np.zeros_like(X, dtype=complex)
        q = np.zeros_like(X, dtype=complex)
        y = X.astype(complex)
        for sweeps in range(1, cap + 1):
            yp = y + p
            a = self.affine(yp)
            p = yp - a
            aq = a + q
            b = _psd_project(aq)
            q = aq - b
            y = b
            # np.linalg.norm's Frobenius formula, without its dispatch.
            d = (a - b).ravel()
            if math.sqrt(d.real.dot(d.real) + d.imag.dot(d.imag)) < tol:
                break
        else:
            self.cap_hits += 1
        self.sweeps += sweeps
        return y


def _default_init(gammas: GammaSet, values: np.ndarray, eta: float) -> np.ndarray:
    """Depolarizing photon block matched to the constraint values.

    Satisfies the first two constraints exactly; the third is off whenever
    the observations are unbalanced, which the feasible-set projection fixes.
    """
    t = float(values[0]) / eta
    q = min(max(float(values[1]) / float(values[0]), 0.0), 0.5) if values[0] > 0 else 0.0
    return t * _depolarized_bell(q).astype(complex)


def minimize(
    gammas: GammaSet,
    values,
    init: np.ndarray | None = None,
    tol: float = 1e-6,
    max_iterations: int = 100_000,
) -> MinimizationReport:
    """Minimize the coherence objective over {rho >= 0, Tr Gamma_i rho = gamma_i}.

    Projected gradient with Armijo backtracking (c = 1e-4, shrink 0.5);
    every iterate is projected onto the feasible set by Dykstra alternating
    projections, and steps that leave constraint residuals above 1e-8 are
    rejected, so the reported objective is always attained at a feasible
    point. Convergence requires the relative objective change over 10
    iterations below 1e-9 and a stationarity residual below ``tol``.

    ``values`` are the three observed values gamma_i; ``init``, a 4x4 or 6x6
    Hermitian starting state, defaults to a depolarized Bell state.

    Raises:
        FeasibilityError: if ``values`` is not three finite numbers or
            violates the existence condition.
        ValueError: if ``init`` is not a finite Hermitian 4x4 or 6x6 matrix.
    """
    try:
        values = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FeasibilityError(f"constraint values must be three numbers: {exc}") from None
    if values.shape != (3,) or not np.all(np.isfinite(values)):
        raise FeasibilityError(
            f"constraint values must be three finite numbers, got {values.tolist()}"
        )
    if init is not None:
        init = photon_block(require_hermitian(init))
    eta = float(np.real(gammas.gamma1[0, 0]))
    t = values[0] / eta
    qx_eff = values[1] / values[0] if values[0] > 0 else 0.0
    try:
        delta = detection_imbalance(values[2], t, eta)
    except ValueError as exc:
        raise FeasibilityError(str(exc)) from exc
    if not _feasible(qx_eff, delta):
        raise FeasibilityError(
            f"constraint values {values.tolist()} admit no PSD state"
        )

    projector = _ConstraintProjector(gammas, values)
    if init is None:
        init = _default_init(gammas, values, eta)
    x = projector.onto_feasible(init)
    if np.abs(projector.residuals(x)).max() > 1e-8:
        x = projector.onto_feasible(np.eye(4, dtype=complex) * t / 4.0, cap=2000)

    fx = _objective_block(x, eta)
    alpha = 1.0
    history = [fx]
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        grad = _gradient_block(x, eta)
        alpha = min(alpha * 4.0, 1e3)
        accepted = False
        while alpha > 1e-16:
            trial = projector.onto_feasible(x - alpha * grad)
            if np.abs(projector.residuals(trial)).max() > 1e-8:
                alpha *= 0.5
                continue
            f_trial = _objective_block(trial, eta)
            decrease = float(np.real(np.trace(grad @ (trial - x))))
            if decrease < 0.0 and f_trial <= fx + 1e-4 * decrease:
                x, fx = trial, f_trial
                accepted = True
                break
            alpha *= 0.5
        history.append(fx)
        kkt = _face_kkt_residual(x, eta, gammas)
        if len(history) > 10 and abs(history[-11] - fx) < 1e-9 * max(1.0, abs(fx)):
            if kkt < tol:
                converged = True
                break
            if abs(history[-11] - fx) < 1e-13 * max(1.0, abs(fx)):
                # Machine-level stall without stationarity: boundary optimum.
                break
        if not accepted:
            # No feasible descent step left; stationary or boundary-pinned.
            converged = kkt < tol
            break

    residuals = np.abs(projector.residuals(x))
    kkt = _face_kkt_residual(x, eta, gammas)
    return MinimizationReport(
        rho_star=x,
        f_star=fx,
        iterations=iterations,
        converged=converged and bool(residuals.max() <= 1e-8),
        constraint_residuals=residuals,
        kkt_residual=kkt,
        projection_sweeps=projector.sweeps,
        projection_cap_hits=projector.cap_hits,
    )


def ignorance_term(q_x: float, eta: float, t: float, p_pass: float) -> float:
    """Closed-form minimum of the coherence objective:
    p_pass * [h(t*(1+delta)/(2*p_pass)) - h(lambda)].

    This is the analytic value the minimizer is verified against.
    """
    _check_ranges(q_x=q_x, eta=eta, t=t, p_pass=p_pass)
    arg, lam = _general_args(q_x, eta, t, p_pass, detection_imbalance(p_pass, t, eta))
    return p_pass * (binary_entropy(min(max(arg, 0.0), 1.0)) - binary_entropy(lam))
