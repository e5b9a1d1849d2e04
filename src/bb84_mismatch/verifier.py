"""Numerical certification of the analytic key-rate minimum.

Evaluates the relative entropy of coherence of the post-measurement state
and its gradient, and minimizes it over the constrained PSD set, so the
closed-form rate can be checked against an independent computation. The
minimum needs no iteration: the constraints and the objective are invariant
under a group of signed permutations and under complex conjugation, and the
objective is convex, so the minimum is attained at the one feasible
invariant state, which a small linear solve finds (see ``minimize``). Also
hosts the spectral, stationarity and error-correction consistency checks.
The stationarity check derives the allowed directions from the constraint
operators of ``build_gamma_set``, so it is the residual ``minimize`` reports
and holds at every eta, eta = 1 (where two of the operators coincide)
included.

The objective and the minimizer share one relative-entropy kernel,
``linalg._relative_entropy``, and one gradient, ``_gradient_block``; the
public ``objective`` and ``gradient`` validate their input and then call them.

The objective only depends on the 4x4 photon block (vacuum components drop
out of the post-selection map), so the minimizer works on that block; 6x6
inputs are accepted everywhere and reduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FeasibilityError, _require_in
from .keyrates import _check_ranges, _general_args, detection_imbalance, effective_phase_error
from .keyrates import feasible as _feasible
from .linalg import _relative_entropy, binary_entropy, relative_entropy, require_hermitian, support_log2
from .protocol import ALICE_BITS, BOB_BITS, GammaSet, build_gamma_set, photon_block

_PINCH_MASK = (ALICE_BITS[:, None] == ALICE_BITS[None, :]).astype(float)


@dataclass(frozen=True)
class MinimizationReport:
    """Outcome of a constrained minimization run.

    ``constraint_residuals`` are |Tr Gamma_i rho* - gamma_i|; ``kkt_residual``
    is the norm of the gradient projected onto the allowed directions at
    rho_star (restricted to the support face when rho_star is singular).
    ``iterations`` is always 0: the minimum comes from one linear solve.
    """

    rho_star: np.ndarray
    f_star: float
    iterations: int
    converged: bool
    constraint_residuals: np.ndarray
    kkt_residual: float


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


# The signed permutations Z(x)Z, X(x)I (Alice's bit flip) and I(x)X (Bob's
# bit flip) of the photon block, each acting as rho -> P rho P^T.
_GENERATORS = (
    np.diag([1.0, -1.0, -1.0, 1.0]),
    np.eye(4)[[2, 3, 0, 1]],
    np.eye(4)[[1, 0, 3, 2]],
)

_EPS = np.finfo(float).eps
# Allowed negative eigenvalue of the solved state, in units of eps * kappa * t
# (kappa the condition number of the constraint solve): the solve's rounding,
# and that of ``eigvalsh`` on entries of size t.
_PSD_ALLOWANCE = 8.0


def _kept_generators(ops: np.ndarray, eta: float) -> tuple[int, ...]:
    """Indices of the ``_GENERATORS`` that leave every constraint operator in
    the stack ``ops``, the post-selection weights and the pinching mask
    exactly unchanged.

    An entrywise mask M commutes with rho -> P rho P^T iff the unsigned
    permutation |P| leaves M unchanged.
    """
    masks = np.array([_weights(eta), _PINCH_MASK])
    return tuple(
        i
        for i, P in enumerate(_GENERATORS)
        if np.array_equal(P @ ops @ P.T, ops) and np.array_equal(abs(P) @ masks @ abs(P).T, masks)
    )


@lru_cache(maxsize=None)
def _invariant_basis(kept: tuple[int, ...]) -> np.ndarray:
    """Orthonormal basis, shape (k, 4, 4), of the real symmetric matrices
    invariant under the generators ``kept``: the twirls of the 10 elementary
    symmetric matrices, orthonormalised.

    The generators commute as conjugations, so the twirl averages over one
    generator after the other. A twirl is zero or fills one orbit of index
    pairs, and two twirls on one orbit are proportional; so keeping one per
    support and normalising it orthonormalises them, with exact zeros.
    """
    basis = {}
    for j in range(4):
        for l in range(j, 4):
            x = np.zeros((4, 4))
            x[j, l] = x[l, j] = 1.0
            for i in kept:
                P = _GENERATORS[i]
                x = (x + P @ x @ P.T) / 2.0
            if x.any():
                basis.setdefault((x != 0).tobytes(), x / np.linalg.norm(x))
    out = np.array(list(basis.values()))
    out.flags.writeable = False
    return out


def minimize(gammas: GammaSet, values) -> MinimizationReport:
    """Minimize the coherence objective f over {rho >= 0, Tr Gamma_i rho = gamma_i}
    by an exact solve on the symmetry-invariant states; ``values`` are the
    three observed gamma_i.

    Why the solve is the minimum. Let g run over the conjugations
    rho -> P rho P^T by the signed permutations Z(x)Z, X(x)I and I(x)X that
    leave every Gamma_i, the post-selection weights and the pinching mask
    unchanged (compared exactly), and over complex conjugation, under which
    the real Gamma_i and masks are unchanged too. Each g keeps rho PSD and
    keeps every Tr Gamma_i rho, and it commutes with the post-selection map G
    and the pinching Z; as the relative entropy is unitarily invariant and
    invariant under conjugation, f(g(rho)) = f(rho). For a feasible rho the
    twirl T(rho), the mean of g(rho) over the group, is then feasible and
    invariant, and f(T(rho)) <= f(rho) because f is convex. So the minimum
    over the feasible set equals the minimum over the feasible invariant
    states. The invariant real symmetric matrices form a k-dimensional space
    (k = 3; k = 2 when I(x)X is kept, as at eta = 1), and when the 3 x k
    system of the constraints has rank k it admits at most one invariant
    state: that state is the minimizer.

    The report's ``rho_star`` is that state (real, 4x4), ``f_star`` the
    objective there, ``iterations`` is 0, ``constraint_residuals`` are
    recomputed from the operators, and ``kkt_residual`` is the stationarity
    residual of ``kkt_orthogonality_check``. ``converged`` holds iff every
    residual is at most 1e-8 and the smallest eigenvalue of ``rho_star`` is
    at least -8 * eps * kappa * t, with eps the float64 machine epsilon,
    kappa the condition number of the constraint system and t = gamma_1 / eta.
    This allowance covers the rounding of the solve, which kappa amplifies,
    and of the eigenvalues, on entries of size t. kappa is about 4 / (1 - eta)
    as eta -> 1, where Gamma_1 and Gamma_3 nearly coincide and the values
    fix the imbalance only to about eps / (1 - eta).

    Raises:
        FeasibilityError: if ``values`` is not three finite numbers, its
            detection rate gamma_1 is not positive, or it violates the
            existence condition.
        ValueError: if the constraint system on the invariant states has
            rank below k, so that the argument does not pin the minimum.
    """
    try:
        values = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FeasibilityError(f"constraint values must be three numbers: {exc}") from None
    if values.shape != (3,) or not np.all(np.isfinite(values)):
        raise FeasibilityError(
            f"constraint values must be three finite numbers, got {values.tolist()}"
        )
    if not values[0] > 0.0:
        raise FeasibilityError(f"detection rate gamma_1 = {values[0]} must be positive")
    eta = float(np.real(gammas.gamma1[0, 0]))
    t = values[0] / eta
    qx_eff = values[1] / values[0]
    try:
        delta = detection_imbalance(values[2], t, eta)
    except ValueError as exc:
        raise FeasibilityError(str(exc)) from exc
    if not _feasible(qx_eff, delta):
        raise FeasibilityError(
            f"constraint values {values.tolist()} admit no PSD state"
        )

    ops = np.array(gammas.as_list())
    if np.iscomplexobj(ops) and ops.imag.any():
        raise ValueError("constraint operators must be real for the symmetry reduction")
    ops = ops.real
    basis = _invariant_basis(_kept_generators(ops, eta))
    # Tr(Gamma_i B_k) for the symmetric B_k, solved through its SVD; the
    # rank test is np.linalg.matrix_rank's.
    system = np.einsum("iab,kab->ik", ops, basis)
    u, s, vt = np.linalg.svd(system, full_matrices=False)
    rank = int(np.sum(s > s[0] * max(system.shape) * _EPS))
    if rank < len(basis):
        raise ValueError(
            f"the constraints have rank {rank} on the {len(basis)} invariant "
            "directions and do not pin the minimum"
        )
    rho = np.tensordot(vt.T @ (u.T @ values / s), basis, axes=1)

    residuals = np.abs(np.einsum("iab,ba->i", ops, rho) - values)
    allowance = _PSD_ALLOWANCE * _EPS * (s[0] / s[-1]) * t
    return MinimizationReport(
        rho_star=rho,
        f_star=_objective_block(rho, eta),
        iterations=0,
        converged=bool(residuals.max() <= 1e-8 and np.linalg.eigvalsh(rho)[0] >= -allowance),
        constraint_residuals=residuals,
        kkt_residual=_face_kkt_residual(rho, eta, gammas),
    )


def ignorance_term(q_x: float, eta: float, t: float, p_pass: float) -> float:
    """Closed-form minimum of the coherence objective:
    p_pass * [h(t*(1+delta)/(2*p_pass)) - h(lambda)].

    This is the analytic value the minimizer is verified against.
    """
    _check_ranges(q_x=q_x, eta=eta, t=t, p_pass=p_pass)
    arg, lam = _general_args(q_x, eta, t, p_pass, detection_imbalance(p_pass, t, eta))
    return p_pass * (binary_entropy(min(max(arg, 0.0), 1.0)) - binary_entropy(lam))
