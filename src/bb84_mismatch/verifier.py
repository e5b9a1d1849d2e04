"""Numerical certification of the analytic key-rate minimum.

Evaluates the relative entropy of coherence of the post-measurement state
and its gradient, and minimizes it over the constrained PSD set, so the
closed-form rate can be checked against an independent computation. The
minimum needs no iteration: the constraints and the objective are invariant
under a group of signed permutations and under complex conjugation, and the
objective is convex, so the minimum is attained at the one feasible
invariant state, which an exact dyadic solve on constant operators finds
(for eta < 1 the outcome-0 gain operator G0 = (Gamma_3 - Gamma_1)/(1 - eta)
takes Gamma_3's place; see ``minimize``, which accepts only
``build_gamma_set``'s operators, checked exactly, as the symmetry holds for
those alone). Also hosts the spectral, stationarity and error-correction
consistency checks. The stationarity check projects out the span of the same
constant operators, which span what ``build_gamma_set``'s span, so it is the
residual ``minimize`` reports and holds at every eta, eta = 1 included. At a
full-rank state that is one product with a constant, exact projector built
beside each solve; only a singular state is compressed onto its support and
solved by least squares (``_face_kkt_residual``).

The objective, the gradient (``_gradient``), the stationarity residual and
``minimize``'s PSD test are all read off one ``np.linalg.eigh`` call on the
stack (rho, G(rho), Z(G(rho))) (``_spectra``). ``minimize`` and the public
``objective``, ``gradient`` and ``kkt_orthogonality_check`` share these
kernels; the public functions validate their input first.

The objective only depends on the 4x4 photon block (vacuum components drop
out of the post-selection map), so the minimizer works on that block; 6x6
inputs are accepted everywhere and reduced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FeasibilityError, _require_in
from .keyrates import _consistent, _lam, _phase_args, detection_imbalance, effective_phase_error
from .linalg import _log2_on_support, _relative_entropy, _require_psd, binary_entropy, require_hermitian
from .protocol import _GAMMA_CONST, _GAMMA_LINEAR, ALICE_BITS, BOB_BITS, GammaSet, photon_block

_PINCH_MASK = (ALICE_BITS[:, None] == ALICE_BITS[None, :]).astype(float)
_BOB_BIT_SUMS = BOB_BITS[:, None] + BOB_BITS[None, :]
# Relative eigenvalue noise floor separating a state's support face from
# projection round-off in the stationarity residual.
_FACE_CUTOFF = 1e-7


@dataclass(frozen=True)
class MinimizationReport:
    """Outcome of a constrained minimization run.

    ``constraint_residuals`` are |Tr Gamma_i rho* - gamma_i|; ``kkt_residual``
    is the norm of the gradient projected onto the allowed directions at
    rho_star: one product with a constant projector when rho_star has full
    rank, a least-squares solve on the support face when it is singular.
    ``f_star`` and ``kkt_residual`` are ``objective`` and
    ``kkt_orthogonality_check`` at rho_star, from a real instead of a complex
    eigendecomposition. ``iterations`` is always 0: the minimum comes from
    one linear solve.
    """

    rho_star: np.ndarray
    f_star: float
    iterations: int
    converged: bool
    constraint_residuals: np.ndarray
    kkt_residual: float


def _weights(eta: float) -> np.ndarray:
    """Entrywise weights eta^((j+l)/2) indexed by Bob's bits of row and column."""
    return np.sqrt(eta) ** _BOB_BIT_SUMS


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

    Raises:
        ValueError: if G(rho) or Z(G(rho)) is not positive semidefinite.
    """
    rho = require_hermitian(rho)
    _require_in("eta", eta, 0.0, 1.0, open_lo=True)
    g, w, V = _spectra(photon_block(rho), eta)
    _require_psd(w[1], "sigma")
    _require_psd(w[2], "tau")
    return _objective(g, w, V)


def _spectra(block: np.ndarray, eta: float):
    """(g, w, V): g = G(block), and the eigendecompositions of the stack
    (block, g, Z(g)) from one ``np.linalg.eigh`` call, real for a real block."""
    g = _weights(eta) * block
    return (g, *np.linalg.eigh(np.array([block, g, g * _PINCH_MASK])))


def _objective(g: np.ndarray, w: np.ndarray, V: np.ndarray) -> float:
    """The objective D(g || Z(g)) from ``_spectra``."""
    return max(_relative_entropy(w[1], g, w[2], V[2]), 0.0)


def _gradient(eta: float, w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The gradient from ``_spectra``: the post-selection weights applied to
    log G(rho) - log Z(G(rho)), each log taken on its support."""
    logs = _log2_on_support(w[1:], V[1:])
    return _weights(eta) * (logs[0] - logs[1])


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
    out[:4, :4] = _gradient(eta, *_spectra(photon_block(rho), eta)[1:])
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
    residual that ``minimize`` reports, with the same face restriction and
    the same constant operators, which span what those operators span.

    A residual at rounding level certifies stationarity; a perturbed state
    shows a residual of the order of the perturbation. Near the feasibility
    boundary the gradient is only defined by continuity and the residual
    loses meaning.
    """
    _require_in("eta", eta, 0.0, 1.0, open_lo=True)
    return _face_kkt_residual(eta, *_spectra(_checked_block(rho_bar), eta)[1:])


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


def _face_kkt_residual(eta: float, w: np.ndarray, V: np.ndarray) -> float:
    """Norm of the gradient projected onto the directions allowed at a state,
    given the state's ``_spectra`` (w, V): the part of the gradient outside
    the span of ``_SOLVES``' constant stack for ``eta``.

    The face keeps the eigenvalues above ``_FACE_CUTOFF`` times the largest.
    Where it keeps them all, the state has full rank and every direction is
    two-sided, so the residual is |R vec(grad)| with the stack's constant
    projector R (``_solve``): no compression and no solve. At a singular
    state the two-sided directions are those preserving the support face, so
    the gradient is compressed onto the face U before the constraint span is
    projected out, by one real least-squares solve of the compressed gradient
    on the compressed operators. On a full face the two compute one quantity:
    U = V[0] is then unitary, so X -> U^H X U keeps the real Frobenius inner
    product, and the real R acts on the gradient's real and imaginary parts
    apart and fixes the imaginary part, which is antisymmetric and so
    orthogonal to the real symmetric stack, as the solve leaves it.

    The constant stack spans what ``build_gamma_set(eta)``'s operators span,
    but stays well conditioned as eta -> 1, where Gamma_1 and Gamma_3 nearly
    coincide (a condition number of about 4/(1 - eta)), so the residual stays
    at rounding level there. FeasibilityError where the face is empty: no
    eigenvalue is above 1e-307, so the state underflows.
    """
    keep = w[0] > _FACE_CUTOFF * max(float(w[0][-1]), 1e-300)
    if not keep.any():
        raise FeasibilityError(f"largest state eigenvalue {float(w[0][-1]):.3g} is at most 1e-307: the state underflows")
    stack, _, projector, _ = _SOLVES[eta == 1.0]
    grad = _gradient(eta, w, V)
    if keep.all():
        return float(np.linalg.norm(grad.reshape(16) @ projector))
    U = V[0][:, keep]
    # The compressions of the gradient and of the operators, flattened to real
    # vectors (a complex entry as its real and imaginary parts).
    flat = (U.conj().T @ np.array([grad, *stack]) @ U).reshape(len(stack) + 1, -1).view(float)
    coef = np.linalg.lstsq(flat[1:].T, flat[0], rcond=1e-12)[0]
    return float(np.linalg.norm(flat[0] - coef @ flat[1:]))


# Bases of the real symmetric matrices that the symmetries of ``minimize``'s
# docstring leave unchanged, for eta < 1 and for eta = 1: entries 0 and 1 on
# disjoint supports. The anti-identity J is E03 + E30 + E12 + E21.
_J = np.eye(4)[::-1]
_BASIS = np.array([np.diag([1.0, 0, 1, 0]), _J, np.diag([0.0, 1, 0, 1])])
_BASIS_AT_ONE = np.array([np.eye(4), _J])
# For eta < 1 the solve runs on (Gamma_1/eta, Gamma_2/eta, G0 = (Gamma_3 - Gamma_1)/(1 - eta)),
# which is (L_1, L_2, C_3) of the template C + eta*L at every eta, as C_1 = C_2 = 0 and L_3 = L_1 - C_3.
_STACK = np.array([_GAMMA_LINEAR[0], _GAMMA_LINEAR[1], _GAMMA_CONST[2]])


def _solve(stack: np.ndarray, basis: np.ndarray, kappa: float):
    """(stack, rho map, residual projector, PSD allowance per unit t) of
    Tr(stack_i rho) = v_i on the span of ``basis``: rho = v @ rho map, with
    M = (S^T S)^-1 S^T for the integer S_ik = Tr(stack_i basis_k) from integer
    row operations and one division per row, required to give M S = I exactly.
    The projector R = I - sum_k b_k b_k^T / |b_k|^2 on the flattened basis
    matrices b_k removes their span, as they have disjoint 0/1 supports: its
    entries are multiples of 1/4, and R = R^T, R R = R and R vec(stack_i) = 0
    are required exactly. With the rank k that M S = I proves, the last shows
    that the stack spans what the basis spans. All of it is ``einsum`` on
    exact dyadic numbers, with no BLAS or LAPACK call at import. The
    allowance is 8 * eps * kappa, kappa = cond(S) (``minimize``)."""
    system, k = np.einsum("iab,kab->ik", stack, basis), len(basis)
    aug = np.concatenate([np.einsum("ik,il->kl", system, system), system.T], axis=1)
    for j in range(k):  # fraction-free Gauss-Jordan on [S^T S | S^T], S^T S positive definite
        aug = np.array([r if i == j else aug[j, j] * r - r[j] * aug[j] for i, r in enumerate(aug)])
    inverse = aug[:, k:] / np.diag(aug)[:, None]
    if not np.array_equal(np.einsum("ki,il->kl", inverse, system), np.eye(k)):
        raise RuntimeError(f"{inverse.tolist()} does not invert {system.tolist()} exactly")
    flat = basis.reshape(k, 16)
    projector = np.eye(16) - np.einsum("ka,kb,k->ab", flat, flat, 1.0 / np.einsum("ka,ka->k", flat, flat))
    squared = np.einsum("ab,bc->ac", projector, projector)
    removed = np.einsum("ab,ib->ia", projector, stack.reshape(-1, 16))
    if not (np.array_equal(projector, projector.T) and np.array_equal(squared, projector) and not removed.any()):
        raise RuntimeError(f"basis {flat.tolist()} gives no exact projector that removes the stack")
    rho_map = np.einsum("ki,kab->iab", inverse, basis).reshape(len(stack), 16)
    return stack, rho_map, projector, 8.0 * np.finfo(float).eps * kappa


# Keyed by eta == 1; kappa to two decimals.
_SOLVES = {False: _solve(_STACK, _BASIS, 3.01), True: _solve(_GAMMA_CONST + _GAMMA_LINEAR, _BASIS_AT_ONE, 3.23)}


def minimize(gammas: GammaSet, values) -> MinimizationReport:
    """Minimize the coherence objective f over {rho >= 0, Tr Gamma_i rho = gamma_i}
    by an exact solve on the symmetry-invariant states; ``values`` are the
    three observed gamma_i.

    Why the solve is the minimum. Let g run over the conjugations
    rho -> P rho P^T by the signed permutations Z(x)Z and X(x)I, and I(x)X at
    eta = 1, and over complex conjugation. The real operators of
    ``build_gamma_set``, the post-selection weights and the pinching mask are
    unchanged by each g: Gamma_1, Gamma_3 and the weights depend on Bob's bit
    alone, Gamma_2 pairs 00 with 11 and 01 with 10, which Z(x)Z and X(x)I
    keep, and a swap of Bob's bits keeps Gamma_3 and the weights only at
    eta = 1. This invariance is a property of those operators; the symmetry
    test of ``tests/test_verifier.py`` derives it independently, and it is
    enforced here: ``gammas`` must equal ``build_gamma_set(eta)``'s operators
    exactly, with eta read from Gamma_1. Each g keeps rho PSD and keeps every
    Tr Gamma_i rho, and it commutes with the post-selection map G and the
    pinching Z; as the relative entropy is unitarily invariant and invariant
    under conjugation, f(g(rho)) = f(rho). For a feasible rho the twirl
    T(rho), the mean of g(rho) over the group, is then feasible and invariant,
    and f(T(rho)) <= f(rho) because f is convex. So the minimum over the
    feasible set equals the minimum over the feasible invariant states. The
    invariant real symmetric matrices have the basis E00 + E22,
    J = E03 + E30 + E12 + E21, E11 + E33 (k = 3 of them), or at eta = 1 I and
    J (k = 2).

    The solve. For eta < 1 the constraints are those of the constant
    operators I, (I - J)/2 and the outcome-0 gain operator
    G0 = (Gamma_3 - Gamma_1)/(1 - eta) = diag(1, 0, 1, 0), with values
    t = gamma_1/eta, gamma_2/eta and the outcome-0 gain
    a = (gamma_3 - gamma_1)/(1 - eta); at eta = 1 they are
    ``build_gamma_set(1)``'s, with the values as given. On the invariant
    states each is a 3 x k system of rank k and condition number kappa =
    3.01 (eta < 1) or 3.23 (eta = 1) at every eta, whose dyadic left inverse
    is derived and checked exact at import; the one invariant state it gives
    is the minimizer, each entry a coefficient of at most two roundings.

    The report's ``rho_star`` is that state (real, 4x4), ``f_star`` the
    objective there, ``iterations`` is 0, ``constraint_residuals`` are
    recomputed from ``gammas``, and ``kkt_residual`` is the stationarity
    residual of ``kkt_orthogonality_check``. ``converged`` holds iff every
    residual is at most 1e-8 and the smallest eigenvalue of ``rho_star`` is
    at least -8 * eps * kappa * t, with eps the float64 machine epsilon.
    The allowance: with u = eps/2, the solve's values are within 3u relative
    of those the inputs fix (one division for t and gamma_2/eta, at most
    three roundings for a), so the coefficients c are within (3 kappa + 2) u
    times |c| <= 0.6 t; as each basis matrix has norm 1, rho's eigenvalues
    move by at most sqrt(3) times that, below 12 u t, and ``eigh`` on entries
    of size t adds a few eps * t: well inside 16 u kappa t >= 48 u t.

    Raises:
        FeasibilityError: if ``values`` is not three finite numbers, its
            detection rate gamma_1 is not positive, ``detection_imbalance``
            rejects it, or the closed-form lambda at the solve's outcome-0
            gain a (t/2 at eta = 1) is negative beyond the rounding allowance
            of ``keyrates._consistent``, so that no PSD state matches it, or
            if the state they fix underflows (``_face_kkt_residual``).
        ValueError: if ``gammas`` are not ``build_gamma_set(eta)``'s
            operators.
    """
    try:
        values = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FeasibilityError(f"constraint values must be three numbers: {exc}") from None
    if values.shape != (3,) or not np.isfinite(values).all():
        raise FeasibilityError(f"constraint values must be three finite numbers, got {values.tolist()}")
    rate, error_rate, p_pass = values.tolist()
    if not rate > 0.0:
        raise FeasibilityError(f"detection rate gamma_1 = {rate} must be positive")
    eta = float(gammas.gamma1[0, 0].real)
    try:
        t = rate / eta
        detection_imbalance(p_pass, t, eta)  # for its errors only
    except (ValueError, ZeroDivisionError) as exc:
        raise FeasibilityError(str(exc)) from exc
    x, gain = error_rate / eta, t / 2.0 if eta == 1.0 else (p_pass - rate) / (1.0 - eta)
    with np.errstate(divide="ignore", invalid="ignore"):  # gains that cancel to p = 0 give lambda -inf or nan
        p, lam = _lam(gain, p_pass - gain, t, x, eta)
        if not _consistent(lam, p, t, x):
            raise FeasibilityError(f"constraint values {values.tolist()} admit no PSD state")

    ops = _GAMMA_CONST + eta * _GAMMA_LINEAR
    if not np.array_equal(gammas.as_list(), ops):
        raise ValueError(f"gammas are not build_gamma_set({eta})'s operators, on whose symmetry the solve rests")
    _, rho_map, _, allowance = _SOLVES[eta == 1.0]
    rho = np.dot(values if eta == 1.0 else (t, x, gain), rho_map).reshape(4, 4)

    residuals = np.abs(np.einsum("iab,ba->i", ops, rho) - values)
    g, w, V = _spectra(rho, eta)
    return MinimizationReport(
        rho_star=rho,
        f_star=_objective(g, w, V),
        iterations=0,
        converged=bool(residuals.max() <= 1e-8 and w[0][0] >= -allowance * t),
        constraint_residuals=residuals,
        kkt_residual=_face_kkt_residual(eta, w, V),
    )


def ignorance_term(q_x: float, eta: float, t: float, p_pass: float) -> float:
    """Closed-form minimum of the coherence objective:
    p_pass * [h(t*(1+delta)/(2*p_pass)) - h(lambda)].

    This is the analytic value the minimizer is verified against.
    """
    arg, lam = _phase_args(q_x, eta, t, p_pass)
    return p_pass * (binary_entropy(min(max(arg, 0.0), 1.0)) - binary_entropy(lam))
