"""Measurement model for BB84 with constant detection-efficiency mismatch.

Bob's mismatched measurement enters only through the three constraint
operators of ``build_gamma_set``; this module also holds the depolarizing
reference state and the extremal attack state.

Bob's three-dimensional space is spanned by |0>, |1>, |vac>. Bipartite
operators use the basis ordering AB = 00, 01, 10, 11 for the photon block,
with the two vacuum components (0,vac), (1,vac) appended last, so a 6x6
state has its 4x4 photon block in the top-left corner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FeasibilityError, _require_in
from .linalg import require_hermitian

PHOTON_DIM = 4
FULL_DIM = 6

# Bob's bit value carried by each photon-block basis vector (AB = 00, 01, 10, 11).
BOB_BITS = np.array([0, 1, 0, 1])
# Alice's bit value for the same ordering.
ALICE_BITS = np.array([0, 0, 1, 1])


@dataclass(frozen=True)
class GammaSet:
    """The three 4x4 constraint operators on the photon block.

    gamma1 fixes the weighted mean detection rate, gamma2 the weighted
    x-basis error rate, gamma3 the sifted-key rate.
    """

    gamma1: np.ndarray
    gamma2: np.ndarray
    gamma3: np.ndarray

    def as_list(self) -> list[np.ndarray]:
        return [self.gamma1, self.gamma2, self.gamma3]


# The operators are affine in eta, _GAMMA_CONST + eta * _GAMMA_LINEAR: Gamma_1 = eta*I,
# Gamma_2 = (eta/2)*(I - anti-identity) and Gamma_3 = diag(1, eta, 1, eta). Each entry is
# one product and a sum with 0 or 1, so exact.
_GAMMA_CONST = np.array([np.zeros((4, 4)), np.zeros((4, 4)), np.diag([1.0, 0.0, 1.0, 0.0])])
_GAMMA_LINEAR = np.array([np.eye(4), 0.5 * (np.eye(4) - np.eye(4)[::-1]), np.diag([0.0, 1.0, 0.0, 1.0])])


def build_gamma_set(eta: float) -> GammaSet:
    """Constraint operators for mismatch eta, in the AB = 00,01,10,11 ordering."""
    _require_in("eta", eta, 0.0, 1.0, open_lo=True)
    return GammaSet(*(_GAMMA_CONST + eta * _GAMMA_LINEAR))


def photon_block(rho: np.ndarray) -> np.ndarray:
    """The 4x4 single-photon block of a 6x6 state (identity on 4x4 input)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape == (PHOTON_DIM, PHOTON_DIM):
        return rho
    if rho.shape == (FULL_DIM, FULL_DIM):
        return rho[:PHOTON_DIM, :PHOTON_DIM]
    raise ValueError(f"expected a 4x4 or 6x6 state, got shape {rho.shape}")


def gamma_expectations(rho: np.ndarray, gammas: GammaSet) -> np.ndarray:
    """Expectation values Tr(Gamma_i rho) on the photon block, as a length-3 array."""
    block = photon_block(require_hermitian(rho))
    return np.array([float(np.real(np.trace(g @ block))) for g in gammas.as_list()])


def _embed(block4: np.ndarray, t: float) -> np.ndarray:
    """Embed a photon block into 6 dims with the canonical vacuum part (1-t)*I_2/2."""
    rho = np.zeros((FULL_DIM, FULL_DIM), dtype=complex)
    rho[:PHOTON_DIM, :PHOTON_DIM] = block4
    rho[4, 4] = (1.0 - t) / 2.0
    rho[5, 5] = (1.0 - t) / 2.0
    return rho


def depolarizing_state(q: float, t: float) -> np.ndarray:
    """Reference state of a depolarizing channel with QBER q and transparency t.

    The photon block is t times the Bell state sent through a depolarizing
    channel on Bob's qubit; the vacuum block is (1-t)*I_2/2. Unit trace.
    """
    _require_in("q", q, 0.0, 0.5)
    _require_in("t", t, 0.0, 1.0, open_lo=True)
    return _embed(t * _depolarized_bell(q), t)


def _depolarized_bell(q: float) -> np.ndarray:
    """The Bell state (|00> + |11>)/sqrt(2) through a depolarizing channel of QBER q."""
    bell = np.zeros((4, 4))
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    return (1.0 - 2.0 * q) * bell + 2.0 * q * np.eye(4) / 4.0


def attack_block(q_z: float, q_x: float, delta: float, t: float = 1.0) -> np.ndarray:
    """Photon block of the extremal attack state, without feasibility checks.

    Two 2x2 blocks on the (00,11) and (01,10) index pairs; not positive
    semidefinite when (1 - 2*q_x)^2 > 1 - delta^2.
    """
    outer = (1.0 - q_z) / 2.0 * np.array([[1.0 + delta, 1.0 - 2.0 * q_x], [1.0 - 2.0 * q_x, 1.0 - delta]])
    inner = q_z / 2.0 * np.array([[1.0 - delta, 1.0 - 2.0 * q_x], [1.0 - 2.0 * q_x, 1.0 + delta]])
    block = np.zeros((4, 4))
    block[np.ix_([0, 3], [0, 3])] = outer
    block[np.ix_([1, 2], [1, 2])] = inner
    return t * block


def optimal_attack_state(
    q_z: float,
    q_x: float,
    delta: float,
    t: float = 1.0,
    check_feasibility: bool = True,
) -> np.ndarray:
    """The 6x6 state achieving the key-rate minimum for the given observations.

    Raises:
        ValueError: if delta lies outside [-1, 1] or another argument is out
            of range.
        FeasibilityError: if (q_x, delta) violate the existence condition
            2*q_x >= 1 - sqrt(1 - delta^2) (no PSD state matches the
            observations). Pass ``check_feasibility=False`` to build the
            indefinite matrix anyway, e.g. for boundary scans.
    """
    _require_in("delta", delta, -1.0, 1.0)
    _require_in("q_z", q_z, 0.0, 1.0)
    _require_in("q_x", q_x, 0.0, 1.0)
    _require_in("t", t, 0.0, 1.0, open_lo=True)
    if check_feasibility and (1.0 - 2.0 * q_x) ** 2 > 1.0 - delta**2 + 1e-15:
        raise FeasibilityError(
            f"no PSD state exists for q_x = {q_x}, delta = {delta}: 2*q_x >= 1 - sqrt(1 - delta^2) is violated"
        )
    return _embed(attack_block(q_z, q_x, delta, t), t)
