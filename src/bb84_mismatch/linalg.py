"""Dense Hermitian linear algebra for small (dim <= 6) operators.

All entropic quantities are in bits (log base 2). Eigenvalues below
``SUPPORT_CUTOFF`` times the largest one are treated as exact zeros,
which implements the 0*log(0) = 0 convention on degenerate states.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import SupportError

# Relative eigenvalue threshold below which a direction counts as kernel.
SUPPORT_CUTOFF = 1e-10

HERMITICITY_TOL = 1e-12


class SpectralDecomposition(NamedTuple):
    """Eigenvalues in ascending order and the matching unitary of column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def require_hermitian(H: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate that H is a square, finite, Hermitian matrix and return it as complex.

    Raises:
        ValueError: if H is not square, contains non-finite entries, or
            deviates from H^dagger by more than ``tol`` (relative to scale).
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if not np.all(np.isfinite(H.real)) or not np.all(np.isfinite(H.imag)):
        raise ValueError("matrix contains non-finite entries")
    scale = max(1.0, float(np.abs(H).max()))
    dev = float(np.abs(H - H.conj().T).max())
    if dev > tol * scale:
        raise ValueError(f"matrix is not Hermitian: max |H - H^dag| = {dev:.3e}")
    return H


def eig_decompose(H: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    H = require_hermitian(H)
    w, V = np.linalg.eigh(H)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=V)


def psd_project(H: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix (negative eigenvalues clipped)."""
    return _psd_project(require_hermitian(H))


def _psd_project(H: np.ndarray) -> np.ndarray:
    """``psd_project`` on trusted complex Hermitian input; the output is
    exactly Hermitian."""
    w, V = np.linalg.eigh(H)
    w = np.maximum(w, 0.0)
    P = (V * w) @ V.conj().T
    return (P + P.conj().T) / 2


def binary_entropy(p):
    """Binary entropy h(p) in bits, with h(0) = h(1) = 0.

    A numpy array gives an array of the same shape, entry by entry equal to
    the scalar result; any other input gives a float.

    Raises:
        ValueError: if p (or any entry of it) lies outside [0, 1] or is nan.
    """
    # Testing for a plain float first keeps the common scalar call as fast
    # as it was before arrays were accepted.
    if type(p) is not float and isinstance(p, np.ndarray):
        return _binary_entropy_array(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy argument {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def _binary_entropy_array(p: np.ndarray) -> np.ndarray:
    p = p.astype(float, copy=False)
    inside = (p >= 0.0) & (p <= 1.0)
    if not inside.all():
        raise ValueError(f"binary_entropy argument {p[~inside].flat[0]} outside [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    return np.where((p == 0.0) | (p == 1.0), 0.0, h)


def _validate_psd(H: np.ndarray, name: str) -> np.ndarray:
    H = require_hermitian(H)
    w = np.linalg.eigvalsh(H)
    if w.size and w[0] < -1e-10 * max(1.0, float(w[-1])):
        raise ValueError(f"{name} is not positive semidefinite (min eigenvalue {w[0]:.3e})")
    return H


def relative_entropy(sigma: np.ndarray, tau: np.ndarray) -> float:
    """Quantum relative entropy Tr sigma log sigma - Tr sigma log tau, in bits.

    Both arguments must be PSD and sigma's support must lie inside tau's;
    kernel eigenvalues follow the 0*log(0) = 0 rule. Validates its inputs,
    then evaluates the unvalidated kernel ``_relative_entropy``, which the
    verifier's objective shares.

    Raises:
        SupportError: if sigma carries weight >= 1e-8 outside tau's support
            (the relative entropy is +infinity there).
    """
    sigma = _validate_psd(sigma, "sigma")
    tau = _validate_psd(tau, "tau")
    if sigma.shape != tau.shape:
        raise ValueError("sigma and tau must share dimensions")
    return _relative_entropy(sigma, tau)


def _relative_entropy(sigma: np.ndarray, tau: np.ndarray) -> float:
    """``relative_entropy`` on trusted complex Hermitian PSD input of equal shape."""
    ws = np.linalg.eigvalsh(sigma)
    cut_s = SUPPORT_CUTOFF * max(float(ws[-1]), 1e-300)
    pos = ws[ws > cut_s]
    term1 = float(np.sum(pos * np.log2(pos)))

    wt, Vt = np.linalg.eigh(tau)
    cut_t = SUPPORT_CUTOFF * max(float(wt[-1]), 1e-300)
    sigma_in_tau = np.real(np.einsum("ij,jk,ki->i", Vt.conj().T, sigma, Vt))
    on_support = wt > cut_t
    outside = float(np.sum(np.clip(sigma_in_tau[~on_support], 0.0, None)))
    if outside >= 1e-8:
        raise SupportError(
            f"sigma has weight {outside:.3e} outside tau's support; relative entropy diverges"
        )
    term2 = float(np.sum(sigma_in_tau[on_support] * np.log2(wt[on_support])))
    return term1 - term2


def support_log2(H: np.ndarray, cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """Matrix log base 2 restricted to the support of a PSD matrix.

    Kernel directions (eigenvalues below ``cutoff`` times the largest) map to zero.
    """
    w, V = np.linalg.eigh(require_hermitian(H))
    cut = cutoff * max(float(w[-1]), 1e-300)
    lw = np.where(w > cut, np.log2(np.maximum(w, 1e-300)), 0.0)
    L = (V * lw) @ V.conj().T
    return (L + L.conj().T) / 2
