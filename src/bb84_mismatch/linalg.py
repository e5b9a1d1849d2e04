"""Dense Hermitian linear algebra for small (dim <= 6) operators: input
validation, PSD projection, matrix relative entropy and logarithm on a
support, and the binary entropy. The relative entropy and the logarithm
are kernels on eigendecompositions (``_relative_entropy``,
``_log2_on_support``), which the verifier feeds from its own spectra.

All entropic quantities are in bits (log base 2). Eigenvalues below
``SUPPORT_CUTOFF`` times the largest one are treated as exact zeros when a
support is needed (the reference state of a relative entropy, a matrix
logarithm); the x*log(x) sums run over every positive eigenvalue. Both
implement the 0*log(0) = 0 convention on degenerate states.
"""

from __future__ import annotations

import numpy as np

from .errors import SupportError

# Relative eigenvalue threshold below which a direction counts as kernel.
SUPPORT_CUTOFF = 1e-10

HERMITICITY_TOL = 1e-12


def require_hermitian(H: np.ndarray) -> np.ndarray:
    """Validate that H is a square, finite, Hermitian matrix and return it as complex.

    Raises:
        ValueError: if H is not square, contains non-finite entries, or
            deviates from H^dagger by more than ``HERMITICITY_TOL`` (relative to scale).
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if not np.all(np.isfinite(H.real)) or not np.all(np.isfinite(H.imag)):
        raise ValueError("matrix contains non-finite entries")
    scale = max(1.0, float(np.abs(H).max()))
    dev = float(np.abs(H - H.conj().T).max())
    if dev > HERMITICITY_TOL * scale:
        raise ValueError(f"matrix is not Hermitian: max |H - H^dag| = {dev:.3e}")
    return H


def psd_project(H: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix (negative eigenvalues
    clipped); the output is exactly Hermitian."""
    w, V = np.linalg.eigh(require_hermitian(H))
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
        p = p.astype(float, copy=False)
        inside = (p >= 0.0) & (p <= 1.0)
        if not inside.all():
            raise ValueError(f"binary_entropy argument {p[~inside].flat[0]} outside [0, 1]")
        return _h(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy argument {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def _h(p: np.ndarray) -> np.ndarray:
    """``binary_entropy`` of a float array, unchecked: entries must lie in [0, 1]."""
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    return np.where((p == 0.0) | (p == 1.0), 0.0, h)


def _require_psd(w: np.ndarray, name: str) -> None:
    """Raise unless the ascending eigenvalues ``w`` are PSD up to 1e-10 of the largest."""
    if w.size and w[0] < -1e-10 * max(1.0, float(w[-1])):
        raise ValueError(f"{name} is not positive semidefinite (min eigenvalue {w[0]:.3e})")


def relative_entropy(sigma: np.ndarray, tau: np.ndarray) -> float:
    """Quantum relative entropy Tr sigma log sigma - Tr sigma log tau, in bits.

    Both arguments must be PSD and sigma's support must lie inside tau's;
    kernel eigenvalues follow the 0*log(0) = 0 rule. Validates its inputs,
    then evaluates the kernel ``_relative_entropy`` on their spectra, which
    the verifier's objective shares.

    Raises:
        SupportError: if sigma carries weight >= 1e-8 outside tau's support
            (the relative entropy is +infinity there).
    """
    sigma = require_hermitian(sigma)
    tau = require_hermitian(tau)
    ws = np.linalg.eigvalsh(sigma)
    _require_psd(ws, "sigma")
    wt, Vt = np.linalg.eigh(tau)
    _require_psd(wt, "tau")
    if sigma.shape != tau.shape:
        raise ValueError("sigma and tau must share dimensions")
    return _relative_entropy(ws, sigma, wt, Vt)


def _relative_entropy(ws: np.ndarray, sigma: np.ndarray, wt: np.ndarray, Vt: np.ndarray) -> float:
    """``relative_entropy`` from trusted spectra: ``ws`` the eigenvalues of
    sigma, (``wt``, ``Vt``) the eigendecomposition of tau, as ``np.linalg.eigh``
    returns them."""
    # x*log(x) is continuous at 0, so every positive eigenvalue counts: a cut
    # at SUPPORT_CUTOFF would drop 3.3e-9 bits with an eigenvalue of 1e-10.
    pos = ws[ws > 0.0]
    term1 = float((pos * np.log2(pos)).sum())

    cut_t = SUPPORT_CUTOFF * max(float(wt[-1]), 1e-300)
    # The diagonal of Vt^dag sigma Vt, without forming the product.
    sigma_in_tau = (Vt.conj() * (sigma @ Vt)).sum(axis=0).real
    on_support = wt > cut_t
    outside = float(sigma_in_tau[~on_support].clip(0.0, None).sum())
    if outside >= 1e-8:
        raise SupportError(f"sigma has weight {outside:.3e} outside tau's support; relative entropy diverges")
    term2 = float((sigma_in_tau[on_support] * np.log2(wt[on_support])).sum())
    return term1 - term2


def support_log2(H: np.ndarray) -> np.ndarray:
    """Matrix log base 2 restricted to the support of a PSD matrix.

    Kernel directions (eigenvalues below ``SUPPORT_CUTOFF`` times the largest) map to zero.
    """
    return _log2_on_support(*np.linalg.eigh(require_hermitian(H)))


def _log2_on_support(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``support_log2`` from an eigendecomposition (w, V), or from a stack of
    them as ``np.linalg.eigh`` returns it for a stack of matrices."""
    cut = SUPPORT_CUTOFF * np.maximum(w[..., -1:], 1e-300)
    lw = np.where(w > cut, np.log2(np.maximum(w, 1e-300)), 0.0)
    L = (V * lw[..., None, :]) @ V.conj().swapaxes(-1, -2)
    return (L + L.conj().swapaxes(-1, -2)) / 2
