import math

import numpy as np
import pytest

from bb84_mismatch import (
    SupportError,
    binary_entropy,
    channel_G,
    optimal_attack_state,
    pinch_Z,
    psd_project,
    relative_entropy,
)
from bb84_mismatch.keyrates import effective_phase_error


def random_hermitian(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / 2


def random_density(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho).real


def test_eig_of_sifted_attack_state_matches_closed_form():
    # Spectrum of the post-selected attack state must be
    # {(1-qz)*lam_pm, qz*lam_pm} with lam from the closed-form expression.
    qz = qx = 0.05
    eta, t = 0.5, 1.0
    p_pass = t * (1 + eta) / 2
    lam = effective_phase_error(qx, eta, t, p_pass)
    lam_minus = p_pass * lam
    lam_plus = p_pass - lam_minus
    expected = np.sort(
        [(1 - qz) * lam_minus, (1 - qz) * lam_plus, qz * lam_minus, qz * lam_plus]
    )
    g = channel_G(optimal_attack_state(qz, qx, 0.0, t), eta)
    np.testing.assert_allclose(np.linalg.eigvalsh(g), expected, atol=1e-12)


def test_relative_entropy_identical_is_zero():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 4)
    assert abs(relative_entropy(rho, rho)) <= 1e-12


def test_relative_entropy_scalar_kl_oracle():
    # Frozen from the classical KL formula:
    # 0.5*log2((1/2)/(3/4)) + 0.5*log2((1/2)/(1/4)).
    value = relative_entropy(np.diag([0.5, 0.5]), np.diag([0.75, 0.25]))
    assert math.isclose(value, 0.20751874963942185, abs_tol=1e-14)


def test_relative_entropy_noiseless_attack_state():
    # Known noiseless value p_pass * h(1/(1+eta)) = 0.75 * h(2/3).
    eta = 0.5
    g = channel_G(optimal_attack_state(0.0, 0.0, 0.0, 1.0), eta)
    value = relative_entropy(g, pinch_Z(g))
    assert math.isclose(value, 0.75 * binary_entropy(2 / 3), abs_tol=1e-12)
    assert math.isclose(value, 0.6887218755408672, abs_tol=1e-12)


def test_relative_entropy_support_violation():
    sigma = np.diag([0.5, 0.5])
    tau = np.diag([1.0, 0.0])
    with pytest.raises(SupportError):
        relative_entropy(sigma, tau)


def test_relative_entropy_klein_inequality():
    # Nonnegative for equal-trace PSD pairs, zero only at equal arguments.
    rng = np.random.default_rng(11)
    for _ in range(200):
        sigma = random_density(rng, 4)
        tau = random_density(rng, 4)
        d = relative_entropy(sigma, tau)
        assert d >= -1e-11
        if np.linalg.norm(sigma - tau) > 1e-9:
            assert d > 0.0


def test_psd_project_clips_negative_eigenvalues():
    np.testing.assert_allclose(
        psd_project(np.diag([1.0, -0.5])), np.diag([1.0, 0.0]), atol=1e-14
    )


def test_psd_project_fixed_point():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 4)
    assert np.linalg.norm(psd_project(rho) - rho) <= 1e-12


def test_psd_project_is_frobenius_nearest():
    # No sampled PSD candidate may sit closer to H than the projection.
    rng = np.random.default_rng(13)
    H = random_hermitian(rng, 4)
    P = psd_project(H)
    best = np.linalg.norm(P - H)
    for _ in range(100):
        candidate = psd_project(P + 0.3 * random_hermitian(rng, 4))
        assert np.linalg.norm(candidate - H) >= best - 1e-12


def test_psd_project_idempotent():
    rng = np.random.default_rng(17)
    for _ in range(20):
        P = psd_project(random_hermitian(rng, 5))
        assert np.linalg.norm(psd_project(P) - P) <= 1e-12


def test_psd_project_validates_and_returns_exactly_hermitian():
    rng = np.random.default_rng(41)
    for dim in (2, 4, 6):
        P = psd_project(random_hermitian(rng, dim))
        np.testing.assert_array_equal(P, P.conj().T)
    with pytest.raises(ValueError):
        psd_project(np.triu(np.ones((4, 4))))
    with pytest.raises(ValueError):
        psd_project(np.diag([1.0, math.inf, 0.0, 0.0]))


@pytest.mark.parametrize(
    "p,expected",
    [(0.5, 1.0), (0.0, 0.0), (1.0, 0.0), (2 / 3, 0.9182958340544896)],
)
def test_binary_entropy_values(p, expected):
    assert math.isclose(binary_entropy(p), expected, abs_tol=1e-14)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


def test_binary_entropy_symmetry():
    for p in np.linspace(0.0, 1.0, 1001):
        assert abs(binary_entropy(p) - binary_entropy(1.0 - p)) <= 1e-14


def test_binary_entropy_array_matches_scalar_path():
    rng = np.random.default_rng(7)
    p = np.concatenate([[0.0, 1.0, 0.5, 1e-300, 1.0 - 1e-16], rng.random(2000), 10.0 ** rng.uniform(-300, 0, 500)])
    h = binary_entropy(p.reshape(5, -1))
    assert isinstance(h, np.ndarray) and h.shape == (5, p.size // 5)
    scalar = np.array([binary_entropy(float(x)) for x in p])
    assert np.array_equal(h.ravel(), scalar)
    assert h.ravel()[0] == 0.0 and h.ravel()[1] == 0.0
    assert isinstance(binary_entropy(0.25), float)


@pytest.mark.parametrize("bad", [math.nan, -0.1, 1.1, -math.inf, math.inf])
def test_binary_entropy_array_rejects_bad_entries(bad):
    with pytest.raises(ValueError):
        binary_entropy(np.array([0.2, bad, 0.5]))
    with pytest.raises(ValueError):
        binary_entropy(np.array(bad))
