import numpy as np
import pytest

from bb84_mismatch import (
    FeasibilityError,
    build_gamma_set,
    depolarizing_state,
    gamma_expectations,
    optimal_attack_state,
    photon_block,
)


def test_gamma_matrices_entries():
    eta = 0.5
    gammas = build_gamma_set(eta)
    np.testing.assert_allclose(gammas.gamma1, 0.5 * np.eye(4), atol=1e-14)
    expected_g2 = 0.25 * np.array(
        [
            [1.0, 0.0, 0.0, -1.0],
            [0.0, 1.0, -1.0, 0.0],
            [0.0, -1.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0, 1.0],
        ]
    )
    np.testing.assert_allclose(gammas.gamma2, expected_g2, atol=1e-14)
    np.testing.assert_allclose(gammas.gamma3, np.diag([1.0, 0.5, 1.0, 0.5]), atol=1e-14)


def test_gamma3_identity_without_mismatch():
    np.testing.assert_allclose(build_gamma_set(1.0).gamma3, np.eye(4), atol=1e-14)


def test_gamma2_vanishes_on_error_free_state():
    for eta in (0.3, 0.6, 1.0):
        gammas = build_gamma_set(eta)
        rho = optimal_attack_state(0.0, 0.0, 0.0, 1.0)
        values = gamma_expectations(rho, gammas)
        assert abs(values[1]) <= 1e-14


def test_constraint_values_match_depolarizing_state():
    # Trace evaluation against the reference state must reproduce
    # (t*eta, t*eta*q, t*(1+eta)/2).
    q, t, eta = 0.05, 0.8, 0.5
    rho = depolarizing_state(q, t)
    values = gamma_expectations(rho, build_gamma_set(eta))
    np.testing.assert_allclose(values, [t * eta, t * eta * q, t * (1 + eta) / 2], atol=1e-12)
    assert abs(values[2] - 0.6) <= 1e-12


def test_depolarizing_state_limits():
    bell = depolarizing_state(0.0, 1.0)
    expected = np.zeros((6, 6))
    expected[np.ix_([0, 3], [0, 3])] = 0.5
    np.testing.assert_allclose(bell, expected, atol=1e-14)

    mixed = depolarizing_state(0.5, 1.0)
    np.testing.assert_allclose(photon_block(mixed), np.eye(4) / 4, atol=1e-14)


def test_depolarizing_state_trace_structure():
    rng = np.random.default_rng(31)
    for _ in range(50):
        q = rng.uniform(0.0, 0.5)
        t = rng.uniform(0.1, 1.0)
        rho = depolarizing_state(q, t)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert abs(np.trace(photon_block(rho)).real - t) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12
        np.testing.assert_allclose(rho[4:, 4:], (1 - t) / 2 * np.eye(2), atol=1e-14)


def test_constraint_consistency_grid():
    for q in (0.0, 0.1, 0.3, 0.5):
        for t in (0.2, 0.6, 1.0):
            for eta in (0.3, 0.7, 1.0):
                values = gamma_expectations(depolarizing_state(q, t), build_gamma_set(eta))
                np.testing.assert_allclose(
                    values, [t * eta, t * eta * q, t * (1 + eta) / 2], atol=1e-12
                )


def test_attack_state_noiseless_is_bell():
    rho = optimal_attack_state(0.0, 0.0, 0.0, 1.0)
    np.testing.assert_allclose(photon_block(rho), depolarizing_state(0.0, 1.0)[:4, :4], atol=1e-14)


def test_attack_state_strictly_positive_inside_feasible_region():
    rho = optimal_attack_state(0.05, 0.05, 0.0, 1.0)
    assert np.linalg.eigvalsh(photon_block(rho)).min() > 0.0
    assert np.linalg.eigvalsh(rho).min() >= -1e-15


def test_attack_state_boundary_eigenvalue_vanishes():
    # delta chosen so that 2*q_x = 1 - sqrt(1 - delta^2) exactly.
    q_x = 0.05
    delta = np.sqrt(1.0 - (1.0 - 2.0 * q_x) ** 2)
    rho = optimal_attack_state(0.05, q_x, delta, 1.0)
    assert abs(np.linalg.eigvalsh(photon_block(rho)).min()) <= 1e-10


def test_attack_state_satisfies_constraints_exactly():
    rng = np.random.default_rng(41)
    for _ in range(100):
        q_z = rng.uniform(0.0, 0.3)
        q_x = rng.uniform(0.01, 0.3)
        limit = 1.0 - (1.0 - 2.0 * q_x) ** 2
        delta = rng.uniform(-1.0, 1.0) * np.sqrt(max(limit, 0.0)) * 0.95
        t = rng.uniform(0.2, 1.0)
        eta = rng.uniform(0.2, 1.0)
        rho = optimal_attack_state(q_z, q_x, delta, t)
        p_pass = t * ((1 + eta) / 2 + delta * (1 - eta) / 2)
        values = gamma_expectations(rho, build_gamma_set(eta))
        np.testing.assert_allclose(values, [t * eta, t * eta * q_x, p_pass], atol=1e-12)


def test_attack_state_infeasible_raises():
    with pytest.raises(FeasibilityError):
        optimal_attack_state(0.05, 0.01, 0.5, 1.0)


def test_attack_state_delta_domain():
    with pytest.raises(ValueError, match="delta"):
        optimal_attack_state(0.05, 0.05, 1.5, 1.0)


def test_attack_state_minimum_eigenvalue_sign_change():
    # Bisection on q_x at fixed delta locates the PSD boundary at
    # q_x = (1 - sqrt(1 - delta^2))/2.
    delta = 0.3
    target = (1.0 - np.sqrt(1.0 - delta**2)) / 2.0

    def min_eig(q_x):
        rho = optimal_attack_state(0.05, q_x, delta, 1.0, check_feasibility=False)
        return np.linalg.eigvalsh(photon_block(rho)).min()

    lo, hi = 0.0, 0.5
    assert min_eig(lo) < 0 < min_eig(hi)
    while hi - lo > 1e-10:
        mid = (lo + hi) / 2
        if min_eig(mid) < 0:
            lo = mid
        else:
            hi = mid
    assert abs((lo + hi) / 2 - target) <= 1e-8

