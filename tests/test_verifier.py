import collections
import math
from fractions import Fraction

import numpy as np
import pytest

from bb84_mismatch import linalg, protocol, verifier
from bb84_mismatch import (
    FeasibilityError,
    binary_entropy,
    build_gamma_set,
    channel_G,
    eigenvalues_check,
    error_correction_leak,
    gamma_expectations,
    gradient,
    ignorance_term,
    kkt_orthogonality_check,
    minimize,
    objective,
    optimal_attack_state,
    photon_block,
    pinch_Z,
    psd_project,
)
from bb84_mismatch.protocol import GammaSet

h = binary_entropy


def random_state_block(rng, dim=4):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho).real


def random_direction(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    d = (raw + raw.conj().T) / 2
    return d / np.linalg.norm(d)


def test_channel_identity_without_mismatch():
    rng = np.random.default_rng(2)
    rho = random_state_block(rng)
    np.testing.assert_allclose(channel_G(rho, 1.0), rho, atol=1e-14)


def test_channel_weights_match_attack_state_image():
    # Entry (ij, kl) is weighted by eta^((j+l)/2); checked against the
    # displayed image of the attack state, block by block.
    qz, qx, eta = 0.05, 0.03, 0.5
    g = channel_G(optimal_attack_state(qz, qx, 0.0, 1.0), eta)
    root = math.sqrt(eta)
    expected = np.zeros((4, 4))
    expected[0, 0] = (1 - qz) / 2
    expected[3, 3] = (1 - qz) / 2 * eta
    expected[0, 3] = expected[3, 0] = (1 - qz) / 2 * (1 - 2 * qx) * root
    expected[1, 1] = qz / 2 * eta
    expected[2, 2] = qz / 2
    expected[1, 2] = expected[2, 1] = qz / 2 * (1 - 2 * qx) * root
    np.testing.assert_allclose(g, expected, atol=1e-14)


def test_channel_drops_vacuum():
    rho = np.zeros((6, 6))
    rho[4, 4] = rho[5, 5] = 0.5
    np.testing.assert_allclose(channel_G(rho, 0.5), np.zeros((4, 4)), atol=1e-15)


def test_pinch_keeps_diagonal_and_same_alice_blocks():
    rng = np.random.default_rng(4)
    diag = np.diag(rng.uniform(size=4))
    np.testing.assert_allclose(pinch_Z(diag), diag, atol=1e-15)

    m = np.zeros((4, 4))
    m[0, 1] = m[1, 0] = 0.3  # Alice index 0 on both sides: retained
    m[0, 2] = m[2, 0] = 0.4  # Alice indices differ: zeroed
    out = pinch_Z(m)
    assert out[0, 1] == 0.3
    assert out[0, 2] == 0.0


def test_pinch_rejects_other_shapes():
    with pytest.raises(ValueError, match="4x4 matrix"):
        pinch_Z(np.eye(3))


def test_pinch_of_attack_image_is_diagonal():
    g = channel_G(optimal_attack_state(0.05, 0.05, 0.0, 1.0), 0.5)
    np.testing.assert_allclose(pinch_Z(g), np.diag(np.diag(g)), atol=1e-14)


def test_objective_zero_for_diagonal_states():
    rng = np.random.default_rng(8)
    for _ in range(20):
        d = np.diag(rng.uniform(size=4))
        assert objective(d, 0.6) <= 1e-12


def test_objective_noiseless_value():
    value = objective(optimal_attack_state(0.0, 0.0, 0.0, 1.0), 0.5)
    assert math.isclose(value, 0.75 * h(2 / 3), abs_tol=1e-12)


def test_objective_matches_ignorance_term():
    qz, qx, eta = 0.05, 0.05, 0.5
    value = objective(optimal_attack_state(qz, qx, 0.0, 1.0), eta)
    assert math.isclose(value, ignorance_term(qx, eta, 1.0, 0.75), abs_tol=1e-12)


def test_objective_nonnegative_random():
    rng = np.random.default_rng(12)
    for _ in range(50):
        assert objective(random_state_block(rng), 0.7) >= 0.0


def test_gradient_finite_differences():
    rng = np.random.default_rng(19)
    eta = 0.5
    rho = photon_block(optimal_attack_state(0.06, 0.07, 0.02, 1.0))
    for _ in range(20):
        direction = random_direction(rng, 4)
        step = 1e-5
        fd = (objective(rho + step * direction, eta) - objective(rho - step * direction, eta)) / (
            2 * step
        )
        an = float(np.real(np.trace(gradient(rho, eta) @ direction)))
        assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))


def test_gradient_closed_form_at_attack_state():
    # The antidiagonal matches sqrt(eta)*sin(theta)*cos(theta)*log(l+/l-);
    # the diagonal carries the same two values d0', eta*d1' in the pattern
    # (d0', eta*d1', d0', eta*d1'), where the primes absorb the pinched
    # reference: d0' = d0 - log2((1+delta)/2), d1' = d1 - log2((1-delta)/2).
    qz, qx, delta, eta = 0.05, 0.05, 0.03, 0.5
    t = 1.0
    p_pass = t * ((1 + eta) / 2 + delta * (1 - eta) / 2)
    grad = gradient(photon_block(optimal_attack_state(qz, qx, delta, t)), eta)

    theta = 0.5 * math.atan2(2 * math.sqrt(eta) * (1 - 2 * qx), 1 - eta + delta * (1 + eta))
    from bb84_mismatch.keyrates import effective_phase_error

    lam_minus = p_pass * effective_phase_error(qx, eta, t, p_pass)
    lam_plus = p_pass - lam_minus
    d0 = math.cos(theta) ** 2 * math.log2(lam_plus) + math.sin(theta) ** 2 * math.log2(lam_minus)
    d1 = (
        math.sin(theta) ** 2 * math.log2(lam_plus)
        + math.cos(theta) ** 2 * math.log2(lam_minus)
        - math.log2(eta)
    )
    off = math.sqrt(eta) * math.sin(theta) * math.cos(theta) * math.log2(lam_plus / lam_minus)
    d0p = d0 - math.log2((1 + delta) / 2)
    d1p = d1 - math.log2((1 - delta) / 2)

    np.testing.assert_allclose(np.diag(np.real(grad)), [d0p, eta * d1p, d0p, eta * d1p], atol=1e-12)
    antidiag = [grad[0, 3], grad[1, 2], grad[2, 1], grad[3, 0]]
    np.testing.assert_allclose(np.real(antidiag), off, atol=1e-12)
    # Everything else vanishes.
    mask = np.ones((4, 4), dtype=bool)
    mask[np.arange(4), np.arange(4)] = False
    mask[np.arange(4), 3 - np.arange(4)] = False
    assert np.abs(grad[mask]).max() <= 1e-12


def test_gradient_zero_on_pinching_invariant_directions():
    d = np.diag([0.4, 0.1, 0.1, 0.4])
    grad = gradient(d, 0.5)
    for direction in [np.diag([1.0, -1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0, -1.0])]:
        assert abs(float(np.real(np.trace(grad @ direction)))) <= 1e-10


def test_objective_and_gradient_shapes_on_full_and_photon_states():
    rho = optimal_attack_state(0.05, 0.05, 0.0, 1.0)
    assert objective(rho, 0.5) >= 0.0
    # G(rho) has full support on the photon block.
    assert np.linalg.eigvalsh(channel_G(rho, 0.5)).min() > 1e-10
    grad = gradient(rho, 0.5)
    assert grad.shape == (6, 6)
    assert np.linalg.norm(grad - grad.conj().T) <= 1e-10
    # Vacuum components drop out of the post-selection map.
    assert not grad[4:, :].any() and not grad[:, 4:].any()
    grad4 = gradient(photon_block(rho), 0.5)
    assert grad4.shape == (4, 4)
    np.testing.assert_array_equal(grad4, grad[:4, :4])


def test_minimize_matches_analytic_value():
    eta, qx, t = 0.5, 0.05, 1.0
    p_pass = t * (1 + eta) / 2
    report = minimize(build_gamma_set(eta), (t * eta, t * eta * qx, p_pass))
    analytic = ignorance_term(qx, eta, t, p_pass)
    assert abs(report.f_star - analytic) <= 1e-4
    assert report.f_star >= analytic - 1e-6
    assert report.converged
    assert report.constraint_residuals.max() <= 1e-8


def test_minimize_ideal_case():
    t, qx = 0.8, 0.05
    report = minimize(build_gamma_set(1.0), (t, t * qx, t))
    assert abs(report.f_star - t * (1 - h(qx))) <= 1e-4


def test_minimize_never_beats_certified_minimum():
    eta, qx, delta, t = 0.7, 0.08, 0.05, 1.0
    p_pass = t * ((1 + eta) / 2 + delta * (1 - eta) / 2)
    report = minimize(build_gamma_set(eta), (t * eta, t * eta * qx, p_pass))
    analytic = ignorance_term(qx, eta, t, p_pass)
    assert report.f_star >= analytic - 1e-6


def test_minimize_rejects_infeasible_constraints():
    # q_x = 0 together with an unbalanced pass rate is impossible.
    with pytest.raises(FeasibilityError):
        minimize(build_gamma_set(0.5), (0.5, 0.0, 0.8))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "eta,values,message",
    [
        (1.0, (0.5, 0.01, 0.7), "eta = 1 requires p_pass = t"),
        (0.5, (0.5, 0.01, -0.1), "p_pass = -0.1 outside"),
        # The outcome gains -1 and 1 cancel to p = 0: lambda is -inf, without a warning.
        (0.5, (0.5, 0.01, 0.0), "admit no PSD state"),
    ],
)
def test_minimize_turns_inconsistent_pass_rates_into_feasibility_errors(eta, values, message):
    with pytest.raises(FeasibilityError, match=message):
        minimize(build_gamma_set(eta), values)


@pytest.mark.filterwarnings("error")
def test_a_state_that_underflows_has_no_stationarity_to_report():
    # Below 1e-307 the support face is empty; the residual was inf, with converged True.
    with pytest.raises(FeasibilityError, match="underflows"):
        minimize(build_gamma_set(1.0), (5e-324, 0.0, 5e-324))
    with pytest.raises(FeasibilityError, match="underflows"):
        kkt_orthogonality_check(1e-310 * optimal_attack_state(0.05, 0.05, 0.0, 1.0), 0.5)


def test_minimize_accepts_the_boundary_point_that_keyrate_general_rates():
    # On the lower boundary 2*q_x = 1 - sqrt(1 - delta^2) lambda is 0, and the
    # values formed from the outcome gains put it at -1.1e-16: within the
    # closed form's rounding allowance, which minimize's pre-check shares.
    eta, t, delta = 0.625, 0.33611756080460514, 0.125
    q_x = (1.0 - math.sqrt(1.0 - delta * delta)) / 2.0
    p_pass = t * ((1.0 + eta) + delta * (1.0 - eta)) / 2.0
    a = t * (1.0 + delta) / 2.0
    b = p_pass - a
    report = minimize(build_gamma_set(eta), (eta * a + b, eta * t * q_x, a + b))
    assert report.converged
    assert abs(report.f_star - ignorance_term(q_x, eta, t, p_pass)) <= 3e-16


def test_kkt_residual_small_at_attack_state():
    for eta in (0.3, 0.5, 1.0):
        rho = optimal_attack_state(0.05, 0.05, 0.0, 1.0)
        assert kkt_orthogonality_check(rho, eta) <= 1e-8


def test_kkt_residual_flags_inconsistent_state_at_eta_one():
    # At eta = 1 the pass rate equals t, so delta = 0.02 leaves the observed
    # constraint class: the state is not stationary for build_gamma_set(1).
    rho = optimal_attack_state(0.05, 0.08, 0.02, 1.0)
    assert kkt_orthogonality_check(rho, 1.0) > 1e-4


def test_kkt_residual_detects_perturbation():
    rho = photon_block(optimal_attack_state(0.05, 0.05, 0.0, 1.0))
    direction = np.zeros((4, 4))
    direction[0, 1] = direction[1, 0] = 1.0
    direction /= np.linalg.norm(direction)
    perturbed = rho + 1e-2 * direction
    assert np.linalg.eigvalsh(perturbed).min() > 0
    assert kkt_orthogonality_check(perturbed, 0.5) > 1e-4


def test_eigenvalue_formula_checks():
    # At q_z = 1 the parameters are read off the block's middle entries.
    for eta, delta in ((0.5, 0.02), (1.0, 0.0)):
        rho = optimal_attack_state(1.0, 0.05, delta, 0.7)
        got = verifier._extract_attack_parameters(photon_block(rho), eta)
        np.testing.assert_allclose(got[:4], (1.0, 0.05, delta, 0.7), atol=1e-15)
        assert eigenvalues_check(rho, eta)
    assert eigenvalues_check(optimal_attack_state(0.0, 0.05, 0.0, 1.0), 0.5)
    assert eigenvalues_check(optimal_attack_state(0.05, 0.05, 0.0, 1.0), 0.5)
    assert eigenvalues_check(optimal_attack_state(0.05, 0.05, 0.0, 1.0), 1.0)
    for eta in (0.3, 0.7):
        for qx in (0.02, 0.08):
            for delta in (0.0, 0.05):
                rho = optimal_attack_state(0.04, qx, delta, 0.9)
                assert eigenvalues_check(rho, eta)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("check", [error_correction_leak, kkt_orthogonality_check, eigenvalues_check])
@pytest.mark.parametrize("rho", [np.zeros((4, 4)), np.zeros((6, 6)), -np.eye(4)], ids=["zero4", "zero6", "negative"])
def test_public_checks_reject_a_block_without_single_photon_weight(check, rho):
    # The leak and the spectrum normalize by the block's trace.
    with pytest.raises(ValueError, match="photon block trace"):
        check(rho, 0.5)


def test_error_correction_leak_zero_qber():
    assert error_correction_leak(optimal_attack_state(0.0, 0.05, 0.0, 1.0), 0.5) <= 1e-14


def test_error_correction_leak_equals_entropy_at_zero_imbalance():
    for eta in (0.3, 0.7, 1.0):
        for qz in (0.01, 0.05, 0.11):
            leak = error_correction_leak(optimal_attack_state(qz, 0.05, 0.0, 1.0), eta)
            assert abs(leak - h(qz)) <= 1e-12


def test_error_correction_leak_unchanged_by_imbalance():
    # The conditional error rate stays q_z for both outcomes: the (1+delta)
    # factors are shared within each outcome pair, so H(A|B) = h(q_z) for
    # every imbalance, not only delta = 0.
    for delta in (0.0, 0.1, 0.3):
        leak = error_correction_leak(optimal_attack_state(0.05, 0.05, delta, 1.0), 0.5)
        assert abs(leak - h(0.05)) <= 1e-12


def test_objective_convexity_witness():
    rng = np.random.default_rng(29)
    eta = 0.6
    for _ in range(1000):
        a = random_state_block(rng)
        b = random_state_block(rng)
        fa, fb = objective(a, eta), objective(b, eta)
        for alpha in (0.25, 0.5, 0.75):
            mix = objective(alpha * a + (1 - alpha) * b, eta)
            assert mix <= alpha * fa + (1 - alpha) * fb + 1e-10


def test_vacuum_block_is_irrelevant():
    rng = np.random.default_rng(37)
    rho = optimal_attack_state(0.05, 0.05, 0.0, 0.7)
    base_value = objective(rho, 0.5)
    base_grad = gradient(rho, 0.5)
    for _ in range(10):
        other = rho.copy()
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        other[4:, 4:] = psd_project(raw @ raw.conj().T) / 10
        assert abs(objective(other, 0.5) - base_value) <= 1e-12
        assert np.abs(gradient(other, 0.5) - base_grad).max() <= 1e-12


def test_minimize_respects_constraints_from_attack_observations():
    eta, t = 0.4, 0.9
    qx, delta = 0.06, -0.04
    p_pass = t * ((1 + eta) / 2 + delta * (1 - eta) / 2)
    values = (t * eta, t * eta * qx, p_pass)
    report = minimize(build_gamma_set(eta), values)
    got = gamma_expectations(report.rho_star, build_gamma_set(eta))
    np.testing.assert_allclose(got, values, atol=1e-8)


def test_minimize_rejects_malformed_values():
    gammas = build_gamma_set(0.5)
    for values in ([0.6, 0.03], [0.5, 0.025, 0.75, 0.1], [0.5, math.nan, 0.75], "abc"):
        with pytest.raises(FeasibilityError):
            minimize(gammas, values)


@pytest.mark.filterwarnings("error")
def test_minimize_zero_values_raise_without_warning():
    # numpy scalars reach the imbalance with t*(1-eta) = 0.
    with pytest.raises(FeasibilityError):
        minimize(build_gamma_set(0.5), [0.0, 0.0, 0.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values", [(-0.5, 0.0, -0.75), (0.0, 0.0, 0.0)])
def test_minimize_rejects_a_non_positive_detection_rate(values):
    with pytest.raises(FeasibilityError, match="detection rate"):
        minimize(build_gamma_set(0.5), values)


@pytest.mark.parametrize("eta", [0.3, 0.9, 1.0])
def test_minimize_is_exact_on_the_boundary_and_inside(eta):
    # At q_x = 0 the feasible set has no interior; the solve needs none.
    for qx in (0.0, 0.03, 0.3):
        values = (eta, eta * qx, (1 + eta) / 2)
        report = minimize(build_gamma_set(eta), values)
        assert report.iterations == 0 and report.converged
        assert report.constraint_residuals.max() <= 1e-15
        assert report.kkt_residual <= 1e-8
        assert abs(report.f_star - ignorance_term(qx, eta, 1.0, (1 + eta) / 2)) <= 1e-13
        assert np.array_equal(report.rho_star, report.rho_star.T)


def test_minimize_decomposes_once_and_validates_nothing(monkeypatch):
    # f*, the gradient, the PSD test and the KKT face all come from one
    # eigendecomposition of the stack (rho*, G(rho*), Z(G(rho*))), and the
    # solved state is trusted: a second spectral pass would show here.
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    hermitian = counted("require_hermitian", linalg.require_hermitian)
    for module in (linalg, protocol, verifier):
        monkeypatch.setattr(module, "require_hermitian", hermitian)
    for eta, qx in ((0.5, 0.05), (0.5, 0.0), (1.0, 0.05)):
        gammas = build_gamma_set(eta)
        calls.clear()
        minimize(gammas, (eta, eta * qx, (1 + eta) / 2))
        assert calls == {"eigh": 1}


def test_minimize_state_is_invariant_and_minimal():
    # rho* is invariant under Z(x)Z and X(x)I, and no feasible state found by
    # mixing in a direction that keeps the constraints does better.
    eta, t, qx, delta = 0.6, 0.8, 0.07, 0.1
    gammas = build_gamma_set(eta)
    p_pass = t * ((1 + eta) / 2 + delta * (1 - eta) / 2)
    report = minimize(gammas, (t * eta, t * eta * qx, p_pass))
    rho = report.rho_star
    zz, xi = np.diag([1.0, -1.0, -1.0, 1.0]), np.eye(4)[[2, 3, 0, 1]]
    for p in (zz, xi):
        np.testing.assert_array_equal(p @ rho @ p.T, rho)
    rng = np.random.default_rng(5)
    ops = np.array(gammas.as_list()).reshape(3, 16)
    checked = 0
    for _ in range(200):
        d = random_direction(rng, 4)
        # Remove the part that changes the constraint values.
        d -= (ops.T @ np.linalg.lstsq(ops.T, d.real.ravel(), rcond=None)[0]).reshape(4, 4)
        trial = rho + 0.02 * d
        assert np.abs(gamma_expectations(trial, gammas) - gamma_expectations(rho, gammas)).max() <= 1e-15
        if np.linalg.eigvalsh(trial)[0] >= 0:
            checked += 1
            assert objective(trial, eta) >= report.f_star - 1e-12
    assert checked >= 100


def test_minimize_pins_the_minimum_where_gamma_1_and_gamma_3_agree_to_rounding():
    # At eta = 1 - 2^-50 the weights break Bob's bit flip, so the invariant
    # states have 3 directions, and Gamma_1 and Gamma_3 agree on them to
    # rounding; the constant operators (I, (I - J)/2, G0) still fix all 3.
    eta = 1.0 - 2.0**-50
    report = minimize(build_gamma_set(eta), (eta, eta * 0.05, (1.0 + eta) / 2.0))
    assert report.converged and report.kkt_residual <= 1e-14
    assert abs(report.f_star - ignorance_term(0.05, eta, 1.0, (1.0 + eta) / 2.0)) <= 2e-16


def test_minimize_rejects_operators_other_than_the_model():
    # Operators other than the model's need not have its symmetry.
    ops = build_gamma_set(0.5)
    cases = (
        (ops.gamma1, ops.gamma2, ops.gamma1),
        (ops.gamma1, 1j * np.triu(ops.gamma2), ops.gamma3),
        (ops.gamma1[:3, :3], ops.gamma2, ops.gamma3),
    )
    for other in cases:
        with pytest.raises(ValueError, match="not build_gamma_set") as info:
            minimize(GammaSet(*other), (0.5, 0.025, 0.75))
        assert not isinstance(info.value, FeasibilityError)


def _signed_permutation_group(generators):
    """Closure of a list of 4x4 signed permutation matrices under products."""
    group = {np.eye(4).tobytes(): np.eye(4)}
    frontier = list(group.values())
    while frontier:
        new = [s @ g for g in frontier for s in generators]
        frontier = [h for h in new if h.tobytes() not in group]
        group.update((h.tobytes(), h) for h in frontier)
    return list(group.values())


def _twirl(rho, group):
    """Real part of the group average of P rho P^T."""
    return np.real(sum(p @ rho @ p.T for p in group)) / len(group)


def _invariant_spaces():
    """The symmetry groups of the constraints, Z(x)Z and X(x)I (and I(x)X at
    eta = 1), and orthonormal bases of the real symmetric matrices they
    leave unchanged, keyed by eta == 1: the span of the twirled elementary
    symmetric matrices, by SVD."""
    zz = np.diag([1.0, -1.0, -1.0, 1.0])
    xi = np.eye(4)[[2, 3, 0, 1]]
    ix = np.eye(4)[[1, 0, 3, 2]]
    groups = {False: _signed_permutation_group([zz, xi]), True: _signed_permutation_group([zz, xi, ix])}
    bases = {}
    for ideal, group in groups.items():
        sym = []
        for j in range(4):
            for k in range(j, 4):
                e = np.zeros((4, 4))
                e[j, k] = e[k, j] = 1.0
                sym.append(_twirl(e, group).ravel())
        u, s, _ = np.linalg.svd(np.array(sym).T, full_matrices=False)
        bases[ideal] = u[:, s > 1e-12 * s[0]].T.reshape(-1, 4, 4)
    return groups, bases


def test_minimize_bases_span_the_derived_invariant_spaces():
    # minimize's premise: its two fixed bases, with entries 0 and 1 on disjoint
    # supports, span exactly the invariant spaces that the group closure and
    # the twirl derive.
    bases = _invariant_spaces()[1]
    assert len(bases[False]) == 3 and len(bases[True]) == 2
    for ideal, fixed in ((False, verifier._BASIS), (True, verifier._BASIS_AT_ONE)):
        flat, derived = fixed.reshape(len(fixed), 16), bases[ideal].reshape(-1, 16)
        assert set(flat.ravel()) == {0.0, 1.0} and flat.sum(axis=0).max() == 1.0
        # Each fixed matrix lies in the derived span, and the dimensions agree.
        np.testing.assert_allclose(flat @ derived.T @ derived, flat, rtol=0, atol=1e-15)
        assert np.linalg.matrix_rank(flat) == len(derived)


def _model_operators(eta):
    """Gamma_1 = eta*I, Gamma_2 = eta*(I - J)/2 and Gamma_3 = diag(1, eta, 1, eta),
    in exact rationals, written out from the measurement model."""
    e, eye = Fraction(eta), np.eye(4, dtype=int)
    return [e * eye, e * (eye - eye[::-1]) / 2, np.diag([1, e, 1, e])]


def test_solve_runs_on_the_model_operators_and_inverts_exactly():
    # For eta < 1 the solve's stack must be the image of build_gamma_set(eta)'s
    # operators under the map it applies to the values, (Gamma_1/eta,
    # Gamma_2/eta, (Gamma_3 - Gamma_1)/(1 - eta)), which is invertible, so both
    # span the same space; at eta = 1 it must be the operators themselves. And
    # its rho map must send the values of each basis matrix back to that
    # matrix bit for bit: the solve matrix times its system is the identity.
    rng = np.random.default_rng(20261020)
    # 20 etas in (0, 1), 20 within 1e-12 of 1, and 1.
    etas = [*rng.uniform(1e-6, 1.0, 20), *(1.0 - rng.integers(1, 4504, 20) * 2.0**-53), 1.0]
    for eta in map(float, etas):
        gammas = _model_operators(eta)
        assert np.array_equal(np.array(gammas, dtype=float), build_gamma_set(eta).as_list())
        e = Fraction(eta)
        expected = gammas if eta == 1.0 else [gammas[0] / e, gammas[1] / e, (gammas[2] - gammas[0]) / (1 - e)]
        stack, rho_map, _, _ = verifier._SOLVES[eta == 1.0]
        assert [Fraction(x) for x in stack.ravel()] == list(np.ravel(expected))
        basis = verifier._BASIS_AT_ONE if eta == 1.0 else verifier._BASIS
        system = np.einsum("iab,kab->ik", stack, basis)
        assert np.array_equal(system.T @ rho_map, basis.reshape(len(basis), 16))


def test_kkt_projector_is_exact_and_removes_exactly_the_stack_span():
    # The residual projector R = I - sum_k b_k b_k^T/|b_k|^2 of each solve:
    # entries in quarters, an exact orthogonal projector, zero on every stack
    # operator, and the identity on integer vectors spanning the orthogonal
    # complement of the basis (unit vectors off every support, and differences
    # of two unit vectors within one support).
    for ideal, basis in ((False, verifier._BASIS), (True, verifier._BASIS_AT_ONE)):
        stack, _, R, _ = verifier._SOLVES[ideal]
        quarters = 4.0 * R
        assert np.array_equal(quarters, np.round(quarters)) and set(quarters.ravel()) <= {-2, -1, 0, 2, 3, 4}
        assert np.array_equal(R, R.T) and np.array_equal(R @ R, R)
        assert not (stack.reshape(len(stack), 16) @ R).any()
        flat, eye = basis.reshape(len(basis), 16), np.eye(16)
        complement = [eye[a] for a in np.flatnonzero(flat.sum(axis=0) == 0)]
        for b in flat:
            first, *rest = np.flatnonzero(b)
            complement += [eye[first] - eye[a] for a in rest]
        complement = np.array(complement)
        assert not (complement @ flat.T).any() and np.linalg.matrix_rank(complement) == 16 - len(basis)
        assert np.array_equal(complement @ R, complement)


def test_boundary_kkt_residual_keeps_the_singular_face_solve():
    # At q_x = 0, delta = 0 the minimizer has rank 2, so its residual comes
    # from the face compression and least-squares solve: its bits are pinned.
    for eta, bits in ((0.3, "0x1.6a09e667f3bcdp-52"), (0.5, "0x1.6a09e667f3bcdp-51"),
                      (0.7, "0x1.1e3779b97f4a8p-52"), (0.9, "0x1.6a09e667f3bcdp-52")):
        report = minimize(build_gamma_set(eta), (eta, 0.0, (1.0 + eta) / 2.0))
        assert np.array_equal(np.linalg.eigvalsh(report.rho_star), [0.0, 0.0, 0.5, 0.5])
        assert report.kkt_residual.hex() == bits


def test_solve_refuses_a_basis_without_an_exact_projector_onto_the_stack_span():
    # E11 alone in place of E11 + E33 still gives a 3 x 3 system of rank 3, but
    # leaves I outside the basis span; E00 + E11 + E33 overlaps E00 + E22, so
    # R is no projector.
    for last in (np.diag([0.0, 1, 0, 0]), np.diag([1.0, 1, 0, 1])):
        basis = np.array([*verifier._BASIS[:2], last])
        with pytest.raises(RuntimeError, match="no exact projector"):
            verifier._solve(verifier._STACK, basis, 3.01)


def test_theorem_by_symmetry_without_the_oracle():
    # The constraints and the objective are invariant under Z(x)Z and X(x)I
    # (and I(x)X at eta = 1) and under complex conjugation, and f is convex,
    # so the twirl T maps a feasible state to a feasible invariant state with
    # no larger f. On the invariant subspace the constraints fix the state
    # uniquely; that state must attain the closed-form minimum.
    groups, bases = _invariant_spaces()
    assert len(bases[False]) == 3 and len(bases[True]) == 2

    rng = np.random.default_rng(20260418)
    for _ in range(1000):
        eta = 1.0 if rng.random() < 0.1 else rng.uniform(1e-3, 1.0)
        ideal = eta == 1.0
        group, basis = groups[ideal], bases[ideal]
        gammas = build_gamma_set(eta).as_list()

        # (a) The twirl keeps the constraint values and does not raise f.
        for g in gammas:
            for p in group:
                assert np.abs(p @ g @ p.T - g).max() <= 1e-15
        rho = random_state_block(rng)
        twirled = _twirl(rho, group)
        for g in gammas:
            assert abs(np.trace(g @ twirled).real - np.trace(g @ rho).real) <= 1e-12
        assert objective(twirled, eta) <= objective(rho, eta) + 1e-12

        # (b) The unique invariant state with the observed values.
        t = rng.uniform(0.01, 1.0)
        delta = 0.0 if ideal else rng.uniform(-0.999, 0.999)
        root = math.sqrt(1.0 - delta * delta)
        if rng.random() < 0.3:
            q_x = (1.0 - root) / 2.0  # on the boundary 2*q_x = 1 - sqrt(1 - delta^2)
        else:
            q_x = rng.uniform((1.0 - root) / 2.0 + 1e-6, (1.0 + root) / 2.0 - 1e-6)
        p_pass = t * ((1.0 + eta) / 2.0 + delta * (1.0 - eta) / 2.0)
        A = np.array([[np.trace(g @ b) for b in basis] for g in gammas])
        assert np.linalg.matrix_rank(A) == len(basis)
        coef = np.linalg.lstsq(A, [t * eta, t * eta * q_x, p_pass], rcond=None)[0]
        state = np.tensordot(coef, basis, axes=1)
        assert np.linalg.eigvalsh(state)[0] >= -1e-12 * t
        assert abs(objective(state, eta) - ignorance_term(q_x, eta, t, p_pass)) <= 1e-11


def test_ignorance_term_accepts_every_converged_minimize_at_tiny_eta():
    # With delta near -1 and eta down to 1e-9, t = a + b/eta is far above
    # p = a + b, and lambda's rounding grows with (p + t + 2x)/p beyond an
    # absolute 1e-12; the closed form must still accept what minimize accepts.
    from bb84_mismatch.keyrates import _lam, detection_imbalance

    rng = np.random.default_rng(20261019)
    converged = beyond_absolute = 0
    for _ in range(600):
        eta, t = float(10 ** rng.uniform(-9, -2)), float(rng.uniform(1e-3, 1.0))
        delta = -1.0 + float(rng.uniform(0.0, 1e-3))
        root = math.sqrt(1.0 - delta * delta)
        q_x = (1.0 - root) / 2.0 if rng.random() < 0.5 else float(rng.uniform((1.0 - root) / 2.0, (1.0 + root) / 2.0))
        p_pass = t * ((1.0 + eta) / 2.0 + delta * (1.0 - eta) / 2.0)
        try:
            report = minimize(build_gamma_set(eta), (t * eta, t * eta * q_x, p_pass))
        except FeasibilityError:
            continue
        if not report.converged:
            continue
        converged += 1
        a = t * (1.0 + detection_imbalance(p_pass, t, eta)) / 2.0
        beyond_absolute += _lam(a, p_pass - a, t, t * q_x, eta)[1] < -1e-12
        assert abs(report.f_star - ignorance_term(q_x, eta, t, p_pass)) <= 1e-12
    assert converged > 400 and beyond_absolute > 0
