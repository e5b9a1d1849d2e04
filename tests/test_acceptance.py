"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np

from bb84_mismatch import (
    binary_entropy,
    bound_Q1,
    bound_e1q1,
    bound_Y0,
    build_gamma_set,
    decoy_keyrate,
    error_correction_leak,
    gamma2_upper,
    gradient,
    ignorance_term,
    keyrate_balanced,
    keyrate_discard_optimized,
    keyrate_fung1,
    keyrate_fung2,
    keyrate_general,
    kkt_orthogonality_check,
    minimize,
    mismatch_penalty_ratio,
    objective,
    optimal_attack_state,
    photon_block,
    simulate_error,
    simulate_observations,
    simulate_yield,
    theoretical_limit,
    eigenvalues_check,
)
from bb84_mismatch.decoy import ChannelModel, DecoyConfig, poisson_pmf
from bb84_mismatch.verifier import _BASIS, _BASIS_AT_ONE

h = binary_entropy

BENCHMARK_CFG = DecoyConfig(mu=0.5, nu1=0.1, nu2=0.0)


def benchmark_model(length_km, eta0=0.1, eta1=0.07):
    return ChannelModel(
        alpha_db_per_km=0.2,
        length_km=length_km,
        bob_loss_db=5.0,
        e_det=0.01,
        eta0=eta0,
        eta1=eta1,
        dark=(1e-6, 1e-6),
    )


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def feasible_grid():
    """The certification grid: 57 points at t = 1 plus 6 at t = 0.8."""
    points = []
    for eta in (0.3, 0.5, 0.7, 0.9, 1.0):
        for qx in (0.0, 0.02, 0.05, 0.08, 0.11):
            for delta in (0.0, 0.05, -0.05):
                if eta == 1.0 and delta != 0.0:
                    continue
                if 2.0 * qx < 1.0 - math.sqrt(1.0 - delta**2):
                    continue
                points.append((eta, qx, delta, 1.0))
    for eta in (0.5, 0.9):
        for delta in (0.0, 0.05, -0.05):
            points.append((eta, 0.05, delta, 0.8))
    return points


def test_criterion_1_ideal_detector_reduction():
    start = time.monotonic()
    worst = 0.0
    for qz in np.linspace(0.0, 0.11, 10):
        for qx in np.linspace(0.0, 0.11, 10):
            for t in np.linspace(0.2, 1.0, 5):
                res = keyrate_general(float(qz), float(qx), 1.0, float(t), float(t))
                expected = t * (1.0 - h(float(qx)) - h(float(qz)))
                worst = max(worst, abs(res.rate - expected))
    elapsed = time.monotonic() - start
    report(
        "criterion 1 (ideal-detector reduction)",
        worst <= 1e-12 and elapsed < 1.0,
        f"max |K - t(1-h-h)| = {worst:.3e} (tol 1e-12), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_noiseless_reduction():
    start = time.monotonic()
    worst = 0.0
    for eta in np.linspace(0.05, 1.0, 96):
        for t in (0.2, 0.4, 0.6, 0.8, 1.0):
            res = keyrate_balanced(0.0, 0.0, float(eta), t)
            expected = t * (1.0 + eta) / 2.0 * h(1.0 / (1.0 + float(eta)))
            worst = max(worst, abs(res.rate - expected))
    elapsed = time.monotonic() - start
    report(
        "criterion 2 (noiseless reduction)",
        worst <= 1e-12 and elapsed < 1.0,
        f"max deviation = {worst:.3e} (tol 1e-12), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_3_analytic_vs_numeric_oracle():
    start = time.monotonic()
    points = feasible_grid()
    assert len(points) >= 60
    worst = 0.0
    lower_bound_ok = True
    for eta, qx, delta, t in points:
        p_pass = t * ((1.0 + eta) / 2.0 + delta * (1.0 - eta) / 2.0)
        values = (t * eta, t * eta * qx, p_pass)
        rep = minimize(build_gamma_set(eta), values)
        analytic = ignorance_term(qx, eta, t, p_pass)
        worst = max(worst, abs(rep.f_star - analytic))
        lower_bound_ok = lower_bound_ok and rep.f_star >= analytic - 1e-6
    elapsed = time.monotonic() - start
    report(
        "criterion 3 (analytic-vs-numeric oracle)",
        worst <= 1e-4 and lower_bound_ok and elapsed < 300.0,
        f"{len(points)} points, max |f*-analytic| = {worst:.3e} (tol 1e-4), "
        f"lower bound held = {lower_bound_ok}, {elapsed:.1f}s (< 300s)",
    )


def test_criterion_4_kkt_certification():
    start = time.monotonic()
    cases = [
        (qz, qx, delta)
        for qz in (0.02, 0.05, 0.08, 0.10, 0.03)
        for qx, delta in [(0.05, 0.0), (0.08, 0.05), (0.06, -0.03), (0.11, 0.0), (0.07, 0.02)]
    ]
    etas = (0.3, 0.5, 0.7, 0.9, 1.0)
    worst = 0.0
    for (qz, qx, delta), eta in zip(cases, [e for e in etas for _ in range(5)]):
        if eta == 1.0:
            delta = 0.0
        rho = optimal_attack_state(qz, qx, delta, 1.0)
        worst = max(worst, kkt_orthogonality_check(rho, eta))

    direction = np.zeros((4, 4))
    direction[0, 1] = direction[1, 0] = 1.0 / math.sqrt(2.0)
    perturbed = photon_block(optimal_attack_state(0.05, 0.05, 0.0, 1.0)) + 1e-2 * direction
    detected = kkt_orthogonality_check(perturbed, 0.5)
    elapsed = time.monotonic() - start
    report(
        "criterion 4 (KKT certification)",
        worst < 1e-8 and detected > 1e-4 and elapsed < 30.0,
        f"25 points, max residual = {worst:.3e} (< 1e-8), perturbed residual = "
        f"{detected:.3e} (> 1e-4), {elapsed:.1f}s (< 30s)",
    )


def test_oracle_report_matches_the_public_checks():
    # minimize reads f*, the KKT residual and its PSD test off one real
    # eigendecomposition; the public objective and KKT check decompose the
    # same state as a complex matrix. The two LAPACK paths round each
    # eigenvalue differently by a few eps (states of trace <= 1 here), which
    # x*log2(x) carries into f with a slope below 64 down to x = eps.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(20261019)
    interior = zip(
        rng.uniform(0.3, 1.0, 40), rng.uniform(0.02, 0.11, 40), rng.uniform(-0.05, 0.05, 40), rng.uniform(0.5, 1.0, 40)
    )
    # The grid holds eta = 1 and the q_x = 0 boundary.
    points = feasible_grid() + [tuple(map(float, p)) for p in interior]
    for eta, qx, delta, t in points:
        gammas = build_gamma_set(eta)
        p_pass = t * ((1.0 + eta) / 2.0 + delta * (1.0 - eta) / 2.0)
        rep = minimize(gammas, (t * eta, t * eta * qx, p_pass))
        assert abs(rep.f_star - objective(rep.rho_star, eta)) <= 64 * eps
        kkt = kkt_orthogonality_check(rep.rho_star, eta)
        assert max(kkt, rep.kkt_residual) <= 1e-8 or abs(kkt - rep.kkt_residual) <= 64 * eps
        # converged as minimize's docstring states it, with eigvalsh: kappa is
        # 3.01 (3.23 at eta = 1), the condition number of the constant
        # operators on the invariant bases, (I, (I - J)/2, G0 = diag(1, 0, 1, 0))
        # for eta < 1 and build_gamma_set(1)'s at eta = 1.
        ops = np.array(gammas.as_list()) / eta
        if eta < 1.0:
            ops[2] = np.diag([1.0, 0.0, 1.0, 0.0])
        kappa = 3.23 if eta == 1.0 else 3.01
        cond = np.linalg.cond(np.einsum("iab,kab->ik", ops, _BASIS_AT_ONE if eta == 1.0 else _BASIS))
        assert abs(cond - kappa) <= 0.005
        rule = rep.constraint_residuals.max() <= 1e-8 and np.linalg.eigvalsh(rep.rho_star)[0] >= -8 * eps * kappa * t
        assert rep.converged == rule


def test_criterion_5_gradient_finite_differences():
    start = time.monotonic()
    rng = np.random.default_rng(53)
    worst = 0.0
    for _ in range(20):
        # Random strictly feasible interior point: a mixture of the extremal
        # state and the matching depolarizing state, both in the same
        # constraint class.
        qz = rng.uniform(0.02, 0.2)
        qx = rng.uniform(0.02, 0.2)
        eta = rng.uniform(0.3, 1.0)
        rho = photon_block(optimal_attack_state(qz, qx, 0.0, 1.0))
        assert np.linalg.eigvalsh(rho).min() > 0.0
        grad = gradient(rho, eta)
        for _ in range(20):
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            direction = (raw + raw.conj().T) / 2.0
            direction -= np.trace(direction) / 4.0 * np.eye(4)
            direction /= np.linalg.norm(direction)
            step = 1e-5
            fd = (
                objective(rho + step * direction, eta)
                - objective(rho - step * direction, eta)
            ) / (2.0 * step)
            an = float(np.real(np.trace(grad @ direction)))
            worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
    elapsed = time.monotonic() - start
    report(
        "criterion 5 (gradient finite differences)",
        worst <= 1e-6 and elapsed < 30.0,
        f"20 points x 20 directions, worst relative error = {worst:.3e} "
        f"(tol 1e-6), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_6_eigenvalue_formula():
    ok = True
    for eta in (0.3, 0.5, 0.7, 0.9, 1.0):
        for qz in (0.0, 0.05, 0.11):
            for qx in (0.02, 0.05, 0.11):
                for delta in (0.0, 0.05):
                    if eta == 1.0 and delta != 0.0:
                        continue
                    rho = optimal_attack_state(qz, qx, delta, 1.0)
                    ok = ok and eigenvalues_check(rho, eta, tol=1e-10)
    report(
        "criterion 6 (eigenvalue formula)",
        ok,
        "spectrum of sifted attack state matches {(1-qz)l+-, qz l+-} within 1e-10",
    )


def test_criterion_7_comparison_curve_claims():
    dominance_ok = True
    for q in (0.0, 0.05):
        for eta in np.linspace(0.02, 1.0, 50):
            balanced = keyrate_balanced(q, q, float(eta)).rate
            fung1 = keyrate_fung1(q, q, float(eta), (1.0 + float(eta)) / 2.0).rate
            dominance_ok = dominance_ok and balanced >= fung1 - 1e-12

    endpoints_ok = True
    for q in (0.0, 0.05, 0.10):
        for eta in np.linspace(0.05, 1.0, 20):
            res = keyrate_discard_optimized(q, q, float(eta))
            balanced = keyrate_balanced(q, q, float(eta)).rate
            discard_all = keyrate_fung2(q, q, float(eta), (1.0 + float(eta)) / 2.0).rate
            endpoints_ok = endpoints_ok and res.rate >= max(balanced, discard_all) - 1e-10

    ratio = mismatch_penalty_ratio(0.09, 0.7)
    report(
        "criterion 7 (comparison-curve claims)",
        dominance_ok and endpoints_ok and ratio > 0.9,
        f"balanced>=fung1: {dominance_ok}, discard dominates endpoints: "
        f"{endpoints_ok}, penalty ratio(0.09, 0.7) = {ratio:.4f} (> 0.9)",
    )


def test_criterion_8a_error_correction_leak_balanced():
    worst = 0.0
    for eta in (0.3, 0.7, 1.0):
        for qz in np.linspace(0.0, 0.11, 12):
            rho = optimal_attack_state(float(qz), 0.05, 0.0, 1.0)
            worst = max(worst, abs(error_correction_leak(rho, eta) - h(float(qz))))
    report(
        "criterion 8a (error-correction leak, delta = 0)",
        worst <= 1e-12,
        f"max |H(A|B) - h(qz)| = {worst:.3e} (tol 1e-12)",
    )


def test_criterion_8b_error_correction_leak_imbalanced():
    # Required: the leak strictly below h(qz) at delta = 0.1. Direct
    # evaluation gives exact equality for every imbalance, because the
    # (1 +- delta) factors are shared within each Bob-outcome pair, so the
    # conditional error rate stays qz for both outcomes. Expected red.
    qz = 0.05
    rho = optimal_attack_state(qz, 0.05, 0.1, 1.0)
    leak = error_correction_leak(rho, 0.5)
    report(
        "criterion 8b (error-correction leak, delta = 0.1, required strict decrease)",
        leak < h(qz),
        f"H(A|B) = {leak:.15f} vs h(qz) = {h(qz):.15f} (observed: equal)",
    )


def test_criterion_9_decoy_soundness():
    start = time.monotonic()
    sandwich_ok = True
    dominance_ok = True
    corner_ok = True
    worst_ratio = 1.0
    for length in np.linspace(0.0, 120.0, 13):
        model = benchmark_model(float(length))
        obs = simulate_observations(model, BENCHMARK_CFG)
        w1 = poisson_pmf(1, BENCHMARK_CFG.mu)
        q1_actual = [simulate_yield(model, 1, "z", b) * w1 for b in (0, 1)]
        e1 = [simulate_error(model, 1, "x", b) for b in (0, 1)]
        gamma2_actual = model.eta * e1[0] * q1_actual[0] + e1[1] * q1_actual[1]
        for beta in (0, 1):
            lower, upper = bound_Q1(obs, BENCHMARK_CFG, beta)
            sandwich_ok = sandwich_ok and bound_Y0(obs, BENCHMARK_CFG, beta) <= model.dark[beta] + 1e-12
            sandwich_ok = sandwich_ok and lower <= q1_actual[beta] + 1e-12 <= upper + 1e-12
            sandwich_ok = (
                sandwich_ok
                and bound_e1q1(obs, BENCHMARK_CFG, beta) >= e1[beta] * q1_actual[beta] - 1e-12
            )
        sandwich_ok = (
            sandwich_ok and gamma2_upper(obs, BENCHMARK_CFG, model.eta) >= gamma2_actual - 1e-12
        )
        res = decoy_keyrate(obs, BENCHMARK_CFG, model.eta)
        limit = theoretical_limit(model, obs, BENCHMARK_CFG)
        dominance_ok = dominance_ok and res.rate <= limit.rate + 1e-10
        if res.rate > 0.0:
            corner_ok = corner_ok and res.at_lower_corner
            worst_ratio = min(worst_ratio, res.rate / limit.rate)
    elapsed = time.monotonic() - start
    report(
        "criterion 9 (decoy soundness)",
        sandwich_ok and dominance_ok and corner_ok and worst_ratio >= 0.9 and elapsed < 60.0,
        f"sandwich: {sandwich_ok}, decoy <= limit: {dominance_ok}, lower-bound "
        f"corner: {corner_ok}, min decoy/limit ratio = {worst_ratio:.4f} "
        f"(>= 0.9, implementer-chosen), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_10_feasibility_boundary():
    worst = 0.0
    for delta in (0.1, 0.3, 0.6):
        target = (1.0 - math.sqrt(1.0 - delta**2)) / 2.0

        def min_eig(q_x):
            rho = optimal_attack_state(0.05, q_x, delta, 1.0, check_feasibility=False)
            return float(np.linalg.eigvalsh(photon_block(rho)).min())

        lo, hi = 0.0, 0.5
        assert min_eig(lo) < 0.0 < min_eig(hi)
        while hi - lo > 1e-9:
            mid = (lo + hi) / 2.0
            if min_eig(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        worst = max(worst, abs((lo + hi) / 2.0 - target))
    report(
        "criterion 10 (feasibility boundary)",
        worst <= 1e-8,
        f"bisection vs closed form, max |q* - (1-sqrt(1-d^2))/2| = {worst:.3e} (tol 1e-8)",
    )
