"""The seeded q_x-edge corpus, read by the feasibility property in
``test_properties.py`` and by ``tools/compare_outputs.py``; numpy only."""

import numpy as np


def edge_corpus(seed, n):
    """n seeded (eta, t, delta, q_x, p_pass) on the q_x edges of delta's
    feasible interval: eta from U(0.01, 1) in 70% of draws and 1 - 10^-U(1,12)
    otherwise, t = 1 or U(0.05, 1), delta from U(-0.99, 0.99), q_x the lower
    or upper edge (1 -+ sqrt(1 - delta^2))/2 moved by -2 to +2 ulps in half
    the draws and scaled by 1 + U(-1e-6, 1e-6) in the rest, and
    p_pass = t((1 + eta)/2 + delta(1 - eta)/2). Draws with q_x outside [0, 1]
    are dropped."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        eta = rng.uniform(0.01, 1.0) if rng.random() < 0.7 else 1.0 - 10.0 ** -rng.uniform(1.0, 12.0)
        t = 1.0 if rng.random() < 0.5 else rng.uniform(0.05, 1.0)
        delta = rng.uniform(-0.99, 0.99)
        root = np.sqrt(1.0 - delta * delta)
        q_x = float((1.0 - root) / 2.0 if rng.random() < 0.5 else (1.0 + root) / 2.0)
        if rng.random() < 0.5:
            q_x += int(rng.integers(-2, 3)) * float(np.spacing(q_x))
        else:
            q_x *= 1.0 + rng.uniform(-1e-6, 1e-6)
        if 0.0 <= q_x <= 1.0:
            yield float(eta), float(t), float(delta), q_x, float(t * ((1.0 + eta) / 2.0 + delta * (1.0 - eta) / 2.0))
