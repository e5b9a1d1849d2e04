"""Command-line front end: rate queries, parameter sweeps, decoy simulation,
and numerical verification runs.

Output is plain CSV with '#'-prefixed metadata lines, 12 significant digits,
byte-deterministic for a fixed invocation. Exit codes: 0 success, 1 usage or
configuration error, 2 infeasible inputs, 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .decoy import ChannelModel, DecoyConfig, decoy_keyrate, simulate_observations, theoretical_limit
from .errors import ConfigError, FeasibilityError, NoKeyError
from .keyrates import (
    _method_rate,
    _require_f_ec,
    keyrate_balanced,
    keyrate_general,
    mismatch_penalty_ratio,
)
from .linalg import binary_entropy
from .protocol import build_gamma_set, optimal_attack_state
from .verifier import (
    eigenvalues_check,
    error_correction_leak,
    gradient,
    ignorance_term,
    kkt_orthogonality_check,
    minimize,
    objective,
)

# Each sweep method and the fixed parameters it reads; the header lists those.
SWEEP_METHODS = {
    "balanced": ("q_z", "q_x", "eta", "t", "f_ec"),
    "discard_optimized": ("q_z", "q_x", "eta", "t", "f_ec"),
    "fung1": ("q_z", "q_x", "eta", "t"),
    "fung2": ("q_z", "q_x", "eta", "t"),
    "general": ("q_z", "q_x", "eta", "t", "p_pass", "f_ec"),
    "penalty_ratio": ("q_x", "eta"),
    "decoy": ("f_ec",),
    "theoretical_limit": ("f_ec",),
}
_SWEPT = {"eta": ("eta",), "q": ("q_z", "q_x"), "distance_km": ()}

_BENCHMARK_DEFAULTS = {
    "mu": 0.5,
    "nu1": 0.1,
    "nu2": 0.0,
    "alpha_db_km": 0.2,
    "bob_loss_db": 5.0,
    "e_det": 0.01,
    "eta0": 0.1,
    "eta1": 0.07,
    "dark0": 1e-6,
    "dark1": 1e-6,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems via exception, not exit(2)."""

    def error(self, message):
        raise UsageError(message)


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and not np.isfinite(x)):
        return "nan"
    return f"{x:.12g}"


def _load_config(path: str) -> dict[str, str]:
    """key = value lines; keys mirror the flag names without leading dashes."""
    out: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


def _resolve(args, name: str, default, cast=float):
    """Flag value if given, else config-file value, else the default."""
    dest = name.replace("-", "_")
    value = getattr(args, dest, None)
    if value is not None:
        return value
    config = getattr(args, "_config", {})
    if name in config:
        raw = config[name]
        if cast is str:
            return raw
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {name!r}: {exc}") from exc
    return default


def _require_ranges(**named):
    """Flag-level range validation; failures are usage errors, not physics."""
    closed = {"qz", "qx"}
    for name, value in named.items():
        if value is None:
            continue
        low_ok = value >= 0.0 if name in closed else value > 0.0
        if not low_ok or value > 1.0:
            flag = name.replace("_", "-")
            raise UsageError(f"--{flag} = {value} outside the valid range")


def _resolve_f_ec(args) -> float:
    """--f-ec, rejected up front unless finite and >= 0.

    The rate functions check it too, but ``rate`` would report their error
    as infeasible inputs and ``sweep`` would print nan rows.
    """
    f_ec = _resolve(args, "f-ec", 1.0)
    _require_f_ec(f_ec)
    return f_ec


def _add_shared(parser: _Parser):
    parser.add_argument("--eta", type=float, help="normalized mismatch in (0, 1]")
    parser.add_argument("--eta0", type=float, help="efficiency of detector 0")
    parser.add_argument("--eta1", type=float, help="efficiency of detector 1")
    parser.add_argument("--qz", type=float, help="key-basis QBER")
    parser.add_argument("--qx", type=float, help="x-basis error statistic")
    parser.add_argument("--t", type=float, help="channel transparency (default 1)")
    parser.add_argument("--p-pass", type=float, help="sifting pass probability")
    parser.add_argument("--f-ec", type=float, help="error-correction inefficiency, finite and >= 0 (default 1)")
    parser.add_argument("--out", type=str, help="output path or 'stdout' (default)")
    parser.add_argument("--config", type=str, help="key=value config file; flags win on conflict")


def _add_decoy_flags(parser: _Parser):
    parser.add_argument("--mu", type=float, help="signal intensity")
    parser.add_argument("--nu1", type=float, help="first decoy intensity")
    parser.add_argument("--nu2", type=float, help="second decoy intensity")
    parser.add_argument("--alpha-db-km", type=float, help="fiber attenuation, dB/km")
    parser.add_argument("--bob-loss-db", type=float, help="receiver optics loss, dB")
    parser.add_argument("--e-det", type=float, help="optical error probability")
    parser.add_argument("--dark0", type=float, help="dark count probability, detector 0")
    parser.add_argument("--dark1", type=float, help="dark count probability, detector 1")
    parser.add_argument("--l-min", type=float, help="shortest distance, km")
    parser.add_argument("--l-max", type=float, help="longest distance, km")
    parser.add_argument("--l-steps", type=int, help="number of distances")


def build_parser() -> _Parser:
    parser = _Parser(prog="bb84-mismatch", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("rate", help="single-point key rate")
    _add_shared(p_rate)
    p_rate.set_defaults(func=cmd_rate)

    p_sweep = sub.add_parser("sweep", help="parameter sweep to CSV")
    _add_shared(p_sweep)
    _add_decoy_flags(p_sweep)
    p_sweep.add_argument("--variable", choices=("eta", "q", "distance_km"))
    p_sweep.add_argument("--start", type=float)
    p_sweep.add_argument("--stop", type=float)
    p_sweep.add_argument("--steps", type=int)
    p_sweep.add_argument("--methods", type=str, help="comma-separated method list")
    p_sweep.set_defaults(func=cmd_sweep)

    p_decoy = sub.add_parser("decoy-sim", help="decoy-state rate vs distance")
    _add_shared(p_decoy)
    _add_decoy_flags(p_decoy)
    p_decoy.set_defaults(func=cmd_decoy_sim)

    p_verify = sub.add_parser("verify", help="analytic-vs-numeric certification")
    _add_shared(p_verify)
    p_verify.add_argument("--grid-density", type=int, help="x-error grid points (default 2)")
    p_verify.add_argument("--perturb", type=float, help="adversarial perturbation size")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def _emit(args, lines: list[str]) -> None:
    out = _resolve(args, "out", "stdout", str)
    text = "\n".join(lines) + "\n"
    if out == "stdout":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _effective_eta(args) -> tuple[float, float]:
    """(eta, scale): normalized mismatch plus the common-loss prefactor."""
    eta = _resolve(args, "eta", None)
    eta0 = _resolve(args, "eta0", None)
    eta1 = _resolve(args, "eta1", None)
    if eta0 is not None and eta1 is not None:
        if eta is not None:
            raise UsageError("give either --eta or the pair --eta0/--eta1, not both")
        _require_ranges(eta0=eta0, eta1=eta1)
        scale = max(eta0, eta1)
        return min(eta0, eta1) / scale, scale
    if (eta0 is None) != (eta1 is None):
        raise UsageError("--eta0 and --eta1 must be given together")
    return (1.0 if eta is None else eta), 1.0


def cmd_rate(args) -> int:
    eta, scale = _effective_eta(args)
    q_z = _resolve(args, "qz", None)
    q_x = _resolve(args, "qx", None)
    if q_z is None or q_x is None:
        raise UsageError("rate requires --qz and --qx")
    t = _resolve(args, "t", 1.0)
    p_pass = _resolve(args, "p-pass", None)
    f_ec = _resolve_f_ec(args)
    _require_ranges(qz=q_z, qx=q_x, eta=eta, t=t, p_pass=p_pass)
    try:
        if p_pass is None:
            res = keyrate_balanced(q_z, q_x, eta, t, f_ec=f_ec)
        else:
            res = keyrate_general(q_z, q_x, eta, t, p_pass, f_ec=f_ec)
    except ValueError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    rate = None if res.rate is None else scale * res.rate
    lines = [
        f"# bb84-mismatch {__version__} rate",
        f"method = {res.method}",
        f"feasible = {str(res.feasible).lower()}",
        f"K = {_fmt(rate)}",
        f"delta = {_fmt(res.delta)}",
        f"lambda = {_fmt(res.lam)}",
        f"operational_rate = {_fmt(scale * res.operational_rate)}",
    ]
    _emit(args, lines)
    return 0 if res.feasible else 2


@dataclass(frozen=True)
class SweepSpec:
    """A validated sweep request: variable, range, fixed parameters, methods."""

    variable: str
    start: float
    stop: float
    steps: int
    fixed_params: dict
    methods: tuple[str, ...]

    def __post_init__(self):
        if self.variable not in ("eta", "q", "distance_km"):
            raise ConfigError(f"unknown sweep variable {self.variable!r}")
        if not self.start < self.stop:
            raise ConfigError("sweep requires start < stop")
        if self.steps < 2:
            raise ConfigError("sweep requires at least 2 steps")
        if not self.methods:
            raise ConfigError("sweep requires at least one method")
        bad = [m for m in self.methods if m not in SWEEP_METHODS]
        if bad:
            raise ConfigError(f"unknown methods: {', '.join(bad)}")
        distance_only = {"decoy", "theoretical_limit"}
        if self.variable == "distance_km":
            extra = set(self.methods) - distance_only
            if extra:
                raise ConfigError(
                    f"methods {sorted(extra)} not valid for a distance sweep"
                )
        else:
            extra = set(self.methods) & distance_only
            if extra:
                raise ConfigError(
                    f"methods {sorted(extra)} require --variable distance_km"
                )
            if "general" in self.methods and "p_pass" not in self.fixed_params:
                raise ConfigError("method 'general' requires --p-pass")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


def _sweep_value(method: str, x: float, spec: SweepSpec) -> float | None:
    p = spec.fixed_params
    if spec.variable == "eta":
        eta, q_z, q_x = x, p["q_z"], p["q_x"]
    else:
        eta, q_z, q_x = p["eta"], x, x
    t = p["t"]
    f_ec = p["f_ec"]
    try:
        if method == "general":
            return keyrate_general(q_z, q_x, eta, t, p["p_pass"], f_ec=f_ec).rate
        if method == "penalty_ratio":
            return mismatch_penalty_ratio(q_x, eta)
        return _method_rate(method, q_z, q_x, eta, t, f_ec).rate
    except (NoKeyError, FeasibilityError, ValueError):
        return None


def _channel_from_args(args, length_km: float) -> tuple[ChannelModel, DecoyConfig]:
    d = {k: _resolve(args, k.replace("_", "-"), v) for k, v in _BENCHMARK_DEFAULTS.items()}
    model = ChannelModel(
        alpha_db_per_km=d["alpha_db_km"],
        length_km=length_km,
        bob_loss_db=d["bob_loss_db"],
        e_det=d["e_det"],
        eta0=d["eta0"],
        eta1=d["eta1"],
        dark=(d["dark0"], d["dark1"]),
    )
    cfg = DecoyConfig(mu=d["mu"], nu1=d["nu1"], nu2=d["nu2"])
    return model, cfg


def cmd_sweep(args) -> int:
    variable = _resolve(args, "variable", None, str)
    if variable is None:
        raise UsageError("sweep requires --variable")
    start = _resolve(args, "start", None)
    stop = _resolve(args, "stop", None)
    steps = _resolve(args, "steps", None, int)
    methods_raw = _resolve(args, "methods", None, str)
    if start is None or stop is None or steps is None or methods_raw is None:
        raise UsageError("sweep requires --start, --stop, --steps and --methods")
    methods = tuple(m.strip() for m in methods_raw.split(",") if m.strip())

    eta, scale = _effective_eta(args)
    fixed = {
        "q_z": _resolve(args, "qz", 0.0),
        "q_x": _resolve(args, "qx", 0.0),
        "eta": eta,
        "t": _resolve(args, "t", 1.0),
        "f_ec": _resolve_f_ec(args),
    }
    p_pass = _resolve(args, "p-pass", None)
    _require_ranges(qz=fixed["q_z"], qx=fixed["q_x"], eta=eta, t=fixed["t"], p_pass=p_pass)
    if p_pass is not None:
        fixed["p_pass"] = p_pass
    spec = SweepSpec(
        variable=variable,
        start=start,
        stop=stop,
        steps=steps,
        fixed_params=fixed,
        methods=methods,
    )

    read = {k for m in methods for k in SWEEP_METHODS[m]} - set(_SWEPT[variable])
    lines = [
        f"# bb84-mismatch {__version__} sweep",
        f"# variable = {variable}; fixed: "
        + " ".join(f"{k}={_fmt(v)}" for k, v in sorted(fixed.items()) if k in read),
    ]
    header = [variable] + list(methods)
    lines.append(",".join(header))
    for x in spec.grid():
        row = [_fmt(float(x))]
        if variable == "distance_km":
            model, cfg = _channel_from_args(args, float(x))
            for method in methods:
                if method == "decoy":
                    obs = simulate_observations(model, cfg)
                    res = decoy_keyrate(obs, cfg, model.eta, f_ec=fixed["f_ec"])
                else:
                    res = theoretical_limit(model, cfg, f_ec=fixed["f_ec"])
                row.append(_fmt(res.rate))
        else:
            for method in methods:
                value = _sweep_value(method, float(x), spec)
                # A ratio of two rates cancels the common-loss factor.
                factor = 1.0 if method == "penalty_ratio" else scale
                row.append(_fmt(None if value is None else factor * value))
        lines.append(",".join(row))
    _emit(args, lines)
    return 0


def cmd_decoy_sim(args) -> int:
    l_min = _resolve(args, "l-min", 0.0)
    l_max = _resolve(args, "l-max", 120.0)
    l_steps = _resolve(args, "l-steps", 13, int)
    if l_steps < 2 or not l_min < l_max:
        raise ConfigError("decoy-sim requires l-min < l-max and l-steps >= 2")
    f_ec = _resolve_f_ec(args)
    model0, cfg0 = _channel_from_args(args, 0.0)
    lines = [
        f"# bb84-mismatch {__version__} decoy-sim",
        f"# mu={_fmt(cfg0.mu)} nu1={_fmt(cfg0.nu1)} nu2={_fmt(cfg0.nu2)} "
        f"alpha_db_km={_fmt(model0.alpha_db_per_km)} bob_loss_db={_fmt(model0.bob_loss_db)} "
        f"e_det={_fmt(model0.e_det)} eta0={_fmt(model0.eta0)} eta1={_fmt(model0.eta1)} "
        f"dark0={_fmt(model0.dark[0])} dark1={_fmt(model0.dark[1])} f_ec={_fmt(f_ec)}",
        "distance_km,decoy,theoretical_limit,no_mismatch_limit",
    ]
    for length in np.linspace(l_min, l_max, l_steps):
        model, cfg = _channel_from_args(args, float(length))
        obs = simulate_observations(model, cfg)
        res_decoy = decoy_keyrate(obs, cfg, model.eta, f_ec=f_ec)
        res_limit = theoretical_limit(model, cfg, f_ec=f_ec)
        avg = (model.eta0 + model.eta1) / 2.0
        matched = ChannelModel(
            alpha_db_per_km=model.alpha_db_per_km,
            length_km=model.length_km,
            bob_loss_db=model.bob_loss_db,
            e_det=model.e_det,
            eta0=avg,
            eta1=avg,
            dark=model.dark,
        )
        res_matched = theoretical_limit(matched, cfg, f_ec=f_ec)
        lines.append(
            ",".join(
                [
                    _fmt(float(length)),
                    _fmt(res_decoy.rate),
                    _fmt(res_limit.rate),
                    _fmt(res_matched.rate),
                ]
            )
        )
    _emit(args, lines)
    return 0


def _verify_checks(etas, qx_grid, deltas, perturb: float | None):
    """Run the certification suite; yields (name, max_discrepancy, passed)."""
    rng = np.random.default_rng(20240317)

    worst = 0.0
    for eta in etas:
        for qx in qx_grid:
            for d in deltas:
                if eta == 1.0 and d != 0.0:
                    continue
                if 2.0 * qx < 1.0 - np.sqrt(1.0 - d * d):
                    continue
                t = 1.0
                p_pass = t * ((1.0 + eta) / 2.0 + d * (1.0 - eta) / 2.0)
                values = (t * eta, t * eta * qx, p_pass)
                report = minimize(build_gamma_set(eta), values)
                analytic = ignorance_term(qx, eta, t, p_pass)
                worst = max(worst, abs(report.f_star - analytic))
                if report.f_star < analytic - 1e-6:
                    worst = np.inf
    yield ("analytic_vs_numeric", worst, worst < 1e-4)

    worst = 0.0
    for eta in etas:
        rho = optimal_attack_state(0.05, 0.08, 0.02, 1.0)
        for _ in range(5):
            raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            direction = (raw + raw.conj().T) / 2.0
            direction /= np.linalg.norm(direction)
            step = 1e-5
            fd = (
                objective(rho + step * direction, eta)
                - objective(rho - step * direction, eta)
            ) / (2.0 * step)
            an = float(np.real(np.trace(gradient(rho, eta) @ direction)))
            worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
    yield ("gradient_finite_difference", worst, worst < 1e-6)

    worst = 0.0
    detected = True
    for eta in etas:
        rho = optimal_attack_state(0.05, 0.08, 0.02, 1.0)
        worst = max(worst, kkt_orthogonality_check(rho, eta))
        if perturb is not None:
            shift = np.zeros((6, 6), dtype=complex)
            shift[0, 0], shift[2, 2] = perturb, -perturb
            detected = detected and kkt_orthogonality_check(rho + shift, eta) > 1e-4
    if perturb is not None:
        yield ("kkt_perturbation_detected", float(detected), detected)
    yield ("kkt_orthogonality", worst, worst < 1e-8)

    ok = True
    for eta in etas:
        for qx in qx_grid:
            ok = ok and eigenvalues_check(
                optimal_attack_state(0.05, qx, 0.0, 1.0), eta
            )
    yield ("eigenvalue_formula", 0.0 if ok else 1.0, ok)

    worst = 0.0
    for eta in etas:
        for qz in (0.0, 0.05, 0.11):
            leak = error_correction_leak(optimal_attack_state(qz, 0.05, 0.0, 1.0), eta)
            worst = max(worst, abs(leak - binary_entropy(qz)))
    yield ("error_correction_leak", worst, worst < 1e-12)


def cmd_verify(args) -> int:
    eta_flag = _resolve(args, "eta", None)
    etas = (0.5, 0.8, 1.0) if eta_flag is None else (eta_flag,)
    density = _resolve(args, "grid-density", 2, int)
    qx_grid = tuple(np.linspace(0.02, 0.11, max(density, 1)))
    perturb = _resolve(args, "perturb", None)
    lines = [f"# bb84-mismatch {__version__} verify"]
    failed = None
    for name, discrepancy, passed in _verify_checks(etas, qx_grid, (0.0, 0.05, -0.05), perturb):
        lines.append(f"{name}: max discrepancy {_fmt(discrepancy)} [{'pass' if passed else 'FAIL'}]")
        if not passed and failed is None:
            failed = name
    if failed is not None:
        lines.append(f"verification failed: {failed}")
    _emit(args, lines)
    return 0 if failed is None else 3


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config_path = getattr(args, "config", None)
        args._config = _load_config(config_path) if config_path else {}
        return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FeasibilityError, NoKeyError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
