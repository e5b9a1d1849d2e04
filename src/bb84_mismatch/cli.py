"""Command-line front end: rate queries, parameter sweeps, decoy simulation,
and numerical verification runs.

Each subcommand takes only the flags it reads, spelt in full; any other flag
is a usage error. ``--config FILE`` holds ``key = value`` lines whose keys are
flag names without the leading dashes. Each line is parsed as the flag
``--key=value`` placed before the given flags: it gets the flag's type, choices
and range checks, a key the subcommand does not take is an error, and a given
flag wins over the file. Range endpoints (``--start``, ``--stop``, ``--l-min``,
``--l-max``) must be finite; a swept eta lies in (0, 1] and a swept q in [0, 1].

Output is plain CSV with '#'-prefixed metadata lines, 12 significant digits,
byte-deterministic for a fixed invocation. Exit codes: 0 success, 1 usage or
configuration error, 2 infeasible inputs, 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .decoy import ChannelModel, DecoyConfig, _channel_rates
from .errors import ConfigError, FeasibilityError, NoKeyError, _require_in
from .keyrates import _common_loss, _rates, _require_f_ec, feasible, keyrate_balanced, keyrate_general
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

# Every flag's argparse keywords; each subcommand registers the flags it reads.
_FLAGS = {
    "eta": dict(type=float, help="normalized mismatch in (0, 1]"),
    "eta0": dict(type=float, help="efficiency of detector 0"),
    "eta1": dict(type=float, help="efficiency of detector 1"),
    "qz": dict(type=float, help="key-basis QBER"),
    "qx": dict(type=float, help="x-basis error statistic"),
    "t": dict(type=float, default=1.0, help="channel transparency (default 1)"),
    "p-pass": dict(type=float, help="sifting pass probability"),
    "f-ec": dict(type=float, default=1.0, help="error-correction inefficiency, finite and >= 0 (default 1)"),
    "out": dict(type=str, default="stdout", help="output path or 'stdout' (default)"),
    "config": dict(type=str, help="key = value config file; flags win on conflict"),
    "variable": dict(choices=tuple(_SWEPT)),
    "start": dict(type=float),
    "stop": dict(type=float),
    "steps": dict(type=int),
    "methods": dict(type=str, help="comma-separated method list"),
    "mu": dict(type=float, help="signal intensity"),
    "nu1": dict(type=float, help="first decoy intensity"),
    "nu2": dict(type=float, help="second decoy intensity"),
    "alpha-db-km": dict(type=float, help="fiber attenuation, dB/km"),
    "bob-loss-db": dict(type=float, help="receiver optics loss, dB"),
    "e-det": dict(type=float, help="optical error probability"),
    "dark0": dict(type=float, help="dark count probability, detector 0"),
    "dark1": dict(type=float, help="dark count probability, detector 1"),
    "l-min": dict(type=float, default=0.0, help="shortest distance, km"),
    "l-max": dict(type=float, default=120.0, help="longest distance, km"),
    "l-steps": dict(type=int, default=13, help="number of distances"),
    "grid-density": dict(type=int, default=2, help="x-error grid points, 1 to 1000 (default 2)"),
    "perturb": dict(type=float, help="adversarial perturbation size, finite, |perturb| <= 1"),
}
# The flags each subcommand reads, in --help order.
_RATE_FLAGS = ("eta", "eta0", "eta1", "qz", "qx", "t", "p-pass", "f-ec", "out", "config")
_CHANNEL_FLAGS = ("mu", "nu1", "nu2", "alpha-db-km", "bob-loss-db", "e-det", "dark0", "dark1")
_COMMAND_FLAGS = {
    "rate": _RATE_FLAGS,
    "sweep": _RATE_FLAGS + ("variable", "start", "stop", "steps", "methods") + _CHANNEL_FLAGS,
    "decoy-sim": ("eta0", "eta1", "f-ec", "out", "config") + _CHANNEL_FLAGS + ("l-min", "l-max", "l-steps"),
    "verify": ("eta", "grid-density", "perturb", "out", "config"),
}

_HALF_MAX = sys.float_info.max / 2.0
# The most grid points a sweep or decoy-sim takes, checked before anything is
# allocated: numpy would otherwise fail with a traceback on a huge count.
# decoy-sim --l-steps 100000 peaks at about 350 MB and takes about 0.8 s on a
# 2-core Xeon.
_MAX_STEPS = 100_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems via exception, not exit(2)."""

    def error(self, message):
        raise UsageError(message)


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and not math.isfinite(x)):
        return "nan"
    return f"{x:.12g}"


def _load_config(path: str) -> list[str]:
    """``key = value`` lines as the flag tokens ``--key=value``."""
    out: list[str] = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                out.append(f"--{key.strip()}={value.strip()}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


def _require_ranges(closed=("qz", "qx"), **named):
    """Flag-level range validation; failures are usage errors, not physics.
    Flags named in ``closed`` lie in [0, 1], the others in (0, 1]; None is skipped."""
    for name, value in named.items():
        if value is not None:
            flag = "--" + name.replace("_", "-")
            _require_in(flag, value, 0.0, 1.0, open_lo=name not in closed, error=UsageError)


def _require_endpoints(**named):
    """Range endpoints must be finite, and within half the largest float so
    that np.linspace's span is finite too."""
    for name, value in named.items():
        _require_in("--" + name.replace("_", "-"), value, -_HALF_MAX, _HALF_MAX, error=UsageError)


def build_parser() -> _Parser:
    parser = _Parser(prog="bb84-mismatch", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_ in (
        ("rate", cmd_rate, "single-point key rate"),
        ("sweep", cmd_sweep, "parameter sweep to CSV"),
        ("decoy-sim", cmd_decoy_sim, "decoy-state rate vs distance"),
        ("verify", cmd_verify, "analytic-vs-numeric certification"),
    ):
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        for flag in _COMMAND_FLAGS[name]:
            p.add_argument("--" + flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    # A sweep's fixed error rates default to 0; rate requires them.
    sub.choices["sweep"].set_defaults(qz=0.0, qx=0.0)
    return parser


# The process's one parser: main parses every call with it, as parsing leaves it unchanged.
_parser = functools.cache(build_parser)


def _emit(args, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if args.out == "stdout":
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {args.out}: {exc}") from exc


def _effective_eta(args) -> tuple[float, float]:
    """(eta, scale): normalized mismatch plus the common-loss prefactor."""
    if args.eta0 is not None and args.eta1 is not None:
        if args.eta is not None:
            raise UsageError("give either --eta or the pair --eta0/--eta1, not both")
        _require_ranges(eta0=args.eta0, eta1=args.eta1)
        return _common_loss(args.eta0, args.eta1)
    if (args.eta0 is None) != (args.eta1 is None):
        raise UsageError("--eta0 and --eta1 must be given together")
    return (1.0 if args.eta is None else args.eta), 1.0


def cmd_rate(args) -> int:
    eta, scale = _effective_eta(args)
    q_z, q_x, t, p_pass, f_ec = args.qz, args.qx, args.t, args.p_pass, args.f_ec
    if q_z is None or q_x is None:
        raise UsageError("rate requires --qz and --qx")
    # Checked up front: the rate functions would report a bad f_ec as infeasible inputs.
    _require_f_ec(f_ec)
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


def _sweep_rates(methods, variable: str, grid: np.ndarray, p: dict, scale: float) -> np.ndarray:
    """An eta or q sweep's rate columns, one array pass per method at the fixed
    parameters ``p``, range-checked by the caller; nan where the public rate
    raises or has none. The common loss ``scale`` cancels in ``penalty_ratio``.
    """
    point = (p["q_z"], p["q_x"], grid) if variable == "eta" else (grid, grid, p["eta"])
    return np.column_stack([
        (1.0 if m == "penalty_ratio" else scale)
        * _rates(m, *point, p["t"], p["f_ec"], p.get("p_pass") if m == "general" else None)[0]
        for m in methods
    ])


def _decoy_flags(args) -> dict:
    """The channel and intensity flags of a decoy run, defaults filled in."""
    return {k: v if getattr(args, k) is None else getattr(args, k) for k, v in _BENCHMARK_DEFAULTS.items()}


def _distance_rates(d: dict, lengths, f_ec: float, columns) -> np.ndarray:
    """Each distance's row of rates (nan where infeasible), one per name in
    ``columns``: ``decoy``, ``theoretical_limit`` or ``no_mismatch_limit`` (the
    limit with both detectors at the mean efficiency; only with
    ``theoretical_limit``), on the channels of the flags ``d``: one array pass.

    The estimator needs outcome 1 to be the less efficient detector's, so a
    pair with eta0 < eta1 is relabelled: swapping the outcomes' efficiencies
    and dark counts together is a symmetry of BB84.
    """
    # Checked before relabelling, so that an error names the flag as given.
    _require_ranges(eta0=d["eta0"], eta1=d["eta1"])
    eta, dark = (d["eta0"], d["eta1"]), (d["dark0"], d["dark1"])
    if eta[0] < eta[1]:
        eta, dark = eta[::-1], dark[::-1]
    # The shortest distance's model checks the flags for every distance.
    models = [ChannelModel(d["alpha_db_km"], float(lengths[0]), d["bob_loss_db"], d["e_det"], *eta, dark)]
    if "no_mismatch_limit" in columns:
        avg = (eta[0] + eta[1]) / 2.0
        models.append(replace(models[0], eta0=avg, eta1=avg))
    cfg = DecoyConfig(mu=d["mu"], nu1=d["nu1"], nu2=d["nu2"])
    rates = _channel_rates(models, cfg, lengths, f_ec, "decoy" in columns, "theoretical_limit" in columns)
    names = [c for c in ("decoy", "theoretical_limit", "no_mismatch_limit") if c in columns]
    return rates[[names.index(c) for c in columns]].T


def _rows(xs, rates) -> list[str]:
    """CSV rows of ``xs`` and its rates, one ``%`` call each, as ``_fmt`` formats them."""
    table = np.column_stack([xs, np.asarray(rates, dtype=float)])
    table[~np.isfinite(table)] = np.nan
    row = ",".join(["%.12g"] * table.shape[1])
    return [row % values for values in map(tuple, table.tolist())]


def cmd_sweep(args) -> int:
    variable = args.variable
    if variable is None:
        raise UsageError("sweep requires --variable")
    if None in (args.start, args.stop, args.steps, args.methods):
        raise UsageError("sweep requires --start, --stop, --steps and --methods")
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())

    eta, scale = _effective_eta(args)
    fixed = {"q_z": args.qz, "q_x": args.qx, "eta": eta, "t": args.t, "f_ec": args.f_ec}
    # Checked once, up front: the array rates take every fixed value as checked.
    _require_f_ec(args.f_ec)
    _require_ranges(qz=args.qz, qx=args.qx, eta=eta, t=args.t, p_pass=args.p_pass)
    if args.p_pass is not None:
        fixed["p_pass"] = args.p_pass
    _require_endpoints(start=args.start, stop=args.stop)
    if variable != "distance_km":
        _require_ranges(closed=("start", "stop") if variable == "q" else (), start=args.start, stop=args.stop)
    if not args.start < args.stop:
        raise ConfigError("sweep requires start < stop")
    _require_in("--steps", args.steps, 2, _MAX_STEPS, error=UsageError)
    if not methods:
        raise ConfigError("sweep requires at least one method")
    bad = [m for m in methods if m not in SWEEP_METHODS]
    if bad:
        raise ConfigError(f"unknown methods: {', '.join(bad)}")
    distance_only = {"decoy", "theoretical_limit"}
    if variable == "distance_km":
        extra = set(methods) - distance_only
        if extra:
            raise ConfigError(f"methods {sorted(extra)} not valid for a distance sweep")
    else:
        extra = set(methods) & distance_only
        if extra:
            raise ConfigError(f"methods {sorted(extra)} require --variable distance_km")
        if "general" in methods and args.p_pass is None:
            raise ConfigError("method 'general' requires --p-pass")

    grid = np.linspace(args.start, args.stop, args.steps)
    if variable == "distance_km":
        rates = _distance_rates(_decoy_flags(args), grid, args.f_ec, methods)
    else:
        rates = _sweep_rates(methods, variable, grid, fixed, scale)
    read = {k for m in methods for k in SWEEP_METHODS[m]} - set(_SWEPT[variable])
    lines = [
        f"# bb84-mismatch {__version__} sweep",
        f"# variable = {variable}; fixed: "
        + " ".join(f"{k}={_fmt(v)}" for k, v in sorted(fixed.items()) if k in read),
        ",".join((variable,) + methods),
    ]
    _emit(args, lines + _rows(grid, rates))
    return 0


def cmd_decoy_sim(args) -> int:
    _require_endpoints(l_min=args.l_min, l_max=args.l_max)
    _require_in("--l-steps", args.l_steps, 2, _MAX_STEPS, error=UsageError)
    if not args.l_min < args.l_max:
        raise ConfigError("decoy-sim requires l-min < l-max")
    f_ec = args.f_ec
    _require_f_ec(f_ec)
    d = _decoy_flags(args)
    lengths = np.linspace(args.l_min, args.l_max, args.l_steps)
    columns = ("decoy", "theoretical_limit", "no_mismatch_limit")
    rates = _distance_rates(d, lengths, f_ec, columns)
    # The header repeats the flags as given, before any relabelling.
    lines = [
        f"# bb84-mismatch {__version__} decoy-sim",
        f"# mu={_fmt(d['mu'])} nu1={_fmt(d['nu1'])} nu2={_fmt(d['nu2'])} "
        f"alpha_db_km={_fmt(d['alpha_db_km'])} bob_loss_db={_fmt(d['bob_loss_db'])} "
        f"e_det={_fmt(d['e_det'])} eta0={_fmt(d['eta0'])} eta1={_fmt(d['eta1'])} "
        f"dark0={_fmt(d['dark0'])} dark1={_fmt(d['dark1'])} f_ec={_fmt(f_ec)}",
        ",".join(("distance_km",) + columns),
    ]
    _emit(args, lines + _rows(lengths, rates))
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
                if not feasible(qx, d):
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
        # At eta = 1 the pass rate equals t, so delta = 0 is the only consistent value.
        rho = optimal_attack_state(0.05, 0.08, 0.0 if eta == 1.0 else 0.02, 1.0)
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
    if args.perturb is not None:
        # Checked before any check runs; a non-finite or huge shift breaks the state.
        _require_in("--perturb", args.perturb, -1.0, 1.0, error=UsageError)
    if not 1 <= args.grid_density <= 1000:
        raise UsageError(f"--grid-density = {args.grid_density} outside [1, 1000]")
    etas = (0.5, 0.8, 1.0) if args.eta is None else (args.eta,)
    qx_grid = tuple(np.linspace(0.02, 0.11, args.grid_density))
    lines = [f"# bb84-mismatch {__version__} verify"]
    failed = None
    for name, discrepancy, passed in _verify_checks(etas, qx_grid, (0.0, 0.05, -0.05), args.perturb):
        shown = "inf" if discrepancy == math.inf else _fmt(discrepancy)  # f* below the closed form
        lines.append(f"{name}: max discrepancy {shown} [{'pass' if passed else 'FAIL'}]")
        if not passed and failed is None:
            failed = name
    if failed is not None:
        lines.append(f"verification failed: {failed}")
    _emit(args, lines)
    return 0 if failed is None else 3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # Config entries parse as flags placed before the given ones, so flags win.
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _load_config(args.config) + argv[at:])
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
