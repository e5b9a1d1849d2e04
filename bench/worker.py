"""One workload in one fresh interpreter.

Started by ``run.py`` with the package's ``src`` directory on ``PYTHONPATH``
and BLAS threads pinned to 1. After set-up (imports, input generation and one
warm-up op on a fixed input) it prints ``ready``; then, by ``--mode``:

- ``setup``: measures the host's speed (``hostspeed``), prints it as one JSON
  line and exits;
- ``measure``: does the same, then runs ops in a closed loop for
  ``--seconds`` seconds, untraced, with a slice of the host-speed reference
  after each op; then checks every output and prints one JSON line of
  end-to-end figures;
- ``trace``: runs a fixed number of ops untraced and then traced, checks them,
  writes the spans and prints one JSON line of per-layer figures.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# Inputs generated for a measured run, repeated in order if a run uses more.
MEASURE_INPUTS = 4096
# Ops of a traced run: fixed, so that span counts repeat exactly. Certify takes
# two full blocks of twelve, so the boundary share is exact.
TRACE_OPS = {"certify": 24, "decoy": 4, "sweep": 10}
AGREE_CAP = 16.0
LAYERS = ("linalg", "protocol", "keyrates", "verifier", "decoy", "cli")
# The host-speed reference after each measured op runs for this share of the
# op's wall time; after set-up, for this many seconds.
CAL_SHARE = 0.25
SETUP_CAL_S = 0.3


def run_ops(op, items, seconds: float | None = None, calibrate: bool = False):
    """Closed loop over ``items``: (latencies in s, outputs, wall time in s,
    seconds per host-speed unit measured right after each op).

    With ``seconds``, no op starts once that much time has passed. An op that
    raises yields its exception as output, which the check counts as failed.
    Without ``calibrate`` the last list is empty.
    """
    clock = time.perf_counter
    latencies, outputs, unit_s = [], [], []
    t_start = clock()
    for item in items:
        if seconds is not None and clock() - t_start >= seconds:
            break
        t0 = clock()
        try:
            out = op(item)
        except Exception as exc:  # noqa: BLE001 - the loop must keep running
            traceback.print_exc(file=sys.stderr)
            out = exc
        latencies.append(clock() - t0)
        outputs.append(out)
        if calibrate:
            unit_s.append(hostspeed.seconds_per_unit(CAL_SHARE * latencies[-1]))
    return latencies, outputs, clock() - t_start, unit_s


def verdicts(check, items, outputs) -> tuple[int, float]:
    """(failed ops, worst discrepancy with the reference)."""
    failed, worst = 0, 0.0
    for item, out in zip(items, outputs):
        if isinstance(out, Exception):
            failed, worst = failed + 1, math.inf
            continue
        ok, diff = check(item, out)
        failed += not ok
        worst = max(worst, diff)
    return failed, worst


def agree_digits(worst: float) -> float:
    if worst <= 0.0:
        return AGREE_CAP
    return min(AGREE_CAP, -math.log10(worst)) if math.isfinite(worst) else 0.0


def percentile_summary(latencies: list[float]) -> dict:
    import numpy as np

    lat = np.asarray(latencies)
    p50, p90 = (float(x) for x in np.percentile(lat, [50, 90]))
    return {
        "op_p50_ms": p50 * 1e3,
        "op_p90_ms": p90 * 1e3,
        "samples": int(lat.size),
        "beyond_p50": int(np.sum(lat > p50)),
        "beyond_p90": int(np.sum(lat > p90)),
    }


def measure(workload, op, check, items, seconds: float, setup_unit_s: float) -> dict:
    """End-to-end figures of a timed run that starts right after the host-speed
    measurement ``setup_unit_s``."""
    import workloads

    wall_lat, outputs, wall, unit_s = run_ops(op, itertools.cycle(items), seconds, calibrate=True)
    # The host's speed during an op: the mean of the reference slices just
    # before and just after it.
    bracket = [setup_unit_s, *unit_s]
    op_unit_s = [(a + b) / 2.0 for a, b in zip(bracket, unit_s)]
    latencies = list(map(hostspeed.corrected, wall_lat, op_unit_s))
    # Taken before the checks, whose reference computations are the
    # benchmark's own memory, not the program's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    done = list(itertools.islice(itertools.cycle(items), len(outputs)))
    failed, worst = verdicts(check, done, outputs)
    out = {
        "attempted": len(outputs),
        "failed": failed,
        "wall_s": wall,
        "ops_per_s": 1.0 / workloads.mix_mean(workload, done, latencies),
        "ops_per_s_wall": 1.0 / workloads.mix_mean(workload, done, wall_lat),
        "unit_s_median": statistics.median(unit_s),
        "agree_digits": agree_digits(worst),
        "worst_discrepancy": worst,
        "peak_rss_mb": peak_rss_mb,
        **percentile_summary(latencies),
    }
    wall_pct = percentile_summary(wall_lat)
    out["op_p50_ms_wall"] = wall_pct["op_p50_ms"]
    out["op_p90_ms_wall"] = wall_pct["op_p90_ms"]
    out["op_wall_ms"] = [x * 1e3 for x in wall_lat]
    out["op_unit_ms"] = [x * 1e3 for x in op_unit_s]
    if workload == "certify":
        out["boundary_ops"] = sum(map(workloads.is_boundary, done))
    return out


def trace(workload, op, check, items) -> dict:
    import numpy as np

    import bb84_mismatch
    import spans
    import workloads

    modules = {layer: getattr(bb84_mismatch, layer) for layer in LAYERS}
    tracer = spans.Tracer(modules, [bb84_mismatch, *modules.values()])
    _, plain, wall_plain, _ = run_ops(op, items)

    def traced_op(item):
        tracer.op += 1
        return op(item)

    with tracer:
        _, outputs, wall_traced, _ = run_ops(traced_op, items)
    failed = verdicts(check, items, plain)[0] + verdicts(check, items, outputs)[0]

    a = tracer.arrays()
    names = tracer.names
    k = len(items)
    n_names = len(names)
    calls = np.bincount(a["name"], minlength=n_names)
    self_s = np.bincount(a["name"], weights=a["self"], minlength=n_names)
    dur = a["end"] - a["start"]
    total_s = np.bincount(a["name"], weights=dur, minlength=n_names)
    nid = {n: i for i, n in enumerate(names)}

    def n_calls(name):
        return float(calls[nid[name]])

    # Every wrapped function's figures; run.py reports those BENCHMARK.json
    # declares, and the run record keeps them all.
    m = {}
    for i, name in enumerate(names):
        m[f"{name}.calls"] = float(calls[i]) / k
        m[f"{name}.self_ms"] = float(self_s[i]) * 1e3 / k
    for layer in LAYERS:
        layer_ids = [i for i, n in enumerate(names) if n.startswith(layer + ".")]
        m[f"{layer}.self_ms"] = float(self_s[layer_ids].sum()) * 1e3 / k
    # The cli layer's work (parsing, channel set-up, formatting) sits in main
    # and the cmd_* handlers it dispatches to, so main stands for the layer.
    m["cli.main.self_ms"] = m["cli.self_ms"]

    reports = [out[0] for out in outputs] if workload == "certify" else []
    iterations = sum(r.iterations for r in reports)
    m["verifier.minimize.iterations"] = iterations / len(reports) if reports else 0.0
    m["verifier.minimize.projections_per_iteration"] = (
        n_calls("linalg.psd_project") / iterations if iterations else 0.0
    )
    m["verifier.minimize.converged_frac"] = (
        sum(r.converged for r in reports) / len(reports) if reports else 0.0
    )
    m["verifier.minimize.max_residual"] = max(
        (float(np.max(r.constraint_residuals)) for r in reports), default=0.0
    )

    # Cross-checks against the baselines quoted in the roadmap.
    discard = nid["keyrates.keyrate_discard_optimized"]
    inner = np.sum(
        (a["name"] == nid["keyrates.keyrate_general"])
        & (a["parent"] >= 0)
        & (a["name"][np.maximum(a["parent"], 0)] == discard)
    )
    m["keyrates.keyrate_discard_optimized.inner_evals_per_call"] = (
        float(inner) / calls[discard] if calls[discard] else 0.0
    )
    m["decoy.simulate_observations.calls_per_distance"] = (
        n_calls("decoy.simulate_observations") / (k * workloads.DECOY_STEPS)
        if workload == "decoy"
        else 0.0
    )
    dk = nid["decoy.decoy_keyrate"]
    m["decoy.decoy_keyrate.ms_per_call"] = (
        float(total_s[dk]) * 1e3 / calls[dk] if calls[dk] else 0.0
    )
    mz = nid["verifier.minimize"]
    m["verifier.minimize.psd_time_frac"] = (
        float(total_s[nid["linalg.psd_project"]] / total_s[mz]) if total_s[mz] else 0.0
    )
    m["trace.spans_per_op"] = float(a["name"].size) / k
    m["trace.overhead_frac"] = wall_traced / wall_plain - 1.0

    OUT_DIR.mkdir(exist_ok=True)
    # One file per workload, replaced by each traced run.
    tracer.save(OUT_DIR / f"spans-{workload}.npz")
    return {
        "attempted": 2 * k,
        "failed": failed,
        "ops": k,
        "wall_plain_s": wall_plain,
        "wall_traced_s": wall_traced,
        "spans": int(a["name"].size),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "metrics": {name: float(v) for name, v in m.items()},
    }


def environment() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args(argv)

    import bb84_mismatch

    if ROOT / "src" not in Path(bb84_mismatch.__file__).resolve().parents:
        print(f"error: bb84_mismatch imported from {bb84_mismatch.__file__}, not src/", file=sys.stderr)
        return 2
    import workloads

    count = TRACE_OPS[args.workload] if args.mode == "trace" else MEASURE_INPUTS
    items = workloads.inputs(args.workload, args.seed, count)
    op = workloads.OPS[args.workload]
    check = workloads.CHECKS[args.workload]
    op(workloads.WARMUP[args.workload])
    print("ready", flush=True)
    if args.mode == "trace":
        result = trace(args.workload, op, check, items)
    else:
        hostspeed.unit()  # first call: numpy's lazy set-up, not the host
        setup_unit_s = hostspeed.seconds_per_unit(SETUP_CAL_S)
        if args.mode == "setup":
            print(json.dumps({"setup_unit_s": setup_unit_s}), flush=True)
            return 0
        result = measure(args.workload, op, check, items, args.seconds, setup_unit_s)
        result["setup_unit_s"] = setup_unit_s
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
