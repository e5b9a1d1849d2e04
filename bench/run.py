"""The repository benchmark: seeded closed-loop workloads over the package's
public entry points, with end-to-end metrics and an outside-in per-layer trace.

    python3 bench/run.py --workload certify --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` prints every end-to-end metric declared in BENCHMARK.json;
``--trace 1`` prints every per-layer metric. ``--workload all`` runs each
workload in turn. Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. Each run also leaves a full record, with the environment and sample
counts, in ``.bench_out/``.

Every measurement runs in a fresh interpreter (``worker.py``) with the
checkout's ``src`` on the path and BLAS threads pinned to 1: one caller, one
process, closed loop. ``setup_s`` is the median, over the measuring worker
and ``SETUP_EACH_SIDE`` set-up-only workers before and as many after it, of
the time from process start to the first timed op.

Every time metric is corrected for the host's speed at the moment it was
taken (``hostspeed.py``); the wall-clock figures are printed next to them,
ungated, and kept in the run record.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
# Set-up-only workers spawned before and again after the measuring worker, so
# that the samples span the whole run rather than one slow or fast moment.
SETUP_EACH_SIDE = 3
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Printed and recorded with every untraced run, but not declared in
# BENCHMARK.json and so not gated: failed_frac is 0, which a gated metric
# must never be (ok_frac stands in), and the wall-clock figures drift with
# the host's speed (bench/NOTES.md).
UNGATED = {
    "failed_frac": "frac",
    "ops_per_s_wall": "1/s",
    "op_p50_ms_wall": "ms",
    "op_p90_ms_wall": "ms",
    "setup_s_wall": "s",
}
# Workers of one workload still running this long after its first spawn are
# killed, and the run fails: a run must end within 180 s.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def spawn(
    workload: str, seed: int, seconds: float, mode: str, deadline: float
) -> tuple[float, dict]:
    """Run one worker, killed at ``deadline`` (a ``time.monotonic()`` value):
    (seconds from spawn to ``ready``, its last line as JSON)."""
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--mode", mode,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"{mode} worker for {workload} failed (exit {code})")
    return ready, json.loads(rest.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        "seed": seed,
        "clients": 1,
        "loop": "closed",
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if traced:
        return spawn(workload, seed, seconds, "trace", deadline)[1]

    def setup_samples():
        return [spawn(workload, seed, seconds, "setup", deadline) for _ in range(SETUP_EACH_SIDE)]

    before = setup_samples()
    ready, result = spawn(workload, seed, seconds, "measure", deadline)
    runs = [*before, (ready, result), *setup_samples()]
    wall = [ready for ready, _ in runs]
    samples = [hostspeed.corrected(ready, r["setup_unit_s"]) for ready, r in runs]
    ok = result["attempted"] - result["failed"]
    result["metrics"] = {
        "ops_per_s": result["ops_per_s"],
        "op_p50_ms": result["op_p50_ms"],
        "op_p90_ms": result["op_p90_ms"],
        "ok_frac": ok / result["attempted"],
        "failed_frac": result["failed"] / result["attempted"],
        "agree_digits": result["agree_digits"],
        "setup_s": statistics.median(samples),
        "peak_rss_mb": result["peak_rss_mb"],
        "ops_per_s_wall": result["ops_per_s_wall"],
        "op_p50_ms_wall": result["op_p50_ms_wall"],
        "op_p90_ms_wall": result["op_p90_ms_wall"],
        "setup_s_wall": statistics.median(wall),
    }
    result["setup_samples_s"] = samples
    result["setup_samples_wall_s"] = wall
    return result


def report_lines(workload: str, result: dict, declared: list[dict], traced: bool) -> list[str]:
    lines = [f"== {workload} ({'traced' if traced else 'untraced'})"]
    m = result["metrics"]
    notes = {}
    if not traced:
        n = result["samples"]
        notes = {
            "ops_per_s": f"{result['attempted']} ops; host unit {result['unit_s_median'] * 1e3:.2f} ms "
            f"(median; reference {hostspeed.UNIT_REF_S * 1e3:g} ms)",
            "op_p50_ms": f"n={n}, {result['beyond_p50']} beyond",
            "op_p90_ms": f"n={n}, {result['beyond_p90']} beyond",
            "failed_frac": f"{result['failed']}/{result['attempted']}, not gated",
            **{name: "wall clock, not gated" for name in UNGATED if name.endswith("_wall")},
            "agree_digits": f"worst discrepancy {result['worst_discrepancy']:.3e}",
            "setup_s": f"median of {len(result['setup_samples_s'])}",
        }
        if "boundary_ops" in result:
            notes["ops_per_s"] += f", {result['boundary_ops']} on the qx = 0 boundary"
    else:
        notes["trace.overhead_frac"] = (
            f"{result['ops']} ops: {result['wall_plain_s']:.3f} s untraced, "
            f"{result['wall_traced_s']:.3f} s traced"
        )
    units = {d["name"]: d["unit"] for d in declared}
    if not traced:
        units.update(UNGATED)
    for name, unit in units.items():
        note = notes.get(name, "")
        lines.append(f"  {name:<58} {m[name]:>14.6g} {unit:<8} {note}".rstrip())
    return lines


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*names, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bb84_mismatch" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'bb84_mismatch'}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    declared = spec["per_layer" if traced else "end_to_end"]
    workloads = names if args.workload == "all" else [args.workload]
    env = environment(args.seed)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, traced)
            missing = [d["name"] for d in declared if d["name"] not in result["metrics"]]
            if missing:
                raise BenchError(f"{workload} did not report {missing}")
            result["env"] = {**env, **result["env"]}
            OUT_DIR.mkdir(exist_ok=True)
            record = OUT_DIR / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
            record.write_text(json.dumps(result, indent=1) + "\n")
            print("\n".join(report_lines(workload, result, declared, traced)))
            print("  env " + json.dumps(result["env"]))
            prefix = "" if len(workloads) == 1 else f"{workload}."
            summary["correct"] = summary["correct"] and result["failed"] == 0
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for d in declared:
                summary["metrics"][prefix + d["name"]] = {
                    "value": result["metrics"][d["name"]],
                    "unit": d["unit"],
                }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
