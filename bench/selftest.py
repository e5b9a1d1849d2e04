"""Self-test of the benchmark: its checks reject corrupted results, its input
generators are deterministic per seed, and its tracer attributes time to the
right spans, and its host-speed correction scales times as it should.

    python3 bench/selftest.py

Runs three real ops (a few seconds in all) and exits non-zero on any failure.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
import traceback
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def _rewrite_csv(text: str, edit) -> str:
    """Apply ``edit(header, rows)`` to the numeric rows of a CLI CSV."""
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    header = lines[first].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[first + 1 :]]
    edit(header, rows)
    body = [",".join(repr(x) for x in row) for row in rows]
    return "\n".join(lines[: first + 1] + body) + "\n"


def test_certify_check_rejects_shifted_f_star():
    point = wl.WARMUP["certify"]
    report, analytic = wl.certify_op(point)
    assert wl.check_certify(point, (report, analytic))[0]
    for shift in (1e-3, -1e-3):
        shifted = dataclasses.replace(report, f_star=report.f_star + shift)
        assert not wl.check_certify(point, (shifted, analytic))[0], shift
    below = dataclasses.replace(report, f_star=analytic - 2e-6)
    assert not wl.check_certify(point, (below, analytic))[0]


def test_decoy_check_rejects_rate_above_limit():
    argv = wl.WARMUP["decoy"]
    code, text = wl.cli_op(argv)
    assert wl.check_decoy(argv, (code, text))[0]

    def raise_decoy(header, rows):
        d, lim = header.index("decoy"), header.index("theoretical_limit")
        row = next(r for r in rows if np.isfinite(r[d]) and np.isfinite(r[lim]))
        row[d] = row[lim] + 1e-6

    assert not wl.check_decoy(argv, (code, _rewrite_csv(text, raise_decoy)))[0]
    assert not wl.check_decoy(argv, (code, _rewrite_csv(text, lambda h, rows: rows.pop())))[0]
    assert not wl.check_decoy(argv, (1, text))[0]


def test_decoy_check_rejects_wrong_limit():
    argv = wl.WARMUP["decoy"]
    code, text = wl.cli_op(argv)

    def scale_limit(header, rows):
        lim = header.index("theoretical_limit")
        rows[0][lim] *= 1.0 + 1e-6

    assert not wl.check_decoy(argv, (code, _rewrite_csv(text, scale_limit)))[0]


def test_decoy_check_rejects_wrong_decoy_rate():
    argv = wl.WARMUP["decoy"]
    code, text = wl.cli_op(argv)

    def lower_decoy(header, rows):
        d = header.index("decoy")
        row = next(r for r in rows if np.isfinite(r[d]))
        row[d] -= 1e-6 * abs(row[d])

    def nan_decoy(header, rows):
        for row in rows:
            row[header.index("decoy")] = float("nan")

    for edit in (lower_decoy, nan_decoy):
        assert not wl.check_decoy(argv, (code, _rewrite_csv(text, edit)))[0], edit.__name__


def test_sweep_check_rejects_discard_below_fung2():
    argv = wl.WARMUP["sweep"]
    code, text = wl.cli_op(argv)
    assert wl.check_sweep(argv, (code, text))[0]

    def lower_discard(header, rows):
        dopt, f2 = header.index("discard_optimized"), header.index("fung2")
        rows[10][dopt] = rows[10][f2] - 1e-6

    def nan_rate(header, rows):
        rows[3][header.index("fung1")] = float("nan")

    def wrong_balanced(header, rows):
        rows[20][header.index("balanced")] *= 1.0 + 1e-6

    for edit in (lower_discard, nan_rate, wrong_balanced):
        assert not wl.check_sweep(argv, (code, _rewrite_csv(text, edit)))[0], edit.__name__
    assert not wl.check_sweep(argv, (2, text))[0]


def test_generators_deterministic_per_seed():
    for workload in wl.WORKLOADS:
        first = wl.inputs(workload, 7, 40)
        assert first == wl.inputs(workload, 7, 40), workload
        assert first != wl.inputs(workload, 8, 40), workload
        assert wl.inputs(workload, 7, 100)[:40] == first, workload


def test_certify_inputs_follow_grid_proportions():
    for seed in range(5):
        points = wl.certify_inputs(seed, 10 * wl.CERTIFY_BLOCK)
        for start in range(0, len(points), wl.CERTIFY_BLOCK):
            block = points[start : start + wl.CERTIFY_BLOCK]
            assert [wl.is_boundary(p) for p in block] == [False] * 11 + [True]
            assert block[-1][0] in wl.CERTIFY_BOUNDARY_ETAS
            assert sum(p[0] == 1.0 for p in block) == 1
            assert sum(p[3] == 0.8 for p in block) == 1
        for eta, qx, delta, t in points:
            assert 0.3 <= eta <= 1.0 and t in (0.8, 1.0)
            if eta == 1.0:
                assert delta == 0.0
            if qx != 0.0:
                assert 0.02 <= qx <= 0.11 and -0.05 <= delta <= 0.05


def test_cli_inputs_in_range():
    for argv in wl.decoy_inputs(3, 64):
        assert 0.03 <= wl._flag(argv, "--eta1") <= 0.1
        assert 0.005 <= wl._flag(argv, "--e-det") <= 0.03
        assert 60.0 <= wl._flag(argv, "--l-max") <= 150.0
    for argv in wl.sweep_inputs(3, 64):
        assert 0.0 <= wl._flag(argv, "--qz") <= 0.11
        assert 0.0 <= wl._flag(argv, "--qx") <= 0.11


def test_tracer_nests_spans_across_namespaces():
    inner = types.ModuleType("toy_inner")
    outer = types.ModuleType("toy_outer")

    def leaf(x):
        time.sleep(0.002)
        return 2 * x

    def entry(x):
        time.sleep(0.004)
        return outer.leaf(x) + 1

    leaf.__module__, entry.__module__ = "toy_inner", "toy_outer"
    inner.leaf, outer.entry, outer.leaf = leaf, entry, leaf

    tracer = spans.Tracer({"inner": inner, "outer": outer}, [inner, outer])
    with tracer:
        assert outer.leaf is not leaf
        tracer.op = 0
        assert outer.entry(3) == 7
        tracer.op = 1
        assert inner.leaf(1) == 2
    assert outer.leaf is leaf and inner.leaf is leaf and outer.entry is entry

    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name"]]
    assert names == ["outer.entry", "inner.leaf", "inner.leaf"]
    assert a["parent"].tolist() == [-1, 0, -1]
    assert a["op"].tolist() == [0, 0, 1]
    dur = a["end"] - a["start"]
    assert abs(a["self"][0] - (dur[0] - dur[1])) < 1e-12
    assert a["self"][0] >= 0.004 and a["self"][1] >= 0.002


def test_host_speed_correction():
    ref = hostspeed.UNIT_REF_S
    assert hostspeed.corrected(0.3, ref) == 0.3
    assert abs(hostspeed.corrected(0.3, 2.0 * ref) - 0.15) < 1e-15
    t0 = time.perf_counter()
    unit_s = hostspeed.seconds_per_unit(0.02)
    elapsed = time.perf_counter() - t0
    assert elapsed >= 0.02 and unit_s > 0.0
    assert round(elapsed / unit_s) >= hostspeed.MIN_UNITS


def test_predictions_name_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(wl.WORKLOADS)
    predictions = json.loads((BENCH / "predictions.json").read_text())["predictions"]
    ids = [p["id"] for p in predictions]
    assert len(ids) == len(set(ids))
    for p in predictions:
        assert set(p["metrics"]) <= per_layer, p["id"]
        assert set(p["moves"]) <= end_to_end | set(run.UNGATED) | {"-"}, p["id"]
        assert set(p["on"]) | set(p["no_change_on"]) <= names, p["id"]


def main() -> int:
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_") and callable(f)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception:  # noqa: BLE001 - report every test, then fail
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
