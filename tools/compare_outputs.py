"""Compare the command-line outputs of two source trees, case by case.

Usage: python tools/compare_outputs.py PARENT_SRC CHILD_SRC

Each argument is a directory that holds the ``bb84_mismatch`` package, such
as a checkout's ``src/``. The tool prints each tree's line count, then every
case whose exit code, stdout or stderr differs between the trees, over:

- the benchmark's ``sweep`` and ``decoy`` inputs of seeds 1-10, 30 of each
  per seed, read from the repository's ``bench/workloads.py``;
- ``verify``, ``verify --perturb 0.01`` and ``verify --eta 0.999999999999``;
- 20 ``rate`` invocations on points of the q_x-edge corpus in
  ``tests/edge_corpus.py`` with 1 - eta >= 1e-3, so that a feasibility flip
  at the edge shows as a differing case;
- the golden invocations listed in ``tests/golden/cases.json``.

Each tree runs every case in-process, in one fresh interpreter that imports
only that tree's package; nothing is written. Needs numpy only. Exits 0
when no case differs and 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS, PER_SEED = range(1, 11), 30

sys.path.insert(0, str(ROOT / "tests"))
from edge_corpus import edge_corpus  # noqa: E402

# The golden cases of tests/test_cli.py: (file name, argument list) pairs.
GOLDEN = [argv for _, argv in json.loads((ROOT / "tests" / "golden" / "cases.json").read_text())]

# Run by each tree's interpreter: argv is (src, bench, cases as JSON); prints
# one JSON list of (exit code, stdout, stderr). A case that raises gets the
# exit code "traceback" and the traceback after its stderr.
_WORKER = """
import contextlib, io, json, sys, traceback
sys.path[:0] = sys.argv[1:3]
from bb84_mismatch import cli
results = []
for argv in json.loads(sys.argv[3]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "traceback"
            err.write(traceback.format_exc())
    results.append((code, out.getvalue(), err.getvalue()))
print(json.dumps(results))
"""

# Run by the parent tree's interpreter: the benchmark's inputs as JSON.
_INPUTS = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import workloads
seeds, count = range(*json.loads(sys.argv[3])), int(sys.argv[4])
print(json.dumps([argv for w in ("sweep", "decoy") for s in seeds for argv in workloads.inputs(w, s, count)]))
"""


def _edge_rates(count: int = 20, seed: int = 20261022) -> list[list[str]]:
    """``rate`` argument lists at the first ``count`` points of the q_x-edge
    corpus with 1 - eta >= 1e-3."""
    cases = []
    for eta, t, _, q_x, p_pass in edge_corpus(seed, 10 * count):
        if 1.0 - eta >= 1e-3:
            values = zip(("qz", "qx", "eta", "t", "p-pass"), (0.05, q_x, eta, t, p_pass))
            cases.append(["rate", *(arg for name, v in values for arg in (f"--{name}", repr(v)))])
            if len(cases) == count:
                break
    return cases


def _run(script: str, src: Path, *args: str):
    done = subprocess.run(
        [sys.executable, "-c", script, str(src), str(ROOT / "bench"), *args], capture_output=True, text=True
    )
    if done.returncode:
        sys.exit(f"{src}: the interpreter exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout)


def _lines(src: Path) -> int:
    return sum(len(path.read_text().splitlines()) for path in sorted(src.rglob("*.py")))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, child = (Path(a).resolve() for a in argv)
    cases = _run(_INPUTS, parent, json.dumps([SEEDS.start, SEEDS.stop]), str(PER_SEED))
    cases += [["verify"], ["verify", "--perturb", "0.01"], ["verify", "--eta", "0.999999999999"], *_edge_rates(), *GOLDEN]
    for name, src in (("parent", parent), ("child", child)):
        print(f"{name} src lines: {_lines(src)}")
    before, after = (_run(_WORKER, src, json.dumps(cases)) for src in (parent, child))
    differ = 0
    for case, old, new in zip(cases, before, after):
        parts = [part for part, x, y in zip(("exit code", "stdout", "stderr"), old, new) if x != y]
        if parts:
            differ += 1
            print(f"differs in {', '.join(parts)}: {' '.join(case)}")
    print(f"{differ} of {len(cases)} cases differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
