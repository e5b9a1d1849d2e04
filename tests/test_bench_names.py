"""The benchmark's traced run looks up spans by name; every name it looks up
must be a public function of the package, or each traced run dies with a
KeyError. It also reads fields off the oracle's reports, which must exist.
Reads ``bench/worker.py`` and ``bench/workloads.py`` and never edits them."""

import dataclasses
import inspect
import re
from pathlib import Path

import bb84_mismatch

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"
WORKLOADS = WORKER.parent / "workloads.py"


def test_traced_names_are_public_functions():
    source = WORKER.read_text()
    names = set(re.findall(r'(?:n_calls\(|nid\[)"([\w.]+)"', source))
    assert len(names) >= 5
    for name in sorted(names):
        layer, attr = name.split(".")
        module = getattr(bb84_mismatch, layer)
        fn = getattr(module, attr, None)
        assert not attr.startswith("_"), name
        assert inspect.isfunction(fn), name
        # The tracer wraps only functions defined in the layer's own module.
        assert fn.__module__ == module.__name__, name


def test_report_fields_read_by_the_benchmark_exist():
    # worker.py reads each certify op's report as ``r``, workloads.py as
    # ``report``; a renamed field would break every certify run.
    read = set(re.findall(r"\br\.(\w+)", WORKER.read_text()))
    read |= set(re.findall(r"\breport\.(\w+)", WORKLOADS.read_text()))
    assert {"iterations", "converged", "constraint_residuals", "f_star"} <= read
    fields = {f.name for f in dataclasses.fields(bb84_mismatch.MinimizationReport)}
    assert read <= fields, sorted(read - fields)
