"""The benchmark's traced run looks up spans by name; every name it looks up
must be a public function of the package, or each traced run dies with a
KeyError. Reads ``bench/worker.py`` and never edits it."""

import inspect
import re
from pathlib import Path

import bb84_mismatch

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"


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
