"""Outside-in tracing of the package's public functions.

``Tracer`` wraps every public function of the given modules in every module
namespace that binds it, so calls between layers are seen (for example
``decoy.theoretical_limit`` calling ``decoy.simulate_observations``, or
``verifier`` calling ``linalg.psd_project``). Each call records one span:
name, start, end, parent span and op id. Spans stay in memory, in compact
arrays, until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from types import ModuleType

import numpy as np


class Tracer:
    """Records spans for the public functions of ``layers``.

    ``layers`` maps a layer name to its module; ``namespaces`` lists every
    module whose bindings are replaced (the layers plus, for instance, the
    package that re-exports them). Set ``op`` before each operation.
    """

    def __init__(self, layers: dict[str, ModuleType], namespaces: list[ModuleType]):
        self.op = -1
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._wrappers: dict[int, tuple[object, object]] = {}
        self._namespaces = namespaces
        self._installed: list[tuple[ModuleType, str, object]] = []
        for layer, module in layers.items():
            for attr, fn in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                ):
                    self._wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}"))

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack = self._stack
        push, pop = stack.append, stack.pop
        start, end = self.start, self.end
        add_name, add_parent, add_op = self.name.append, self.parent.append, self.op_id.append
        add_start, add_end = start.append, end.append

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            add_name(nid)
            add_parent(stack[-1])
            add_op(self.op)
            add_start(0.0)
            add_end(0.0)
            push(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                pop()
                start[idx] = t0
                end[idx] = t1

        return wrapper

    def __enter__(self):
        for module in self._namespaces:
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, entry[1])
        return self

    def __exit__(self, *exc):
        for module, attr, original in self._installed:
            setattr(module, attr, original)
        self._installed.clear()
        return False

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy arrays, plus each span's self time in seconds:
        its duration minus the durations of its direct children.

        The arrays share memory with the recorder, which can then no longer
        grow: call this once tracing has ended.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        return {
            "name": name,
            "parent": parent,
            "op": np.frombuffer(self.op_id, dtype=np.int32),
            "start": start,
            "end": end,
            "self": dur - covered,
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
