"""Every hypothesis property is seeded: ``.hypothesis/`` is git-ignored, so an
unseeded property draws different examples on each run and the suite's
result can change between runs of the same code."""

import ast
from pathlib import Path


def _name(node) -> str:
    """The called or named function of a decorator: ``given`` for
    ``@given(...)``, ``@hypothesis.given(...)`` or ``@given``."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_every_property_is_seeded():
    properties, unseeded = 0, []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = {_name(d) for d in node.decorator_list}
            if "given" in names:
                properties += 1
                if "seed" not in names:
                    unseeded.append(f"{path.name}::{node.name}")
    assert properties > 0
    assert not unseeded, f"properties without @seed: {unseeded}"
