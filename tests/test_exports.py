"""The package's export list matches what ``__init__`` imports, so that a
deleted or renamed name cannot linger in ``__all__``."""

import ast
from pathlib import Path

import bb84_mismatch


def test_all_matches_the_public_imports_of_init():
    tree = ast.parse(Path(bb84_mismatch.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert len(bb84_mismatch.__all__) == len(set(bb84_mismatch.__all__))
    assert set(bb84_mismatch.__all__) == imported
    for name in bb84_mismatch.__all__:
        assert getattr(bb84_mismatch, name) is not None, name
