"""The package's public surface. Its names are read from `fourierstab` itself, for
example by tests/test_tracer_contract.py (BinaryMlp, LinearThresholdNeuron)."""

import ast
import importlib
from pathlib import Path

import fourierstab


def test_all_is_exactly_what_init_imports_and_each_name_resolves():
    tree = ast.parse(Path(fourierstab.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert len(set(fourierstab.__all__)) == len(fourierstab.__all__)
    assert sorted(fourierstab.__all__) == sorted(name for _, name in imported)
    for module, name in imported:
        assert getattr(fourierstab, name) is getattr(importlib.import_module(f"fourierstab.{module}"), name)
