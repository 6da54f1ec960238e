"""The mutation register in tools/mutants.py still applies to the tree."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_register():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_applies_and_names_existing_tests():
    mutants = load_register()
    assert len({m.name for m in mutants}) == len(mutants)
    defined = {}
    for m in mutants:
        count = (ROOT / m.path).read_text().count(m.old)
        assert count == 1, f"{m.name!r}: its text occurs {count} times in {m.path}"
        assert m.tests, f"{m.name!r} names no test"
        for test in m.tests:
            path, name = test.split("::")
            if path not in defined:
                tree = ast.parse((ROOT / path).read_text())
                defined[path] = {node.name for node in tree.body
                                 if isinstance(node, ast.FunctionDef)}
            assert name in defined[path], f"{m.name!r}: no test {test}"
