"""The mutation probe's mutant list (tools/mutants.py); its test runs are not
exercised here."""

import ast
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
)
mutants_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants_tool)

SOURCE = '''\
def outer(a, b):
    """a < b in a docstring is no operator"""
    if a <= b and (b != 3 or a == 1):
        return 0 <= a < b
    check = lambda x: x > 2
    return check(a) or a >= b


def other(x):
    return x >= 0  # ≥ in a comment, to count columns in characters
'''


def test_each_boundary_and_connective_is_one_mutant():
    got = [(m["line"], m["old"], m["new"], m["function"])
           for m in mutants_tool.mutants(SOURCE)]
    assert got == [
        (3, "<=", "<", "outer"), (3, "and", "or", "outer"), (3, "!=", "==", "outer"),
        (3, "or", "and", "outer"), (3, "==", "!=", "outer"),
        (4, "<=", "<", "outer"), (4, "<", "<=", "outer"),
        (5, ">", ">=", "outer"),
        (6, "or", "and", "outer"), (6, ">=", ">", "outer"),
        (10, ">=", ">", "other"),
    ]


def test_a_function_filter_keeps_its_body_only():
    assert [m["line"] for m in mutants_tool.mutants(SOURCE, "other")] == [10]
    assert mutants_tool.mutants(SOURCE, "missing") == []


def test_each_mutant_edits_its_operator_in_place():
    for m in mutants_tool.mutants(SOURCE):
        mutated = mutants_tool.mutate(SOURCE, m)
        ast.parse(mutated)
        changed = [(old, new) for old, new in zip(SOURCE.splitlines(), mutated.splitlines())
                   if old != new]
        assert len(changed) == 1 and len(mutated.splitlines()) == len(SOURCE.splitlines())
        old, new = changed[0]
        col = m["col"]
        assert new == old[:col] + m["new"] + old[col + len(m["old"]):]
