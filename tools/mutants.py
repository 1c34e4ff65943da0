"""Mutation probe: flip one comparison boundary or swap one ``and``/``or`` in
a module, run its tests, and report the mutants that the tests let through.

    python3 tools/mutants.py src/sumcollapse/battery.py \\
        tests/test_battery.py tests/test_sieve.py \\
        --function sieve_checks --out survivors.json
    python3 tools/mutants.py src/sumcollapse/cli.py tests/test_cli.py \\
        --function _ring_block_writer --pytest-args="-k ring"

Run it from the repository root.  The operators are ``<`` and ``<=``, ``>``
and ``>=``, ``==`` and ``!=`` (each turned into its partner), and ``and`` and
``or`` (each operator of a chain turned into the other).  Each mutant edits
one operator token in place, so the other lines keep their numbers.  With
``--function NAME`` only the operators inside the function ``NAME`` count
(nested functions and lambdas in it too, or a method ``Class.NAME``).

The tests run on a copy of ``src/`` and ``tests/`` in a scratch directory
(``--workdir``, the system's temporary directory by default), one pytest
process per mutant, stopped at the first failure, with the source
compiled afresh (``PYTHONDONTWRITEBYTECODE=1`` and no ``__pycache__``).  The
unmutated module must pass them first.  A mutant is killed when pytest
fails, or runs past ``TIMEOUT_FACTOR`` times the unmutated run (at least a
minute); it survives when the tests pass.  The survivors go to ``--out`` as
JSON (standard output by default), with their line, column, function and
operator, and the counts go to standard error.

The standard library is all it uses.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

FLIPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
    ast.And: ("and", "or"), ast.Or: ("or", "and"),
}
TIMEOUT_FACTOR = 5.0  # a mutant's tests are stopped past this many unmutated runs


def _functions(tree: ast.AST):
    """Each node of ``tree`` with the dotted names of the functions and
    classes around it, innermost last."""
    stack = [(tree, ())]
    while stack:
        node, names = stack.pop()
        yield node, names
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = names + (node.name,)
        stack.extend((child, names) for child in ast.iter_child_nodes(node))


def _operator_spans(node: ast.AST):
    """For a comparison or a boolean chain: each flippable operator as
    ``(old, new, start, end)``, with start and end the (line, byte column)
    of the operands around it."""
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        ops = node.ops
    elif isinstance(node, ast.BoolOp):
        operands = node.values
        ops = [node.op] * (len(operands) - 1)
    else:
        return
    for op, a, b in zip(ops, operands, operands[1:]):
        if type(op) in FLIPS:
            old, new = FLIPS[type(op)]
            yield old, new, (a.end_lineno, a.end_col_offset), (b.lineno, b.col_offset)


def mutants(source: str, function: str | None = None) -> list[dict]:
    """Every mutant of ``source``, in source order: ``line`` and ``col`` (1-
    and 0-based, in characters) of the operator token, the ``function`` it
    sits in, the ``old`` and ``new`` operator, and the ``code`` line."""
    lines = source.splitlines(keepends=True)

    def chars(line: int, byte_col: int) -> int:  # ast columns count UTF-8 bytes
        return len(lines[line - 1].encode()[:byte_col].decode())

    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type in (tokenize.OP, tokenize.NAME)]
    found = []
    for node, names in _functions(ast.parse(source)):
        if function is not None and function not in names:
            continue
        for old, new, (l0, c0), (l1, c1) in _operator_spans(node):
            start, end = (l0, chars(l0, c0)), (l1, chars(l1, c1))
            token = next((t for t in tokens
                          if start <= t.start and t.end <= end and t.string == old), None)
            if token is None:  # inside an f-string, which tokenizes as one string
                continue
            line, col = token.start
            found.append({
                "line": line, "col": col, "function": ".".join(names), "old": old, "new": new,
                "code": lines[line - 1].strip(),
            })
    return sorted(found, key=lambda m: (m["line"], m["col"]))


def mutate(source: str, mutant: dict) -> str:
    """``source`` with the one operator of ``mutant`` replaced."""
    lines = source.splitlines(keepends=True)
    text = lines[mutant["line"] - 1]
    col = mutant["col"]
    assert text[col : col + len(mutant["old"])] == mutant["old"], mutant
    lines[mutant["line"] - 1] = text[:col] + mutant["new"] + text[col + len(mutant["old"]) :]
    return "".join(lines)


def _run_tests(copy: Path, tests: list[str], extra: list[str], timeout: float | None):
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests, *extra]
    t0 = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - t0
    return ("survived" if done.returncode == 0 else "killed"), time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="the module's path, e.g. src/sumcollapse/battery.py")
    parser.add_argument("tests", nargs="+", help="the test files to run on each mutant")
    parser.add_argument("--function", help="only the operators inside this function")
    parser.add_argument("--pytest-args", default="", help="more pytest arguments, e.g. '-k ring'")
    parser.add_argument("--out", help="write the survivors here as JSON")
    parser.add_argument("--workdir", help="where the scratch copy goes")
    args = parser.parse_args(argv)

    root = Path.cwd()
    module = Path(args.module)
    source = module.read_text()
    found = mutants(source, args.function)

    extra = args.pytest_args.split()
    copy = Path(tempfile.mkdtemp(prefix="mutants-", dir=args.workdir))
    try:
        for part in ("src", "tests"):
            shutil.copytree(root / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        for name in ("pyproject.toml", "conftest.py"):
            if (root / name).is_file():
                shutil.copy2(root / name, copy / name)
        target = copy / module
        status, base = _run_tests(copy, args.tests, extra, None)
        if status != "survived":
            print(f"the tests fail on the unmutated {module}; nothing to probe", file=sys.stderr)
            return 2
        survivors, counts = [], {"killed": 0, "timeout": 0, "survived": 0}
        for i, m in enumerate(found, 1):
            target.write_text(mutate(source, m))
            try:
                status, took = _run_tests(copy, args.tests, extra,
                                          max(60.0, TIMEOUT_FACTOR * base))
            finally:
                target.write_text(source)
            counts[status] += 1
            print(f"[{i}/{len(found)}] {module}:{m['line']} {m['old']} -> {m['new']}: "
                  f"{status} ({took:.1f} s)", file=sys.stderr, flush=True)
            if status == "survived":
                survivors.append(m)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    report = {
        "module": str(module), "tests": args.tests, "pytest_args": extra,
        "function": args.function, "mutants": len(found), **counts, "survivors": survivors,
    }
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    print(f"{len(found)} mutants: {counts['killed']} killed, {counts['timeout']} timed out, "
          f"{counts['survived']} survived", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
