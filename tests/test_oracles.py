"""The brute-force oracles judge the package, so they must not be built on it."""

import ast
from pathlib import Path

import pytest

ORACLES = Path(__file__).with_name("oracles.py")


def _package_uses(source: str) -> list[str]:
    """Every way ``source`` could reach the ``sumcollapse`` package: an
    import of it or of a submodule, a relative import, or its name anywhere,
    which covers ``importlib.import_module`` and ``__import__`` calls."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "sumcollapse"]
        elif isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "sumcollapse":
                found.append(f"from {'.' * node.level}{node.module or ''} import")
        elif isinstance(node, ast.Name) and node.id == "sumcollapse":
            found.append(node.id)
        elif isinstance(node, ast.Constant) and "sumcollapse" in str(node.value):
            found.append(repr(node.value))
    return found


def test_the_oracles_do_not_use_the_package():
    assert _package_uses(ORACLES.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "import sumcollapse",
        "import numpy, sumcollapse.strata as s",
        "from sumcollapse import strata",
        "from sumcollapse.sieve import PrimeTable",
        "from . import strata",
        "import importlib\nm = importlib.import_module('sumcollapse.strata')",
        "def f():\n    return __import__('sumcollapse')",
    ],
)
def test_each_form_of_package_use_is_found(source):
    assert _package_uses(source)
