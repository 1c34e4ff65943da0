"""Every span the benchmark tracer names must still exist in the package.

The tracer records a span it cannot find as a problem and carries on, so a
rename would silently drop a per-layer metric.  The first test only reads
``perfbench/tracer.py``; the others run its ``install`` in a fresh process,
as a traced benchmark step does.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import sumcollapse.cli  # noqa: F401 - loads every module the spans name

from oracles import odd_composites_upto

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while defining
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_span_resolves():
    tracer = _load_tracer()
    modules = {
        name.rpartition(".")[2]: mod
        for name, mod in sys.modules.items()
        if name.startswith("sumcollapse.")
    }
    missing = [
        f"{span.module}.{span.qualname}"
        for span in tracer.SPANS
        if not list(tracer._targets(modules, span.module, span.qualname))
    ]
    assert len(tracer.SPANS) >= 41
    assert missing == []


def _traced(tail: str) -> subprocess.CompletedProcess:
    """Run ``tail`` in a fresh process after ``tracer.install(rec)``, with
    ``src`` on the path."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(TRACER.parent)!r})\n"
        "import sumcollapse.cli, tracer\n"
        "rec = tracer.Recorder()\n"
        "tracer.install(rec)\n"
    ) + tail
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_install_finds_every_span_in_a_fresh_process():
    # the tracer wraps the modules that ``import sumcollapse.cli`` put in
    # sys.modules, before any command has run
    proc = _traced("print(sorted(rec.problems))\n")
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_strata_table_hooks_record_their_counters(tmp_path):
    # a hook that no longer fits the package is only listed in
    # ``rec.problems``, so the strata table's two hooks are run here
    proc = _traced(
        "import json\n"
        "from sumcollapse.sieve import PrimeTable\n"
        "from sumcollapse.strata import compute_strata\n"
        "st = compute_strata(2_000, PrimeTable(2_000))\n"
        f"st.write_csv({str(tmp_path / 'strata.csv')!r})\n"
        "print(json.dumps([sorted(rec.problems), rec.counters]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    problems, counters = json.loads(proc.stdout)
    composites = len(odd_composites_upto(2_000))
    assert problems == []
    assert (counters["strata.composites"], counters["strata.csv_rows"]) == (composites, composites)
    assert counters["strata.classify_calls"] == counters["strata.csv_calls"] == 1
