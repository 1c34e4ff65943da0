"""Outside-in tracing of sumcollapse: spans and counters around public functions.

The package is not modified.  :func:`install` wraps the public functions
named in :data:`SPANS` and rebinds every module attribute that holds the
same function object, because ``cli``, ``collapse`` and ``strata`` import
names directly.  Generators are timed on each ``next()``.  Per-element
predicates such as ``is_prime`` or ``contains`` are left alone: wrapping
them would time the tracer, not the layer.

Spans are aggregated in memory by call path (calls, total and self time);
a span's self time is its duration minus the time of its child spans.
Everything is written out once, when the traced step ends.

Run one traced step, with ``src`` on ``PYTHONPATH`` (the step's own
arguments follow ``--``)::

    python3 perfbench/tracer.py --spans spans.json -- cli verify --limit 100000
    python3 perfbench/tracer.py --spans spans.json -- zm --modulus 6 --folds 2 --out z.json
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class Recorder:
    """Nested spans aggregated by call path, plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [path, start, child time]
        self.paths: dict[tuple[str, ...], list] = {}  # path -> [calls, total, self]
        self.counters: dict[str, float] = {}
        self.problems: set[str] = set()  # spans or counters that could not be taken

    def enter(self, name: str) -> None:
        parent = self.stack[-1][0] if self.stack else ()
        self.stack.append([parent + (name,), self.clock(), 0.0])

    def exit(self) -> None:
        path, start, child = self.stack.pop()
        duration = self.clock() - start
        if self.stack:
            self.stack[-1][2] += duration
        agg = self.paths.get(path)
        if agg is None:
            agg = self.paths[path] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def to_dict(self) -> dict:
        return {
            "spans": [
                {"path": list(p), "calls": c, "total_s": t, "self_s": s}
                for p, (c, t, s) in sorted(self.paths.items())
            ],
            "counters": self.counters,
            "problems": sorted(self.problems),
        }


# -- what is wrapped ----------------------------------------------------------


def _window_len(rec, args, kwargs, result, pre):
    _, lo, hi = args[:3]
    rec.count("setexpr.window_bits_len", max(hi - lo + 1, 0))


def _sumset_bounds(rec, args, kwargs, result, pre):
    """Computed bounds for the shift-OR kernel: the sparser operand's popcount
    is the most shifts one fold can take, each over the fold's output bits."""
    ws, n = args[:2]
    pop = ws.bits.bit_count()
    for step in range(2, n + 1):
        out_len = ws.hi - step * ws.lo + 1
        if out_len > 0:
            rec.count("intsets.shift_bound", pop)
            rec.count("intsets.bytes_bound", pop * out_len / 8)


def _pair_cover_sums(rec, args, kwargs, result, pre):
    rec.count("intsets.pair_cover_sums", args[0].max_excluded + 1)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _strata_counts(rec, args, kwargs, result, pre):
    rec.count("strata.passes", result.passes)
    rec.count("strata.composites", len(result.layers) + len(result.unassigned))
    rec.count("strata.classify_rss_mb", _maxrss_mb() - pre)


def _csv_rows(rec, args, kwargs, result, pre):
    st = args[0]
    rec.count("strata.csv_rows", len(st.layers) + len(st.unassigned))


@dataclass(frozen=True)
class Span:
    """One wrapped function: its self time adds to ``<metric>_s`` and each call
    to ``calls`` (default ``<metric>_calls``); ``items`` counts the values a
    generator yields; ``post(rec, args, kwargs, result, pre_state)`` records
    further counters, with ``pre(args, kwargs)`` taken before the call."""

    module: str
    qualname: str  # "function", "Class.method", or "*.method" for every class
    metric: str
    calls: str | None = None
    items: str | None = None
    post: Callable | None = None
    pre: Callable | None = None


_INDEX = "sieve.index"
_SUMSET = "intsets.sumset"
_REMOVAL = "collapse.removal"
_WINDOW = "strata.window"
_SCAN = "finite_ring.scan"

SPANS = [
    Span("sieve", "PrimeTable.__init__", "sieve.build"),
    Span("sieve", "PrimeTable.primes_in", "sieve.scan", items="sieve.scan_items"),
    Span("sieve", "PrimeTable.odd_composites_in", "sieve.scan", items="sieve.scan_items"),
    Span("sieve", "PrimeTable.odd_prime_mask", "sieve.scan"),
    Span("sieve", "PrimeTable.prime_count", _INDEX),
    Span("sieve", "PrimeTable.odd_composite_count", _INDEX),
    Span("sieve", "PrimeTable.nth_prime", _INDEX),
    Span("sieve", "PrimeTable.nth_odd_composite", _INDEX),
    Span("sieve", "CompositeIndex.nth", _INDEX),
    Span("sieve", "CompositeIndex.rank", _INDEX),
    Span("sieve", "CompositeIndex.count", _INDEX),
    Span("sieve", "CompositeIndex.first", _INDEX),
    Span("setexpr", "*.window_bits", "setexpr.window_bits", post=_window_len),
    Span("intsets", "iterated_sumset", _SUMSET, post=_sumset_bounds),
    Span("intsets", "sumset_equal_window", _SUMSET),
    Span("intsets", "dilation", _SUMSET),
    Span("intsets", "pair_sum_cover_decision", "intsets.pair_cover", post=_pair_cover_sums),
    Span("collapse", "check_fp", "collapse.fp"),
    Span("collapse", "check_relation", "collapse.relation"),
    Span("collapse", "relation_parts", "collapse.relation"),
    Span("collapse", "prime_surplus_hypothesis", _REMOVAL),
    Span("collapse", "composite_removal_check", _REMOVAL),
    Span("collapse", "gap_subsequence_check", _REMOVAL),
    Span("collapse", "progression_removal_check", _REMOVAL),
    Span("collapse", "prefix_removal_cascade", _REMOVAL),
    Span("collapse", "shifted_composite_pair_sweep", "collapse.sweep"),
    Span("collapse", "parameter_uniqueness_report", "collapse.sweep"),
    Span("strata", "compute_strata", "strata.classify", post=_strata_counts,
         pre=lambda args, kwargs: _maxrss_mb()),
    Span("strata", "verify_partition", "strata.audit"),
    Span("strata", "verify_absorption", "strata.absorb"),
    Span("strata", "nfold_collapse_check", _WINDOW),
    Span("strata", "nfold_all_integers_check", _WINDOW),
    Span("strata", "rough_pair_cover_evidence", _WINDOW),
    Span("strata", "StrataTable.write_csv", "strata.csv", post=_csv_rows),
    Span("finite_ring", "relation_table_rows", "finite_ring.rows", items="finite_ring.rows"),
    Span("finite_ring", "zm_relation", _SCAN),
    Span("finite_ring", "zm_optimal_subsets", _SCAN),
    Span("finite_ring", "zm_reduction_family", _SCAN),
    Span("finite_ring", "zm_expansion_family", _SCAN),
    Span("finite_ring", "zm_sumset", "finite_ring.prim", calls="finite_ring.sumset_calls"),
    Span("finite_ring", "zm_closure", "finite_ring.prim", calls="finite_ring.closure_calls"),
]


def _wrap_call(rec: Recorder, fn, name, calls, post, pre):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = pre(args, kwargs) if pre else None
        rec.count(calls)
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit()
        if post:
            try:
                post(rec, args, kwargs, result, state)
            except (AttributeError, TypeError, IndexError, KeyError, ValueError) as exc:
                # the package changed shape under a counter: report it, keep the run
                rec.problems.add(f"{name}: counters not recorded ({exc!r})")
        return result

    return wrapper


def _wrap_generator(rec: Recorder, fn, name, calls, items):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(calls)
        gen = fn(*args, **kwargs)
        yielded = 0
        try:
            while True:
                rec.enter(name)
                try:
                    value = next(gen)
                except StopIteration:
                    return
                finally:
                    rec.exit()
                yielded += 1
                yield value
        finally:
            gen.close()
            if items:
                rec.count(items, yielded)

    return wrapper


def _targets(modules: dict, module: str, qualname: str):
    """(owner, attribute, function) triples a span names; none when the
    package no longer defines it."""
    mod = modules.get(module)
    owner_name, _, attr = qualname.rpartition(".")
    if mod is None:
        return
    if owner_name == "*":
        # every class defined in the module that defines the method itself
        for obj in vars(mod).values():
            if inspect.isclass(obj) and obj.__module__ == mod.__name__ and attr in vars(obj):
                yield obj, attr, vars(obj)[attr]
        return
    owner = getattr(mod, owner_name, None) if owner_name else mod
    fn = vars(owner).get(attr) if owner is not None else None
    if callable(fn):
        yield owner, attr, fn


def install(rec: Recorder, package: str = "sumcollapse") -> dict[str, str]:
    """Wrap every function in :data:`SPANS`; return span name -> metric prefix.

    A span whose function the package no longer defines is skipped and
    listed in ``rec.problems``, so a refactor shows as absent spans instead
    of a failed run."""
    modules = {
        name.rpartition(".")[2]: mod
        for name, mod in list(sys.modules.items())
        if name == package or name.startswith(package + ".")
    }
    metric_of: dict[str, str] = {}
    replaced: dict[int, object] = {}
    for span in SPANS:
        targets = list(_targets(modules, span.module, span.qualname))
        if not targets:
            rec.problems.add(f"{span.module}.{span.qualname}: not defined, not traced")
        for owner, attr, fn in targets:
            name = f"{span.module}.{owner.__name__}.{attr}" if inspect.isclass(owner) else f"{span.module}.{attr}"
            metric_of[name] = span.metric
            calls = span.calls or span.metric + "_calls"
            if inspect.isgeneratorfunction(fn):
                wrapper = _wrap_generator(rec, fn, name, calls, span.items)
            else:
                wrapper = _wrap_call(rec, fn, name, calls, span.post, span.pre)
            setattr(owner, attr, wrapper)
            replaced[id(fn)] = wrapper
    # rebind names imported elsewhere (``from .intsets import restrict`` and the like)
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in replaced and callable(value):
                setattr(mod, attr, replaced[id(value)])
    return metric_of


def layer_times(spans: dict, metric_of: dict[str, str]) -> dict[str, float]:
    """Self time per metric prefix, from a written-out span file."""
    out: dict[str, float] = {}
    for span in spans["spans"]:
        metric = metric_of.get(span["path"][-1])
        if metric is not None:
            out[metric + "_s"] = out.get(metric + "_s", 0.0) + span["self_s"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write spans and counters")
    parser.add_argument("step", nargs=argparse.REMAINDER, help="-- cli|zm ARGS...")
    args = parser.parse_args(argv)
    step = args.step[1:] if args.step[:1] == ["--"] else args.step
    if not step or step[0] not in ("cli", "zm"):
        parser.error("expected '-- cli ARGS' or '-- zm ARGS' after the options")

    import sumcollapse.cli  # noqa: F401 - loads every layer before wrapping

    rec = Recorder()
    metric_of = install(rec)
    if step[0] == "cli":
        entry = sumcollapse.cli.main
    else:
        from drivers import main as entry  # this file's directory is on sys.path
    try:
        code = entry(step[1:])
    finally:
        payload = rec.to_dict()
        payload["metric_of"] = metric_of
        Path(args.spans).write_text(json.dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
