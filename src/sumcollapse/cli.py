"""Command-line interface: argument parsing and output formatting.

Subcommands
-----------
``sieve``       build a prime table, print a summary, optionally run its checks
``strata``      layer classification of odd composites, CSV / census output
``verify``      the theorem-check battery of :mod:`sumcollapse.battery`
``collapse``    one relation check, e.g. ``--rel "odd>=3 ~(2,2)~ odd>=3 \\ {9,15,21}"``
``ring``        exhaustive relation table for one residue ring
``partitions``  fixed-length partition enumeration over a set expression

Set expressions follow the grammar in :mod:`sumcollapse.setexpr`:
``odd>=3``, ``odd>=3 \\ {9,15,21}``, ``ints>=2``, ``primes>=3``, ``rough>=5``,
``composites``, ``strata(1)``, ``{9,15,21}``.

Exit codes: 0 every check ended in its expected status (or evidence-only
reports completed), 1 a check's status is not its expected status (a
``fails``, or say a ``holds_on_window`` or ``hypothesis_failed`` where
``holds`` was expected), 2 configuration error, 3 internal error (the tool's
own consistency guard tripped or it ran out of memory; no claim was
decided).

JSON reports are canonical: keys sorted, entries sorted by ``ref``, and
timings zeroed unless ``--timings`` is given (which also adds each check's
``peak_rss_kb``), so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import re
import sys

# Set before numpy is first imported, which only the commands that build
# arrays do: no module here calls BLAS, so OpenBLAS's thread pool would only
# add startup time.  A value the user set wins (README, "Startup").
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import collapse as col
from .setexpr import Progression, parse_set_expr
from .sieve import CompositeIndex, PrimeTable
from .verdict import Status


def _lazy(name: str):
    """The submodule ``name``, in ``sys.modules`` and on the package as if
    imported, but executed on its first attribute access
    (``importlib.util.LazyLoader``), so a command that does not use it does
    not pay for loading it."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# only verify, sieve --check, strata and ring run these three
battery = _lazy("battery")
ring = _lazy("finite_ring")
strata_mod = _lazy("strata")

SCHEMA_VERSION = 1
MAX_REACH = 10**9  # largest prime table any command builds (README, "Notes on scale")


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write_report(path: str | None, payload: dict) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(_canonical_json(payload))


def _within_reach(command: str, reach: int, why: str = "") -> int:
    """``reach``, refused past ``MAX_REACH`` before any prime table is built."""
    if reach > MAX_REACH:
        raise ValueError(
            f"{command} would need primes up to {reach}{why}, past the bound {MAX_REACH}"
        )
    return reach


def _mark(result: battery.CheckResult) -> str:
    return "PASS" if result.passed else "FAIL"


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_verify(args) -> int:
    results = battery.run_battery(_within_reach("verify", args.limit))
    passed = sum(1 for r in results if r.passed)
    payload = {
        "schema": SCHEMA_VERSION,
        "suite": "theorems",
        "limit": args.limit,
        "checks": [r.to_dict(args.timings) for r in results],
        "passed": passed,
        "failed": len(results) - passed,
    }
    _write_report(args.out, payload)
    if args.format == "json":
        sys.stdout.write(_canonical_json(payload))
    else:
        for r in results:
            status = r.verdict.status.value
            print(f"{_mark(r)} {r.ref} [{status}] {r.claim}")
            if r.verdict.status is Status.FAILS:
                print(f"     counterexample: {r.verdict.counterexample}")
        print(f"{payload['passed']} passed, {payload['failed']} failed")
    return 1 if payload["failed"] else 0


def _cmd_sieve(args) -> int:
    if args.check:
        battery.require_limit(args.limit)
    table = PrimeTable(_within_reach("sieve", args.limit))
    index = CompositeIndex(table)
    info = {
        "schema": SCHEMA_VERSION,
        "limit": args.limit,
        "prime_count": table.prime_count(args.limit),
        "odd_composite_count": index.count(args.limit),
    }
    results = []
    if args.check:
        results = battery.run(battery.sieve_checks(table))
        info["checks"] = [r.to_dict(args.timings) for r in results]
        info["failed"] = sum(1 for r in results if not r.passed)
    _write_report(args.out, info)
    if args.format == "json":
        sys.stdout.write(_canonical_json(info))
    else:
        print(f"primes <= {args.limit}: {info['prime_count']}")
        print(f"odd composites <= {args.limit}: {info['odd_composite_count']}")
        for r in results:
            print(f"{_mark(r)} {r.ref}")
    return 1 if info.get("failed") else 0


def _cmd_strata(args) -> int:
    table = PrimeTable(_within_reach("strata", args.limit))
    tally = strata_mod.strata_census(args.limit, table, args.csv)
    payload = tally.census_dict()
    _write_report(args.out, payload)
    if args.format == "json":
        sys.stdout.write(_canonical_json(payload))
    else:
        for layer, info in tally.census().items():
            print(
                f"layer {layer}: {info['count']} composites in "
                f"[{info['min']}, {info['max']}]"
            )
        if tally.unassigned:
            print(f"unassigned: {len(tally.unassigned)} (anomaly)")
    return 1 if tally.unassigned else 0


_REL_PATTERN = re.compile(r"^(?P<lhs>.*?)~\((?P<m>\d+),(?P<n>\d+)\)~(?P<rhs>.*)$")


def _cmd_collapse(args) -> int:
    match = _REL_PATTERN.match(args.rel.strip())
    if match is None:
        raise ValueError(f"malformed relation {args.rel!r}; expected 'A ~(m,n)~ B'")
    lhs = parse_set_expr(match.group("lhs"))
    rhs = parse_set_expr(match.group("rhs"))
    m_fold, n_fold = int(match.group("m")), int(match.group("n"))
    lo, hi = args.window
    removed_top = rhs.max_excluded if isinstance(rhs, Progression) else 0
    reach = max(hi, 9, removed_top)
    why = " (the window end or the largest excluded value)"
    table = PrimeTable(_within_reach("collapse", reach, why))
    verdict = col.check_relation(
        lhs, rhs, m_fold, n_fold, (lo, hi), table, require_subset=args.directed
    )
    payload = {
        "schema": SCHEMA_VERSION,
        "relation": args.rel,
        "window": [lo, hi],
        "directed": args.directed,
        "verdict": verdict.to_dict(),
    }
    _write_report(args.out, payload)
    if args.format == "json":
        sys.stdout.write(_canonical_json(payload))
    else:
        print(f"{verdict.status.value}: {verdict.note}")
        if verdict.counterexample is not None:
            print(f"counterexample: {verdict.counterexample}")
    return 1 if verdict.status is Status.FAILS else 0


_RING_HEADER = (
    "modulus,b_mask,b_elements,c_mask,c_elements,m_fold,n_fold,"
    "sumset_equal,fp,subset,symmetric,directed\r\n"
)
_RING_CHUNK = 1 << 16  # CSV lines joined into one write, in whole runs
_RING_TAILS = 1 << 17  # most row tails built for the whole (C, m_fold, n_fold) grid


def _ring_lines(prefixes: list[str], tails: list[str], eq, low):
    """One B block of the ring CSV, as strings of whole runs, at most
    ``_RING_CHUNK`` lines each unless a single run is longer.

    The block's rows fall into one run per prefix, of equal length.  Row
    ``i`` is its run's prefix joined to ``tails[8 * (i % period) + code]``,
    where the tails repeat every ``period`` rows, ``code`` packs
    (sumset_equal, fp, subset) and ``low`` holds fp and subset per C.
    """
    import numpy as np

    flat = eq.ravel()
    span, period, per_c = flat.size // len(prefixes), len(tails) // 8, flat.size // low.size
    step = max(1, _RING_CHUNK // span)
    for r0 in range(0, len(prefixes), step):
        i = np.arange(r0 * span, min((r0 + step) * span, flat.size))
        idx = (i % period * 8 + flat[i] * 4 + low[i // per_c]).tolist()
        yield "".join(
            p + p.join(map(tails.__getitem__, idx[j * span : (j + 1) * span]))
            for j, p in enumerate(prefixes[r0 : r0 + step])
        )


def _ring_block_writer(fh, m: int, n_max: int):
    """Write the ring CSV header to ``fh`` and return ``write(b, eq, fp,
    subset)``, which writes one B block of rows.

    While the tails of the whole (C, m_fold, n_fold) grid number at most
    ``_RING_TAILS``, they are built once and a block is one run under
    ``"m,B,B_elements,"``.  Past that the tails cover n_fold only and each
    (C, m_fold) is a run of n_max rows under its own prefix, so the strings
    held grow with the fold bound, not with its square.
    """
    labels = ["|".join(str(x) for x in range(m) if mask >> x & 1) for mask in range(1 << m)]
    grid = [f"{c},{labels[c]},{mf}," for c in range(1, 1 << m) for mf in range(1, n_max + 1)]
    inner, outer = (grid, [""]) if 8 * len(grid) * n_max <= _RING_TAILS else ([""], grid)
    tails = [
        f"{g}{nf},{eq},{fp},{sub},{eq & fp},{eq & fp & sub}\r\n"
        for g in inner
        for nf in range(1, n_max + 1)
        for eq in (0, 1)
        for fp in (0, 1)
        for sub in (0, 1)
    ]
    fh.write(_RING_HEADER)

    def write(b: int, eq, fp, subset) -> None:
        head = f"{m},{b},{labels[b]},"
        fh.writelines(_ring_lines([head + g for g in outer], tails, eq, fp * 2 + subset))

    return write


def _cmd_ring(args) -> int:
    import numpy as np

    m, n_max = args.modulus, args.nmax
    # a refused modulus or fold bound raises here, before any file is created
    blocks = ring.relation_table(m, n_max)
    rows = directed = 0
    with open(args.csv, "w", newline="") if args.csv else contextlib.nullcontext() as fh:
        write = None if fh is None else _ring_block_writer(fh, m, n_max)
        for b, eq, fp, subset in blocks:
            rows += eq.size
            # per-C counts, so the selected rows are not copied
            directed += int(np.count_nonzero(eq, axis=(1, 2))[fp & subset].sum())
            if write is not None:
                write(b, eq, fp, subset)
            del eq  # so the next block is built without this one alive
    payload = {
        "schema": SCHEMA_VERSION,
        "modulus": m,
        "n_max": n_max,
        "rows": rows,
        "directed_rows": directed,
    }
    _write_report(args.out, payload)
    if args.format == "json":
        sys.stdout.write(_canonical_json(payload))
    else:
        print(f"{rows} rows for modulus {m}, folds up to {n_max}")
        print(f"directed relation holds in {directed} rows")
    return 0


def _cmd_partitions(args) -> int:
    expr = parse_set_expr(args.set)
    table = PrimeTable(_within_reach("partitions", max(args.target, 9)))
    records = col.k_partitions(args.target, expr, args.k, (1, args.target), table)
    payload = {
        "schema": SCHEMA_VERSION,
        "target": args.target,
        "set": args.set,
        "k": args.k,
        "partitions": [
            {"parts": [[b, m] for b, m in r.parts]} for r in records
        ],
        "count": len(records),
    }
    _write_report(args.out, payload)
    if args.format == "json":
        sys.stdout.write(_canonical_json(payload))
    else:
        for r in records:
            print(" + ".join(f"{b}*{m}" if m > 1 else str(b) for b, m in r.parts))
        print(f"{len(records)} partitions")
    return 0


def _window(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad window {text!r}; expected 'a..b'") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumcollapse",
        description="verification toolkit for sumset-collapse relations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", metavar="PATH", help="write a canonical JSON report")

    p = sub.add_parser("verify", help="run the full theorem-check battery")
    p.add_argument("--limit", type=int, default=1_000_000)
    p.add_argument(
        "--timings",
        action="store_true",
        help="include real timings and each check's peak RSS (non-reproducible)",
    )
    common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("sieve", help="build a prime table and summarise it")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--check", action="store_true", help="run the index/count checks")
    p.add_argument("--timings", action="store_true")
    common(p)
    p.set_defaults(fn=_cmd_sieve)

    p = sub.add_parser("strata", help="layer classification of odd composites")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--csv", metavar="PATH", help="write per-composite rows")
    common(p)
    p.set_defaults(fn=_cmd_strata)

    p = sub.add_parser("collapse", help="run one relation check")
    p.add_argument("--rel", required=True, metavar="'A ~(m,n)~ B'")
    p.add_argument("--window", type=_window, default=(3, 10_000))
    p.add_argument("--symmetric", dest="directed", action="store_false",
                   help="skip the containment component")
    common(p)
    p.set_defaults(fn=_cmd_collapse)

    p = sub.add_parser("ring", help="exhaustive relation table for one residue ring")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--csv", metavar="PATH")
    common(p)
    p.set_defaults(fn=_cmd_ring)

    p = sub.add_parser("partitions", help="fixed-length partitions over a set expression")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(fn=_cmd_partitions)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, MemoryError) as exc:
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
