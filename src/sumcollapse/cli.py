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
from itertools import chain
from operator import add

# Set before numpy is first imported, which only the commands that build
# arrays do: no module here calls BLAS, so OpenBLAS's thread pool would only
# add startup time.  A value the user set wins (README, "Startup").
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


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


# every package module: each is found in sys.modules from here on (the
# benchmark's tracer looks there) and runs on the first read of it
battery = _lazy("battery")
col = _lazy("collapse")
ring = _lazy("finite_ring")
_lazy("intsets")  # read only through collapse, setexpr and strata
setexpr = _lazy("setexpr")
sieve = _lazy("sieve")
strata_mod = _lazy("strata")
verdict_mod = _lazy("verdict")

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
            if r.verdict.status is verdict_mod.Status.FAILS:
                print(f"     counterexample: {r.verdict.counterexample}")
        print(f"{payload['passed']} passed, {payload['failed']} failed")
    return 1 if payload["failed"] else 0


def _cmd_sieve(args) -> int:
    if args.check:
        battery.require_limit(args.limit)
    table = sieve.PrimeTable(_within_reach("sieve", args.limit))
    index = sieve.CompositeIndex(table)
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
    table = sieve.PrimeTable(_within_reach("strata", args.limit))
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
    # read first, so collapse (the largest module) is compiled and run before
    # the modules it imports, as an eager import would: the compile's scratch
    # memory then sits on the smallest heap, and the peak RSS stays put
    check_relation = col.check_relation
    match = _REL_PATTERN.match(args.rel.strip())
    if match is None:
        raise ValueError(f"malformed relation {args.rel!r}; expected 'A ~(m,n)~ B'")
    lhs = setexpr.parse_set_expr(match.group("lhs"))
    rhs = setexpr.parse_set_expr(match.group("rhs"))
    m_fold, n_fold = int(match.group("m")), int(match.group("n"))
    lo, hi = args.window
    removed_top = rhs.max_excluded if isinstance(rhs, setexpr.Progression) else 0
    reach = max(hi, 9, removed_top)
    why = " (the window end or the largest excluded value)"
    table = sieve.PrimeTable(_within_reach("collapse", reach, why))
    verdict = check_relation(
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
    return 1 if verdict.status is verdict_mod.Status.FAILS else 0


_RING_HEADER = (
    "modulus,b_mask,b_elements,c_mask,c_elements,m_fold,n_fold,"
    "sumset_equal,fp,subset,symmetric,directed\r\n"
)
_RING_CHUNK = 1 << 16  # CSV lines joined into one write, in whole runs
_RING_TAILS = 1 << 17  # most row tails built for the whole (C, m_fold, n_fold) grid


def _ring_block_writer(fh, m: int, n_max: int):
    """Write the ring CSV header to ``fh`` and return ``write(b, low,
    equal)``, which writes one B block of
    :func:`~sumcollapse.finite_ring.relation_table`.

    While the tails of the whole (C, m_fold, n_fold) grid number at most
    ``_RING_TAILS``, they are built once and a block is one run under
    ``"m,B,B_elements,"``: each C's tails for its (fp, subset) code, chained,
    with the tails of the equal cells put in.  Past that the tails cover
    n_fold only and each (C, m_fold) is a run of n_max rows under its own
    prefix, so the strings held grow with the fold bound, not with its
    square; a run with equal cells is built once per (S_{m_fold}(B), C), and
    each write joins whole runs of at most ``_RING_CHUNK`` lines.
    """
    labels = ["|".join(str(x) for x in range(m) if mask >> x & 1) for mask in range(1 << m)]
    grid = [f"{c},{labels[c]},{mf}," for c in range(1, 1 << m) for mf in range(1, n_max + 1)]
    whole = 8 * len(grid) * n_max <= _RING_TAILS
    tails = [
        f"{g}{nf},{eq},{fp},{sub},{eq & fp},{eq & fp & sub}\r\n"
        for g in (grid if whole else [""])
        for nf in range(1, n_max + 1)
        for eq in (0, 1)
        for fp in (0, 1)
        for sub in (0, 1)
    ]
    fh.write(_RING_HEADER)
    # plain[4 * j + code]: the tails of unit j (C = j + 1, or any run) for the
    # code 2 * fp + subset, with every sumset unequal
    unit = n_max * n_max if whole else n_max
    plain = [tails[8 * i + code : 8 * (i + unit) : 8]
             for i in range(0, len(tails) // 8, unit) for code in range(4)]

    # (hits, m_fold) -> for each of its equal cells: the row, the index of
    # its equal tail less the code, and its C
    cells = {}

    def write_grid(b: int, low: bytes, equal) -> None:
        firsts = map(add, range(0, len(plain), 4), low[1:])
        row = list(chain.from_iterable(map(plain.__getitem__, firsts)))
        for m_folds, hits in equal:
            for mf in m_folds:
                if (found := cells.get((hits, mf))) is None:
                    at = (((c - 1) * unit + nf, c)
                          for nf, cs in enumerate(hits, (mf - 1) * n_max) for c in cs)
                    found = cells[hits, mf] = [(i, 8 * i + 4, c) for i, c in at]
                for i, t, c in found:
                    row[i] = tails[t + low[c]]
        head = f"{m},{b},{labels[b]},"
        fh.write(head + head.join(row))

    def write_runs(b: int, low: bytes, equal) -> None:
        runs_at = [None] * n_max  # m_fold - 1 -> {c: C's run with its equal cells}
        for m_folds, hits in equal:
            runs: dict[int, list[str]] = {}
            for nf, cs in enumerate(hits):
                for c in cs:
                    if (run := runs.get(c)) is None:
                        run = runs[c] = plain[low[c]].copy()
                    run[nf] = tails[8 * nf + 4 + low[c]]
            for mf in m_folds:
                runs_at[mf - 1] = runs
        head = f"{m},{b},{labels[b]},"
        per_write = max(1, _RING_CHUNK // n_max)
        pieces, k = [], 0
        for c in range(1, 1 << m):
            unequal = plain[low[c]]
            for runs in runs_at:
                p = head + grid[k]
                pieces += (p, p.join(runs.get(c, unequal)))
                k += 1
                if k % per_write == 0:
                    fh.write("".join(pieces))
                    pieces = []
        if pieces:
            fh.write("".join(pieces))

    return write_grid if whole else write_runs


def _cmd_ring(args) -> int:
    m, n_max = args.modulus, args.nmax
    # a refused modulus or fold bound raises here, before any file is created
    blocks = ring.relation_table(m, n_max)
    rows = directed = 0
    with open(args.csv, "w", newline="") if args.csv else contextlib.nullcontext() as fh:
        write = None if fh is None else _ring_block_writer(fh, m, n_max)
        for b, low, equal in blocks:
            rows += ((1 << m) - 1) * n_max * n_max
            # directed: the equal cells whose C has fp and subset (code 3)
            directed += sum(
                len(m_folds) * sum(low[c] == 3 for cs in hits for c in cs)
                for m_folds, hits in equal
            )
            if write is not None:
                write(b, low, equal)
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
    k_partitions = col.k_partitions  # collapse first, as in _cmd_collapse
    expr = setexpr.parse_set_expr(args.set)
    table = sieve.PrimeTable(_within_reach("partitions", max(args.target, 9)))
    records = k_partitions(args.target, expr, args.k, (1, args.target), table)
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
        lo, hi = map(int, text.split(".."))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad window {text!r}; expected 'a..b'") from exc
    if lo > hi:
        raise argparse.ArgumentTypeError(
            f"bad window {text!r}: it starts at {lo}, past its end {hi}"
        )
    return lo, hi


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
