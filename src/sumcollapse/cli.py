"""Command-line interface.

Subcommands
-----------
``sieve``       build a prime table, print a summary, optionally run its checks
``strata``      layer classification of odd composites, CSV / census output
``verify``      the full theorem-check battery with machine-readable reports
``collapse``    one relation check, e.g. ``--rel "odd>=3 ~(2,2)~ odd>=3 \\ {9,15,21}"``
``ring``        exhaustive relation table for one residue ring
``partitions``  fixed-length partition enumeration over a set expression

Set expressions follow the grammar in :mod:`sumcollapse.setexpr`:
``odd>=3``, ``odd>=3 \\ {9,15,21}``, ``ints>=2``, ``primes>=3``, ``rough>=5``,
``composites``, ``strata(1)``, ``{9,15,21}``.

Exit codes: 0 all checks passed (or evidence-only reports completed),
1 a claim failed verification (``fails``, or a ``hypothesis_failed`` where a
check expected ``holds``), 2 configuration error, 3 internal error (the
tool's own consistency guard tripped or it ran out of memory; no claim was
decided).

JSON reports are canonical: keys sorted, entries sorted by ``ref``, and
timings zeroed unless ``--timings`` is given, so identical configurations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import re
import sys
import time
from dataclasses import dataclass

from . import collapse as col
from . import finite_ring as ring
from . import strata as strata_mod
from .setexpr import Progression, parse_set_expr
from .sieve import CompositeIndex, PrimeTable
from .verdict import RelationVerdict, Status, is_success, jsonable

SCHEMA_VERSION = 1
RANDOM_TUPLE_SEED = 0x5EED


@dataclass
class CheckEntry:
    ref: str
    claim: str
    status: str
    certified_range: tuple[int, int] | None = None
    counterexample: object = None
    witnesses: tuple = ()
    elapsed_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return is_success(self.status)

    def to_dict(self, timings: bool) -> dict:
        return {
            "ref": self.ref,
            "claim": self.claim,
            "status": self.status,
            "certified_range": jsonable(self.certified_range),
            "counterexample": jsonable(self.counterexample),
            "witnesses": jsonable(self.witnesses),
            "elapsed_ms": round(self.elapsed_ms, 3) if timings else 0,
        }


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write_report(path: str | None, payload: dict) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(_canonical_json(payload))


def _entry_from_verdict(ref: str, claim: str, v: RelationVerdict, elapsed: float) -> CheckEntry:
    return CheckEntry(
        ref,
        claim,
        v.status.value,
        v.certified_range,
        v.counterexample,
        tuple(v.witnesses[:8]),
        elapsed,
    )


# ---------------------------------------------------------------------------
# verify battery


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, (time.perf_counter() - t0) * 1000.0


def _sieve_checks(table: PrimeTable) -> list[CheckEntry]:
    import numpy as np

    entries: list[CheckEntry] = []
    t0 = time.perf_counter()
    mask = table.odd_prime_mask()
    odd_vals = 2 * np.arange(mask.size, dtype=np.int64) + 1
    pi_at_odd = np.cumsum(mask) + 1  # counts the prime 2 for every odd x >= 3
    pi_at_odd[0] = 0
    comp = (~mask) & (odd_vals >= 9)
    k_of = np.cumsum(comp)
    lhs = odd_vals[comp]
    ks = k_of[comp]
    pis = pi_at_odd[comp]
    setup_ms = (time.perf_counter() - t0) * 1000.0

    def add(ref, claim, ok, counterexample, elapsed, rng=None, witnesses=()):
        entries.append(
            CheckEntry(
                ref,
                claim,
                "holds" if ok else "fails",
                rng,
                None if ok else counterexample,
                witnesses,
                elapsed,
            )
        )

    (bad,), ms = _timed(lambda: (np.nonzero(lhs != 2 * ks + 2 * pis - 1)[0],))
    add(
        "sieve/composite-count-identity",
        "the k-th odd composite equals 2k + 2 pi(value) - 1 for every indexed k",
        bad.size == 0,
        int(lhs[bad[0]]) if bad.size else None,
        setup_ms + ms,
        (9, table.limit),
    )

    def surplus():
        holds_idx = ks[pis >= ks + 2]
        first_fail = int(ks[pis < ks + 2][0]) if (pis < ks + 2).any() else None
        return holds_idx, first_fail

    (holds_idx, first_fail), ms = _timed(surplus)
    prefix_ok = bool((holds_idx[:22] == np.arange(1, 23)).all()) if holds_idx.size >= 22 else False
    add(
        "sieve/prime-surplus-window",
        "pi at the i-th odd composite stays >= i + 2 exactly up to i = 22; the "
        "first failure is i = 23 where pi(93) = 24",
        prefix_ok and first_fail == 23 and table.prime_count(93) == 24,
        first_fail,
        ms,
        witnesses=((23, 93, 24),),
    )

    def upper():
        sel = ks >= 31
        bad1 = lhs[sel][pis[sel] > ks[sel] - 1]
        bad2 = lhs[sel][lhs[sel] > 4 * ks[sel] - 3]
        return bad1, bad2

    (bad1, bad2), ms = _timed(upper)
    add(
        "sieve/index-upper-bounds",
        "from index 31 on, pi(value) <= k - 1 and value <= 4k - 3",
        bad1.size == 0 and bad2.size == 0,
        int(bad1[0]) if bad1.size else (int(bad2[0]) if bad2.size else None),
        ms,
        (31, table.limit),
    )

    def band():
        xs = np.arange(17, table.limit + 1, dtype=np.float64)
        flags = np.zeros(table.limit + 1, dtype=bool)
        flags[2] = True
        flags[3::2] = mask[1:]
        pi_all = np.cumsum(flags)[17:]
        guard = 1e-12  # double-precision slop on the strict inequalities
        ratio = xs / np.log(xs)
        low_bad = np.nonzero(pi_all <= ratio * (1 - guard))[0]
        high_bad = np.nonzero(pi_all >= 1.25506 * ratio * (1 + guard))[0]
        return low_bad, high_bad

    (low_bad, high_bad), ms = _timed(band)
    add(
        "sieve/prime-count-band",
        "x/ln x < pi(x) < 1.25506 x/ln x for every x in [17, limit] "
        "(checked in double precision with a 1e-12 relative guard)",
        low_bad.size == 0 and high_bad.size == 0,
        int(low_bad[0] + 17) if low_bad.size else (int(high_bad[0] + 17) if high_bad.size else None),
        ms,
        (17, table.limit),
    )

    def rough_bound():
        bad = []
        m = 1
        while 13 ** (m + 1) <= table.limit:
            sel = lhs >= 13 ** (m + 1)
            if (pis[sel] * m >= ks[sel]).any() or (
                lhs[sel] >= (2 + 2 / m) * ks[sel] - 1
            ).any():
                bad.append(m)
            m += 1
        return bad, m - 1

    (bad_ms, max_m), ms = _timed(rough_bound)
    add(
        "sieve/prime-count-scaling",
        "whenever the k-th odd composite reaches 13^(m+1), pi(value) < k/m and "
        "value < (2 + 2/m)k - 1",
        not bad_ms,
        bad_ms[0] if bad_ms else None,
        ms,
        witnesses=((1, max_m),),
    )

    def log_bound():
        sel = ks >= 31
        bound = (0.5 * np.log(4 * ks[sel].astype(np.float64)) - 1) * pis[sel] + 1
        return np.nonzero(ks[sel] >= bound)[0]

    bad3, ms = _timed(log_bound)
    add(
        "sieve/index-log-bound",
        "for k >= 31, k < (ln(4k)/2 - 1) pi(value) + 1",
        bad3.size == 0,
        int(bad3[0]) if bad3.size else None,
        ms,
        (31, table.limit),
    )
    return entries


def _random_hypothesis_tuples(index: CompositeIndex, count: int, value_cap: int):
    rng = random.Random(RANDOM_TUPLE_SEED)
    total = index.count(value_cap)
    pool = [index.nth(k) for k in range(1, total + 1)]
    out = []
    while len(out) < count:
        size = rng.randint(1, min(22, total))
        ks = tuple(sorted(rng.sample(pool, size)))
        out.append(ks)
    return out


def _collapse_checks(table: PrimeTable, limit: int) -> list[CheckEntry]:
    entries: list[CheckEntry] = []
    index = CompositeIndex(table)
    k_max = min(10_000, index.count(table.limit))

    rep, ms = _timed(lambda: col.shifted_composite_pair_sweep(k_max, table))
    entries.append(
        CheckEntry(
            "collapse/shifted-pair-sweep",
            "3 + (k-th odd composite) is a sum of two distinct smaller odd "
            "composites for every k in [3, k_max] except exactly k = 4 and k = 7",
            "holds" if rep.pair_missing == (4, 7) else "fails",
            (3, k_max),
            None if rep.pair_missing == (4, 7) else rep.pair_missing,
            (rep.pair_witnesses.get(3, ()),),
            ms,
        )
    )
    even_ok = rep.even_exceptions == (6, 14, 19) and rep.even_distinct_exceptions == (6, 9, 14, 19)
    entries.append(
        CheckEntry(
            "collapse/even-shift-membership",
            "2k is a sum of two odd composites or 3 plus a prime, except exactly "
            "k = 6, 14, 19; demanding distinct composites adds only k = 9",
            "holds" if even_ok else "fails",
            (3, k_max),
            None if even_ok else (rep.even_exceptions, rep.even_distinct_exceptions),
            (),
            0.0,
        )
    )

    v, ms = _timed(lambda: col.composite_removal_check((9, 15, 21), table))
    entries.append(
        _entry_from_verdict(
            "collapse/removal-triple",
            "removing {9, 15, 21} keeps every even pair sum reachable (exact)",
            v,
            ms,
        )
    )
    first22 = index.first(22)
    v, ms = _timed(lambda: col.composite_removal_check(first22, table))
    entries.append(
        _entry_from_verdict(
            "collapse/removal-first-22",
            "removing the first 22 odd composites keeps every even pair sum "
            "reachable (exact)",
            v,
            ms,
        )
    )

    def random_tuples():
        cap = min(2000, table.limit)
        statuses = []
        for ks in _random_hypothesis_tuples(index, 100, cap):
            verdict = col.composite_removal_check(ks, table)
            statuses.append(verdict.status)
        return statuses

    statuses, ms = _timed(random_tuples)
    ok = all(s is Status.HOLDS for s in statuses)
    entries.append(
        CheckEntry(
            "collapse/removal-random-tuples",
            "100 seeded random removal tuples satisfying the prime-surplus "
            "hypothesis all earn exact certificates",
            "holds" if ok else "fails",
            None,
            None if ok else [s.value for s in statuses if s is not Status.HOLDS][:3],
            ((RANDOM_TUPLE_SEED,),),
            ms,
        )
    )

    fam = col.primorial_odd_products(min(limit, table.limit))
    v, ms = _timed(lambda: col.gap_subsequence_check(fam, table))
    entries.append(
        _entry_from_verdict(
            "collapse/gap-family-primorial",
            "removing the odd primorial products keeps pair sums reachable (exact)",
            v,
            ms,
        )
    )
    chain = col.euclid_chain_composites(min(limit, table.limit))
    if chain:
        v, ms = _timed(lambda: col.gap_subsequence_check(chain, table))
        entries.append(
            _entry_from_verdict(
                "collapse/gap-family-euclid-chain",
                "removing the composite terms of the product-plus-one chain keeps "
                "pair sums reachable (exact)",
                v,
                ms,
            )
        )

    v, ms = _timed(lambda: col.prefix_removal_cascade(1, 7, table))
    entries.append(
        _entry_from_verdict(
            "collapse/prefix-cascade",
            "leave-one-out removals of the first 8 odd composites and the full "
            "removal all verify exactly",
            v,
            ms,
        )
    )

    v, ms = _timed(
        lambda: col.progression_removal_check(3, 2, (9, 15, 21), (3, 10_000), table)
    )
    entries.append(
        _entry_from_verdict(
            "collapse/progression-removal",
            "the three-term removal from the odd progression passes all three "
            "hypotheses and its windowed conclusion",
            v,
            ms,
        )
    )

    rep, ms = _timed(lambda: col.parameter_uniqueness_report(table, min(limit, 100_000)))
    ok = rep.all_confirmed and rep.window_verdict.ok
    entries.append(
        CheckEntry(
            "collapse/base-parameter-scan",
            "every wrong (base, prime-floor) pairing exhibits its concrete "
            "obstruction; the surviving pairing verifies on-window",
            "holds_on_window" if ok else "fails",
            rep.window_verdict.certified_range,
            None if ok else [c.label for c in rep.cases if not c.confirmed],
            tuple(c.label for c in rep.cases),
            ms,
        )
    )
    return entries


def _strata_checks(table: PrimeTable, limit: int) -> list[CheckEntry]:
    entries: list[CheckEntry] = []
    st, ms = _timed(lambda: strata_mod.compute_strata(limit, table))
    single = st.max_layer == 1 and not st.unassigned
    entries.append(
        CheckEntry(
            "strata/single-layer",
            "every odd composite in range lands in layer 1 (its shift by 3 is a "
            "sum of two odd primes)",
            "holds" if single else "fails",
            (9, limit),
            None if single else (st.max_layer, len(st.unassigned)),
            ((st.census().get(1, {}).get("count", 0),),),
            ms,
        )
    )
    rep, ms = _timed(lambda: strata_mod.verify_partition(st, table))
    entries.append(
        CheckEntry(
            "strata/partition-audit",
            "the layer assignment covers every odd composite exactly once with "
            "consistent witnesses",
            "holds" if rep.ok else "fails",
            (9, limit),
            None if rep.ok else rep.anomalies[:3],
            (),
            ms,
        )
    )
    absorb_hi = min(limit, 100_000)
    rep, ms = _timed(lambda: strata_mod.verify_absorption(st, 3, (9, absorb_hi), table))
    entries.append(
        CheckEntry(
            "strata/absorption-pairs",
            "3 + c is a two-odd-prime sum for every layer-1 member (higher layers "
            "vacuous)",
            "holds" if rep.ok else "fails",
            (9, absorb_hi),
            None if rep.ok else rep.failures[:3],
            (),
            ms,
        )
    )
    fold_hi = min(limit, 100_000)
    for n in (2, 3, 4):
        v, ms = _timed(lambda n=n: strata_mod.nfold_collapse_check(n, (3, fold_hi), table))
        entries.append(
            _entry_from_verdict(
                f"strata/nfold-collapse-{n}",
                f"{n}-fold sums of odd integers >= 3 equal {n}-fold sums of odd "
                "primes on the window",
                v,
                ms,
            )
        )
    for n in (3, 4):
        v, ms = _timed(
            lambda n=n: strata_mod.nfold_all_integers_check(n, (2, fold_hi), table)
        )
        entries.append(
            _entry_from_verdict(
                f"strata/nfold-all-integers-{n}",
                f"{n}-fold sums of integers >= 2 equal {n}-fold sums of primes on "
                "the window",
                v,
                ms,
            )
        )
    for p in (3, 5):
        ev, ms = _timed(
            lambda p=p: strata_mod.rough_pair_cover_evidence(p, (3, fold_hi), table)
        )
        entries.append(
            CheckEntry(
                f"strata/pair-cover-evidence-p{p}",
                f"pair sums of {p}-rough numbers fall inside pair sums of primes "
                f">= {p} on the window (evidence only)",
                "holds_on_window" if ev.clean else "fails",
                ev.certified_range,
                None if ev.clean else ev.violations[:3],
                ((ev.violation_count,),),
                ms,
            )
        )
    return entries


def _ring_checks() -> list[CheckEntry]:
    entries: list[CheckEntry] = []
    Z = ring.ZmSubset.from_elements

    def z4():
        b, c = Z(4, [1]), Z(4, [3])
        return ring.zm_relation(b, c, 2, 2).symmetric and not ring.zm_relation(
            b, c, 3, 3
        ).sumset_equal

    ok, ms = _timed(z4)
    entries.append(
        CheckEntry(
            "ring/z4-pair-swap",
            "mod 4, {1} and {3} exchange under the pair relation but not the "
            "triple relation",
            "holds" if ok else "fails",
            None,
            None,
            (),
            ms,
        )
    )

    def z8():
        b, c = Z(8, [0, 2, 4]), Z(8, [0, 2])
        return (
            ring.zm_relation(b, c, 3, 3).directed
            and ring.zm_relation(b, c, 1, 2).directed
            and ring.zm_relation(b, c, 2, 3).directed
            and not ring.zm_relation(b, c, 2, 2).sumset_equal
        )

    ok, ms = _timed(z8)
    entries.append(
        CheckEntry(
            "ring/z8-fold-counterexample",
            "mod 8, {0,2,4} onto {0,2} holds for folds (3,3), (1,2), (2,3) yet "
            "fails for (2,2)",
            "holds" if ok else "fails",
            None,
            None,
            (),
            ms,
        )
    )

    def z6():
        b = Z(6, [0, 2])
        return all(
            any(o.mask == b.mask for o in ring.zm_optimal_subsets(6, n))
            for n in range(2, 6)
        )

    ok, ms = _timed(z6)
    entries.append(
        CheckEntry(
            "ring/z6-optimal-pair",
            "mod 6, {0,2} is an optimal subset for every fold count in [2, 5]",
            "holds" if ok else "fails",
            None,
            None,
            (),
            ms,
        )
    )
    return entries


def run_battery(limit: int) -> list[CheckEntry]:
    table = PrimeTable(limit)
    entries = []
    entries += _sieve_checks(table)
    entries += _collapse_checks(table, limit)
    entries += _strata_checks(table, limit)
    entries += _ring_checks()
    entries.sort(key=lambda e: e.ref)
    return entries


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_verify(args) -> int:
    entries = run_battery(args.limit)
    payload = {
        "schema": SCHEMA_VERSION,
        "suite": args.suite,
        "limit": args.limit,
        "checks": [e.to_dict(args.timings) for e in entries],
        "passed": sum(1 for e in entries if e.ok),
        "failed": sum(1 for e in entries if not e.ok),
    }
    _write_report(args.out, payload)
    if args.format == "json":
        sys.stdout.write(_canonical_json(payload))
    else:
        for e in entries:
            mark = "PASS" if e.ok else "FAIL"
            print(f"{mark} {e.ref} [{e.status}] {e.claim}")
            if e.status == "fails":
                print(f"     counterexample: {e.counterexample}")
        print(f"{payload['passed']} passed, {payload['failed']} failed")
    return 1 if payload["failed"] else 0


def _cmd_sieve(args) -> int:
    table = PrimeTable(args.limit)
    index = CompositeIndex(table)
    info = {
        "schema": SCHEMA_VERSION,
        "limit": args.limit,
        "prime_count": table.prime_count(args.limit),
        "odd_composite_count": index.count(args.limit),
    }
    if args.check:
        entries = _sieve_checks(table)
        info["checks"] = [e.to_dict(args.timings) for e in entries]
        info["failed"] = sum(1 for e in entries if not e.ok)
    _write_report(args.out, info)
    if args.format == "json":
        sys.stdout.write(_canonical_json(info))
    else:
        print(f"primes <= {args.limit}: {info['prime_count']}")
        print(f"odd composites <= {args.limit}: {info['odd_composite_count']}")
        for e in info.get("checks", []):
            mark = "PASS" if is_success(e["status"]) else "FAIL"
            print(f"{mark} {e['ref']}")
    return 1 if info.get("failed") else 0


def _cmd_strata(args) -> int:
    table = PrimeTable(args.limit)
    st = strata_mod.compute_strata(args.limit, table)
    if args.csv:
        st.write_csv(args.csv)
    payload = st.census_dict()
    _write_report(args.out, payload)
    if args.format == "json":
        sys.stdout.write(_canonical_json(payload))
    else:
        for layer, info in st.census().items():
            print(
                f"layer {layer}: {info['count']} composites in "
                f"[{info['min']}, {info['max']}]"
            )
        if st.unassigned:
            print(f"unassigned: {len(st.unassigned)} (anomaly)")
    return 1 if st.unassigned else 0


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
    table = PrimeTable(max(hi, 9, 2 * removed_top + 6))
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


def _cmd_ring(args) -> int:
    rows = list(ring.relation_table_rows(args.modulus, args.nmax))
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [
                    "modulus",
                    "b_mask",
                    "b_elements",
                    "c_mask",
                    "c_elements",
                    "m_fold",
                    "n_fold",
                    "sumset_equal",
                    "fp",
                    "subset",
                    "symmetric",
                    "directed",
                ]
            )
            for r in rows:
                writer.writerow(
                    [
                        args.modulus,
                        r.b.mask,
                        "|".join(map(str, r.b.elements())),
                        r.c.mask,
                        "|".join(map(str, r.c.elements())),
                        r.m_fold,
                        r.n_fold,
                        int(r.sumset_equal),
                        int(r.fp),
                        int(r.subset),
                        int(r.symmetric),
                        int(r.directed),
                    ]
                )
    directed = sum(1 for r in rows if r.directed)
    payload = {
        "schema": SCHEMA_VERSION,
        "modulus": args.modulus,
        "n_max": args.nmax,
        "rows": len(rows),
        "directed_rows": directed,
    }
    _write_report(args.out, payload)
    if args.format == "json":
        sys.stdout.write(_canonical_json(payload))
    else:
        print(f"{len(rows)} rows for modulus {args.modulus}, folds up to {args.nmax}")
        print(f"directed relation holds in {directed} rows")
    return 0


def _cmd_partitions(args) -> int:
    expr = parse_set_expr(args.set)
    table = PrimeTable(max(args.target, 9))
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
    p.add_argument("--suite", choices=("theorems",), default="theorems")
    p.add_argument("--limit", type=int, default=1_000_000)
    p.add_argument("--timings", action="store_true", help="include real timings (non-reproducible)")
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
    p.add_argument("--directed", action="store_true", default=True)
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
