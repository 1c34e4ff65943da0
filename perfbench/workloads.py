"""The benchmark's workloads: step sequences, seeded inputs and expected outcomes.

Each workload is a fixed sequence of steps, run in a closed loop by one
client: every step is a fresh process (``sumcollapse`` on the command line,
or a small library driver) and the next starts when the previous one exits.

* ``battery``   -- ``verify --limit 10^7``: the headline job.  Strata
  classification and audit do most of the work, then the exact decider on
  the primorial family and the numpy sieve checks.
* ``relations`` -- windowed ``collapse --rel`` queries on dense, single-parity
  operands, where the shift-OR sumset kernel never saturates, plus exact
  removal queries whose exclusion sets come from ``--seed``.  No strata and
  no residue rings, so a strata change should not move it.  Two queries are
  expected to fail, so ``fails`` verdicts and exit code 1 go through the CLI.
* ``exports``   -- the write side of the layers ``battery`` reads: the Z/8Z
  relation table to CSV, the strata table to CSV, and the Z/11Z optimal
  subset scan.  A faster in-memory layout that slows serialisation shows here.

Every step's output is checked against expected outcomes with
:mod:`oracle`, which does not import the package.  One check of the battery
report, one relation query, or one export step is one operation.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

# -- steps ------------------------------------------------------------------


@dataclass
class StepResult:
    code: int
    stdout: str
    tmp: Path


@dataclass
class Step:
    """One process launch: ``kind`` is ``cli`` (the sumcollapse command) or
    ``zm`` (the library driver); ``{tmp}`` in ``args`` names the run's
    scratch directory.  The step stands for ``ops`` operations; ``check``
    returns one message per operation whose outcome is not the expected one."""

    label: str
    kind: str
    args: list[str]
    outputs: list[str]
    check: Callable[[StepResult], list[str]]
    ops: int = 1

    def argv(self, tmp: Path) -> list[str]:
        return [a.replace("{tmp}", str(tmp)) for a in self.args]


@dataclass
class Workload:
    name: str
    steps: list[Step]
    setup_limit: int  # largest prime table any step builds
    inputs: dict = field(default_factory=dict)


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _pairs(values) -> list:
    return [list(v) if isinstance(v, (list, tuple)) else v for v in values or []]


# -- battery ------------------------------------------------------------------


def _battery_expected(limit: int, flags: np.ndarray) -> dict[str, tuple]:
    """ref -> (status, certified range) for ``verify --limit limit``."""
    cap = min(limit, 100_000)
    odd_composites = (limit + 1) // 2 - 1 - (int(flags[: limit + 1].sum()) - 1)
    k_max = min(10_000, odd_composites)
    holds, window = "holds", "holds_on_window"
    return {
        "collapse/base-parameter-scan": (window, [6, cap]),
        "collapse/even-shift-membership": (holds, [3, k_max]),
        "collapse/gap-family-euclid-chain": (holds, None),
        "collapse/gap-family-primorial": (holds, None),
        "collapse/prefix-cascade": (holds, None),
        "collapse/progression-removal": (window, [6, 10_000]),
        "collapse/removal-first-22": (holds, None),
        "collapse/removal-random-tuples": (holds, None),
        "collapse/removal-triple": (holds, None),
        "collapse/shifted-pair-sweep": (holds, [3, k_max]),
        "ring/z4-pair-swap": (holds, None),
        "ring/z6-optimal-pair": (holds, None),
        "ring/z8-fold-counterexample": (holds, None),
        "sieve/composite-count-identity": (holds, [9, limit]),
        "sieve/index-log-bound": (holds, [31, limit]),
        "sieve/index-upper-bounds": (holds, [31, limit]),
        "sieve/prime-count-band": (holds, [17, limit]),
        "sieve/prime-count-scaling": (holds, None),
        "sieve/prime-surplus-window": (holds, None),
        "strata/absorption-pairs": (holds, [9, cap]),
        "strata/nfold-all-integers-3": (window, [6, cap]),
        "strata/nfold-all-integers-4": (window, [8, cap]),
        "strata/nfold-collapse-2": (window, [6, cap]),
        "strata/nfold-collapse-3": (window, [9, cap]),
        "strata/nfold-collapse-4": (window, [12, cap]),
        "strata/pair-cover-evidence-p3": (window, [6, cap]),
        "strata/pair-cover-evidence-p5": (window, [6, cap]),
        "strata/partition-audit": (holds, [9, limit]),
        "strata/single-layer": (holds, [9, limit]),
    }


def _euclid_chain_composites(limit: int) -> list[int]:
    terms = [2, 3]
    while True:
        nxt = 1
        for t in terms:
            nxt *= t
        nxt += 1
        if nxt > limit:
            break
        terms.append(nxt)
    return [t for t in terms[2:] if t % 2 and not oracle.is_prime(t)]


def _removal_witnesses_ok(witnesses, excluded, shown: int | None = None) -> bool:
    """The witnesses are valid, one per removed value, for the first ``shown``
    removed values when the report truncates them (the battery keeps 8)."""
    ws = _pairs(witnesses)
    cs = [w[0] for w in ws if len(w) == 3]
    return (
        len(cs) == len(ws) == min(shown or len(excluded), len(excluded))
        and len(set(cs)) == len(cs)
        and all(oracle.removal_witness_ok(w, excluded) for w in ws)
    )


def _battery(limit: int) -> Workload:
    flags = oracle.prime_flags(limit)
    expected = _battery_expected(limit, flags)
    odd_comp = oracle.odd_composites_upto(flags, limit)
    pi = lambda x: int(flags[: x + 1].sum())  # noqa: E731
    # reference values the benchmark derives itself
    values: dict[str, Callable[[list], bool]] = {
        "strata/single-layer": lambda w: w == [[len(odd_comp)]],
        "sieve/prime-surplus-window": lambda w: w == [[23, 93, pi(93)]],
        "collapse/removal-triple": lambda w: _removal_witnesses_ok(w, {9, 15, 21}, 8),
        "collapse/removal-first-22": lambda w: _removal_witnesses_ok(
            w, {int(c) for c in odd_comp[:22]}, 8
        ),
        "collapse/gap-family-primorial": lambda w: _removal_witnesses_ok(
            w, set(oracle.odd_primorial_products(limit)), 8
        ),
        "collapse/gap-family-euclid-chain": lambda w: _removal_witnesses_ok(
            w, set(_euclid_chain_composites(limit)), 8
        ),
    }

    def check(res: StepResult) -> list[str]:
        report = _read_json(res.tmp / "verify.json")
        if report is None:
            return [f"verify: no readable report (exit {res.code})"] * len(expected)
        got = {c["ref"]: c for c in report.get("checks", [])}
        failures = [f"verify: unexpected check {ref}" for ref in sorted(set(got) - set(expected))]
        for ref, (status, rng) in expected.items():
            c = got.get(ref)
            if c is None:
                failures.append(f"{ref}: missing")
            elif c["status"] != status:
                failures.append(f"{ref}: status {c['status']}, expected {status}")
            elif c["certified_range"] != rng:
                failures.append(f"{ref}: certified range {c['certified_range']}, expected {rng}")
            elif c["counterexample"] is not None:
                failures.append(f"{ref}: counterexample {c['counterexample']} on a passing check")
            elif ref in values and not values[ref](_pairs(c["witnesses"])):
                failures.append(f"{ref}: witnesses {c['witnesses']} do not match the reference")
        if res.code != 0:
            failures.append(f"verify: exit code {res.code}, expected 0")
        return failures

    step = Step(
        "verify",
        "cli",
        ["verify", "--limit", str(limit), "--format", "json", "--out", "{tmp}/verify.json"],
        ["verify.json"],
        check,
        ops=len(expected),
    )
    return Workload("battery", [step], limit, {"limit": limit})


# -- relations ----------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    rel: str
    window: tuple[int, int] | None
    b: Callable[[int], bool]
    c: Callable[[int], bool]
    folds: tuple[int, int]
    status: str
    certified_range: list[int] | None = None
    counterexample: int | None = None
    excluded: tuple[int, ...] = ()


def _windowed_queries(hi: int, small_hi: int) -> list[Query]:
    of, pf = oracle.odd_from, oracle.primes_from
    return [
        Query("odd>=3 ~(2,2)~ primes>=3", (3, hi), of(3), pf(3), (2, 2),
              "holds_on_window", [6, hi]),
        Query("odd>=3 ~(3,3)~ primes>=3", (3, hi), of(3), pf(3), (3, 3),
              "holds_on_window", [9, hi]),
        # 9 is an odd number >= 3 but not a prime: containment fails
        Query("primes>=3 ~(4,4)~ odd>=3", (3, hi), pf(3), of(3), (4, 4),
              "fails", None, 9),
        Query("ints>=2 ~(3,3)~ primes>=2", (2, hi), oracle.ints_from(2), pf(2), (3, 3),
              "holds_on_window", [6, hi]),
        Query("rough>=5 ~(2,2)~ primes>=5", (5, hi), oracle.rough_from(5), pf(5), (2, 2),
              "holds_on_window", [10, hi]),
        # 6 = 3 + 3, but two odd composites sum to at least 18
        Query("composites ~(2,2)~ odd>=3", (3, small_hi), oracle.odd_composite, of(3), (2, 2),
              "fails", [6, small_hi], 6),
    ]


def removal_sets(seed: int, count: int, top: int, flags: np.ndarray) -> list[tuple[int, ...]]:
    """Seeded exclusion sets of odd composites that meet the prime-surplus premise.

    The i-th smallest removed composite has at least i + 2 primes below it,
    so removing the set keeps every even pair sum reachable and the expected
    verdict is ``holds``.  Each set's largest element is pinned just below
    ``top``, which fixes the exact decider's scan length and the cross-check
    window, so the work does not depend on the seed.
    """
    rng = random.Random(seed)
    comps = [int(c) for c in oracle.odd_composites_upto(flags, top)]
    pi = np.cumsum(flags)
    small = [c for c in comps if c < 200]
    middle = [c for c in comps if 200 <= c < top - 200]
    largest = [c for c in comps if c >= top - 200]
    out = []
    while len(out) < count:
        n_small = rng.randint(2, 12)
        n_middle = rng.randint(2, 8)
        picked = set(rng.sample(small, n_small)) | set(rng.sample(middle, n_middle))
        ks = sorted(picked) + [rng.choice(largest)]
        if all(pi[c] >= i + 2 for i, c in enumerate(ks, start=1)):
            out.append(tuple(ks))
    return out


def _removal_query(ks: tuple[int, ...]) -> Query:
    if oracle.pair_sums_cover(ks, 2 * ks[-1] + 6) is not None:
        raise RuntimeError(f"generated removal {ks} does not keep the pair sums")
    inner = ",".join(map(str, ks))
    of = oracle.odd_from(3)
    return Query(f"odd>=3 ~(2,2)~ odd>=3 \\ {{{inner}}}", None, of, oracle.minus(of, ks),
                 (2, 2), "holds", excluded=ks)


def _query_step(i: int, q: Query) -> Step:
    args = ["collapse", "--rel", q.rel, "--format", "json"]
    if q.window is not None:
        args += ["--window", f"{q.window[0]}..{q.window[1]}"]

    def check(res: StepResult) -> list[str]:
        try:
            v = json.loads(res.stdout)["verdict"]
        except (ValueError, KeyError, TypeError):
            return [f"{q.rel}: unreadable output (exit {res.code})"]
        want_code = 1 if q.status == "fails" else 0
        if v["status"] != q.status:
            return [f"{q.rel}: status {v['status']}, expected {q.status}"]
        if res.code != want_code:
            return [f"{q.rel}: exit code {res.code}, expected {want_code}"]
        if v["certified_range"] != q.certified_range:
            return [f"{q.rel}: certified range {v['certified_range']}, expected {q.certified_range}"]
        if v["counterexample"] != q.counterexample:
            return [f"{q.rel}: counterexample {v['counterexample']}, expected {q.counterexample}"]
        if q.status == "fails" and not oracle.recheck_relation_counterexample(
            v["counterexample"], q.b, q.c, *q.folds, directed=True
        ):
            return [f"{q.rel}: counterexample {v['counterexample']} does not recheck"]
        if q.excluded and not _removal_witnesses_ok(v["witnesses"], set(q.excluded)):
            return [f"{q.rel}: witnesses {v['witnesses']} do not recheck"]
        return []

    return Step(f"query-{i}", "cli", args, [], check)


def _relations(seed: int, hi: int, small_hi: int, removal_top: int, removals: int) -> Workload:
    flags = oracle.prime_flags(removal_top)
    sets = removal_sets(seed, removals, removal_top, flags)
    queries = _windowed_queries(hi, small_hi) + [_removal_query(ks) for ks in sets]
    steps = [_query_step(i, q) for i, q in enumerate(queries)]
    table = max(hi, max(2 * ks[-1] + 6 for ks in sets))
    return Workload("relations", steps, table, {"queries": [q.rel for q in queries]})


# -- exports ------------------------------------------------------------------

# counts at this commit: optimal subsets of Z/mZ for n = 2, directed ring-table rows
OPTIMAL_COUNTS = {(11, 2): 181, (6, 2): 33}
DIRECTED_ROWS = {(8, 3): 3887, (4, 2): 40}
RING_HEADER = ["modulus", "b_mask", "b_elements", "c_mask", "c_elements", "m_fold",
               "n_fold", "sumset_equal", "fp", "subset", "symmetric", "directed"]


def _ring_step(modulus: int, nmax: int, seed: int) -> Step:
    n_rows = ((1 << modulus) - 1) ** 2 * nmax * nmax

    def check(res: StepResult) -> list[str]:
        path = res.tmp / "ring.csv"
        if res.code != 0 or not path.is_file():
            return [f"ring: exit code {res.code}, csv present {path.is_file()}"]
        sampled = set(random.Random(seed).sample(range(n_rows), min(64, n_rows)))
        directed = rows = 0
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            for rows, r in enumerate(reader, start=1):
                directed += int(r[11])
                if rows - 1 not in sampled:
                    continue
                b, c, mf, nf = int(r[1]), int(r[3]), int(r[5]), int(r[6])
                want = oracle.zm_row(b, c, mf, nf, modulus)
                got = dict(zip(RING_HEADER[7:], map(int, r[7:])))
                elems = "|".join(str(x) for x in range(modulus) if b >> x & 1)
                if got != want or r[0] != str(modulus) or r[2] != elems:
                    return [f"ring: row {r} disagrees with the reference {want}"]
        if header != RING_HEADER or rows != n_rows:
            return [f"ring: {rows} rows under {header}, expected {n_rows}"]
        if directed != DIRECTED_ROWS[modulus, nmax]:
            return [f"ring: {directed} directed rows, expected {DIRECTED_ROWS[modulus, nmax]}"]
        return []

    return Step(
        "ring",
        "cli",
        ["ring", "--modulus", str(modulus), "--nmax", str(nmax), "--csv", "{tmp}/ring.csv"],
        ["ring.csv"],
        check,
    )


def _strata_step(limit: int) -> Step:
    flags = oracle.prime_flags(limit + 3)
    comps = oracle.odd_composites_upto(flags, limit)
    census = {"1": {"count": len(comps), "min": 9, "max": int(comps[-1])}}

    def check(res: StepResult) -> list[str]:
        report = _read_json(res.tmp / "census.json")
        if res.code != 0 or report is None:
            return [f"strata: exit code {res.code}, report readable {report is not None}"]
        if (report["layers"], report["max_layer"], report["unassigned"], report["limit"]) != (
            census, 1, [], limit
        ):
            return [f"strata: census {report} disagrees with the reference {census}"]
        rows = np.loadtxt(res.tmp / "strata.csv", delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
        if len(rows) != len(comps) or not np.array_equal(rows[:, 0], comps):
            return [f"strata: csv lists {len(rows)} composites, expected {len(comps)}"]
        c, layer, p, q = rows.T
        ok = (layer == 1) & (p + q == c + 3) & (p % 2 == 1) & (q % 2 == 1) & flags[p] & flags[q]
        if not ok.all():
            return [f"strata: csv row {rows[np.argmin(ok)].tolist()} is not a layer-1 witness"]
        return []

    return Step(
        "strata",
        "cli",
        ["strata", "--limit", str(limit), "--csv", "{tmp}/strata.csv", "--out", "{tmp}/census.json"],
        ["strata.csv", "census.json"],
        check,
    )


def _zm_step(modulus: int, folds: int) -> Step:
    def check(res: StepResult) -> list[str]:
        report = _read_json(res.tmp / "optimal.json")
        if res.code != 0 or report is None:
            return [f"zm: exit code {res.code}, report readable {report is not None}"]
        masks = report["masks"]
        want = OPTIMAL_COUNTS[modulus, folds]
        if len(masks) != want or masks != sorted(set(masks)):
            return [f"zm: {len(masks)} optimal subsets, expected {want} distinct"]
        bad = [b for b in masks if not oracle.zm_is_optimal(b, folds, modulus)]
        return [f"zm: masks {bad[:5]} are not optimal"] if bad else []

    return Step(
        "zm",
        "zm",
        ["--modulus", str(modulus), "--folds", str(folds), "--out", "{tmp}/optimal.json"],
        ["optimal.json"],
        check,
    )


def _exports(seed: int, ring: tuple[int, int], strata_limit: int, zm: tuple[int, int]) -> Workload:
    steps = [_ring_step(*ring, seed), _strata_step(strata_limit), _zm_step(*zm)]
    inputs = {"ring": list(ring), "strata_limit": strata_limit, "zm": list(zm)}
    return Workload("exports", steps, strata_limit, inputs)


# sizes the benchmark runs, and the tiny ones its self-test runs
FULL = {
    "battery": lambda seed: _battery(10_000_000),
    "relations": lambda seed: _relations(seed, 200_000, 100_000, 100_000, 3),
    "exports": lambda seed: _exports(seed, (8, 3), 1_000_000, (11, 2)),
}
TINY = {
    "battery": lambda seed: _battery(30_000),
    "relations": lambda seed: _relations(seed, 2_000, 1_000, 2_000, 2),
    "exports": lambda seed: _exports(seed, (4, 2), 10_000, (6, 2)),
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return (TINY if tiny else FULL)[name](seed)
