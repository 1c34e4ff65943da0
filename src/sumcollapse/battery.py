"""The theorem-check battery behind ``sumcollapse verify``.

Four groups of checks -- sieve, collapse, strata and ring -- each a
generator that yields ``(ref, claim, expected, verdict)``: every check
declares the status it expects, and its outcome is a
:class:`~sumcollapse.verdict.RelationVerdict`.  A check passes only when
its verdict's status *is* the expected one, so a slide from ``holds`` to
``holds_on_window`` fails as surely as a counterexample does.

The sieve group reads the prime table once, in blocks of
``CHECKPOINT_BITS`` odd numbers, as one table of runs [p, q - 1] between
consecutive primes, carrying only the last prime and the prime count.  pi
is constant on a run, so each check is decided at one end of each run and
searched value by value only inside the first run that fails.  No
composite rank is carried: k is read from c and pi(c) through the
composite-count identity, which is decided once, at the first odd
composite, and the final prime count is checked against the table's
checkpoints.  The value forms of the index bound and of scaling are their
pi forms with pi shifted by a constant, decided on the same runs.  The strata
group reads the strata stream once
(:func:`~sumcollapse.strata.audit_layer_one` over
:func:`~sumcollapse.strata.strata_blocks`: each block's layer 1 is searched
by one shifted-mask pass per prime over its flags and a margin of
``strata.MARGIN_ODDS`` odd numbers below it, and each exception is placed
in a deeper layer from a ``{composite: layer}`` map).  It audits each block
against a separate read, its layer-1 witness pairs looked up with
``PrimeTable.odd_prime_at`` and its deeper witnesses peeled one by one
against its own map, carrying only the layer counts, the map and the first
anomalies.  So no check holds a strata array over the whole limit, and none
unpacks a prefix of the table past layer 1's first margin: the absorption
check (on its 10^5 cap) and the pair sweep look primes up with
``odd_prime_at`` too.  Work the other groups share (the pair sweep) lives in
the group's own frame and is freed when the group ends.
"""

from __future__ import annotations

import random
import resource
import time
from dataclasses import dataclass

import numpy as np

from . import collapse as col
from . import finite_ring as ring
from . import strata as strata_mod
from .sieve import CompositeIndex, PrimeTable
from .verdict import RelationVerdict, Status, jsonable

HOLDS, WINDOW = Status.HOLDS, Status.HOLDS_ON_WINDOW
RANDOM_TUPLE_SEED = 0x5EED
MIN_LIMIT = 93  # sieve/prime-surplus-window reads pi(93)


def require_limit(limit: int) -> None:
    if limit < MIN_LIMIT:
        raise ValueError(
            f"battery limit must be >= {MIN_LIMIT} (the prime-surplus check reads "
            f"pi({MIN_LIMIT})), got {limit}"
        )


@dataclass(frozen=True)
class CheckResult:
    ref: str
    claim: str
    expected: Status
    verdict: RelationVerdict
    elapsed_ms: float = 0.0
    peak_rss_kb: int = 0  # the process's peak RSS once the check is done

    @property
    def passed(self) -> bool:
        return self.verdict.status is self.expected

    def to_dict(self, timings: bool) -> dict:
        """The report entry; with ``timings`` it carries the check's time and
        the peak RSS after it, so the check that sets the peak shows."""
        v = self.verdict
        entry = {
            "ref": self.ref,
            "claim": self.claim,
            "status": v.status.value,
            "certified_range": jsonable(v.certified_range),
            "counterexample": jsonable(v.counterexample),
            "witnesses": jsonable(v.witnesses[:8]),
            "elapsed_ms": round(self.elapsed_ms, 3) if timings else 0,
        }
        if timings:
            entry["peak_rss_kb"] = self.peak_rss_kb
        return entry


def decided(
    ok: bool,
    counterexample,
    certified_range: tuple[int, int] | None = None,
    witnesses: tuple = (),
    good: Status = HOLDS,
) -> RelationVerdict:
    """The verdict of a yes/no check: ``good``, or ``fails`` carrying the
    counterexample (a failure without one is a fault of the check)."""
    if ok:
        return RelationVerdict(good, certified_range=certified_range, witnesses=witnesses)
    if counterexample is None:
        raise RuntimeError("a check failed without a counterexample")
    return RelationVerdict(
        Status.FAILS,
        counterexample=counterexample,
        certified_range=certified_range,
        witnesses=witnesses,
    )


def run(*groups) -> list[CheckResult]:
    """Drain the groups in order; each check's time runs from the end of the
    previous one, so a group's setup counts toward its first check, and its
    peak RSS (``ru_maxrss``, in KB on Linux) is read as it ends."""
    results = []
    t0 = time.perf_counter()
    for group in groups:
        for ref, claim, expected, verdict in group:
            t1 = time.perf_counter()
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            results.append(
                CheckResult(ref, claim, expected, verdict, (t1 - t0) * 1000.0, peak)
            )
            t0 = t1
    results.sort(key=lambda r: r.ref)
    return results


def run_battery(limit: int) -> list[CheckResult]:
    require_limit(limit)
    table = PrimeTable(limit)
    return run(
        sieve_checks(table),
        collapse_checks(table, limit),
        strata_checks(table, limit),
        ring_checks(),
    )


# ---------------------------------------------------------------------------
# sieve


def sieve_checks(table: PrimeTable):
    """The six prime-count checks, decided in one pass over the table in
    blocks of ``CHECKPOINT_BITS`` odd numbers, once per run of constant pi.

    The k-th odd composite c has k = (c - 2 pi(c) - d)/2 for one d: to the
    next odd composite, c rises by 2 plus 2 per flagged value between them,
    k by 1 and pi by those values.  The odd numbers up to c are the k
    composites, the pi(c) - 1 flagged ones and the unflagged ones below 9,
    so the identity c = 2k + 2 pi(c) - 1 holds exactly when 1 is unflagged
    and 3, 5 and 7 are flagged, and otherwise fails at every c: it is
    decided at the first odd composite.  The value forms of pi-bound
    (c > 4k - 3) and scaling (c >= (2 + 2/m)k - 1) are their pi forms with
    h = (c + 1)/2 - k for pi, and h - pi is the same constant at every c (0
    where the identity holds), so they are decided on the same runs: pi-bound
    reports its first pi failure, else its first value failure, and scaling
    fails for m where either form does.

    pi is constant on each run [p, q - 1] between consecutive cuts p < q
    (the flagged odd values and 2; the last run closes at the limit), so a
    check can first fail on a run only at one end: the band's low side at
    the end and its high side at the start (x/ln x rises by about 1/ln x per
    step, far above double rounding); pi-bound (pi > k - 1) and scaling
    (pi m >= k) at the first odd composite, or scaling at a power 13^(m+1)
    inside the run; log-bound at the last, since from k = 31 on it fails
    only where pi < 2k (else k - (ln(4k)/2 - 1) pi <= k (3 - ln 4k) < 0),
    and there its difference rises in k.  Each check keeps its first failure
    (scaling its least m), searched only inside the first run that fails.
    The surplus is :func:`~sumcollapse.collapse.surplus_shortfall`'s, and
    the final pi must match ``table.prime_count(limit)`` (the checkpoints).
    """
    require_limit(table.limit)
    limit = table.limit
    # 13^(m+1) for m = 1, 2, ... up to the limit
    powers = np.array([13**j for j in range(2, limit.bit_length()) if 13**j <= limit], np.int64)
    guard = 1e-12  # double-precision slop on the band's strict inequalities
    fails = {  # each check's predicate on (x or k, pi)
        "band-low": lambda x, pi: pi <= x / np.log(x.astype(float)) * (1 - guard),
        "band-high": lambda x, pi: pi >= 1.25506 * (x / np.log(x.astype(float))) * (1 + guard),
        "pi-bound": lambda k, pi: pi > k - 1,
        "value-bound": lambda k, h: h > k - 1,
        "log-bound": lambda k, pi: k >= (0.5 * np.log(4 * k.astype(float)) - 1) * pi + 1,
    }
    first: dict[str, int] = {}  # a check -> its first failure
    bad_ms: set[int] = set()  # m's that scaling fails for, the least one always among them
    lead = None  # the first odd composite and pi there

    def search(part, lo, hi, pis, at, report=lambda v, pi: v):
        """Note the first failure of ``part`` on the runs [lo, hi] of constant
        ``pis``, where on each run it first fails at ``at`` (lo or hi) if
        anywhere; only the first run that fails is searched value by value.
        ``report`` maps the failing value and pi there to what is noted."""
        if part in first or not (bad := fails[part](at, pis)).any():
            return
        r = int(bad.argmax())
        values = np.arange(lo[r], hi[r] + 1)
        first[part] = int(report(values[fails[part](values, pis[r]).argmax()], pis[r]))

    def runs(starts, ends, pis):
        nonlocal lead
        r = int(ends.searchsorted(17))  # the band's runs, from x = 17: a suffix
        xs, ends_x, pis_x = np.maximum(starts[r:], 17), ends[r:], pis[r:]
        search("band-low", xs, ends_x, pis_x, ends_x)
        search("band-high", xs, ends_x, pis_x, xs)

        c0, c1 = np.maximum(starts + 2, 9), (ends - 1) | 1  # each run's odd composites
        has = c0 <= c1
        if not has.any():
            return
        c0, c1, pis = c0[has], c1[has], pis[has]
        if lead is None:
            lead = int(c0[0]), int(pis[0])
        d = lead[0] - 2 * lead[1] - 2
        hs = pis + (d + 1) // 2  # h = (c + 1)/2 - k on each run
        k0, k1 = (c0 - 2 * pis - d) >> 1, (c1 - 2 * pis - d) >> 1

        r = int(k1.searchsorted(31))  # k rises over the runs, so those reaching 31 are a suffix
        k31 = np.maximum(k0[r:], 31)
        search("pi-bound", k31, k1[r:], pis[r:], k31, lambda k, pi: 2 * k + 2 * pi + d)
        search("value-bound", k31, k1[r:], hs[r:], k31, lambda k, h: 2 * (k + h) - 1)
        search("log-bound", k31, k1[r:], pis[r:], k1[r:])

        top = np.maximum(pis, hs)  # scaling fails where pi m >= k or h m >= k
        need = -(-k0 // top)  # the least such m at each run's start
        bad = need[need <= powers.searchsorted(c0, side="right")]
        if bad.size:
            bad_ms.add(int(bad.min()))
        for m, power in enumerate(powers.tolist(), start=1):
            r = int(c1.searchsorted(power))
            if r < c1.size and c0[r] < power and top[r] * m >= k0[r] + (power - c0[r]) // 2:
                bad_ms.add(m)

    # the first cut is 2; a flagged 1 cuts after it, out of order, but no
    # check reads an x below 9
    start, pi = 2, 1
    for i0, mask in table.odd_prime_blocks():
        cuts = 2 * (i0 + np.flatnonzero(mask)) + 1
        if cuts.size:
            runs(np.append(start, cuts[:-1]), cuts - 1, pi + np.arange(cuts.size))
            start, pi = int(cuts[-1]), pi + cuts.size
    runs(np.array([start]), np.array([limit]), np.array([pi]))
    if pi != (counted := table.prime_count(limit)):  # the checkpoints' count
        raise RuntimeError(f"the sieve pass counts {pi} primes up to {limit}, the table {counted}")

    bad = lead[0] if lead and lead[0] != 2 * lead[1] + 1 else None
    yield (
        "sieve/composite-count-identity",
        "the k-th odd composite equals 2k + 2 pi(value) - 1 for every indexed k",
        HOLDS,
        decided(bad is None, bad, (9, limit)),
    )

    bad = col.surplus_shortfall(table.odd_composites_in(9, limit), table)
    yield (
        "sieve/prime-surplus-window",
        "pi at the i-th odd composite stays >= i + 2 exactly up to i = 22; the "
        "first failure is i = 23 where pi(93) = 24",
        HOLDS,
        # a first failure at i = 23 means every i <= 22 holds; with no failure
        # at all, the claimed one at i = 23 is what fails
        decided(
            bad == 23 and table.prime_count(93) == 24,
            23 if bad is None else bad,
            witnesses=((23, 93, 24),),
        ),
    )

    bad = first.get("pi-bound", first.get("value-bound"))
    yield (
        "sieve/index-upper-bounds",
        "from index 31 on, pi(value) <= k - 1 and value <= 4k - 3",
        HOLDS,
        decided(bad is None, bad, (31, limit)),
    )

    bad = first.get("band-low", first.get("band-high"))
    yield (
        "sieve/prime-count-band",
        "x/ln x < pi(x) < 1.25506 x/ln x for every x in [17, limit] "
        "(checked in double precision with a 1e-12 relative guard)",
        HOLDS,
        decided(bad is None, bad, (17, limit)),
    )

    yield (
        "sieve/prime-count-scaling",
        "whenever the k-th odd composite reaches 13^(m+1), pi(value) < k/m and "
        "value < (2 + 2/m)k - 1",
        HOLDS,
        decided(not bad_ms, min(bad_ms, default=None), witnesses=((1, powers.size),)),
    )

    bad = first.get("log-bound")
    yield (
        "sieve/index-log-bound",
        "for k >= 31, k < (ln(4k)/2 - 1) pi(value) + 1",
        HOLDS,
        decided(bad is None, bad, (31, limit)),
    )


# ---------------------------------------------------------------------------
# collapse


def _random_hypothesis_tuples(index: CompositeIndex, count: int, value_cap: int):
    rng = random.Random(RANDOM_TUPLE_SEED)
    total = index.count(value_cap)
    pool = list(index.first(total))
    out = []
    while len(out) < count:
        size = rng.randint(1, min(22, total))
        ks = tuple(sorted(rng.sample(pool, size)))
        out.append(ks)
    return out


def collapse_checks(table: PrimeTable, limit: int):
    index = CompositeIndex(table)
    k_max = min(10_000, index.count(table.limit))

    rep = col.shifted_composite_pair_sweep(k_max, table)
    yield (
        "collapse/shifted-pair-sweep",
        "3 + (k-th odd composite) is a sum of two distinct smaller odd "
        "composites for every k in [3, k_max] except exactly k = 4 and k = 7",
        HOLDS,
        decided(
            rep.pair_missing == (4, 7),
            rep.pair_missing,
            (3, k_max),
            (rep.pair_witnesses.get(3, ()),),
        ),
    )
    even = (rep.even_exceptions, rep.even_distinct_exceptions)
    yield (
        "collapse/even-shift-membership",
        "2k is a sum of two odd composites or 3 plus a prime, except exactly "
        "k = 6, 14, 19; demanding distinct composites adds only k = 9",
        HOLDS,
        decided(even == ((6, 14, 19), (6, 9, 14, 19)), even, (3, k_max)),
    )

    yield (
        "collapse/removal-triple",
        "removing {9, 15, 21} keeps every even pair sum reachable (exact)",
        HOLDS,
        col.composite_removal_check((9, 15, 21), table),
    )
    yield (
        "collapse/removal-first-22",
        "removing the first 22 odd composites keeps every even pair sum "
        "reachable (exact)",
        HOLDS,
        col.composite_removal_check(index.first(22), table),
    )

    statuses = [
        col.composite_removal_check(ks, table).status
        for ks in _random_hypothesis_tuples(index, 100, min(2000, table.limit))
    ]
    yield (
        "collapse/removal-random-tuples",
        "100 seeded random removal tuples satisfying the prime-surplus "
        "hypothesis all earn exact certificates",
        HOLDS,
        decided(
            all(s is HOLDS for s in statuses),
            [s.value for s in statuses if s is not HOLDS][:3],
            witnesses=((RANDOM_TUPLE_SEED,),),
        ),
    )

    fam = col.primorial_odd_products(min(limit, table.limit))
    yield (
        "collapse/gap-family-primorial",
        "removing the odd primorial products keeps pair sums reachable (exact)",
        HOLDS,
        col.gap_subsequence_check(fam, table),
    )
    chain = col.euclid_chain_composites(min(limit, table.limit))
    if chain:
        yield (
            "collapse/gap-family-euclid-chain",
            "removing the composite terms of the product-plus-one chain keeps "
            "pair sums reachable (exact)",
            HOLDS,
            col.gap_subsequence_check(chain, table),
        )

    yield (
        "collapse/prefix-cascade",
        "leave-one-out removals of the first 8 odd composites and the full "
        "removal all verify exactly",
        HOLDS,
        col.prefix_removal_cascade(1, 7, table),
    )
    yield (
        "collapse/progression-removal",
        "the three-term removal from the odd progression passes all three "
        "hypotheses and its windowed conclusion",
        WINDOW,
        col.progression_removal_check(3, 2, (9, 15, 21), (3, 10_000), table),
    )

    rep = col.parameter_uniqueness_report(table, min(limit, 100_000))
    yield (
        "collapse/base-parameter-scan",
        "every wrong (base, prime-floor) pairing exhibits its concrete "
        "obstruction; the surviving pairing verifies on-window",
        WINDOW,
        decided(
            rep.all_confirmed and rep.window_verdict.ok,
            [c.label for c in rep.cases if not c.confirmed],
            rep.window_verdict.certified_range,
            tuple(c.label for c in rep.cases),
            good=WINDOW,
        ),
    )


# ---------------------------------------------------------------------------
# strata


def strata_checks(table: PrimeTable, limit: int):
    """The strata checks.  Both the layer assignment and its audit come
    from one read of the strata stream
    (:func:`~sumcollapse.strata.audit_layer_one`), which keeps only a census,
    the exceptions' ``{composite: layer}`` map and the first anomalies."""
    audit = strata_mod.audit_layer_one(limit, table)
    single = audit.max_layer == 1 and not audit.unassigned
    yield (
        "strata/single-layer",
        "every odd composite in range lands in layer 1 (its shift by 3 is a "
        "sum of two odd primes)",
        HOLDS,
        decided(
            # an entry listed twice leaves more layer-1 entries than composites
            single and audit.layer_one == audit.total_composites,
            (audit.max_layer, audit.unassigned) if not single
            else f"{audit.layer_one} layer-1 entries for {audit.total_composites} odd composites",
            (9, limit),
            ((audit.layer_one,),),
        ),
    )
    yield (
        "strata/partition-audit",
        "the layer assignment covers every odd composite exactly once with "
        "consistent witnesses",
        HOLDS,
        decided(not audit.anomalies, audit.anomalies[:3], (9, limit)),
    )
    cap = min(limit, 100_000)
    # the classification is self-contained, so the capped table has the same members
    rep = strata_mod.verify_absorption(strata_mod.compute_strata(cap, table), 3, (9, cap), table)
    yield (
        "strata/absorption-pairs",
        "3 + c is a two-odd-prime sum for every layer-1 member (higher layers "
        "vacuous)",
        HOLDS,
        decided(rep.ok, rep.failures[:3], (9, cap)),
    )
    for n in (2, 3, 4):
        yield (
            f"strata/nfold-collapse-{n}",
            f"{n}-fold sums of odd integers >= 3 equal {n}-fold sums of odd "
            "primes on the window",
            WINDOW,
            strata_mod.nfold_collapse_check(n, (3, cap), table),
        )
    for n in (3, 4):
        yield (
            f"strata/nfold-all-integers-{n}",
            f"{n}-fold sums of integers >= 2 equal {n}-fold sums of primes on "
            "the window",
            WINDOW,
            strata_mod.nfold_all_integers_check(n, (2, cap), table),
        )
    for p in (3, 5):
        ev = strata_mod.rough_pair_cover_evidence(p, (3, cap), table)
        yield (
            f"strata/pair-cover-evidence-p{p}",
            f"pair sums of {p}-rough numbers fall inside pair sums of primes "
            f">= {p} on the window (evidence only)",
            WINDOW,
            decided(
                ev.clean,
                ev.violations[:3],
                ev.certified_range,
                ((ev.violation_count,),),
                good=WINDOW,
            ),
        )


# ---------------------------------------------------------------------------
# ring


def ring_checks():
    Z = ring.ZmSubset.from_elements

    b, c = Z(4, [1]), Z(4, [3])
    broken = [] if ring.zm_relation(b, c, 2, 2).symmetric else [(2, 2)]
    if ring.zm_relation(b, c, 3, 3).sumset_equal:
        broken.append((3, 3))
    yield (
        "ring/z4-pair-swap",
        "mod 4, {1} and {3} exchange under the pair relation but not the "
        "triple relation",
        HOLDS,
        decided(not broken, broken),
    )

    b, c = Z(8, [0, 2, 4]), Z(8, [0, 2])
    broken = [f for f in ((3, 3), (1, 2), (2, 3)) if not ring.zm_relation(b, c, *f).directed]
    if ring.zm_relation(b, c, 2, 2).sumset_equal:
        broken.append((2, 2))
    yield (
        "ring/z8-fold-counterexample",
        "mod 8, {0,2,4} onto {0,2} holds for folds (3,3), (1,2), (2,3) yet "
        "fails for (2,2)",
        HOLDS,
        decided(not broken, broken),
    )

    b = Z(6, [0, 2])
    broken = [
        n
        for n in range(2, 6)
        if not any(o.mask == b.mask for o in ring.zm_optimal_subsets(6, n))
    ]
    yield (
        "ring/z6-optimal-pair",
        "mod 6, {0,2} is an optimal subset for every fold count in [2, 5]",
        HOLDS,
        decided(not broken, broken),
    )
