"""The theorem-check battery behind ``sumcollapse verify``.

Four groups of checks -- sieve, collapse, strata and ring -- each a
generator that yields ``(ref, claim, expected, verdict)``: every check
declares the status it expects, and its outcome is a
:class:`~sumcollapse.verdict.RelationVerdict`.  A check passes only when
its verdict's status *is* the expected one, so a slide from ``holds`` to
``holds_on_window`` fails as surely as a counterexample does.

The sieve group reads the prime table once, in blocks of
``CHECKPOINT_BITS`` odd numbers, each one int of its prime bits, carrying
only pi: a check's predicate is monotone on a range of values, so one test
at the range's ends, with pi from popcounts, clears most of the table a
block at a time, and only a range some check may fail on is halved down to
leaves read run by run.  No composite rank is carried: k is read from c and
pi(c) through the composite-count identity, which is decided once, at the
first odd composite, and the final prime count is checked against the
table's checkpoints.  The strata group reads the strata stream
(:func:`~sumcollapse.strata.strata_bits`, one
:class:`~sumcollapse.strata.BitBlock` of Python ints per block) once for
its audit, :func:`~sumcollapse.strata.audit_layer_one`: each block's
entries against a separate read of its prime bits, its layer-1 witnesses
one AND a pass, and its deeper witnesses peeled one by one against the
audit's own map, carrying only the layer counts, the map and the first
anomalies.  The absorption check reads the stream again up to its 10^5
cap, as bitsets, and the pair sweep searches the composite bits; so no check
holds a strata table over the whole limit, and no module the battery runs
imports numpy.  Work the other groups share (the pair sweep) lives in the
group's own frame and is freed when the group ends.
"""

from __future__ import annotations

import random
import resource
import time
from bisect import bisect_right
from dataclasses import dataclass
from math import log

from . import collapse as col
from . import finite_ring as ring
from . import strata as strata_mod
from .intsets import _lsb, iter_bits
from .sieve import CompositeIndex, PrimeTable
from .verdict import RelationVerdict, Status, jsonable

HOLDS, WINDOW = Status.HOLDS, Status.HOLDS_ON_WINDOW
RANDOM_TUPLE_SEED = 0x5EED
MIN_LIMIT = 93  # sieve/prime-surplus-window reads pi(93)
SIEVE_LEAF = 1 << 8  # odd numbers in a range the sieve checks decide run by run


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


def _odd_composites(a: int, b: int, bits: int) -> int:
    """The odd composites >= 9 among the odd indices [a, b) whose prime bits
    are ``bits``, as the int of their bits."""
    comps = ~bits & ((1 << (b - a)) - 1)
    return comps >> (4 - a) << (4 - a) if a < 4 else comps  # index 4 is 9


def sieve_checks(table: PrimeTable):
    """The six prime-count checks, decided in one pass over the table in
    blocks of ``CHECKPOINT_BITS`` odd numbers, each read as one int
    (``PrimeTable.odd_prime_bits``).

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
    (scaling its least m).

    Few runs are read.  Each predicate is monotone in x or k and in pi, so
    on a range of odd numbers one test at the range's ends, with the least
    or the largest pi on it (popcounts of the block's int), proves that a
    check cannot fail anywhere in the range: the band's low side, for one,
    cannot fail on [a, b] when pi(a) > b/ln b, and scaling needs no m below
    k/pi at the range's first composite and its largest pi.  A range where
    some check stays open is halved, down to ``SIEVE_LEAF`` odd numbers, and
    a leaf is decided run by run for its open checks, value by value inside
    the first run that fails.  Each power 13^(m+1) is checked at itself.
    The surplus is :func:`~sumcollapse.collapse.surplus_shortfall`'s, and
    the final pi must match ``table.prime_count(limit)`` (the checkpoints).
    """
    require_limit(table.limit)
    limit = table.limit
    # 13^(m+1) for m = 1, 2, ... up to the limit
    powers = [13**j for j in range(2, limit.bit_length()) if 13**j <= limit]
    guard = 1e-12  # double-precision slop on the band's strict inequalities
    fails = {  # each check's predicate on (x or k, pi)
        "band-low": lambda x, pi: pi <= x / log(x) * (1 - guard),
        "band-high": lambda x, pi: pi >= 1.25506 * (x / log(x)) * (1 + guard),
        "pi-bound": lambda k, pi: pi > k - 1,
        "value-bound": lambda k, h: h > k - 1,
        "log-bound": lambda k, pi: k >= (0.5 * log(4 * k) - 1) * pi + 1,
    }
    first: dict[str, int] = {}  # a check -> its first failure
    bad_ms: set[int] = set()  # m's that scaling fails for, the least one always among them
    lead = None  # the first odd composite and pi there
    d = shift = 0  # c - 2k - 2 pi at every odd composite, and h - pi

    def open_checks(a, b, bits, pi):
        """The checks not yet decided that may fail on the odd indices
        [a, b), with prime bits ``bits`` and pi(2a) = ``pi``."""
        left = set()
        top = pi + bits.bit_count()  # pi(2b), the largest pi on the range
        x0, x1 = max(2 * a + 1, 17), min(2 * b, limit)
        if x0 <= x1:
            if fails["band-low"](x1, pi):
                left.add("band-low")
            if fails["band-high"](x0, top):
                left.add("band-high")
        comps = _odd_composites(a, b, bits)
        if lead and comps:
            j0, j1 = _lsb(comps), comps.bit_length() - 1
            c0, c1 = 2 * (a + j0) + 1, 2 * (a + j1) + 1
            k0 = (c0 - 2 * (pi + (bits & ((1 << j0) - 1)).bit_count()) - d) >> 1
            k1 = (c1 - 2 * (top - (bits >> j1).bit_count()) - d) >> 1
            if k1 >= 31:
                k = max(k0, 31)
                if fails["pi-bound"](k, top):
                    left.add("pi-bound")
                if fails["value-bound"](k, top + shift):
                    left.add("value-bound")
                if k1 >= (0.5 * log(4 * k) - 1) * pi + 1:
                    left.add("log-bound")
            need = -(-k0 // (top + max(shift, 0)))  # no c here fails scaling for an m below it
            if need <= bisect_right(powers, c1) and need < min(bad_ms, default=need + 1):
                left.add("scaling")
        return left - first.keys()

    def decide_run(s, e, pi, composite_start, checks):
        """Decide ``checks`` on the run [s, e] of constant ``pi``, s odd; its
        odd composites start at s with ``composite_start``, else at s + 2."""
        checks -= first.keys()  # in place: a check decided here leaves the leaf's later runs
        x0, x1 = max(s, 17), min(e, limit)
        if x0 <= x1:
            if "band-low" in checks and fails["band-low"](x1, pi):
                first["band-low"] = next(x for x in range(x0, x1 + 1) if fails["band-low"](x, pi))
            if "band-high" in checks and fails["band-high"](x0, pi):
                first["band-high"] = x0
        c0, c1 = max(s if composite_start else s + 2, 9), (min(e, limit) - 1) | 1
        if not lead or c0 > c1:
            return
        k0, k1 = (c0 - 2 * pi - d) >> 1, (c1 - 2 * pi - d) >> 1
        if k1 >= 31:
            k = max(k0, 31)
            if "pi-bound" in checks and fails["pi-bound"](k, pi):
                first["pi-bound"] = 2 * k + 2 * pi + d
            if "value-bound" in checks and fails["value-bound"](k, pi + shift):
                first["value-bound"] = 2 * (k + pi + shift) - 1
            if "log-bound" in checks and fails["log-bound"](k1, pi):
                first["log-bound"] = next(j for j in range(k, k1 + 1) if fails["log-bound"](j, pi))
        need = -(-k0 // max(pi, pi + shift))  # the least m with pi m >= k or h m >= k at c0
        if "scaling" in checks and need <= bisect_right(powers, c0):
            bad_ms.add(need)

    def decide(a, b, bits, pi):
        """Decide every check on the odd indices [a, b): halve the range
        while a check stays open, and read a leaf's runs."""
        checks = open_checks(a, b, bits, pi)
        if not checks:
            return
        if b - a > SIEVE_LEAF:
            half = (b - a) >> 1
            low = bits & ((1 << half) - 1)
            decide(a, a + half, low, pi)
            decide(a + half, b, bits >> half, pi + low.bit_count())
            return
        s, composite_start = 2 * a + 1, True  # the leaf's first run starts at its first value
        for j in iter_bits(bits):
            v = 2 * (a + j) + 1
            if s < v:
                decide_run(s, v - 1, pi, composite_start, checks)
            s, composite_start, pi = v, False, pi + 1
        decide_run(s, 2 * b, pi, composite_start, checks)

    # the first cut is 2; a flagged 1 cuts after it, out of order, but no
    # check reads an x below 9
    pi = 1
    for i0, i1 in table.odd_block_bounds(1, limit):
        bits = table.odd_prime_bits(i0, i1)
        if lead is None and (comps := _odd_composites(i0, i1, bits)):
            j = _lsb(comps)
            lead = 2 * (i0 + j) + 1, pi + (bits & ((1 << j) - 1)).bit_count()
            d = lead[0] - 2 * lead[1] - 2
            shift = (d + 1) // 2
        decide(i0, i1, bits, pi)
        for m, power in enumerate(powers, start=1):
            j = (power >> 1) - i0
            if 0 <= j < i1 - i0 and not bits >> j & 1:  # an odd composite, so lead is set
                at = pi + (bits & ((1 << j) - 1)).bit_count()  # pi(power)
                if max(at, at + shift) * m >= (power - 2 * at - d) >> 1:
                    bad_ms.add(m)
        pi += bits.bit_count()
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
        decided(not bad_ms, min(bad_ms, default=None), witnesses=((1, len(powers)),)),
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
    # the classification is self-contained, so the capped stream has the same members
    rep = strata_mod.verify_absorption(strata_mod.strata_bits(cap, table), 3, (9, cap), table)
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
