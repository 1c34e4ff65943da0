"""Relation deciders over the integers: equal iterated sumsets plus the
multiplicative factorization property, exact removal certificates for the
odd integers >= 3 minus finitely many odd composites, and the
decomposition / partition enumerators.

A relation here pairs two set descriptions ``B`` and ``C`` and asks whether
``m``-fold sums of ``B`` equal ``n``-fold sums of ``C`` while every member
of ``B`` is a product of members of ``C`` (and, for the directed form,
``C`` is contained in ``B``).  :func:`check_relation` is the one entry
point and picks the decider: the pair relation between ``odd>=3`` and
``odd>=3`` minus finitely many odd composites gets the exact removal
certificate; everything else, prime-backed sets included, earns a windowed
verdict.  Each part has one decider: the sumsets
:func:`~sumcollapse.intsets.sumset_equal_window`, the factorization
:func:`check_fp` and the containment ``_containment``.

Every exact removal verdict -- a relation, a composite tuple, a gap family
or a step of the prefix cascade -- comes from one decision,
``_removal_decision``: the exact pair-sum decision, cross-checked with
bitset sumsets on the even sums up to ``PREFIX_SUMS`` and near each sum
3 + e, e removed, that the decision searches; every other even sum is
3 plus a member.  So the check's cost follows the removed values, not the
largest of them.  ``_removal_certificate`` adds
one least-prime witness per removed value; the cascade keeps only statuses,
so it asks the decision alone.  The decision and those witnesses are loops
over Python ints, a few tries per removed value, and the shifted composite
pair sweep is one bit search per claim
(:func:`~sumcollapse.intsets.least_splits_bits` over the composite bits),
so nothing here imports numpy.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import or_
from types import MappingProxyType

from .intsets import _lsb, iter_bits, iterated_sumset, least_splits_bits
from .intsets import pair_sum_cover_decision, pass_groups, progression_bits, restrict
from .intsets import sumset_equal_window, window_sumset
from .setexpr import FiniteSet, Primes, Progression, RoughOdd, SetExpr, as_set_expr
from .sieve import CompositeIndex, PrimeTable, _is_prime_slow, is_rough
from .verdict import (
    RelationVerdict,
    Status,
    fails,
    holds,
    holds_on_window,
    hypothesis_failed,
    weakest,
)

# ---------------------------------------------------------------------------
# factorization property


def _can_decompose(v: int, member, memo: dict[int, bool]) -> bool:
    """Can ``v`` be written as a product of (>= 2)-valued members, or is itself one?"""
    known = memo.get(v)
    if known is not None:
        return known
    memo[v] = False  # guards against revisiting while unresolved
    if member(v):
        memo[v] = True
        return True
    result = False
    d = 2
    while d * d <= v:
        if v % d == 0:
            for c in (d, v // d):
                if c != v and member(c) and _can_decompose(v // c, member, memo):
                    result = True
                    break
            if result:
                break
        d += 1
    memo[v] = result
    return result


def check_fp(b_spec, c_spec, window: tuple[int, int], table: PrimeTable | None = None) -> RelationVerdict:
    """Does every member of B on the window factor into members of C?

    Exact when C holds every prime from ``C.primes_from()`` on and every
    member of B is a product of primes >= ``B.prime_floor()``, the first
    bound being at most the second, or when B is finite and inside the
    window; otherwise each member on the window is factored in turn.
    Members equal to 1 only pass by belonging to C directly; values below 1
    are rejected because divisor search would be ill-founded there.
    """
    lo, hi = window
    if lo < 1:
        raise ValueError(f"factorization checks need a window within [1, ..], got lo={lo}")
    if lo > hi:
        raise ValueError(f"inverted window [{lo}, {hi}]")
    b_expr = as_set_expr(b_spec)
    c_expr = as_set_expr(c_spec)

    floor, start = b_expr.prime_floor(), c_expr.primes_from()
    if floor is not None and start is not None and start <= floor:
        return holds(
            f"every member is a product of primes >= {floor}, and the right-hand "
            f"set contains every prime >= {start}"
        )

    memo: dict[int, bool] = {}
    member = lambda v: c_expr.contains(v, table)  # noqa: E731 - tight inner predicate
    for b in restrict(b_expr, lo, hi, table).members():
        if not _can_decompose(b, member, memo):
            return fails(
                b,
                f"{b} admits no factorization into members of {c_expr.describe()}",
                certified_range=(lo, hi),
            )
    if isinstance(b_expr, FiniteSet) and all(lo <= v <= hi for v in b_expr.values):
        return holds(
            f"all members of the finite set {b_expr.describe()} factor into "
            f"members of {c_expr.describe()}"
        )
    return holds_on_window(
        (lo, hi), f"every member in [{lo}, {hi}] factors into members of {c_expr.describe()}"
    )


# ---------------------------------------------------------------------------
# relation checks


@dataclass(frozen=True)
class RelationParts:
    """Component verdicts of one relation check."""

    sumsets: RelationVerdict
    factorization: RelationVerdict
    containment: RelationVerdict | None

    def combined(self) -> RelationVerdict:
        parts = [self.sumsets, self.factorization]
        if self.containment is not None:
            parts.append(self.containment)
        status = weakest(*(p.status for p in parts))
        counterexample = None
        certified = self.sumsets.certified_range
        for p in parts:
            if p.status is Status.FAILS:
                counterexample = p.counterexample
                certified = p.certified_range
                break
        labels = ("sumsets", "factorization", "containment")
        note = "; ".join(
            f"{name}: {p.status.value}" for name, p in zip(labels, parts)
        )
        return RelationVerdict(
            status,
            note=note,
            counterexample=counterexample,
            certified_range=certified,
        )


def _containment(b_expr, c_expr, b_ws, c_ws) -> RelationVerdict:
    missing = None
    if isinstance(b_expr, Progression) and isinstance(c_expr, Progression):
        missing = c_expr.least_not_in(b_expr)
        if missing is None:
            return holds("containment decided exactly on the progressions")
        # fall through for a concrete on-window witness
    extra = c_ws.bits & ~b_ws.bits
    if extra:
        value = c_ws.lo + (extra & -extra).bit_length() - 1
        return fails(value, f"{value} belongs to the right-hand set but not the left")
    if missing is not None:
        return fails(
            missing,
            f"{missing} belongs to the right-hand set but not the left; it lies "
            "outside the window (progression comparison)",
        )
    return holds_on_window((b_ws.lo, b_ws.hi), "containment verified on the window")


def relation_parts(
    b_spec,
    c_spec,
    m_fold: int,
    n_fold: int,
    window: tuple[int, int],
    table: PrimeTable | None = None,
    require_subset: bool = False,
) -> RelationParts:
    if m_fold < 1 or n_fold < 1:
        raise ValueError("fold counts must be >= 1")
    lo, hi = window
    if lo < 1:
        raise ValueError(f"relation checks need a window within [1, ..], got lo={lo}")
    start = max(m_fold, n_fold) * lo
    if start > hi:
        raise ValueError(f"sums to compare start at {start}, past the window end {hi}")
    b_expr = as_set_expr(b_spec)
    c_expr = as_set_expr(c_spec)
    b_ws = restrict(b_expr, lo, hi, table)
    c_ws = restrict(c_expr, lo, hi, table)
    if not b_ws.bits or not c_ws.bits:
        raise ValueError("relation checks need non-empty sets on the window")
    sum_v = sumset_equal_window(b_ws, c_ws, m_fold, n_fold)
    fp_v = check_fp(b_expr, c_expr, window, table)
    sub_v = _containment(b_expr, c_expr, b_ws, c_ws) if require_subset else None
    return RelationParts(sum_v, fp_v, sub_v)


def _is_composite_removal(b_expr: SetExpr, c_expr: SetExpr) -> bool:
    """B is ``odd>=3`` and C is ``odd>=3`` minus finitely many odd non-primes."""
    return (
        b_expr == Progression(3)
        and isinstance(c_expr, Progression)
        and (c_expr.base, c_expr.step) == (3, 2)
        and c_expr.primes_from() == 3
    )


def check_relation(
    b_spec,
    c_spec,
    m_fold: int,
    n_fold: int,
    window: tuple[int, int],
    table: PrimeTable | None = None,
    require_subset: bool = False,
) -> RelationVerdict:
    """Decide the (m, n) sum-factor relation between two sets.

    The pair relation (m = n = 2) from the odd integers >= 3 to the same set
    minus finitely many odd composites gets the exact removal certificate,
    which settles the directed form too; ``table`` must then cover the
    largest removed value (one is built when none is given).  Every other
    relation is decided on the window.
    """
    b_expr = as_set_expr(b_spec)
    c_expr = as_set_expr(c_spec)
    lo, hi = window
    if m_fold == n_fold == 2 and 1 <= lo <= hi and _is_composite_removal(b_expr, c_expr):
        if table is None:
            table = PrimeTable(max(c_expr.max_excluded, 9))
        return _removal_certificate(c_expr, table)
    return relation_parts(
        b_expr, c_expr, m_fold, n_fold, window, table, require_subset
    ).combined()


# ---------------------------------------------------------------------------
# exact removal certificates

PREFIX_SUMS = 1 << 12  # the removal cross-check covers every even sum up to here
NEAR_SUMS = 1 << 6  # and those within this distance of each 3 + e past it


def _validate_composite_tuple(ks, table: PrimeTable) -> tuple[int, ...]:
    ks = tuple(ks)
    if not ks:
        raise ValueError("expected at least one odd composite")
    if any(ks[i] >= ks[i + 1] for i in range(len(ks) - 1)):
        raise ValueError("removal candidates must be strictly increasing")
    for c in ks:
        if not table.is_odd_composite(c):
            raise ValueError(f"{c} is not an odd composite number")
    return ks


def surplus_shortfall(ks, table: PrimeTable) -> int | None:
    """The first index i whose candidate, in the increasing iterable ``ks``,
    has fewer than i + 2 primes below it; None when none has.  It reads
    ``ks`` only up to that index."""
    return next(
        (i for i, c in enumerate(ks, start=1) if table.prime_count(c) < i + 2), None
    )


def prime_surplus_hypothesis(ks, table: PrimeTable) -> bool:
    """True iff the i-th candidate has at least i + 2 primes below it."""
    return surplus_shortfall(_validate_composite_tuple(ks, table), table) is None


def _removal_witnesses(removed: tuple[int, ...], table: PrimeTable):
    """For each removed value c in the sorted ``removed`` (largest first) a
    pair p + d = 3 + c with p the least odd prime whose partner d >= 3
    avoids the removed set; a c with no such pair gets none."""
    excluded = frozenset(removed)
    pairs = []
    for c in reversed(removed):
        p = next((p for p in table.primes_in(3, c) if c + 3 - p not in excluded), 0)
        if p:
            pairs.append((c, p, c + 3 - p))
    return tuple(pairs)


def _cross_check_spans(removed, top: int) -> list[tuple[int, int]]:
    """The even sums the removal cross-check covers, as merged intervals
    [s0, s1] with even ends: the prefix [6, top] and [3 + e - NEAR_SUMS,
    3 + e + NEAR_SUMS] for each removed e with 3 + e past it."""
    spans = [(6, top)]
    for e in removed:
        if 3 + e <= top:
            continue
        s0, s1 = 3 + e - NEAR_SUMS, 3 + e + NEAR_SUMS
        if s0 <= spans[-1][1] + 2:
            spans[-1] = (spans[-1][0], s1)
        else:
            spans.append((s0, s1))
    return spans


def _uncovered_sum(removal: Progression, s0: int, s1: int) -> int | None:
    """The least even sum in [s0, s1] that is no a + b with a, b members of
    ``removal`` (odd integers >= 3 minus finitely many); None when there is
    none.

    The sums a + b with a <= t, from the members in [3, t] and those in
    [s0 - t, s1 - 3], are a subset of the pair sums, and every pair sum in
    [s0, s1] whose smaller part is at most t is among them.  t starts at
    3 + 2 * 8 and doubles while some sum is missing, until it reaches s1/2:
    then every split a <= b of a sum s <= s1 has a <= t, so a sum still
    missing is missing from the pair sums."""
    t = 19
    while True:
        t = min(t, s1 // 2)
        small = restrict(removal, 3, t)
        large = restrict(removal, max(3, s0 - t), s1 - 3)
        sums = window_sumset(small, large, s1)
        missing = progression_bits(s0, 2, sums.lo, s1) & ~sums.bits
        if not missing:
            return None
        if t == s1 // 2:
            return sums.lo + _lsb(missing)
        t = 2 * t - 3  # twice as many odd parts


def _removal_decision(removal: Progression) -> RelationVerdict:
    """Exact decision whether 2*(odd integers >= 3) equals 2*``removal``.

    A ``holds`` is cross-checked with bitset sumsets on the even sums up
    to 2M + 6 (at least 60), M the largest removed value, or up to
    ``PREFIX_SUMS`` where that is less, and on those within ``NEAR_SUMS``
    of each sum 3 + e, e removed, past that prefix
    (:func:`_cross_check_spans`), so on every sum the decision searches.
    No other sum needs a check: 3 is not removed (else 6 = 3 + 3 would
    fail), so an even s >= 6 outside 3 + E is 3 + (s - 3) with both parts
    members, the argument that covers every s > 2M + 6 too.  So the cost
    follows the removed values and their least splits, not M.
    """
    exact = pair_sum_cover_decision(removal)
    if exact.status is not Status.HOLDS or not removal.excluded:
        return exact
    removed = removal.excluded_sorted
    top = min(max(2 * removed[-1] + 6, 60), PREFIX_SUMS)
    for s0, s1 in _cross_check_spans(removed, top):
        s = _uncovered_sum(removal, s0, s1)
        if s is not None:
            raise RuntimeError(
                f"exact decision and windowed sumsets disagree for removal "
                f"{list(removed)} at {s}"
            )
    near = f" and within {NEAR_SUMS} of each 3 + e past it" if 3 + removed[-1] > top else ""
    return holds(exact.note + f"; bitset sumsets confirm every even sum in [6, {top}]" + near)


def _removal_certificate(removal: Progression, table: PrimeTable) -> RelationVerdict:
    """:func:`_removal_decision`, whose ``holds`` here carries one witness per
    removed value, largest first, each with the least prime that works."""
    decision = _removal_decision(removal)
    if decision.status is not Status.HOLDS or not removal.excluded:
        return decision
    return holds(
        decision.note + "; the removed values are composite, so factorization "
        "into odd primes is untouched",
        witnesses=_removal_witnesses(removal.excluded_sorted, table),
    )


def composite_removal_check(ks, table: PrimeTable) -> RelationVerdict:
    """Exact certificate that removing ``ks`` keeps all even pair sums reachable.

    Requires the prime-surplus hypothesis; without it the claim is not
    attempted and a hypothesis failure is reported instead.
    """
    ks = _validate_composite_tuple(ks, table)
    i = surplus_shortfall(ks, table)
    if i is not None:
        c = ks[i - 1]
        return hypothesis_failed(
            i,
            f"candidate #{i} = {c} has only {table.prime_count(c)} primes below "
            f"it, fewer than {i + 2}",
        )
    return _removal_certificate(Progression(3, 2, frozenset(ks)), table)


def gap_subsequence_check(bs, table: PrimeTable) -> RelationVerdict:
    """Exact removal certificate for odd composites spaced more than 2 apart.

    The gap condition keeps b - 2 outside the removed set, and the prime 3
    would pair with b itself, so the certificate's least-prime witness for
    each removed b is 3 + b = 5 + (b - 2).
    """
    bs = _validate_composite_tuple(bs, table)
    for i in range(len(bs) - 1):
        if bs[i + 1] - bs[i] <= 2:
            raise ValueError(
                f"gap condition violated: {bs[i + 1]} - {bs[i]} <= 2"
            )
    return _removal_certificate(Progression(3, 2, frozenset(bs)), table)


def progression_removal_check(
    base: int,
    step: int,
    removed,
    window: tuple[int, int],
    table: PrimeTable | None = None,
) -> RelationVerdict:
    """Windowed check that removing ``removed`` from the progression keeps pair
    sums intact, contingent on three hypotheses.

    Hypotheses: (1) every removed value factors inside the depleted
    progression, (2) base + max(removed) is a sum of two distinct smaller
    removed values, (3) removal of each all-but-one subset already works.
    """
    removed = tuple(sorted(removed))
    if len(removed) < 2:
        raise ValueError("need at least two removed values")
    prog = Progression(base, step)
    for c in removed:
        if not prog.contains(c):
            raise ValueError(f"{c} is not in the progression {prog.describe()}")
    if removed[0] <= base:
        raise ValueError(f"removed values must exceed the progression base {base}")
    lo, hi = window
    if max(removed) > hi:
        raise ValueError("window must cover every removed value")

    depleted = prog.without(removed)
    fp = check_fp(FiniteSet(removed), depleted, (removed[0], removed[-1]), table)
    if not fp.ok:
        return hypothesis_failed(
            1,
            f"{fp.counterexample} has no factorization inside the depleted progression",
        )
    target = base + removed[-1]
    smaller = removed[:-1]
    if not any(target - x in smaller[i + 1 :] for i, x in enumerate(smaller)):
        return hypothesis_failed(
            2,
            f"{base} + {removed[-1]} = {target} is not a sum of two distinct "
            "smaller removed values",
        )
    for i, c in enumerate(removed):
        d_i = frozenset(removed) - {c}
        verdict = check_relation(
            prog, prog.without(d_i), 2, 2, window, table, require_subset=True
        )
        if not verdict.ok:
            return hypothesis_failed(
                3, f"all-but-one removal keeping {c} fails: {verdict.note}"
            )

    conclusion = check_relation(
        prog, depleted, 2, 2, window, table, require_subset=True
    )
    if conclusion.ok:
        return holds_on_window(
            conclusion.certified_range or (2 * lo, hi),
            f"pair sums of the progression survive removing {list(removed)}; "
            + conclusion.note,
        )
    return conclusion


def prefix_removal_cascade(k: int, l: int, table: PrimeTable) -> RelationVerdict:
    """Check the leave-one-out premises and the full-prefix removal conclusion.

    The first ``k + l`` odd composites are removed either all at once
    (conclusion) or with one of the last ``l + 1`` kept (premises); all are
    cofinite removals, so every verdict is exact.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if l < 7:
        raise ValueError(f"l must be >= 7, got {l}")
    index = CompositeIndex(table)
    prefix = index.first(k + l)
    if 3 + prefix[-1] < 2 * prefix[k - 1]:
        raise ValueError(
            f"precondition violated: 3 + {prefix[-1]} < 2 * {prefix[k - 1]}"
        )
    results = []
    for i in range(l + 1):
        kept = prefix[k + i - 1]
        verdict = _removal_decision(Progression(3, 2, frozenset(prefix) - {kept}))
        results.append({"premise": i, "kept": kept, "status": verdict.status.value})
        if verdict.status is Status.FAILS:
            return fails(
                verdict.counterexample,
                f"premise {i} (keeping {kept}) fails: {verdict.note}",
            )
    conclusion = _removal_decision(Progression(3, 2, frozenset(prefix)))
    results.append({"conclusion": True, "status": conclusion.status.value})
    status = weakest(conclusion.status, *(Status(r["status"]) for r in results[:-1]))
    return RelationVerdict(
        status,
        note=(
            f"all {l + 1} leave-one-out premises and the full removal of the "
            f"first {k + l} odd composites decided exactly"
        ),
        counterexample=conclusion.counterexample,
        witnesses=tuple(results),
    )


# ---------------------------------------------------------------------------
# decompositions, factor statistics, partitions


@dataclass(frozen=True)
class DecompositionRecord:
    """One ordered factorization of ``target`` into set members."""

    target: int
    factors: tuple[int, ...]

    def __post_init__(self):
        if len(self.factors) < 1:
            raise ValueError("a decomposition needs at least one factor")
        if math.prod(self.factors) != self.target:
            raise ValueError(f"factors {self.factors} do not multiply to {self.target}")


@dataclass(frozen=True)
class FactorStats:
    """Distinct-factor count, largest exponent and largest total degree."""

    factor_count: int | float
    exponent: int | float
    degree: int | float


@dataclass(frozen=True)
class PartitionRecord:
    """A multiset of distinct parts with multiplicities summing to ``target``."""

    target: int
    parts: tuple[tuple[int, int], ...]

    @property
    def length(self) -> int:
        return sum(mult for _, mult in self.parts)

    def __post_init__(self):
        values = [b for b, _ in self.parts]
        if len(set(values)) != len(values):
            raise ValueError("partition parts must be distinct")
        if sum(b * m for b, m in self.parts) != self.target:
            raise ValueError("partition parts do not sum to the target")


def _ordered_factorizations(a: int, member, memo) -> list[tuple[int, ...]]:
    known = memo.get(a)
    if known is not None:
        return known
    out = [(a,)] if member(a) else []
    divisors = set()
    d = 2
    while d * d <= a:
        if a % d == 0:
            divisors.add(d)
            divisors.add(a // d)
        d += 1
    for c in sorted(divisors):
        if member(c):
            out.extend((c,) + rest for rest in _ordered_factorizations(a // c, member, memo))
    memo[a] = out
    return out


def _checked_target(a: int, b_expr: SetExpr, window: tuple[int, int], table) -> None:
    if a in (0, 1, -1):
        raise ValueError(f"target {a} has no meaningful factorizations")
    if a < 0:
        raise ValueError("negative targets are out of scope")
    lo, hi = window
    if not (lo <= a <= hi):
        raise ValueError(f"target {a} outside window [{lo}, {hi}]")
    if b_expr.contains(1, table):
        raise ValueError("enumeration requires all set members to be >= 2")


def decompositions(
    a: int, b_spec, window: tuple[int, int], table: PrimeTable | None = None
) -> list[DecompositionRecord]:
    """All ordered factorizations of ``a`` into members of the set, shortest first."""
    b_expr = as_set_expr(b_spec)
    _checked_target(a, b_expr, window, table)
    member = lambda v: b_expr.contains(v, table)  # noqa: E731
    tuples = _ordered_factorizations(a, member, {})
    tuples.sort(key=lambda t: (len(t), t))
    return [DecompositionRecord(a, t) for t in tuples]


def factor_stats(
    a: int, b_spec, window: tuple[int, int], table: PrimeTable | None = None
) -> FactorStats:
    """Aggregate factor statistics of ``a`` over all its ordered factorizations."""
    records = decompositions(a, b_spec, window, table)
    if not records:
        return FactorStats(0, 0, 0)
    factors = set()
    exponent = 0
    degree = 0
    for rec in records:
        factors.update(rec.factors)
        counts = {}
        for f in rec.factors:
            counts[f] = counts.get(f, 0) + 1
        exponent = max(exponent, max(counts.values()))
        degree = max(degree, len(rec.factors))
    return FactorStats(len(factors), exponent, degree)


def k_partitions(
    a: int, b_spec, k: int, window: tuple[int, int], table: PrimeTable | None = None
) -> list[PartitionRecord]:
    """All length-``k`` multiset partitions of ``a`` with distinct parts from the set."""
    if k < 1:
        raise ValueError(f"partition length must be >= 1, got {k}")
    lo, hi = window
    if a > hi:
        raise ValueError(f"target {a} outside window [{lo}, {hi}]")
    b_expr = as_set_expr(b_spec)
    vals = list(restrict(b_expr, max(lo, 1), min(a, hi), table).members())
    results: list[PartitionRecord] = []
    acc: list[tuple[int, int]] = []

    def go(idx: int, remaining_sum: int, remaining_count: int) -> None:
        if remaining_count == 0:
            if remaining_sum == 0:
                results.append(PartitionRecord(a, tuple(acc)))
            return
        for j in range(idx, len(vals)):
            b = vals[j]
            if b * remaining_count > remaining_sum:
                break
            max_mult = min(remaining_count, remaining_sum // b)
            for mult in range(1, max_mult + 1):
                acc.append((b, mult))
                go(j + 1, remaining_sum - mult * b, remaining_count - mult)
                acc.pop()

    go(0, a, k)
    results.sort(key=lambda r: r.parts)
    return results


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class PairSweepReport:
    """Outcome of the shifted-pair sweep over composite indices 3..k_max.

    ``pair_missing`` lists indices whose shifted value has no representation
    as a sum of two distinct smaller odd composites.  The even-membership
    sweep records k whose double is neither a sum of two odd composites nor
    3 plus a prime; ``even_distinct_exceptions`` is the stricter variant
    that also demands the two composites differ (it additionally flags 9,
    whose double 18 = 9 + 9 only repeats a part).

    ``pair_witnesses`` is a read-only ``{k: (x, y)}`` mapping, x the least
    odd composite with x + y = 3 + (k-th odd composite) and x < y; it
    compares equal to the dict of the same pairs.
    """

    k_max: int
    pair_missing: tuple[int, ...]
    pair_witnesses: Mapping[int, tuple[int, int]]
    even_exceptions: tuple[int, ...]
    even_distinct_exceptions: tuple[int, ...]


def shifted_composite_pair_sweep(k_max: int, table: PrimeTable) -> PairSweepReport:
    """Sweep both pair-representation claims over the first ``k_max`` indices.

    The least parts come from one :func:`~sumcollapse.intsets.least_splits_bits`
    search per claim over the composite bits: the parts are the odd
    composites in order, and a sum's partner must be an odd composite."""
    if k_max < 3:
        raise ValueError(f"k_max must be >= 3, got {k_max}")
    index = CompositeIndex(table)
    if index.count(table.limit) < k_max:
        raise ValueError(
            f"sieve limit {table.limit} holds fewer than {k_max} odd composites"
        )
    comps = index.first(k_max)
    # bit i: the odd number 2i + 1 is prime, or an odd composite >= 9, up to every partner
    n = (max(comps[-1], 2 * k_max - 9) + 1) // 2
    primes = table.odd_prime_bits(0, n)
    flags = ~primes & ((1 << n) - 1) & ~0b1111

    def least_parts(pending: int) -> tuple[list[int], int]:
        """Per set bit j of ``pending``, standing for the even sum 2j + 4,
        its least part at index j of a list (0 where none is), and the bits
        with none.  The set is symmetric: a least part x is at most its
        partner."""
        planes, passes, late, left = least_splits_bits(pending, flags, 0, comps)
        least = [0] * pending.bit_length()
        for k, hits in pass_groups(reduce(or_, planes, 0), planes):
            for j in iter_bits(hits):
                least[j] = passes[k - 1]
        for j, x in late.items():
            least[j] = x
        return least, left

    ks = range(3, k_max + 1)
    # 3 + c for an odd composite c is bit (c - 1)/2, the composite's own bit
    first, last = comps[2] >> 1, comps[-1] >> 1
    least, _ = least_parts(flags >> first << first & ((2 << last) - 1))
    pairs = {k: (x, c + 3 - x) for k, c in zip(ks, comps[2:]) if 0 < 2 * (x := least[c >> 1]) < c + 3}
    missing = tuple(k for k in ks if k not in pairs)

    # 2k for k = 3..k_max is bit k - 2, which is also the bit of 2k - 3: an
    # odd 2k - 3 >= 3 is prime or composite
    least, left = least_parts(((1 << (k_max - 1)) - 1) & ~1)
    even_exc = tuple(j + 2 for j in iter_bits(left & ~primes))
    same = [j for j, x in enumerate(least) if x == j + 2 and not primes >> j & 1]  # only 2k = k + k
    even_distinct_exc = tuple(sorted(j + 2 for j in chain(iter_bits(left & ~primes), same)))
    return PairSweepReport(k_max, missing, MappingProxyType(pairs), even_exc, even_distinct_exc)


# ---------------------------------------------------------------------------
# parameter scan for the pair-cover base case


@dataclass(frozen=True)
class CaseResult:
    label: str
    confirmed: bool
    witness: object
    note: str


@dataclass(frozen=True)
class UniquenessReport:
    """Confirms that only the odd-from-3 base paired with primes-from-3 survives."""

    cases: tuple[CaseResult, ...]
    window_verdict: RelationVerdict

    @property
    def all_confirmed(self) -> bool:
        return all(c.confirmed for c in self.cases)


def parameter_uniqueness_report(table: PrimeTable, hi: int) -> UniquenessReport:
    """Exhibit the obstruction for every wrong (base, prime-floor) choice and
    verify on-window that the right choice has none."""

    def least_pair_sum(expr: SetExpr) -> int | None:
        # the 2-fold sums on [3, 30] are exact on [6, 30], past each minimum sought
        return next(iterated_sumset(restrict(expr, 3, 30, table), 2).members(), None)

    cases = []

    below_base = check_fp({1}, Primes(3), (1, 1), table)
    cases.append(
        CaseResult(
            "no-factorization-below-base",
            confirmed=(below_base.status, below_base.counterexample) == (Status.FAILS, 1),
            witness=1,
            note="1 is a positive odd integer but no product of primes >= 3 equals it",
        )
    )

    cases.append(
        CaseResult(
            "minimum-mismatch-higher-base",
            confirmed=least_pair_sum(Progression(5)) == 10,
            witness=6,
            note="pair sums of odds >= 5 start at 10, yet 6 = 3 + 3 is a prime pair sum",
        )
    )

    cases.append(
        CaseResult(
            "rough-base-misses-small-factors",
            confirmed=not is_rough(15, 5),
            witness=15,
            note="15 = 3 * 5 is odd and >= 3 but has a factor below 5, so it "
            "escapes the semigroup generated by primes >= 5",
        )
    )

    cases.append(
        CaseResult(
            "semigroup-minimum-forces-equal-floors",
            confirmed=(least_pair_sum(RoughOdd(3)), least_pair_sum(RoughOdd(5))) == (6, 10),
            witness=(6, 10),
            note="two-fold sums of the semigroups floored at 3 and 5 start at 6 "
            "and 10 respectively, so different floors cannot share sumsets",
        )
    )

    eleven_pairs = [
        (p, 11 - p) for p in range(2, 6) if table.is_prime(p) and table.is_prime(11 - p)
    ]
    cases.append(
        CaseResult(
            "eleven-separates-integers-from-primes",
            confirmed=not eleven_pairs,
            witness=(4, 7),
            note="11 = 4 + 7 is a sum of two integers >= 2 but no two primes sum to 11",
        )
    )

    window_verdict = check_relation(Progression(3), Primes(3), 2, 2, (3, hi), table)
    return UniquenessReport(tuple(cases), window_verdict)


# ---------------------------------------------------------------------------
# removable infinite families, materialised up to a bound


def primorial_odd_products(limit: int) -> tuple[int, ...]:
    """Products 3*5, 3*5*7, ... of the initial odd primes, up to ``limit``."""
    out = []
    prod = 3
    p = 5
    while True:
        prod *= p
        if prod > limit:
            break
        out.append(prod)
        p += 2
        while not _is_prime_slow(p):
            p += 2
    return tuple(out)


def euclid_chain_composites(limit: int) -> tuple[int, ...]:
    """Composite terms (up to ``limit``) of the sequence w1=2, w2=3, w3=7,
    w_{k+1} = w1*...*wk + 1, skipping the first two terms."""
    terms = [2, 3]
    while True:
        nxt = math.prod(terms) + 1
        if nxt > limit:
            break
        terms.append(nxt)
    return tuple(t for t in terms[2:] if t % 2 == 1 and not _is_prime_slow(t))
