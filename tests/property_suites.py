"""Seed-pinned randomized suites shared by the property tests and the
acceptance battery.  Each suite runs at least 200 cases and returns the
number of non-vacuous cases it exercised, raising AssertionError on the
first violation.
"""

import random

from sumcollapse import (
    Primes,
    Progression,
    ZmSubset,
    composite_removal_check,
    decompositions,
    iterated_sumset,
    pair_sum_cover_decision,
    restrict,
    sumset_equal_window,
    zm_relation,
)
from sumcollapse.verdict import Status

from oracles import nfold_sums_bf, ordered_factorizations_bf

SEED = 0xC011A95E


def _random_removal(rng: random.Random, table, max_size: int = 12, cap: int = 400):
    comps = [c for c in table.odd_composites_in(9, cap)]
    size = rng.randint(1, max_size)
    return tuple(sorted(rng.sample(comps, min(size, len(comps)))))


def lift_on_cofinite_removals(table, cases: int = 200) -> int:
    """A pair-sum certificate for a removal implies the 3- and 4-fold windowed
    equalities for the same removal."""
    rng = random.Random(SEED)
    ran = 0
    for _ in range(cases):
        ks = _random_removal(rng, table)
        base = pair_sum_cover_decision(Progression(3, 2, frozenset(ks)))
        if base.status is not Status.HOLDS:
            continue
        hi = max(3 * max(ks) + 9, 200)
        a = restrict(Progression(3), 3, hi)
        b = restrict(Progression(3, 2, frozenset(ks)), 3, hi)
        for n in (3, 4):
            v = sumset_equal_window(a, b, n)
            assert v.status is Status.HOLDS_ON_WINDOW, (ks, n, v)
        ran += 1
    assert ran >= cases // 2
    return ran


def lift_on_ring_pairs(max_modulus: int = 8) -> int:
    """In every ring up to the bound, a directed pair relation lifts to folds
    3, 4 and 5; exhaustive over all nested subset pairs."""
    ran = 0
    for m in range(2, max_modulus + 1):
        for b_mask in range(1, 1 << m):
            b = ZmSubset(m, b_mask)
            sub = b_mask
            while sub:
                c = ZmSubset(m, sub)
                if zm_relation(b, c, 2, 2).directed:
                    for n in (3, 4, 5):
                        assert zm_relation(b, c, n, n).directed, (m, b_mask, sub, n)
                    ran += 1
                sub = (sub - 1) & b_mask
    assert ran >= 200
    return ran


def sandwich_on_removals(table, cases: int = 200) -> int:
    """If removing ks keeps pair sums covered, so does removing any subset."""
    rng = random.Random(SEED ^ 0x5A)
    ran = 0
    for _ in range(cases):
        ks = _random_removal(rng, table)
        if composite_removal_check(ks, table).status is not Status.HOLDS:
            continue
        size = rng.randint(1, len(ks))
        subset = tuple(sorted(rng.sample(ks, size)))
        v = composite_removal_check(subset, table)
        assert v.status is Status.HOLDS, (ks, subset, v)
        ran += 1
    assert ran >= cases // 2
    return ran


def preorder_transitivity(cases: int = 200) -> int:
    """Every set relates to itself (seeded random masks), and related pairs
    compose transitively (exhaustive over small rings)."""
    rng = random.Random(SEED ^ 0xBEEF)
    for _ in range(cases):
        m = rng.randint(2, 8)
        b = ZmSubset(m, rng.randint(1, (1 << m) - 1))
        n = rng.randint(2, 4)
        assert zm_relation(b, b, n, n).symmetric

    composed = 0
    for m in (4, 5, 6):
        n = 2
        related: dict[int, set[int]] = {}
        masks = range(1, 1 << m)
        for b_mask in masks:
            b = ZmSubset(m, b_mask)
            related[b_mask] = {
                c_mask
                for c_mask in masks
                if zm_relation(b, ZmSubset(m, c_mask), n, n).symmetric
            }
        for b_mask in masks:
            targets = related[b_mask]
            for c_mask in targets:
                for d_mask in related[c_mask]:
                    assert d_mask in targets, (m, b_mask, c_mask, d_mask)
                    composed += 1
    assert composed >= 200
    return cases + composed


def decomposition_counts(table, cases: int = 200) -> int:
    """Enumerator totals match the naive ordered-factorization count."""
    rng = random.Random(SEED ^ 0xD0)
    specs = [
        Progression(3),
        Primes(3),
    ]
    ran = 0
    for _ in range(cases):
        a = rng.randint(2, 10_000)
        pick = rng.randrange(3)
        if pick < 2:
            spec = specs[pick]
            member = (
                (lambda v: v % 2 == 1 and v >= 3)
                if pick == 0
                else (lambda v: v >= 3 and table.is_prime(v))
            )
        else:
            pool = rng.sample(range(2, 60), rng.randint(1, 10))
            spec = frozenset(pool)
            member = lambda v: v in spec  # noqa: E731
        got = decompositions(a, spec, (1, 10_000), table)
        want = ordered_factorizations_bf(a, member)
        assert len(got) == len(want), (a, spec)
        assert sorted(r.factors for r in got) == sorted(want)
        ran += 1
    return ran


def sumset_vs_tuples(cases: int = 200) -> int:
    """Windowed iterated sumsets agree with brute-force n-tuple enumeration.

    Windows stay within [1, 500] and n <= 4; member counts shrink as n grows
    so the tuple enumeration stays an honest, affordable oracle.
    """
    rng = random.Random(SEED ^ 0xFACE)
    max_members = {1: 400, 2: 150, 3: 60, 4: 40}
    ran = 0
    while ran < cases:
        lo = rng.randint(1, 30)
        hi = lo + rng.randint(4, 469)
        if hi > 500:
            continue
        density = rng.choice((0.08, 0.25, 0.6))
        vals = [v for v in range(lo, hi + 1) if rng.random() < density]
        n = rng.randint(1, 4)
        if len(vals) > max_members[n]:
            vals = sorted(rng.sample(vals, max_members[n]))
        if not vals or n * lo > hi:
            continue
        ws = restrict(vals, lo, hi)
        got = list(iterated_sumset(ws, n).members())
        assert got == nfold_sums_bf(vals, n, n * lo, hi), (lo, hi, n, vals)
        ran += 1
    return ran


def quotient_preservation(cases: int = 200) -> int:
    """Directed relations mod 8 survive reduction to mod 4; exhaustive over
    nested pairs, fold counts 2..4."""
    ran = 0
    for b_mask in range(1, 1 << 8):
        b = ZmSubset(8, b_mask)
        sub = b_mask
        while sub:
            c = ZmSubset(8, sub)
            for n in (2, 3, 4):
                if zm_relation(b, c, n, n).directed:
                    ib = ZmSubset.from_elements(4, (r % 4 for r in b.elements()))
                    ic = ZmSubset.from_elements(4, (r % 4 for r in c.elements()))
                    assert zm_relation(ib, ic, n, n).directed, (b_mask, sub, n)
                    ran += 1
            sub = (sub - 1) & b_mask
    assert ran >= 200
    return ran
