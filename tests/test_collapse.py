import random
import tracemalloc

import pytest

from sumcollapse import (
    CompositeIndex,
    FiniteSet,
    IntRange,
    Primes,
    PrimeTable,
    Progression,
    Union,
    check_fp,
    check_relation,
    collapse,
    composite_removal_check,
    decompositions,
    euclid_chain_composites,
    factor_stats,
    gap_subsequence_check,
    k_partitions,
    parameter_uniqueness_report,
    prefix_removal_cascade,
    prime_surplus_hypothesis,
    primorial_odd_products,
    progression_removal_check,
    relation_parts,
    shifted_composite_pair_sweep,
)
from sumcollapse import collapse as collapse_module
from sumcollapse import intsets
from sumcollapse.battery import collapse_checks, run
from sumcollapse.verdict import Status, fails, holds

from oracles import (
    goldbach_pair,
    is_prime_bf,
    k_partitions_bf,
    least_split_bf,
    least_uncovered_pair_sum,
    odd_composites_upto,
    ordered_factorizations_bf,
)


# -- factorization property -------------------------------------------------


def test_check_fp_fast_path(table_small):
    v = check_fp(Progression(3), Progression(3, 2, frozenset({9})), (3, 1000), table_small)
    assert v.status is Status.HOLDS
    assert "every prime >= 3" in v.note
    # the prime floor of B meets the prime start of C: exact, not per member
    for b, c in [(IntRange(2), Primes(2)), ("rough>=5", Primes(5)), ({9, 25}, "odd>=3 \\ {9}")]:
        assert check_fp(b, c, (1, 1000), table_small).status is Status.HOLDS


def test_check_fp_finite_cases():
    assert check_fp({9}, {3}, (1, 20)).status is Status.HOLDS
    v = check_fp({15}, {9, 5}, (1, 20))
    assert v.status is Status.FAILS and v.counterexample == 15


def test_check_fp_window_validation():
    with pytest.raises(ValueError):
        check_fp({9}, {3}, (0, 20))
    with pytest.raises(ValueError):
        check_fp({9}, {3}, (5, 3))


def test_check_fp_allows_one_as_direct_member():
    v = check_fp(Union(FiniteSet(frozenset({2})), Progression(1)), Union(FiniteSet(frozenset({2})), Progression(1)), (1, 50))
    assert v.ok  # 1 = 1 is a single-factor decomposition


# -- relation checks ---------------------------------------------------------


def test_relation_mixed_parity_example(table_small):
    b = IntRange(1)
    c = Union(FiniteSet(frozenset({2})), Progression(1))
    v = check_relation(b, c, 2, 2, (1, 2000), table_small, require_subset=True)
    assert v.status is Status.HOLDS_ON_WINDOW


def test_relation_reflexive(table_small):
    v = check_relation(Progression(3), Progression(3), 2, 2, (3, 500), table_small)
    assert v.status is Status.HOLDS  # the pair relation on odd>=3 is decided exactly
    v = check_relation(Progression(3), Progression(3), 3, 3, (3, 500), table_small)
    assert v.status is Status.HOLDS_ON_WINDOW


def test_check_relation_picks_the_decider(table_small):
    first23 = CompositeIndex(table_small).first(23)
    # exact: odd>=3 against odd>=3 minus odd composites, prime surplus or not
    v = check_relation("odd>=3", Progression(3, 2, frozenset(first23)), 2, 2, (3, 500), table_small)
    assert v.status is Status.HOLDS
    assert [w[0] for w in v.witnesses] == sorted(first23, reverse=True)
    v = check_relation("odd>=3", "odd>=3 \\ {9,15,21}", 2, 2, (3, 500), None)
    assert v.status is Status.HOLDS and len(v.witnesses) == 3  # builds its own table
    # windowed: a prime removed, exclusions on the left, other folds or bases
    for b, c, n in [
        ("odd>=3", "odd>=3 \\ {7}", 2),
        ("odd>=3 \\ {9}", "odd>=3 \\ {9}", 2),
        ("odd>=3", "odd>=3 \\ {9}", 3),
        ("odd>=5", "odd>=5 \\ {9}", 2),
    ]:
        v = check_relation(b, c, n, n, (3, 500), table_small, require_subset=True)
        assert v.status in (Status.HOLDS_ON_WINDOW, Status.FAILS), (b, c, n, v)
    with pytest.raises(ValueError):
        check_relation("odd>=3", "odd>=3 \\ {9}", 2, 2, (0, 500), table_small)


def test_relation_goldbach_window_never_exact(table_1e5):
    v = check_relation(
        Progression(3), Primes(3), 2, 2, (3, 100_000), table_1e5, require_subset=True
    )
    assert v.status is Status.HOLDS_ON_WINDOW  # windowed only, never HOLDS


def test_relation_containment_failure(table_small):
    v = check_relation(Primes(3), Progression(3), 2, 2, (3, 100), table_small, require_subset=True)
    assert v.status is Status.FAILS
    assert v.counterexample == 9  # smallest odd >= 3 outside the primes
    # the only missing value lies past the window: the cofinite forms name it
    v = check_relation("odd>=3 \\ {9}", "odd>=3", 2, 2, (3, 7), table_small, require_subset=True)
    assert v.status is Status.FAILS
    assert v.counterexample == 9


def test_relation_parts_exposed(table_small):
    parts = relation_parts(Progression(3), Progression(3, 2, frozenset({9})), 2, 2, (3, 300), table_small, require_subset=True)
    assert parts.sumsets.status is Status.HOLDS_ON_WINDOW
    assert parts.factorization.status is Status.HOLDS
    assert parts.containment.status is Status.HOLDS


def test_relation_unequal_folds(table_small):
    # 1-fold of evens>=6 equals 2-fold of odds>=3 on a window, while the
    # factorization side rightly fails (no even is a product of odds)
    evens = lambda v: v >= 6 and v % 2 == 0  # noqa: E731
    parts = relation_parts(evens, Progression(3), 1, 2, (3, 400), table_small)
    assert parts.sumsets.status is Status.HOLDS_ON_WINDOW
    assert parts.factorization.status is Status.FAILS
    assert parts.factorization.counterexample == 6
    assert parts.combined().status is Status.FAILS


# -- removal certificates ----------------------------------------------------


def test_prime_surplus_hypothesis(table_small):
    assert prime_surplus_hypothesis((9, 15, 21), table_small)
    index = CompositeIndex(table_small)
    assert prime_surplus_hypothesis(index.first(22), table_small)
    assert not prime_surplus_hypothesis(index.first(23), table_small)
    with pytest.raises(ValueError):
        prime_surplus_hypothesis((15, 9), table_small)
    with pytest.raises(ValueError):
        prime_surplus_hypothesis((9, 11), table_small)


def test_composite_removal_certificates(table_small):
    for ks in [(9,), (9, 15, 21), CompositeIndex(table_small).first(22)]:
        v = composite_removal_check(ks, table_small)
        assert v.status is Status.HOLDS, (ks, v)
        assert "enumeration" in v.note


def test_composite_removal_hypothesis_failure(table_small):
    v = composite_removal_check(CompositeIndex(table_small).first(23), table_small)
    assert v.status is Status.HYPOTHESIS_FAILED
    assert v.failed_hypothesis == 23


def test_removal_witnesses_verify(table_small):
    ks = (9, 15, 21)
    v = composite_removal_check(ks, table_small)
    for c, p, d in v.witnesses:
        assert p + d == c + 3
        assert is_prime_bf(p)
        assert d % 2 == 1 and d >= 3 and d not in ks


def test_removal_witnesses_take_the_least_prime(table_small):
    # removed sets of any odd values >= 3; with 3 removed, 3 + 3 has no witness
    rng = random.Random(11)
    primes = [p for p in range(3, table_small.limit + 1) if is_prime_bf(p)]
    for _ in range(200):
        count = rng.choice([1, 2, 5, 30, 120])
        removed = tuple(sorted(rng.sample(range(3, table_small.limit, 2), count)))
        want = []
        for c in reversed(removed):
            partners = set(range(3, c + 1, 2)) - set(removed)
            p = least_split_bf(c + 3, primes, 3, partners)
            if p:
                want.append((c, p, c + 3 - p))
        assert collapse_module._removal_witnesses(removed, table_small) == tuple(want), removed
    assert collapse_module._removal_witnesses((3,), table_small) == ()
    with pytest.raises(ValueError, match="exceeds sieve limit"):
        collapse_module._removal_witnesses((9, table_small.limit + 1), table_small)


def test_a_failing_removal_decision_is_no_certificate(monkeypatch, table_small):
    # no true removal decision fails for odd composites below 2,000, so the
    # decider is made to: every certificate path must hand its fails back
    failing = fails(30, "injected failing decision")
    monkeypatch.setattr(collapse_module, "_removal_decision", lambda removal: failing)
    assert composite_removal_check((9, 15, 21), table_small) is failing
    assert gap_subsequence_check((9, 15, 21, 25), table_small) is failing
    rel = check_relation(Progression(3), Progression(3, 2, frozenset({9})), 2, 2, (3, 100), table_small)
    assert rel is failing


def test_gap_subsequence(table_1e5):
    # the prime 3 would pair 3 + b with the removed b itself and the gap keeps
    # b - 2, so the least-prime witness of every removed b is 5 + (b - 2)
    for bs in [(9, 15, 21, 25), primorial_odd_products(100_000), (1807,)]:
        v = gap_subsequence_check(bs, table_1e5)
        assert v.status is Status.HOLDS
        assert set(v.witnesses) == {(b, 5, b - 2) for b in bs}
    with pytest.raises(ValueError):
        gap_subsequence_check((9, 11), table_1e5)  # 11 is prime
    with pytest.raises(ValueError):
        gap_subsequence_check((25, 27), table_1e5)  # gap of 2


def test_removable_infinite_families(table_1e5):
    pp = primorial_odd_products(100_000)
    assert pp == (15, 105, 1155, 15015)
    assert gap_subsequence_check(pp, table_1e5).status is Status.HOLDS
    chain = euclid_chain_composites(100_000)
    assert chain == (1807,)
    assert 1807 == 13 * 139
    assert gap_subsequence_check(chain, table_1e5).status is Status.HOLDS


# -- progression removal -----------------------------------------------------


def test_progression_removal_full(table_small):
    v = progression_removal_check(3, 2, (9, 15, 21), (3, 2000), table_small)
    assert v.status is Status.HOLDS_ON_WINDOW


def test_progression_removal_hypothesis2(table_small):
    # with only two removed values there are no two distinct smaller indices
    v = progression_removal_check(3, 2, (9, 15), (3, 2000), table_small)
    assert v.status is Status.HYPOTHESIS_FAILED and v.failed_hypothesis == 2


def test_progression_removal_validation(table_small):
    with pytest.raises(ValueError):
        progression_removal_check(3, 2, (3, 9), (3, 100), table_small)  # base itself
    with pytest.raises(ValueError):
        progression_removal_check(3, 2, (9, 14), (3, 100), table_small)  # 14 not in it
    with pytest.raises(ValueError):
        progression_removal_check(3, 2, (9,), (3, 100), table_small)  # too few


# -- prefix cascade ----------------------------------------------------------


def test_prefix_cascade(table_small):
    v = prefix_removal_cascade(1, 7, table_small)
    assert v.status is Status.HOLDS
    assert len(v.witnesses) == 9  # 8 leave-one-out premises plus the conclusion
    assert all(w["status"] == "holds" for w in v.witnesses)


def test_prefix_cascade_asks_no_witnesses(monkeypatch, table_small):
    # the cascade keeps only statuses, so it never searches for least primes
    want = prefix_removal_cascade(1, 7, table_small)

    def no_witnesses(excluded, table):
        raise AssertionError(f"witnesses asked for {sorted(excluded)}")

    monkeypatch.setattr(collapse, "_removal_witnesses", no_witnesses)
    assert prefix_removal_cascade(1, 7, table_small) == want
    with pytest.raises(AssertionError, match="witnesses asked"):
        composite_removal_check((9, 15, 21), table_small)


def test_removal_disagreement_is_an_internal_error(monkeypatch, table_small):
    # every exact removal verdict is cross-checked against bitset sumsets
    real = collapse.window_sumset

    def disagree_from(removed):
        """Window sums that come out empty once ``removed`` values are
        missing from the larger operand's window."""
        def planted(small, large, hi):
            odd = (large.hi + 1) // 2 - large.lo // 2
            if odd - len(large) >= removed:
                return intsets.WindowSet(small.lo + large.lo, hi, 0)
            return real(small, large, hi)
        return planted

    claims = [
        (1, lambda: composite_removal_check((9, 15, 21), table_small)),
        (1, lambda: gap_subsequence_check((9, 15, 21, 25), table_small)),
        (1, lambda: check_relation("odd>=3", "odd>=3 \\ {9,15}", 2, 2, (3, 100), table_small)),
        (1, lambda: prefix_removal_cascade(1, 7, table_small)),
        # only the cascade's conclusion removes all eight
        (8, lambda: prefix_removal_cascade(1, 7, table_small)),
    ]
    for removed, claim in claims:
        monkeypatch.setattr(collapse, "window_sumset", disagree_from(removed))
        with pytest.raises(RuntimeError, match="disagree"):
            claim()


def test_removal_cross_check_catches_a_sum_past_the_prefix(monkeypatch):
    # removing every odd value in [5003, 10001] leaves 10004 as the only
    # even sum without a split; a decider planted to say holds is caught
    # on the interval around 3 + 10001, not on the prefix
    excluded = frozenset(range(5003, 10002, 2))
    assert least_uncovered_pair_sum(excluded, 2 * 10001 + 6) == 10004
    monkeypatch.setattr(collapse, "pair_sum_cover_decision", lambda d: holds("planted"))
    with pytest.raises(RuntimeError, match="disagree .* at 10004"):
        collapse._removal_decision(Progression(3, 2, excluded))


def test_removal_cross_check_memory_follows_the_removed_set():
    # the six odd primorial products up to 10^7 (largest 4,849,845); a
    # cross-check over [3, 2M + 6] held a 13.5 MB traced peak here
    fam = primorial_odd_products(10**7)
    table = PrimeTable(fam[-1])
    tracemalloc.start()
    try:
        v = gap_subsequence_check(fam, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.status is Status.HOLDS
    assert peak < 1 << 20


def test_prefix_cascade_precondition(table_small):
    index = CompositeIndex(table_small)
    assert 3 + index.nth(8) == 42 >= 2 * index.nth(1)
    with pytest.raises(ValueError):
        prefix_removal_cascade(40, 7, table_small)
    with pytest.raises(ValueError):
        prefix_removal_cascade(1, 6, table_small)
    with pytest.raises(ValueError):
        prefix_removal_cascade(0, 7, table_small)


# -- decompositions and partitions ------------------------------------------


def test_decompositions_examples():
    recs = decompositions(9, {3, 9}, (1, 20))
    assert [r.factors for r in recs] == [(9,), (3, 3)]
    recs = decompositions(45, Progression(3), (1, 100))
    assert [r.factors for r in recs] == [
        (45,),
        (3, 15),
        (5, 9),
        (9, 5),
        (15, 3),
        (3, 3, 5),
        (3, 5, 3),
        (5, 3, 3),
    ]
    assert decompositions(7, {9}, (1, 20)) == []


def test_decompositions_match_oracle(table_small):
    for a in (12, 24, 36, 60, 90, 225, 256, 999):
        got = [r.factors for r in decompositions(a, Progression(3), (1, 1000))]
        want = ordered_factorizations_bf(a, lambda v: v % 2 == 1 and v >= 3)
        assert sorted(got) == sorted(want), a


def test_decompositions_validation():
    for bad in (0, 1, -1, -6):
        with pytest.raises(ValueError):
            decompositions(bad, Progression(3), (1, 10))
    with pytest.raises(ValueError):
        decompositions(50, Progression(3), (1, 10))  # outside the window
    with pytest.raises(ValueError):
        decompositions(9, Progression(1), (1, 20))  # 1 in the set


def test_factor_stats_examples():
    fs = factor_stats(45, Progression(3), (1, 100))
    assert (fs.factor_count, fs.exponent, fs.degree) == (5, 2, 3)
    fs = factor_stats(9, {3}, (1, 20))
    assert (fs.factor_count, fs.exponent, fs.degree) == (1, 2, 2)
    fs = factor_stats(13, {13}, (1, 20))
    assert (fs.factor_count, fs.exponent, fs.degree) == (1, 1, 1)
    fs = factor_stats(7, {9}, (1, 20))
    assert (fs.factor_count, fs.exponent, fs.degree) == (0, 0, 0)


def test_k_partitions_examples(table_small):
    ps = k_partitions(12, Primes(3), 2, (1, 20), table_small)
    assert [p.parts for p in ps] == [((5, 1), (7, 1))]
    ps = k_partitions(6, {3}, 2, (1, 20))
    assert [p.parts for p in ps] == [((3, 2),)]
    assert ps[0].length == 2
    assert k_partitions(7, Progression(3), 2, (1, 20)) == []


def test_k_partitions_match_oracle(table_small):
    vals = [v for v in range(3, 40, 2)]
    for a in (20, 30, 45):
        for k in (2, 3, 4):
            got = {p.parts for p in k_partitions(a, Progression(3), k, (1, 50))}
            assert got == k_partitions_bf(a, vals, k), (a, k)


def test_k_partitions_constraints(table_small):
    # empty below k * min and on parity mismatch
    assert k_partitions(5, {3}, 2, (1, 20)) == []
    assert k_partitions(11, Progression(3), 2, (1, 20)) == []
    with pytest.raises(ValueError):
        k_partitions(30, Progression(3), 0, (1, 40))


# -- sweeps -------------------------------------------------------------------


def test_shifted_pair_sweep_small(table_small):
    rep = shifted_composite_pair_sweep(60, table_small)
    assert rep.pair_missing == (4, 7)
    assert rep.pair_witnesses[3] == (9, 15)  # 3 + 21 = 24 = 9 + 15
    # frozen expectations from the brute-force scan
    assert rep.even_exceptions == (6, 14, 19)
    assert rep.even_distinct_exceptions == (6, 9, 14, 19)


def test_shifted_pair_sweep_witnesses_are_distinct_composites(table_small):
    rep = shifted_composite_pair_sweep(120, table_small)
    index = CompositeIndex(table_small)
    for k, (x, y) in rep.pair_witnesses.items():
        assert x != y
        assert x + y == 3 + index.nth(k)
        assert not is_prime_bf(x) and not is_prime_bf(y)
        assert x < index.nth(k) and y < index.nth(k)


def test_shifted_pair_absences_brute(table_small):
    # the two exceptional indices really have no distinct composite pair
    comps = odd_composites_upto(60)
    for k, c in ((4, 25), (7, 35)):
        t = 3 + c
        pairs = [(x, t - x) for x in comps if x < t - x and (t - x) in comps]
        assert pairs == [], (k, pairs)


def test_equivalence_chain_agreement(table_1e5):
    # three routes to the same windowed statement must agree: the direct
    # prime pair cover, arbitrary finite composite removals, and removal of
    # an initial composite segment
    import random

    rng = random.Random(99)
    index = CompositeIndex(table_1e5)
    for hi in (2_000, 20_000):
        goldbach = check_relation(
            Progression(3), Primes(3), 2, 2, (3, hi), table_1e5, require_subset=True
        )
        removal = composite_removal_check(
            tuple(sorted(rng.sample([index.nth(k) for k in range(1, 60)], 8))),
            table_1e5,
        )
        prefix = composite_removal_check(index.first(12), table_1e5)
        assert goldbach.ok == removal.ok == prefix.ok


def test_parameter_uniqueness(table_1e5):
    rep = parameter_uniqueness_report(table_1e5, 20_000)
    assert rep.all_confirmed
    assert rep.window_verdict.status is Status.HOLDS_ON_WINDOW
    labels = {c.label for c in rep.cases}
    assert "eleven-separates-integers-from-primes" in labels
    # 11 = 4 + 7 with both parts >= 2, but no prime pair reaches 11
    assert goldbach_pair(11, min_prime=2) is None


def _sums_from_six(ws, n):
    out = intsets.iterated_sumset(ws, n)
    return intsets.WindowSet(out.lo, out.hi, out.bits | 1)  # 2 * 3 = 6 for every set


@pytest.mark.parametrize(
    "decider, stand_in, unconfirmed",
    [
        ("check_fp", lambda *args: holds("1 factors"), ["no-factorization-below-base"]),
        (
            "iterated_sumset",
            _sums_from_six,
            ["minimum-mismatch-higher-base", "semigroup-minimum-forces-equal-floors"],
        ),
    ],
    ids=["check_fp", "iterated_sumset"],
)
def test_parameter_scan_cases_are_decided(monkeypatch, decider, stand_in, unconfirmed):
    monkeypatch.setattr(collapse_module, decider, stand_in)
    limit = 20_000
    table = PrimeTable(limit)
    rep = parameter_uniqueness_report(table, limit)
    assert [c.label for c in rep.cases if not c.confirmed] == unconfirmed
    (scan,) = [
        r for r in run(collapse_checks(table, limit)) if r.ref == "collapse/base-parameter-scan"
    ]
    assert not scan.passed
    assert scan.verdict.status is Status.FAILS and scan.verdict.counterexample == unconfirmed
