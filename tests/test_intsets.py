import random

import pytest

from sumcollapse import (
    Primes,
    Progression,
    WindowSet,
    check_relation,
    dilation,
    iterated_sumset,
    pair_sum_cover_decision,
    parse_set_expr,
    restrict,
    sumset_equal_window,
)
from sumcollapse import intsets
from sumcollapse.intsets import least_splits_bits
from sumcollapse.verdict import Status

from oracles import goldbach_pair, least_split_bf, nfold_sums_bf


def test_cofinite_validation():
    Progression(3, 2, frozenset({9, 15}))
    # an even odd>= bound is refused by the grammar; as a progression it is 4+2k
    with pytest.raises(ValueError):
        parse_set_expr("odd>=4")
    assert Progression(4).describe() == "4+2k"
    with pytest.raises(ValueError):
        Progression(3, 2, frozenset({8}))
    with pytest.raises(ValueError):
        Progression(9, 2, frozenset({3}))
    with pytest.raises(ValueError):
        Progression(3, 0)


def test_cofinite_membership_and_subset():
    d = Progression(3, 2, frozenset({9}))
    assert d.contains(3) and d.contains(11)
    assert not d.contains(9) and not d.contains(4) and not d.contains(1)
    assert Progression(3, 2, frozenset({9, 15})).least_not_in(Progression(3)) is None
    assert Progression(5).least_not_in(Progression(3, 2, frozenset({3}))) is None
    assert Progression(3).least_not_in(Progression(3, 2, frozenset({9}))) == 9
    assert Progression(3, 2, frozenset({3})).least_not_in(Progression(7, 2, frozenset({11}))) == 5


def test_restrict_examples(table_small):
    assert sorted(restrict(Progression(3), 3, 11).members()) == [3, 5, 7, 9, 11]
    assert sorted(restrict(Progression(3, 2, frozenset({9})), 3, 11).members()) == [3, 5, 7, 11]
    assert sorted(restrict(Primes(3), 3, 20, table_small).members()) == [3, 5, 7, 11, 13, 17, 19]
    with pytest.raises(ValueError):
        restrict(Progression(3), 10, 5)


def test_window_set_basics():
    ws = restrict([3, 5, 9, 25], 3, 20)
    assert 5 in ws and 7 not in ws and 21 not in ws
    assert len(ws) == 3
    assert restrict(range(4, 30, 7), 3, 20) == restrict({4, 11, 18}, 3, 20)
    assert list(restrict(lambda v: v % 6 == 1, 3, 20).members()) == [7, 13, 19]
    with pytest.raises(TypeError):
        restrict(3.5, 3, 20)
    empty = WindowSet(6, 5, 0)
    assert len(empty) == 0 and list(empty.members()) == []
    with pytest.raises(ValueError):
        WindowSet(3, 5, 0b10000)  # bit outside window
    with pytest.raises(ValueError):
        WindowSet(7, 5, 0)  # more than an empty window
    # sets that differ in one field alone are unequal
    ws = WindowSet(3, 10, 0b101)
    assert ws == WindowSet(3, 10, 0b101)
    assert ws != WindowSet(2, 10, 0b101) and ws != WindowSet(3, 11, 0b101)
    assert ws != WindowSet(3, 10, 0b100) and ws != (3, 10, 0b101)


def test_degenerate_window():
    ws = WindowSet(5, 5, 1)
    assert list(ws.members()) == [5]
    one = iterated_sumset(ws, 1)
    assert one == ws
    d = restrict(Progression(3), 7, 7)
    assert list(d.members()) == [7]


def test_iterated_sumset_pair_cover():
    base = restrict(Progression(3), 3, 100)
    two = iterated_sumset(base, 2)
    assert two.lo == 6 and two.hi == 100
    assert sorted(two.members()) == list(range(6, 101, 2))


def test_iterated_sumset_identity_and_triples(table_small):
    base = restrict(Primes(3), 3, 30, table_small)
    assert iterated_sumset(base, 1) == base
    triple = iterated_sumset(base, 3)
    assert 9 in triple and 11 in triple and 13 in triple
    assert sorted(triple.members()) == nfold_sums_bf(base.members(), 3, 9, 30)


def test_iterated_sumset_preconditions():
    base = restrict(Progression(3), 3, 10)
    with pytest.raises(ValueError):
        iterated_sumset(base, 4)  # 12 > 10
    with pytest.raises(ValueError):
        iterated_sumset(base, 0)
    with pytest.raises(ValueError):
        iterated_sumset(WindowSet(-3, 10, 1), 2)  # negative window
    # a window from 0 is non-negative: {0, 4} + {0, 4} on [0, 4] is {0, 4}
    assert iterated_sumset(WindowSet(0, 4, 0b10001), 2) == WindowSet(0, 4, 0b10001)


def test_sumset_monotone(table_small):
    big = restrict(Progression(3), 3, 400)
    small = restrict(Progression(3, 2, frozenset({9, 25, 33})), 3, 400)
    for n in (2, 3):
        sb = iterated_sumset(big, n)
        ss = iterated_sumset(small, n)
        assert ss.bits & ~sb.bits == 0  # subset stays subset


def test_progression_cardinality():
    # a finite progression of size k has exactly nk - (n - 1) n-fold sums
    for k, step, n in [(5, 3, 2), (7, 2, 3), (4, 5, 4)]:
        vals = [11 + step * i for i in range(k)]
        hi = n * max(vals) + 1
        ws = restrict(vals, 1, hi)
        assert len(iterated_sumset(ws, n)) == n * k - (n - 1)


def test_dilation():
    ws = restrict([3, 5, 9], 3, 20)
    d = dilation(ws, 2)
    assert sorted(d.members()) == [6, 10, 18]
    assert d.lo == 6 and d.hi == 20
    assert dilation(ws, 1) == ws
    tiny = dilation(restrict([15], 9, 20), 2)
    assert list(tiny.members()) == []  # 30 exceeds the window


def _int(flags):
    return sum(1 << i for i, f in enumerate(flags) if f)


def _int_of(positions):
    return sum(1 << j for j in positions)


@pytest.mark.parametrize("plane_passes", [255, 3], ids=["eight-planes", "two-planes"])
def test_least_splits_bits_against_brute_force(monkeypatch, plane_passes):
    monkeypatch.setattr(intsets, "PLANE_PASSES", plane_passes)
    rng = random.Random(0xB175 + plane_passes)
    odd_primes = [p for p in range(3, 700, 2) if all(p % d for d in range(3, p, 2))]
    fell_below = late_hits = 0
    for _ in range(300):
        lo = rng.randrange(0, 50)
        n = rng.randint(0, 400)
        off = rng.choice([0, 1, rng.randrange(0, 40), rng.randrange(0, 300)])
        # nearly empty flags keep most positions pending past the planes' passes
        density = rng.choice([0.0, 0.005, 0.05, 0.3, 0.8])
        flags = [rng.random() < density for _ in range(off + n)]
        pending = [rng.random() < 0.7 for _ in range(n)]
        kind = rng.randrange(3)
        if kind == 0:
            parts = odd_primes[: rng.randint(0, len(odd_primes))]
        elif kind == 1:
            parts = sorted(rng.sample(range(3, 700, 2), rng.randint(0, 120)))
        else:
            parts = range(3, 10**9, 2)
        positions = [j for j, f in enumerate(pending) if f]
        sums = [2 * (lo + off + j) + 4 for j in positions]
        accepted = {2 * (lo + t) + 1 for t, f in enumerate(flags) if f}
        # a part past s - 3 leaves no partner, so the oracle needs no more of the endless ones
        tried = parts if kind < 2 else range(3, max(sums, default=0), 2)
        want = [least_split_bf(s, tried, 2 * lo + 1, accepted) for s in sums]
        planes, passes, late, left = least_splits_bits(_int(pending), _int(flags), off, iter(parts))
        assert len(planes) <= plane_passes.bit_length() and len(passes) <= plane_passes
        numbers = [sum((plane >> j & 1) << b for b, plane in enumerate(planes)) for j in positions]
        got = [passes[k - 1] if k else late.get(j, 0) for j, k in zip(positions, numbers)]
        assert got == want, (lo, off, pending, flags, parts)
        assert left == sum(1 << j for j, a in zip(positions, got) if not a)
        assert not any(k for j, k in zip(positions, numbers) if j in late)
        assert dict(intsets.pass_groups(_int(pending) & ~left & ~_int_of(late), planes)) == {
            k: sum(1 << j for j, number in zip(positions, numbers) if number == k)
            for k in set(numbers) - {0}
        }
        late_hits += len(late)
        # unsplit sums that still had parts left when their partner fell below flag bit 0
        last_shift = (parts[-1] - 3) // 2 if parts else -1
        fell_below += sum(1 for j, a in zip(positions, want) if not a and off + j < last_shift)
    assert fell_below > 0 and late_hits > 0


def test_pair_sum_cover_decisions():
    assert pair_sum_cover_decision(Progression(3)).status is Status.HOLDS
    assert pair_sum_cover_decision(Progression(3, 2, frozenset({9}))).status is Status.HOLDS
    v = pair_sum_cover_decision(Progression(3, 2, frozenset({3})))
    assert v.status is Status.FAILS and v.counterexample == 6
    with pytest.raises(ValueError):
        pair_sum_cover_decision(Progression(5))
    with pytest.raises(ValueError):
        pair_sum_cover_decision(Progression(3, 4))


def test_pair_sum_failure_is_recheckable():
    excluded = frozenset({3})
    v = pair_sum_cover_decision(Progression(3, 2, excluded))
    s = v.counterexample
    reps = [
        (a, s - a)
        for a in range(3, s // 2 + 1, 2)
        if a not in excluded and (s - a) not in excluded and s - a >= 3
    ]
    assert reps == []


def test_sumset_equal_window_verdicts():
    a = restrict(Progression(3), 3, 10_000)
    b = restrict(Progression(3, 2, frozenset({9, 15})), 3, 10_000)
    v = sumset_equal_window(a, b, 2)
    assert v.status is Status.HOLDS_ON_WINDOW
    assert v.certified_range == (6, 10_000)

    assert sumset_equal_window(a, a, 4).status is Status.HOLDS_ON_WINDOW

    c = restrict(Progression(3, 2, frozenset({3})), 3, 200)
    v = sumset_equal_window(restrict(Progression(3), 3, 200), c, 2)
    assert v.status is Status.FAILS and v.counterexample == 6

    with pytest.raises(ValueError):
        sumset_equal_window(a, restrict(Progression(3), 3, 50), 2)

    # unequal folds compare from the larger fold's start
    odds = restrict(Progression(3), 3, 400)
    v = sumset_equal_window(restrict(range(6, 401, 2), 3, 400), odds, 1, 2)
    assert v.status is Status.HOLDS_ON_WINDOW and v.certified_range == (6, 400)
    v = sumset_equal_window(restrict(range(8, 401, 2), 3, 400), odds, 1, 2)
    assert v.status is Status.FAILS and v.counterexample == 6
    assert "only in the right operand" in v.note


def test_sumset_equal_window_empty_range():
    a = restrict(Progression(3), 3, 8)
    v = sumset_equal_window(a, a, 3)  # 9 > 8
    assert v.status is Status.HOLDS_ON_WINDOW
    assert v.certified_range is None
    assert "empty" in v.note
    # a certified range of one sum is compared, not reported empty:
    # {2} + {2} = {4} and {3} + {3} = {6} differ at 4
    v = sumset_equal_window(restrict({2}, 2, 4), restrict({3}, 2, 4), 2)
    assert (v.status, v.counterexample, v.certified_range) == (Status.FAILS, 4, (4, 4))
    v = check_relation({2}, {3}, 2, 2, (2, 4))
    assert (v.status, v.counterexample) == (Status.FAILS, 4)


def test_exact_decision_agrees_with_windowed_engine():
    # the enumerated range of the exact decision matches bitset comparison
    for excluded in [frozenset(), frozenset({9}), frozenset({9, 15, 21}), frozenset({3, 7})]:
        d = Progression(3, 2, excluded)
        exact = pair_sum_cover_decision(d)
        hi = 2 * d.max_excluded + 6 if excluded else 40
        windowed = sumset_equal_window(
            restrict(Progression(3), 3, hi), restrict(d, 3, hi), 2
        )
        if exact.status is Status.HOLDS:
            assert windowed.status is Status.HOLDS_ON_WINDOW
        else:
            assert windowed.status is Status.FAILS
            assert windowed.counterexample == exact.counterexample


def test_goldbach_window_small(table_small):
    # every even in [6, 2000] splits into two odd primes; matches the oracle
    v = sumset_equal_window(
        restrict(Progression(3), 3, 2000), restrict(Primes(3), 3, 2000, table_small), 2
    )
    assert v.status is Status.HOLDS_ON_WINDOW
    for s in range(6, 2001, 2):
        assert goldbach_pair(s) is not None
