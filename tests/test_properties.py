"""Randomized and exhaustive property suites; each randomized suite is
seed-pinned and runs at least 200 cases."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumcollapse import (
    FiniteSet,
    IntRange,
    OddComposites,
    Primes,
    Progression,
    RoughOdd,
    check_fp,
    collapse,
    intsets,
    iterated_sumset,
    pair_sum_cover_decision,
    restrict,
    rough_pair_cover_evidence,
)
from sumcollapse.verdict import Status

from oracles import (
    is_prime_bf,
    least_uncovered_pair_sum,
    nfold_sums_bf,
    ordered_factorizations_bf,
    primes_upto,
    shift_or_bf,
)
import property_suites as ps


def test_lift_on_cofinite_removals(table_small):
    assert ps.lift_on_cofinite_removals(table_small) >= 100


def test_lift_on_ring_pairs():
    assert ps.lift_on_ring_pairs(8) >= 200


def test_sandwich_on_removals(table_small):
    assert ps.sandwich_on_removals(table_small) >= 100


def test_preorder_transitivity():
    ps.preorder_transitivity(200)


def test_decomposition_counts(table_1e5):
    assert ps.decomposition_counts(table_1e5) == 200


def test_sumset_vs_tuples():
    assert ps.sumset_vs_tuples(200) == 200


def test_quotient_preservation():
    assert ps.quotient_preservation() >= 200


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    lo=st.integers(1, 40),
    width=st.integers(4, 220),
    n=st.integers(1, 4),
    picks=st.sets(st.integers(0, 220), min_size=1, max_size=60),
)
def test_windowed_sumsets_fuzz(lo, width, n, picks):
    hi = min(lo + width, 500)
    vals = sorted(lo + p for p in picks if lo + p <= hi)
    if not vals or n * lo > hi:
        return
    ws = restrict(vals, lo, hi)
    assert list(iterated_sumset(ws, n).members()) == nfold_sums_bf(vals, n, n * lo, hi)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    lo=st.integers(1, 30),
    width=st.integers(4, 150),
    factor=st.integers(1, 5),
    picks=st.sets(st.integers(0, 150), min_size=1, max_size=40),
)
def test_dilation_fuzz(lo, width, factor, picks):
    from sumcollapse import dilation

    hi = lo + width
    vals = sorted(lo + p for p in picks if lo + p <= hi)
    if not vals:
        return
    ws = restrict(vals, lo, hi)
    got = sorted(dilation(ws, factor).members())
    assert got == sorted({factor * v for v in vals if factor * v <= hi})


def _progression(data, step=None, base=None, extra=()):
    step = step or data.draw(st.integers(1, 4))
    base = data.draw(st.integers(-10, 40)) if base is None else base
    offsets = data.draw(st.sets(st.integers(0, 25), max_size=6))
    excluded = {base + k * step for k in offsets}
    excluded |= {v for v in extra if v >= base and (v - base) % step == 0}
    return Progression(base, step, frozenset(excluded))


def _members_bf(p, lo, hi):
    return [
        v for v in range(lo, hi + 1)
        if v >= p.base and (v - p.base) % p.step == 0 and v not in p.excluded
    ]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_progression_against_brute_force(data):
    p = _progression(data)
    # windows below, straddling and past the base
    lo = p.base + data.draw(st.integers(-30, 30))
    hi = lo + data.draw(st.integers(0, 60))
    want = _members_bf(p, lo, hi)
    assert [v for v in range(lo, hi + 1) if p.contains(v)] == want
    assert sorted(restrict(p, lo, hi).members()) == want

    if data.draw(st.booleans()):
        # a superset candidate: a divisor step, an earlier base, and
        # exclusions mostly taken from this set's own
        divisors = [d for d in range(1, p.step + 1) if p.step % d == 0]
        step = data.draw(st.sampled_from(divisors))
        base = p.base - step * data.draw(st.integers(0, 3))
        extra = set(data.draw(st.sets(st.sampled_from(sorted(p.excluded) or [p.base]))))
        extra |= set(data.draw(st.sets(st.integers(-10, 150), max_size=1)))
        q = Progression(base, step, frozenset(
            v for v in extra if v >= base and (v - base) % step == 0
        ))
    else:
        q = _progression(data)
    # every base is <= 40 + 90 and every exclusion <= 150, with periods <= 12:
    # a member missing from q, if any, shows up well below 1000
    missing = [v for v in _members_bf(p, p.base, 1000) if not q.contains(v)]
    assert p.least_not_in(q) == (missing[0] if missing else None)


def _class_operand(data, length):
    """Positions in one residue class mod 1-6 below ``length``: the whole
    class, the class with holes, or a sparse part of it; sometimes plus one
    stray position, which may sit off the class."""
    step = data.draw(st.integers(1, 6))
    first = data.draw(st.integers(0, step - 1))
    keep = data.draw(st.sampled_from([1.0, 0.9, 0.2]))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    bits = 0
    for p in range(first, length, step):
        if keep == 1.0 or rng.random() < keep:
            bits |= 1 << p
    if length and data.draw(st.booleans()):
        # uniform, so that it mostly lies past the members a sample would see
        bits |= 1 << rng.randrange(length)
    return bits


def _two_class_operand(data, length):
    """A whole or holed parity class below ``length`` beside one position of
    the other parity, as the prime 2 sits beside the odd primes."""
    parity = data.draw(st.integers(0, 1))
    keep = data.draw(st.sampled_from([1.0, 0.9]))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    bits = 0
    for p in range(parity, length, 2):
        if keep == 1.0 or rng.random() < keep:
            bits |= 1 << p
    return bits | 1 << 2 * rng.randrange(length // 2) + 1 - parity


def _operand(data):
    if data.draw(st.integers(0, 2)) == 2:
        return _two_class_operand(data, data.draw(st.sampled_from([3000, 700, 40])))
    # lengths 0 give empty operands
    return _class_operand(data, data.draw(st.sampled_from([3000, 700, 40, 1, 0])))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_sumset_kernel_against_shift_or(data):
    # windows below, at and past the operands
    a = _operand(data)
    b = _operand(data)
    longest = max(a.bit_length(), b.bit_length())
    out_len = data.draw(st.one_of(
        st.sampled_from([0, longest, a.bit_length() + b.bit_length()]),
        st.integers(0, 2 * longest + 2),
    ))
    assert intsets._sumset_bits(a, b, out_len) == shift_or_bf(a, b, out_len)


def _shifts_taken(a_bits, b_bits, out_len):
    """Positions the kernel's shift loop (its last enumeration) consumed."""
    taken = []
    real = intsets.iter_bits

    def counting(bits):
        taken.append(0)
        slot = len(taken) - 1
        for pos in real(bits):
            taken[slot] += 1
            yield pos

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intsets, "iter_bits", counting)
        got = intsets._sumset_bits(a_bits, b_bits, out_len)
    assert got == shift_or_bf(a_bits, b_bits, out_len)
    return taken[-1]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    step=st.integers(1, 6),
    firsts=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    length=st.integers(1600, 3000),
    cut=st.floats(0.5, 1.0),
)
def test_sumset_kernel_stops_on_a_filled_class(step, firsts, length, cut):
    # the first shift of a whole class already fills every reachable
    # position below ``length``: the loop stops at its first check, after
    # one shift, where running through would take at least 133
    a, b = (
        sum(1 << p for p in range(first % step, length, step)) for first in firsts
    )
    out_len = int(length * cut)
    assert _shifts_taken(a, b, out_len) == 1


def _expected_pair_cover(excluded):
    """(status, counterexample, certified range, note) of the exact decision."""
    m = max(excluded, default=0)
    threshold = 2 * m + 6
    s = least_uncovered_pair_sum(excluded, threshold)
    if s is None:
        return "holds", None, None, (
            f"each of the {len(excluded)} sums 3 + e, e excluded, is a + b with a and b "
            "odd, >= 3 and not excluded (found by enumeration); every other even "
            "s >= 6 is 3 + (s - 3), and neither part is excluded"
        )
    return "fails", s, (6, threshold), (
        f"{s} has no representation a + b with both odd, >= 3 and outside "
        f"{sorted(excluded)}"
    )


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    picks=st.sets(st.integers(1, 90), max_size=12),
    runs=st.lists(st.tuples(st.integers(1, 90), st.integers(1, 8)), max_size=2),
    with_three=st.booleans(),
    primes=st.sets(st.sampled_from([p for p in range(3, 182) if is_prime_bf(p)]), max_size=3),
)
def test_pair_cover_decision_against_brute_force(picks, runs, with_three, primes):
    excluded = {2 * k + 1 for k in picks} | primes
    for start, count in runs:
        excluded |= {2 * (start + i) + 1 for i in range(count)}
    if with_three:
        excluded.add(3)  # 6 = 3 + 3 loses its only representation
    v = pair_sum_cover_decision(Progression(3, 2, frozenset(excluded)))
    got = (v.status.value, v.counterexample, v.certified_range, v.note)
    assert got == _expected_pair_cover(excluded)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    picks=st.sets(st.integers(1, 3000), min_size=1, max_size=10),
    cover=st.one_of(st.none(), st.integers(4, 4500)),
    with_three=st.booleans(),
)
def test_removal_decision_against_brute_force(picks, cover, with_three):
    # a few odd values, some past the 2^12 prefix, and optionally every odd
    # value in [x/2, x - 3], which leaves the even x without a split
    excluded = {2 * k + 1 for k in picks}
    if cover is not None:
        excluded |= set(range(cover | 1, 2 * cover - 2, 2))
    if with_three:
        excluded.add(3)
    removed = sorted(excluded)
    top = 2 * removed[-1] + 6
    want = least_uncovered_pair_sum(excluded, top)
    removal = Progression(3, 2, frozenset(excluded))
    v = collapse._removal_decision(removal)
    assert (v.status, v.counterexample) == (
        (Status.HOLDS, None) if want is None else (Status.FAILS, want)
    )
    # the cross-check alone finds the same sum, and its intervals hold
    # every sum 3 + e
    assert collapse._uncovered_sum(removal, 6, top) == want
    spans = collapse._cross_check_spans(removed, min(max(top, 60), collapse.PREFIX_SUMS))
    assert all(any(s0 <= 3 + e <= s1 for s0, s1 in spans) for e in removed)
    assert all(a1 + 2 < b0 for (_, a1), (b0, _) in zip(spans, spans[1:]))


def _least_prime_factor(v):
    return next(d for d in range(2, v + 1) if v % d == 0)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(p=st.sampled_from([3, 5, 7, 11, 13]), lo=st.integers(-20, 300), width=st.integers(0, 400))
def test_rough_window_against_brute_force(p, lo, width):
    # windows below, straddling and past 3
    hi = lo + width
    want = [v for v in range(max(lo, 3), hi + 1) if v % 2 and _least_prime_factor(v) >= p]
    assert list(restrict(RoughOdd(p), lo, hi).members()) == want


# each set as (expression, independent membership predicate)
def _odd_from(a, excluded=()):
    return (
        Progression(a, 2, frozenset(excluded)),
        lambda v: v >= a and v % 2 == 1 and v not in excluded,
    )


def _ints_from(a):
    return IntRange(a), lambda v: v >= a


def _primes_from(p):
    return Primes(p), lambda v: v >= p and is_prime_bf(v)


def _rough_from(p):
    return RoughOdd(p), lambda v: v >= 3 and v % 2 == 1 and _least_prime_factor(v) >= p


def _finite(values):
    return FiniteSet(frozenset(values)), lambda v: v in values


ODD_COMPOSITES = (OddComposites(), lambda v: v >= 9 and v % 2 == 1 and not is_prime_bf(v))


@st.composite
def _factor_sets(draw):
    kinds = ["odd", "odd minus", "ints", "primes", "rough", "composites", "finite"]
    kind = draw(st.sampled_from(kinds))
    if kind in ("odd", "odd minus"):
        a = draw(st.sampled_from([1, 3, 5, 7, 9]))
        offsets = draw(st.sets(st.integers(0, 30), max_size=4)) if kind == "odd minus" else ()
        return _odd_from(a, {a + 2 * k for k in offsets})
    if kind == "ints":
        return _ints_from(draw(st.integers(1, 6)))
    if kind == "primes":
        return _primes_from(draw(st.sampled_from([2, 3, 5, 7, 11])))
    if kind == "rough":
        return _rough_from(draw(st.sampled_from([3, 5, 7, 11])))
    if kind == "composites":
        return ODD_COMPOSITES
    return _finite(draw(st.sets(st.integers(1, 400), min_size=1, max_size=8)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(b=_factor_sets(), c=_factor_sets(), lo=st.integers(1, 40), width=st.integers(0, 360))
# an odd right-hand side cannot factor 2: a rough set holds no prime below its bound
@example(b=_ints_from(2), c=_rough_from(3), lo=1, width=50)
# 1 is no product of primes: ints>=1 has no prime floor
@example(b=_ints_from(1), c=_primes_from(2), lo=1, width=50)
# a removed prime starts the right-hand side's primes past it
@example(b=_odd_from(3), c=_odd_from(3, {7}), lo=1, width=50)
def test_check_fp_against_brute_force(table_small, b, c, lo, width):
    (b_expr, in_b), (c_expr, in_c) = b, c
    hi = lo + width
    bad = [v for v in range(lo, hi + 1) if in_b(v) and not ordered_factorizations_bf(v, in_c)]
    v = check_fp(b_expr, c_expr, (lo, hi), table_small)
    if bad:
        assert v.status is Status.FAILS and v.counterexample == bad[0], (b_expr, c_expr, v)
    else:
        assert v.ok, (b_expr, c_expr, v)



_PRIMES_3000 = primes_upto(3_000)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(p=st.sampled_from([3, 5]), lo=st.integers(3, 60), width=st.integers(0, 2_880))
@example(p=3, lo=3, width=3)  # a window ending below 10 shifts no prime
@example(p=5, lo=60, width=0)  # every shift below 2 * lo is a violation
def test_shifted_prime_inclusion_against_brute_force(table_1e5, p, lo, width):
    # the primes q in [7, hi - 3] whose shift 3 + q is no sum of two primes
    # >= 5 from the window [lo, hi]
    hi = 2 * lo + width
    pool = {q for q in _PRIMES_3000 if max(lo, 5) <= q <= hi}
    want = tuple(
        q for q in _PRIMES_3000
        if 7 <= q <= hi - 3 and not any(3 + q - a in pool for a in pool)
    )
    ev = rough_pair_cover_evidence(p, (lo, hi), table_1e5)
    assert ev.shifted_violations == want
