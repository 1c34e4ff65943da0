"""Randomized and exhaustive property suites; each randomized suite is
seed-pinned and runs at least 200 cases."""

from hypothesis import given, settings
from hypothesis import strategies as st

from sumcollapse import Progression, iterated_sumset, restrict

from oracles import nfold_sums_bf
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
