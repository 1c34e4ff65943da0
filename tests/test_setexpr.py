import pytest

from sumcollapse import (
    FiniteSet,
    IntRange,
    OddComposites,
    Primes,
    Progression,
    RoughOdd,
    Stratum,
    Union,
    as_set_expr,
    pair_sum_cover_decision,
    parse_set_expr,
    restrict,
    setexpr,
)

from oracles import is_prime_bf


GRAMMAR_CASES = [
    ("odd>=3", Progression(3)),
    ("odd>=5", Progression(5)),
    ("odd>=3 \\ {9,15,21}", Progression(3, 2, frozenset({9, 15, 21}))),
    ("ints>=2", IntRange(2)),
    ("primes>=3", Primes(3)),
    ("rough>=5", RoughOdd(5)),
    ("composites", OddComposites()),
    ("strata(1)", Stratum(1)),
    ("{9,15}", FiniteSet(frozenset({9, 15}))),
]


@pytest.mark.parametrize("text,expected", GRAMMAR_CASES)
def test_parse(text, expected):
    assert parse_set_expr(text) == expected


@pytest.mark.parametrize("text", [t for t, _ in GRAMMAR_CASES])
def test_describe_round_trip(text):
    expr = parse_set_expr(text)
    assert parse_set_expr(expr.describe()) == expr


@pytest.mark.parametrize(
    "bad",
    [
        "odd>=4",            # even bound
        "odd>=-1",           # non-positive bound
        "primes>=9",         # not a prime
        "rough>=2",          # rough bound must be an odd prime
        "primes>=3 \\ {9}",  # exclusions only after odd>=
        "{}",                # empty literal
        "strata(0)",
        "gibberish",
        "odd>=3 \\ {8}",     # even exclusion
    ],
)
def test_parse_rejections(bad):
    with pytest.raises(ValueError):
        parse_set_expr(bad)


def test_membership_agrees_with_window_bits(table_small):
    exprs = [
        Progression(3),
        Progression(5, 2, frozenset({9, 15})),
        Progression(4, 3, frozenset({10})),
        Progression(-5, 1),
        IntRange(7),
        Primes(5),
        RoughOdd(5),
        RoughOdd(7),
        OddComposites(),
        FiniteSet(frozenset({4, 9, 30})),
        Union(FiniteSet(frozenset({2})), Progression(1)),
    ]
    lo, hi = 2, 300
    for expr in exprs:
        ws = restrict(expr, lo, hi, table_small)
        for v in range(lo, hi + 1):
            assert (v in ws) == expr.contains(v, table_small), (expr.describe(), v)


def test_rough_window_example(table_small):
    got = sorted(restrict(RoughOdd(5), 5, 40, table_small).members())
    assert got == [5, 7, 11, 13, 17, 19, 23, 25, 29, 31, 35, 37]
    assert RoughOdd(3).contains(9)
    assert not RoughOdd(5).contains(9)


def test_prime_backed_sets_need_a_table():
    with pytest.raises(ValueError):
        restrict(Primes(3), 3, 50, None)
    with pytest.raises(ValueError):
        restrict(OddComposites(), 9, 50, None)


def test_classification_flags():
    assert Progression(3).primes_from() == 3
    assert Progression(3, 2, frozenset({9})).primes_from() == 3
    assert Progression(3, 2, frozenset({7})).primes_from() == 8
    assert Progression(5).primes_from() == 5
    assert Progression(3, 4).primes_from() is None
    assert Progression(2, 1, frozenset({2, 4})).primes_from() == 3
    assert Primes(3).primes_from() == 3
    assert Primes(5).primes_from() == 5
    assert IntRange(1).primes_from() == 2
    assert RoughOdd(7).primes_from() == 7
    assert OddComposites().primes_from() is None
    assert Progression(3).prime_floor() == 3
    assert Progression(5, 4).prime_floor() == 3
    assert Progression(1).prime_floor() is None
    assert Progression(4).prime_floor() == 2
    assert IntRange(2).prime_floor() == 2
    assert IntRange(1).prime_floor() is None
    assert Primes(2).prime_floor() == 2
    assert RoughOdd(5).prime_floor() == 5
    assert OddComposites().prime_floor() == 3
    assert FiniteSet(frozenset({9, 15})).prime_floor() == 3
    assert FiniteSet(frozenset({4, 9})).prime_floor() == 2
    assert FiniteSet(frozenset({1, 9})).prime_floor() is None
    assert Union(Primes(5), FiniteSet(frozenset({9}))).prime_floor() == 3
    assert Union(Primes(5), OddComposites()).primes_from() == 5


def test_odd_forms_are_progressions():
    # both odd>= forms parse to the one progression type; only odd>=3 minus
    # a finite set is accepted by the exact pair-sum decision
    assert parse_set_expr("odd>=3 \\ {9}") == Progression(3, 2, frozenset({9}))
    assert parse_set_expr("odd>=1") == Progression(1)
    with pytest.raises(ValueError):
        pair_sum_cover_decision(Progression(1))
    assert not isinstance(Primes(3), Progression)
    assert Progression(3, 4, frozenset({7})).describe() == "3+4k \\ {7}"


def test_progression_window_reads_only_the_excluded_values_inside(monkeypatch):
    # the excluded values are sorted once on the progression, so a window
    # hands bits_from_values only those that fall inside it
    seen = []

    def recorder(values, lo, hi, real=setexpr.bits_from_values):
        seen.extend(values)
        return real(values, lo, hi)

    monkeypatch.setattr(setexpr, "bits_from_values", recorder)
    p = Progression(3, 2, frozenset(range(9, 100_001, 6)))
    assert list(restrict(p, 21, 45).members()) == [23, 25, 29, 31, 35, 37, 41, 43]
    assert seen == [21, 27, 33, 39, 45]
    assert p.max_excluded == 99_999
    # the sorted copy is left out of equality, hashing and the repr
    q = Progression(3, 2, frozenset(range(99_999, 8, -6)))
    assert p == q and hash(p) == hash(q)
    assert "excluded_sorted" not in repr(p)


def test_as_set_expr_coercions():
    assert as_set_expr("odd>=3") == Progression(3)
    assert as_set_expr(Progression(3, 2, frozenset({9}))) == Progression(3, 2, frozenset({9}))
    assert as_set_expr({3, 5}) == FiniteSet(frozenset({3, 5}))
    with pytest.raises(TypeError):
        as_set_expr(3.5)


def test_stratum_membership(table_small):
    s1 = Stratum(1)
    assert s1.contains(9, table_small)
    assert not s1.contains(11, table_small)  # prime
    ws = restrict(s1, 9, 100, table_small)
    composites = [n for n in range(9, 101, 2) if not is_prime_bf(n)]
    assert sorted(ws.members()) == composites  # every composite here is layer 1
