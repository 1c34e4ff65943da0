import numpy as np
import pytest

from sumcollapse import CompositeIndex, PrimeTable, is_rough

from oracles import is_prime_bf, odd_composites_upto, pi_bf, primes_upto


def test_prime_count_cited_points():
    assert PrimeTable(100).prime_count(93) == 24
    assert PrimeTable(100).prime_count(2) == 1
    # pi(121) = 30, frozen from the trial-division oracle
    assert pi_bf(121) == 30
    assert PrimeTable(200).prime_count(121) == 30


def test_prime_count_matches_oracle_everywhere_small(table_small):
    for x in range(0, 600):
        assert table_small.prime_count(x) == pi_bf(x), x


def test_nth_prime():
    t = PrimeTable(500)
    assert t.nth_prime(1) == 2
    assert t.nth_prime(2) == 3
    assert t.nth_prime(3) == 5
    # 24th prime is 89, frozen from the oracle
    assert primes_upto(100)[23] == 89
    assert t.nth_prime(24) == 89
    with pytest.raises(ValueError):
        t.nth_prime(0)
    with pytest.raises(ValueError):
        t.nth_prime(10_000)


def test_nth_odd_composite():
    t = PrimeTable(500)
    index = CompositeIndex(t)
    assert index.nth(1) == 9
    assert index.nth(2) == 15
    assert index.nth(3) == 21
    assert index.nth(31) == 121
    assert index.nth(46) == 169
    assert odd_composites_upto(200)[:8] == [9, 15, 21, 25, 27, 33, 35, 39]
    with pytest.raises(ValueError):
        index.nth(0)
    with pytest.raises(ValueError):
        index.nth(10_000)


def test_first_odd_composites():
    index = CompositeIndex(PrimeTable(100))
    assert index.first(22) == tuple(odd_composites_upto(91))
    assert index.first(25)[-1] == 99
    with pytest.raises(ValueError, match="only 25 odd composites <= 100, 26 requested"):
        index.first(26)


def test_rank_round_trip(table_small):
    index = CompositeIndex(table_small)
    for k in range(1, 200):
        assert index.rank(index.nth(k)) == k
    with pytest.raises(ValueError):
        index.rank(11)  # prime
    with pytest.raises(ValueError):
        index.rank(10)  # even


def test_is_prime_matches_oracle(table_small):
    for n in range(0, 600):
        assert table_small.is_prime(n) == is_prime_bf(n), n


def test_query_beyond_limit_is_an_error(table_small):
    with pytest.raises(ValueError):
        table_small.prime_count(table_small.limit + 1)
    with pytest.raises(ValueError):
        table_small.is_prime(table_small.limit + 1)


def test_limit_validation():
    with pytest.raises(ValueError):
        PrimeTable(8)
    PrimeTable(9)


def test_scans_match_oracle(table_small):
    assert list(table_small.primes_in(3, 20)) == [3, 5, 7, 11, 13, 17, 19]
    assert list(table_small.primes_in(1, 30)) == primes_upto(30)
    assert list(table_small.odd_composites_in(9, 50)) == odd_composites_upto(50)
    assert list(table_small.primes_in(14, 16)) == []


def test_is_odd_composite(table_small):
    got = [n for n in range(-9, table_small.limit + 1) if table_small.is_odd_composite(n)]
    assert got == odd_composites_upto(table_small.limit)
    with pytest.raises(ValueError, match="exceeds sieve limit"):
        table_small.is_odd_composite(table_small.limit + 1)


def test_is_rough():
    assert is_rough(9, 3)
    assert is_rough(35, 5)
    assert not is_rough(15, 5)
    with pytest.raises(ValueError):
        is_rough(10, 3)
    with pytest.raises(ValueError):
        is_rough(9, 2)
    with pytest.raises(ValueError):
        is_rough(9, 9)  # 9 is not prime


def test_composite_count_identity_small(table_small):
    # value of the k-th odd composite = 2k + 2*pi(value) - 1
    index = CompositeIndex(table_small)
    for k in range(1, index.count(table_small.limit) + 1):
        c = index.nth(k)
        assert c == 2 * k + 2 * table_small.prime_count(c) - 1


def test_prime_surplus_boundary(table_small):
    index = CompositeIndex(table_small)
    for i in range(1, 23):
        assert table_small.prime_count(index.nth(i)) >= i + 2
    assert table_small.prime_count(index.nth(23)) == 24  # the first failure: 24 < 25
    assert index.nth(23) == 93


def test_upper_bounds_from_31(table_small):
    index = CompositeIndex(table_small)
    for k in range(31, index.count(table_small.limit) + 1):
        c = index.nth(k)
        assert table_small.prime_count(c) <= k - 1
        assert c <= 4 * k - 3


def test_chebyshev_band(table_1e5):
    mask = table_1e5.odd_prime_mask()
    flags = np.zeros(table_1e5.limit + 1, dtype=bool)
    flags[2] = True
    flags[3::2] = mask[1:]
    pi_all = np.cumsum(flags)[17:]
    xs = np.arange(17, table_1e5.limit + 1, dtype=np.float64)
    ratio = xs / np.log(xs)
    guard = 1e-12  # strict inequalities, double precision
    assert (pi_all > ratio * (1 - guard)).all()
    assert (pi_all < 1.25506 * ratio * (1 + guard)).all()


def test_prime_count_scaling_rule(table_1e5):
    # one walk over the odd numbers: the k-th odd composite and pi at it
    comps, pis, pi = [], [], 1  # pi counts the prime 2 from the start
    for n in range(3, table_1e5.limit + 1, 2):
        if table_1e5.is_prime(n):
            pi += 1
        elif n >= 9:
            comps.append(n)
            pis.append(pi)
    assert len(comps) == CompositeIndex(table_1e5).count(table_1e5.limit)
    m = 1
    while 13 ** (m + 1) <= table_1e5.limit:
        for k, (c, pi_c) in enumerate(zip(comps, pis), start=1):
            if c >= 13 ** (m + 1):
                assert pi_c * m < k, (k, m)
                assert c < (2 + 2 / m) * k - 1, (k, m)
        m += 1


def test_index_log_bound(table_small):
    import math

    index = CompositeIndex(table_small)
    for k in range(31, index.count(table_small.limit) + 1):
        c = index.nth(k)
        assert k < (0.5 * math.log(4 * k) - 1) * table_small.prime_count(c) + 1


def test_odd_prime_mask_shape(table_small):
    mask = table_small.odd_prime_mask()
    assert mask.size == (table_small.limit + 1) // 2
    assert not mask[0]  # 1 is not prime
    assert mask[1]  # 3 is prime
