import tracemalloc

import numpy as np
import pytest

from sumcollapse import CompositeIndex, OddComposites, PrimeTable, Primes, is_rough
from sumcollapse.intsets import bits_from_values, progression_bits
from sumcollapse.sieve import CHECKPOINT_BITS, SEGMENT_ODDS

from oracles import is_prime_bf, odd_composites_upto, odd_prime_flags, pi_bf, primes_upto


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


# -- the range reader of the packed table ------------------------------------

READER_LIMIT = 3 * 2**17 + 5  # three full blocks of odd numbers and 3 more

READER_RANGES = [
    (1, READER_LIMIT),
    (0, 20),
    (21, 1_001),  # starts and ends mid-byte
    (2**17 - 17, 2**17 + 17),  # across the first block edge (index 2^16)
    (2**17 + 1, 2**18),  # from the first odd of a block to the last of the next
    (2**18 - 3, 2**18 + 3),
    (2**18 + 1, READER_LIMIT),
    (1_000, 500),  # lo > hi
    (2**17, 2**17),  # lo == hi, even
    (2**17 + 1, 2**17 + 1),  # lo == hi, odd
    (READER_LIMIT, READER_LIMIT),
]

# windows whose ends fall on each of the 8 bit phases of a byte (the odd
# number 16b + 2j + 1 is bit j of byte b), odd and even ends, within one
# byte and across many, and across the first block edge
PHASE_RANGES = [
    (16 * 700 + 2 * j + 1 - even, 16 * (700 + span) + 2 * ((j + shift) % 8) + 1 + even)
    for j in range(8)
    for span, shift, even in ((0, 7 - j, 0), (1, 3, 0), (40, 5, 1), (2**13, 1, 0))
]


@pytest.fixture(scope="module")
def reader_table():
    return PrimeTable(READER_LIMIT)


@pytest.fixture(scope="module")
def reader_flags():
    return odd_prime_flags(READER_LIMIT)


@pytest.mark.parametrize("lo, hi", READER_RANGES)
def test_odd_prime_blocks_tile_the_range(reader_table, reader_flags, lo, hi):
    # the block source: the bounds tile the range's indices, each within one
    # checkpoint block, and each block's bits are its flags
    bounds = list(reader_table.odd_block_bounds(lo, hi))
    index = [v >> 1 for v in range(max(lo, 1), hi + 1) if v % 2]
    assert [i0 for i0, _ in bounds[:1]] == index[:1]
    assert [i0 for i0, _ in bounds[1:]] == [i1 for _, i1 in bounds[:-1]]  # no gap and no overlap
    assert [i1 for _, i1 in bounds[-1:]] == [i + 1 for i in index[-1:]]
    for i0, i1 in bounds:
        assert 0 < i1 - i0 <= CHECKPOINT_BITS
        assert i0 // CHECKPOINT_BITS == (i1 - 1) // CHECKPOINT_BITS
        bits = reader_table.odd_prime_bits(i0, i1)
        assert bits.bit_length() <= i1 - i0
        assert [bool(bits >> (i - i0) & 1) for i in range(i0, i1)] == reader_flags[i0:i1].tolist()


@pytest.mark.parametrize("lo, hi", READER_RANGES + PHASE_RANGES)
def test_odd_prime_bits_read_the_index_range(reader_table, reader_flags, lo, hi):
    i0, i1 = max(lo, 1) // 2, (hi + 1) // 2
    want = sum(1 << (i - i0) for i in range(i0, i1) if reader_flags[i])
    assert reader_table.odd_prime_bits(i0, i1) == want
    # the block source: each block's bits are the range's, shifted into place
    bounds = list(reader_table.odd_block_bounds(lo, hi))
    assert sum(reader_table.odd_prime_bits(j0, j1) << (j0 - i0) for j0, j1 in bounds) == want


@pytest.mark.parametrize("lo, hi", READER_RANGES + PHASE_RANGES)
def test_scans_read_the_range(reader_table, reader_flags, lo, hi):
    odd = [v for v in range(max(lo, 1), hi + 1) if v % 2]
    primes = [v for v in odd if reader_flags[v >> 1]]
    if lo <= 2 <= hi:
        primes.insert(0, 2)
    assert list(reader_table.primes_in(lo, hi)) == primes
    composites = [v for v in odd if v >= 9 and not reader_flags[v >> 1]]
    assert list(reader_table.odd_composites_in(lo, hi)) == composites
    assert reader_table.odd_flag_bits(lo, hi, lo) == _flag_bits(reader_flags, lo, hi, 1)
    assert reader_table.odd_flag_bits(max(lo, 9), hi, lo, composite=True) == _flag_bits(
        reader_flags, lo, hi, 9, composite=True
    )


@pytest.mark.parametrize("hi", [0, 1, 2, 9, 10, 2**17, 2**17 + 1, 2**18 - 1, READER_LIMIT, None])
def test_odd_prime_mask_through_hi(reader_table, reader_flags, hi):
    top = READER_LIMIT if hi is None else hi
    assert np.array_equal(reader_table.odd_prime_mask(hi), reader_flags[: (top + 1) // 2])


def _tampered_reader():
    """The reader table with bits flipped at block edges and every bit of
    the last byte flipped, the padding past the limit included."""
    tampered = PrimeTable(READER_LIMIT)
    raw = bytearray(tampered._bits)
    for at in (0, 1, CHECKPOINT_BITS // 8 - 1, CHECKPOINT_BITS // 8):
        raw[at] ^= 0xA5
    raw[-1] ^= 0xFF
    tampered._bits = bytes(raw)
    return tampered


def _random_windows(rng, count):
    """Windows from lo <= 2 up, empty ones and ones that straddle 2^17."""
    edge = 2**17
    for _ in range(count):
        lo = int(rng.choice([rng.integers(-20, 4), rng.integers(edge - 60, edge + 60),
                             rng.integers(3, READER_LIMIT)]))
        hi = int(rng.choice([lo + rng.integers(-2, 3), lo + rng.integers(0, 300),
                             rng.integers(edge - 60, edge + 60), READER_LIMIT]))
        yield lo, min(hi, READER_LIMIT)


def _flag_bits(flags, lo, hi, start, composite=False, two=False):
    """Bitset over ``[lo, hi]`` (bit v - lo) of the odd v >= ``start`` whose
    flag in ``flags`` (index i for 2i + 1) is set, with ``composite`` the odd
    v >= 9 whose flag is clear, and with ``two`` the prime 2 too."""
    v = np.arange(max(lo, 9 if composite else start), hi + 1)
    v = v[v % 2 == 1]
    v = v[flags[v >> 1] != composite]
    out = bits_from_values(v.tolist(), lo, hi)
    if two and max(lo, start) <= 2 <= hi:
        out |= 1 << (2 - lo)
    return out


def _unpacked(table):
    """The flags of a table's packed bits, read without the package."""
    raw = np.frombuffer(bytes(table._bits), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[: (table.limit + 1) // 2].astype(bool)


@pytest.mark.parametrize("tampered", [False, True])
def test_window_bits_match_the_value_scans(reader_table, reader_flags, tampered):
    table = _tampered_reader() if tampered else reader_table
    flags = _unpacked(table)
    assert np.array_equal(flags, reader_flags) != tampered
    rng = np.random.default_rng(5)
    windows = list(_random_windows(rng, 60)) + [(2, 2), (1, 2), (3, 2), (9, 8), (-5, -1)]
    for lo, hi in windows + PHASE_RANGES:
        for p in (2, 3, 5, 7):
            want = bits_from_values(table.primes_in(max(lo, p), hi), lo, hi)
            assert Primes(p).window_bits(lo, hi, table) == want, (p, lo, hi)
            assert want == _flag_bits(flags, lo, hi, p, two=True), (p, lo, hi)
        prime = bits_from_values(table.primes_in(max(lo, 9), hi), lo, hi)
        want = progression_bits(9, 2, lo, hi) & ~prime
        assert OddComposites().window_bits(lo, hi, table) == want, (lo, hi)
        assert want == _flag_bits(flags, lo, hi, 9, composite=True), (lo, hi)


def test_range_past_the_limit_raises_before_a_value(reader_table):
    past = READER_LIMIT + 1
    scans = [
        reader_table.odd_block_bounds(1, past),
        reader_table.primes_in(1, past),  # 2 is not yielded first
        reader_table.odd_composites_in(9, past),
    ]
    for scan in scans:
        with pytest.raises(ValueError, match="exceeds sieve limit"):
            next(scan)
    with pytest.raises(ValueError, match="exceeds sieve limit"):
        reader_table.odd_prime_mask(past)
    with pytest.raises(ValueError, match="exceeds sieve limit"):
        reader_table.odd_prime_bits(0, (past + 1) // 2 + 1)


@pytest.mark.parametrize("hi", [2**17 - 1, 2**17 + 3, 2**18 + 15])
def test_odd_prime_mask_reads_no_byte_past_hi(reader_table, hi):
    tampered = PrimeTable(READER_LIMIT)
    n = (hi + 1) // 2  # the mask holds the indices below n
    raw = bytearray(tampered._bits)
    raw[n >> 3] ^= 0xFF & (0xFF << (n & 7))
    raw[(n >> 3) + 1 :] = bytes(b ^ 0xFF for b in raw[(n >> 3) + 1 :])
    tampered._bits = bytes(raw)
    assert np.array_equal(tampered.odd_prime_mask(hi), reader_table.odd_prime_mask(hi))
    assert not np.array_equal(tampered.odd_prime_mask(), reader_table.odd_prime_mask())
    bounds = list(tampered.odd_block_bounds(1, hi))
    assert [tampered.odd_prime_bits(i0, i1) for i0, i1 in bounds] == [
        reader_table.odd_prime_bits(i0, i1) for i0, i1 in bounds
    ]


def _checkpoints_reference(bits):
    """Prime bits before each checkpoint block, from a popcount of every byte."""
    popcount = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)
    counts = popcount[np.frombuffer(bits, dtype=np.uint8)]
    sums = np.add.reduceat(counts, np.arange(0, counts.size, CHECKPOINT_BITS // 8))
    return np.concatenate(([0], np.cumsum(sums)))


@pytest.mark.parametrize(
    "limit",
    [10**7 + 12_345]
    + [2 * k * CHECKPOINT_BITS + d for k in (1, 2) for d in (-1, 1)]
    # within 3 of the first three segment edges, where the last segment holds
    # one odd number short of a whole segment, a whole one, one or two;
    # 2 SEGMENT_ODDS - 3 = 2^20 - 3 is prime, the last bit of its table set
    + [2 * k * SEGMENT_ODDS + d for k in (1, 2, 3) for d in range(-3, 4)]
    + list(range(9, 301)),  # where the base-prime recursion bottoms out (roots 3..17)
)
def test_table_built_in_place_with_per_block_checkpoints(limit):
    table = PrimeTable(limit)
    assert np.array_equal(table._ckpt, _checkpoints_reference(table._bits))
    if limit < 10**7:
        # every segment packed into its place in the one buffer
        want = np.packbits(odd_prime_flags(limit), bitorder="little")
        assert np.array_equal(np.frombuffer(table._bits, dtype=np.uint8), want)


def test_table_build_holds_one_segment_at_a_time():
    # the build's working set is the table, one segment of one byte per odd
    # number, and a fixed slack for the segment's packing (a few ints of an
    # eighth of a segment each); a build holding two segments, or one of
    # twice the size, would exceed it
    slack = 3 << 17
    tracemalloc.start()
    try:
        table = PrimeTable(4_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(table._bits) + SEGMENT_ODDS + slack
