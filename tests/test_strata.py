import os
import tracemalloc

import numpy as np
import pytest

from sumcollapse import strata
from sumcollapse.intsets import bits_from_values
from sumcollapse import (
    PrimeTable,
    StrataTable,
    Stratum,
    compute_strata,
    nfold_all_integers_check,
    nfold_collapse_check,
    rough_pair_cover_evidence,
    verify_absorption,
    verify_partition,
)
from sumcollapse.verdict import Status

from oracles import (
    goldbach_pair,
    is_prime_bf,
    least_split_bf,
    odd_composites_upto,
    partition_audit_bf,
    primes_upto,
    simple_prime_set,
    strata_bf,
    strata_census_bf,
    strata_csv_bf,
    sum_of_k_primes_bf,
)
from test_battery import (
    STRATA_LIMIT,
    _bit_of,
    _set_entry,
    _sieve,
    _tampered_blocks,
    _without_seven,
)


def _replaced(st, c, tamper):
    """``st`` with the block that holds ``c`` replaced by ``tamper(block)``,
    which may rewrite the copy it is handed in place and return None;
    ``st`` itself is left as it is."""
    blocks = list(st.blocks)
    i = next(i for i, block in enumerate(blocks) if _bit_of(block, c) is not None)
    b = blocks[i]
    b = strata.BitBlock(b.i0, b.size, b.composite, list(b.planes), list(b.passes), dict(b.singles))
    blocks[i] = tamper(b) or b
    return StrataTable(st.limit, tuple(blocks))


def _relisted(st, c, edit):
    """``st`` with the block that holds ``c`` rebuilt by :func:`_bit_block`
    from its listings as ``edit(listings)`` leaves them, so a layer-1
    listing lands in the planes, as the search puts it."""
    return _replaced(st, c, lambda b: _bit_block(b.i0, b.size, edit(strata._listings(b))))


def test_first_layer_witnesses(table_small):
    st = compute_strata(2_000, table_small)
    want = strata_bf(2_000, _sieve(2_000))
    assert st.columns() == want
    # 9 + 3 = 5 + 7 and 15 + 3 = 5 + 13
    assert want[0][:2] == [9, 15] and want[2][:2] == [5, 5]
    assert set(want[1]) == {1} and st.unassigned == ()


def test_minimal_table():
    st = compute_strata(9)
    assert st.layers == {9: 1}
    with pytest.raises(ValueError):
        compute_strata(8)


def test_layer_one_matches_pair_oracle(strata_1e5):
    # spot the full window: layer 1 iff a two-odd-prime split of 3 + c exists,
    # and the witness is the split with the least odd prime
    comps = odd_composites_upto(3_000)
    got = [column[: len(comps)] for column in strata_1e5.columns()]
    assert got[0] == comps
    for c, layer, p in zip(*got):
        pair = goldbach_pair(3 + c)
        assert (layer == 1) == (pair is not None)
        assert (p, c + 3 - p) == pair if layer else p == 0


def test_witnesses_use_smallest_prime(strata_1e5, table_1e5):
    comps, layer, witness = strata_1e5.columns()
    for c in (9, 15, 21, 25, 10_001):
        i = comps.index(c)
        p = witness[i]
        assert layer[i] == 1 == strata_1e5.layers[c]
        assert table_1e5.is_prime(p) and table_1e5.is_prime(c + 3 - p)
        for smaller in table_1e5.primes_in(3, p - 1):
            assert not table_1e5.is_prime(3 + c - smaller)


def test_determinism_across_limits(table_small, strata_1e5):
    small = compute_strata(2_000, table_small).columns()
    assert tuple(got[: len(small[0])] for got in strata_1e5.columns()) == small


def _keep_only(table, primes):
    """Clear every odd prime of ``table``'s packed bits but ``primes``, so
    each of its readers, array, int and point, sees only those."""
    mask = np.zeros((table.limit + 1) // 2, dtype=bool)
    mask[[p >> 1 for p in primes]] = True
    table._bits = np.packbits(mask, bitorder="little").tobytes()
    table._ckpt = table._build_checkpoints()


class _OnlyVisible(PrimeTable):
    """Shows only ``visible`` as odd primes to every reader but ``primes_in``,
    which still yields every prime as a part."""

    def __init__(self, limit, visible):
        super().__init__(limit)
        _keep_only(self, visible)

    def primes_in(self, lo, hi):
        return PrimeTable(self.limit).primes_in(lo, hi)


class _OnlyThreeVisible(_OnlyVisible):
    """Shows 3 as the only odd prime, so higher layers and unassigned entries occur."""

    def __init__(self, limit):
        super().__init__(limit, (3,))


def _past_255_passes():
    """The true table to 20,001 with the primes in [18,000, 20,000] cleared:
    the composites there (the cleared primes among them) find their least
    witness p > 2,000, past the 255th odd prime 1,621, with a partner below
    18,000."""
    limit, hidden = 20_001, set(range(18_001, 20_000, 2))
    table = PrimeTable(limit)
    _keep_only(table, sorted(simple_prime_set(limit) - hidden - {2}))
    return table, _sieve(limit, hidden), None


def test_stratum_answers_from_the_table_it_is_passed():
    # 9 is layer 1 on the true sieve and unassigned when only 3 is visible;
    # neither answer may leak into a query on the other table
    true, masked = PrimeTable(300), _OnlyThreeVisible(300)
    s = Stratum(1)
    assert s.contains(9, true) and not s.contains(9, masked)
    s = Stratum(1)
    assert not s.contains(9, masked) and s.contains(9, true)
    assert s.window_bits(9, 300, true) & 1 and not s.window_bits(9, 300, masked) & 1  # bit 0 is 9


def test_higher_layers_match_loop_reference():
    st = compute_strata(300, _OnlyThreeVisible(300))
    want = strata_bf(300, {3}.__contains__, primes_upto(300)[1:])
    assert st.columns() == want
    assert st.unassigned == (9,) and want[1][0] == 0
    assert st.passes == 2 == max(want[1])
    # against the true sieve, the hidden primes are stray entries, but every
    # higher-layer witness still peels onto layer 1
    rep = verify_partition(st, PrimeTable(300))
    assert "9 was never assigned to a layer" in rep.anomalies
    assert not any("peel" in a for a in rep.anomalies)
    c = want[0][want[1].index(2)]
    rep = verify_partition(_witness(st, c, 3), PrimeTable(300))  # the partner is c itself, a layer-2 entry
    assert f"layer-2 witness for {c} does not peel correctly" in rep.anomalies


@pytest.mark.parametrize("limit,table_type", [(4_000, PrimeTable), (300, _OnlyThreeVisible)])
def test_stratum_reads_the_stream_a_few_times_for_rising_queries(monkeypatch, limit, table_type):
    table = table_type(limit)
    layers = compute_strata(limit, table).layers
    real = strata.strata_bits
    reads = []
    monkeypatch.setattr(strata, "strata_bits", lambda n, t: reads.append(n) or real(n, t))
    for k in (1, 2):
        reads.clear()
        s = Stratum(k)
        got = [s.contains(n, table) for n in range(9, limit + 1)]
        assert got == [n % 2 == 1 and layers.get(n) == k for n in range(9, limit + 1)]
        # each read reaches twice as far as the last: 9, 18, ..., then the limit
        assert reads == [min(limit, 9 << i) for i in range(len(reads))] and len(reads) <= 12


class _OnlyListedPrimes(PrimeTable):
    """A table whose only odd primes are ``primes``, read in blocks of
    ``block`` odd numbers, so most composites are exceptions spread over
    many blocks."""

    def __init__(self, limit, primes, block):
        super().__init__(limit)
        _keep_only(self, primes)
        self.block = block

    def odd_block_bounds(self, lo=1, hi=None):
        for i0, i1 in super().odd_block_bounds(lo, hi):
            for j in range(i0, i1, self.block):
                yield j, min(j + self.block, i1)


def test_exceptions_placed_across_blocks():
    # with only 3, 7 and 13 prime, layer 1 ends at 23 and each deeper layer
    # reaches at most 10 further, so nearly every composite is an exception
    # whose partners are exceptions of earlier 16-odd blocks
    primes = (3, 7, 13)
    table = _OnlyListedPrimes(300, primes, 16)
    st = compute_strata(300, table)
    want = strata_bf(300, set(primes).__contains__)
    assert st.columns() == want
    assert st.unassigned == (9,) and want[1][0] == 0
    assert st.passes == max(want[1]) == 31
    deep = [(c, c + 3 - p) for c, k, p in zip(*want) if k > 2]
    assert any(c >> 5 > partner >> 5 for c, partner in deep)  # 16 odd numbers are 32 integers
    # the audit peels every deeper witness against its own list of exceptions
    audit = strata.audit_layer_one(300, table)
    assert verify_partition(st, table) == audit
    assert audit.anomalies == ("9 was never assigned to a layer",)
    assert (audit.layer_one, audit.max_layer, audit.unassigned) == (want[1].count(1), 31, 1)


def test_audit_flags_a_deeper_witness_that_does_not_peel(monkeypatch):
    primes = (3, 7, 13)
    table = _OnlyListedPrimes(300, primes, 16)
    st = compute_strata(300, table)
    # 3 instead of the least witness of the first layer-20 member: the
    # partner is the member itself, in layer 20 and not 19
    comps, layer, _ = st.columns()
    c = comps[layer.index(20)]
    real = strata.strata_bits

    def tampered(limit, table):
        for block in real(limit, table):
            _set_entry(block, c, 20, 3)
            yield block

    monkeypatch.setattr(strata, "strata_bits", tampered)
    want = verify_partition(_witness(st, c, 3), table).anomalies
    assert strata.audit_layer_one(300, table).anomalies == want == (
        "9 was never assigned to a layer",
        f"layer-20 witness for {c} does not peel correctly",
    )


# (table, the prime test strata_bf reads it by, the witness primes) on the
# true sieve at block edges of 2^17 odd numbers, and on tables with hidden
# primes, where deeper layers and unassigned composites occur
ORACLE_TABLES = {
    "true-2^17-1": lambda: (PrimeTable(2**17 - 1), _sieve(2**17 - 1), None),
    "true-2^17+1": lambda: (PrimeTable(2**17 + 1), _sieve(2**17 + 1), None),
    "true-3*2^17+2": lambda: (PrimeTable(STRATA_LIMIT), _sieve(STRATA_LIMIT), None),
    "only-3-visible": lambda: (_OnlyThreeVisible(300), {3}.__contains__, primes_upto(300)[1:]),
    "only-3-7-13-in-16-odd-blocks": lambda: (
        _OnlyListedPrimes(300, (3, 7, 13), 16), {3, 7, 13}.__contains__, None
    ),
    "without-7": lambda: (_without_seven(), _sieve(STRATA_LIMIT, {7}), None),
    "no-odd-primes": lambda: (_OnlyListedPrimes(300, (), 16), set().__contains__, None),
    "no-visible-odd-prime": lambda: (_OnlyVisible(300, ()), set().__contains__, primes_upto(300)[1:]),
    "past-255-passes": _past_255_passes,
}


def _bits(values, lo, hi):
    buf = bytearray((hi - lo) // 8 + 1)
    for v in values:
        buf[(v - lo) >> 3] |= 1 << ((v - lo) & 7)
    return int.from_bytes(buf, "little")


@pytest.mark.parametrize("case", ORACLE_TABLES)
def test_the_stream_and_its_readers_match_the_strata_oracle(tmp_path, case):
    table, is_prime, primes = ORACLE_TABLES[case]()
    limit = table.limit
    want = strata_bf(limit, is_prime, primes)
    comps, layer, witness = want
    # the whole-limit table, its tracer reads and the concatenated stream
    st = compute_strata(limit, table)
    assert st.columns() == want
    assert st.unassigned == tuple(c for c, k in zip(comps, layer) if not k)
    assert len(st.layers) == len(comps) - len(st.unassigned)
    assert list(st.layers) == [c for c, k in zip(comps, layer) if k]
    assert [st.layers.get(c) for c in comps[:50]] == [k or None for k in layer[:50]]
    assert st.passes == max(1, max(layer))
    # the census, and the CSV both writers make
    tally = strata.strata_census(limit, table, tmp_path / "streamed.csv")
    assert tally.census_dict() == strata_census_bf(limit, comps, layer)
    rows = strata_csv_bf(comps, layer, witness)
    assert (tmp_path / "streamed.csv").read_bytes() == rows
    st.write_csv(tmp_path / "table.csv")
    assert (tmp_path / "table.csv").read_bytes() == rows
    # each layer's members, one past the deepest being empty, on the whole
    # window and on its middle third
    for k in range(1, max(layer) + 2):
        for lo, hi in ((9, limit), (limit // 3, 2 * limit // 3)):
            members = [c for c, j in zip(comps, layer) if j == k and lo <= c <= hi]
            assert Stratum(k).window_bits(lo, hi, table) == _bits(members, lo, hi), (k, lo, hi)


def test_a_block_past_255_passes_keeps_its_later_hits_one_by_one():
    table, is_prime, _ = _past_255_passes()
    (block,) = strata.layer_one_blocks(table.limit, table)
    assert len(block.passes) == 255 and len(block.planes) == 8
    late = {2 * (block.i0 + j) + 1: p for j, (k, p) in block.singles.items() if k == 1}
    assert len(late) == len(block.singles) > 0
    assert min(late) > 18_000 and min(late.values()) > block.passes[-1] == 1_619
    comps, layer, witness = strata_bf(table.limit, is_prime)
    assert all(witness[comps.index(c)] == p for c, p in late.items())
    assert strata.audit_layer_one(table.limit, table).ok


def test_partition_audit(strata_1e5, table_1e5):
    rep = verify_partition(strata_1e5, table_1e5)
    assert rep.ok
    assert rep.layer_one == rep.total_composites
    # frozen from the sieve: odd composites up to 10^4
    st4 = compute_strata(10_000)
    rep4 = verify_partition(st4)
    assert rep4.total_composites == 3771
    assert rep4.ok


def _without(st, c):
    return _relisted(st, c, lambda rows: [row for row in rows if row[0] != c])


def _with(st, c, layer, p):
    """``st`` listing ``c`` once more, first: a value ``st`` lists already
    is then listed twice, and its first listing is a single."""
    return _relisted(st, c, lambda rows: sorted([(c, layer, p), *rows], key=lambda row: row[0]))


def test_partition_audit_flags_corruption(table_small):
    st = compute_strata(2_000, table_small)
    assert verify_partition(st, table_small).ok
    # a prime smuggled in, with a valid-looking witness 7 + 7 = 11 + 3
    bad = _with(st, 11, 1, 7)
    assert _in_planes(bad, 11)  # read by the pass for 7
    rep = verify_partition(bad, table_small)
    assert not rep.ok
    assert rep.anomalies == ("table entry 11 is not an odd composite <= 2000",)
    rep = verify_partition(_without(st, 9), table_small)
    assert not rep.ok
    assert rep.anomalies == ("odd composite 9 missing from the table",)
    bad = _witness(st, 9, 3)  # witness (3, 9) for 9 does not peel to an odd prime pair
    assert [column[0] for column in bad.columns()] == [9, 1, 3] and _in_planes(bad, 9)
    rep = verify_partition(bad, table_small)
    assert not rep.ok
    assert rep.anomalies == ("layer-1 witness for 9 is not an odd prime pair",)
    bad = _witness(st, 25, 9)  # witness (9, 19) for 25: the partner is prime, p is not
    assert [column[3] for column in bad.columns()] == [25, 1, 9] and _in_planes(bad, 25)
    rep = verify_partition(bad, table_small)
    assert rep.anomalies == ("layer-1 witness for 25 is not an odd prime pair",)
    bad = _witness(st, 15, 0)  # no witness recorded for 15: its pass names the prime 0
    assert _in_planes(bad, 15)
    rep = verify_partition(bad, table_small)
    assert rep.anomalies == ("witness for 15 does not sum to 18",)
    # 9 listed twice, with a layer both times
    rep = verify_partition(_with(st, 9, 1, 5), table_small)
    assert rep.anomalies == ("9 is listed more than once",)
    assert (rep.total_composites, rep.layer_one) == (697, 698)


def test_partition_audit_peels_onto_a_value_at_its_first_listing(table_small):
    # 25 listed twice: first as a layer-2 single with witness 19 (its partner
    # 9 is in layer 1), then as its layer-1 plane entry; 27, moved to layer 3
    # with witness 5, peels onto 25 at its first listing, so only the repeat
    # is wrong
    st = _with(compute_strata(2_000, table_small), 25, 2, 19)
    st = _replaced(st, 27, lambda block: _set_entry(block, 27, 3, 5))
    assert [column[3:6] for column in st.columns()] == [[25, 25, 27], [2, 1, 3], [19, 5, 5]]
    want = partition_audit_bf(zip(*st.columns()), st.limit)
    assert verify_partition(st, table_small).anomalies == want == ("25 is listed more than once",)


def _witness(st, c, p):
    """``st`` with the witness prime of ``c`` set to ``p``, its layer kept: a
    layer-1 entry then lies in the planes, as a hit of the pass for ``p``."""
    return _relisted(st, c, lambda rows: [(v, k, p if v == c else w) for v, k, w in rows])


def _in_planes(st, c):
    """Whether ``st`` lists ``c`` in the planes only."""
    block = next(block for block in st.blocks if _bit_of(block, c) is not None)
    j = _bit_of(block, c)
    return j not in block.singles and any(plane >> j & 1 for plane in block.planes)


def _witness_single(st, c, p):
    """``st`` with the witness prime of ``c`` set to ``p`` in a single, its layer kept."""
    return _replaced(st, c, lambda block: _set_entry(block, c, st.layers[c], p))


def _deeper_witness_that_does_not_peel(_st, _table):
    # 3 for the first layer-20 member: its partner is the member itself
    table = _OnlyListedPrimes(300, (3, 7, 13), 16)
    st = compute_strata(300, table)
    comps, layer, _ = st.columns()
    return _witness(st, comps[layer.index(20)], 3), table, lambda v: v in (3, 7, 13)


def _layer_one_partner_dropped(_st, _table):
    # the partner of the first layer-2 member, a layer-1 composite, goes missing
    table = _OnlyListedPrimes(300, (3, 7, 13), 16)
    st = compute_strata(300, table)
    comps, layer, witness = st.columns()
    i = layer.index(2)
    partner = comps[i] + 3 - witness[i]
    assert st.layers[partner] == 1
    return _without(st, partner), table, lambda v: v in (3, 7, 13)


def _prime_at_the_limit_smuggled_in(single):
    # the prime limit 1,999 listed at layer 1 with witness 3: its pair (3,
    # 1,999) is two odd primes <= the limit, so only the stray entry is wrong;
    # as a single, its partner is looked up alone
    def case(_st, _table):
        table = PrimeTable(1_999)
        st = _with(compute_strata(1_999, table), 1_999, 1, 3)
        if single:
            st = _replaced(st, 1_999, lambda block: _set_entry(block, 1_999, 1, 3))
        return st, table, is_prime_bf

    return case


def _at_layer_two(c, p):
    """A case that moves ``c`` to layer 2 with witness ``p``."""

    def case(st, table):
        return _replaced(st, c, lambda block: _set_entry(block, c, 2, p)), table, is_prime_bf

    return case


def _only_three_visible(against_the_sieve):
    def case(_st, _table):
        table = _OnlyThreeVisible(300)
        st = compute_strata(300, table)
        if against_the_sieve:
            return st, PrimeTable(300), is_prime_bf
        return st, table, lambda v: v == 3

    return case


# (tampered strata table, the table it is audited against, its prime test)
# from the strata and the sieve up to 2,000
AUDIT_CASES = {
    "true-table": lambda st, table: (st, table, is_prime_bf),
    "prime-smuggled-in": lambda st, table: (_with(st, 11, 1, 7), table, is_prime_bf),
    "composite-dropped": lambda st, table: (_without(st, 9), table, is_prime_bf),
    "layer-1-witness-3-for-9": lambda st, table: (_witness(st, 9, 3), table, is_prime_bf),
    "layer-1-witness-9-for-25": lambda st, table: (_witness(st, 25, 9), table, is_prime_bf),
    "no-witness-for-15": lambda st, table: (_witness(st, 15, 0), table, is_prime_bf),
    # the pass for 13 reads partner 25, shifted up, and partner -1, below the read, alone
    "layer-1-witness-13-for-35": lambda st, table: (_witness(st, 35, 13), table, is_prime_bf),
    "layer-1-witness-13-for-9": lambda st, table: (_witness(st, 9, 13), table, is_prime_bf),
    # the same three witnesses as singles, as the search leaves a late or retried hit
    "layer-1-witness-3-for-9-single": lambda st, t: (_witness_single(st, 9, 3), t, is_prime_bf),
    "layer-1-witness-9-for-25-single": lambda st, t: (_witness_single(st, 25, 9), t, is_prime_bf),
    "no-witness-for-15-single": lambda st, t: (_witness_single(st, 15, 0), t, is_prime_bf),
    "listed-twice": lambda st, table: (_with(st, 9, 1, 5), table, is_prime_bf),
    "listed-twice-once-unassigned": lambda st, table: (_with(st, 9, 0, 0), table, is_prime_bf),
    "prime-at-the-limit-smuggled-in": _prime_at_the_limit_smuggled_in(False),
    "prime-at-the-limit-smuggled-in-single": _prime_at_the_limit_smuggled_in(True),
    "layer-2-partner-is-a-prime": _at_layer_two(25, 5),  # 25 + 3 = 5 + 23
    "layer-2-partner-is-even": _at_layer_two(25, 2),  # 25 + 3 = 2 + 26
    "layer-20-does-not-peel": _deeper_witness_that_does_not_peel,
    "layer-1-partner-dropped": _layer_one_partner_dropped,
    "only-3-visible": _only_three_visible(False),
    "only-3-visible-against-the-sieve": _only_three_visible(True),
}


@pytest.mark.parametrize("case", AUDIT_CASES)
def test_both_audits_match_the_brute_force_audit(monkeypatch, table_small, case):
    st, table, is_prime = AUDIT_CASES[case](compute_strata(2_000, table_small), table_small)
    want = partition_audit_bf(zip(*st.columns()), st.limit, is_prime)
    assert bool(want) == (case != "true-table")
    assert verify_partition(st, table).anomalies == want
    # the battery's audit, fed the same blocks as the stream
    monkeypatch.setattr(strata, "strata_bits", lambda limit, table: iter(st.blocks))
    assert strata.audit_layer_one(st.limit, table).anomalies == want


def test_census(strata_1e5, table_1e5):
    tally = strata.strata_census(100_000, table_1e5)
    cen = tally.census()
    comps = odd_composites_upto(100_000)
    assert cen == {1: {"count": len(comps), "min": 9, "max": comps[-1]}}
    assert len(strata_1e5.layers) == len(comps)
    want = strata_bf(100_000, _sieve(100_000))
    assert tally.census_dict() == strata_census_bf(100_000, want[0], want[1])
    assert tally.max_layer == tally.passes == 1 and tally.unassigned == []


def test_absorption(strata_1e5, table_1e5):
    rep = verify_absorption(strata_1e5, 4, (9, 3_000), table_1e5)
    assert rep.ok
    assert rep.vacuous == (3, 4)  # no layer-2 or layer-3 members exist
    assert rep.checked[2] == len(odd_composites_upto(3_000))
    # the k = 2 statement agrees with the brute-force pair search
    assert sum_of_k_primes_bf(3 + 9, 2)


def test_absorption_at_higher_folds():
    # real strata always absorb, so this table is built by hand, on a sieve
    # that hides 3 and 5: 9 + 3 * 2 = 15 is no sum of three primes >= 7, nor
    # 21 + 3 * 3 = 30 of four, and 69 lies past the window
    table = _OnlyListedPrimes(200, [p for p in primes_upto(200) if p >= 7], 16)
    comps = [9, 15, 21, 25, 27, 33, 35, 39, 45, 63, 65, 69]
    layer = [2, 1, 3, 3, 1, 2, 0, 2, 3, 2, 1, 3]
    st = StrataTable(200, (_bit_block(4, 96, list(zip(comps, layer, [0] * len(comps)))),))
    rep = verify_absorption(st, 4, (9, 65), table)
    want = [
        (k, c)
        for k in (2, 3, 4)
        for c, lay in zip(comps, layer)
        if lay == k - 1 and c <= 65 and not sum_of_k_primes_bf(3 * (k - 1) + c, k, 7)
    ]
    assert rep.checked == {2: 3, 3: 4, 4: 3} and rep.vacuous == ()
    assert rep.failures == tuple(want) == ((3, 9), (4, 21))
    assert not rep.ok


def test_absorption_on_a_window_that_ends_at_3():
    # a hand-built member 3 in layer 1: 3 + 3 is the pair sum of the prime
    # 3, the top of the window, which the prime bits must still hold
    st = StrataTable(9, (_bit_block(1, 4, [(3, 1, 3)]),))
    rep = verify_absorption(st, 2, (3, 3), PrimeTable(9))
    assert sum_of_k_primes_bf(3 + 3, 2)
    assert rep.checked == {2: 1} and rep.failures == ()


@pytest.mark.parametrize("case", ["true-2^17+1", "only-3-7-13-in-16-odd-blocks", "only-3-visible"])
def test_absorption_reads_the_stream_as_it_reads_the_table(case):
    # the battery hands the check the strata stream; with only 3 visible
    # some shifted members are no k-fold sums of the visible primes
    table, is_prime, primes = ORACLE_TABLES[case]()
    limit = table.limit
    want = verify_absorption(compute_strata(limit, table), 5, (9, limit), table)
    assert verify_absorption(strata.strata_bits(limit, table), 5, (9, limit), table) == want
    assert want.checked and (case == "true-2^17+1") == (want.vacuous == (3, 4, 5))
    # judged on the oracle's members, summed from the primes the table shows
    comps, layer, _ = strata_bf(limit, is_prime, primes)
    members = {k: [c for c, j in zip(comps, layer) if j == k - 1] for k in range(2, 6)}
    assert want.checked == {k: len(cs) for k, cs in members.items() if cs}
    assert want.vacuous == tuple(k for k, cs in members.items() if not cs)
    assert want.failures == tuple(
        (k, c) for k, cs in members.items() for c in cs
        if not sum_of_k_primes_bf(3 * (k - 1) + c, k, 3, is_prime)
    )
    assert bool(want.failures) == (case == "only-3-visible")
    with pytest.raises(ValueError, match="needs the stream's table"):
        verify_absorption(strata.strata_bits(limit, table), 3, (9, limit))


def test_evidence_is_clean_only_without_violations_of_either_kind():
    def report(violations, shifted):
        return strata.EvidenceReport(3, (3, 100), (6, 100), violations, len(violations), 7, shifted)

    assert report((), ()).clean
    assert not report((), (89,)).clean  # shifted violations alone
    assert not report((40,), ()).clean  # pair violations alone
    assert not report((40,), (89,)).clean


def test_nfold_checks(table_1e5):
    for n in (2, 3):
        v = nfold_collapse_check(n, (3, 20_000), table_1e5)
        assert v.status is Status.HOLDS_ON_WINDOW
        assert v.certified_range == (3 * n, 20_000)
    v = nfold_all_integers_check(3, (2, 20_000), table_1e5)
    assert v.status is Status.HOLDS_ON_WINDOW
    assert v.certified_range == (6, 20_000)
    with pytest.raises(ValueError):
        nfold_all_integers_check(2, (2, 100), table_1e5)
    with pytest.raises(ValueError):
        nfold_collapse_check(4, (3, 11), table_1e5)
    # a window that ends at the least n-fold sum is the one-sum range, not a refusal
    for n in (2, 3, 4):
        v = nfold_collapse_check(n, (3, 3 * n), table_1e5)
        assert v.status is Status.HOLDS_ON_WINDOW
        assert v.certified_range == (3 * n, 3 * n)
    for n in (3, 4):
        v = nfold_all_integers_check(n, (2, 2 * n), table_1e5)
        assert v.status is Status.HOLDS_ON_WINDOW
        assert v.certified_range == (2 * n, 2 * n)


def test_three_fold_odd_sums_brute(table_1e5):
    # every odd in [9, 600] is a sum of three odd primes on-window
    v = nfold_collapse_check(3, (3, 600), table_1e5)
    assert v.ok
    for s in range(9, 601, 2):
        assert sum_of_k_primes_bf(s, 3), s


def test_rough_pair_cover(table_1e5):
    ev = rough_pair_cover_evidence(3, (3, 20_000), table_1e5)
    assert ev.clean  # two-prime cover of all even sums on-window
    ev5 = rough_pair_cover_evidence(5, (3, 10_000), table_1e5)
    assert ev5.violation_count == 0
    assert not ev5.shifted_violations
    # the cited small memberships
    assert goldbach_pair(50, min_prime=5) == (7, 43)
    assert goldbach_pair(10, min_prime=5) == (5, 5)
    with pytest.raises(ValueError):
        rough_pair_cover_evidence(2, (3, 100), table_1e5)


def _bit_block(i0, size, entries):
    """A :class:`strata.BitBlock` over ``size`` odd numbers from 2 i0 + 1
    holding the ``(c, layer, witness)`` listings in their order, as the
    search puts them: a value's last listing in the planes if it is in layer
    1, by pass numbers in witness order, and any other in ``singles``, which
    every reader takes first.  A value is listed at most twice."""
    entries = [((c >> 1) - i0, k, p) for c, k, p in entries]
    last = {j: n for n, (j, _, _) in enumerate(entries)}
    in_planes = [k == 1 and last[j] == n for n, (j, k, _) in enumerate(entries)]
    passes = sorted({p for (_, _, p), plane in zip(entries, in_planes) if plane})
    number = {p: n for n, p in enumerate(passes, 1)}
    planes = [[] for _ in range(len(passes).bit_length())]
    singles = {}
    for (j, k, p), plane in zip(entries, in_planes):
        if plane:
            for b, bits in enumerate(planes):
                if number[p] >> b & 1:
                    bits.append(j)
        else:
            assert j not in singles, "a block lists a value at most twice"
            singles[j] = (k, p)
    return strata.BitBlock(
        i0, size, bits_from_values(last, 0, size - 1),
        [bits_from_values(bits, 0, size - 1) for bits in planes], passes, singles,
    )


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7, 1 << 16])
def test_write_csv_chunks_and_unassigned_rows(tmp_path, monkeypatch, chunk):
    # five assigned rows, a remainder for chunks of 2 and 3, and two unassigned ones
    comps, layer, witness = [9, 15, 21, 25, 27, 33, 35], [1, 1, 0, 2, 1, 0, 1], [5, 5, 0, 7, 7, 0, 5]
    entries = list(zip(comps, layer, witness))
    st = StrataTable(45, (_bit_block(4, 9, entries[:4]), _bit_block(13, 10, entries[4:])))
    assert st.columns() == (comps, layer, witness)
    monkeypatch.setattr(strata, "CSV_CHUNK", chunk)
    st.write_csv(tmp_path / "got.csv")
    got = (tmp_path / "got.csv").read_bytes()
    assert got == strata_csv_bf(comps, layer, witness)
    assert got.endswith(b"35,1,5,33\r\n21,,,\r\n33,,,\r\n")
    # the streamed writer, fed the same two bit blocks, writes the same
    # bytes and tallies the same census
    monkeypatch.setattr(strata, "strata_bits", lambda limit, table: iter(st.blocks))
    tally = strata.strata_census(45, None, tmp_path / "streamed.csv")
    assert (tmp_path / "streamed.csv").read_bytes() == got
    assert tally.census_dict() == strata_census_bf(45, comps, layer)


@pytest.fixture(scope="module")
def edge_strata():
    """A true table over two blocks and a partial third, and its oracle CSV."""
    limit = 2 * 2**17 + 3
    return PrimeTable(limit), strata_csv_bf(*strata_bf(limit, _sieve(limit)))


@pytest.mark.parametrize("chunk", [7, 1 << 16])
def test_streamed_csv_across_chunk_and_block_edges(tmp_path, monkeypatch, edge_strata, chunk):
    table, want = edge_strata
    monkeypatch.setattr(strata, "CSV_CHUNK", chunk)
    strata.strata_census(table.limit, table, tmp_path / "strata.csv")
    assert (tmp_path / "strata.csv").read_bytes() == want


def test_streamed_csv_writer_holds_one_block_transpose():
    # the writer traces about 0.5 MiB above the census here: one block's
    # transpose (64 KiB of pass numbers and its scratch ints) and one chunk's
    # rows; a transpose per chunk of 2^13 odd numbers traced 1.3 MiB
    table = PrimeTable(10**6)
    strata.strata_census(10**6, table, csv=os.devnull)  # the first pass fills the caches
    tracemalloc.start()
    try:
        strata.strata_census(10**6, table, csv=os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 768 << 10, peak


# -- the blocked layer-1 search -----------------------------------------------

BLOCK = 1 << 16  # odd numbers per block of the search


def _whole_limit_witnesses(limit):
    """Each odd composite's least two-odd-prime witness, found by trying the
    odd primes below 2,000 in turn (``least_split_bf``), and 0 where none of
    them is one; up to 10^6 the largest least witness is far below."""
    primes = simple_prime_set(limit)
    parts = sorted(p for p in primes if 2 < p < 2_000)
    comps = [c for c in range(9, limit + 1, 2) if c not in primes]
    return np.array(comps), np.array([least_split_bf(c + 3, parts, 3, primes) for c in comps])


def _blocked(limit, table):
    """The composites and layer-1 witnesses of the blocked search, as
    arrays (0 where it finds none)."""
    rows = [row for block in strata.layer_one_blocks(limit, table) for row in strata._listings(block)]
    return np.array([c for c, _, _ in rows]), np.array([p for _, _, p in rows])


@pytest.mark.parametrize(
    "limit", [2 * k * BLOCK + d for k in (1, 2) for d in (-1, 1, 3)] + [1_000_000]
)
def test_layer_one_blocks_match_the_whole_limit_search(limit):
    table = PrimeTable(limit)
    comps, witness = _blocked(limit, table)
    want_comps, want_witness = _whole_limit_witnesses(limit)
    assert np.array_equal(comps, want_comps) and np.array_equal(witness, want_witness)
    got, _, got_witness = compute_strata(limit, table).columns()
    assert got == comps.tolist() and got_witness == witness.tolist()
    # the pair oracle on the first composites and on those around each block edge
    spots = [c for c in comps.tolist() if c < 2_000 or abs(c % (2 * BLOCK) - BLOCK) > BLOCK - 60]
    for c in spots:
        i = int(np.searchsorted(comps, c))
        assert (int(witness[i]), c + 3 - int(witness[i])) == goldbach_pair(c + 3), c


def test_layer_one_retry_past_a_short_margin(monkeypatch):
    limit = 3 * 2 * BLOCK
    table = PrimeTable(limit)
    want = _blocked(limit, table)
    retried = []

    def spy(s, primes, table):
        retried.append(s)
        return real(s, primes, table)

    real = strata._least_witness
    monkeypatch.setattr(strata, "MARGIN_ODDS", 3)
    monkeypatch.setattr(strata, "_least_witness", spy)
    got = _blocked(limit, table)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    # block 0 reads from the odd number 3; blocks 1 and 2 leave to the retry,
    # one sum at a time, exactly the sums whose least partner lies below
    # their three-odd margin
    comps, witness = want
    below = comps + 3 - witness < 2 * (comps // (2 * BLOCK) * BLOCK - 3) + 1
    block_of = (np.array(retried) - 3) // (2 * BLOCK)
    assert sorted(set(block_of.tolist())) == [1, 2]
    assert retried == (comps[below] + 3).tolist()


def test_layer_one_audit_reads_retry_partners_below_the_margin(monkeypatch):
    limit = 3 * 2 * BLOCK
    table = PrimeTable(limit)
    monkeypatch.setattr(strata, "MARGIN_ODDS", 3)
    total = table.odd_composite_count(limit)
    assert strata.audit_layer_one(limit, table) == strata.PartitionReport(
        limit, total, total, 1, 0, ()
    )
    # move a retry witness of block 1 to a larger prime, whose partner lies
    # further below the margin and is composite
    comps, witness = _blocked(limit, table)
    retried = (comps // (2 * BLOCK) == 1) & (comps + 3 - witness < 2 * (BLOCK - 3) + 1)
    i = int(np.flatnonzero(retried)[0])
    c = int(comps[i])
    p = next(q for q in table.primes_in(int(witness[i]) + 1, c) if not table.is_prime(c + 3 - q))
    # in the table the entry is a hit of the pass for p, whose partners
    # below the margin the audit reads one by one; the search keeps a
    # retried hit as a single
    bad = _witness(compute_strata(limit, table), c, p)
    assert _in_planes(bad, c)
    _tampered_blocks(monkeypatch, lambda block: _set_entry(block, c, 1, p))
    got = strata.audit_layer_one(limit, table).anomalies
    assert got == (f"layer-1 witness for {c} is not an odd prime pair",)
    assert got == verify_partition(bad, table).anomalies


def test_layer_one_audit_holds_no_int64_block_copies():
    # the audit traces about 1.9 MB here with numpy 2.4 (4.2 MB while each
    # block was copied to int64); one int64 copy of a block's 57,000 or so
    # composites, live beside its int32 arrays, adds about 0.46 MB
    limit = 2**21
    table = PrimeTable(limit)
    tracemalloc.start()
    try:
        audit = strata.audit_layer_one(limit, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert audit.anomalies == () and peak < 2.2e6, peak


def test_partition_audit_holds_no_whole_limit_masks():
    # the audit traces about 0.12 MB here, reading the table's blocks as
    # they are (0.8 MB while it re-encoded an array table into blocks, 48 MB
    # while it copied the table to int64 and built masks over every odd
    # number); the table itself is 1.1 MB of blocks
    limit = 2**21
    table = PrimeTable(limit)
    st = compute_strata(limit, table)
    tracemalloc.start()
    try:
        rep = verify_partition(st, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and peak < 0.5e6, peak
