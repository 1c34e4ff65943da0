"""Layered classification of odd composites by prime-shift reachability.

Layer 1 holds the odd composites c whose shift 3 + c is a sum of two odd
primes; layer k > 1 holds those whose shift peels one odd prime onto a
layer-(k-1) composite.  Within a window the classification is
self-contained: deciding c only ever consults primes and composites below
c + 3, so recomputing with a larger limit never relabels anything.

The strata are read as a stream, :func:`strata_bits`, which yields one
:class:`BitBlock` per block that ``PrimeTable.odd_block_bounds`` cuts: the
block's odd composites and their layers and witness primes p, in Python
ints (the witness partner is c + 3 - p).  Every reader reads that stream:
:func:`strata_census` (the ``strata`` command's census and CSV) tallies
the census from popcounts and reads the CSV rows' pass numbers off the
planes with one bit-matrix transpose of a Python int; :func:`audit_layer_one`
is the battery's audit; and :func:`layer_window_bits` spreads the members
of chosen layers over a window into one bitset each, which ``Stratum(k)``
and the absorption check read.  :func:`compute_strata` holds the stream
whole, as the blocks of a :class:`StrataTable`, whose readers (its CSV,
its audit :func:`verify_partition`, :func:`verify_absorption`) are those
of the stream, and which stays for the library and the benchmark tracer's
spans.  The partition has one audit, :func:`_audit`, over blocks of bits.

Layer 1 is searched block by block in :func:`layer_one_blocks`.  A block's
prime bits and the ``MARGIN_ODDS`` odd numbers below it are one int read
from the packed table (``PrimeTable.odd_prime_bits``).  The partners of
consecutive composites are consecutive bits, so
:func:`~sumcollapse.intsets.least_splits_bits` makes each prime pass one
shift, AND and XOR of that int with the pending composites (about 94 passes
a block at 10^7, largest witness prime 751), and keeps each composite's
least odd prime p whose partner is an odd prime in bit planes of the pass
number.  A witness whose partner lies in the margin is already the least
one, since every smaller prime has a larger partner, inside the block or
its margin; a sum whose least witness lies past the margin (none up to
10^8, where the largest least witness is 1,093) is searched again alone,
with ``PrimeTable.is_prime``, the point read of the packed bits, as its
accept test.

A composite left without a two-odd-prime split is an exception (none on a
true table).  :func:`strata_bits` places each one as it comes, from a
``{composite: layer}`` map of the exceptions: 1 + the least layer among its
partners c + 3 - p, all at or below c, and the least p reaching it.  The
census ``passes`` field is max(1, max_layer), the number of layer passes a
whole-limit search would make.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from functools import reduce
from itertools import chain, compress, count, islice, repeat
from operator import or_
from typing import NamedTuple

from .intsets import WindowSet, _cut, _lsb, bits_from_values, iter_bits, iterated_sumset
from .intsets import least_splits_bits, pass_groups, restrict
from .sieve import PrimeTable, spread_bits
from .verdict import RelationVerdict

_MAX_LAYER = 127  # the exception placement's walk assigns no deeper layer

# the shifted-prime inclusion starts at 3 + 7 = 10, the least pair sum of primes >= 5
SHIFTED_MIN_PRIME = 7
MAX_LISTED = 50  # rough-cover violations listed; the count covers them all
CSV_CHUNK = 1 << 11  # rows (odd numbers, when streamed) formatted per write, so memory stays flat
MARGIN_ODDS = 1 << 12  # odd numbers read below each layer-1 block for the partners
AUDIT_LISTED = 3  # anomalies of each kind the blocked audit keeps


class StrataTable:
    """The strata stream up to ``limit`` held whole: ``blocks``, each
    :class:`BitBlock` of :func:`strata_bits` in order.  Blocks built another
    way must keep that stream's form: each entry in the planes or in
    ``singles``, an entry without a layer a single ``(0, 0)``, as the census,
    and so ``unassigned`` and the CSV, reads no other bit.

    Its readers are :meth:`columns`, every listing as three aligned lists,
    and what the benchmark's tracer reads of a table: ``layers``, a
    read-only ``{c: layer}`` view, ``unassigned``, ``passes`` (the layer
    passes, not the prime passes inside layer 1) and :meth:`write_csv`.
    """

    __slots__ = ("limit", "blocks", "layers")

    def __init__(self, limit: int, blocks: tuple[BitBlock, ...]):
        self.limit, self.blocks = limit, blocks
        self.layers: Mapping[int, int] = _LayerView(blocks)

    @property
    def unassigned(self) -> tuple[int, ...]:
        return tuple(_census(self.limit, self.blocks).unassigned)

    @property
    def passes(self) -> int:
        return _census(self.limit, self.blocks).passes

    def columns(self) -> tuple[list[int], list[int], list[int]]:
        """The ``(composites, layers, witness_primes)`` lists of every
        listing in composite order, layer and witness 0 where no layer is
        reached; a value listed twice comes first as its single."""
        rows = [row for block in self.blocks for row in _listings(block)]
        return [c for c, _, _ in rows], [k for _, k, _ in rows], [p for _, _, p in rows]

    def write_csv(self, path: str) -> None:
        """The rows :func:`strata_census` writes: the assigned ones in
        composite order, then the unassigned ones."""
        _write_csv(path, chain.from_iterable(map(_bit_block_rows, self.blocks)), self.unassigned)


class BitBlock:
    """One block of the strata stream in Python ints: bit j of each stands
    for the odd number 2(i0 + j) + 1, j < ``size``.

    ``composite`` holds the block's odd composites, the entries.  An entry
    in ``singles`` has the ``(layer, witness prime)`` it maps to; any other
    is in layer 1, found by pass k of the layer-1 search, where bit b of k
    is its bit in ``planes[b]``, and its witness is ``passes[k - 1]``.  No
    entry in ``singles`` has a bit in ``planes``.  :func:`strata_bits`
    places the exceptions by adding to ``singles``.
    """

    __slots__ = ("i0", "size", "composite", "planes", "passes", "singles")

    def __init__(self, i0: int, size: int, composite: int, planes: list[int],
                 passes: list[int], singles: dict[int, tuple[int, int]]):
        self.i0, self.size, self.composite = i0, size, composite
        self.planes, self.passes, self.singles = planes, passes, singles


class StrataCensus:
    """Count, least and largest member per layer, and the unassigned
    composites in increasing order, tallied one block of the strata at a time."""

    __slots__ = ("limit", "layers", "unassigned")

    def __init__(self, limit: int):
        self.limit = limit
        self.layers: dict[int, dict[str, int]] = {}
        self.unassigned: list[int] = []

    def add(self, block: BitBlock) -> None:
        """Tally a block that follows every block added before it: layer 1
        from the popcount of its planes, the rest from its singles."""
        first = 2 * block.i0 + 1
        found = reduce(or_, block.planes, 0)
        tally: dict[int, list[int]] = {}  # layer -> [count, least, largest] positions
        if found:
            tally[1] = [found.bit_count(), _lsb(found), found.bit_length() - 1]
        for j, (k, _) in sorted(block.singles.items()):
            if not k:
                self.unassigned.append(first + 2 * j)
            elif k in tally:
                entry = tally[k]
                entry[0] += 1
                entry[1], entry[2] = min(entry[1], j), max(entry[2], j)
            else:
                tally[k] = [1, j, j]
        for k, (count, least, largest) in tally.items():
            entry = self.layers.setdefault(k, {"count": 0, "min": first + 2 * least, "max": 0})
            entry["count"] += count
            entry["max"] = first + 2 * largest

    @property
    def max_layer(self) -> int:
        return max(self.layers, default=0)

    @property
    def passes(self) -> int:
        """The layer passes a whole-limit search makes: one per layer, at least one."""
        return max(1, self.max_layer)

    def census(self) -> dict[int, dict[str, int]]:
        return dict(sorted(self.layers.items()))

    def census_dict(self) -> dict:
        return {
            "limit": self.limit,
            "layers": {str(k): v for k, v in self.census().items()},
            "max_layer": self.max_layer,
            "unassigned": list(self.unassigned),
            "passes": self.passes,
        }


_CSV_HEADER = b"c,layer,witness_prime,witness_partner\r\n"
# the delta swaps (shift, mask) that transpose the 8 x 8 bit matrix of a
# 64-bit word, byte i holding row i (Hacker's Delight, 7-3)
_TRANSPOSE = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


def _csv_rows(composites: list[int], layer, witnesses: list[int], partners: list[int]) -> bytes:
    """The CSV rows ``c,layer,p,q`` of aligned lists of ints; ``layer`` is
    such a list too, or one int for every row."""
    if isinstance(layer, int):
        row, columns = b"%%d,%d,%%d,%%d\r\n" % layer, (composites, witnesses, partners)
    else:
        row, columns = b"%d,%d,%d,%d\r\n", (composites, layer, witnesses, partners)
    values = [0] * (len(columns) * len(composites))
    for i, column in enumerate(columns):
        values[i :: len(columns)] = column
    return (row * len(composites)) % tuple(values)


def _write_csv(path: str, rows, unassigned) -> None:
    """Write the header and the ``rows`` bytes to ``path`` as they come, then
    a row for each value of ``unassigned``, read once ``rows`` is spent."""
    with open(path, "wb") as fh:
        fh.write(_CSV_HEADER)
        fh.writelines(rows)
        for start in range(0, len(unassigned), CSV_CHUNK):
            chunk = unassigned[start : start + CSV_CHUNK]
            fh.write((b"%d,,,\r\n" * len(chunk)) % tuple(chunk))


def _interleaved(block: BitBlock) -> bytearray:
    """The planes' bytes over the block, interleaved: byte 8i + place is
    byte i of ``planes[place]``, so each 8-byte word holds the planes of
    eight bits, a row per plane.  Needs at most eight planes."""
    size = (block.size + 7) // 8
    words = bytearray(8 * size)
    for place, plane in enumerate(block.planes):
        words[place::8] = plane.to_bytes(size, "little")
    return words


def _pass_numbers(block: BitBlock) -> bytes:
    """Byte j is the pass number of bit j of the block: the 8 x 8 bit matrix
    of each word of the interleaved planes transposed, all words at once in
    one Python int, which leaves byte c of a word the pass number of its bit c."""
    words = _interleaved(block)
    x = int.from_bytes(words, "little")
    for shift, mask in _TRANSPOSE:
        mask = int.from_bytes(mask.to_bytes(8, "little") * (len(words) // 8), "little")
        t = (x ^ x >> shift) & mask
        x ^= t ^ t << shift
    return x.to_bytes(len(words), "little")[: block.size]


def _bit_block_rows(block: BitBlock):
    """The CSV rows of a block's assigned entries in composite order, one
    bytes string per ``CSV_CHUNK`` odd numbers (at most as many rows), read
    off one transpose of the block."""
    first = 2 * block.i0 + 1
    witness_of = [0, *block.passes]
    shift_of = [0, *(p - 3 for p in block.passes)]  # c - shift_of[k] is the partner
    singles = sorted((j, k, p) for j, (k, p) in block.singles.items() if k)
    block_numbers = _pass_numbers(block)
    for a in range(0, block.size, CSV_CHUNK):
        b = min(a + CSV_CHUNK, block.size)
        numbers = block_numbers[a:b]
        composites = list(compress(range(first + 2 * a, first + 2 * b, 2), numbers))
        found = numbers.replace(b"\0", b"")
        witnesses = [witness_of[k] for k in found]
        partners = [c - shift_of[k] for c, k in zip(composites, found)]
        layers = 1
        lo, hi = bisect_right(singles, (a, -1)), bisect_right(singles, (b, -1))
        if lo < hi:  # entries the planes do not hold, put in their places
            rows = sorted(chain(zip(composites, repeat(1), witnesses, partners),
                                ((first + 2 * j, k, p, first + 2 * j + 3 - p)
                                 for j, k, p in singles[lo:hi])))
            composites, layers, witnesses, partners = (list(col) for col in zip(*rows))
        if composites:
            yield _csv_rows(composites, layers, witnesses, partners)


def _listings(block: BitBlock) -> list[tuple[int, int, int]]:
    """A block's listings ``(c, layer, witness)`` in composite order, a
    value's single before its plane entry; an entry in neither is listed
    with layer and witness 0."""
    first, size = 2 * block.i0 + 1, block.size
    witness_of = [0, *block.passes]
    singled = bits_from_values(block.singles, 0, size - 1)
    blank = block.composite & ~reduce(or_, block.planes, 0) & ~singled
    numbers = _pass_numbers(block)
    rows = chain(
        ((first + 2 * j, 0, k, p) for j, (k, p) in block.singles.items()),
        ((first + 2 * j, 0, 0, 0) for j in iter_bits(blank)),
        zip(compress(range(first, first + 2 * size, 2), numbers), repeat(1), repeat(1),
            map(witness_of.__getitem__, numbers.replace(b"\0", b""))),
    )
    return [(c, k, p) for c, _, k, p in sorted(rows)]


class _LayerView(Mapping):
    """Read-only ``{c: layer}`` view of a table's values whose first listing
    has a layer, a dict of :func:`_listings` built on the first lookup.  Its
    length is the census's count of listings with a layer, which is the
    number of keys, as no block of :func:`strata_bits` lists a value twice."""

    def __init__(self, blocks: tuple[BitBlock, ...]):
        self._blocks, self._first = blocks, None

    def _map(self) -> dict[int, int]:
        if self._first is None:
            first: dict[int, int] = {}
            for block in self._blocks:
                for c, k, _ in _listings(block):
                    first.setdefault(c, k)
            self._first = {c: k for c, k in first.items() if k}
        return self._first

    def __getitem__(self, c):
        return self._map()[c]

    def __iter__(self):
        return iter(self._map())

    def __len__(self) -> int:
        return sum(entry["count"] for entry in _census(0, self._blocks).layers.values())


def _census(limit: int, blocks) -> StrataCensus:
    tally = StrataCensus(limit)
    for block in blocks:
        tally.add(block)
    return tally


def _check_limit(limit: int) -> None:
    if limit < 9:
        raise ValueError(f"limit must be >= 9, got {limit}")


class _OddPrimes:
    """The odd primes up to ``limit`` of ``table`` in increasing order, read
    from ``table.primes_in`` only as far as an iteration asks, and kept."""

    def __init__(self, table: PrimeTable, limit: int):
        self._source = table.primes_in(3, limit)
        self._read: list[int] = []

    def __iter__(self):
        read = self._read
        for i in count():
            if i == len(read):
                p = next(self._source, 0)
                if not p:
                    return
                read.append(p)
            yield read[i]


def _least_witness(s: int, primes: _OddPrimes, table: PrimeTable) -> int:
    """The least odd prime p whose partner s - p >= 3 is prime, by point
    reads of the packed bits; 0 where none is."""
    for p in primes:
        if p > s - 3:
            break
        if table.is_prime(s - p):
            return p
    return 0


def layer_one_blocks(limit: int, table: PrimeTable):
    """Yield a :class:`BitBlock` for each block of the odd composites in
    ``[9, limit]`` holding layer 1: each composite's least odd prime p whose
    partner c + 3 - p is an odd prime.  The composites without one are in
    neither the planes nor ``singles``.

    Blocks are the table's ``odd_block_bounds(9, limit)``.  Each is searched
    by ``least_splits_bits`` against its own prime bits and the
    ``MARGIN_ODDS`` below it; the sums it leaves with partners below the
    margin are searched once more, one at a time, by point reads.
    """
    _check_limit(limit)
    primes = _OddPrimes(table, limit)
    for i0, i1 in table.odd_block_bounds(9, limit):
        lo = max(i0 - MARGIN_ODDS, 0)
        flags = table.odd_prime_bits(lo, i1)
        composite = ~flags >> (i0 - lo) & ((1 << (i1 - i0)) - 1)
        planes, passes, late, left = least_splits_bits(composite, flags, i0 - lo, primes)
        singles = {j: (1, p) for j, p in late.items()}
        if lo:  # a partner below the margin ended the search of the sums left
            for j in iter_bits(left):
                if p := _least_witness(2 * (i0 + j) + 4, primes, table):
                    singles[j] = (1, p)
        yield BitBlock(i0, i1 - i0, composite, planes, passes, singles)


def strata_bits(limit: int, table: PrimeTable):
    """Yield a :class:`BitBlock` for each block of the odd composites in
    ``[9, limit]``: layer 1 from :func:`layer_one_blocks`, and the
    exceptions it leaves put in ``singles``, placed in the deeper layers
    (layer 0 and witness 0 where none is reached).

    Each exception c, in increasing order, takes 1 + the least positive layer
    below ``_MAX_LAYER`` among its partners c + 3 - p, p an odd prime <= c - 6,
    and the least p reaching it (a layer-1 partner ends the walk).  A partner's
    layer is read from the exceptions' ``{composite: layer}`` map, else is 1
    where ``table.is_prime`` says it is not prime, else 0.  Every partner
    lies at or below c; c is mapped to 0 first, so it is unassigned for p = 3.
    """
    _check_limit(limit)
    placed: dict[int, int] = {}
    primes = _OddPrimes(table, limit)  # read only as far as the exceptions reach
    for block in layer_one_blocks(limit, table):
        left = block.composite & ~reduce(or_, block.planes, 0)
        for j in iter_bits(left):
            if j in block.singles:
                continue
            c = 2 * (block.i0 + j) + 1
            placed[c] = 0
            least, witness = _MAX_LAYER, 0
            for p in primes:
                if p > c - 6:
                    break
                k = placed.get(c + 3 - p, 0 if table.is_prime(c + 3 - p) else 1)
                if 0 < k < least:
                    least, witness = k, p
                    if k == 1:
                        break
            if least < _MAX_LAYER:
                placed[c] = least + 1
                block.singles[j] = (least + 1, witness)
            else:
                block.singles[j] = (0, 0)
        yield block


def compute_strata(limit: int, table: PrimeTable | None = None) -> StrataTable:
    """Assign every odd composite <= limit to its layer: every block of
    :func:`strata_bits`, held in a :class:`StrataTable`.

    Whatever remains is surfaced as unassigned rather than raising, since
    within a self-contained window an unassigned composite indicates an
    implementation bug worth inspecting.
    """
    _check_limit(limit)
    if table is None:
        table = PrimeTable(limit)
    return StrataTable(limit, tuple(strata_bits(limit, table)))


def strata_census(limit: int, table: PrimeTable, csv: str | None = None) -> StrataCensus:
    """The census of the strata up to ``limit``, tallied from
    :func:`strata_bits` block by block; with ``csv``, the rows are written
    there as the blocks come, and the unassigned ones last."""
    _check_limit(limit)
    tally = StrataCensus(limit)
    blocks = (tally.add(block) or block for block in strata_bits(limit, table))
    if csv:
        _write_csv(csv, chain.from_iterable(map(_bit_block_rows, blocks)), tally.unassigned)
    else:
        for _ in blocks:
            pass
    return tally


class PartitionReport(NamedTuple):
    """Census and audit of a strata partition: the odd composites of the
    table's reads, the layer-1 entries, the deepest layer, the entries without
    a layer, and the first ``AUDIT_LISTED`` anomalies of each kind."""

    limit: int
    total_composites: int
    layer_one: int
    max_layer: int
    unassigned: int
    anomalies: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.anomalies


def _values(bits: int, first: int, n: int = AUDIT_LISTED) -> list[int]:
    """The values of the ``n`` lowest set bits, bit j standing for first + 2j."""
    return [first + 2 * j for j in islice(iter_bits(bits), n)]


def _audit(limit: int, table: PrimeTable, blocks) -> PartitionReport:
    """Audit ``blocks``, :class:`BitBlock` objects that tile [9, limit] in order.

    A block's entries (its composite, plane and single bits) must be the odd
    composites of a separate ``table.odd_prime_bits`` read of its range,
    each listed once, and all must have a layer.  A bit in the planes and in
    ``singles`` is listed twice; the single comes first.  The planes' entries
    are split by pass (:func:`~sumcollapse.intsets.pass_groups`): a pass's
    prime p must be an odd prime, and its entries a subset of the prime bits
    shifted by (p - 3)/2, read with a margin of ``MARGIN_ODDS`` odd numbers,
    below which a partner is read alone.  Every other listing is judged one
    by one: a layer-1 witness p and its partner c + 3 - p must be odd primes
    (``table.is_prime``), and any other layer-k witness must peel: p an odd
    prime or 2, the partner in layer k - 1 in the audit's own ``{value:
    layer}`` map of each value's first listing outside the layer-1
    composites, which reads 1 for an odd composite it does not hold.  A
    missing composite maps to layer 0.  The blocks' composites must add up
    to ``table.odd_composite_count(limit)``, the checkpoint count, less the
    non-primes among 3, 5, 7.
    """

    def odd_prime(v: int) -> bool:
        return bool(v & 1) and 3 <= v <= limit and table.is_prime(v)

    def keep(kind: list, found) -> None:
        kind += sorted(found)[: AUDIT_LISTED - len(kind)]

    seen = layer_one = max_layer = unassigned = 0
    missing, stray, repeated = [], [], []  # the first values of each kind
    never, bad = [], []  # the first (value, rank, message) of each kind, in table order
    listed: dict[int, int] = {}
    for block in blocks:
        i0, size, first = block.i0, block.size, 2 * block.i0 + 1
        expected = ~table.odd_prime_bits(i0, i0 + size) & ((1 << size) - 1)
        seen += expected.bit_count()
        found = reduce(or_, block.planes, 0)
        singled = bits_from_values(block.singles, 0, size - 1)
        entries = block.composite | found | singled
        blank = entries & ~found & ~singled  # entries without a layer
        keep(missing, _values(expected & ~entries, first))
        keep(stray, _values(entries & ~expected, first))
        keep(repeated, _values(found & singled, first))

        for j, (k, _) in block.singles.items():
            listed[first + 2 * j] = k
        for j in iter_bits(found & ~expected & ~singled):
            listed[first + 2 * j] = 1
        for j in iter_bits(blank | expected & ~entries):
            listed[first + 2 * j] = 0

        layer_one += found.bit_count()
        max_layer = max(max_layer, 1 if found else 0)
        unassigned += blank.bit_count()
        block_never = [(c, 1, f"{c} was never assigned to a layer") for c in _values(blank, first)]
        block_bad = []
        nosum, badpair = _pass_failures(block, found, table, odd_prime)
        block_bad += [(c, 1, f"witness for {c} does not sum to {c + 3}")
                      for c in _values(nosum, first)]
        block_bad += [(c, 1, f"layer-1 witness for {c} is not an odd prime pair")
                      for c in _values(badpair, first)]
        for j, (k, p) in block.singles.items():  # a single comes before its value's plane bit
            c = first + 2 * j
            layer_one += k == 1
            max_layer = max(max_layer, k)
            if not k:
                unassigned += 1
                block_never.append((c, 0, f"{c} was never assigned to a layer"))
            elif not p:
                block_bad.append((c, 0, f"witness for {c} does not sum to {c + 3}"))
            elif k == 1:
                if not (odd_prime(p) and odd_prime(c + 3 - p)):
                    block_bad.append((c, 0, f"layer-1 witness for {c} is not an odd prime pair"))
            else:
                q = c + 3 - p
                partner = listed.get(q, 1 if q & 1 and q >= 9 and not odd_prime(q) else 0)
                if partner != k - 1 or not (p == 2 or odd_prime(p)):
                    block_bad.append((c, 0, f"layer-{k} witness for {c} does not peel correctly"))
        keep(never, block_never)
        keep(bad, block_bad)

    anomalies: list[str] = []
    # less the table's non-primes among 3, 5 and 7, which lie below the strata's range
    total = table.odd_composite_count(limit) - (4 - table.prime_count(7))
    if seen != total:
        anomalies.append(f"{seen} odd composites <= {limit} audited, the sieve counts {total}")
    anomalies += [f"odd composite {c} missing from the table" for c in missing]
    anomalies += [f"table entry {c} is not an odd composite <= {limit}" for c in stray]
    anomalies += [f"{c} is listed more than once" for c in repeated]
    anomalies += [message for _, _, message in never + bad]
    return PartitionReport(limit, seen, layer_one, max_layer, unassigned, tuple(anomalies))


def _pass_failures(block: BitBlock, found: int, table: PrimeTable, odd_prime) -> tuple[int, int]:
    """The bits of the planes' entries whose pass names no prime, and those
    whose pass's prime or partner is not an odd prime: each pass's entries,
    shifted by its prime, ANDed with the read's non-prime bits (its prime
    bits complemented once); partners below the read's margin looked up one
    at a time."""
    i0, first = block.i0, 2 * block.i0 + 1
    lo = max(i0 - MARGIN_ODDS, 0)
    nonprime = ~table.odd_prime_bits(lo, i0 + block.size)  # a negative int: set past the read
    if not lo:
        nonprime |= 1  # the odd number 1 is not prime, flagged or not
    nosum = badpair = 0
    for k, hits in pass_groups(found, block.planes):
        p = block.passes[k - 1] if 0 < k <= len(block.passes) else 0
        if not p:
            nosum |= hits
        elif not odd_prime(p):
            badpair |= hits
        elif (below := ((p - 3) >> 1) - (i0 - lo)) <= 0:  # bit j's partner is read bit j - below
            badpair |= hits & nonprime >> -below
        else:
            if bad := hits >> below & nonprime:  # none on a true table
                badpair |= bad << below
            for j in iter_bits(hits & ((1 << below) - 1)):
                if not odd_prime(first + 2 * j + 3 - p):
                    badpair |= 1 << j
    return nosum, badpair


def audit_layer_one(limit: int, table: PrimeTable) -> PartitionReport:
    """Audit the strata stream, :func:`strata_bits`, block by block against
    separate reads of the table's bits."""
    _check_limit(limit)
    return _audit(limit, table, strata_bits(limit, table))


def verify_partition(st: StrataTable, table: PrimeTable | None = None) -> PartitionReport:
    """Audit a strata table's blocks against ``table`` (a sieve up to its
    limit by default)."""
    _check_limit(st.limit)
    return _audit(st.limit, PrimeTable(st.limit) if table is None else table, st.blocks)


class AbsorptionReport(NamedTuple):
    """Witnessed check that shifted layer members are k-fold prime sums."""

    k_range: tuple[int, int]
    checked: dict[int, int]
    vacuous: tuple[int, ...]
    failures: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _or_into(buf: bytearray, bits: int, at: int) -> None:
    """OR ``bits`` shifted up by ``at`` (down, where negative) into the
    little-endian ``buf``, dropping what falls outside it."""
    if at < 0:
        bits, at = bits >> -at, 0
    room = 8 * (len(buf) - (at >> 3))
    bits = _cut(bits << (at & 7), room) if room > 0 else 0
    if bits:
        a, n = at >> 3, (bits.bit_length() + 7) // 8
        buf[a : a + n] = (int.from_bytes(buf[a : a + n], "little") | bits).to_bytes(n, "little")


def layer_window_bits(blocks, layers, lo: int, hi: int) -> dict[int, int]:
    """The members in ``[lo, hi]`` of each of ``layers``, read from the
    :class:`BitBlock` stream ``blocks``: ``{layer: bits}``, bit v - lo
    standing for v.  A block's layer-1 entries are its plane bits that are
    not in ``singles``, and each block's bits of a layer are spread onto
    the integers (``sieve.spread_bits``) and ORed into the window's bytes."""
    size = max(hi - lo + 1, 0)
    windows = {k: bytearray((size + 7) // 8) for k in layers}
    for block in blocks:
        top = block.size - 1
        found = reduce(or_, block.planes, 0) & ~bits_from_values(block.singles, 0, top)
        for k, window in windows.items():
            singles = (j for j, (layer, _) in block.singles.items() if layer == k)
            bits = bits_from_values(singles, 0, top) | (found if k == 1 else 0)
            spread = spread_bits(bits.to_bytes(top // 8 + 1, "little"))
            _or_into(window, spread, 2 * block.i0 + 1 - lo)
    return {k: _cut(int.from_bytes(window, "little"), size) for k, window in windows.items()}


def verify_absorption(
    st,
    k_max: int,
    window: tuple[int, int],
    table: PrimeTable | None = None,
) -> AbsorptionReport:
    """For k in [2, k_max], check 3(k-1) + c is a k-fold odd-prime sum for every
    layer-(k-1) member c in the window; empty layers pass vacuously.

    ``st`` is a :class:`StrataTable` or the :func:`strata_bits` stream of
    ``table``.  Each layer's members are one bitset over the window
    (:func:`layer_window_bits` of the blocks), and the k-fold test is one
    AND with the k-fold sumset of the odd primes up to top = min(hi,
    limit), the largest a member's sum can use:
    :func:`~sumcollapse.intsets.iterated_sumset` of those primes on a
    window that reaches top + 3(k - 1).
    """
    lo, hi = window
    if isinstance(st, StrataTable):
        table = PrimeTable(st.limit) if table is None else table
        st = st.blocks
    elif table is None:
        raise ValueError("absorption over the strata stream needs the stream's table")
    top = min(hi, table.limit)  # no prime or partner the tests read exceeds a member
    members = layer_window_bits(st, range(1, k_max), lo, hi)
    primes = table.odd_flag_bits(3, top, 3) if top >= 3 else 0

    checked: dict[int, int] = {}
    vacuous: list[int] = []
    failures: list[tuple[int, int]] = []
    for k in range(2, k_max + 1):
        if not (bits := members[k - 1]):
            vacuous.append(k)
            continue
        checked[k] = bits.bit_count()
        sums = iterated_sumset(WindowSet(3, max(top, 3) + 3 * (k - 1), primes), k)
        # the sum c + 3(k - 1) is bit c - 3 of sums, and c is bit c - lo of bits
        hit = sums.bits >> (lo - 3) if lo >= 3 else sums.bits << (3 - lo)
        failures += [(k, lo + i) for i in iter_bits(bits & ~hit)]
    return AbsorptionReport((2, k_max), checked, tuple(vacuous), tuple(failures))


def nfold_collapse_check(
    n: int, window: tuple[int, int], table: PrimeTable
) -> RelationVerdict:
    """The (n, n) relation from the odd integers >= 3 onto the odd primes:
    sumsets certified on [3n, hi] only, factorization exact."""
    if n < 2:
        raise ValueError(f"fold count must be >= 2, got {n}")
    lo, hi = window
    if 3 * n > hi:
        raise ValueError(f"window [{lo}, {hi}] too small for {n}-fold sums of odds >= 3")
    # collapse and setexpr are read only by these three battery claims, so
    # the strata command loads neither
    from .collapse import check_relation
    from .setexpr import Primes, Progression

    return check_relation(Progression(3), Primes(3), n, n, window, table)


def nfold_all_integers_check(
    n: int, window: tuple[int, int], table: PrimeTable
) -> RelationVerdict:
    """The same relation from the integers >= 2 onto all primes, on [2, hi];
    needs n >= 3."""
    if n < 3:
        raise ValueError(
            "the all-integers variant requires n >= 3 (11 = 4 + 7 breaks the pair case)"
        )
    lo, hi = window
    if 2 * n > hi:
        raise ValueError(f"window [{lo}, {hi}] too small for {n}-fold sums of ints >= 2")
    from .collapse import check_relation
    from .setexpr import IntRange, Primes

    return check_relation(IntRange(2), Primes(2), n, n, (2, hi), table)


class EvidenceReport(NamedTuple):
    """Windowed evidence (never a certificate) for the rough-number pair cover."""

    min_prime: int
    window: tuple[int, int]
    certified_range: tuple[int, int]
    violations: tuple[int, ...]
    violation_count: int
    shifted_min_prime: int
    shifted_violations: tuple[int, ...]

    @property
    def clean(self) -> bool:
        return self.violation_count == 0 and not self.shifted_violations


def rough_pair_cover_evidence(
    p: int, window: tuple[int, int], table: PrimeTable
) -> EvidenceReport:
    """List the on-window pair sums of p-rough numbers that are not pair sums
    of primes >= p (the first ``MAX_LISTED``, and their count), plus the
    primes q on [7, hi - 3] whose shift 3 + q is not a pair sum of primes >= 5
    on the window."""
    if p == 2:
        raise ValueError("p = 2 is covered by the all-integers witness 11 = 4 + 7")
    from .setexpr import Primes, RoughOdd

    lo, hi = window
    rough = restrict(RoughOdd(p), lo, hi, table)
    primes = restrict(Primes(p), lo, hi, table)
    s2 = iterated_sumset(rough, 2)
    p2 = iterated_sumset(primes, 2)
    bad = s2.bits & ~p2.bits
    listed = tuple(s2.lo + i for i in islice(iter_bits(bad), MAX_LISTED))

    pair5 = iterated_sumset(restrict(Primes(5), lo, hi, table), 2)
    shifted_bad = ()
    q_lo = SHIFTED_MIN_PRIME
    if hi - 3 >= q_lo:
        # bit i of ``shifts`` is q = q_lo + i; align pair5 so its bit i is the sum q + 3
        shifts = restrict(Primes(q_lo), q_lo, hi - 3, table).bits
        offset = q_lo + 3 - pair5.lo
        covered = pair5.bits >> offset if offset >= 0 else pair5.bits << -offset
        shifted_bad = tuple(q_lo + i for i in iter_bits(shifts & ~covered))
    return EvidenceReport(
        p,
        window,
        (2 * lo, hi),
        listed,
        bad.bit_count(),
        SHIFTED_MIN_PRIME,
        shifted_bad,
    )
