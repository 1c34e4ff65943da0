"""Layered classification of odd composites by prime-shift reachability.

Layer 1 holds the odd composites c whose shift 3 + c is a sum of two odd
primes; layer k > 1 holds those whose shift peels one odd prime onto a
layer-(k-1) composite.  Within a window the classification is
self-contained: deciding c only ever consults primes and composites below
c + 3, so recomputing with a larger limit never relabels anything.

The strata are read as a stream, :func:`strata_bits`, which yields one
:class:`BitBlock` per block that ``PrimeTable.odd_block_bounds`` cuts: the
block's odd composites and their layers and witness primes p, in Python
ints (the witness partner is c + 3 - p).  Every reader decodes that stream.
:func:`strata_census` (the ``strata`` command's census and CSV) reads it
without numpy: the census from popcounts, the CSV rows from the pass
numbers that one bit-matrix transpose of a Python int reads off the
planes.  :func:`strata_blocks` decodes each block with ``np.unpackbits``
and the same transpose on ``uint64`` words into ``(composites, layer,
witness_prime)`` arrays, ``int32`` (the layers ``int8``), as are the
composites, partners and lookups the audit derives from them: c + 3 stays
below 2^31.  The array readers are
:func:`audit_layer_one` (the battery's audit), ``Stratum(k)``, which keeps
only its layer's members, and :func:`compute_strata`, which concatenates
the arrays into a :class:`StrataTable` for library callers.  Only the last
holds arrays over the whole limit, and it stays only for the benchmark
tracer's spans on it and on its CSV.  Numpy is imported by the array
readers alone, so a ``strata`` process loads none.  The partition has one
audit, :func:`_audit`, block by block against the table's array reads;
:func:`audit_layer_one` feeds it the stream, and :func:`verify_partition` a
:class:`StrataTable` cut into views at the reads.

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
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, compress, count, islice, repeat
from operator import or_
from typing import TYPE_CHECKING

from .intsets import _lsb, iter_bits, iterated_sumset, least_splits, least_splits_bits, restrict
from .sieve import PrimeTable
from .verdict import RelationVerdict

if TYPE_CHECKING:
    import numpy as np

# c + 3 - p is computed in int32, so c + 3 must fit
_MAX_LIMIT = 2**31 - 1 - 3
_MAX_LAYER = 127  # the int8 layers' top

# the shifted-prime inclusion starts at 3 + 7 = 10, the least pair sum of primes >= 5
SHIFTED_MIN_PRIME = 7
MAX_LISTED = 50  # rough-cover violations listed; the count covers them all
CSV_CHUNK = 1 << 13  # rows (odd numbers, when streamed) formatted per write, so memory stays flat
MARGIN_ODDS = 1 << 12  # odd numbers read below each layer-1 block for the partners
AUDIT_LISTED = 3  # anomalies of each kind the blocked audit keeps


@dataclass(frozen=True, eq=False)
class StrataTable:
    """Layer assignment for every odd composite up to ``limit``.

    Parallel arrays, one entry per odd composite in ``[9, limit]``:
    ``composites`` holds them sorted (``int32``), ``layer`` their layer
    (``int8``, 0 for unassigned) and ``witness_prime`` the prime p of each
    witness split (``int32``); the partner is ``c + 3 - p``.  Beside the
    arrays it keeps only what the benchmark's tracer reads of a table:
    ``layers``, a read-only ``{c: layer}`` view over the assigned entries,
    ``unassigned``, ``passes`` (the layer passes, not the prime passes
    inside layer 1) and :meth:`write_csv`.
    """

    limit: int
    composites: np.ndarray
    layer: np.ndarray
    witness_prime: np.ndarray

    @property
    def layers(self) -> Mapping[int, int]:
        return _LayerView(self)

    @property
    def unassigned(self) -> tuple[int, ...]:
        return tuple(self.composites[self.layer == 0].tolist())

    @property
    def passes(self) -> int:
        return max(1, int(self.layer.max(initial=0)))

    def write_csv(self, path: str) -> None:
        """Assigned rows in composite order, then the unassigned ones, written
        ``CSV_CHUNK`` rows at a time."""
        assigned = (self.layer != 0).nonzero()[0]

        def rows():
            for start in range(0, assigned.size, CSV_CHUNK):
                at = assigned[start : start + CSV_CHUNK]
                c, p = self.composites[at].astype("int64"), self.witness_prime[at].astype("int64")
                yield _csv_rows(c.tolist(), self.layer[at].tolist(), p.tolist(), (c + 3 - p).tolist())

        _write_csv(path, rows(), self.unassigned)


@dataclass
class BitBlock:
    """One block of the strata stream in Python ints: bit j of each stands
    for the odd number 2(i0 + j) + 1, j < ``size``.

    ``composite`` holds the block's odd composites, the entries.  An entry
    in ``singles`` has the ``(layer, witness prime)`` it maps to; any other
    is in layer 1, found by pass k of the layer-1 search, where bit b of k
    is its bit in ``planes[b]``, and its witness is ``passes[k - 1]``.  No
    entry in ``singles`` has a bit in ``planes``.
    """

    i0: int
    size: int
    composite: int
    planes: list[int]
    passes: list[int]
    singles: dict[int, tuple[int, int]]


@dataclass
class StrataCensus:
    """Count, least and largest member per layer, and the unassigned
    composites in increasing order, tallied one block of the strata at a time."""

    limit: int
    layers: dict[int, dict[str, int]] = field(default_factory=dict)
    unassigned: list[int] = field(default_factory=list)

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


def _interleaved(block: BitBlock, a: int, b: int) -> bytearray:
    """The planes' bytes over the bits ``[a, b)`` of a block, interleaved:
    byte 8i + place is byte i of ``planes[place]``, so each 8-byte word holds
    the planes of eight bits, a row per plane.  Needs at most eight planes."""
    size = (b - a + 7) // 8
    mask = (1 << 8 * size) - 1
    words = bytearray(8 * size)
    for place, plane in enumerate(block.planes):
        words[place::8] = (plane >> a & mask).to_bytes(size, "little")
    return words


def _pass_numbers(block: BitBlock, a: int, b: int) -> bytes:
    """Byte j - a is the pass number of bit j, for a <= j < b: the 8 x 8 bit
    matrix of each word of the interleaved planes transposed, all words at
    once in one Python int, which leaves byte c of a word the pass number of
    its bit c."""
    words = _interleaved(block, a, b)
    x = int.from_bytes(words, "little")
    for shift, mask in _TRANSPOSE:
        mask = int.from_bytes(mask.to_bytes(8, "little") * (len(words) // 8), "little")
        t = (x ^ x >> shift) & mask
        x ^= t ^ t << shift
    return x.to_bytes(len(words), "little")[: b - a]


def _bit_block_rows(block: BitBlock):
    """The CSV rows of a block's assigned entries in composite order, one
    bytes string per ``CSV_CHUNK`` odd numbers (at most as many rows)."""
    first = 2 * block.i0 + 1
    witness_of = [0, *block.passes]
    shift_of = [0, *(p - 3 for p in block.passes)]  # c - shift_of[k] is the partner
    singles = sorted((j, k, p) for j, (k, p) in block.singles.items() if k)
    for a in range(0, block.size, CSV_CHUNK):
        b = min(a + CSV_CHUNK, block.size)
        numbers = _pass_numbers(block, a, b)
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


class _LayerView(Mapping):
    """Read-only ``{c: layer}`` view over the assigned entries of a table."""

    def __init__(self, st: StrataTable):
        self._st = st

    def __getitem__(self, c):
        import numpy as np

        comps = self._st.composites
        if isinstance(c, (int, np.integer)) and 9 <= c <= _MAX_LIMIT:
            # a scalar of the array's own dtype keeps searchsorted from casting the array
            i = int(comps.searchsorted(comps.dtype.type(c)))
            if i < comps.size and comps[i] == c and self._st.layer[i]:
                return int(self._st.layer[i])
        raise KeyError(c)

    def __iter__(self):
        return iter(self._st.composites[self._st.layer != 0].tolist())

    def __len__(self) -> int:
        return int((self._st.layer != 0).sum())


def _odd_values(i0: int, flags: np.ndarray) -> np.ndarray:
    """The odd numbers 2(i0 + j) + 1 at the set ``flags[j]``, in ``int32``,
    scaled and offset in place."""
    values = flags.nonzero()[0].astype("int32")
    values <<= 1
    values += 2 * i0 + 1
    return values


def _check_limit(limit: int) -> None:
    if limit < 9:
        raise ValueError(f"limit must be >= 9, got {limit}")
    if limit > _MAX_LIMIT:
        raise ValueError(f"limit must be <= {_MAX_LIMIT}, got {limit}")


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


def _pass_numbers_array(block: BitBlock) -> np.ndarray:
    """Per bit of the block, its pass number, as ``uint8``: the transpose of
    :func:`_pass_numbers` on the words of a ``uint64`` array, in place."""
    import numpy as np

    x = np.frombuffer(_interleaved(block, 0, block.size), dtype="<u8")
    for shift, mask in _TRANSPOSE:
        t = x >> shift
        t ^= x
        t &= mask
        x ^= t
        t <<= shift
        x ^= t
    return x.view(np.uint8)[: block.size]


def _arrays(block: BitBlock):
    """A block's ``(composites, layer, witness_prime)`` arrays; its scratch
    arrays die on return."""
    import numpy as np

    first = 2 * block.i0 + 1
    raw = block.composite.to_bytes((block.size + 7) // 8, "little")
    entries = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=block.size, bitorder="little")
    entries = entries.view(bool)
    comps = np.compress(entries, np.arange(first, first + 2 * block.size, 2, dtype=np.int32))
    numbers = np.compress(entries, _pass_numbers_array(block))
    witness = np.take(np.array([0, *block.passes], dtype=np.int32), numbers)
    layer = numbers.astype(bool).view(np.int8)
    if block.singles:
        values = np.array([first + 2 * j for j in block.singles], dtype=np.int32)
        at = comps.searchsorted(values)
        layer[at], witness[at] = zip(*block.singles.values())
    return comps, layer, witness


def strata_blocks(limit: int, table: PrimeTable):
    """Yield ``(composites, layer, witness_prime)`` for each block of
    :func:`strata_bits`, decoded with ``np.unpackbits``: the composites
    sorted (``int32``), their layers (``int8``, 0 where none is reached) and
    witness primes (``int32``, 0 likewise)."""
    return map(_arrays, strata_bits(limit, table))


def compute_strata(limit: int, table: PrimeTable | None = None) -> StrataTable:
    """Assign every odd composite <= limit to its layer: the concatenation
    of :func:`strata_blocks`.

    Whatever remains is surfaced as unassigned rather than raising, since
    within a self-contained window an unassigned composite indicates an
    implementation bug worth inspecting.
    """
    import numpy as np

    _check_limit(limit)
    if table is None:
        table = PrimeTable(limit)
    composites, layer, witness = map(np.concatenate, zip(*strata_blocks(limit, table)))
    return StrataTable(limit, composites, layer, witness)


def strata_census(limit: int, table: PrimeTable, csv: str | None = None) -> StrataCensus:
    """The census of the strata up to ``limit``, tallied from
    :func:`strata_bits` block by block; with ``csv``, the rows are written
    there as the blocks come, and the unassigned ones last.  Reads no numpy."""
    _check_limit(limit)
    tally = StrataCensus(limit)
    blocks = (tally.add(block) or block for block in strata_bits(limit, table))
    if csv:
        _write_csv(csv, chain.from_iterable(map(_bit_block_rows, blocks)), tally.unassigned)
    else:
        for _ in blocks:
            pass
    return tally


@dataclass(frozen=True)
class PartitionReport:
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


def _keep_first(listed: list, values: np.ndarray) -> None:
    listed += values[: AUDIT_LISTED - len(listed)].tolist()


def _audit(limit: int, table: PrimeTable, blocks) -> PartitionReport:
    """Audit ``(composites, layer, witness_prime)`` blocks, each paired with
    the ``(i0, mask)`` read of ``table.odd_prime_blocks(9, limit)`` it covers.

    A block's entries must be its read's odd composites, each once, and all
    must have a layer.  A layer-1 witness p must be an odd prime whose partner
    c + 3 - p is one too (``table.odd_prime_at``); any other layer-k witness
    must peel, entry by entry: p an odd prime or 2, the partner in layer k - 1
    in the audit's own ``{composite: layer}`` map of the entries outside layer
    1, which reads 1 for an odd composite it does not hold.  A block that is
    not its read's composites maps all its entries (a value's first listing
    counts) and the composites it misses at layer 0.  The reads' composites
    must add up to ``table.odd_composite_count(limit)``, the checkpoint
    count, less the non-primes among 3, 5, 7.
    """
    import numpy as np

    seen = layer_one = max_layer = unassigned = 0
    missing, stray, repeated, never, bad = [], [], [], [], []  # the first of each kind
    listed: dict[int, int] = {}
    for (comps, layer, found), (i0, mask) in blocks:
        expected = _odd_values(i0, ~mask)
        seen += expected.size
        deeper = layer != 1
        if np.array_equal(comps, expected):
            keep, keep_layers = comps[deeper], layer[deeper]
        else:
            values, first, counts = np.unique(comps, return_index=True, return_counts=True)
            gone = expected[~np.isin(expected, values)]
            _keep_first(missing, gone)
            _keep_first(stray, values[~np.isin(values, expected)])
            _keep_first(repeated, values[counts > 1])
            keep = np.concatenate((values, gone))
            keep_layers = np.concatenate((layer[first], np.zeros(gone.size, dtype=np.int8)))
        for c, k in zip(keep.tolist(), keep_layers.tolist()):
            listed.setdefault(c, k)
        layer_one += int(np.count_nonzero(layer == 1))
        max_layer = max(max_layer, int(layer.max(initial=0)))
        q = comps + 3  # the partners c + 3 - p, in int32 as c + 3 fits
        q -= found
        p_prime, q_prime = table.odd_prime_at(found), table.odd_prime_at(q)
        ok = p_prime & q_prime
        if deeper.any():
            left = comps[layer == 0]
            unassigned += left.size
            _keep_first(never, left)
            for i in np.flatnonzero(deeper & (layer != 0)).tolist():
                r = int(q[i])
                partner = listed.get(r, 1 if r & 1 and r >= 9 and not q_prime[i] else 0)
                ok[i] = partner == int(layer[i]) - 1 and (p_prime[i] or found[i] == 2)
        for i in np.flatnonzero((layer != 0) & ~ok)[: AUDIT_LISTED - len(bad)].tolist():
            c = int(comps[i])
            if not found[i]:
                bad.append(f"witness for {c} does not sum to {c + 3}")
            elif layer[i] == 1:
                bad.append(f"layer-1 witness for {c} is not an odd prime pair")
            else:
                bad.append(f"layer-{layer[i]} witness for {c} does not peel correctly")
        del expected, q, p_prime, q_prime, ok  # freed before the source builds the next block

    anomalies: list[str] = []
    # less the table's non-primes among 3, 5 and 7, which lie below the strata's range
    total = table.odd_composite_count(limit) - (4 - table.prime_count(7))
    if seen != total:
        anomalies.append(f"{seen} odd composites <= {limit} audited, the sieve counts {total}")
    anomalies += [f"odd composite {c} missing from the table" for c in missing]
    anomalies += [f"table entry {c} is not an odd composite <= {limit}" for c in stray]
    anomalies += [f"{c} is listed more than once" for c in repeated]
    anomalies += [f"{c} was never assigned to a layer" for c in never]
    return PartitionReport(limit, seen, layer_one, max_layer, unassigned, tuple(anomalies + bad))


def audit_layer_one(limit: int, table: PrimeTable) -> PartitionReport:
    """Audit the strata stream: :func:`strata_blocks` read beside a separate
    ``odd_prime_blocks(9, limit)`` read of the table, block by block."""
    _check_limit(limit)
    return _audit(limit, table, zip(strata_blocks(limit, table), table.odd_prime_blocks(9, limit)))


def _table_blocks(st: StrataTable, reads):
    """Pair each read with the views of ``st``'s arrays from its first value up
    to the next read's; the first and last run to the ends, so all are read."""
    columns = (st.composites, st.layer, st.witness_prime)
    start, read = 0, next(reads)
    for after in reads:
        cut = st.composites.dtype.type(2 * after[0] + 1)
        end = max(start, int(st.composites.searchsorted(cut)))
        yield tuple(a[start:end] for a in columns), read
        start, read = end, after
    yield tuple(a[start:] for a in columns), read


def verify_partition(st: StrataTable, table: PrimeTable | None = None) -> PartitionReport:
    """Audit a strata table against ``table`` (a sieve up to its limit by
    default) block by block; entries past the limit are reported as strays."""
    _check_limit(st.limit)
    table = PrimeTable(st.limit) if table is None else table
    return _audit(st.limit, table, _table_blocks(st, table.odd_prime_blocks(9, st.limit)))


@dataclass(frozen=True)
class AbsorptionReport:
    """Witnessed check that shifted layer members are k-fold prime sums."""

    k_range: tuple[int, int]
    checked: dict[int, int]
    vacuous: tuple[int, ...]
    failures: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_absorption(
    st: StrataTable,
    k_max: int,
    window: tuple[int, int],
    table: PrimeTable | None = None,
) -> AbsorptionReport:
    """For k in [2, k_max], check 3(k-1) + c is a k-fold odd-prime sum for every
    layer-(k-1) member c in the window; empty layers pass vacuously.

    The k-fold test is :func:`least_splits` over the odd primes, recursing on
    whole arrays of sums down to ``table.odd_prime_at`` at k = 1.
    """
    import numpy as np

    if table is None:
        table = PrimeTable(st.limit)
    lo, hi = window
    top = min(hi, st.limit)  # no prime or partner the tests read exceeds a member

    def k_fold(sums: np.ndarray, k: int) -> np.ndarray:
        if k == 1:
            return table.odd_prime_at(sums)
        rest = lambda r: k_fold(r, k - 1)  # noqa: E731
        return least_splits(sums, table.primes_in(3, top), 3 * (k - 1), rest) > 0

    checked: dict[int, int] = {}
    vacuous: list[int] = []
    failures: list[tuple[int, int]] = []
    for k in range(2, k_max + 1):
        members = st.composites[st.layer == k - 1]
        members = members[(members >= lo) & (members <= hi)]
        if not members.size:
            vacuous.append(k)
            continue
        checked[k] = int(members.size)
        bad = members[~k_fold(members.astype(np.int64) + 3 * (k - 1), k)]
        failures += [(k, c) for c in bad.tolist()]
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


@dataclass(frozen=True)
class EvidenceReport:
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
