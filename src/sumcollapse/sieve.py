"""Segmented prime sieve with packed storage, prime counting and composite indexing.

The table stores one bit per odd number (bit ``i`` says whether ``2*i + 1``
is prime), so a table up to ``limit`` costs ``limit/16`` bytes plus a fixed
segment buffer during construction; its base primes come from the same
sieve one level down, so the module imports nothing from the package.
Prime counts are answered from checkpoint sums plus a popcount over the
residual block, which keeps ``prime_count`` effectively O(1).

The table is built and read with bytes and ints alone, so the scalar
queries, the scans ``primes_in`` / ``odd_composites_in`` (which walk the
packed bytes), ``odd_flag_bits`` (which spreads them straight into a
window bitset, :func:`spread_bits`) and the block source run without
numpy.  The block source is ``odd_block_bounds(lo, hi)``, the
``CHECKPOINT_BITS``-odd blocks that tile a range, and
``odd_prime_bits(i0, i1)``, one int sliced from the packed bytes of an
index range, which the battery's sieve pass, layer 1 of the strata and its
audit read per block, and the pair sweep once.  So no command imports
numpy.  The one array reader, ``odd_prime_mask``, which decodes a prefix
of the bits into a flag array for library callers, imports it when called.

All element indices are 1-based: ``nth_prime(1) == 2`` and the first odd
composite has rank 1.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

SEGMENT_ODDS = 1 << 19      # odd numbers sieved per segment
CHECKPOINT_BITS = 1 << 16   # bits per prime-count checkpoint block

# byte -> the offsets 2j of its set bits j: the odd numbers a packed byte
# flags, counted from the one its bit 0 stands for
_OFFSETS = [tuple(2 * j for j in range(8) if b >> j & 1) for b in range(256)]
_INVERT = bytes(range(255, -1, -1))
_PHASES = bytes(1 << j for j in range(8))  # each odd number's bit in its packed byte
# byte -> its low (high) nibble with bit j moved to bit 2j: the two bytes of
# the 16 integers that a byte's eight odd flags stand among
_NIBBLE = [sum((n >> j & 1) << 2 * j for j in range(4)) for n in range(16)]
_LOW = bytes(_NIBBLE[b & 15] for b in range(256))
_HIGH = bytes(_NIBBLE[b >> 4] for b in range(256))


def _unpack(bits: bytes, i0: int, i1: int) -> np.ndarray:
    """Flags of the odd numbers with index in ``[i0, i1)`` of packed ``bits``,
    as a bool array; only the bytes holding them are unpacked."""
    import numpy as np

    skip = i0 & 7
    raw = np.frombuffer(bits, dtype=np.uint8)[i0 >> 3 : (i1 + 7) >> 3]
    return np.unpackbits(raw, bitorder="little", count=i1 - i0 + skip)[skip:].view(bool)


def _window_bytes(bits: bytes, i0: int, i1: int, clear: bool) -> bytearray:
    """The bytes of ``bits`` that hold the indices ``[i0, i1)``, ``i0 < i1``,
    inverted with ``clear``, with the bits of other indices zeroed."""
    raw = bytearray(bits[i0 >> 3 : (i1 + 7) >> 3])
    if clear:
        raw = raw.translate(_INVERT)
    raw[0] &= 0xFF << (i0 & 7) & 0xFF
    raw[-1] &= 0xFF >> (-i1 & 7)
    return raw


def spread_bits(raw: bytes) -> int:
    """The int whose bit 2j is bit j of the little-endian ``raw``: each
    byte spread to 16 bits, its nibbles through the ``_LOW`` and ``_HIGH``
    tables into alternate bytes.  So bits that stand for consecutive odd
    numbers land on the bits of those numbers among all integers."""
    words = bytearray(2 * len(raw))
    words[0::2] = raw.translate(_LOW)
    words[1::2] = raw.translate(_HIGH)
    return int.from_bytes(words, "little")


def _odd_values(bits: bytes, i0: int, i1: int, clear: bool = False):
    """Yield 2i + 1 for each index i in ``[i0, i1)`` whose bit is set (with
    ``clear``, clear), in increasing order.  The bytes are read
    ``CHECKPOINT_BITS`` indices at a time, so a caller that stops early
    reads little."""
    for j0 in range(i0, i1, CHECKPOINT_BITS):
        j1 = min(j0 + CHECKPOINT_BITS, i1)
        value = 16 * (j0 >> 3) + 1  # the odd number of bit 0 of the first byte
        for byte in _window_bytes(bits, j0, j1, clear):
            if byte:
                for offset in _OFFSETS[byte]:
                    yield value + offset
            value += 16


def _sieve_segment(seg_start: int, seg_len: int, base_primes: list[int]) -> int:
    """The prime bits of the odd indices ``[seg_start, seg_start + seg_len)``
    as an int, ``base_primes`` the odd primes up to the root of the last one.

    The segment is one byte per odd number, each holding its bit of the
    packed byte (``1 << (i & 7)`` for index i) until a base prime's slice
    assignment clears it.  It then packs as the OR of its eight bit phases
    (bytes ``j::8``), read as ints, and dies on return, so a build holds one
    segment at a time.
    """
    buf = bytearray(_PHASES) * ((seg_len + 7) // 8)
    del buf[seg_len:]
    if seg_start == 0:
        buf[0] = 0  # the odd number 1
    lo_value = 2 * seg_start + 1
    hi_value = 2 * (seg_start + seg_len - 1) + 1
    for p in base_primes:
        if p * p > hi_value:
            break
        first = max(p * p, ((lo_value + p - 1) // p) * p)
        if first % 2 == 0:
            first += p
        idx = (first >> 1) - seg_start
        if idx < seg_len:
            buf[idx::p] = bytearray((seg_len - 1 - idx) // p + 1)
    packed = 0
    for j in range(8):
        packed |= int.from_bytes(buf[j::8], "little")
    return packed


class PrimeTable:
    """Immutable primality table over ``[2, limit]``; safe for concurrent reads."""

    __slots__ = ("limit", "_bits", "_ckpt")

    def __init__(self, limit: int):
        if limit < 9:
            raise ValueError(f"sieve limit must be >= 9, got {limit}")
        if limit.bit_length() > 62:
            raise ValueError("sieve limit exceeds supported index range")
        self.limit = limit
        self._bits = self._build_bits(limit)
        self._ckpt = self._build_checkpoints()

    @staticmethod
    def _build_bits(limit: int) -> bytearray:
        """The packed bits, each segment sieved (:func:`_sieve_segment`) and
        packed into its place in one buffer of the table's own size."""
        n_bits = (limit + 1) // 2
        root = math.isqrt(limit)  # below 9 every odd number but 1 is prime
        base = PrimeTable._build_bits(root) if limit >= 9 else b""
        base_primes = list(_odd_values(base, 0, (root + 1) // 2)) if base else []

        bits = bytearray((n_bits + 7) // 8)
        for seg_start in range(0, n_bits, SEGMENT_ODDS):
            seg_len = min(SEGMENT_ODDS, n_bits - seg_start)
            # SEGMENT_ODDS is a multiple of 8, so each segment starts on a byte
            a, size = seg_start >> 3, (seg_len + 7) // 8
            bits[a : a + size] = _sieve_segment(seg_start, seg_len, base_primes).to_bytes(size, "little")
        return bits

    def _build_checkpoints(self) -> list[int]:
        """Prime bits before each ``CHECKPOINT_BITS`` block, from one popcount
        per block."""
        bits, block_bytes = memoryview(self._bits), CHECKPOINT_BITS // 8
        counts = (
            int.from_bytes(bits[i : i + block_bytes], "little").bit_count()
            for i in range(0, len(bits), block_bytes)
        )
        return list(itertools.accumulate(counts, initial=0))

    # -- point queries ---------------------------------------------------

    def _check_range(self, x: int) -> None:
        if x > self.limit:
            raise ValueError(f"query {x} exceeds sieve limit {self.limit}")

    def is_prime(self, n: int) -> bool:
        self._check_range(n)
        if n < 2:
            return False
        if n % 2 == 0:
            return n == 2
        i = n >> 1
        return bool(self._bits[i >> 3] >> (i & 7) & 1)

    def is_odd_composite(self, n: int) -> bool:
        """Odd, >= 9 and not prime; only the primality lookup checks the range."""
        return n % 2 == 1 and n >= 9 and not self.is_prime(n)

    def _count_odd_bits_through(self, i: int) -> int:
        """Popcount of prime bits with index in ``[0, i]``."""
        block = i >> 16
        base = int(self._ckpt[block])
        first_byte = block << 13  # CHECKPOINT_BITS // 8 bytes per block
        last_byte = i >> 3
        if last_byte > first_byte:
            base += int.from_bytes(self._bits[first_byte:last_byte], "little").bit_count()
        partial = self._bits[last_byte] & ((1 << ((i & 7) + 1)) - 1)
        return base + bin(partial).count("1")

    def prime_count(self, x: int) -> int:
        """Number of primes <= x."""
        self._check_range(x)
        if x < 2:
            return 0
        if x == 2:
            return 1
        return 1 + self._count_odd_bits_through((x - 1) >> 1)

    def odd_composite_count(self, x: int) -> int:
        """Number of odd composite numbers <= x."""
        self._check_range(x)
        if x < 9:
            return 0
        # odds up to x, minus 1 itself, minus the odd primes
        return (x + 1) // 2 - 1 - (self.prime_count(x) - 1)

    # -- indexed access --------------------------------------------------

    def nth_prime(self, k: int) -> int:
        if k < 1:
            raise ValueError(f"prime indices are 1-based, got {k}")
        if k == 1:
            return 2
        total = self.prime_count(self.limit)
        if k > total:
            raise ValueError(f"only {total} primes <= {self.limit}, asked for #{k}")
        return bisect.bisect_left(range(self.limit + 1), k, 3, key=self.prime_count)

    def nth_odd_composite(self, k: int) -> int:
        if k < 1:
            raise ValueError(f"composite indices are 1-based, got {k}")
        total = self.odd_composite_count(self.limit)
        if k > total:
            raise ValueError(f"only {total} odd composites <= {self.limit}, asked for #{k}")
        return bisect.bisect_left(range(self.limit + 1), k, 9, key=self.odd_composite_count)

    # -- scans -----------------------------------------------------------

    def primes_in(self, lo: int, hi: int):
        """Yield primes in ``[lo, hi]`` in increasing order."""
        self._check_range(hi)
        if lo <= 2 <= hi:
            yield 2
        yield from _odd_values(self._bits, max(lo, 1) // 2, (hi + 1) // 2)

    def odd_composites_in(self, lo: int, hi: int):
        """Yield odd composites in ``[lo, hi]`` in increasing order."""
        self._check_range(hi)
        yield from _odd_values(self._bits, max(lo, 9) // 2, (hi + 1) // 2, clear=True)

    def odd_prime_mask(self, hi: int | None = None) -> np.ndarray:
        """Boolean array indexed by ``i`` for the odd numbers ``2i+1 <= hi``
        (``hi`` defaults to the limit); only the bytes through ``hi`` are read."""
        hi = self.limit if hi is None else hi
        self._check_range(hi)
        return _unpack(self._bits, 0, (hi + 1) // 2)

    def odd_flag_bits(self, lo: int, hi: int, origin: int, composite: bool = False) -> int:
        """Bitset with bit ``v - origin`` set for each odd v in ``[lo, hi]``
        whose bit is set (with ``composite``, clear); ``origin <= lo``.

        The packed bytes of the range are spread (:func:`spread_bits`), so
        the bitset is built from them with no more than a few bitset-sized
        (n/8-byte) buffers alive."""
        self._check_range(hi)
        i0, i1 = max(lo, 0) // 2, (hi + 1) // 2  # the odd 2i + 1 in [lo, hi]
        if i0 >= i1:
            return 0
        bits = spread_bits(_window_bytes(self._bits, i0, i1, composite))
        shift = 16 * (i0 >> 3) + 1 - origin  # bit 0 stands for 16 (i0 >> 3) + 1
        return bits << shift if shift >= 0 else bits >> -shift

    def odd_block_bounds(self, lo: int = 1, hi: int | None = None):
        """Yield ``(i0, i1)``, the index ranges of the blocks that tile the odd
        numbers in ``[lo, hi]`` (``hi`` defaults to the limit), cut where an
        index is a multiple of ``CHECKPOINT_BITS``; index i stands for 2i + 1."""
        hi = self.limit if hi is None else hi
        self._check_range(hi)
        i0, end = max(lo, 1) // 2, (hi + 1) // 2
        while i0 < end:
            i1 = min((i0 // CHECKPOINT_BITS + 1) * CHECKPOINT_BITS, end)
            yield i0, i1
            i0 = i1

    def odd_prime_bits(self, i0: int, i1: int) -> int:
        """The prime bits of the odd indices ``[i0, i1)`` as an int: bit j says
        whether ``2*(i0 + j) + 1`` is prime.  Only the bytes holding them are read."""
        if i0 >= i1:
            return 0
        self._check_range(2 * i1 - 1)
        raw = int.from_bytes(self._bits[i0 >> 3 : (i1 + 7) >> 3], "little")
        return raw >> (i0 & 7) & ((1 << (i1 - i0)) - 1)


class CompositeIndex:
    """1-based index into the increasing sequence of odd composite numbers."""

    __slots__ = ("table",)

    def __init__(self, table: PrimeTable):
        self.table = table

    def nth(self, k: int) -> int:
        return self.table.nth_odd_composite(k)

    def rank(self, c: int) -> int:
        if not self.table.is_odd_composite(c):
            raise ValueError(f"{c} is not an odd composite number")
        return self.table.odd_composite_count(c)

    def count(self, x: int) -> int:
        return self.table.odd_composite_count(x)

    def first(self, k: int) -> tuple[int, ...]:
        """The ``k`` smallest odd composites."""
        out = tuple(itertools.islice(self.table.odd_composites_in(9, self.table.limit), k))
        if len(out) < k:
            raise ValueError(
                f"only {len(out)} odd composites <= {self.table.limit}, {k} requested"
            )
        return out


def is_rough(n: int, p: int) -> bool:
    """True iff every prime factor of odd ``n`` is >= ``p`` (``p`` an odd prime).

    Equivalently, membership of ``n`` in the multiplicative semigroup
    generated by the primes >= ``p``.
    """
    if n % 2 == 0 or n < 3:
        raise ValueError(f"n must be an odd integer >= 3, got {n}")
    if p == 2:
        raise ValueError("p = 2 is not supported; every integer >= 2 qualifies")
    if p < 3 or p % 2 == 0 or not _is_prime_slow(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    q = 3
    while q < p:
        if n % q == 0:
            return False
        q += 2
    return True


def _is_prime_slow(n: int) -> bool:
    """Trial-division primality; used for validating small arguments."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True
