"""Window bitsets with sumset arithmetic, and the exact pair-sum decision.

:class:`WindowSet` is a bitset over a finite interval; an n-fold sumset of
a window from ``lo`` is certified from ``n*lo`` on.  The infinite sets
behind it are described in :mod:`sumcollapse.setexpr`; the
only ones admitting exact (non-windowed) pair-sum decisions are the odd
integers >= 3 minus finitely many values, decided by
:func:`pair_sum_cover_decision`.

Sumsets are computed by shift-OR bitset convolution over the sparser
operand; Python's big integers do the word-level work.  The loop stops as
soon as the residue class that sums can reach (mod a step proven over both
operands) is filled, checked after 1, 2, 4, ..., 64 shifts and then every
64, so a nearly full operand stops after one shift and sums of odd primes
or rough numbers after a few dozen, instead of running through every member.
Operands of mixed parity are split into their parity classes first, so
that each pair of classes saturates on its own.  :func:`window_sumset`
runs the same kernel on two windows at different offsets, which lets a
caller check the sums of a short interval far from 0 without a window that
reaches down to it.

The exact pair-sum decision searches a split of each sum 3 + e, e excluded,
and of no other sum, in one loop over Python ints.  The array searches are
:func:`least_splits`, the least-witness search that the layer-1 retry of the
strata, the absorption check and the pair sweeps ask, and its block form
:func:`least_splits_block`, which layer 1 of the strata asks for the same
least part of a contiguous block of sums against a flag array; they import
numpy when called, so importing this module does not.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .verdict import RelationVerdict, fails, holds, holds_on_window

if TYPE_CHECKING:
    import numpy as np

DENSE_SHARE = 16  # least_splits_block ANDs whole blocks until under 1/16 of them is pending
_BITPOS = [tuple(j for j in range(8) if b >> j & 1) for b in range(256)]


def iter_bits(bits: int):
    """Yield set-bit positions in increasing order.

    Scans bytes rather than clearing bits one at a time, which would copy
    the whole integer per member and go quadratic on dense sets.
    """
    if not bits:
        return
    raw = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
    for idx, byte in enumerate(raw):
        if byte:
            base = idx << 3
            for off in _BITPOS[byte]:
                yield base + off


def _lsb(bits: int) -> int:
    """The lowest set position of ``bits`` (-1 for 0), read from low words
    of doubling width, so the cost follows the position and not the length."""
    width = 64
    while not bits & ((1 << width) - 1) and width < bits.bit_length():
        width <<= 1
    low = bits & ((1 << width) - 1)
    return (low & -low).bit_length() - 1


def bits_from_values(values, lo: int, hi: int) -> int:
    """Bitset (bit ``v - lo``) of the given values clipped to ``[lo, hi]``."""
    if lo > hi:
        return 0
    buf = bytearray((hi - lo) // 8 + 1)
    for v in values:
        if lo <= v <= hi:
            i = v - lo
            buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def progression_bits(base: int, step: int, lo: int, hi: int) -> int:
    """Bitset over ``[lo, hi]`` of the progression ``base, base + step, ...``.

    ``count`` members spaced ``step`` apart form the base-2^step repunit
    (2^(step*count) - 1) / (2^step - 1), shifted to the first member.
    """
    start = base if base >= lo else base + (lo - base + step - 1) // step * step
    if start > hi:
        return 0
    count = (hi - start) // step + 1
    repunit = ((1 << step * count) - 1) // ((1 << step) - 1)
    return repunit << (start - lo)


class WindowSet:
    """Finite integer window with a membership bitset.

    Bit ``i`` of ``bits`` is membership of ``lo + i``; the set is exact on
    the whole window.  An empty window is represented by ``lo == hi + 1``.
    """

    __slots__ = ("lo", "hi", "bits")

    def __init__(self, lo: int, hi: int, bits: int):
        if lo > hi + 1:
            raise ValueError(f"inverted window [{lo}, {hi}]")
        length = hi - lo + 1
        if bits < 0 or bits >> length:
            raise ValueError("membership bits fall outside the window")
        self.lo = lo
        self.hi = hi
        self.bits = bits

    def __contains__(self, v: int) -> bool:
        return self.lo <= v <= self.hi and bool(self.bits >> (v - self.lo) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WindowSet)
            and (self.lo, self.hi, self.bits) == (other.lo, other.hi, other.bits)
        )

    def __repr__(self) -> str:
        return f"WindowSet([{self.lo}, {self.hi}], {len(self)} members)"

    def members(self):
        lo = self.lo
        for i in iter_bits(self.bits):
            yield lo + i


def restrict(source, lo: int, hi: int, table=None) -> WindowSet:
    """Materialise a set onto ``[lo, hi]``.

    ``source`` is anything :func:`~sumcollapse.setexpr.as_set_expr` accepts:
    a set expression or its text (prime-backed ones need the sieve
    ``table``), a collection of integers, or a membership predicate.
    """
    from .setexpr import as_set_expr  # local import; setexpr builds on this module

    if lo > hi:
        raise ValueError(f"inverted window [{lo}, {hi}]")
    return WindowSet(lo, hi, as_set_expr(source).window_bits(lo, hi, table))


def _position_step(bits: int) -> int:
    """A common divisor of every difference between set positions of
    ``bits``: 0 for at most one member, 1 when there is no larger one.

    The candidate comes from the first members; one AND against the
    progression it predicts then proves it over the whole operand, so a
    single stray position further up falls back to 1.
    """
    if bits.bit_count() < 2:
        return 0
    lsb = _lsb(bits)
    g = 0
    for k, pos in enumerate(iter_bits(bits)):
        g = math.gcd(g, pos - lsb)
        if g == 1 or k == 64:
            break
    if g > 1 and bits & ~progression_bits(lsb, g, 0, bits.bit_length() - 1):
        return 1
    return g


def _sumset_bits(a_bits: int, b_bits: int, out_len: int) -> int:
    """OR of ``a_bits`` shifted by every set position of ``b_bits``, cut to
    ``out_len`` bits.

    Enumerates the sparser operand, drops shifts past the output window and
    keeps the shifted operand trimmed so intermediate integers never grow
    beyond the window.

    Saturation: with g a proven common divisor of the position differences
    in each operand, every sum lies in the class of ``a_lsb + b_lsb`` mod g.
    Once ``acc`` holds every position of that class from the lowest one a
    remaining shift can touch up to ``out_len``, no later shift adds a bit.
    That holds after any shift, so the loop tests it on a doubling schedule,
    after 1, 2, 4, ..., 64 shifts and then every 64: a test costs about one
    shift, and a nearly full operand is done after its first.
    An odd g means mixed parities, and then the odd sums of one class pair
    would keep the even sums of another from ever saturating (the prime 2
    beside the odd primes): the operands are split by parity, and each pair
    of classes runs the loop with its own cutoff.
    """
    if out_len <= 0:
        return 0
    a_bits, b_bits = _cut(a_bits, out_len), _cut(b_bits, out_len)
    if not a_bits or not b_bits:
        return 0
    step = math.gcd(_position_step(a_bits), _position_step(b_bits))
    if step % 2 == 0:
        pairs = [(a_bits, b_bits, step or 1)]
    else:
        evens = progression_bits(0, 2, 0, out_len - 1)
        a_cls, b_cls = ((bits & evens, bits & ~evens) for bits in (a_bits, b_bits))
        # positions of one parity differ by multiples of 2 as well
        pairs = [
            (a, b, math.lcm(2, math.gcd(_position_step(a), _position_step(b))) or 2)
            for a in a_cls
            for b in b_cls
            if a and b
        ]
    del a_bits, b_bits  # so an unsplit loop holds the only copy of its operands as it trims them
    acc = 0
    while pairs:
        a_bits, b_bits, step = pairs.pop()
        if a_bits.bit_count() < b_bits.bit_count():
            a_bits, b_bits = b_bits, a_bits
        a_lsb = _lsb(a_bits)
        reachable = progression_bits(a_lsb + _lsb(b_bits), step, 0, out_len - 1)
        slack = 1 << 13  # trim the shifted operand only once it overshoots by this much
        check_at = 1  # checks after 1, 2, 4, ..., 64 shifts, then every 64
        for taken, j in enumerate(iter_bits(b_bits), start=1):
            allowed = out_len - j
            if a_bits.bit_length() > allowed + slack:
                a_bits &= (1 << (allowed + slack)) - 1
            acc |= a_bits << j
            if taken == check_at:
                check_at += min(taken, 64)
                # every reachable position a later shift could touch is filled
                if (reachable & ~acc).bit_length() <= j + 1 + a_lsb:
                    break
    return _cut(acc, out_len)


def _cut(bits: int, length: int) -> int:
    """``bits`` cut to its low ``length`` bits; the same object when nothing
    lies above them, so no window-sized copy or mask is made."""
    return bits if bits.bit_length() <= length else bits & ((1 << length) - 1)


def iterated_sumset(ws: WindowSet, n: int) -> WindowSet:
    """All sums of ``n`` members, certified exact on ``[n*lo, hi]``.

    Any sum s <= hi of n elements >= lo only uses summands
    <= hi - (n-1)*lo, all inside the window, so truncating each fold at
    ``hi`` loses nothing below it.
    """
    if n < 1:
        raise ValueError(f"fold count must be >= 1, got {n}")
    if ws.lo < 0:
        raise ValueError("iterated_sumset requires a non-negative window")
    if n == 1:
        return WindowSet(ws.lo, ws.hi, ws.bits)
    if n * ws.lo > ws.hi:
        raise ValueError(
            f"{n}-fold sums start at {n * ws.lo}, past the window end {ws.hi}"
        )
    acc = ws.bits
    for step in range(2, n + 1):
        out_len = ws.hi - step * ws.lo + 1
        acc = _sumset_bits(acc, ws.bits, out_len)
    return WindowSet(n * ws.lo, ws.hi, acc)


def window_sumset(a: WindowSet, b: WindowSet, hi: int) -> WindowSet:
    """Every sum of a member of ``a`` and a member of ``b``, on
    ``[a.lo + b.lo, hi]``: the sums of the two finite windows, so a sum
    missing here may still be reached by members outside them."""
    lo = a.lo + b.lo
    return WindowSet(lo, hi, _sumset_bits(a.bits, b.bits, hi - lo + 1))


def dilation(ws: WindowSet, n: int) -> WindowSet:
    """Pointwise scaling {n*c}; the window becomes ``[n*lo, hi]``."""
    if n < 1:
        raise ValueError(f"dilation factor must be >= 1, got {n}")
    if n == 1:
        return WindowSet(ws.lo, ws.hi, ws.bits)
    new_lo = n * ws.lo
    if new_lo > ws.hi:
        return WindowSet(ws.hi + 1, ws.hi, 0)
    scaled = (n * v for v in ws.members())
    return WindowSet(new_lo, ws.hi, bits_from_values(scaled, new_lo, ws.hi))


def sumset_equal_window(
    a: WindowSet, b: WindowSet, m: int, n: int | None = None
) -> RelationVerdict:
    """Compare the m-fold sumset of ``a`` with the n-fold sumset of ``b``
    (n = m unless given) on the range where both are certified."""
    n = m if n is None else n
    if (a.lo, a.hi) != (b.lo, b.hi):
        raise ValueError("sumset comparison requires matching windows")
    lo, hi = a.lo, a.hi
    folds = f"{m}-fold" if m == n else f"{m}-fold and {n}-fold"
    common_lo = max(m * lo, n * lo)
    if common_lo > hi:
        return holds_on_window(
            None,
            f"certified range for {folds} sums over [{lo}, {hi}] is empty; "
            "nothing to compare",
        )
    sa = iterated_sumset(a, m).bits >> (common_lo - m * lo)
    sb = iterated_sumset(b, n).bits >> (common_lo - n * lo)
    diff = sa ^ sb
    if not diff:
        return holds_on_window(
            (common_lo, hi),
            f"{folds} sumsets agree on [{common_lo}, {hi}]; no statement beyond the window",
        )
    value = common_lo + _lsb(diff)
    side = "left" if sa >> (value - common_lo) & 1 else "right"
    return fails(
        value,
        f"{folds} sumsets differ at {value} (present only in the {side} operand)",
        certified_range=(common_lo, hi),
    )


def least_splits(sums, parts, floor: int, accepts) -> np.ndarray:
    """Per sum s of the increasing array ``sums``, the least a of the
    increasing iterable ``parts`` (endless is fine) whose partner s - a is
    >= ``floor`` and passes ``accepts``, a test on an array of partners; 0
    where none does.  Partners shrink as a grows, so a sum whose partner
    falls below the floor is dropped for good.

    With a symmetric accept set -- the parts are exactly the accepted values
    >= ``floor`` -- a split s = a + b reads both ways, b being a part with
    the accepted partner a.  So the least part a* is at most s - a*: a split
    with a <= b exists iff a* > 0, and one with a < b iff 0 < 2a* < s.
    """
    import numpy as np

    sums = np.asarray(sums)
    found = np.zeros(sums.size, dtype=sums.dtype)
    pos = np.arange(sums.size, dtype=np.int32)  # half the memory of int64; fewer than 2^31 sums
    cand = sums
    for a in parts:
        if not cand.size or cand[-1] < a + floor:
            break
        first = int(cand.searchsorted(cand.dtype.type(a + floor)))
        pos, cand = pos[first:], cand[first:]
        hit = accepts(cand - a)
        found[pos[hit]] = a
        pos, cand = pos[~hit], cand[~hit]
    return found


def least_splits_block(pending: np.ndarray, flags: np.ndarray, parts) -> np.ndarray:
    """The block form of :func:`least_splits` for a flag-array accept set:
    per set position of ``pending``, in increasing order, the least odd part
    p >= 3 of the increasing iterable ``parts`` whose partner is flagged;
    0 where none is.

    ``flags[i]`` says whether the odd number 2(lo + i) + 1 is accepted, and
    ``pending`` lines up with the last ``pending.size`` flags: with
    off = ``flags.size - pending.size``, position j stands for the sum
    s_j = 2(lo + off + j) + 4, whose partner for p sits at
    ``flags[off + j - (p - 3)/2]``.  So each part is one contiguous AND of
    the pending positions with the flags shifted by (p - 3)/2, and a
    position's part is that of the pass that cleared it, counted by the
    passes it stayed pending through.  Once fewer than 1/``DENSE_SHARE`` of
    the positions are left (or after 252 passes, all a ``uint8`` count
    holds), each part gathers the partners of the positions left instead.
    A position whose partner falls below ``flags[0]`` gets 0.

    This is the least part ``least_splits`` returns for the sums s_j with
    floor 2 lo + 1 and the test ``flags[(q >> 1) - lo]``; the search stops
    once nothing is pending or every partner is below the flags.  Parts
    must be below 2^31.
    """
    import numpy as np

    n = pending.size
    off = flags.size - n
    asked, pending = pending, pending.copy()
    hit = np.empty(n, dtype=bool)
    stayed = np.zeros(n, dtype=np.uint8)  # dense passes each position stayed pending through
    dense: list[int] = []  # the part of each dense pass
    found = rest = None
    left = np.count_nonzero(pending)
    for p in parts:
        shift = (p - 3) >> 1
        j0 = max(shift - off, 0)  # the partners of positions below j0 are below the flags
        if not left or j0 >= n:
            break
        if rest is None:
            window = hit[: n - j0]
            np.logical_and(pending[j0:], flags[off - shift + j0 : off - shift + n], out=window)
            np.logical_xor(pending[j0:], window, out=pending[j0:])
            stayed += pending
            dense.append(p)
            if len(dense) % 4 == 0:  # 252 is the last such count below the uint8 limit
                left = np.count_nonzero(pending)
                if left * DENSE_SHARE < n or len(dense) == 252:
                    found = _dense_parts(dense, pending, stayed)
                    rest = np.flatnonzero(pending)
        else:
            rest = rest[rest.searchsorted(j0) :]
            got = flags[off - shift + rest]
            found[rest[got]] = p
            rest = rest[~got]
            left = rest.size
    if rest is None:
        found = _dense_parts(dense, pending, stayed)
    return found[asked]


def _dense_parts(dense: list[int], pending: np.ndarray, stayed: np.ndarray) -> np.ndarray:
    """Per position, the dense pass's part that cleared it, 0 if none did."""
    import numpy as np

    # a uint8 index: a scalar of its dtype keeps np.where from widening it
    return np.array(dense + [0], dtype=np.int32)[np.where(pending, np.uint8(len(dense)), stayed)]


def pair_sum_cover_decision(d) -> RelationVerdict:
    """Decide exactly whether 2*(odd integers >= 3) equals 2*D, for a
    :class:`~sumcollapse.setexpr.Progression` D of odd integers >= 3 minus
    finitely many.

    Only the sums 3 + e, e excluded, are searched: any other even s >= 6 is
    3 + (s - 3), both odd, >= 3 and not excluded, unless 3 itself is
    excluded, and then 6 = 3 + 3, which has no other representation, is the
    least counterexample.  So the decision is the least of those candidates
    with no split a + (s - a), a odd in [3, s - 3], neither part excluded.
    A candidate's search stops at its first split, and each a it fails on
    has a or its partner excluded, so it tries at most 2|E| + 1 values of a
    for the excluded set E.  A counterexample is certified on [6, 2M + 6],
    M the largest excluded element, the range the candidates lie in.
    """
    if (d.base, d.step) != (3, 2):
        raise ValueError("the exact pair-sum decision is defined for odd>=3 minus a finite set")
    excluded = d.excluded
    for e in d.excluded_sorted:
        s = e + 3
        if not any(a not in excluded and s - a not in excluded for a in range(3, e + 1, 2)):
            return fails(
                s,
                f"{s} has no representation a + b with both odd, >= 3 and outside "
                f"{list(d.excluded_sorted)}",
                certified_range=(6, 2 * d.max_excluded + 6),
            )
    return holds(
        f"each of the {len(excluded)} sums 3 + e, e excluded, is a + b with a and b "
        "odd, >= 3 and not excluded (found by enumeration); every other even "
        "s >= 6 is 3 + (s - 3), and neither part is excluded"
    )
