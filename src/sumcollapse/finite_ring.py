"""Exhaustive relation analysis in the residue rings Z/mZ.

Everything here is finite and decided completely: sumsets by mask rotation,
the factorization property by multiplicative-closure membership, and the
reduction / expansion families by walks from B, down one removal or up one
addition (inside closure(B)) at a time; the families are upward / downward
closed, so the walks miss no member, and one single-removal test decides
reducibility.  Scans over every subset read one builder, :func:`_zm_tables`
(the closure and S_1..S_n of every mask, as int lists indexed by mask): the
optimal-subset scans are lookups in it, and the exhaustive (B, C, m_fold,
n_fold) table has one decider, :func:`relation_table`, which answers one B
at a time from those same int lists: the (fp, subset) code of every C, and
the cells with equal sumsets, found by looking S_{m_fold}(B) up in a
per-n_fold index from each S_{n_fold}(C) to its masks.
:func:`relation_table_rows` reads its rows from those blocks.  Nothing here
imports numpy.  Size guards fail fast instead of sampling, since exhaustive
semantics is the point.
"""

from __future__ import annotations

import math
from typing import NamedTuple

MAX_MODULUS = 30
# the walk down from all of Z/16 takes about 3 s, the optimal-subset scan of Z/16 0.25 s
MAX_SUBSET_SCAN = 1 << 16
_GUARD = f"2^{MAX_SUBSET_SCAN.bit_length() - 1} guard"
MAX_TABLE_ROWS = 10**8  # (2^m - 1)^2 * n_max^2 rows: modulus 10 takes n_max <= 9


def _require_modulus(m: int) -> None:
    if not (2 <= m <= MAX_MODULUS):
        raise ValueError(f"modulus must be in [2, {MAX_MODULUS}], got {m}")


def _require_scan(what: str, bits: int) -> None:
    if 1 << bits > MAX_SUBSET_SCAN:
        raise ValueError(f"{what} scan over 2^{bits} masks exceeds the {_GUARD}")


class ZmSubset:
    """Subset of Z/mZ as an m-bit membership mask."""

    __slots__ = ("modulus", "mask")

    def __init__(self, modulus: int, mask: int):
        _require_modulus(modulus)
        if not (0 <= mask < (1 << modulus)):
            raise ValueError(f"mask {mask:#x} out of range for modulus {modulus}")
        self.modulus, self.mask = modulus, mask

    def __eq__(self, other):
        return type(other) is ZmSubset and (other.modulus, other.mask) == (self.modulus, self.mask)

    def __hash__(self):
        return hash((self.modulus, self.mask))

    def __repr__(self) -> str:
        return f"ZmSubset(modulus={self.modulus}, mask={self.mask})"

    @classmethod
    def from_elements(cls, modulus: int, elements) -> "ZmSubset":
        _require_modulus(modulus)
        mask = 0
        for e in elements:
            mask |= 1 << (e % modulus)
        return cls(modulus, mask)

    def elements(self) -> tuple[int, ...]:
        return tuple(r for r in range(self.modulus) if self.mask >> r & 1)

    def __contains__(self, r: int) -> bool:
        return bool(self.mask >> (r % self.modulus) & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def is_subset_of(self, other: "ZmSubset") -> bool:
        self._check_same(other)
        return not (self.mask & ~other.mask)

    def without(self, r: int) -> "ZmSubset":
        return ZmSubset(self.modulus, self.mask & ~(1 << (r % self.modulus)))

    def _check_same(self, other: "ZmSubset") -> None:
        if self.modulus != other.modulus:
            raise ValueError(
                f"modulus mismatch: {self.modulus} vs {other.modulus}"
            )

    def describe(self) -> str:
        return "{" + ",".join(map(str, self.elements())) + "} mod " + str(self.modulus)


def _require_nonempty(s: ZmSubset) -> None:
    if not s.mask:
        raise ValueError("operation requires a non-empty subset")


def zm_sumset(s: ZmSubset, n: int) -> ZmSubset:
    """Exact n-fold sumset modulo m by repeated mask rotation."""
    _require_nonempty(s)
    if n < 1:
        raise ValueError(f"fold count must be >= 1, got {n}")
    m = s.modulus
    full = (1 << m) - 1
    acc = s.mask
    for _ in range(n - 1):
        nxt = 0
        for r in s.elements():
            nxt |= ((acc << r) | (acc >> (m - r))) & full if r else acc
        acc = nxt
    return ZmSubset(m, acc)


def zm_closure(s: ZmSubset) -> ZmSubset:
    """Least multiplicatively closed superset (products of one or more members)."""
    _require_nonempty(s)
    m = s.modulus
    mask = s.mask
    while True:
        grown = mask
        for a in range(m):
            if not (mask >> a & 1):
                continue
            for b in range(a, m):
                if mask >> b & 1:
                    grown |= 1 << (a * b % m)
        if grown == mask:
            return ZmSubset(m, mask)
        mask = grown


def zm_product_witness(target: int, gens: ZmSubset) -> tuple[int, ...] | None:
    """Shortest factor sequence from ``gens`` multiplying to ``target`` (BFS)."""
    _require_nonempty(gens)
    m = gens.modulus
    target %= m
    parents: dict[int, tuple[int, int] | None] = {}
    frontier = []
    for g in gens.elements():
        if g not in parents:
            parents[g] = None
            frontier.append(g)
    while frontier and target not in parents:
        nxt = []
        for v in frontier:
            for g in gens.elements():
                w = v * g % m
                if w not in parents:
                    parents[w] = (v, g)
                    nxt.append(w)
        frontier = nxt
    if target not in parents:
        return None
    factors = []
    v = target
    while parents[v] is not None:
        v, g = parents[v]
        factors.append(g)
    factors.append(v)
    return tuple(reversed(factors))


class RelationTableEntry(NamedTuple):
    """All three components of one (m_fold, n_fold) relation question."""

    b: ZmSubset
    c: ZmSubset
    m_fold: int
    n_fold: int
    sumset_equal: bool
    fp: bool
    subset: bool

    @property
    def symmetric(self) -> bool:
        """Equal sumsets plus factorization (containment not required)."""
        return self.sumset_equal and self.fp

    @property
    def directed(self) -> bool:
        return self.symmetric and self.subset


def zm_relation(b: ZmSubset, c: ZmSubset, m_fold: int, n_fold: int) -> RelationTableEntry:
    b._check_same(c)
    _require_nonempty(b)
    _require_nonempty(c)
    sumset_equal = zm_sumset(b, m_fold).mask == zm_sumset(c, n_fold).mask
    fp = b.is_subset_of(zm_closure(c))
    subset = c.is_subset_of(b)
    return RelationTableEntry(b, c, m_fold, n_fold, sumset_equal, fp, subset)


def _lookups(m: int, n: int):
    """S_n and the closure of one mask at a time, for the single-subset deciders."""
    return lambda c: zm_sumset(ZmSubset(m, c), n).mask, lambda c: zm_closure(ZmSubset(m, c)).mask


def _reduces(b: int, c: int, nb: int, sums, closures) -> bool:
    """Mask b relates onto its submask c by the directed n-fold relation, where
    nb = S_n(b) and ``sums`` / ``closures`` map a mask to its S_n / closure."""
    return bool(c) and sums(c) == nb and not b & ~closures(c)


def _removals(b: int, nb: int, sums, closures):
    """Each mask b \\ {x}, x ascending, that b relates onto: the one
    reducibility decider, for the table scan and the single subsets alike.

    Reduction families are upward closed among the submasks of b: for
    c ⊆ c' ⊆ b, S_n(c) ⊆ S_n(c') ⊆ S_n(b) and closure(c) ⊆ closure(c').  So
    b is reducible iff this yields anything.
    """
    cuts = (b ^ (1 << x) for x in range(b.bit_length()) if b >> x & 1)
    return (c for c in cuts if _reduces(b, c, nb, sums, closures))


def _walk(start: ZmSubset, free: int, keep):
    """Every set reached from ``start`` by flipping the bits of ``free`` one at
    a time, each at most once, through sets where ``keep`` holds; and those
    from which no flip stays inside.  Each set is tested once, and both come
    ordered by (size, mask)."""
    m = start.modulus
    kept = {start.mask: True}
    ends, todo = [], [start.mask]
    while todo:
        s = todo.pop()
        stuck = True
        for x in ZmSubset(m, free & ~(s ^ start.mask)).elements():
            t = s ^ 1 << x
            if t not in kept:
                kept[t] = keep(ZmSubset(m, t))
                if kept[t]:
                    todo.append(t)
            stuck = stuck and not kept[t]
        if stuck:
            ends.append(ZmSubset(m, s))
    return _by_size(ZmSubset(m, t) for t, ok in kept.items() if ok), _by_size(ends)


def _by_size(sets) -> tuple[ZmSubset, ...]:
    return tuple(sorted(sets, key=lambda s: (len(s), s.mask)))


class RdFamily(NamedTuple):
    """Subsets of B reachable by the directed n-fold relation."""

    b: ZmSubset
    n: int
    members: tuple[ZmSubset, ...]
    minimal: tuple[ZmSubset, ...]

    @property
    def reducible(self) -> bool:
        return len(self.members) > 1


def zm_reduction_family(b: ZmSubset, n: int) -> RdFamily:
    """Walk down from b one removal at a time.

    The family is upward closed (see ``_removals``), so each member c is
    reached through the members between c and b, and c is minimal iff no
    c \\ {x} is a member.
    """
    _require_nonempty(b)
    _require_scan("subset", len(b))
    nb = zm_sumset(b, n).mask
    lookups = _lookups(b.modulus, n)
    return RdFamily(b, n, *_walk(b, b.mask, lambda c: _reduces(b.mask, c.mask, nb, *lookups)))


class EpFamily(NamedTuple):
    """Supersets of B that relate onto it by the directed n-fold relation."""

    b: ZmSubset
    n: int
    members: tuple[ZmSubset, ...]
    maximal: tuple[ZmSubset, ...]

    @property
    def expandable(self) -> bool:
        return len(self.members) > 1


def zm_expansion_family(b: ZmSubset, n: int) -> EpFamily:
    """Walk up from b one addition at a time inside closure(b).

    The family is downward closed in [b, closure(b)]: for b ⊆ d' ⊆ d,
    S_n(b) ⊆ S_n(d') ⊆ S_n(d) and d' ⊆ d ⊆ closure(b).  Each member d has
    closure(d) = closure(b), so d's own family is the members containing d:
    d is maximal iff it is unexpanded, iff no single addition stays inside.
    """
    _require_nonempty(b)
    closure_b = zm_closure(b)
    free = closure_b.mask & ~b.mask
    _require_scan("superset", free.bit_count())
    nb = zm_sumset(b, n).mask
    return EpFamily(b, n, *_walk(b, free, lambda d: zm_sumset(d, n).mask == nb))


def zm_reduction_chain(b: ZmSubset, n: int) -> list[ZmSubset]:
    """Greedy strictly descending chain of single-element removals ending at an
    irreducible subset related to from the start."""
    _require_nonempty(b)
    chain = [b]
    nb = zm_sumset(b, n).mask
    lookups = _lookups(b.modulus, n)
    while (step := next(_removals(chain[-1].mask, nb, *lookups), None)) is not None:
        chain.append(ZmSubset(b.modulus, step))
    return chain


def _zm_tables(m: int, n_max: int):
    """``(closure, sums)``: the multiplicative closure of every mask of Z/mZ,
    and an iterator over S_1, ..., S_{n_max} of every mask, each a list of
    ints indexed by mask.  With x the lowest bit of a and r = a \\ {x}:
    S_k(a) = S_k(r) | (S_{k-1}(a) + x), as a k-fold sum avoids x or is x plus
    a (k-1)-fold sum; the product set P(a) = P(r) | x·a, the row x·a itself
    built from lowest bits; and closure(a) = closure(a | P(a)) unless P(a) ⊆ a,
    filled in descending order, since a | P(a) is then a larger int."""
    size, full = 1 << m, (1 << m) - 1
    low = [0] * size  # index of each mask's lowest bit
    for x in range(m):
        low[1 << x :: 2 << x] = [x] * (size >> (x + 1))
    prod = [0] * size
    for x in reversed(range(m)):
        times_x = [1 << (x * y % m) for y in range(x, m)]
        row = [0] * (size >> x)  # row[t] = x·(t << x)
        for t in range(1, size >> x):
            row[t] = row[t & (t - 1)] | times_x[low[t]]
        for a in range(1 << x, size, 2 << x):  # the masks whose lowest bit is x
            prod[a] = prod[a ^ (1 << x)] | row[a >> x]
    closure = list(range(size))
    for a in range(size - 1, 0, -1):
        if (grown := a | prod[a]) != a:
            closure[a] = closure[grown]

    def sums():
        cur = list(range(size))
        yield cur
        for _ in range(n_max - 1):
            prev, cur = cur, [0] * size
            for a in range(1, size):
                x, s = low[a], prev[a]
                cur[a] = cur[a & (a - 1)] | ((s << x | s >> (m - x)) & full)
            yield cur

    return closure, sums()


def _optimal_masks(closure: list[int], sums: list[int]):
    """The masks b, ascending, with S_n(closure(b)) = S_n(b) and no removal
    that b relates onto, from the tables of :func:`_zm_tables`."""
    lookups = sums.__getitem__, closure.__getitem__
    for b in range(1, len(sums)):
        nb = sums[b]
        if sums[closure[b]] == nb and next(_removals(b, nb, *lookups), None) is None:
            yield b


def zm_optimal_subsets(m: int, n: int) -> tuple[ZmSubset, ...]:
    """All subsets whose closure relates onto them while they stay irreducible."""
    _require_modulus(m)
    _require_scan("subset", m)
    if n < 1:
        raise ValueError(f"fold count must be >= 1, got {n}")
    closure, sums = _zm_tables(m, n)
    for sums_n in sums:  # S_n is the last table
        pass
    return tuple(ZmSubset(m, b) for b in _optimal_masks(closure, sums_n))


class OptimalWeights(NamedTuple):
    """Fold counts (within the scanned range) admitting an optimal subset."""

    modulus: int
    n_max: int
    n_values: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.n_values)


def optimal_weight_set(m: int, n_max: int) -> OptimalWeights:
    """Scans n in [2, n_max] only; the unbounded analogue is not computable here."""
    _require_modulus(m)
    values = ()
    if n_max >= 2:
        _require_scan("subset", m)
        closure, sums = _zm_tables(m, n_max)
        next(sums)  # S_1
        values = tuple(n for n, s in enumerate(sums, 2) if any(_optimal_masks(closure, s)))
    return OptimalWeights(m, n_max, values)


class UnitGroupReport(NamedTuple):
    """Single-removal behaviour of the unit group under the pair relation."""

    modulus: int
    units: ZmSubset
    removable: dict[int, bool]
    all_or_nothing: bool
    small_group_irreducible: bool | None


def zm_unit_group_check(m: int) -> UnitGroupReport:
    units = ZmSubset.from_elements(m, (a for a in range(1, m) if math.gcd(a, m) == 1))
    steps = set(_removals(units.mask, zm_sumset(units, 2).mask, *_lookups(m, 2)))
    removable = {b: units.without(b).mask in steps for b in units.elements()}
    small = not any(removable.values()) if len(units) <= 2 else None
    return UnitGroupReport(m, units, removable, len(set(removable.values())) <= 1, small)


class QuotientReport(NamedTuple):
    """Image of a directed relation under reduction modulo a divisor."""

    modulus: int
    divisor: int
    source: RelationTableEntry
    image: RelationTableEntry

    @property
    def preserved(self) -> bool:
        return self.image.directed


def zm_quotient_check(
    m: int, d: int, b: ZmSubset, c: ZmSubset, n: int
) -> QuotientReport:
    if d < 2 or m % d != 0:
        raise ValueError(f"{d} does not divide the modulus {m}")
    if b.modulus != m or c.modulus != m:
        raise ValueError("subsets must live in the stated ring")
    source = zm_relation(b, c, n, n)
    if not source.directed:
        raise ValueError("the directed relation must hold in the source ring first")
    image_b = ZmSubset.from_elements(d, (r % d for r in b.elements()))
    image_c = ZmSubset.from_elements(d, (r % d for r in c.elements()))
    image = zm_relation(image_b, image_c, n, n)
    return QuotientReport(m, d, source, image)


def relation_table(m: int, n_max: int):
    """The one decider of the exhaustive relation table.

    Yields ``(b_mask, low, equal)`` for each non-empty B in mask order.
    ``low[c]`` is ``2 * fp + subset`` for the C of mask c (``bytes``, 0 at the
    empty mask), where ``fp`` is B ⊆ closure(C) and ``subset`` is C ⊆ B.
    ``equal`` holds the cells where S_{m_fold}(B) = S_{n_fold}(C), as pairs
    ``(m_folds, hits)``, one per distinct set S_{m_fold}(B): that set is the
    same for every fold count in ``m_folds``, and ``hits[n_fold - 1]`` lists,
    ascending, the masks c with S_{n_fold}(C) equal to it.  ``hits`` is the
    set's lookup in a per-n_fold index from S_{n_fold}(C) to the masks c,
    made once per set and shared by every block that meets it, so a block
    costs its distinct sets, not its (m_fold, n_fold) grid.  The guards
    raise at the call, before any table is built.
    """
    _require_modulus(m)
    if m > 10:
        raise ValueError(f"exhaustive table dump requires modulus <= 10, got {m}")
    if n_max < 1:
        raise ValueError(f"fold counts start at 1, got n_max = {n_max}")
    rows = ((1 << m) - 1) ** 2 * n_max**2
    if rows > MAX_TABLE_ROWS:
        raise ValueError(
            f"a table of {rows} rows (modulus {m}, n_max {n_max}) exceeds the bound "
            f"{MAX_TABLE_ROWS} rows"
        )
    return _relation_blocks(m, n_max)


def _relation_blocks(m: int, n_max: int):
    closure, sums = _zm_tables(m, n_max)
    sums = list(sums)  # sums[n - 1][c] = S_n(c)
    masks = range(1, 1 << m)
    index = []  # index[n - 1]: S_n(c) -> the masks c, ascending
    for sums_n in sums:
        masks_of: dict[int, list[int]] = {}
        for c in masks:
            masks_of.setdefault(sums_n[c], []).append(c)
        index.append({value: tuple(cs) for value, cs in masks_of.items()})
    closing: dict[int, list[int]] = {}  # closure(c) -> the masks c
    for c in masks:
        closing.setdefault(closure[c], []).append(c)
    hits_of: dict[int, tuple[tuple[int, ...], ...]] = {}
    for b in masks:
        folds_of: dict[int, list[int]] = {}
        for mf, sums_mf in enumerate(sums, 1):
            folds_of.setdefault(sums_mf[b], []).append(mf)
        equal = []
        for value, m_folds in folds_of.items():
            if (hits := hits_of.get(value)) is None:
                hits = hits_of[value] = tuple(ix.get(value, ()) for ix in index)
            equal.append((tuple(m_folds), hits))
        low = bytearray(1 << m)
        for closed, cs in closing.items():
            if not b & ~closed:
                for c in cs:
                    low[c] = 2
        c = b
        while c:  # every non-empty submask of b
            low[c] += 1
            c = (c - 1) & b
        yield b, bytes(low), equal


def relation_table_rows(m: int, n_max: int):
    """Every ordered pair of non-empty subsets crossed with fold counts in
    [1, n_max]^2, as rows of :func:`relation_table`; rows come out in
    canonical (B, C, m_fold, n_fold) order."""
    blocks = relation_table(m, n_max)
    folds = range(1, n_max + 1)
    subsets = [ZmSubset(m, c) for c in range(1 << m)]
    for b, low, equal in blocks:
        cells = {(c, mf, nf) for m_folds, hits in equal for mf in m_folds
                 for nf, cs in enumerate(hits, 1) for c in cs}
        for c in range(1, 1 << m):
            fp, subset = divmod(low[c], 2)
            for mf in folds:
                for nf in folds:
                    equal_sums = (c, mf, nf) in cells
                    yield RelationTableEntry(
                        subsets[b], subsets[c], mf, nf, equal_sums, bool(fp), bool(subset)
                    )
