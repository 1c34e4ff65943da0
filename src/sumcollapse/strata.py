"""Layered classification of odd composites by prime-shift reachability.

Layer 1 holds the odd composites c whose shift 3 + c is a sum of two odd
primes; layer k > 1 holds those whose shift peels one odd prime onto a
layer-(k-1) composite.  Within a window the classification is
self-contained: deciding c only ever consults primes and composites below
c + 3, so recomputing with a larger limit never relabels anything.

A :class:`StrataTable` is three parallel arrays indexed by composite rank:
the sorted odd composites, one ``int8`` layer each (0 for unassigned) and
one ``int32`` witness prime p each; the witness partner is c + 3 - p.

Every layer is searched with the primes in the outer loop: for p = 3, 5,
7, ... in increasing order, one numpy pass tests the partner c + 3 - p of
every composite still pending, so each composite takes the least p whose
partner is an odd prime >= 3 (layer 1) or a member of the previous layer.
The census ``passes`` field counts layer passes (1 when every composite
lands in layer 1), not these prime passes.

Layer 1 is searched one block of the prime table at a time, by
:func:`layer_one_blocks`: the blocks that ``PrimeTable.odd_prime_blocks``
cuts, each read with a margin of ``MARGIN_ODDS`` odd numbers below it.
Within a block the partners of consecutive composites are consecutive
flags, so :func:`~sumcollapse.intsets.least_splits_block` makes each prime
pass one AND of the pending composites with the flags shifted by (p - 3)/2
(about 95 passes a block at 10^7, largest witness prime 751).  A witness
whose partner lies in the margin is already the least one, since every
smaller prime has a larger partner, inside the block or its margin; a sum
whose least witness lies past the margin (none up to 10^8, where the
largest least witness is 1,093) is searched again by
:func:`~sumcollapse.intsets.least_splits` with ``PrimeTable.odd_prime_at``,
the lookup in the packed bits, as its accept test.
:func:`compute_strata` concatenates the blocks; :func:`audit_layer_one`
keeps only a census of them and audits each block against its own read of
the table and each witness pair against ``odd_prime_at``, so it never holds
an array over the whole limit.  The deeper layers and the absorption check
ask ``least_splits`` over the pending composites.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .collapse import check_relation
from .intsets import iter_bits, iterated_sumset, least_splits, least_splits_block, restrict
from .setexpr import IntRange, Primes, Progression, RoughOdd
from .sieve import PrimeTable
from .verdict import RelationVerdict

# c + 3 - p is computed in int32, so c + 3 must fit
_MAX_LIMIT = int(np.iinfo(np.int32).max) - 3
_MAX_LAYER = int(np.iinfo(np.int8).max)

# the shifted-prime inclusion starts at 3 + 7 = 10, the least pair sum of primes >= 5
SHIFTED_MIN_PRIME = 7
MAX_LISTED = 50  # rough-cover violations listed; the count covers them all
CSV_CHUNK = 1 << 16  # rows formatted per write, so memory stays flat in the limit
MARGIN_ODDS = 1 << 12  # odd numbers read below each layer-1 block for the partners
AUDIT_LISTED = 3  # anomalies of each kind the blocked audit keeps


@dataclass(frozen=True, eq=False)
class StrataTable:
    """Layer assignment for every odd composite up to ``limit``.

    Parallel arrays, one entry per odd composite in ``[9, limit]``:
    ``composites`` holds them sorted (``int32``), ``layer`` their layer
    (``int8``, 0 for unassigned) and ``witness_prime`` the prime p of each
    witness split (``int32``); the partner is ``c + 3 - p``.  ``layers`` and
    ``witnesses`` are read-only ``{c: layer}`` and ``{c: (p, partner)}``
    views over the assigned entries.  ``passes`` counts layer passes, not
    the prime passes inside layer 1.
    """

    limit: int
    composites: np.ndarray
    layer: np.ndarray
    witness_prime: np.ndarray
    passes: int

    @property
    def layers(self) -> Mapping[int, int]:
        return _AssignedView(self, lambda idx: self.layer[idx].tolist())

    @property
    def witnesses(self) -> Mapping[int, tuple[int, int]]:
        return _AssignedView(self, self._witness_pairs)

    def _witness_pairs(self, idx) -> list[tuple[int, int]]:
        primes = self.witness_prime[idx]
        return list(zip(primes.tolist(), (self.composites[idx] + 3 - primes).tolist()))

    @property
    def unassigned(self) -> tuple[int, ...]:
        return tuple(self.composites[self.layer == 0].tolist())

    @property
    def max_layer(self) -> int:
        return int(self.layer.max(initial=0))

    def census(self) -> dict[int, dict[str, int]]:
        out: dict[int, dict[str, int]] = {}
        for k in np.unique(self.layer).tolist():
            if k:
                members = self.composites[self.layer == k]
                out[k] = {
                    "count": int(members.size),
                    "min": int(members[0]),
                    "max": int(members[-1]),
                }
        return out

    def census_dict(self) -> dict:
        return {
            "schema": 1,
            "limit": self.limit,
            "layers": {str(k): v for k, v in self.census().items()},
            "max_layer": self.max_layer,
            "unassigned": list(self.unassigned),
            "passes": self.passes,
        }

    def write_csv(self, path: str) -> None:
        """Assigned rows in composite order, then the unassigned ones, written
        ``CSV_CHUNK`` rows at a time."""
        idx = np.flatnonzero(self.layer)
        with open(path, "w", newline="") as fh:
            fh.write("c,layer,witness_prime,witness_partner\r\n")
            for start in range(0, idx.size, CSV_CHUNK):
                chunk = idx[start : start + CSV_CHUNK]
                comps, primes = self.composites[chunk], self.witness_prime[chunk]
                columns = (comps, self.layer[chunk], primes, comps + 3 - primes)
                fh.write(
                    "".join(
                        f"{c},{k},{p},{q}\r\n"
                        for c, k, p, q in zip(*(col.tolist() for col in columns))
                    )
                )
            fh.write("".join(f"{c},,,\r\n" for c in self.unassigned))


class _AssignedView(Mapping):
    """Read-only ``{c: value}`` view over the assigned entries of a table;
    ``values`` maps an index array to the list of its values."""

    def __init__(self, st: StrataTable, values):
        self._st = st
        self._values = values

    def __getitem__(self, c):
        comps = self._st.composites
        if isinstance(c, (int, np.integer)) and 9 <= c <= _MAX_LIMIT:
            # a scalar of the array's own dtype keeps searchsorted from casting the array
            i = int(comps.searchsorted(comps.dtype.type(c)))
            if i < comps.size and comps[i] == c and self._st.layer[i]:
                return self._values([i])[0]
        raise KeyError(c)

    def __iter__(self):
        return iter(self._st.composites[self._st.layer != 0].tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._st.layer))


def _odd_composites(odd_prime: np.ndarray) -> np.ndarray:
    """Sorted odd composites >= 9 covered by an odd-prime mask."""
    return (2 * np.flatnonzero(~odd_prime[4:]) + 9).astype(np.int32)


def _layer_by_odd(composites: np.ndarray, layer: np.ndarray, size: int) -> np.ndarray:
    """Layer per odd number (index i for 2i + 1), 0 where the table has none."""
    out = np.zeros(size, dtype=np.int8)
    out[composites >> 1] = layer
    return out


def _check_limit(limit: int) -> None:
    if limit < 9:
        raise ValueError(f"limit must be >= 9, got {limit}")
    if limit > _MAX_LIMIT:
        raise ValueError(f"limit must be <= {_MAX_LIMIT}, got {limit}")


def layer_one_blocks(limit: int, table: PrimeTable):
    """Yield ``(composites, witness_prime)`` for each block of the odd
    composites in ``[9, limit]``: the composites sorted (``int32``) and the
    least odd prime p whose partner c + 3 - p is an odd prime, 0 where none is.

    Blocks are the table's ``odd_prime_blocks(9, limit)``.  Each block is
    searched by ``least_splits_block`` against its own flags and the
    ``MARGIN_ODDS`` below it; the sums it leaves are searched once more, by
    ``least_splits`` with ``table.odd_prime_at`` as the accept test.
    """
    _check_limit(limit)
    below = table.odd_prime_mask(7)
    for i0, mask in table.odd_prime_blocks(9, limit):
        flags = np.concatenate((below, mask))
        below = flags[-MARGIN_ODDS:]
        pending = ~mask
        comps = (2 * (i0 + np.flatnonzero(pending)) + 1).astype(np.int32)
        # a partner below the margin ends its search, so its sum waits for the retry
        found = least_splits_block(pending, flags, table.primes_in(3, limit))
        missed = np.flatnonzero(found == 0)
        if missed.size:
            found[missed] = least_splits(
                comps[missed] + 3, table.primes_in(3, limit), 3, table.odd_prime_at
            )
        yield comps, found


def compute_strata(limit: int, table: PrimeTable | None = None) -> StrataTable:
    """Assign every odd composite <= limit to its layer.

    Layer 1 is the concatenation of :func:`layer_one_blocks`; the deeper
    passes repeat until nothing new is assigned.  Whatever remains is
    surfaced as unassigned rather than raising, since within a
    self-contained window an unassigned composite indicates an
    implementation bug worth inspecting.
    """
    _check_limit(limit)
    if table is None:
        table = PrimeTable(limit)
    composites, witness = map(np.concatenate, zip(*layer_one_blocks(limit, table)))
    layer = (witness > 0).astype(np.int8)

    # pass k assigns layer k, so the last layer assigned is also the pass count
    passes = 1
    while passes < _MAX_LAYER:
        pending = np.flatnonzero(layer == 0)
        if not pending.size:
            break
        by_odd = _layer_by_odd(composites, layer, (limit + 1) // 2)
        found = least_splits(
            composites[pending] + 3,
            table.primes_in(3, limit),
            9,
            lambda q, lower=passes: by_odd[q >> 1] == lower,
        )
        hit = found > 0
        if not hit.any():
            break
        passes += 1
        layer[pending[hit]] = passes
        witness[pending[hit]] = found[hit]

    return StrataTable(limit, composites, layer, witness, passes)


@dataclass(frozen=True)
class PartitionReport:
    """Coverage/disjointness audit of a strata table."""

    limit: int
    total_composites: int
    assigned: int
    anomalies: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.anomalies


def _at_odd(flags: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``flags[v >> 1]`` for each odd ``v`` that ``flags`` covers, else 0."""
    inside = (values & 1 == 1) & (values > 0) & ((values >> 1) < flags.size)
    out = np.zeros(values.shape, dtype=flags.dtype)
    out[inside] = flags[values[inside] >> 1]
    return out


def verify_partition(st: StrataTable, table: PrimeTable | None = None) -> PartitionReport:
    """Re-derive the composite list from the sieve and audit the table against it.

    The partner of a witness is c + 3 - p by construction, so the sum check
    reduces to a witness prime being recorded (p != 0) for every assigned
    entry.
    """
    if table is None:
        table = PrimeTable(st.limit)
    odd_prime = table.odd_prime_mask(st.limit)
    expected = _odd_composites(odd_prime)
    comps = st.composites.astype(np.int64)
    lay = st.layer.astype(np.int16)
    assigned = lay != 0

    in_range = (comps & 1 == 1) & (comps >= 9) & (comps <= st.limit)
    is_comp = in_range & ~_at_odd(odd_prime, comps)
    listed = np.zeros(odd_prime.size, dtype=bool)
    listed[comps[is_comp] >> 1] = True
    unassigned = comps[~assigned]

    anomalies: list[str] = []
    for c in expected[~listed[expected >> 1]].tolist():
        anomalies.append(f"odd composite {c} missing from the table")
    for c in np.unique(comps[~is_comp]).tolist():
        anomalies.append(f"table entry {c} is not an odd composite <= {st.limit}")
    for c in np.unique(comps[assigned & np.isin(comps, unassigned)]).tolist():
        anomalies.append(f"{c} is both assigned and unassigned")
    for c in unassigned.tolist():
        anomalies.append(f"{c} was never assigned to a layer")

    p = st.witness_prime.astype(np.int64)
    q = comps + 3 - p
    no_witness = assigned & (p == 0)
    checked = assigned & ~no_witness
    p_odd_prime = _at_odd(odd_prime, p)
    bad_first = checked & (lay == 1) & ~(p_odd_prime & _at_odd(odd_prime, q))
    by_odd = _layer_by_odd(comps[in_range], st.layer[in_range], odd_prime.size)
    peels = (p_odd_prime | (p == 2)) & (_at_odd(by_odd, q) == lay - 1)
    bad_deeper = checked & (lay != 1) & ~peels
    for i in np.flatnonzero(no_witness | bad_first | bad_deeper).tolist():
        c = int(comps[i])
        if no_witness[i]:
            anomalies.append(f"witness for {c} does not sum to {c + 3}")
        elif bad_first[i]:
            anomalies.append(f"layer-1 witness for {c} is not an odd prime pair")
        else:
            anomalies.append(f"layer-{int(lay[i])} witness for {c} does not peel correctly")
    return PartitionReport(
        st.limit, int(expected.size), int(np.count_nonzero(assigned)), tuple(anomalies)
    )


@dataclass(frozen=True)
class LayerOneAudit:
    """Census and audit of the blocked layer-1 pass.

    ``count`` is the number of composites given a layer-1 witness and
    ``unassigned`` whether some composite got none; the pass stops there, so
    ``count`` is then partial and nothing is audited.  ``anomalies`` holds
    the first ``AUDIT_LISTED`` of each kind in :func:`verify_partition`'s
    order and wording, the witness pairs checked with
    ``PrimeTable.odd_prime_at`` wherever their partners lie.
    """

    count: int
    unassigned: bool
    anomalies: tuple[str, ...]


def _keep_first(listed: list, values: np.ndarray) -> None:
    listed += values[: AUDIT_LISTED - len(listed)].tolist()


def audit_layer_one(limit: int, table: PrimeTable) -> LayerOneAudit:
    """Classify layer 1 with :func:`layer_one_blocks` and audit each block
    against a separate ``odd_prime_blocks(9, limit)`` read of the table.

    A block's listed composites must be the odd composites of its read, and
    each witness p an odd prime whose partner c + 3 - p is one too, both
    looked up with ``table.odd_prime_at``; the reads' composites must add up
    to ``table.odd_composite_count(limit)``, which comes from the checkpoint
    counts.
    """
    _check_limit(limit)
    count = seen = 0
    missing: list[int] = []
    stray: list[int] = []
    bad: list[int] = []
    reads = table.odd_prime_blocks(9, limit)
    for (comps, found), (i0, mask) in zip(layer_one_blocks(limit, table), reads):
        if not found.all():
            return LayerOneAudit(count, True, ())
        count += comps.size
        expected = 2 * (i0 + np.flatnonzero(~mask)) + 1
        seen += expected.size
        if not np.array_equal(comps, expected):
            _keep_first(missing, expected[~np.isin(expected, comps)])
            _keep_first(stray, np.unique(comps[~np.isin(comps, expected)]))
        c, p = comps.astype(np.int64), found.astype(np.int64)
        paired = table.odd_prime_at(p) & table.odd_prime_at(c + 3 - p)
        _keep_first(bad, c[~paired])

    anomalies: list[str] = []
    total = table.odd_composite_count(limit)
    if seen != total:
        anomalies.append(f"{seen} odd composites <= {limit} audited, the sieve counts {total}")
    anomalies += [f"odd composite {c} missing from the table" for c in missing]
    anomalies += [f"table entry {c} is not an odd composite <= {limit}" for c in stray]
    anomalies += [f"layer-1 witness for {c} is not an odd prime pair" for c in bad]
    return LayerOneAudit(count, False, tuple(anomalies))


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
