"""Layered classification of odd composites by prime-shift reachability.

Layer 1 holds the odd composites c whose shift 3 + c is a sum of two odd
primes; layer k > 1 holds those whose shift peels one odd prime onto a
layer-(k-1) composite.  Within a window the classification is
self-contained: deciding c only ever consults primes and composites below
c + 3, so recomputing with a larger limit never relabels anything.

The strata are read as a stream, :func:`strata_blocks`, which yields
``(composites, layer, witness_prime)`` for one block of the prime table at
a time: the blocks that ``PrimeTable.odd_prime_blocks`` cuts, each searched
with a margin of ``MARGIN_ODDS`` odd numbers below it.  The witness partner
is c + 3 - p.  A block's arrays are ``int32`` (the layers ``int8``), and so
are the composites, partners and lookups the audit derives from them: c + 3
stays below 2^31.  Every consumer reads that stream: :func:`strata_census`
(the ``strata`` command's census and CSV), :func:`audit_layer_one` (the
battery's audit), ``Stratum(k)``, which keeps only its layer's members, and
:func:`compute_strata`, which concatenates it into a :class:`StrataTable`
for library callers.  Only the last holds arrays over the whole limit, and
it stays only for the benchmark tracer's spans on it and on its CSV.  The
partition has one audit, :func:`_audit`, block by block against the table's
reads; :func:`audit_layer_one` feeds it the stream, and
:func:`verify_partition` a :class:`StrataTable` cut into views at the reads.

Layer 1 is searched block by block in :func:`layer_one_blocks`.  Within a
block the partners of consecutive composites are consecutive flags, so
:func:`~sumcollapse.intsets.least_splits_block` makes each prime pass one
AND of the pending composites with the flags shifted by (p - 3)/2 (about 95
passes a block at 10^7, largest witness prime 751), and each composite takes
the least odd prime p whose partner is an odd prime.  A witness whose
partner lies in the margin is already the least one, since every smaller
prime has a larger partner, inside the block or its margin; a sum whose
least witness lies past the margin (none up to 10^8, where the largest least
witness is 1,093) is searched again by
:func:`~sumcollapse.intsets.least_splits` with ``PrimeTable.odd_prime_at``,
the lookup in the packed bits, as its accept test.

A composite left without a two-odd-prime split is an exception (none on a
true table).  The stream keeps the exceptions in a sorted, sparse list and
places them as they come: an exception takes 1 + the least layer among its
partners c + 3 - p, and the least p reaching that layer as its witness.
Every partner lies below c, so its layer is known when c is placed: it is
read from the list, or is 1 for an odd composite the list does not hold.
The census ``passes`` field is max(1, max_layer), the number of layer
passes a whole-limit search would make.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .intsets import iter_bits, iterated_sumset, least_splits, least_splits_block, restrict
from .sieve import PrimeTable
from .verdict import RelationVerdict

# c + 3 - p is computed in int32, so c + 3 must fit
_MAX_LIMIT = int(np.iinfo(np.int32).max) - 3
_MAX_LAYER = int(np.iinfo(np.int8).max)

# the shifted-prime inclusion starts at 3 + 7 = 10, the least pair sum of primes >= 5
SHIFTED_MIN_PRIME = 7
MAX_LISTED = 50  # rough-cover violations listed; the count covers them all
CSV_CHUNK = 1 << 13  # rows formatted per write, so memory stays flat in the limit
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
        _write_csv(path, [(self.composites, self.layer, self.witness_prime)])


@dataclass
class StrataCensus:
    """Count, least and largest member per layer, and the unassigned
    composites in increasing order, tallied one block of the strata at a time."""

    limit: int
    layers: dict[int, dict[str, int]] = field(default_factory=dict)
    unassigned: list[int] = field(default_factory=list)

    def add(self, composites: np.ndarray, layer: np.ndarray) -> None:
        """Tally a block that follows every block added before it."""
        if not composites.size:
            return
        single = bool((layer == layer[0]).all())
        for k in [int(layer[0])] if single else np.unique(layer).tolist():
            members = composites if single else composites[layer == k]
            if not k:
                self.unassigned += members.tolist()
                continue
            entry = self.layers.setdefault(k, {"count": 0, "min": int(members[0]), "max": 0})
            entry["count"] += members.size
            entry["max"] = int(members[-1])

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


def _assigned_rows(composites: np.ndarray, layer: np.ndarray, witness: np.ndarray):
    """The CSV rows of a block's assigned entries in composite order, one
    bytes string per ``CSV_CHUNK`` rows."""
    idx = np.flatnonzero(layer)
    for start in range(0, idx.size, CSV_CHUNK):
        at = idx[start : start + CSV_CHUNK]
        c, p = composites[at].astype(np.int64), witness[at].astype(np.int64)
        rows = np.column_stack((c, layer[at], p, c + 3 - p))
        yield (b"%d,%d,%d,%d\r\n" * at.size) % tuple(rows.ravel().tolist())


def _write_csv(path: str, blocks) -> None:
    """Write the assigned rows of the ``(composites, layer, witness_prime)``
    blocks to ``path`` as they come, then the unassigned rows."""
    left: list[int] = []
    with open(path, "wb") as fh:
        fh.write(_CSV_HEADER)
        for comps, layer, witness in blocks:
            left += comps[layer == 0].tolist()
            fh.writelines(_assigned_rows(comps, layer, witness))
        for start in range(0, len(left), CSV_CHUNK):
            chunk = left[start : start + CSV_CHUNK]
            fh.write((b"%d,,,\r\n" * len(chunk)) % tuple(chunk))


class _LayerView(Mapping):
    """Read-only ``{c: layer}`` view over the assigned entries of a table."""

    def __init__(self, st: StrataTable):
        self._st = st

    def __getitem__(self, c):
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
        return int(np.count_nonzero(self._st.layer))


def _odd_values(i0: int, flags: np.ndarray) -> np.ndarray:
    """The odd numbers 2(i0 + j) + 1 at the set ``flags[j]``, in ``int32``,
    scaled and offset in place."""
    values = np.flatnonzero(flags).astype(np.int32)
    values <<= 1
    values += 2 * i0 + 1
    return values


def _check_limit(limit: int) -> None:
    if limit < 9:
        raise ValueError(f"limit must be >= 9, got {limit}")
    if limit > _MAX_LIMIT:
        raise ValueError(f"limit must be <= {_MAX_LIMIT}, got {limit}")


def layer_one_blocks(limit: int, table: PrimeTable):
    """Yield ``(composites, witness_prime)`` for each block of the odd
    composites in ``[9, limit]``, both ``int32``: the composites sorted and the
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
        comps = _odd_values(i0, pending)
        # a partner below the margin ends its search, so its sum waits for the retry
        found = least_splits_block(pending, flags, table.primes_in(3, limit))
        missed = np.flatnonzero(found == 0)
        if missed.size:
            found[missed] = least_splits(
                comps[missed] + 3, table.primes_in(3, limit), 3, table.odd_prime_at
            )
        yield comps, found


def _listed_layer(values: np.ndarray, listed: np.ndarray, layers: np.ndarray, table) -> np.ndarray:
    """The layer of each value the strata stream has passed: ``layers[i]``
    where the value is ``listed[i]`` (sorted), else 1 for an odd number >= 9
    that ``table.odd_prime_at`` says is not prime, else 0."""
    out = ((values & 1 == 1) & (values >= 9) & ~table.odd_prime_at(values)).astype(np.int8)
    if listed.size:
        i = np.minimum(listed.searchsorted(values), listed.size - 1)
        hit = listed[i] == values
        out[hit] = layers[i[hit]]
    return out


def strata_blocks(limit: int, table: PrimeTable):
    """Yield ``(composites, layer, witness_prime)`` for each block of the odd
    composites in ``[9, limit]``: layer 1 and its witnesses from
    :func:`layer_one_blocks`, and the exceptions it leaves placed in the
    deeper layers (layer 0 and witness 0 where none is reached).

    The exceptions are kept in a sorted, sparse list.  A block's exceptions
    join it unassigned; pass k then gives layer k to those with a partner
    c + 3 - p in layer k - 1, each with the least such p, until a pass finds
    nothing and no earlier block reached layer k, or at ``_MAX_LAYER``.
    Those are the passes a whole-limit search makes, since every partner
    lies below its composite.
    """
    _check_limit(limit)
    listed = np.zeros(0, dtype=np.int32)
    layers = np.zeros(0, dtype=np.int8)
    for comps, witness in layer_one_blocks(limit, table):
        layer = (witness > 0).astype(np.int8)
        pending = np.flatnonzero(witness == 0)
        if pending.size:
            top = max(int(layers.max(initial=0)), 1)  # the deepest layer before this block
            at = np.arange(listed.size, listed.size + pending.size)
            listed = np.concatenate((listed, comps[pending]))
            layers = np.concatenate((layers, layer[pending]))
            k = 2
            while pending.size and k <= _MAX_LAYER:
                found = least_splits(
                    comps[pending] + 3,
                    table.primes_in(3, limit),
                    9,
                    lambda q, lower=k - 1: _listed_layer(q, listed, layers, table) == lower,
                )
                hit = found > 0
                if not hit.any() and k > top:
                    break
                layer[pending[hit]] = layers[at[hit]] = k
                witness[pending[hit]] = found[hit]
                pending, at = pending[~hit], at[~hit]
                k += 1
        yield comps, layer, witness


def compute_strata(limit: int, table: PrimeTable | None = None) -> StrataTable:
    """Assign every odd composite <= limit to its layer: the concatenation
    of :func:`strata_blocks`.

    Whatever remains is surfaced as unassigned rather than raising, since
    within a self-contained window an unassigned composite indicates an
    implementation bug worth inspecting.
    """
    _check_limit(limit)
    if table is None:
        table = PrimeTable(limit)
    composites, layer, witness = map(np.concatenate, zip(*strata_blocks(limit, table)))
    return StrataTable(limit, composites, layer, witness)


def strata_census(limit: int, table: PrimeTable, csv: str | None = None) -> StrataCensus:
    """The census of the strata up to ``limit``, tallied from
    :func:`strata_blocks` block by block; with ``csv``, the rows are written
    there as the blocks come, and the unassigned ones last."""
    _check_limit(limit)
    tally = StrataCensus(limit)

    def tallied():
        for comps, layer, witness in strata_blocks(limit, table):
            tally.add(comps, layer)
            yield comps, layer, witness

    if csv:
        _write_csv(csv, tallied())
    else:
        for _ in tallied():
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
    c + 3 - p is one too (``table.odd_prime_at``); a layer-k witness must peel:
    p an odd prime or 2, the partner in layer k - 1.  A partner's layer is read
    from a sorted, sparse list of the entries outside layer 1, else is 1 for an
    odd composite; a block that is not its read's composites lists all its
    entries (a value's first listing counts) and the composites it misses at
    layer 0.  The reads' composites must add up to the checkpoint count
    ``table.odd_composite_count(limit)``, less the non-primes among 3, 5, 7.
    """
    seen = layer_one = max_layer = unassigned = 0
    missing, stray, repeated, never, bad = [], [], [], [], []  # the first of each kind
    listed = np.zeros(0, dtype=np.int32)
    layers = np.zeros(0, dtype=np.int8)
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
        if keep.size:
            listed = np.concatenate((listed, keep))
            layers = np.concatenate((layers, keep_layers))
            order = np.argsort(listed, kind="stable")
            listed, layers = listed[order], layers[order]
        layer_one += int(np.count_nonzero(layer == 1))
        max_layer = max(max_layer, int(layer.max(initial=0)))
        q = comps + 3  # the partners c + 3 - p, in int32 as c + 3 fits
        q -= found
        ok = table.odd_prime_at(found)
        ok &= table.odd_prime_at(q)
        if deeper.any():
            left = comps[layer == 0]
            unassigned += left.size
            _keep_first(never, left)
            peels = (table.odd_prime_at(found) | (found == 2)) & (
                _listed_layer(q, listed, layers, table) == layer.astype(np.int16) - 1
            )
            ok = np.where(deeper, peels, ok)
        for i in np.flatnonzero((layer != 0) & ~ok)[: AUDIT_LISTED - len(bad)].tolist():
            c = int(comps[i])
            if not found[i]:
                bad.append(f"witness for {c} does not sum to {c + 3}")
            elif layer[i] == 1:
                bad.append(f"layer-1 witness for {c} is not an odd prime pair")
            else:
                bad.append(f"layer-{layer[i]} witness for {c} does not peel correctly")
        del expected, q, ok  # freed before the source builds the next block

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
