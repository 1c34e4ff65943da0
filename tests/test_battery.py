import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from sumcollapse import PrimeTable, battery, finite_ring as ring, strata
from sumcollapse.battery import decided, run, sieve_checks, strata_checks
from sumcollapse.verdict import RelationVerdict, Status, holds, holds_on_window

from oracles import (
    odd_prime_flags,
    partition_audit_bf,
    primes_upto,
    sieve_checks_bf,
    simple_prime_set,
    strata_bf,
)

HOLDS, WINDOW, FAILS = Status.HOLDS, Status.HOLDS_ON_WINDOW, Status.FAILS


def test_decided():
    assert decided(True, None, (3, 9), ((1,),)) == RelationVerdict(
        HOLDS, certified_range=(3, 9), witnesses=((1,),)
    )
    assert decided(True, None, good=WINDOW).status is WINDOW
    v = decided(False, 15, (3, 9), good=WINDOW)
    assert (v.status, v.counterexample, v.certified_range) == (FAILS, 15, (3, 9))
    # a failure must carry its counterexample
    with pytest.raises(RuntimeError, match="without a counterexample"):
        decided(False, None)


def test_run_sorts_and_times_setup():
    def group():
        time.sleep(0.05)  # shared setup, counted toward the first check
        yield "b/first-run", "first", HOLDS, holds("settled")
        yield "a/second-run", "second", HOLDS, holds_on_window((6, 100), "windowed")

    second, first = run(group())  # sorted by ref
    assert (first.ref, second.ref) == ("b/first-run", "a/second-run")
    assert first.elapsed_ms >= 50 > second.elapsed_ms
    assert first.passed and not second.passed
    assert second.to_dict(timings=False) == {
        "ref": "a/second-run",
        "claim": "second",
        "status": "holds_on_window",
        "certified_range": [6, 100],
        "counterexample": None,
        "witnesses": [],
        "elapsed_ms": 0,
    }


def test_battery_leaves_numpy_ma_unimported():
    # np.unique, behind np.union1d and np.isin, imports numpy.ma (about
    # 14 ms and 1 MB); a fresh process shows whether any check reaches it
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from sumcollapse.battery import run_battery\n"
        "assert all(r.passed for r in run_battery(30_000))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


# -- the sieve group's blocked pass against a whole-array reference ----------

BLOCK = 1 << 16  # odd numbers per block of the pass


def _table_from_mask(limit, odd_prime):
    """A table over ``limit`` whose packed bits are ``odd_prime`` (index i for 2i + 1)."""
    table = PrimeTable(limit)
    table._bits = np.packbits(odd_prime, bitorder="little").tobytes()
    table._ckpt = table._build_checkpoints()
    return table


def _battery_sieve_verdicts(table):
    return {
        ref: (verdict.status is HOLDS, verdict.counterexample)
        for ref, _, _, verdict in sieve_checks(table)
    }


@pytest.mark.parametrize("limit", [2**17 - 1, 2**17, 2**17 + 1, 3 * 2**17 + 2])
def test_sieve_checks_at_block_edges(limit):
    want = sieve_checks_bf(odd_prime_flags(limit), limit)
    assert all(ok for ok, _ in want.values())
    assert _battery_sieve_verdicts(PrimeTable(limit)) == want


# Each tamper sets or clears runs of prime bits (slices of odd indices) and
# lists the checks that then fail.  The composite-count identity holds for
# any mask that flags 3, 5 and 7 and not 1; the last five tampers get that
# lead wrong, so it fails at every odd composite, first at 9.  The others
# make the listed checks first fail past the first block, but for
# "clear-13-17".
_TAMPERS = {
    # pi stalls in block 1: the band's low side fails first at an even x
    # (145,652) and the log bound at k = 64,034
    "clear-block-1": (
        3 * 2**17 + 2,
        [(slice(BLOCK, 2 * BLOCK), False)],
        {"sieve/prime-count-band", "sieve/index-log-bound"},
    ),
    # pi races ahead in block 1; the next composites, in block 2, break the
    # upper bounds and the m = 1 scaling
    "fill-block-1": (
        3 * 2**17 + 2,
        [(slice(BLOCK, 2 * BLOCK), True)],
        {"sieve/prime-count-band", "sieve/index-upper-bounds", "sieve/prime-count-scaling"},
    ),
    # no composite in block 0, so the surplus first fails at i = 65,535
    "fill-0-clear-1": (
        3 * 2**17 + 2,
        [(slice(1, BLOCK), True), (slice(BLOCK, 2 * BLOCK), False)],
        {
            "sieve/prime-surplus-window",
            "sieve/index-upper-bounds",
            "sieve/prime-count-band",
            "sieve/prime-count-scaling",
        },
    ),
    # the band's high side fails early in block 1 and its low side later:
    # the low failure is the one reported
    "high-then-low": (
        3 * 2**17 + 2,
        [(slice(BLOCK, BLOCK + 4096), True), (slice(BLOCK + 4096, None), False)],
        {"sieve/prime-count-band", "sieve/index-log-bound"},
    ),
    # pi reaches k/2 but not k in block 1: the least failing scaling m is 2
    "half-scaling": (
        3 * 2**17 + 2,
        [(slice(BLOCK, BLOCK + 14_400), True)],
        {"sieve/prime-count-band", "sieve/prime-count-scaling"},
    ),
    # every odd from 121 to 131,071 prime: the 31st composite is 131,073,
    # alone in the last, one-number block
    "last-block-only": (
        2**17 + 1,
        [(slice(60, BLOCK), True)],
        {"sieve/prime-count-band", "sieve/index-upper-bounds", "sieve/prime-count-scaling"},
    ),
    # pi is 5 on the run 11..18, so the band's low side fails from 13 on,
    # but the band starts at 17 (inside the run), and there it first fails
    "clear-13-17": (
        3 * 2**17 + 2,
        [(6, False), (8, False)],
        {"sieve/prime-surplus-window", "sieve/prime-count-band"},
    ),
    "clear-7": (
        3 * 2**17 + 2,
        [(3, False)],
        {"sieve/composite-count-identity", "sieve/prime-surplus-window", "sieve/prime-count-band"},
    ),
    "flag-1": (
        3 * 2**17 + 2,
        [(0, True)],
        {
            "sieve/composite-count-identity",
            "sieve/prime-surplus-window",
            "sieve/index-upper-bounds",
            "sieve/prime-count-band",
        },
    ),
    "clear-3-5": (
        3 * 2**17 + 2,
        [(slice(1, 3), False)],
        {"sieve/composite-count-identity", "sieve/prime-surplus-window", "sieve/prime-count-band"},
    ),
    # with 7 cleared pi is one below h = (c + 1)/2 - k, so at 183, after the
    # odd values 167..181 are flagged, pi = k - 1 holds the bound but
    # 183 > 4k - 3 does not; scaling fails at m = 1 in its value form alone
    "clear-7-flag-167-181": (
        200,
        [(3, False), (slice(83, 91), True)],
        {
            "sieve/composite-count-identity",
            "sieve/prime-surplus-window",
            "sieve/index-upper-bounds",
            "sieve/prime-count-band",
            "sieve/prime-count-scaling",
        },
    ),
    # with 1 flagged as well as 3, 5 and 7, h = pi - 1; flagging 9, 15, 21
    # and 25 and clearing 167 leaves the limit 169 = 13^2 inside the run
    # from 163, with pi = k = 43 there: scaling fails for m = 1 at the power
    # itself, with pi m = k exactly
    "flag-1-pi-equals-k-at-169": (
        13**2,
        [(0, True), (4, True), (7, True), (10, True), (12, True), (83, False)],
        {
            "sieve/composite-count-identity",
            "sieve/prime-surplus-window",
            "sieve/index-upper-bounds",
            "sieve/prime-count-band",
            "sieve/prime-count-scaling",
        },
    ),
}


@pytest.mark.parametrize("name", list(_TAMPERS))
def test_sieve_checks_on_tampered_tables(name):
    limit, flips, failing = _TAMPERS[name]
    odd_prime = odd_prime_flags(limit)
    for odds, value in flips:
        odd_prime[odds] = value
    want = sieve_checks_bf(odd_prime, limit)
    assert {ref for ref, (ok, _) in want.items() if not ok} == failing
    assert _battery_sieve_verdicts(_table_from_mask(limit, odd_prime)) == want


def _judge_random_mask(rng, limit):
    """Tamper a true mask up to ``limit`` at random, and check the battery's
    sieve verdicts on it against the oracle's: each of 1, 3, 5 and 7 flipped
    now and then, and up to five runs of up to 15 odd values set or cleared."""
    odd_prime = odd_prime_flags(limit)
    odd_prime[:4] ^= rng.random(4) < 0.3
    for _ in range(rng.integers(0, 6)):
        at = int(rng.integers(4, odd_prime.size))
        odd_prime[at : at + int(rng.integers(1, 16))] = rng.random() < 0.5
    want = sieve_checks_bf(odd_prime, limit)
    ref = "sieve/prime-surplus-window"
    if want[ref] == (False, None):  # see test_prime_surplus_that_never_fails
        want[ref] = (False, 23)
    assert _battery_sieve_verdicts(_table_from_mask(limit, odd_prime)) == want, limit


def test_sieve_checks_on_random_small_masks():
    rng = np.random.default_rng(20)
    for _ in range(300):
        _judge_random_mask(rng, int(rng.integers(93, 2001)))


@pytest.mark.parametrize("limit", [13**j + d for j in (2, 3, 4) for d in (-1, 0, 1)])
def test_sieve_checks_on_random_masks_at_powers_of_13(limit):
    # a limit 13^(m+1) is the first where the scaling check reads its m
    rng = np.random.default_rng(limit)
    for _ in range(100):
        _judge_random_mask(rng, limit)


def test_sieve_pass_disagreeing_with_the_checkpoints_is_an_internal_error():
    # the pass counts the primes block by block; prime_count(limit) starts
    # from a checkpoint popcount, here one too high
    limit = 3 * 2**17 + 2
    table = PrimeTable(limit)
    table._ckpt[(limit - 1) >> 17] += 1
    with pytest.raises(RuntimeError, match="counts 33335 primes up to 393218, the table 33336"):
        list(sieve_checks(table))


def test_prime_surplus_that_never_fails():
    # every odd number from 9 on is prime but one in a thousand, so pi stays
    # far above k + 2: the check fails at the first failure it claims, i = 23
    limit = 3 * 2**17 + 2
    odd_prime = odd_prime_flags(limit)
    odd_prime[4:] = True
    odd_prime[1000::1000] = False
    want = sieve_checks_bf(odd_prime, limit)
    got = _battery_sieve_verdicts(_table_from_mask(limit, odd_prime))
    ref = "sieve/prime-surplus-window"
    assert want.pop(ref) == (False, None)
    assert got.pop(ref) == (False, 23)
    assert got == want


def test_prime_count_band_fails_at_a_run_start():
    # pi is constant from a prime to the next; here it first reaches the
    # band's high side at a prime x followed by a gap, so the high side
    # fails at x and not at the end of x's run
    limit = 3 * 2**17 + 2
    odd_prime = odd_prime_flags(limit)
    odd_prime[BLOCK : 2 * BLOCK] = True
    ok, x = sieve_checks_bf(odd_prime, limit)["sieve/prime-count-band"]
    odd_prime = odd_prime_flags(limit)
    odd_prime[BLOCK : (x >> 1) + 1] = True
    odd_prime[(x >> 1) + 1 : (x >> 1) + 65] = False
    want = sieve_checks_bf(odd_prime, limit)
    assert not ok and want["sieve/prime-count-band"] == (False, x)
    assert _battery_sieve_verdicts(_table_from_mask(limit, odd_prime)) == want


def _band_high_at(limit):
    """The true odd-prime mask up to the prime ``limit`` with the fewest odd
    composites just below it flagged that lift pi(limit) onto the band's
    high side: where the band does not then first fail at x = limit, more
    flags would only make it fail sooner."""
    odd_prime = odd_prime_flags(limit)
    below = np.flatnonzero(~odd_prime[4 : limit >> 1]) + 4  # the odd composites below the limit
    need = math.ceil(1.25506 * limit / math.log(limit) * (1 + 1e-12)) - int(odd_prime.sum()) - 1
    odd_prime[below[below.size - need :]] = True
    return odd_prime


def test_prime_count_band_fails_on_a_run_of_one_value():
    # where the limit is prime, the table's last run holds the limit alone,
    # and where it is also 2 i + 1 for a block start i, so does the last
    # block: a range test that skipped a range of one value (x0 < x1 for
    # x0 <= x1) would report holds where the band first fails at the limit
    failing_at_limit = []
    for limit in [p for p in primes_upto(463) if p >= 101] + [6 * 2**17 + 1]:
        odd_prime = _band_high_at(limit)
        want = sieve_checks_bf(odd_prime, limit)
        assert _battery_sieve_verdicts(_table_from_mask(limit, odd_prime)) == want, limit
        if want["sieve/prime-count-band"] == (False, limit):
            failing_at_limit.append(limit)
    # 40 of the 65 small primes, and the prime 786,433 = 6 * 2^17 + 1
    assert len(failing_at_limit) == 41 and failing_at_limit[-2:] == [463, 6 * 2**17 + 1]


# Each tamper decides one check strictly inside a run of odd composites,
# at the odd composite given last, where no end of the run shows it: the
# check's first failure, or for scaling 13^2 = 169 inside a run that starts
# below it, so that only 169 itself may count.
_FILL_9_119_CLEAR_121_399 = [(slice(4, 60), True), (slice(60, 200), False)]
_MID_RUN = {
    # pi = 60 from 121 on; 121 has k = 1, so pi < k + 2 first holds at k = 59
    "surplus": (_FILL_9_119_CLEAR_121_399, "sieve/prime-surplus-window", 59, 237),
    # on the same run pi > k - 1 holds from k = 1, but the check starts at k = 31
    "pi-bound-across-31": (_FILL_9_119_CLEAR_121_399, "sieve/index-upper-bounds", 181, 181),
    # pi stalls on 119,995..200,001, across the first block edge (index 2^16);
    # the bound first fails in the run's second block
    "log-bound": ([(slice(60_000, 100_000), False)], "sieve/index-log-bound", 58_564, 139_729),
    # odd 9..159 prime and 161..599 composite: pi = 80 >= k = 5 at 169, and
    # never again once the run passes k = 80
    "scaling-at-169": (
        [(slice(4, 80), True), (slice(80, 300), False)], "sieve/prime-count-scaling", 1, 169,
    ),
    # 9, 15, 21 and 161 prime, 163 and 167 composite: the run 163..171 has
    # pi = 41 = k at 163 but k = 44 at 169, so scaling holds
    "scaling-not-below-169": (
        [(slice(4, 11, 3), True), (80, True), (81, False), (83, False)],
        "sieve/prime-count-scaling", None, 169,
    ),
}


@pytest.mark.parametrize("name", list(_MID_RUN))
def test_sieve_checks_decided_inside_a_run(name):
    limit = 3 * 2**17 + 2
    flips, ref, first, at = _MID_RUN[name]
    odd_prime = odd_prime_flags(limit)
    for odds, value in flips:
        odd_prime[odds] = value
    want = sieve_checks_bf(odd_prime, limit)
    assert want[ref] == (first is None, first)
    if ref in ("sieve/prime-surplus-window", "sieve/index-log-bound"):  # k, not the value
        assert 2 * (np.flatnonzero(~odd_prime[4:]) + 4)[first - 1] + 1 == at
    assert all(x >= 9 and not odd_prime[x >> 1] for x in (at - 2, at, at + 2))
    assert _battery_sieve_verdicts(_table_from_mask(limit, odd_prime)) == want


# Each tamper puts one check's first failure past the first block, where a
# range test must leave it open and the halving must reach it: at the start
# of a run (the band's high side at a prime, a composite check at the first
# odd composite after one) or at its end (the band's low side at the integer
# before a prime, the log bound at the last odd composite before one).
_PAST_THE_FIRST_BLOCK = {
    "band-low-at-a-run-end": (
        [(slice(69_543, 99_543), False), (77_243, True)], "sieve/prime-count-band", "end",
    ),
    "band-high-at-a-run-start": (
        [(slice(70_536, 73_536), True)], "sieve/prime-count-band", "start",
    ),
    "log-bound-at-a-run-end": (
        [(slice(70_536, 100_536), False), (82_064, True)], "sieve/index-log-bound", "end",
    ),
    "pi-bound-at-a-run-start": (
        [(slice(BLOCK, BLOCK + 45_000), True)], "sieve/index-upper-bounds", "start",
    ),
    # with 7 cleared, h = pi + 1: pi = k - 1 there, so only the value form fails
    "value-bound-at-a-run-start": (
        [(3, False), (slice(BLOCK, BLOCK + 41_035), True)], "sieve/index-upper-bounds", "start",
    ),
    "scaling-at-a-run-start": (
        [(slice(BLOCK, BLOCK + 45_000), True)], "sieve/prime-count-scaling", "start",
    ),
}


def _failure_value(odd_prime, ref, first):
    """The value where the oracle's first failure ``first`` of ``ref`` lies:
    the log bound reports k, scaling its least m, the others the value."""
    flags = np.zeros(2 * odd_prime.size, dtype=bool)
    flags[2], flags[1::2] = True, odd_prime
    c = np.flatnonzero(~flags & (np.arange(flags.size) % 2 == 1))
    c = c[c >= 9]  # the odd composites, c[k - 1] the k-th
    if ref == "sieve/index-log-bound":
        return int(c[first - 1])
    if ref == "sieve/prime-count-scaling":
        pi, k = np.cumsum(flags)[c], np.arange(1, c.size + 1)
        fails = (c >= 13 ** (first + 1)) & ((pi * first >= k) | (c >= (2 + 2 / first) * k - 1))
        return int(c[fails.argmax()])
    return first


@pytest.mark.parametrize("name", list(_PAST_THE_FIRST_BLOCK))
def test_sieve_checks_fail_first_past_the_first_block(name):
    limit = 3 * 2**17 + 2
    flips, ref, where = _PAST_THE_FIRST_BLOCK[name]
    odd_prime = odd_prime_flags(limit)
    for odds, value in flips:
        odd_prime[odds] = value
    want = sieve_checks_bf(odd_prime, limit)
    ok, first = want[ref]
    x = _failure_value(odd_prime, ref, first)
    assert not ok and x >> 1 >= BLOCK
    if ref == "sieve/prime-count-band":  # a run is [p, q - 1] between primes p < q
        start, end = x & 1 and odd_prime[x >> 1], not x & 1 and odd_prime[(x + 1) >> 1]
    else:  # x is an odd composite, and its run's composites lie between two primes
        start, end = odd_prime[(x - 2) >> 1], odd_prime[(x + 2) >> 1]
    assert start if where == "start" else end
    assert _battery_sieve_verdicts(_table_from_mask(limit, odd_prime)) == want


# -- the strata group's blocked layer-1 pass ----------------------------------

STRATA_LIMIT = 3 * 2**17 + 2


def _strata_verdicts(table, limit):
    """The single-layer and partition-audit verdicts of the strata group."""
    group = strata_checks(table, limit)
    return {ref: verdict for ref, _, _, verdict in itertools.islice(group, 2)}


def _verdicts_bf(limit, is_prime, entries=None):
    """The two verdicts as the oracles give them: on ``entries`` (aligned
    composites, layers and witness primes), by default the strata that
    ``strata_bf`` peels, audited by ``partition_audit_bf``, both reading
    ``is_prime``."""
    comps, layer, witness = strata_bf(limit, is_prime) if entries is None else entries
    anomalies = partition_audit_bf(zip(comps, layer, witness), limit, is_prime)
    total = sum(1 for c in range(9, limit + 1, 2) if not is_prime(c))
    count, deepest, left = layer.count(1), max(layer, default=0), layer.count(0)
    single = deepest == 1 and not left
    return {
        "strata/single-layer": decided(
            single and count == total,
            (deepest, left) if not single else f"{count} layer-1 entries for {total} odd composites",
            (9, limit),
            ((count,),),
        ),
        "strata/partition-audit": decided(not anomalies, anomalies[:3], (9, limit)),
    }


def _sieve(limit, hidden=()):
    """The prime test of a true sieve up to ``limit`` with ``hidden`` cleared."""
    return (simple_prime_set(limit) - set(hidden)).__contains__


class _MaskLog(PrimeTable):
    """Records the end of every odd-prime mask it unpacks."""

    def odd_prime_mask(self, hi=None):
        self.mask_ends = getattr(self, "mask_ends", []) + [self.limit if hi is None else hi]
        return super().odd_prime_mask(hi)


def _forbid_whole_limit_strata(monkeypatch, cap=100_000):
    """Fail any strata table past the absorption check's cap, and any call
    of the whole-limit audit."""
    real = strata.compute_strata

    def capped(n, table=None):
        assert n <= cap, f"a strata table over [9, {n}]"
        return real(n, table)

    monkeypatch.setattr(strata, "compute_strata", capped)
    monkeypatch.setattr(strata, "verify_partition", None)


def test_strata_group_builds_no_whole_limit_table(monkeypatch):
    limit = 300_000
    _forbid_whole_limit_strata(monkeypatch)
    table = _MaskLog(limit)
    results = run(strata_checks(table, limit))
    assert all(r.passed for r in results)
    # layer 1 reads int blocks of the packed bits; the rest reads blocks and lookups
    assert getattr(table, "mask_ends", []) == []


def test_strata_blocked_verdicts_match_the_whole_limit_ones():
    table = PrimeTable(STRATA_LIMIT)
    assert _strata_verdicts(table, STRATA_LIMIT) == _verdicts_bf(STRATA_LIMIT, _sieve(STRATA_LIMIT))


def _without_seven():
    """The true table with the prime 7 cleared: 3 + 9 = 12 = 5 + 7 then has no
    two-odd-prime split left, and 9 no partner below it."""
    odd_prime = odd_prime_flags(STRATA_LIMIT)
    odd_prime[7 >> 1] = False
    return _table_from_mask(STRATA_LIMIT, odd_prime)


def test_strata_verdicts_on_a_tampered_table():
    table = _without_seven()
    got = _strata_verdicts(table, STRATA_LIMIT)
    assert got == _verdicts_bf(STRATA_LIMIT, _sieve(STRATA_LIMIT, {7}))
    assert got["strata/single-layer"].counterexample == (1, 1)
    assert got["strata/partition-audit"].counterexample == ("9 was never assigned to a layer",)


def test_strata_group_on_a_tampered_table_builds_no_whole_limit_table(monkeypatch):
    table = _without_seven()
    want = _verdicts_bf(STRATA_LIMIT, _sieve(STRATA_LIMIT, {7}))
    _forbid_whole_limit_strata(monkeypatch)
    results = run(strata_checks(table, STRATA_LIMIT))
    assert {r.ref: r.verdict for r in results if r.ref in want} == want
    assert not any(r.passed for r in results if r.ref in want)


def _bit_of(block, c):
    """The bit that stands for ``c`` in a :class:`strata.BitBlock`, None
    outside the block."""
    j = (c >> 1) - block.i0
    return j if 0 <= j < block.size else None


def _set_entry(block, c, layer, witness):
    """Give the entry ``c`` of ``block`` this layer and witness, out of the planes."""
    if (j := _bit_of(block, c)) is not None:
        block.planes = [plane & ~(1 << j) for plane in block.planes]
        block.singles[j] = (layer, witness)


def _drop_entry(block, c):
    """Drop the entry ``c`` from ``block``, as if it were no odd composite."""
    if (j := _bit_of(block, c)) is not None:
        block.composite &= ~(1 << j)
        block.planes = [plane & ~(1 << j) for plane in block.planes]
        block.singles.pop(j, None)


def _tampered_blocks(monkeypatch, tamper):
    """Let ``tamper(block)`` rewrite each block of the layer-1 search in place."""
    real = strata.layer_one_blocks

    def blocks(limit, table):
        for block in real(limit, table):
            tamper(block)
            yield block

    monkeypatch.setattr(strata, "layer_one_blocks", blocks)


def test_strata_audit_flags_a_wrong_witness(monkeypatch):
    table = PrimeTable(STRATA_LIMIT)
    c = int(next(table.odd_composites_in(2**17, STRATA_LIMIT)))

    # 9 + (c - 6): the prime is not one
    _tampered_blocks(monkeypatch, lambda block: _set_entry(block, c, 1, 9))
    got = _strata_verdicts(table, STRATA_LIMIT)
    is_prime = _sieve(STRATA_LIMIT)
    comps, layer, witness = strata_bf(STRATA_LIMIT, is_prime)
    witness[comps.index(c)] = 9
    assert got == _verdicts_bf(STRATA_LIMIT, is_prime, (comps, layer, witness))
    assert got["strata/single-layer"].status is HOLDS
    assert got["strata/partition-audit"].counterexample == (
        f"layer-1 witness for {c} is not an odd prime pair",
    )


def test_strata_audit_counts_a_dropped_composite(monkeypatch):
    table = PrimeTable(STRATA_LIMIT)
    c = int(next(table.odd_composites_in(2**18, STRATA_LIMIT)))
    _tampered_blocks(monkeypatch, lambda block: _drop_entry(block, c))
    got = _strata_verdicts(table, STRATA_LIMIT)
    is_prime = _sieve(STRATA_LIMIT)
    comps, layer, witness = strata_bf(STRATA_LIMIT, is_prime)
    i = comps.index(c)
    entries = comps[:i] + comps[i + 1 :], layer[:i] + layer[i + 1 :], witness[:i] + witness[i + 1 :]
    assert got == _verdicts_bf(STRATA_LIMIT, is_prime, entries)
    assert got["strata/partition-audit"].counterexample == (f"odd composite {c} missing from the table",)
    assert got["strata/single-layer"].status is FAILS  # c lands in no layer


def test_z6_optimal_pair_fails_when_no_optimal_set_is_the_pair(monkeypatch):
    Z = ring.ZmSubset.from_elements
    verdicts = {}
    for name, optimal in (
        ("the pair among two", [Z(6, [0]), Z(6, [0, 2])]),
        ("two others", [Z(6, [0]), Z(6, [0, 4])]),
        ("one other", [Z(6, [0, 4])]),
    ):
        monkeypatch.setattr(ring, "zm_optimal_subsets", lambda m, n, found=optimal: found)
        verdicts[name] = {r.ref: r.verdict for r in run(battery.ring_checks())}["ring/z6-optimal-pair"]
    assert verdicts["the pair among two"].status is HOLDS
    for name in ("two others", "one other"):
        assert verdicts[name].status is FAILS and verdicts[name].counterexample == [2, 3, 4, 5]


def test_strata_audit_flags_a_composite_listed_twice(monkeypatch):
    # the stream lists 9 twice, with a layer both times (in the planes and
    # in singles): the partition-audit claim "covers every odd composite
    # exactly once" must fail
    table = PrimeTable(2_000)

    def list_nine_again(block):
        if (j := _bit_of(block, 9)) is not None:
            block.singles[j] = (1, 5)

    _tampered_blocks(monkeypatch, list_nine_again)
    got = _strata_verdicts(table, 2_000)
    assert got["strata/partition-audit"].status is FAILS
    assert got["strata/partition-audit"].counterexample == ("9 is listed more than once",)
    # nor does single-layer hold on a layer-1 count past the odd composites
    assert got["strata/single-layer"].status is FAILS
    assert got["strata/single-layer"].counterexample == "698 layer-1 entries for 697 odd composites"


class _CountsOneMore(PrimeTable):
    def odd_composite_count(self, x):
        return super().odd_composite_count(x) + 1


def test_strata_audit_counts_against_the_checkpoints(monkeypatch):
    table = PrimeTable(STRATA_LIMIT)
    total = table.odd_composite_count(STRATA_LIMIT)
    real = strata.layer_one_blocks
    # a search that stops after two blocks leaves the rest unaudited
    monkeypatch.setattr(strata, "layer_one_blocks", lambda *a: itertools.islice(real(*a), 2))
    seen = table.odd_composite_count(2 * 2 * 2**16 - 1)
    assert strata.audit_layer_one(STRATA_LIMIT, table).anomalies == (
        f"{seen} odd composites <= {STRATA_LIMIT} audited, the sieve counts {total}",
    )
    monkeypatch.setattr(strata, "layer_one_blocks", real)
    got = _strata_verdicts(_CountsOneMore(STRATA_LIMIT), STRATA_LIMIT)
    assert got["strata/single-layer"].status is HOLDS
    assert got["strata/partition-audit"].counterexample == (
        f"{total} odd composites <= {STRATA_LIMIT} audited, the sieve counts {total + 1}",
    )
