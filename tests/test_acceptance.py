"""Acceptance battery: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time

import numpy as np
import pytest

from sumcollapse import (
    CompositeIndex,
    PrimeTable,
    ZmSubset,
    composite_removal_check,
    compute_strata,
    nfold_all_integers_check,
    nfold_collapse_check,
    shifted_composite_pair_sweep,
    verify_absorption,
    verify_partition,
    zm_optimal_subsets,
    zm_relation,
)
from sumcollapse.cli import main as cli_main
from sumcollapse.verdict import Status

import property_suites as ps
from oracles import simple_prime_set

LIMIT = 1_000_000


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def acc_table():
    return PrimeTable(LIMIT)


def test_a01_composite_index_identity():
    t0 = time.perf_counter()
    table = PrimeTable(LIMIT)
    mask = table.odd_prime_mask()
    odd_vals = 2 * np.arange(mask.size, dtype=np.int64) + 1
    pi_at_odd = np.cumsum(mask) + 1
    pi_at_odd[0] = 0
    comp = (~mask) & (odd_vals >= 9)
    ks = np.cumsum(comp)[comp]
    lhs = odd_vals[comp]
    pis = pi_at_odd[comp]
    exact = bool((lhs == 2 * ks + 2 * pis - 1).all())
    elapsed = time.perf_counter() - t0
    _report(
        "A01",
        exact and elapsed < 5.0,
        f"index identity exact for all {ks.size} odd composites <= {LIMIT} "
        f"in {elapsed:.2f}s (< 5s)",
    )


def test_a02_prime_surplus_window(acc_table):
    index = CompositeIndex(acc_table)
    holds_through_22 = all(
        acc_table.prime_count(index.nth(i)) >= i + 2 for i in range(1, 23)
    )
    first_fail = next(
        i
        for i in range(1, 100)
        if acc_table.prime_count(index.nth(i)) < i + 2
    )
    ok = (
        holds_through_22
        and first_fail == 23
        and index.nth(23) == 93
        and acc_table.prime_count(93) == 24
    )
    _report(
        "A02",
        ok,
        "prime surplus holds for i = 1..22; first failure at i = 23 with "
        "pi(93) = 24",
    )


def test_a03_index_upper_bounds(acc_table):
    mask = acc_table.odd_prime_mask()
    odd_vals = 2 * np.arange(mask.size, dtype=np.int64) + 1
    pi_at_odd = np.cumsum(mask) + 1
    pi_at_odd[0] = 0
    comp = (~mask) & (odd_vals >= 9)
    ks = np.cumsum(comp)[comp]
    lhs = odd_vals[comp]
    pis = pi_at_odd[comp]
    sel = ks >= 31
    ok = bool((pis[sel] <= ks[sel] - 1).all() and (lhs[sel] <= 4 * ks[sel] - 3).all())
    _report(
        "A03",
        ok,
        f"pi(value) <= k - 1 and value <= 4k - 3 for all {int(sel.sum())} "
        f"indices k >= 31 with value <= {LIMIT}",
    )


def test_a04_shifted_pair_sweep(acc_table):
    t0 = time.perf_counter()
    rep = shifted_composite_pair_sweep(10_000, acc_table)
    elapsed = time.perf_counter() - t0
    ok = rep.pair_missing == (4, 7) and elapsed < 10.0
    _report(
        "A04",
        ok,
        f"pair witnesses found for every k in [3, 10^4] except exactly "
        f"{rep.pair_missing} in {elapsed:.2f}s (< 10s)",
    )


def test_a05_even_shift_membership(acc_table):
    rep = shifted_composite_pair_sweep(10_000, acc_table)
    ok = rep.even_exceptions == (6, 14, 19)
    strict_ok = rep.even_distinct_exceptions == (6, 9, 14, 19)
    _report(
        "A05",
        ok and strict_ok,
        f"even-shift membership exceptions are exactly {rep.even_exceptions}; "
        f"the distinct-pair variant flags {rep.even_distinct_exceptions}",
    )


def test_a06_removal_certificates(acc_table):
    from sumcollapse.battery import _random_hypothesis_tuples

    index = CompositeIndex(acc_table)
    verdicts = [
        composite_removal_check((9, 15, 21), acc_table),
        composite_removal_check(index.first(22), acc_table),
    ]
    tuples = _random_hypothesis_tuples(index, 100, 2000)
    verdicts += [composite_removal_check(ks, acc_table) for ks in tuples]
    bad = [v for v in verdicts if v.status is not Status.HOLDS]
    _report(
        "A06",
        not bad,
        f"exact removal certificates for {{9,15,21}}, the first 22 odd "
        f"composites and {len(tuples)} random hypothesis-satisfying tuples",
    )


def test_a07_strata_single_layer(acc_table):
    t0 = time.perf_counter()
    st = compute_strata(LIMIT, acc_table)
    elapsed = time.perf_counter() - t0
    partition = verify_partition(st, acc_table)
    single = st.max_layer == 1 and not st.unassigned and partition.ok

    # independent cross-check: a plain sieve confirms every shift splits
    oracle_primes = simple_prime_set(LIMIT + 3)
    oracle_ok = True
    for c, (p, q) in st.witnesses.items():
        if p + q != c + 3 or p not in oracle_primes or q not in oracle_primes:
            oracle_ok = False
            break
    # equivalently: every even in [6, LIMIT + 3] splits into two odd primes,
    # via 3 + (s - 3) when s - 3 is prime and via the layer-1 witness otherwise
    evens_ok = all(
        (s - 3) in oracle_primes or (s - 3) in st.witnesses
        for s in range(6, LIMIT + 4, 2)
    )
    _report(
        "A07",
        single and oracle_ok and evens_ok and elapsed < 60.0,
        f"all {partition.total_composites} odd composites <= {LIMIT} sit in "
        f"layer 1 (computed in {elapsed:.1f}s < 60s); the "
        "partition audit and an independent sieve confirm every witness",
    )


def test_a08_absorption(acc_table):
    st = compute_strata(100_000, acc_table)
    rep = verify_absorption(st, 4, (9, 100_000), acc_table)
    ok = rep.ok and rep.checked.get(2, 0) > 0 and set(rep.vacuous) == {3, 4}
    _report(
        "A08",
        ok,
        f"shifted layer-1 members up to 10^5 are two-odd-prime sums "
        f"({rep.checked.get(2, 0)} checked); layers beyond are vacuous",
    )


def test_a09_nfold_collapse(acc_table):
    window = (3, 100_000)
    verdicts = {n: nfold_collapse_check(n, window, acc_table) for n in (2, 3, 4)}
    variants = {
        n: nfold_all_integers_check(n, (2, 100_000), acc_table) for n in (3, 4)
    }
    ok = all(v.status is Status.HOLDS_ON_WINDOW for v in verdicts.values())
    ok = ok and all(v.status is Status.HOLDS_ON_WINDOW for v in variants.values())
    _report(
        "A09",
        ok,
        "n-fold collapse verified on [3, 10^5] for n = 2, 3, 4 plus the "
        "all-integers variant for n = 3, 4",
    )


def test_a10_ring_goldens():
    Z = ZmSubset.from_elements
    b4, c4 = Z(4, [1]), Z(4, [3])
    pair_ok = zm_relation(b4, c4, 2, 2).symmetric and not zm_relation(
        b4, c4, 3, 3
    ).sumset_equal
    b8, c8 = Z(8, [0, 2, 4]), Z(8, [0, 2])
    ring8_ok = (
        zm_relation(b8, c8, 3, 3).directed
        and zm_relation(b8, c8, 1, 2).directed
        and zm_relation(b8, c8, 2, 3).directed
        and not zm_relation(b8, c8, 2, 2).sumset_equal
    )
    target = Z(6, [0, 2])
    ring6_ok = all(
        any(b.mask == target.mask for b in zm_optimal_subsets(6, n))
        for n in range(2, 6)
    )
    _report(
        "A10",
        pair_ok and ring8_ok and ring6_ok,
        "residue-ring goldens: mod-4 pair swap, mod-8 fold counterexample, "
        "mod-6 optimal pair for folds 2..5",
    )


def test_a11_property_suites(acc_table, table_small, table_1e5):
    counts = {
        "lift-cofinite": ps.lift_on_cofinite_removals(table_small),
        "lift-rings": ps.lift_on_ring_pairs(8),
        "sandwich": ps.sandwich_on_removals(table_small),
        "transitivity": ps.preorder_transitivity(200),
        "decomposition-counts": ps.decomposition_counts(table_1e5),
        "sumset-tuples": ps.sumset_vs_tuples(200),
        "quotient": ps.quotient_preservation(),
    }
    _report(
        "A11",
        all(c >= 100 for c in counts.values()),
        "seed-pinned property suites all green: "
        + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())),
    )


def test_a12_deterministic_reports(tmp_path, capsys):
    out1 = tmp_path / "one.json"
    out2 = tmp_path / "two.json"
    args = ["verify", "--limit", "30000"]
    code1 = cli_main(args + ["--out", str(out1)])
    code2 = cli_main(args + ["--out", str(out2)])
    capsys.readouterr()
    identical = out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    _report(
        "A12",
        code1 == 0 and code2 == 0 and identical and payload["failed"] == 0,
        "verify reports are byte-identical across two runs "
        f"({payload['passed']} checks)",
    )
