import ast
import csv
import hashlib
import importlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sumcollapse
from sumcollapse import PrimeTable, battery, cli, collapse, relation_table_rows, strata
from sumcollapse.battery import MIN_LIMIT
from sumcollapse.cli import MAX_REACH, main
from sumcollapse.verdict import Status, holds, holds_on_window, hypothesis_failed

from oracles import is_prime_bf, simple_prime_set, strata_bf, strata_census_bf, strata_csv_bf


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_text(capsys):
    code, out, _ = run_cli(["verify", "--limit", "20000"], capsys)
    assert code == 0
    assert "passed, 0 failed" in out
    assert "PASS sieve/composite-count-identity" in out


def test_verify_json_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["verify", "--limit", "20000", "--out", str(path), "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["schema"] == 1
    assert payload["failed"] == 0
    refs = [c["ref"] for c in payload["checks"]]
    assert refs == sorted(refs)
    assert all(c["elapsed_ms"] == 0 and "peak_rss_kb" not in c for c in payload["checks"])
    assert json.loads(out) == payload


def test_verify_timings_flag(tmp_path, capsys):
    path = tmp_path / "t.json"
    code, _, _ = run_cli(
        ["verify", "--limit", "20000", "--out", str(path), "--timings"], capsys
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert any(c["elapsed_ms"] > 0 for c in payload["checks"])
    # and the process's peak RSS after each check
    assert all(c["peak_rss_kb"] > 0 for c in payload["checks"])


def test_collapse_exact(capsys):
    code, out, _ = run_cli(
        ["collapse", "--rel", "odd>=3 ~(2,2)~ odd>=3 \\ {9,15,21}"], capsys
    )
    assert code == 0
    assert out.startswith("holds:")


FIRST_23 = (9, 15, 21, 25, 27, 33, 35, 39, 45, 49, 51, 55, 57, 63, 65, 69, 75, 77,
            81, 85, 87, 91, 93)


def test_collapse_first_23_is_exact(capsys):
    # the prime-surplus premise fails at the 23rd odd composite, but the exact
    # decider still settles the removal
    rel = "odd>=3 ~(2,2)~ odd>=3 \\ {" + ",".join(map(str, FIRST_23)) + "}"
    code, out, _ = run_cli(["collapse", "--rel", rel, "--format", "json"], capsys)
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["status"] == "holds"
    assert verdict["certified_range"] is None and verdict["counterexample"] is None
    witnesses = verdict["witnesses"]
    assert sorted(c for c, _, _ in witnesses) == list(FIRST_23)
    for c, p, d in witnesses:
        assert p + d == c + 3 and is_prime_bf(p) and p % 2 == 1
        assert d >= 3 and d % 2 == 1 and d not in FIRST_23


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("exact decision and windowed sumsets disagree")

    monkeypatch.setattr(collapse, "_removal_certificate", broken)
    code, out, err = run_cli(["collapse", "--rel", "odd>=3 ~(2,2)~ odd>=3 \\ {9}"], capsys)
    assert code == 3
    assert out == ""
    assert err == "internal error: exact decision and windowed sumsets disagree\n"


HOLDS, WINDOW = Status.HOLDS, Status.HOLDS_ON_WINDOW
EXACT = ("a/exact", "settled", HOLDS, holds("by certificate"))
WINDOWED = ("b/window", "windowed", WINDOW, holds_on_window((6, 100), "on the window"))


def _patch_battery(monkeypatch, checks):
    """Feed ``checks`` through the real runner to ``verify`` and ``sieve --check``."""
    monkeypatch.setattr(battery, "run_battery", lambda limit: battery.run(checks))
    monkeypatch.setattr(battery, "sieve_checks", lambda table: iter(checks))


def test_hypothesis_failed_is_not_a_pass(monkeypatch, capsys):
    premise = ("c/premise", "premise not met", HOLDS, hypothesis_failed(1, "premise"))
    _patch_battery(monkeypatch, [EXACT, WINDOWED, premise])
    code, out, _ = run_cli(["verify", "--limit", "100", "--format", "json"], capsys)
    payload = json.loads(out)
    assert code == 1
    assert (payload["passed"], payload["failed"]) == (2, 1)
    code, out, _ = run_cli(["verify", "--limit", "100"], capsys)
    assert code == 1
    assert "FAIL c/premise [hypothesis_failed]" in out and "PASS b/window" in out

    code, out, _ = run_cli(["sieve", "--limit", "100", "--check"], capsys)
    assert code == 1
    assert "FAIL c/premise" in out and "PASS a/exact" in out
    code, out, _ = run_cli(["sieve", "--limit", "100", "--check", "--format", "json"], capsys)
    assert code == 1 and json.loads(out)["failed"] == 1


@pytest.mark.parametrize(
    "expected, verdict",
    [
        (HOLDS, holds_on_window((6, 100), "an exact check slid to a window")),
        (WINDOW, holds("a windowed check reported as exact")),
    ],
    ids=["window-for-holds", "holds-for-window"],
)
def test_other_success_status_is_not_a_pass(monkeypatch, capsys, expected, verdict):
    _patch_battery(monkeypatch, [EXACT, WINDOWED, ("c/slid", "slid", expected, verdict)])
    status = verdict.status.value
    code, out, _ = run_cli(["verify", "--limit", "100"], capsys)
    assert code == 1
    assert f"FAIL c/slid [{status}]" in out and "PASS a/exact" in out
    assert out.endswith("2 passed, 1 failed\n")
    code, out, _ = run_cli(["verify", "--limit", "100", "--format", "json"], capsys)
    assert code == 1 and json.loads(out)["failed"] == 1
    code, out, _ = run_cli(["sieve", "--limit", "100", "--check"], capsys)
    assert code == 1
    assert "FAIL c/slid" in out and "PASS b/window" in out
    code, out, _ = run_cli(["sieve", "--limit", "100", "--check", "--format", "json"], capsys)
    assert code == 1 and json.loads(out)["failed"] == 1


@pytest.mark.parametrize("limit", [9, 50, 92])
@pytest.mark.parametrize("command", [["verify"], ["sieve", "--check"]], ids=["verify", "sieve"])
def test_battery_limit_below_floor_is_refused(monkeypatch, capsys, command, limit):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built before the limit was checked")

    monkeypatch.setattr(battery, "PrimeTable", no_table)
    monkeypatch.setattr("sumcollapse.sieve.PrimeTable", no_table)
    code, out, err = run_cli(command + ["--limit", str(limit)], capsys)
    assert code == 2
    assert out == ""
    assert f"must be >= {MIN_LIMIT}" in err and f"got {limit}" in err


@pytest.mark.parametrize("command", [["verify"], ["sieve", "--check"]], ids=["verify", "sieve"])
def test_battery_runs_at_floor(capsys, command):
    code, out, _ = run_cli(command + ["--limit", str(MIN_LIMIT)], capsys)
    assert code == 0
    assert "FAIL" not in out


# sha256 of ``verify --limit 30000 --format json``, frozen from the battery as
# it stood inside the CLI module; re-pinned when the gap families took their
# witnesses from the one removal certificate, which lists them largest first
# (the only difference from the earlier bytes)
VERIFY_30000_SHA256 = "a9b49388708e7bddb67fe885287b531bee3c48eb88715e6fe22051945bac241f"


def test_verify_golden_bytes(capsys):
    code, out, _ = run_cli(["verify", "--limit", "30000", "--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_30000_SHA256
    # every exact removal entry lists its witnesses from the largest removed value down
    checks = {c["ref"]: c for c in json.loads(out)["checks"]}
    refs = ["collapse/removal-triple", "collapse/removal-first-22"]
    refs += [ref for ref in checks if ref.startswith("collapse/gap-family-")]
    assert len(refs) == 4
    for ref in refs:
        removed = [c for c, _, _ in checks[ref]["witnesses"]]
        assert removed == sorted(set(removed), reverse=True), ref


# sha256 of ``verify --limit 1000000 --format json``, taken before every
# least-witness question went through one search; past 10^5 it reaches the
# absorption and fold caps that the 30000 digest stays below
VERIFY_1E6_SHA256 = "b4897e7db427225f115b208299d2165cb4144626345b5164cb6e06815ca87500"


def test_verify_1e6_golden_bytes(capsys):
    code, out, _ = run_cli(["verify", "--limit", "1000000", "--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_1E6_SHA256


# sha256 of ``verify --limit 10000000 --format json``, the battery at the
# benchmark's scale (about 1 s and 45 MB), taken before the sieve group read
# one table of runs
VERIFY_1E7_SHA256 = "65f7309f8c02cdbd84d7d8dfb7bab3b6ff8809b385ba317096b786d098cba6ba"


def test_verify_1e7_golden_bytes(capsys):
    code, out, _ = run_cli(["verify", "--limit", "10000000", "--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_1E7_SHA256


# sha256 of fold-check outputs at the saturation cutoff's introduction, taken
# from the kernel that ran every shift: a drift in a certified range or a
# counterexample changes these bytes
FOLD_GOLDEN = [
    (["collapse", "--rel", "odd>=3 ~(3,3)~ primes>=3", "--window", "3..20000"], 0,
     "ff955167915c05d78a697f1b89bd0b1d1d888624314e3b37b4d808c0332cb4a0"),
    (["collapse", "--rel", "primes>=3 ~(4,4)~ odd>=3", "--window", "3..20000"], 1,
     "e9cadc540bc220c4db3b0b6fbb8232710f1027adc538d0d9ce36b27bdd20d08d"),
    # re-pinned with the 30000 digest above: only the primorial gap family's
    # witness order differs from the earlier bytes
    (["verify", "--limit", "200000"], 0,
     "2922a5aca27e08f98652efc058d64619132abcc319268255c9a5ae740e74726f"),
]


@pytest.mark.parametrize("argv, want_code, digest", FOLD_GOLDEN, ids=["3-fold", "4-fold", "verify"])
def test_fold_golden_bytes(capsys, argv, want_code, digest):
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of ``sieve --limit 300000 --check --format json``, taken from the
# whole-array sieve checks before they became one pass over 2^16-odd blocks;
# the limit spans three blocks
SIEVE_CHECK_300000_SHA256 = "ad1ca9c930d1529998913396ef539a1c6cfb3a1d9924fd8825418fb52dfc07d4"


def test_sieve_check_golden_bytes(capsys):
    code, out, _ = run_cli(["sieve", "--limit", "300000", "--check", "--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SIEVE_CHECK_300000_SHA256


@pytest.mark.parametrize(
    "rel, window, reach",
    [
        ("odd>=3 ~(2,2)~ primes>=3", "3..1000000001", 1_000_000_001),
        ("odd>=3 ~(2,2)~ odd>=3 \\ {9,1000000001}", "3..100", 1_000_000_001),
    ],
    ids=["window-end", "excluded-value"],
)
def test_collapse_past_reach_is_refused(monkeypatch, capsys, rel, window, reach):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built before the reach was checked")

    monkeypatch.setattr("sumcollapse.sieve.PrimeTable", no_table)
    code, out, err = run_cli(["collapse", "--rel", rel, "--window", window], capsys)
    assert code == 2
    assert out == ""
    assert f"primes up to {reach}" in err and f"past the bound {MAX_REACH}" in err


# the certificate reads primes only up to the largest removed value, so the
# table reaches that value, not twice it
@pytest.mark.parametrize(
    "rel, window, reach",
    [
        ("odd>=3 ~(2,2)~ primes>=3", "3..1000000000", MAX_REACH),
        ("odd>=3 ~(2,2)~ odd>=3 \\ {9,999999999}", "3..100", 999_999_999),
        ("odd>=3 ~(2,2)~ odd>=3 \\ {500000001}", "3..100", 500_000_001),
    ],
    ids=["window-end", "excluded-value", "excluded-half-reach"],
)
def test_collapse_at_reach_builds_its_table(monkeypatch, capsys, rel, window, reach):
    requested = []

    def stop(limit):  # records the limit and allocates nothing
        requested.append(limit)
        raise ValueError(f"table requested to {limit}")

    monkeypatch.setattr("sumcollapse.sieve.PrimeTable", stop)
    code, _, err = run_cli(["collapse", "--rel", rel, "--window", window], capsys)
    assert code == 2
    assert requested == [reach] and f"table requested to {reach}" in err


REACH_COMMANDS = {
    "verify": ["verify", "--limit", "{}"],
    "sieve": ["sieve", "--limit", "{}"],
    "sieve-check": ["sieve", "--check", "--limit", "{}"],
    "strata": ["strata", "--limit", "{}"],
    "partitions": ["partitions", "--set", "odd>=3", "--k", "2", "--target", "{}"],
}


@pytest.mark.parametrize("command", sorted(REACH_COMMANDS))
def test_table_past_reach_is_refused(monkeypatch, capsys, command):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built before the reach was checked")

    monkeypatch.setattr(battery, "PrimeTable", no_table)
    monkeypatch.setattr("sumcollapse.sieve.PrimeTable", no_table)
    argv = [a.format(MAX_REACH + 1) for a in REACH_COMMANDS[command]]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert f"primes up to {MAX_REACH + 1}" in err and f"past the bound {MAX_REACH}" in err


@pytest.mark.parametrize("command", sorted(REACH_COMMANDS))
def test_table_at_reach_is_built(monkeypatch, capsys, command):
    def stop(limit):
        raise ValueError(f"table requested to {limit}")

    monkeypatch.setattr(battery, "PrimeTable", stop)
    monkeypatch.setattr("sumcollapse.sieve.PrimeTable", stop)
    argv = [a.format(MAX_REACH) for a in REACH_COMMANDS[command]]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert f"table requested to {MAX_REACH}" in err


def test_collapse_symmetric_skips_containment(capsys):
    # the odd primes are no superset of the odd integers, so only the
    # directed check, which also asks for containment, fails, at 9
    rel = ["collapse", "--rel", "primes>=3 ~(4,4)~ odd>=3", "--window", "3..2000"]
    code, out, _ = run_cli(rel + ["--symmetric", "--format", "json"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["directed"] is False
    assert doc["verdict"]["status"] == "holds_on_window"
    assert doc["verdict"]["certified_range"] == [12, 2000]
    code, out, _ = run_cli(rel + ["--format", "json"], capsys)
    doc = json.loads(out)
    assert code == 1 and doc["directed"] is True
    assert doc["verdict"]["status"] == "fails"
    assert doc["verdict"]["counterexample"] == 9
    assert doc["verdict"]["note"].endswith("containment: fails")


def test_collapse_windowed_failure(capsys):
    # excluding the prime 3 breaks the pair sum 6 and takes the windowed path
    code, out, _ = run_cli(
        ["collapse", "--rel", "odd>=3 ~(2,2)~ odd>=3 \\ {3}", "--window", "3..200"],
        capsys,
    )
    assert code == 1
    assert "fails" in out
    assert "6" in out


def test_collapse_windowed_prime_rhs(capsys):
    code, out, _ = run_cli(
        ["collapse", "--rel", "odd>=3 ~(2,2)~ primes>=3", "--window", "3..5000"],
        capsys,
    )
    assert code == 0
    assert out.startswith("holds_on_window:")


def test_collapse_window_without_sums_is_refused(capsys):
    # the 99999-fold sums start at 299997, far past the window end
    code, out, err = run_cli(
        ["collapse", "--rel", "odd>=3 ~(99999,2)~ odd>=3", "--window", "3..100"], capsys
    )
    assert code == 2
    assert out == ""
    assert "start at 299997, past the window end 100" in err


def test_collapse_inverted_window_is_refused(capsys):
    # refused as a window, before any sums are compared
    with pytest.raises(SystemExit) as exc:
        main(["collapse", "--rel", "odd>=3 ~(2,2)~ primes>=3", "--window", "100..3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --window: bad window '100..3': it starts at 100, past its end 3" in err
    assert "sums to compare" not in err


def test_collapse_bad_relation(capsys):
    code, _, err = run_cli(["collapse", "--rel", "odd>=3 vs odd>=5"], capsys)
    assert code == 2
    assert "malformed" in err


def test_collapse_bad_set_spec(capsys):
    code, _, err = run_cli(["collapse", "--rel", "odd>=4 ~(2,2)~ odd>=3"], capsys)
    assert code == 2


# sha256 of ``ring --modulus 8 --nmax 3 --csv``, taken before the table was streamed
RING_8_3_CSV_SHA256 = "6af7de248ec8cc47473313a1763f1c04da5205dce4ff46d1a4158af2e29797f5"


def test_ring_csv(tmp_path, capsys):
    path = tmp_path / "ring8.csv"
    code, out, _ = run_cli(
        ["ring", "--modulus", "8", "--nmax", "3", "--csv", str(path), "--format", "json"], capsys
    )
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == RING_8_3_CSV_SHA256
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    payload = json.loads(out)
    assert payload["rows"] == len(rows) == 255 * 255 * 9
    assert payload["directed_rows"] == sum(r["directed"] == "1" for r in rows) == 3887
    # the counts do not depend on writing the table
    code, out, _ = run_cli(["ring", "--modulus", "8", "--nmax", "3", "--format", "json"], capsys)
    assert code == 0 and json.loads(out) == payload
    code, out, _ = run_cli(["ring", "--modulus", "4", "--nmax", "2", "--format", "json"], capsys)
    assert code == 0
    assert (json.loads(out)["rows"], json.loads(out)["directed_rows"]) == (15 * 15 * 4, 40)
    key = {"b_elements": "0|2|4", "c_elements": "0|2"}
    picked = {
        (r["m_fold"], r["n_fold"]): r
        for r in rows
        if r["b_elements"] == key["b_elements"] and r["c_elements"] == key["c_elements"]
    }
    assert picked[("2", "2")]["sumset_equal"] == "0"
    assert picked[("3", "3")]["directed"] == "1"
    assert picked[("1", "2")]["directed"] == "1"
    assert picked[("2", "3")]["directed"] == "1"


RING_HEADER = (
    "modulus,b_mask,b_elements,c_mask,c_elements,m_fold,n_fold,"
    "sumset_equal,fp,subset,symmetric,directed"
).split(",")


def _ring_library_rows(modulus, nmax):
    return [
        [modulus, r.b.mask, _labels(r.b), r.c.mask, _labels(r.c), r.m_fold, r.n_fold]
        + [int(x) for x in (r.sumset_equal, r.fp, r.subset, r.symmetric, r.directed)]
        for r in relation_table_rows(modulus, nmax)
    ]


def _ring_csv_rows(tmp_path, capsys, modulus, nmax):
    path = tmp_path / f"ring{modulus}_{nmax}.csv"
    args = ["ring", "--modulus", str(modulus), "--nmax", str(nmax), "--csv", str(path)]
    assert run_cli(args, capsys)[0] == 0
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("modulus,nmax", [(2, 1), (2, 7), (3, 3), (4, 2), (5, 2), (6, 4)])
def test_ring_csv_matches_library_rows(tmp_path, capsys, modulus, nmax):
    rows = _ring_csv_rows(tmp_path, capsys, modulus, nmax)
    assert rows[0] == RING_HEADER and len(rows) == 1 + ((1 << modulus) - 1) ** 2 * nmax**2
    assert rows[1:] == [[str(x) for x in row] for row in _ring_library_rows(modulus, nmax)]


def test_ring_csv_matches_library_rows_across_write_edges(tmp_path, capsys, monkeypatch):
    # chunks of 7 lines make each write two (C, m_fold) runs of 3 rows, so a
    # block of Z/5Z takes many writes and runs joined each on its prefix
    modulus, nmax, runs_per_write = 5, 3, 2
    monkeypatch.setattr(cli, "_RING_CHUNK", 7)
    rows = _ring_csv_rows(tmp_path, capsys, modulus, nmax)
    want = _ring_library_rows(modulus, nmax)
    assert rows[1:] == [[str(x) for x in row] for row in want]
    # the equal cells fall on both sides of write edges: some write and the
    # next one in its block both hold an equal cell
    per_block = ((1 << modulus) - 1) * nmax * nmax
    equal_writes = {(i // per_block, i % per_block // (runs_per_write * nmax))
                    for i, row in enumerate(want) if row[7]}
    assert any((b, w + 1) in equal_writes for b, w in equal_writes)


@pytest.mark.parametrize("modulus,nmax", [("4", "1"), ("4", "3"), ("8", "3")])
def test_ring_csv_in_many_writes_keeps_its_bytes(tmp_path, capsys, monkeypatch, modulus, nmax):
    # chunks of 7 lines split each block into many writes, each of whole
    # (C, m_fold) runs joined on their prefixes; the bytes stay those of one
    # write per block
    args = ["ring", "--modulus", modulus, "--nmax", nmax, "--csv"]
    assert run_cli(args + [str(tmp_path / "one_write.csv")], capsys)[0] == 0
    monkeypatch.setattr(cli, "_RING_CHUNK", 7)
    assert run_cli(args + [str(tmp_path / "writes.csv")], capsys)[0] == 0
    got = (tmp_path / "writes.csv").read_bytes()
    assert got == (tmp_path / "one_write.csv").read_bytes()
    if modulus == "8":
        assert hashlib.sha256(got).hexdigest() == RING_8_3_CSV_SHA256


def _ring_peak(nmax, modulus=2):
    tracemalloc.start()
    try:
        args = ["ring", "--modulus", str(modulus), "--nmax", str(nmax), "--csv", os.devnull]
        assert main(args) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ring_writer_memory_grows_with_nmax_not_its_square(capsys):
    # at modulus 2 a block takes several writes at both fold bounds, so the
    # writer holds runs of n_max rows and whole writes of at most _RING_CHUNK lines;
    # a table held per B (or its tails) would take 4 times the memory at twice n_max
    small, large = _ring_peak(200), _ring_peak(400)
    capsys.readouterr()
    assert large < 2 * small


def test_ring_writer_holds_no_string_per_row_tail(capsys):
    # the writer holds the prefixes, the pieces of the tails and one block's
    # ends, runs and write: about 0.47 MiB at modulus 8, n_max 3, where a
    # string for every (C, m_fold, n_fold, code) row tail took 2.4 MiB
    peak = _ring_peak(3, modulus=8)
    capsys.readouterr()
    assert peak < 1 << 20


def _labels(s):
    return "|".join(map(str, s.elements()))


@pytest.mark.parametrize("modulus, nmax", [("8", "40"), ("2", "1000000")])
def test_ring_oversized_table_is_refused(tmp_path, capsys, modulus, nmax):
    path = tmp_path / "ring.csv"
    code, out, err = run_cli(
        ["ring", "--modulus", modulus, "--nmax", nmax, "--csv", str(path)], capsys
    )
    assert code == 2
    assert out == "" and "exceeds the bound 100000000 rows" in err
    assert not path.exists()


@pytest.mark.parametrize("nmax", ["0", "-2"])
def test_ring_nmax_below_one_is_refused(tmp_path, capsys, nmax):
    path = tmp_path / "ring.csv"
    code, out, err = run_cli(
        ["ring", "--modulus", "8", "--nmax", nmax, "--csv", str(path)], capsys
    )
    assert code == 2
    assert out == "" and "n_max" in err
    assert not path.exists()


@pytest.mark.parametrize("modulus", ["0", "1", "-3", "31"])
def test_ring_degenerate_modulus_is_refused(tmp_path, capsys, modulus):
    path = tmp_path / "ring.csv"
    code, out, err = run_cli(
        ["ring", "--modulus", modulus, "--nmax", "2", "--csv", str(path)], capsys
    )
    assert code == 2
    assert out == "" and "modulus" in err
    assert not path.exists()


def test_strata_outputs(tmp_path, capsys):
    csv_path = tmp_path / "strata.csv"
    json_path = tmp_path / "census.json"
    code, out, _ = run_cli(
        [
            "strata",
            "--limit",
            "500",
            "--csv",
            str(csv_path),
            "--out",
            str(json_path),
        ],
        capsys,
    )
    assert code == 0
    census = json.loads(json_path.read_text())
    assert census["max_layer"] == 1
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    first = rows[0]
    assert first["c"] == "9" and first["layer"] == "1"
    assert first["witness_prime"] == "5" and first["witness_partner"] == "7"


# frozen from the dict-backed implementation this table replaced
STRATA_2000_CSV_SHA256 = "737973f3c836406537a1c00efae6b5b5150ae933bfea988231a447c7817a07ca"
STRATA_2000_CENSUS = (
    '{\n  "layers": {\n    "1": {\n      "count": 697,\n      "max": 1995,\n'
    '      "min": 9\n    }\n  },\n  "limit": 2000,\n  "max_layer": 1,\n'
    '  "passes": 1,\n  "schema": 1,\n  "unassigned": []\n}\n'
)


def test_strata_golden_bytes(tmp_path, capsys):
    csv_path = tmp_path / "strata.csv"
    json_path = tmp_path / "census.json"
    code, _, _ = run_cli(
        ["strata", "--limit", "2000", "--csv", str(csv_path), "--out", str(json_path)],
        capsys,
    )
    assert code == 0
    data = csv_path.read_bytes()
    assert data.startswith(b"c,layer,witness_prime,witness_partner\r\n9,1,5,7\r\n")
    assert data.count(b"\r\n") == 698
    assert hashlib.sha256(data).hexdigest() == STRATA_2000_CSV_SHA256
    assert json_path.read_text() == STRATA_2000_CENSUS


# sha256 of ``strata --limit 1000000 --csv`` and of its census, before the CSV was chunked
STRATA_1E6_CSV_SHA256 = "539650e076e59affea05a057485b06a33bf5c3c1df3e04da7d812a87ff9f33ae"
STRATA_1E6_CENSUS_SHA256 = "08f35e6c9d535f769430b3d9984f0f93fe3cdc2a97acb5f07ddc10394bf16ba7"


def test_strata_csv_golden_at_1e6(tmp_path, capsys):
    csv_path = tmp_path / "strata.csv"
    json_path = tmp_path / "census.json"
    code, _, _ = run_cli(
        ["strata", "--limit", "1000000", "--csv", str(csv_path), "--out", str(json_path)],
        capsys,
    )
    assert code == 0
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == STRATA_1E6_CSV_SHA256
    assert hashlib.sha256(json_path.read_bytes()).hexdigest() == STRATA_1E6_CENSUS_SHA256


def test_strata_command_streams_without_a_whole_limit_table(tmp_path, capsys, monkeypatch):
    # a table two blocks long without the prime 7, so 9 is left unassigned:
    # the command's rows and census must be the strata oracle's
    limit = 2 * 2**17 + 1
    table = PrimeTable(limit)
    odd_prime = table.odd_prime_mask().copy()
    odd_prime[7 >> 1] = False
    table._bits = np.packbits(odd_prime, bitorder="little").tobytes()
    table._ckpt = table._build_checkpoints()
    comps, layer, witness = strata_bf(limit, (simple_prime_set(limit) - {7}).__contains__)
    assert [c for c, k in zip(comps, layer) if not k] == [9]

    monkeypatch.setattr(cli.sieve, "PrimeTable", lambda n: table)
    monkeypatch.setattr(strata, "compute_strata", None)
    monkeypatch.setattr(strata, "StrataTable", None)
    csv_path, json_path = tmp_path / "got.csv", tmp_path / "census.json"
    code, out, _ = run_cli(
        ["strata", "--limit", str(limit), "--csv", str(csv_path), "--out", str(json_path)],
        capsys,
    )
    assert code == 1 and "unassigned: 1 (anomaly)" in out
    assert csv_path.read_bytes() == strata_csv_bf(comps, layer, witness)
    assert json.loads(json_path.read_text()) == {"schema": 1, **strata_census_bf(limit, comps, layer)}


def _no_table(*args):
    raise AssertionError("a prime table was built")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--limit", str(MIN_LIMIT)], "--out"),
        (["sieve", "--limit", "1000", "--check"], "--out"),
        (["strata", "--limit", "1000"], "--out"),
        (["strata", "--limit", "1000"], "--csv"),
        (["collapse", "--rel", "odd>=3 ~(2,2)~ odd>=3"], "--out"),
        (["partitions", "--target", "12", "--set", "primes>=3", "--k", "2"], "--out"),
        (["ring", "--modulus", "4"], "--csv"),
    ],
    ids=["verify", "sieve-check", "strata-out", "strata-csv", "collapse", "partitions", "ring-csv"],
)
def test_an_unwritable_output_is_refused_before_any_work(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.setattr(cli.sieve, "PrimeTable", _no_table)
    monkeypatch.setattr(battery, "PrimeTable", _no_table)
    monkeypatch.setattr(cli.ring, "relation_table", _no_table)
    path = tmp_path / "missing" / "report"
    code, out, err = run_cli(argv + [flag, str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"
    # a directory in its place, and a parent that is a file
    path.parent.mkdir()
    path.mkdir()
    assert run_cli(argv + [flag, str(path)], capsys)[::2] == (2, f"error: [Errno 21] Is a directory: '{path}'\n")
    (tmp_path / "file").write_text("")
    below_a_file = tmp_path / "file" / "report"
    assert run_cli(argv + [flag, str(below_a_file)], capsys)[::2] == (
        2, f"error: [Errno 20] Not a directory: '{below_a_file}'\n"
    )


def test_partitions(capsys):
    code, out, _ = run_cli(
        ["partitions", "--target", "12", "--set", "primes>=3", "--k", "2"], capsys
    )
    assert code == 0
    assert "5 + 7" in out


def test_sieve_check(capsys):
    code, out, _ = run_cli(["sieve", "--limit", "5000", "--check"], capsys)
    assert code == 0
    assert "primes <= 5000: 669" in out


def test_threads_option_is_gone(capsys):
    with pytest.raises(SystemExit):
        main(["strata", "--limit", "100", "--threads", "2"])
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "theorems"],
        ["collapse", "--rel", "odd>=3 ~(2,2)~ odd>=3", "--directed"],
    ],
    ids=["suite", "directed"],
)
def test_no_op_options_are_gone(capsys, argv):
    with pytest.raises(SystemExit):
        main(argv)
    capsys.readouterr()


SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh_python(args, env=None):
    """Run ``python args`` in a fresh process that sees this checkout's ``src``
    (it does not inherit pytest's path)."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_entry_point_runs():
    proc = _fresh_python(["-m", "sumcollapse.cli", "sieve", "--limit", "1000"])
    assert proc.returncode == 0
    assert "168" in proc.stdout


# -- what a process imports ----------------------------------------------------

# stdlib modules that no command needs: dataclasses imports inspect, which
# imports ast, dis and tokenize, about 1 MB of a process's peak together
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")
LOADED = (  # the package modules a process has executed; a lazy one not yet run is skipped
    "import sys, types\n"
    "print(' '.join(sorted(m.rpartition('.')[2] for m, mod in list(sys.modules.items())\n"
    f"                      if m in {('numpy',) + HEAVY!r} or m.startswith('sumcollapse.')\n"
    "                      and type(mod) is types.ModuleType)))\n"
)


def _run_main(argv):
    return f"import sumcollapse.cli\nsumcollapse.cli.main({argv!r})\n"


def test_package_import_loads_no_numpy_and_no_submodule():
    proc = _fresh_python(["-c", "import sumcollapse\n" + LOADED])
    assert (proc.returncode, proc.stdout) == (0, "\n"), proc.stderr


def _windowed(rel, window):
    return _run_main(["collapse", "--rel", rel, "--window", window])


RELATIONS = {"cli", "collapse", "intsets", "setexpr", "sieve", "verdict"}  # a collapse query's
STRATA = {"cli", "intsets", "sieve", "strata", "verdict"}
EVERY = RELATIONS | STRATA | {"battery", "finite_ring"}


# every package module a process executes; numpy, which only the library's
# array readers import, and the HEAVY modules would be listed too
@pytest.mark.parametrize(
    "code, executed",
    [
        ("import sumcollapse.cli\n", {"cli"}),
        ("import sumcollapse.sieve, sumcollapse.setexpr, sumcollapse.intsets, sumcollapse.collapse\n",
         RELATIONS - {"cli"}),
        (_run_main(["collapse", "--rel", "odd>=3 ~(2,2)~ odd>=3 \\ {9,15,21}"]), RELATIONS),
        (_windowed("odd>=3 ~(2,2)~ primes>=3", "3..2000"), RELATIONS),
        (_windowed("composites ~(2,2)~ composites", "9..1000"), RELATIONS),
        (_run_main(["sieve", "--limit", "1000"]), {"cli", "sieve"}),
        (_run_main(["partitions", "--set", "primes>=3", "--target", "100", "--k", "2"]),
         RELATIONS),
        (_run_main(["strata", "--limit", "1000"]), STRATA),
        (_run_main(["strata", "--limit", "1000", "--csv", os.devnull, "--out", os.devnull]),
         STRATA),
        ("from sumcollapse.sieve import PrimeTable\n"
         "from sumcollapse.strata import strata_census\n"
         f"assert strata_census(1000, PrimeTable(1000), {os.devnull!r}).max_layer == 1\n",
         STRATA - {"cli"}),
        (_run_main(["ring", "--modulus", "4", "--nmax", "2"]), {"cli", "finite_ring"}),
        ("from sumcollapse.finite_ring import zm_optimal_subsets, optimal_weight_set\n"
         "assert zm_optimal_subsets(6, 2) and optimal_weight_set(6, 3).n_values\n",
         {"finite_ring"}),
        ("from sumcollapse.finite_ring import relation_table, relation_table_rows\n"
         "next(relation_table(3, 2)) and next(relation_table_rows(3, 2))\n",
         {"finite_ring"}),
        (_run_main(["sieve", "--limit", str(MIN_LIMIT), "--check"]), RELATIONS | {"battery"}),
        (_run_main(["verify", "--limit", str(MIN_LIMIT)]), EVERY),
    ],
    ids=["cli", "modules", "collapse", "collapse-primes", "collapse-composites", "sieve",
         "partitions", "strata", "strata-csv-out", "strata-census", "ring", "optimal-scan",
         "relation-table", "sieve-check", "verify"],
)
def test_a_process_imports_what_its_command_runs(code, executed):
    proc = _fresh_python(["-c", code + LOADED])
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.splitlines()[-1].split()) == executed


def test_lazy_modules_are_registered_before_they_run():
    # every package module is in sys.modules and on the package from the
    # start (tools that look modules up there, like perfbench's tracer, find
    # them), and the first attribute read runs the module
    code = (
        "import sys, types, sumcollapse, sumcollapse.cli\n"
        "for n in ('battery', 'collapse', 'finite_ring', 'intsets', 'setexpr', 'sieve', 'strata',\n"
        "          'verdict'):\n"
        "    assert type(sys.modules['sumcollapse.' + n]) is not types.ModuleType, n\n"
        "mod = sys.modules['sumcollapse.strata']\n"
        "assert sumcollapse.strata is mod and sumcollapse.cli.strata_mod is mod\n"
        "assert type(mod) is not types.ModuleType\n"
        "table = mod.StrataTable\n"
        "assert type(mod) is types.ModuleType and sys.modules['sumcollapse.strata'] is mod\n"
        "from sumcollapse.strata import StrataTable\n"
        "assert StrataTable is table\n"
    )
    proc = _fresh_python(["-c", code])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc")
def test_cli_process_runs_one_thread():
    # no command imports numpy, so none starts OpenBLAS's thread pool (one
    # thread per further core); verify runs every module and group
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    code = (
        _run_main(["verify", "--limit", str(MIN_LIMIT)])
        + "import os, sys\nassert 'numpy' not in sys.modules\n"
        + "print(len(os.listdir('/proc/self/task')))\n"
    )
    proc = _fresh_python(["-c", code], env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "1"


# every name the package exported when ``import sumcollapse`` imported every submodule
EAGER_EXPORTS = {
    "collapse": "DecompositionRecord FactorStats PairSweepReport PartitionRecord check_fp "
    "check_relation composite_removal_check decompositions euclid_chain_composites "
    "factor_stats gap_subsequence_check k_partitions parameter_uniqueness_report "
    "prefix_removal_cascade prime_surplus_hypothesis primorial_odd_products "
    "progression_removal_check relation_parts shifted_composite_pair_sweep",
    "finite_ring": "RelationTableEntry ZmSubset optimal_weight_set relation_table "
    "relation_table_rows zm_closure zm_expansion_family zm_optimal_subsets "
    "zm_product_witness zm_quotient_check zm_reduction_chain zm_reduction_family "
    "zm_relation zm_sumset zm_unit_group_check",
    "intsets": "WindowSet dilation iterated_sumset pair_sum_cover_decision restrict "
    "sumset_equal_window",
    "setexpr": "FiniteSet IntRange OddComposites Primes Progression RoughOdd SetExpr Stratum "
    "Union as_set_expr parse_set_expr",
    "sieve": "CompositeIndex PrimeTable is_rough",
    "strata": "StrataTable compute_strata nfold_all_integers_check nfold_collapse_check "
    "rough_pair_cover_evidence verify_absorption verify_partition",
    "verdict": "RelationVerdict Status",
}


def test_lazy_namespace_resolves_every_export():
    names = set()
    for module, exported in EAGER_EXPORTS.items():
        home = importlib.import_module(f"sumcollapse.{module}")
        assert getattr(sumcollapse, module) is home
        for name in exported.split():
            assert getattr(sumcollapse, name) is getattr(home, name), name
            names.add(name)
    assert len(names) == 63
    assert sorted(sumcollapse.__all__) == sorted(names)
    assert names | set(EAGER_EXPORTS) | {"battery", "cli"} <= set(dir(sumcollapse))
    star: dict = {}
    exec("from sumcollapse import *", star)
    assert {name: star[name] for name in names} == {n: getattr(sumcollapse, n) for n in names}
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        sumcollapse.no_such_name
    assert sumcollapse.__version__ == "0.1.0"


def _numpy_imports(node, deferred=False):
    """Yield ``(line, deferred)`` for each numpy import under ``node``:
    deferred when it sits inside a function or under ``if TYPE_CHECKING:``."""
    if isinstance(node, ast.Import | ast.ImportFrom):
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
        if any(n == "numpy" or n.startswith("numpy.") for n in names):
            yield node.lineno, deferred
        return
    if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
        for child in node.body:
            yield from _numpy_imports(child, True)
        for child in node.orelse:
            yield from _numpy_imports(child, deferred)
        return
    deferred = deferred or isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda)
    for child in ast.iter_child_nodes(node):
        yield from _numpy_imports(child, deferred)


def test_no_module_imports_dataclasses():
    # dataclasses loads inspect, ast, dis and tokenize (about 1 MB) into every
    # process that imports it; the records are named tuples and slotted classes
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "sumcollapse").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert found == []


def test_numpy_is_imported_only_where_arrays_are_built():
    # a module-level numpy import would load numpy (about 13 MB) into every
    # process that runs the module; the one array reader, the sieve's
    # ``_unpack`` behind ``odd_prime_mask``, imports it when called, and no
    # other module names numpy at all
    sources = {path.name: ast.parse(path.read_text()) for path in sorted((SRC / "sumcollapse").glob("*.py"))}
    imports = {
        f"{name}:{line}": deferred
        for name, tree in sources.items()
        for line, deferred in _numpy_imports(tree)
    }
    assert [at for at, deferred in imports.items() if not deferred] == []
    assert sorted({at.partition(":")[0] for at in imports}) == ["sieve.py"]
    named = [
        name
        for name, tree in sources.items()
        if any(isinstance(node, ast.Name) and node.id in ("np", "numpy") for node in ast.walk(tree))
    ]
    assert named == ["sieve.py"]
    # and it would see a module-level one
    assert list(_numpy_imports(ast.parse("import numpy as np\nif TYPE_CHECKING:\n    pass\n"))) == [(1, False)]


BLAS_CALLS = {"dot", "vdot", "matmul", "linalg", "einsum", "inner", "outer", "tensordot"}


def test_no_module_calls_blas():
    # no module calls BLAS: the package's array work is elementwise, and a
    # BLAS call would set OpenBLAS's thread pool, one thread per core, to
    # work inside a library call
    found = []
    for path in sorted((SRC / "sumcollapse").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno} @")
            elif isinstance(node, ast.Attribute) and (
                node.attr in ("dot", "vdot")
                or node.attr in BLAS_CALLS
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            ):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert found == []
