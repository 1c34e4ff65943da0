import csv
import hashlib
import json
import subprocess
import sys

import pytest

from sumcollapse import collapse
from sumcollapse.cli import CheckEntry, main

from oracles import is_prime_bf


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
    assert all(c["elapsed_ms"] == 0 for c in payload["checks"])
    assert json.loads(out) == payload


def test_verify_timings_flag(tmp_path, capsys):
    path = tmp_path / "t.json"
    code, _, _ = run_cli(
        ["verify", "--limit", "20000", "--out", str(path), "--timings"], capsys
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert any(c["elapsed_ms"] > 0 for c in payload["checks"])


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


def _synthetic_entries():
    return [
        CheckEntry("a/exact", "settled", "holds"),
        CheckEntry("b/window", "windowed", "holds_on_window", (6, 100)),
        CheckEntry("c/premise", "premise not met", "hypothesis_failed"),
    ]


def test_hypothesis_failed_is_not_a_pass(monkeypatch, capsys):
    from sumcollapse import cli

    monkeypatch.setattr(cli, "run_battery", lambda limit: _synthetic_entries())
    code, out, _ = run_cli(["verify", "--limit", "100", "--format", "json"], capsys)
    payload = json.loads(out)
    assert code == 1
    assert (payload["passed"], payload["failed"]) == (2, 1)
    code, out, _ = run_cli(["verify", "--limit", "100"], capsys)
    assert code == 1
    assert "FAIL c/premise [hypothesis_failed]" in out and "PASS b/window" in out

    monkeypatch.setattr(cli, "_sieve_checks", lambda table: _synthetic_entries())
    code, out, _ = run_cli(["sieve", "--limit", "100", "--check"], capsys)
    assert code == 1
    assert "FAIL c/premise" in out and "PASS a/exact" in out
    code, out, _ = run_cli(["sieve", "--limit", "100", "--check", "--format", "json"], capsys)
    assert code == 1 and json.loads(out)["failed"] == 1


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


def test_collapse_bad_relation(capsys):
    code, _, err = run_cli(["collapse", "--rel", "odd>=3 vs odd>=5"], capsys)
    assert code == 2
    assert "malformed" in err


def test_collapse_bad_set_spec(capsys):
    code, _, err = run_cli(["collapse", "--rel", "odd>=4 ~(2,2)~ odd>=3"], capsys)
    assert code == 2


def test_ring_csv(tmp_path, capsys):
    path = tmp_path / "ring8.csv"
    code, _, _ = run_cli(
        ["ring", "--modulus", "8", "--nmax", "3", "--csv", str(path)], capsys
    )
    assert code == 0
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
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


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sumcollapse.cli", "sieve", "--limit", "1000"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "168" in proc.stdout
