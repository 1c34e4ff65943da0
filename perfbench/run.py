"""sumcollapse benchmark: end-to-end metrics per workload, or per-layer metrics when traced.

Run from the repository root::

    python3 perfbench/run.py --workload battery --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, one table

The package is run from ``src/`` of this checkout, one fresh process per
step, in a closed loop with one client (see ``workloads.py``).  An untraced
run repeats the workload's step sequence while another pass still fits in
``--seconds`` (at least once) and reports medians over passes:

* ``wall_s``      -- wall time of the step sequence, spawn to exit of each step;
* ``cpu_s``       -- user plus system CPU of the step processes;
* ``peak_rss_mb`` -- the largest step's peak resident set;
* ``setup_s``     -- median time for a fresh process to import ``sumcollapse.cli``
  and build the prime table at the workload's largest limit, sampled
  before the passes and after every step.

A traced run (``--trace 1``) makes one untraced pass and one traced pass,
each step under ``tracer.py``, and reports the per-layer metrics.

Every step's output is checked against expected outcomes; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record (provenance, generated inputs,
every pass, failures) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

CLI_ENTRY = "import sys; from sumcollapse.cli import main; sys.exit(main())"
SETUP_ENTRY = "import sumcollapse.cli; from sumcollapse.sieve import PrimeTable; PrimeTable({limit})"
SETUP_SAMPLES = 5  # at least; one more follows every untraced step
WORKLOADS = ("battery", "relations", "exports")


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    out_bytes: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    steps: list[dict] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("SUMCOLLAPSE_THREADS", None)  # steps run with the default --threads
    return env


def launch(cmd: list[str], tmp: Path, env: dict) -> tuple[int, float, float, float, str]:
    """Run one process to completion through ``launch.py``: exit code, wall s,
    CPU s, peak RSS MB, and its standard output."""
    stdout, stderr, stats = tmp / "stdout", tmp / "stderr", tmp / "launch.json"
    stats.unlink(missing_ok=True)
    with open(stdout, "wb") as fo, open(stderr, "wb") as fe:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"), str(stats), *cmd],
            stdout=fo,
            stderr=fe,
            env=env,
            cwd=ROOT,
            start_new_session=True,
        )
        try:
            proc.wait()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)  # the launcher and the step it started
            proc.wait()
            raise
    s = json.loads(stats.read_text())
    text = stdout.read_text(errors="replace")
    if s["exit"] not in (0, 1):
        text += stderr.read_text(errors="replace")
    return s["exit"], s["wall_s"], s["cpu_s"], s["rss_mb"], text


def step_command(step: workloads.Step, tmp: Path, spans: Path | None) -> list[str]:
    argv = step.argv(tmp)
    if spans is not None:
        return [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans), "--", step.kind, *argv]
    if step.kind == "cli":
        return [sys.executable, "-c", CLI_ENTRY, *argv]
    return [sys.executable, str(HERE / "drivers.py"), *argv]


def run_pass(wl: workloads.Workload, tmp: Path, env: dict, traced: bool, after_step=None) -> Pass:
    p = Pass()
    for i, step in enumerate(wl.steps):
        for name in step.outputs:
            (tmp / name).unlink(missing_ok=True)
        spans = tmp / f"spans-{i}.json" if traced else None
        code, wall, cpu, rss, stdout = launch(step_command(step, tmp, spans), tmp, env)
        p.wall_s += wall
        p.cpu_s += cpu
        p.peak_rss_mb = max(p.peak_rss_mb, rss)
        p.out_bytes += sum((tmp / n).stat().st_size for n in step.outputs if (tmp / n).is_file())
        p.steps.append({"step": step.label, "exit": code, "wall_s": wall, "cpu_s": cpu, "rss_mb": rss})
        try:
            failures = step.check(workloads.StepResult(code, stdout, tmp))
        except (ValueError, IndexError, KeyError, TypeError) as exc:
            failures = [f"{step.label}: output not in the expected form ({exc!r})"] * step.ops
        if traced:
            try:
                p.spans.append(json.loads(spans.read_text()))
            except (OSError, ValueError):
                failures.append(f"{step.label}: no readable span file")
        p.attempted += step.ops
        p.failed += min(len(failures), step.ops)
        p.failures += failures
        if after_step:
            after_step()
    return p


def setup_sample(limit: int, tmp: Path, env: dict) -> float:
    """Wall time of one fresh process that imports the CLI and builds the table."""
    code, wall, _, _, out = launch([sys.executable, "-c", SETUP_ENTRY.format(limit=limit)], tmp, env)
    if code != 0:
        raise RuntimeError(f"set-up process failed with exit code {code}: {out}")
    return wall


def layer_metrics(untraced: Pass, traced: Pass) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from one traced pass and the untraced pass beside it,
    and the spans or counters the tracer could not take."""
    out: dict[str, float] = {}
    span_total = 0.0
    problems = set()
    for spans in traced.spans:
        problems.update(spans["problems"])
        for name, value in tracer.layer_times(spans, spans["metric_of"]).items():
            out[name] = out.get(name, 0.0) + value
        span_total += sum(s["self_s"] for s in spans["spans"])
        for name, value in spans["counters"].items():
            out[name] = out.get(name, 0) + value
    bytes_bound, sumset_s = out.get("intsets.bytes_bound", 0), out.get("intsets.sumset_s", 0)
    out["intsets.bound_rate_gbps"] = bytes_bound / sumset_s / 1e9 if sumset_s else 0.0
    out["cli.self_s"] = traced.wall_s - span_total
    out["cli.out_bytes"] = traced.out_bytes
    out["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    return out, sorted(problems)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
        "loadavg_at_start": list(os.getloadavg()),
    }


def run_workload(
    name: str, seed: int, seconds: int, layer_names=(), tiny: bool = False
) -> dict:
    """Run one workload, traced when ``layer_names`` lists the per-layer
    metrics to report; return the record written to ``perfbench/out``."""
    traced = bool(layer_names)
    record = {"workload": name, "trace": int(traced), "provenance": provenance(seed)}
    wl = workloads.build(name, seed, tiny)
    record["inputs"] = wl.inputs
    env = child_env()
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        # set-up samples are spread between the steps, so that they see the
        # same spells of a busy host as the steps do
        setup_sample(wl.setup_limit, tmp, env)  # warm the file cache
        setup = [setup_sample(wl.setup_limit, tmp, env) for _ in range(2)]

        def sample():
            setup.append(setup_sample(wl.setup_limit, tmp, env))

        passes = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(wl, tmp, env, traced=False, after_step=sample))
            last = time.perf_counter() - t0
            if traced or time.perf_counter() - start + last > seconds:
                break
        while len(setup) < SETUP_SAMPLES:
            sample()
        if traced:
            passes.append(run_pass(wl, tmp, env, traced=True))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    timed = passes[:1] if traced else passes
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in timed),
        "cpu_s": statistics.median(p.cpu_s for p in timed),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in timed),
        "setup_s": statistics.median(setup),
        "fail_share": failed / attempted,
    }
    if traced:
        layers, record["trace_problems"] = layer_metrics(passes[0], passes[1])
        metrics.update({n: layers.get(n, 0) for n in layer_names})
    record.update(
        setup_samples_s=setup,
        passes=[{k: v for k, v in vars(p).items() if k != "spans"} for p in passes],
        samples=len(timed),
        attempted=attempted,
        failed=failed,
        metrics=metrics,
    )
    return record


def _load_spec() -> tuple[dict, dict]:
    """BENCHMARK.json, and its metrics by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def _result_line(records: list[dict], names: list[str], spec: dict, prefix: bool) -> dict:
    metrics = {}
    for rec in records:
        for name in names:
            key = f"{rec['workload']}.{name}" if prefix else name
            metrics[key] = {"value": rec["metrics"][name], "unit": spec[name]["unit"]}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "sumcollapse" / "cli.py").is_file():
        print(f"error: no sumcollapse sources under {SRC}", file=sys.stderr)
        return 2
    try:
        bench, spec = _load_spec()
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in chosen:
        rec = run_workload(name, args.seed, args.seconds, names if args.trace else ())
        records.append(rec)
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(rec, indent=1) + "\n")
        print(f"== {name}: {rec['samples']} timed pass(es), record in {path.relative_to(ROOT)}")
        for failure in (f for p in rec["passes"] for f in p["failures"][:10]):
            print(f"   FAILED {failure}")
        for problem in rec.get("trace_problems", []):
            print(f"   trace: {problem}")
        shown = ["wall_s", "cpu_s", "peak_rss_mb", "setup_s"] + (names if args.trace else [])
        for metric in shown:
            print(f"   {metric:26s} {rec['metrics'][metric]:14.6g} {spec[metric]['unit']}")
        print(f"   {'fail_share':26s} {rec['metrics']['fail_share']:14.6g} "
              f"({rec['failed']} of {rec['attempted']} operations)")
    print(json.dumps(_result_line(records, names, spec, prefix=len(chosen) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
