"""Benchmark runner: drives the real ``spinorwave`` CLI on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ``src``.
Load is closed-loop: one client runs one CLI child at a time (``--jobs 1``).

--trace 0 runs workload runs (every CLI invocation of the workload, in
order) for S seconds as child processes and reports the end-to-end metrics
of BENCHMARK.json.  --trace 1 runs, for S seconds, triples of passes over
the same invocations: child processes, untraced in process, and traced in
process, and reports the per-layer metrics, each a median over the triples
(spans.py).

The speed of the shared host's cores drifts by up to 1.8x within minutes,
each core on its own, and every wall time moves with it.  So the runner,
its children and a fixed reference loop (``reference_loop``, benchmark
code, never the program's) all run on one core, and after every 0.1 s of
a child's run the child is stopped while the reference loop is timed.
Times are reported in reference seconds: seconds the children ran (pauses
excluded) divided by the mean reference timing taken meanwhile, times
REF_SECONDS, the reference loop's usual time on a quiet core of the
benchmark host.  Work the program saves shows in them as it does in wall
time; a core that runs everything slower does not.  ``wall_ref_s`` is the
mean over a run's workload runs; ``setup_s`` is the median of cold starts.
The raw wall and set-up seconds and the workload's throughput in items
per raw second are printed as human-readable lines.

Every invocation's exit code and outputs are checked; a wrong one counts as
failed.  Human-readable lines come first, including error_rate, the machine
facts and the workload's own name for its throughput; the last line of
standard output is the JSON result.  Spans of a traced run are written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import select
import signal
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = HERE / "out"

from workloads import WORKLOADS, CheckFailed  # noqa: E402

# What reading a wrong or damaged output can raise.
CHECK_ERRORS = (CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError)

# Iterations of the reference loop, and its median time in seconds on a
# quiet core of the benchmark host (Intel Xeon, 2.0 GHz, 2 vCPUs): the
# unit that reference seconds are counted in.
REF_ITERATIONS = 8_000
REF_SECONDS = 0.013
# A CLI child is stopped for one reference timing after each such run time.
PAUSE_EVERY_S = 0.1
# Cold-start samples per run; set-up time is their median.
SETUP_REPEATS = 5
# A child that runs longer than this is killed and counts as failed.
CHILD_TIMEOUT_S = 150.0


def machine_facts() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
             "python": platform.python_version()}
    for package in ("numpy", "scipy", "click"):
        facts[package] = metadata.version(package)
    return facts


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def reference_loop() -> float:
    """Wall time of a fixed piece of interpreter work, the yardstick that
    child run times are divided by.  Its mix resembles the program's:
    float arithmetic, small numpy arrays, float formatting, dict stores."""
    import numpy as np

    y = np.linspace(0.0, 1.0, 4)
    acc, table = 0.0, {}
    t0 = time.perf_counter()
    for i in range(REF_ITERATIONS):
        x = i * 1e-3
        acc = acc * 0.999 + x * x
        y = y * 0.999 + x
        if i % 4 == 0:
            table[i % 64] = repr(acc)
    return time.perf_counter() - t0


def run_child(cmd: list[str], log_dir: Path,
              pause_every: float | None = None) -> tuple[int, str, float, list[float], int]:
    """Run one child; returns (exit code, stdout, seconds it ran, reference
    timings, peak RSS in KiB).

    With ``pause_every``, the reference loop is timed once before the start
    and then once each time the child has run that many seconds, with the
    child stopped meanwhile; the seconds it ran exclude those pauses.
    """
    refs = [reference_loop()] if pause_every else []
    with open(log_dir / "stdout", "wb") as out, open(log_dir / "stderr", "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        ran, status = 0.0, None
        try:
            while status is None:
                t0 = time.perf_counter()
                ready, _, _ = select.select([pidfd], [], [], pause_every or CHILD_TIMEOUT_S)
                ran += time.perf_counter() - t0
                if not ready and (ran >= CHILD_TIMEOUT_S or not pause_every):
                    os.kill(proc.pid, signal.SIGKILL)
                elif not ready:
                    os.kill(proc.pid, signal.SIGSTOP)
                    _, stopped, usage = os.wait4(proc.pid, os.WUNTRACED)
                    if not os.WIFSTOPPED(stopped):
                        status = stopped  # it exited before the stop took effect
                        break
                    refs.append(reference_loop())
                    os.kill(proc.pid, signal.SIGCONT)
                    continue
                _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
            if status is None:  # interrupted: do not leave the child behind
                os.kill(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    stdout = (log_dir / "stdout").read_text(encoding="utf-8", errors="replace")
    return code, stdout, ran, refs, usage.ru_maxrss


def measure_setup(layers: list[str], log_dir: Path) -> tuple[float, float]:
    """Median cold start of a fresh interpreter importing the CLI and the
    layers the workload's subcommands load, in reference seconds and in
    raw seconds."""
    code = "import " + ", ".join(["spinorwave.cli"] + layers)
    ref_s, raw_s = [], []
    for _ in range(SETUP_REPEATS):
        rc, _, wall, refs, _ = run_child([sys.executable, "-c", code], log_dir, PAUSE_EVERY_S)
        if rc != 0:
            raise RuntimeError(f"importing the program failed: {code}")
        ref_s.append(REF_SECONDS * wall / statistics.fmean(refs))
        raw_s.append(wall)
    return statistics.median(ref_s), statistics.median(raw_s)


def output_bytes(inv, out_dir: Path, stdout: str) -> bytes:
    """Digest of an invocation's output files and stdout."""
    h = hashlib.sha256(stdout.encode("utf-8"))
    for name in inv.outputs:
        path = out_dir / name
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            h.update(f.relative_to(out_dir).as_posix().encode() + b"\0")
            h.update(f.read_bytes() if f.exists() else b"<missing>")
    return h.digest()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Outcome:
    """Attempted and failed invocations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, name: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{name}: {reason}")


def verdict(inv, code: int, stdout: str, out_dir: Path) -> str | None:
    """None if the invocation did what it must, else the reason it failed."""
    if code != inv.exit_code:
        return f"exit code {code}, expected {inv.exit_code}"
    try:
        inv.check(out_dir, stdout)
    except CHECK_ERRORS as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def cli_pass(plan, out_dir: Path, outcome: Outcome,
             digests: dict) -> tuple[float, list[float], int]:
    """All invocations once as child processes; returns (seconds the
    children ran, reference timings taken meanwhile, peak RSS KiB).

    ``digests`` holds each invocation's output digest from the first pass;
    later passes must reproduce it byte for byte.
    """
    fresh_dir(out_dir)
    wall, refs, rss = 0.0, [], 0
    for inv in plan.invocations:
        inv.prepare(out_dir)
        cmd = [sys.executable, "-m", "spinorwave.cli"] + inv.argv(out_dir)
        code, stdout, seconds, timings, peak = run_child(cmd, out_dir.parent, PAUSE_EVERY_S)
        wall += seconds
        refs += timings
        rss = max(rss, peak)
        reason = verdict(inv, code, stdout, out_dir)
        if reason is None:
            digest = output_bytes(inv, out_dir, stdout)
            if digests.setdefault(inv.name, digest) != digest:
                reason = "outputs differ from the first run's bytes"
        outcome.record(inv.name, reason)
    return wall, refs, rss


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in this process; returns (exit code, stdout)."""
    from spinorwave.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            main.main(args=argv, prog_name="spinorwave", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return code, stdout.getvalue()


def run_untraced(plan, seconds: float, work: Path, outcome: Outcome) -> dict:
    walls, refs, rss, digests = [], [], 0, {}
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        wall, timings, peak = cli_pass(plan, work / "cli", outcome, digests)
        walls.append(wall)
        refs += timings
        rss = max(rss, peak)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    wall_ref_s = REF_SECONDS * statistics.fmean(walls) / statistics.fmean(refs)
    wall_s = statistics.median(walls)
    return {"wall_ref_s": wall_ref_s, "items_per_ref_s": plan.items / wall_ref_s,
            "wall_s": wall_s, "items_per_s": plan.items / wall_s,
            "peak_rss_mb": rss / 1024.0, "runs": len(walls)}


def inprocess_pass(plan, out_dir: Path, tracer=None) -> tuple[float, list]:
    """All invocations once through the CLI in this process, inside a cli
    span when traced.  Returns (wall, [(invocation, exit code, stdout)])."""
    fresh_dir(out_dir)
    wall, results = 0.0, []
    for inv in plan.invocations:
        inv.prepare(out_dir)
        t0 = time.perf_counter()
        with tracer.span("cli", "cli.main") if tracer else contextlib.nullcontext():
            code, stdout = call_cli(inv.argv(out_dir))
        wall += time.perf_counter() - t0
        results.append((inv, code, stdout))
    return wall, results


def traced_triple(plan, work: Path, outcome: Outcome, digests: dict, run_id: str):
    """Child processes, then untraced and traced in-process passes over the
    same invocations.  Returns (per-layer metrics, tracer)."""
    from spans import Tracer, instrument, layer_metrics
    from spinorwave.suites import SUITES

    cli_wall, _, _ = cli_pass(plan, work / "cli", outcome, digests)
    plain_wall, _ = inprocess_pass(plan, work / "plain")
    tracer = Tracer(run_id)
    traced_dir = work / "traced"
    with instrument(tracer):
        traced_wall, results = inprocess_pass(plan, traced_dir, tracer)

    quality: dict[str, float] = {"frw.max_rel_err": 0.0, "frw.max_wronskian_drift": 0.0,
                                 "frw.failed_modes": 0, "symbolic.identities_ok": 0,
                                 "symbolic.mutants_rejected": 0}
    for inv, code, stdout in results:
        reason = verdict(inv, code, stdout, traced_dir)
        if reason is None and output_bytes(inv, traced_dir, stdout) != digests.get(inv.name):
            reason = "traced outputs differ from the CLI outputs"
        outcome.record(f"traced {inv.name}", reason)
        if inv.quality is None:
            continue
        try:
            measured = inv.quality(traced_dir)
        except CHECK_ERRORS:
            continue  # unreadable output, already counted as failed
        for name, value in measured.items():
            quality[name] = max(quality[name], value) if ".max_" in name \
                else quality[name] + value

    metrics = layer_metrics(tracer, sorted(SUITES))
    metrics.update(quality)
    layer_time = sum(s["end"] - s["start"] for s in tracer.spans
                     if s["parent"] is not None and tracer.spans[s["parent"]]["name"] == "cli.main")
    metrics["cli.overhead_s"] = cli_wall - layer_time
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.spans"] = len(tracer.spans)
    return metrics, tracer


def run_traced(plan, seconds: float, work: Path, outcome: Outcome, seed: int) -> dict:
    for module in ["spinorwave.cli"] + plan.layers:  # imports are paid before timing
        importlib.import_module(module)
    passes, spans, digests = [], [], {}
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        metrics, tracer = traced_triple(plan, work, outcome, digests,
                                        f"{plan.workload}-{seed}-{len(passes)}")
        passes.append(metrics)
        spans.extend(tracer.spans)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    OUT_ROOT.mkdir(exist_ok=True)
    (OUT_ROOT / f"spans-{plan.workload}-seed{seed}.json").write_text(
        json.dumps(spans), encoding="utf-8")
    merged = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    merged["runs"] = len(passes)
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spinorwave" / "cli.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    facts = machine_facts()
    # The speed of each core drifts on its own, so the children and the
    # reference loop all run on one core.
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    work = fresh_dir(OUT_ROOT / f"work-{os.getpid()}")
    outcome = Outcome()
    try:
        plan = WORKLOADS[args.workload](args.seed, fresh_dir(work / "inputs"))
        if args.trace:
            values = run_traced(plan, args.seconds, work, outcome, args.seed)
        else:
            setup_s, setup_raw_s = measure_setup(plan.layers, work)
            values = run_untraced(plan, args.seconds, work, outcome)
            values["setup_s"], values["setup_raw_s"] = setup_s, setup_raw_s
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in metric_specs if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 2
    print(f"workload {plan.workload} seed {args.seed} trace {args.trace}: "
          f"{values['runs']} workload runs of {len(plan.invocations)} invocations")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()) + f" (ran on cpu {core})")
    print(f"  error_rate = {outcome.failed / outcome.attempted:.6g} "
          f"({outcome.failed} of {outcome.attempted} invocations failed)")
    for reason in outcome.reasons:
        print(f"  FAILED {reason}")
    if not args.trace:
        print(f"  raw wall_s = {values['wall_s']:.6g} s, raw setup_s = "
              f"{values['setup_raw_s']:.6g} s (both move with host speed)")
        print(f"  raw {plan.item_name}_per_s = {values['items_per_s']:.6g} "
              f"({plan.items} {plan.item_name} per workload run)")
    for m in metric_specs:
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
