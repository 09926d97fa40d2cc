"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that the input generators are
deterministic per seed, that each output check accepts the program's real
output and rejects a corrupted one (a flipped verify status, a perturbed
spectrum cell, a truncated CSV, a failed suite), and that the count metrics
of a traced pass repeat exactly.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from run import OUT_ROOT, fresh_dir, inprocess_pass, verdict  # noqa: E402
from spans import Tracer, instrument, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def input_files(plan, work: Path) -> dict[str, bytes]:
    """Generated files and invocation arguments, with the directory they
    were generated in replaced by a placeholder."""
    files = {p.name: p.read_bytes().replace(str(work).encode(), b"@WORK@")
             for p in sorted(work.iterdir())}
    files["@args@"] = json.dumps([i.args for i in plan.invocations]).replace(
        str(work), "@WORK@").encode()
    return files


def test_generators_deterministic(tmp: Path) -> None:
    for name, make in WORKLOADS.items():
        runs = []
        for seed, sub in ((SEED, "a"), (SEED, "b"), (SEED + 1, "c")):
            work = fresh_dir(tmp / name / sub)
            runs.append(input_files(make(seed, work), work))
        assert runs[0] == runs[1], f"{name}: same seed gave different inputs"
        assert runs[0] != runs[2], f"{name}: different seeds gave the same inputs"
        print(f"ok  {name}: inputs are deterministic per seed")


def _corrupt_verify(out: Path) -> None:
    path = out / "generated" / "report.json"
    report = json.loads(path.read_text())
    entry = report["identities"][0]
    entry["status"] = "failed" if entry["status"] == "ok" else "ok"
    path.write_text(json.dumps(report))


def _corrupt_spectrum(out: Path) -> None:
    path = out / "tabulated.csv"
    lines = path.read_text().split("\n")
    cells = lines[3].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-5))
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines))


def _truncate(name: str):
    def corrupt(out: Path) -> None:
        path = out / name
        path.write_text("\n".join(path.read_text().split("\n")[:-50]) + "\n")

    corrupt.__name__ = f"truncated {name}"
    return corrupt


def _corrupt_check(out: Path) -> None:
    path = out / "check.json"
    report = json.loads(path.read_text())
    report["suites"][0]["passed"] = False
    report["all_passed"] = False
    path.write_text(json.dumps(report))


# (workload, invocation, corruption) triples; each check must reject its
# corruption.
CORRUPTIONS = [
    ("identities", "verify-generated", _corrupt_verify),
    ("identities", "check", _corrupt_check),
    ("cosmo-dense", "tabulated", _corrupt_spectrum),
    ("em-roundtrip", "to_spinor", _truncate("wavefunction.csv")),
    ("em-roundtrip", "to_bivector", _truncate("roundtrip.csv")),
]


def test_checks_reject_corruption(tmp: Path) -> None:
    for workload in sorted({w for w, _, _ in CORRUPTIONS}):
        plan = WORKLOADS[workload](SEED, fresh_dir(tmp / workload / "inputs"))
        out = tmp / workload / "out"
        _, results = inprocess_pass(plan, out)
        for inv, code, stdout in results:
            reason = verdict(inv, code, stdout, out)
            assert reason is None, f"{workload} {inv.name}: real output rejected: {reason}"
        by_name = {inv.name: (inv, code, stdout) for inv, code, stdout in results}
        for w, name, corrupt in CORRUPTIONS:
            if w != workload:
                continue
            inv, code, stdout = by_name[name]
            broken = tmp / workload / f"broken-{name}"
            shutil.rmtree(broken, ignore_errors=True)
            shutil.copytree(out, broken)
            corrupt(broken)
            assert verdict(inv, code, stdout, broken) is not None, \
                f"{workload} {name}: {corrupt.__name__} was accepted"
            print(f"ok  {workload} {name}: rejects {corrupt.__name__}")
        inv, code, stdout = results[0]
        assert verdict(inv, code + 1, stdout, out) is not None, "wrong exit code accepted"


def test_counts_repeat(tmp: Path) -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")]
    from spinorwave.suites import SUITES

    for workload in ("cosmo-dense", "identities", "em-roundtrip"):
        plan = WORKLOADS[workload](SEED, fresh_dir(tmp / workload / "inputs"))
        seen = []
        for attempt in range(2):
            tracer = Tracer(f"selftest-{attempt}")
            with instrument(tracer):
                inprocess_pass(plan, tmp / workload / f"traced{attempt}", tracer)
            metrics = layer_metrics(tracer, sorted(SUITES))
            seen.append({k: metrics[k] for k in counts if k in metrics})
        assert seen[0] == seen[1], f"{workload}: counts differ: {seen}"
        nonzero = {k: v for k, v in seen[0].items() if v}
        print(f"ok  {workload}: counts repeat exactly {nonzero}")


def main() -> int:
    tmp = fresh_dir(OUT_ROOT / "selftest")
    try:
        test_generators_deterministic(tmp)
        test_checks_reject_corruption(tmp)
        test_counts_repeat(tmp)
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
