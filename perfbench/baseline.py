"""Cross-check the layers against the baseline figures in ROADMAP.md.

    python3 perfbench/baseline.py

Run from the root of a checkout.  The ROADMAP baseline was measured on a
2-core machine with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1 (single
runs, +-15%).  Inputs here are the baseline's own, never adjusted to match:
a mismatch is printed as MISMATCH and left standing.

It also reports, as a finding and not a check, the Wronskian drift of a
tabulated model whose spline has a kinked a'' (samples of a non-polynomial
a(eta)), which the cosmo-dense workload does not exercise.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from run import machine_facts  # noqa: E402


def timed(fn, *args, repeats: int = 1):
    samples, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), result


def row(name: str, measured: float, low: float, high: float, unit: str) -> None:
    status = "match" if low <= measured <= high else "MISMATCH"
    print(f"  {name:<38} {measured:>11.4g} {unit:<4} baseline {low:g}..{high:g}  {status}")


def frw_checks() -> None:
    from spinorwave.frw import ModeSpec, integrate_mode, radiation, tabulated

    model = radiation()
    for k, steps in ((0.1, 266), (1.0, 496)):
        sol = integrate_mode(model, ModeSpec(k, 1.0, 10.0))
        row(f"radiation steps at k={k}", sol.steps, steps, steps, "")
    seconds, sol = timed(integrate_mode, model, ModeSpec(10.0, 1.0, 10.0), repeats=5)
    row("radiation us/step at k=10", 1e6 * seconds / sol.steps, 80, 120, "us")

    eta = np.linspace(0.9, 10.1, 24)
    a = eta * (1.0 + 0.05 * np.sin(0.7 * eta))
    sol = integrate_mode(tabulated(eta, a), ModeSpec(0.3, 1.0, 10.0))
    print(f"  finding: 24-knot spline of eta*(1+0.05 sin 0.7 eta) at rtol 1e-9: "
          f"{sol.steps} steps, Wronskian drift {sol.wronskian_drift:.3g} (criterion-7 "
          f"bound 1e-8)")


def em_checks() -> None:
    from spinorwave.em import (BivectorField, read_bivector_csv, spinors_from_bivector,
                               write_bivector_csv, write_wavefunction_csv)

    rows = 100_000
    rng = np.random.default_rng(0)
    points = rng.uniform(-1.0, 1.0, (rows, 4))
    upper = rng.standard_normal((rows, 4, 4))
    field = BivectorField(np.triu(upper, 1) - np.swapaxes(np.triu(upper, 1), -1, -2))
    seconds, text = timed(write_bivector_csv, points, field)
    row("em write bivector CSV, 100k rows", seconds, 1.5 * 0.85, 1.5 * 1.15, "s")
    seconds, (pts, parsed) = timed(read_bivector_csv, text)
    row("em read bivector CSV, 100k rows", seconds, 0.7 * 0.85, 0.7 * 1.15, "s")
    seconds, wf = timed(spinors_from_bivector, parsed)
    row("em convert to spinors, 100k rows", seconds, 0.34 * 0.85, 0.34 * 1.15, "s")
    seconds, _ = timed(write_wavefunction_csv, pts, wf)
    row("em write wave-function CSV, 100k rows", seconds, 1.1 * 0.85, 1.1 * 1.15, "s")


def main() -> int:
    print("machine " + " ".join(f"{k}={v}" for k, v in machine_facts().items()))
    frw_checks()
    em_checks()
    return 0


if __name__ == "__main__":
    sys.exit(main())
