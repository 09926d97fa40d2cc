"""Seeded workloads for the spinorwave benchmark.

Each workload turns a seed into input files, the list of ``spinorwave``
CLI invocations that make up one workload run, and the checks that decide
whether an invocation's output is correct.  The program sees only the
generated files.  Work per run is kept nearly independent of the seed (a
fixed number of modes, identities or rows, with the seed moving their
values), so that runs with different seeds can be compared.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

# Criterion-7 quality bounds: relative error of f at eta_end against a
# reference solution, and Wronskian drift.
MAX_REL_ERR = 1e-6
MAX_DRIFT = 1e-8
# The em round trip must reproduce its input to this absolute tolerance.
ROUNDTRIP_TOL = 1e-12

SPECTRUM_HEADER = "k,eta_end,re_f,im_f,abs_f2,energy_proxy,wronskian_drift,status"
BIVECTOR_HEADER = "t,x,y,z,F01,F02,F03,F12,F13,F23"
WAVEFUNCTION_HEADER = "t,x,y,z,re_phi00,im_phi00,re_phi01,im_phi01,re_phi11,im_phi11"

# Output paths in invocation arguments are written as OUT + name and are
# resolved against the directory the invocation writes into, so that the
# same invocation can run as a child process and in process.
OUT = "@OUT@/"


class CheckFailed(Exception):
    """An invocation's output is wrong."""


@dataclass
class Invocation:
    """One CLI call: its arguments, expected exit code, output files, and the
    check that its outputs (and stdout) must pass."""

    name: str
    args: list[str]
    exit_code: int
    outputs: list[str]
    check: Callable[[Path, str], None]
    # Per-layer quality metrics read from the outputs (traced run only);
    # a name with ".max_" is merged over invocations by max, others by sum.
    quality: Callable[[Path], dict] | None = None
    # JSON configs written into the output directory before the call, for
    # an invocation that reads an earlier invocation's output.
    configs: dict[str, dict] = field(default_factory=dict)

    def argv(self, out_dir: Path) -> list[str]:
        return [_resolve(a, out_dir) for a in self.args]

    def prepare(self, out_dir: Path) -> None:
        for name, config in self.configs.items():
            resolved = {k: _resolve(v, out_dir) for k, v in config.items()}
            (out_dir / name).write_text(json.dumps(resolved), encoding="utf-8")


def _resolve(arg, out_dir: Path):
    return arg.replace(OUT, f"{out_dir}/") if isinstance(arg, str) else arg


@dataclass
class Plan:
    """Inputs of one seeded workload: its invocations, the number of work
    items one workload run completes, and the item's name."""

    workload: str
    invocations: list[Invocation]
    items: int
    item_name: str
    # Layers whose modules the workload's subcommands import; set-up time
    # is the cold start of an interpreter importing them.
    layers: list[str]


# -- cosmology ---------------------------------------------------------------


def _geometric_triplet_min(kmax: float, total: float) -> float:
    """kmin such that kmin + sqrt(kmin*kmax) + kmax == total.

    Accepted steps grow linearly with k, so a fixed sum of k keeps the
    step count of a three-mode log grid nearly independent of kmax.
    """
    x = (-math.sqrt(kmax) + math.sqrt(kmax + 4.0 * (total - kmax))) / 2.0
    return x * x


def _model_functions(model: dict):
    """a, a', a'' of a config model, written independently of the program
    (the tabulated case builds its own spline from the same knots)."""
    kind, params = model["kind"], model.get("params", {})
    if kind == "radiation":
        a0 = params.get("a0", 1.0)
        return (lambda e: a0 * e), (lambda e: a0), (lambda e: 0.0)
    if kind == "matter":
        a0 = params.get("a0", 1.0)
        return (lambda e: a0 * e * e), (lambda e: 2.0 * a0 * e), (lambda e: 2.0 * a0)
    if kind == "de_sitter":
        h = params.get("hubble", 1.0)
        return (lambda e: -1.0 / (h * e)), (lambda e: 1.0 / (h * e * e)), (
            lambda e: -2.0 / (h * e ** 3))
    if kind == "tabulated":
        from scipy.interpolate import CubicSpline

        s = CubicSpline(np.asarray(params["eta"]), np.asarray(params["a"]))
        d1, d2 = s.derivative(1), s.derivative(2)
        return (lambda e: float(s(e))), (lambda e: float(d1(e))), (lambda e: float(d2(e)))
    raise ValueError(f"unknown model {kind!r}")


def _k_grid(k_grid: dict) -> np.ndarray:
    lo, hi, n = k_grid["min"], k_grid["max"], k_grid["count"]
    return np.geomspace(lo, hi, n) if k_grid["spacing"] == "log" else np.linspace(lo, hi, n)


def reference_modes(config: dict) -> list[tuple[float, complex, float]]:
    """(k, f(eta_end), energy_proxy) for every mode of a cosmo config.

    Radiation modes with positive-frequency data are exact,
    u = exp(-i k eta)/sqrt(2k).  Every other case is integrated for
    u = a f, u'' = -(k^2 + a''/a) u, with scipy's DOP853 at rtol 1e-12,
    which shares no code with the program's solver.
    """
    from scipy.integrate import solve_ivp

    a, ap, app = _model_functions(config["model"])
    eta0, eta1 = config["eta"]["start"], config["eta"]["end"]
    ic = config["ic"]
    out = []
    for k in _k_grid(config["k_grid"]):
        k = float(k)
        if ic["kind"] == "positive_frequency":
            u0 = np.exp(-1j * k * eta0) / math.sqrt(2.0 * k)
            du0 = -1j * k * u0
        else:
            f0, df0 = complex(*ic["f"]), complex(*ic["df"])
            u0 = a(eta0) * f0
            du0 = ap(eta0) * f0 + a(eta0) * df0
        if config["model"]["kind"] == "radiation" and ic["kind"] == "positive_frequency":
            u1 = np.exp(-1j * k * eta1) / math.sqrt(2.0 * k)
            du1 = -1j * k * u1
        else:
            def rhs(eta, y, k=k):
                return [y[1], -(k * k + app(eta) / a(eta)) * y[0]]

            sol = solve_ivp(rhs, (eta0, eta1), [complex(u0), complex(du0)],
                            method="DOP853", rtol=1e-12, atol=1e-14)
            u1, du1 = sol.y[0, -1], sol.y[1, -1]
        a1, ap1 = a(eta1), ap(eta1)
        f1 = u1 / a1
        fp1 = (du1 - ap1 * f1) / a1
        energy = (abs(fp1) ** 2 + k * k * abs(f1) ** 2) / (2.0 * math.pi * a1 ** 4)
        out.append((k, complex(f1), float(energy)))
    return out


def spectrum_quality(text: str, reference: list, eta_end: float) -> dict:
    """Parse a spectrum CSV and measure it against the reference.

    Raises CheckFailed on a schema violation; returns the worst relative
    error, worst drift and number of failed rows.
    """
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != SPECTRUM_HEADER:
        raise CheckFailed("spectrum header or trailing newline wrong")
    rows = lines[1:-1]
    if len(rows) != len(reference):
        raise CheckFailed(f"spectrum has {len(rows)} rows, expected {len(reference)}")
    worst_err = worst_drift = 0.0
    failed = 0
    for row, (k, f_ref, energy_ref) in zip(rows, reference):
        cells = row.split(",")
        if len(cells) != 8:
            raise CheckFailed(f"spectrum row has {len(cells)} cells")
        if float(cells[0]) != k or float(cells[1]) != eta_end:
            raise CheckFailed(f"row k={cells[0]} eta_end={cells[1]} off the grid")
        if cells[7] != "ok":
            failed += 1
            continue
        re_f, im_f, abs_f2, energy, drift = (float(c) for c in cells[2:7])
        f = complex(re_f, im_f)
        if abs(abs_f2 - abs(f) ** 2) > 1e-12 * abs(f) ** 2:
            raise CheckFailed(f"abs_f2 inconsistent with f at k={k}")
        err = max(abs(f - f_ref) / abs(f_ref), abs(energy - energy_ref) / energy_ref)
        # NaN must count as the worst error, not be skipped by max().
        worst_err = err if not err <= worst_err else worst_err
        worst_drift = drift if not drift <= worst_drift else worst_drift
    return {"max_rel_err": worst_err, "max_wronskian_drift": worst_drift,
            "failed_modes": failed}


def _cosmo_invocation(name: str, config: dict, work: Path) -> Invocation:
    config_path = work / f"{name}.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    reference = reference_modes(config)
    eta_end = config["eta"]["end"]

    def measure(out_dir: Path) -> dict:
        text = (out_dir / f"{name}.csv").read_text(encoding="utf-8")
        return spectrum_quality(text, reference, eta_end)

    def quality(out_dir: Path) -> dict:
        return {f"frw.{key}": value for key, value in measure(out_dir).items()}

    def check(out_dir: Path, stdout: str) -> None:
        q = measure(out_dir)
        if q["failed_modes"]:
            raise CheckFailed(f"{q['failed_modes']} modes failed")
        if not q["max_rel_err"] <= MAX_REL_ERR:
            raise CheckFailed(f"relative error {q['max_rel_err']:.3g} > {MAX_REL_ERR}")
        if not q["max_wronskian_drift"] <= MAX_DRIFT:
            raise CheckFailed(f"Wronskian drift {q['max_wronskian_drift']:.3g} > {MAX_DRIFT}")

    return Invocation(name, ["cosmo", "--config", str(config_path),
                             "--out", f"{OUT}{name}.csv"], 0, [f"{name}.csv"], check,
                      quality)


def cosmo_highk(seed: int, work: Path) -> Plan:
    """Three log-spaced positive-frequency modes per model, the highest at
    k in [30, 36], on radiation (exact reference) and de Sitter, at rtol
    1e-9.  The sum of k per model is fixed at 40, so each model takes about
    20k accepted DP5 steps whatever the seed."""
    rng = np.random.default_rng([seed, 1])
    invocations = []
    for name, model, eta in (
        ("radiation", {"kind": "radiation", "params": {"a0": float(rng.uniform(0.5, 2.0))}},
         {"start": 1.0, "end": 10.0}),
        ("de_sitter", {"kind": "de_sitter", "params": {"hubble": float(rng.uniform(0.5, 2.0))}},
         {"start": -10.0, "end": -0.1}),
    ):
        kmax = float(rng.uniform(30.0, 36.0))
        config = {
            "model": model,
            "k_grid": {"min": _geometric_triplet_min(kmax, 40.0), "max": kmax,
                       "count": 3, "spacing": "log"},
            "eta": eta,
            "ic": {"kind": "positive_frequency"},
            "tol": {"rel": 1e-9, "abs": 1e-12},
        }
        invocations.append(_cosmo_invocation(name, config, work))
    return Plan("cosmo-highk", invocations, 6, "modes", ["spinorwave.frw"])


def _explicit_data(rng: np.random.Generator) -> dict:
    """Complex f, f' whose Wronskian W(u, conj u) is not near zero, so the
    relative drift diagnostic is well conditioned."""
    while True:
        f = complex(*rng.uniform(-1.0, 1.0, 2))
        df = complex(*rng.uniform(-1.0, 1.0, 2))
        if abs((f * df.conjugate()).imag) >= 0.2 * abs(f) * abs(df):
            return {"kind": "explicit", "f": [f.real, f.imag], "df": [df.real, df.imag]}


def cosmo_dense(seed: int, work: Path) -> Plan:
    """Many low-k modes (k <= 1) with explicit data and 2000 stored samples
    each: 6 on a tabulated a(eta) with 2000 knots and 12 on matter, at rtol
    1e-9.

    The tabulated scale factor is a seeded cubic with positive
    coefficients.  The spline reproduces a cubic, so its a'' has no kinks
    and each mode takes a few hundred steps; per-mode overhead, per-point
    spline evaluation, dense output and the drift diagnostic dominate.
    """
    rng = np.random.default_rng([seed, 2])
    knots = np.linspace(0.9, 10.1, 2000)
    c = rng.uniform(0.2, 1.0, 4)
    a = c[0] + c[1] * knots + c[2] * knots ** 2 + 0.1 * c[3] * knots ** 3
    tab = {
        "model": {"kind": "tabulated", "params": {"eta": knots.tolist(), "a": a.tolist()}},
        "k_grid": {"min": float(rng.uniform(0.02, 0.04)), "max": float(rng.uniform(0.8, 1.0)),
                   "count": 6, "spacing": "log"},
        "eta": {"start": 1.0, "end": 10.0},
        "ic": _explicit_data(rng),
        "tol": {"rel": 1e-9, "abs": 1e-12},
        "samples": 2000,
    }
    mat = {
        "model": {"kind": "matter", "params": {"a0": float(rng.uniform(0.5, 2.0))}},
        "k_grid": {"min": float(rng.uniform(0.02, 0.06)), "max": float(rng.uniform(0.9, 1.0)),
                   "count": 12, "spacing": "lin"},
        "eta": {"start": 1.0, "end": 10.0},
        "ic": _explicit_data(rng),
        "tol": {"rel": 1e-9, "abs": 1e-12},
        "samples": 2000,
    }
    invocations = [_cosmo_invocation("tabulated", tab, work),
                   _cosmo_invocation("matter", mat, work)]
    return Plan("cosmo-dense", invocations, 18, "modes", ["spinorwave.frw"])


# -- identities ----------------------------------------------------------------

# Generated kernel sums per corpus.  Enough that symbolic work, not the
# start-up of the three CLI children, is most of a workload run.
KERNEL_SUMS = 48
# Capital letters that are not kernel names, for relabelling.
_LETTERS = list("ABCDEFGHIJKLNOPQSTUVXYZ")
_GENERIC_KERNELS = ["Ua", "Vb", "Tc", "Kd", "Le", "Nf", "Og", "Qh"]
_BLOCK = re.compile(r"([_^])\{([^}]*)\}")
_LABEL = re.compile(r"[A-Za-z]+'*")


def _fraction_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _random_fraction(rng: np.random.Generator) -> Fraction:
    q = Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10)))
    return -q if rng.random() < 0.3 else q


def _relabel(text: str, rng: np.random.Generator) -> str:
    """Rename every index label consistently: unprimed labels to unprimed
    and primed to primed, each through a random permutation."""
    labels = sorted({t for m in _BLOCK.finditer(text) for t in _LABEL.findall(m.group(2))})
    unprimed = [t for t in labels if not t.endswith("'")]
    primed = [t for t in labels if t.endswith("'")]
    mapping = dict(zip(unprimed, (str(c) for c in rng.permutation(_LETTERS))))
    mapping.update(zip(primed, (f"{c}'" for c in rng.permutation(_LETTERS))))

    def block(m: re.Match) -> str:
        inner = _LABEL.sub(lambda t: mapping[t.group(0)], m.group(2))
        return f"{m.group(1)}{{{inner}}}"

    return _BLOCK.sub(block, text)


def _scaled(text: str, q: Fraction) -> str:
    if text.strip() == "0":
        return "0"
    if text.strip().lstrip("-").isdigit():
        return _fraction_text(q * int(text))
    return f"{_fraction_text(q)} ({text})"


def _decomposition_sum(rng: np.random.Generator, kernels: list[str],
                       mutate: bool) -> str:
    """sum_i c_i K_i{A B} S{C D} == sum_i c_i (K_i{(A B)} + 1/2 eps_{A B}
    K_i{E}^{E}) S{C D}, a derivative-free identity over several distinct
    kernels with a shared spectator factor S, so that component_map
    enumerates five labels per term.  A mutant changes one trace
    coefficient, which makes it false for generic kernels."""
    spectator = kernels[-1]
    lhs, rhs = [], []
    bad = int(rng.integers(0, len(kernels) - 1)) if mutate else -1
    for i, kern in enumerate(kernels[:-1]):
        c = _random_fraction(rng)
        half = c / 2 + (Fraction(1, 3) if i == bad else 0)
        if rng.random() < 0.5:
            lhs.append(f"{_fraction_text(c)} {kern}_{{A B}} {spectator}_{{C D}}")
            rhs.append(f"{_fraction_text(c)} {kern}_{{(A B)}} {spectator}_{{C D}}")
            rhs.append(f"{_fraction_text(half)} eps_{{A B}} {kern}_{{E}}^{{E}} {spectator}_{{C D}}")
        else:
            # the antisymmetric part alone is the trace term
            lhs.append(f"{_fraction_text(c)} {kern}_{{[A B]}} {spectator}_{{C D}}")
            rhs.append(f"{_fraction_text(half)} eps_{{A B}} {kern}_{{E}}^{{E}} {spectator}_{{C D}}")
    def join(terms: list[str]) -> str:
        return " + ".join(terms).replace("+ -", "- ")

    return _relabel(f"{join(lhs)} == {join(rhs)}", rng)


def _corpus_entries(text: str) -> list[tuple[str, str, str]]:
    """(name, rules, identity) of every identity in a corpus file."""
    out, directive = [], None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#@"):
            directive = dict(chunk.split("=", 1) for chunk in line[2:].split())
        elif line and not line.startswith("#"):
            out.append((directive["name"], directive.get("rules", ""), line))
            directive = None
    return out


def generate_identity_corpus(seed: int, shipped: str, negative: str) -> tuple[str, dict]:
    """The generated corpus and the expected status of every entry.

    It holds every shipped identity and mutant, relabelled and rescaled by
    a random rational (status known: ok for identities, failed for
    mutants), and KERNEL_SUMS derivative-free sums over three to five
    kernels, a third of them mutants.
    """
    rng = np.random.default_rng([seed, 3])
    lines, expected = [], {}

    def add(name: str, rules: str, identity: str, status: str) -> None:
        lines.append(f"#@ name={name} rules={rules}")
        lines.append(identity)
        expected[name] = status

    for source, status in ((shipped, "ok"), (negative, "failed")):
        for name, rules, identity in _corpus_entries(source):
            lhs, rhs = identity.split("==")
            q = _random_fraction(rng)
            add(f"{name}_g", rules, _relabel(f"{_scaled(lhs.strip(), q)} == "
                                             f"{_scaled(rhs.strip(), q)}", rng), status)
    for i in range(KERNEL_SUMS):
        count = 3 + i % 3
        kernels = list(rng.permutation(_GENERIC_KERNELS)[: count + 1])
        mutate = i % 3 == 1
        add(f"sum{i}", "", _decomposition_sum(rng, kernels, mutate),
            "failed" if mutate else "ok")
    return "\n".join(lines) + "\n", expected


def _verify_check(expected: dict[str, str], subdir: str):
    def check(out_dir: Path, stdout: str) -> None:
        report = json.loads((out_dir / subdir / "report.json").read_text(encoding="utf-8"))
        got = {e["name"]: e["status"] for e in report["identities"]}
        if list(got) != list(expected):
            raise CheckFailed("verify report lists other identities than the corpus")
        wrong = [n for n in expected if got[n] != expected[n]]
        if wrong:
            raise CheckFailed(f"wrong verify status for {', '.join(wrong)}")
        if report["all_ok"] != all(s == "ok" for s in expected.values()):
            raise CheckFailed("verify all_ok disagrees with the statuses")
        lines = [f"{n}: {s}" for n, s in expected.items()]
        if stdout.splitlines() != lines:
            raise CheckFailed("verify stdout disagrees with the report")

    return check


def _verify_quality(expected: dict[str, str], subdir: str):
    def quality(out_dir: Path) -> dict:
        report = json.loads((out_dir / subdir / "report.json").read_text(encoding="utf-8"))
        got = [(e["status"], expected.get(e["name"])) for e in report["identities"]]
        return {"symbolic.identities_ok": sum(g == e == "ok" for g, e in got),
                "symbolic.mutants_rejected": sum(g == e == "failed" for g, e in got)}

    return quality


def _check_check(out_dir: Path, stdout: str) -> None:
    from spinorwave.suites import SUITES

    report = json.loads((out_dir / "check.json").read_text(encoding="utf-8"))
    names = [s["name"] for s in report["suites"]]
    if names != sorted(SUITES):
        raise CheckFailed("check did not run every suite")
    if report["all_passed"] is not True or not all(s["passed"] for s in report["suites"]):
        raise CheckFailed("check reports a failed suite")


def identities(seed: int, work: Path) -> Plan:
    """verify on a generated corpus (exit 1, it holds mutants), verify on
    the shipped negative corpus (exit 1), then check on all 12 suites."""
    from spinorwave.symbolic import shipped_corpus_text

    shipped = shipped_corpus_text("identities")
    negative = shipped_corpus_text("identities_negative")
    corpus, expected = generate_identity_corpus(seed, shipped, negative)
    (work / "generated.txt").write_text(corpus, encoding="utf-8")
    (work / "negative.txt").write_text(negative, encoding="utf-8")
    for name in ("generated", "negative"):
        (work / f"{name}.json").write_text(
            json.dumps({"identities": str(work / f"{name}.txt")}), encoding="utf-8")
    negative_expected = {name: "failed" for name, _, _ in _corpus_entries(negative)}
    invocations = [
        Invocation("verify-generated", ["verify", "--config", str(work / "generated.json"),
                                        "--out", f"{OUT}generated"], 1, ["generated"],
                   _verify_check(expected, "generated"),
                   _verify_quality(expected, "generated")),
        Invocation("verify-negative", ["verify", "--config", str(work / "negative.json"),
                                       "--out", f"{OUT}negative"], 1, ["negative"],
                   _verify_check(negative_expected, "negative"),
                   _verify_quality(negative_expected, "negative")),
        Invocation("check", ["check", "--seed", str(seed), "--out", f"{OUT}check.json"],
                   0, ["check.json"], _check_check),
    ]
    return Plan("identities", invocations, len(expected) + len(negative_expected),
                "identities", ["spinorwave.symbolic", "spinorwave.suites"])


# -- electromagnetic round trip ------------------------------------------------

EM_ROWS = 20000


def _read_table(text: str, header: str) -> np.ndarray:
    lines = text.split("\n")
    if lines[0] != header or lines[-1] != "":
        raise CheckFailed("CSV header or trailing newline wrong")
    try:
        data = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:-1]])
    except ValueError as exc:
        raise CheckFailed(f"CSV cell is not a number: {exc}") from exc
    width = len(header.split(","))
    if data.shape != (EM_ROWS, width):
        raise CheckFailed(f"CSV has shape {data.shape}, expected {(EM_ROWS, width)}")
    if not np.all(np.isfinite(data)):
        raise CheckFailed("CSV holds non-finite values")
    return data


def em_roundtrip(seed: int, work: Path) -> Plan:
    """em to_spinor on a seeded bivector CSV, then to_bivector on its
    output; the round trip must reproduce the input within 1e-12."""
    rng = np.random.default_rng([seed, 4])
    values = np.hstack([rng.uniform(-1.0, 1.0, (EM_ROWS, 4)),
                        rng.standard_normal((EM_ROWS, 6))])
    lines = [BIVECTOR_HEADER] + [",".join(repr(float(v)) for v in row) for row in values]
    (work / "bivector.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    def check_spinor(out_dir: Path, stdout: str) -> None:
        wf = _read_table((out_dir / "wavefunction.csv").read_text(encoding="utf-8"),
                         WAVEFUNCTION_HEADER)
        if not np.array_equal(wf[:, :4], values[:, :4]):
            raise CheckFailed("wave-function sample points differ from the input")

    def check_bivector(out_dir: Path, stdout: str) -> None:
        back = _read_table((out_dir / "roundtrip.csv").read_text(encoding="utf-8"),
                           BIVECTOR_HEADER)
        err = float(np.max(np.abs(back - values)))
        if not err <= ROUNDTRIP_TOL:
            raise CheckFailed(f"round trip differs from the input by {err:.3g}")

    invocations = [
        Invocation("to_spinor", ["em", "--config", f"{OUT}to_spinor.json",
                                 "--out", f"{OUT}wavefunction.csv"], 0,
                   ["wavefunction.csv"], check_spinor,
                   configs={"to_spinor.json": {"direction": "to_spinor",
                                               "input": str(work / "bivector.csv")}}),
        Invocation("to_bivector", ["em", "--config", f"{OUT}to_bivector.json",
                                   "--out", f"{OUT}roundtrip.csv"], 0,
                   ["roundtrip.csv"], check_bivector,
                   configs={"to_bivector.json": {"direction": "to_bivector",
                                                 "input": f"{OUT}wavefunction.csv"}}),
    ]
    return Plan("em-roundtrip", invocations, 2 * EM_ROWS, "rows", ["spinorwave.em"])


WORKLOADS: dict[str, Callable[[int, Path], Plan]] = {
    "cosmo-highk": cosmo_highk,
    "cosmo-dense": cosmo_dense,
    "identities": identities,
    "em-roundtrip": em_roundtrip,
}
