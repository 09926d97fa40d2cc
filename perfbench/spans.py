"""In-memory spans around calls into the spinorwave layers.

The benchmark traces from its own files: ``instrument`` temporarily
replaces the layer functions that the CLI reaches (module attributes that
are looked up at call time) with wrappers that record a span per call, and
restores them afterwards.  The program's code runs unchanged, so a traced
run writes the same bytes as an untraced one.  Spans inside the program
are a later change.

A span is (id, name, layer, start, end, parent, run).  A layer's self time
is the time its spans cover minus the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import time
from collections import defaultdict


# Layers that carry spans.  core is reached only through suites and em,
# so its time counts as theirs.
LAYERS = ("cli", "suites", "symbolic", "em", "frw")


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        record = {"id": len(self.spans), "name": name, "layer": layer,
                  "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "run": self.run_id}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def wrap(self, layer: str, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            with self.span(layer, name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return traced

    def durations(self) -> dict[str, float]:
        """Total inclusive time per span name."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"]
        return out

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span time not covered by child spans."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["layer"]] += s["end"] - s["start"] - child_time[s["id"]]
        return out


def _patch(stack: contextlib.ExitStack, owner, name: str, value) -> None:
    original = getattr(owner, name)
    setattr(owner, name, value)
    stack.callback(setattr, owner, name, original)


def _counted_model(tracer: Tracer, model):
    """The same ScaleFactorModel with callables that count calls and time.

    Every rhs evaluation calls a_second exactly once, and nothing else in
    the mode solver does, so its count is the rhs evaluation count.
    """
    counters = tracer.counters

    def counted(fn, key):
        def call(eta):
            t0 = time.perf_counter()
            value = fn(eta)
            counters["model_eval_s"] += time.perf_counter() - t0
            counters[key] += 1
            return value

        return call

    return dataclasses.replace(model, a=counted(model.a, "a_evals"),
                               a_prime=counted(model.a_prime, "a_prime_evals"),
                               a_second=counted(model.a_second, "a_second_evals"))


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the layer functions the CLI subcommands call, for one block."""
    frw = importlib.import_module("spinorwave.frw")
    spectrum_mod = importlib.import_module("spinorwave.frw.spectrum")
    symbolic = importlib.import_module("spinorwave.symbolic")
    corpus = importlib.import_module("spinorwave.symbolic.corpus")
    rewrite = importlib.import_module("spinorwave.symbolic.rewrite")
    canon = importlib.import_module("spinorwave.symbolic.canon")
    parse = importlib.import_module("spinorwave.symbolic.parse")
    suites = importlib.import_module("spinorwave.suites")
    em = importlib.import_module("spinorwave.em")
    c = tracer.counters

    def on_mode(sol, *args, **kwargs):
        c["steps"] += sol.steps
        c["steps_max_mode"] = max(c["steps_max_mode"], sol.steps)

    def on_rewrite(result, *args, **kwargs):
        expr, trace = result
        c["rule_firings"] += len(trace)
        c["terms_after_rewrite"] += len(expr.terms)

    def on_component_map(result, *args, **kwargs):
        c["component_map_symbols"] += len(result)

    def rows_of(key, rows):
        def on_result(result, *args, **kwargs):
            c[f"{key}_rows"] += rows(result, *args)

        return on_result

    def on_write(key):
        def on_result(text, points, *rest):
            c[f"{key}_rows"] += len(points)
            c["bytes_written"] += len(text.encode("utf-8"))

        return on_result

    model_from_config = spectrum_mod.model_from_config
    with contextlib.ExitStack() as stack:
        _patch(stack, frw, "spectrum_from_config",
               tracer.wrap("frw", "frw.spectrum_from_config", frw.spectrum_from_config))
        _patch(stack, spectrum_mod, "model_from_config",
               lambda config: _counted_model(tracer, model_from_config(config)))
        _patch(stack, spectrum_mod, "spectrum",
               tracer.wrap("frw", "frw.spectrum", spectrum_mod.spectrum))
        _patch(stack, spectrum_mod, "integrate_mode",
               tracer.wrap("frw", "frw.integrate_mode", spectrum_mod.integrate_mode, on_mode))
        _patch(stack, spectrum_mod, "render_csv",
               tracer.wrap("frw", "frw.render_csv", spectrum_mod.render_csv))

        _patch(stack, symbolic, "parse_identity_file",
               tracer.wrap("symbolic", "symbolic.parse_identity_file",
                           symbolic.parse_identity_file))
        _patch(stack, symbolic, "run_identity_cases",
               tracer.wrap("symbolic", "symbolic.run_identity_cases",
                           symbolic.run_identity_cases))
        _patch(stack, corpus, "builtin_rules",
               tracer.wrap("symbolic", "symbolic.builtin_rules", corpus.builtin_rules))
        _patch(stack, corpus, "verify_identity",
               tracer.wrap("symbolic", "symbolic.verify_identity", corpus.verify_identity))
        _patch(stack, parse.Parser, "parse_identity",
               tracer.wrap("symbolic", "symbolic.parse_identity", parse.Parser.parse_identity))
        _patch(stack, rewrite, "apply_rules",
               tracer.wrap("symbolic", "symbolic.apply_rules", rewrite.apply_rules, on_rewrite))
        _patch(stack, rewrite, "canonicalize",
               tracer.wrap("symbolic", "symbolic.canonicalize", rewrite.canonicalize))
        _patch(stack, canon, "component_map",
               tracer.wrap("symbolic", "symbolic.component_map", canon.component_map,
                           on_component_map))

        _patch(stack, suites, "run_suites",
               tracer.wrap("suites", "suites.run_suites", suites.run_suites))
        for name, fn in list(suites.SUITES.items()):
            stack.callback(suites.SUITES.__setitem__, name, fn)
            suites.SUITES[name] = tracer.wrap("suites", f"suites.{name}", fn)

        for fn, key, on_result in (
            ("read_bivector_csv", "read_bivector", rows_of("read_bivector", lambda r, t: len(r[0]))),
            ("read_wavefunction_csv", "read_wavefunction",
             rows_of("read_wavefunction", lambda r, t: len(r[0]))),
            ("write_wavefunction_csv", "write_wavefunction", on_write("write_wavefunction")),
            ("write_bivector_csv", "write_bivector", on_write("write_bivector")),
            ("spinors_from_bivector", "to_spinor",
             rows_of("to_spinor", lambda r, field: field.values.shape[0])),
            ("bivector_from_spinors", "to_bivector",
             rows_of("to_bivector", lambda r, wf: wf.phi.shape[0])),
        ):
            _patch(stack, em, fn, tracer.wrap("em", f"em.{key}", getattr(em, fn), on_result))
        yield tracer


def layer_metrics(tracer: Tracer, suite_names: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (cli and trace metrics are added
    by the runner, which knows the untraced timings)."""
    d = tracer.durations()
    c = tracer.counters
    steps = c["steps"]
    m = {
        "frw.integrate_mode_s": d["frw.integrate_mode"],
        "frw.steps": steps,
        "frw.steps_max_mode": c["steps_max_mode"],
        "frw.us_per_step": 1e6 * d["frw.integrate_mode"] / steps if steps else 0.0,
        "frw.rhs_evals": c["a_second_evals"],
        "frw.model_evals": c["a_evals"] + c["a_prime_evals"] + c["a_second_evals"],
        "frw.model_eval_s": c["model_eval_s"],
        "frw.render_s": d["frw.render_csv"],
        "symbolic.rules_s": d["symbolic.builtin_rules"],
        "symbolic.parse_s": d["symbolic.parse_identity"],
        "symbolic.rewrite_s": d["symbolic.apply_rules"],
        "symbolic.canonicalize_s": d["symbolic.canonicalize"],
        "symbolic.component_map_s": d["symbolic.component_map"],
        "symbolic.rule_firings": c["rule_firings"],
        "symbolic.terms_after_rewrite": c["terms_after_rewrite"],
        "symbolic.component_map_symbols": c["component_map_symbols"],
        "em.bytes_written": c["bytes_written"],
    }
    for name in suite_names:
        m[f"suites.{name}_s"] = d[f"suites.{name}"]
    for key in ("read_bivector", "write_wavefunction", "read_wavefunction",
                "write_bivector", "to_spinor", "to_bivector"):
        rows, seconds = c[f"{key}_rows"], d[f"em.{key}"]
        m[f"em.{key}_rows_per_s"] = rows / seconds if seconds else 0.0
    self_times = tracer.self_times()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_times.get(layer, 0.0)
    return m
