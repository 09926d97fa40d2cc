"""End-to-end CLI behavior: exit codes, reports, file outputs, determinism."""

import contextlib
import copy
import gc
import io
import json
import pathlib
import subprocess
import sys
import tempfile
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorwave.cli import main

CMD = [sys.executable, "-m", "spinorwave.cli"]
GOLDEN = pathlib.Path(__file__).parent / "golden"
BIVECTOR_HEADER = "t,x,y,z,F01,F02,F03,F12,F13,F23"
WAVEFUNCTION_HEADER = "t,x,y,z,re_phi00,im_phi00,re_phi01,im_phi01,re_phi11,im_phi11"


def run_cli(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, timeout=600)


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None

    @property
    def output(self) -> str:
        return self.stdout


def invoke(argv: list[str]) -> Result:
    """Run ``main(argv)`` in this process with stdout and stderr captured.
    A ``SystemExit`` gives the exit code (and is kept as the exception when
    the code is not 0); any other exception is kept with exit code 1."""
    stdout, stderr = io.StringIO(), io.StringIO()
    code, exception = 0, None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            exception = exc if code else None
        except Exception as exc:  # kept for the caller to assert on
            code, exception = 1, exc
    return Result(code, stdout.getvalue(), stderr.getvalue(), exception)


MUTATED_CORPUS = """\
#@ name=wrong_ricci rules=box_extraction,curvature_action,graviton_symbol
(Box + 1/2 R) phi_{A}^{B} + 2 Psi_{A D}^{B C} phi_{C}^{D} == 0
"""

COSMO_CONFIG = {
    "model": {"kind": "radiation", "params": {"a0": 1.0}},
    "k_grid": {"min": 0.2, "max": 5.0, "count": 12, "spacing": "log"},
    "eta": {"start": 1.0, "end": 6.0},
    "ic": {"kind": "positive_frequency"},
    "tol": {"rel": 1e-9, "abs": 1e-12},
}


class TestVerify:
    def test_shipped_corpus_passes(self, tmp_path):
        out = tmp_path / "traces"
        result = run_cli("verify", "--out", str(out))
        assert result.returncode == 0, result.stderr
        report = json.loads((out / "report.json").read_text())
        assert report["all_ok"] is True
        names = {entry["name"] for entry in report["identities"]}
        assert {"splitting", "wave_equation"} <= names
        for entry in report["identities"]:
            assert (out / entry["trace_file"]).exists()

    def test_mutated_coefficient_fails(self, tmp_path):
        corpus = tmp_path / "mutated.txt"
        corpus.write_text(MUTATED_CORPUS)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"identities": str(corpus)}))
        result = run_cli("verify", "--config", str(config))
        assert result.returncode == 1
        assert "wrong_ricci: failed" in result.stdout

    def test_no_numpy_import(self, tmp_path):
        """A ``verify`` run, passing or failing, never imports numpy: it needs
        only ``core.indices`` and the symbolic rewriter.  Nor does it import
        ``dataclasses`` (which loads ``inspect``); the modules ``site``
        loaded before the script starts differ between hosts, so only the
        ones the run adds count."""
        from spinorwave.symbolic import shipped_corpus_text

        corpus = tmp_path / "negative.txt"
        corpus.write_text(shipped_corpus_text("identities_negative"))
        config = tmp_path / "negative.json"
        config.write_text(json.dumps({"identities": str(corpus)}))
        script = (
            "import sys\n"
            "start = set(sys.modules)\n"
            "from spinorwave.cli import main\n"
            "try:\n"
            "    main(sys.argv[1:])\n"
            "finally:\n"
            "    print('dataclasses' in set(sys.modules) - start)\n"
            "    print('click' in sys.modules)\n"
            "    print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
        )
        for args, code in (([], 0), (["--config", str(config)], 1)):
            out = tmp_path / f"out{code}"
            result = subprocess.run(
                [sys.executable, "-c", script, "verify", "--out", str(out), *args],
                capture_output=True, text=True, timeout=120)
            assert result.returncode == code, result.stderr
            assert result.stdout.splitlines()[-1] == "[]"
            assert result.stdout.splitlines()[-2] == "False"
            assert result.stdout.splitlines()[-3] == "False"
            assert (out / "report.json").exists()

    def test_verify_loads_a_fixed_module_set(self, tmp_path):
        """A ``verify`` run, passing or failing, loads ``cli`` and these
        modules of the package and no other: every line they hold is
        compiled by each ``verify`` child."""
        from spinorwave.symbolic import shipped_corpus_text

        corpus = tmp_path / "negative.txt"
        corpus.write_text(shipped_corpus_text("identities_negative"))
        config = tmp_path / "negative.json"
        config.write_text(json.dumps({"identities": str(corpus)}))
        script = (
            "import sys\n"
            "from spinorwave.cli import main\n"
            "try:\n"
            "    main(sys.argv[1:])\n"
            "finally:\n"
            "    print(sorted(m for m in sys.modules if m.split('.')[0] == 'spinorwave'))\n"
        )
        for args, code in (([], 0), (["--config", str(config)], 1)):
            result = subprocess.run(
                [sys.executable, "-c", script, "verify", "--out", str(tmp_path / f"out{code}"),
                 *args], capture_output=True, text=True, timeout=120)
            assert result.returncode == code, result.stderr
            assert result.stdout.splitlines()[-1] == str(
                ["spinorwave", "spinorwave.cli", "spinorwave.core", "spinorwave.core.indices",
                 "spinorwave.errors", "spinorwave.symbolic", "spinorwave.symbolic.canon",
                 "spinorwave.symbolic.corpus", "spinorwave.symbolic.expr",
                 "spinorwave.symbolic.kernels", "spinorwave.symbolic.parse",
                 "spinorwave.symbolic.rewrite", "spinorwave.symbolic.weights"])

    def test_deep_parentheses_are_a_usage_error(self, tmp_path):
        """Parentheses nested past ``parse.MAX_NESTING`` exit 2 with one
        ``error:`` line naming the opening bracket, whatever the recursion
        limit; shallower nesting verifies."""
        for depth, code in ((1000, 2), (50, 0)):
            corpus = tmp_path / f"deep{depth}.txt"
            corpus.write_text("(" * depth + "phi_{A B}" + ")" * depth + " == phi_{A B}\n")
            config = tmp_path / f"deep{depth}.json"
            config.write_text(json.dumps({"identities": str(corpus)}))
            result = invoke(["verify", "--config", str(config)])
            assert result.exit_code == code, result.stderr
            if code == 2:
                [line] = result.stderr.splitlines()
                assert line.startswith("error: ") and "nested deeper than" in line, line
                assert "(at position 100)" in line
            else:
                assert result.stdout == "line1: ok\n"

    def test_rewrite_step_bound_is_a_usage_error(self, tmp_path):
        """n ``Box`` terms under ``box_definition`` take n rewrite steps: 200
        verify, and at 201 a rule still matches after the bound of 200
        steps, which exits 2 with one line, never a ``failed`` status."""
        for n, code in ((200, 0), (201, 2)):
            lhs = " + ".join(f"Box U{k}_{{A}}" for k in range(n))
            rhs = " + ".join(f"nabla_{{X X'}} nabla^{{X X'}} U{k}_{{A}}" for k in range(n))
            corpus = tmp_path / f"box{n}.txt"
            corpus.write_text(f"#@ name=box{n} rules=box_definition\n{lhs} == {rhs}\n")
            config = tmp_path / f"box{n}.json"
            config.write_text(json.dumps({"identities": str(corpus)}))
            result = invoke(["verify", "--config", str(config)])
            assert (result.exit_code, result.stdout, result.stderr) == (code, *(
                ("box200: ok\n", "") if code == 0 else
                ("", "error: box201: rewriting did not finish within 200 steps\n")))

    def test_displaced_operator_indices_weigh_as_their_metric_spinors(self, tmp_path):
        """A raised operator index is the lowered one times a metric spinor,
        weight and all: these identities verify and their sign-flipped forms
        fail, while sides whose weights differ, in w - aw or only as a pair,
        are still refused."""
        identities = [
            ("nabla_{A}^{A'} phi^{A B}", "eps^{A' C'} nabla_{A C'} phi^{A B}"),
            ("nabla^{A A'} phi_{A}^{B}", "eps^{A C} eps^{A' C'} nabla_{C C'} phi_{A}^{B}"),
            ("nabla_{A A'} nabla^{A A'} phi_{C}^{B}",
             "eps^{A D} eps^{A' D'} nabla_{A A'} nabla_{D D'} phi_{C}^{B}"),
        ]
        corpus = tmp_path / "operators.txt"
        corpus.write_text("".join(f"#@ name=ok{n}\n{lhs} == {rhs}\n#@ name=flipped{n}\n"
                                  f"{lhs} == - {rhs}\n" for n, (lhs, rhs) in enumerate(identities)))
        config = tmp_path / "operators.json"
        config.write_text(json.dumps({"identities": str(corpus)}))
        result = invoke(["verify", "--config", str(config)])
        assert (result.exit_code, result.stderr) == (1, "")
        assert result.stdout == "".join(f"ok{n}: ok\nflipped{n}: failed\n" for n in range(3))
        for n, identity in enumerate((
            "nabla_{A A'} Ua^{A'} == phi_{A B} Ub^{B}",  # w - aw: 0 against -1
            "nabla_{A A'} Ua^{A A'} == R",  # (-1/2, -1/2) against (0, 0)
        )):
            corpus = tmp_path / f"unequal{n}.txt"
            corpus.write_text(identity + "\n")
            config = tmp_path / f"unequal{n}.json"
            config.write_text(json.dumps({"identities": str(corpus)}))
            result = invoke(["verify", "--config", str(config)])
            assert (result.exit_code, result.stdout, result.stderr) == (
                2, "", "error: line1: weights differ between sides\n"), identity

    @pytest.mark.parametrize("identity, message", [
        ("Phi^{a} == Phi^{a}", "kernel 'Phi' slot 0 must be written down (at position 0)"),
        ("Ka_{a b} Kb^{b} == Ka_{a}^{b} Kb_{b}",
         "kernel 'Ka' slot 1 must be written down (at position 19)"),
        ("eps_{a b} == eps_{a b}", "metric spinor takes spinor indices only (at position 0)"),
    ])
    def test_world_index_against_its_template_is_one_exact_line(self, tmp_path, identity,
                                                                message):
        # no metric spinor displaces a world index: the line names the
        # kernel and its position, not a metric spinor the text never wrote
        corpus = tmp_path / "world.txt"
        corpus.write_text(identity + "\n")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"identities": str(corpus)}))
        result = invoke(["verify", "--config", str(config)])
        assert (result.exit_code, result.stdout, result.stderr) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("identity, position", [
        ("Ua_{(A B')} == Ua_{A B'}", 9),
        ("Ua_{(A}^{B)} == Ua_{A}^{B}", 10),
        ("theta^{(A}_{C} Ua^{B)C} == theta^{A}_{C} Ua^{B C}", 20),
        ("nabla_{(A A'} Ub_{B)} == nabla_{A A'} Ub_{B}", 19),
    ])
    def test_mixed_group_is_one_exact_line(self, tmp_path, identity, position):
        # a group over indices of two kinds or two variances has no
        # permutation average: it exits 2 where it closes
        corpus = tmp_path / "mixed.txt"
        corpus.write_text(identity + "\n")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"identities": str(corpus)}))
        result = invoke(["verify", "--config", str(config)])
        assert (result.exit_code, result.stdout, result.stderr) == (
            2, "", "error: symmetrization group mixes index kinds or variances "
                   f"(at position {position})\n")

    def test_group_on_trailing_metric_spinors_is_settled(self, tmp_path):
        # a group that closes in a product's trailing metric spinors moves
        # onto the bridged kernel as one written before it does, so the
        # order of the factors does not change what the rules see
        trailing = "Box phi_{X Y} M^{X (A} M^{B) Y}"
        leading = "M^{X (A} M^{B) Y} Box phi_{X Y}"
        corpus = tmp_path / "order.txt"
        corpus.write_text("".join(
            f"#@ name={name} rules=box_extraction,curvature_action,graviton_symbol\n"
            f"{lhs} == {rhs}\n"
            for name, lhs, rhs in (("order", trailing, leading), ("mirror", leading, trailing))))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"identities": str(corpus)}))
        result = invoke(["verify", "--config", str(config)])
        assert (result.exit_code, result.stdout, result.stderr) == (
            0, "order: ok\nmirror: ok\n", "")

    def test_missing_file_is_usage_error(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"identities": str(tmp_path / "nope.txt")}))
        assert run_cli("verify", "--config", str(config)).returncode == 2

    def test_parse_error_is_usage_error(self, tmp_path):
        corpus = tmp_path / "broken.txt"
        corpus.write_text("phi_{A}^{B} ==\n")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"identities": str(corpus)}))
        assert run_cli("verify", "--config", str(config)).returncode == 2

    def test_unsafe_or_repeated_names_are_usage_errors(self, tmp_path):
        """An identity name becomes a trace file name in ``--out``: an empty
        name, one that is not a plain ASCII word, and a repeated one (also
        a repeated default ``line<N>``) exit 2 and write nothing."""
        identity = "eps^{A B} eps_{A B} == 2"
        for n, (corpus, reason) in enumerate((
            (f"#@ name=\n{identity}\n", "bad identity name ''"),
            (f"#@ name=../escaped\n{identity}\n", "bad identity name '../escaped'"),
            (f"#@ name=sub/x\n{identity}\n", "bad identity name 'sub/x'"),
            (f"#@ name=.hidden\n{identity}\n", "bad identity name '.hidden'"),
            (f"#@ name=caf\u00e9\n{identity}\n", "bad identity name"),
            (f"#@ name=dup\n{identity}\n#@ name=dup\n{identity}\n",
             "line 4: identity name 'dup' is already taken"),
            (f"#@ name=line3\n{identity}\n{identity}\n",
             "line 3: identity name 'line3' is already taken"),
        )):
            path = tmp_path / f"names{n}.txt"
            path.write_text(corpus, encoding="utf-8")
            config = tmp_path / f"names{n}.json"
            config.write_text(json.dumps({"identities": str(path)}))
            out = tmp_path / f"case{n}" / "out"
            result = invoke(["verify", "--config", str(config), "--out", str(out)])
            assert result.exit_code == 2, corpus
            [line] = result.stderr.splitlines()
            assert line.startswith("error: ") and reason in line, (corpus, line)
            assert not (tmp_path / f"case{n}").exists()

    def test_directive_without_identity_is_usage_error(self, tmp_path):
        """A ``#@`` directive names and configures the next identity: one that
        another directive or the end of the file follows exits 2 naming the
        directive's line; ``#`` comments may come between."""
        identity = "eps^{A B} eps_{A B} == 2"
        for n, corpus in enumerate((
            f"#@ name=a rules=splitting\n#@ name=b\n{identity}\n",
            f"{identity}\n\n#@ name=c rules=splitting\n# the end\n",
        )):
            path = tmp_path / f"dangling{n}.txt"
            path.write_text(corpus, encoding="utf-8")
            config = tmp_path / f"dangling{n}.json"
            config.write_text(json.dumps({"identities": str(path)}))
            result = invoke(["verify", "--config", str(config)])
            assert result.exit_code == 2, corpus
            [line] = result.stderr.splitlines()
            assert line == f"error: line {2 * n + 1}: directive is not followed by an identity"
            assert result.stdout == ""

        from spinorwave.symbolic import parse_identity_file

        [case] = parse_identity_file(f"#@ name=a rules=splitting\n# note\n\n{identity}\n")
        assert (case.name, case.line_number, case.rule_names) == ("a", 4, ("splitting",))


class TestCheck:
    def test_default_seed_passes(self):
        result = run_cli("check")
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["seed"] == 12345
        assert report["all_passed"] is True
        assert all(s["max_error"] < 1e-10 for s in report["suites"])

    def test_check_loads_a_fixed_module_set(self):
        """A ``check`` run loads ``cli`` and these modules of the package and
        no other: never the rewrite engine, the CSV layer or ``frw``."""
        script = (
            "import sys\n"
            "from spinorwave.cli import main\n"
            "try:\n"
            "    main(sys.argv[1:])\n"
            "finally:\n"
            "    print(sorted(m for m in sys.modules if m.split('.')[0] == 'spinorwave'))\n"
        )
        result = subprocess.run([sys.executable, "-c", script, "check", "--seed", "12345"],
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == str(
            ["spinorwave", "spinorwave.cli", "spinorwave.core", "spinorwave.core.affinity",
             "spinorwave.core.connecting", "spinorwave.core.convention",
             "spinorwave.core.indices", "spinorwave.core.spinor", "spinorwave.em",
             "spinorwave.em.analytic", "spinorwave.em.fields", "spinorwave.errors",
             "spinorwave.suites", "spinorwave.symbolic", "spinorwave.symbolic.evaluate",
             "spinorwave.symbolic.expr", "spinorwave.symbolic.kernels",
             "spinorwave.symbolic.parse", "spinorwave.symbolic.weights"])

    def test_suite_filter(self):
        result = run_cli("check", "--suite", "trace-free")
        report = json.loads(result.stdout)
        assert [s["name"] for s in report["suites"]] == ["trace-free"]

    def test_unknown_suite_is_usage_error(self):
        assert run_cli("check", "--suite", "nonsense").returncode == 2

    def test_unknown_options_are_usage_errors(self):
        # check reads neither option, so it accepts neither; a seed is a
        # non-negative integer
        for option, message in ((["--verbose"], "No such option '--verbose'"),
                                (["--jobs", "2"], "No such option '--jobs'"),
                                (["--seed", "-1"], "Invalid value for '--seed'"),
                                (["--se", "5"], "No such option '--se'")):
            result = run_cli("check", *option)
            assert result.returncode == 2, option
            assert message in result.stderr
            assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("argv, message", [
        (["check", "--seed", "abc"],
         "Invalid value for '--seed': 'abc' is not a non-negative integer"),
        (["verify", "stray"], "Got unexpected extra argument (stray)"),
    ])
    def test_usage_error_is_one_exact_line(self, argv, message):
        result = invoke(argv)
        assert (result.exit_code, result.stdout, result.stderr) == (2, "", f"error: {message}\n")

    def test_verbose_is_a_usage_error_for_verify_and_cosmo(self, tmp_path):
        # neither command has a --verbose flag, and cosmo has no --jobs
        config = tmp_path / "cfg.json"
        config.write_text("{}")
        cosmo = ["cosmo", "--config", str(config), "--out", str(tmp_path / "out.csv")]
        for command, option in ((["verify"], ["--verbose"]), (cosmo, ["--verbose"]),
                                (cosmo, ["--jobs", "2"])):
            result = run_cli(*command, *option)
            assert result.returncode == 2, command + option
            assert f"No such option '{option[0]}'" in result.stderr
            assert "Traceback" not in result.stderr

    def test_repeated_suite_runs_once(self):
        result = invoke(["check", "--suite", "gauge-invariance",
                         "--suite", "trace-free", "--suite", "gauge-invariance"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert [s["name"] for s in report["suites"]] == ["gauge-invariance", "trace-free"]

    def test_click_style_call_matches_main(self):
        """The benchmark runner calls ``main.main(args=..., prog_name=...,
        standalone_mode=False)``; it runs exactly ``main(argv)``."""
        argv = ["check", "--suite", "trace-free", "--seed", "3"]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), pytest.raises(SystemExit) as exc:
            main.main(args=argv, prog_name="spinorwave", standalone_mode=False)
        direct = invoke(argv)
        assert (exc.value.code, stdout.getvalue()) == (direct.exit_code, direct.stdout)
        assert direct.exit_code == 0 and direct.stdout.startswith("{")

    def test_batched_index_displacement_matches_per_draw_loop(self):
        """The suite draws its inputs one draw at a time and checks them as
        one batch; the per-draw loop it replaced gives the same error."""
        from spinorwave import suites
        from spinorwave.core.convention import EPS_UP

        for seed in (12345, 7):
            rng = np.random.default_rng([seed, suites._stable_hash("index-displacement")])
            worst = 0.0
            for _ in range(1000):
                theta = suites.aff.SpinAffinity(
                    rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2)))
                low = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                phi = np.einsum("BX,AX->AB", EPS_UP, 0.5 * (low + low.T))
                dphi = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
                direct, rearranged = suites.aff.covariant_derivative_forms(phi, theta, dphi)
                worst = max(worst, float(np.max(np.abs(direct - rearranged))))
            [result] = suites.run_suites(seed, ["index-displacement"])
            assert result.passed and result.max_error == worst

    def test_corrupted_epsilon_hook_fails(self):
        """``check`` fails, and echoes the seed, when eps^{AB} is sign-flipped
        before the layers import it."""
        code = ("import sys\n"
                "from spinorwave.core import convention\n"
                "convention.EPS_UP = -convention.EPS_UP\n"
                "from spinorwave.cli import run\n"
                "sys.argv = ['spinorwave', 'check']\n"
                "run()\n")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                timeout=600)
        assert result.returncode == 1
        assert "12345" in result.stderr  # offending seed echoed

    def test_wrong_delta_binding_fails_symbolic_numeric(self, monkeypatch):
        """The suite evaluates a delta contraction, so an oracle that binds
        delta to the anti-diagonal matrix fails it."""
        from spinorwave import suites
        from spinorwave.symbolic import KernelTable

        [result] = suites.run_suites(12345, ["symbolic-numeric"])
        assert result.passed

        def wrong_delta_table():
            table = KernelTable()
            delta = table.kernels["delta"]
            table.kernels["delta"] = delta._replace(components=((0, 1), (1, 0)))
            return table

        monkeypatch.setattr(suites, "KernelTable", wrong_delta_table)
        [result] = suites.run_suites(12345, ["symbolic-numeric"])
        assert not result.passed and result.max_error > 1.0

    def test_nan_error_fails_suite(self, monkeypatch):
        from spinorwave import suites

        real = suites.aff.covariant_derivative_forms

        def nan_forms(*args):
            direct, rearranged = real(*args)
            return np.full_like(direct, np.nan), rearranged

        monkeypatch.setattr(suites.aff, "covariant_derivative_forms", nan_forms)
        [result] = suites.run_suites(12345, ["index-displacement"])
        assert result.passed is False
        assert result.max_error == float("inf")


class TestEm:
    def test_roundtrip_through_both_directions(self, tmp_path):
        from spinorwave.em import BivectorField, write_bivector_csv

        rng = np.random.default_rng(5)
        raw = rng.standard_normal((6, 4, 4))
        field = BivectorField(raw - np.swapaxes(raw, -1, -2))
        pts = rng.standard_normal((6, 4))
        src = tmp_path / "field.csv"
        src.write_text(write_bivector_csv(pts, field))

        cfg1 = tmp_path / "to_spinor.json"
        cfg1.write_text(json.dumps({"direction": "to_spinor", "input": str(src)}))
        mid = tmp_path / "wf.csv"
        assert run_cli("em", "--config", str(cfg1), "--out", str(mid)).returncode == 0

        cfg2 = tmp_path / "to_bivector.json"
        cfg2.write_text(json.dumps({"direction": "to_bivector", "input": str(mid)}))
        back = tmp_path / "back.csv"
        assert run_cli("em", "--config", str(cfg2), "--out", str(back)).returncode == 0

        from spinorwave.em import read_bivector_csv

        _, recovered = read_bivector_csv(back.read_text())
        assert np.max(np.abs(recovered.values - field.values)) < 1e-12

    def test_bad_direction_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"direction": "sideways", "input": "x.csv"}))
        assert run_cli("em", "--config", str(cfg), "--out", "y.csv").returncode == 2

    @pytest.mark.parametrize("direction, header, big", [
        ("to_bivector", WAVEFUNCTION_HEADER, "1e308"),
    ])
    def test_overflowing_conversion_is_usage_error(self, tmp_path, direction, header, big):
        """Finite input whose converted values are beyond float range exits 2
        naming its input line (blank lines counted), writes no file and
        prints no numpy warning.  Only ``to_bivector`` can get there: its
        images reach twice the largest cell."""
        src = tmp_path / "in.csv"
        src.write_text(f"{header}\n0,0,0,0,1,0,0,0,0,0\n\n0,0,0,0" + f",{big}" * 6 + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"direction": direction, "input": str(src)}))
        out = tmp_path / "out.csv"
        result = run_cli("em", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 2
        assert result.stderr == "error: line 4: the converted values are beyond float range\n"
        assert not out.exists()

    def test_to_spinor_of_float_max_cells_is_exact(self, tmp_path):
        """Each ``to_spinor`` output part is +-a/2 +- b/2 of two cells, so
        cells of the largest float convert without overflow, and exactly."""
        big = 1.7976931348623157e308
        src = tmp_path / "in.csv"
        src.write_text(f"{BIVECTOR_HEADER}\n0,0,0,0,1,0,0,0,0,0\n\n0,0,0,0" + f",{big}" * 6 + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"direction": "to_spinor", "input": str(src)}))
        out = tmp_path / "out.csv"
        result = run_cli("em", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        from spinorwave.em import read_wavefunction_csv

        _, wf = read_wavefunction_csv(out.read_text())
        half = big / 2
        # phi00 = (F01 - F13 + i F02 - i F23)/2, phi01 = (-F03 + i F12)/2,
        # phi11 = (-F01 - F13 + i F02 + i F23)/2
        assert np.array_equal(wf.phi[0], [[0.5, 0.0], [0.0, -0.5]])
        phi01 = -half + 1j * half
        assert np.array_equal(wf.phi[1], [[0.0, phi01], [phi01, -big + 1j * big]])

    def test_em_never_imports_analytic(self, tmp_path):
        """An ``em`` run in either direction loads the CSV reader and the
        conversions, never ``em.analytic``."""
        script = (
            "import sys\n"
            "from spinorwave.cli import main\n"
            "try:\n"
            "    main(sys.argv[1:])\n"
            "finally:\n"
            "    print(sorted(m for m in sys.modules if m.split('.')[0] == 'spinorwave'))\n"
        )
        for direction, source in (("to_spinor", "bivector.csv"),
                                  ("to_bivector", "wavefunction.csv")):
            cfg = tmp_path / f"{direction}.json"
            cfg.write_text(json.dumps({"direction": direction,
                                       "input": str(GOLDEN / "em" / source)}))
            result = subprocess.run(
                [sys.executable, "-c", script, "em", "--config", str(cfg),
                 "--out", str(tmp_path / f"{direction}.csv")],
                capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            assert result.stdout.splitlines()[-1] == str(
                ["spinorwave", "spinorwave.cli", "spinorwave.core", "spinorwave.core.connecting",
                 "spinorwave.core.convention", "spinorwave.core.indices", "spinorwave.em",
                 "spinorwave.em.csvio", "spinorwave.em.fields", "spinorwave.errors"])

    def test_writers_refuse_non_finite_cells(self):
        from spinorwave.em import (
            BivectorField,
            NonFiniteRowError,
            PhotonWaveFunction,
            write_bivector_csv,
            write_wavefunction_csv,
        )

        points = np.zeros((3, 4))
        phi = np.zeros((3, 2, 2), dtype=complex)
        phi[1, 0, 1] = phi[1, 1, 0] = complex(0.0, np.inf)
        field = np.zeros((3, 4, 4))
        field[2, 0, 1], field[2, 1, 0] = -np.inf, np.inf
        for write, value, row in ((write_wavefunction_csv, PhotonWaveFunction.physical(phi), 1),
                                  (write_bivector_csv, BivectorField(field), 2)):
            with pytest.raises(NonFiniteRowError) as exc:
                write(points, value)
            assert exc.value.row == row
            assert str(exc.value).startswith(f"data row {row + 1}: ")


class TestCosmo:
    def test_radiation_run(self, tmp_path):
        cfg = tmp_path / "cosmo.json"
        cfg.write_text(json.dumps(COSMO_CONFIG))
        out = tmp_path / "spectrum.csv"
        result = run_cli("cosmo", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 0, result.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "k,eta_end,re_f,im_f,abs_f2,energy_proxy,wronskian_drift,status"
        assert len(lines) == 13
        assert all(line.endswith(",ok") for line in lines[1:])

    def test_de_sitter_domain_violation_exits_2(self, tmp_path):
        bad = dict(COSMO_CONFIG)
        bad["model"] = {"kind": "de_sitter", "params": {"hubble": 1.0}}
        bad["eta"] = {"start": -5.0, "end": 1.0}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        assert run_cli("cosmo", "--config", str(cfg), "--out", str(tmp_path / "x.csv")).returncode == 2

    def test_malformed_config_exits_2(self, tmp_path):
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("t,x,y,z,F01,F02,F03,F12,F13,F23\n"
                           "0,0,0,0,1,2,3,4,5,6\n\n"
                           "0,0,0,0,1,2,three,4,5,6\n")
        cases = [
            ("cosmo", "{not json", "malformed JSON"),
            ("em", "[1, 2]", "JSON object"),
            ("em", json.dumps({"direction": "to_spinor", "input": str(bad_csv)}), "line 4"),
            ("verify", json.dumps({"identities": 5}), "identities"),
            ("cosmo", json.dumps(dict(COSMO_CONFIG, model="radiation")), "model"),
            ("cosmo", json.dumps(dict(COSMO_CONFIG, tol={"rel": -1})), "tolerances"),
            ("cosmo", json.dumps(dict(COSMO_CONFIG, tol={"rel": float("inf")})), "tolerances"),
            ("cosmo", json.dumps(dict(COSMO_CONFIG, tol={"rel": 0, "abs": 0})), "both be zero"),
        ]
        # Non-finite or non-integral values, each rejected before any mode is
        # integrated (json.dumps writes NaN and Infinity, which json.load reads).
        nan, inf = float("nan"), float("inf")
        grid = COSMO_CONFIG["k_grid"]
        explicit = {"kind": "explicit", "f": [1.0, 0.0], "df": [0.0, 1.0]}
        for changes, reason in (
            ({"k_grid": dict(grid, max=inf)}, "finite"),
            ({"k_grid": dict(grid, max=nan)}, "finite"),
            ({"k_grid": dict(grid, count=2.7)}, "integer"),
            ({"samples": 2.5}, "integer"),
            ({"model": {"kind": "radiation", "params": {"a0": nan}}}, "a0"),
            ({"model": {"kind": "matter", "params": {"a0": inf}}}, "a0"),
            ({"model": {"kind": "de_sitter", "params": {"hubble": 1e-320}},
              "eta": {"start": -5.0, "end": -1.0}}, "finite"),
            # a' = 1/(H eta^2) with eta^2 or H eta underflowed to 0
            ({"model": {"kind": "de_sitter"}, "k_grid": {"min": 1, "max": 1, "count": 1},
              "eta": {"start": -1.0, "end": -1e-200}}, "finite"),
            ({"model": {"kind": "de_sitter"}, "k_grid": {"min": 1, "max": 1, "count": 0},
              "eta": {"start": -1.0, "end": -1e-200}}, "finite"),
            ({"model": {"kind": "de_sitter", "params": {"hubble": 1e-300}},
              "eta": {"start": -1.0, "end": -1e-30}}, "finite"),
            ({"ic": dict(explicit, f=[nan, 0.0])}, "initial data"),
            ({"ic": dict(explicit, df=[0.0, nan])}, "initial data"),
        ):
            cases.append(("cosmo", json.dumps(dict(COSMO_CONFIG, **changes)), reason))
        cases.append(("cosmo", json.dumps(dict(COSMO_CONFIG, k_grid=dict(grid, count=2**16 + 1))),
                      "from 0 to 65536"))
        cases.append(("cosmo", json.dumps(dict(COSMO_CONFIG, k_grid=dict(grid, count=10**400))),
                      "from 0 to 65536"))
        cases.append(("cosmo", json.dumps(dict(COSMO_CONFIG, k_grid=dict(grid, count=7)))
                      .replace('"count": 7', '"count": 1' + "0" * 5000), "malformed JSON"))
        # Every CSV cell must be finite; the message names the file line
        # (blank lines counted) and the first bad cell.
        for name, header, rows, reason in (
            ("nan_field", "t,x,y,z,F01,F02,F03,F12,F13,F23",
             "0,0,0,0,1,2,3,4,5,6\n0,0,0,0,1,nan,3,4,5,6\n", "line 3: 'nan' is not a finite"),
            ("inf_point", "t,x,y,z,F01,F02,F03,F12,F13,F23",
             "\n0,0,-inf,0,1,2,3,4,5,6\n", "line 3: '-inf' is not a finite"),
            ("inf_phi", "t,x,y,z,re_phi00,im_phi00,re_phi01,im_phi01,re_phi11,im_phi11",
             "0,0,0,0,1,0,0,0,0,0\n\n0,0,0,0,1,0,inf,0,0,0\n", "line 4: 'inf' is not a finite"),
        ):
            path = tmp_path / f"{name}.csv"
            path.write_text(f"{header}\n{rows}")
            direction = "to_bivector" if name == "inf_phi" else "to_spinor"
            cases.append(("em", json.dumps({"direction": direction, "input": str(path)}), reason))
        # Input files must be UTF-8.
        latin = tmp_path / "latin1.txt"
        latin.write_bytes("eps^{A B} eps_{A B} == 2  # \xe9\n".encode("latin-1"))
        cases.append(("verify", json.dumps({"identities": str(latin)}),
                      "cannot read identity file"))
        cases.append(("em", json.dumps({"direction": "to_spinor", "input": str(latin)}),
                      "cannot read input file"))
        for n, (command, text, reason) in enumerate(cases):
            cfg = tmp_path / f"bad{n}.json"
            cfg.write_text(text)
            args = [command, "--config", str(cfg)]
            if command != "verify":
                args += ["--out", str(tmp_path / f"x{n}")]
            result = run_cli(*args)
            assert result.returncode == 2, (text, result.stderr)
            [line] = result.stderr.splitlines()
            assert line.startswith("error: ") and reason in line, (text, line)

    def test_failed_mode_reason_on_stderr(self, tmp_path, monkeypatch):
        import importlib

        from spinorwave.errors import IntegrationError

        spectrum_mod = importlib.import_module("spinorwave.frw.spectrum")

        def failing(model, spec):
            raise IntegrationError("tolerance not met", last_eta=2.5)

        monkeypatch.setattr(spectrum_mod, "integrate_mode", failing)
        cfg = tmp_path / "cosmo.json"
        cfg.write_text(json.dumps(
            dict(COSMO_CONFIG, k_grid={"min": 0.5, "max": 2.0, "count": 2})))
        out = tmp_path / "spectrum.csv"
        result = invoke(["cosmo", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 1
        assert result.stderr == (
            "k=0.5: tolerance not met (last_eta=2.5)\n"
            "k=2.0: tolerance not met (last_eta=2.5)\n"
        )
        assert out.read_text() == (
            "k,eta_end,re_f,im_f,abs_f2,energy_proxy,wronskian_drift,status\n"
            "0.5,6.0,nan,nan,nan,nan,nan,failed\n"
            "2.0,6.0,nan,nan,nan,nan,nan,failed\n"
        )

    @pytest.mark.parametrize("hubble", [1e-300, 1e300])
    def test_endpoint_overflow_is_a_failed_mode(self, tmp_path, hubble):
        """A de Sitter mode whose |f|^2 or a^4 at eta_end is beyond float
        range is a failed row with its reason on stderr, not a traceback."""
        cfg = tmp_path / "cosmo.json"
        cfg.write_text(json.dumps({
            "model": {"kind": "de_sitter", "params": {"hubble": hubble}},
            "k_grid": {"min": 1, "max": 2, "count": 2},
            "eta": {"start": -2.0, "end": -1.0}}))
        out = tmp_path / "spectrum.csv"
        result = invoke(["cosmo", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        reason = "abs_f2 or energy_proxy out of float range at eta_end (last_eta=-1.0)"
        assert result.stderr == f"k=1.0: {reason}\nk=2.0: {reason}\n"
        assert out.read_text() == (
            "k,eta_end,re_f,im_f,abs_f2,energy_proxy,wronskian_drift,status\n"
            "1.0,-1.0,nan,nan,nan,nan,nan,failed\n"
            "2.0,-1.0,nan,nan,nan,nan,nan,failed\n"
        )

    def test_overflowing_mode_writes_no_warnings(self, tmp_path):
        """Initial data near the float limit overflow in the solver; stderr of
        a fresh process holds the failed mode's line and no numpy warning."""
        cfg = tmp_path / "cosmo.json"
        cfg.write_text(json.dumps({
            "model": {"kind": "radiation"},
            "k_grid": {"min": 1, "max": 1, "count": 1},
            "eta": {"start": 1.0, "end": 2.0},
            "ic": {"kind": "explicit", "f": [1e308, 1e308], "df": [1e308, 0]}}))
        out = tmp_path / "spectrum.csv"
        result = run_cli("cosmo", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 1
        assert result.stderr == "k=1.0: solution overflowed (last_eta=1.0)\n"
        assert out.read_text() == (
            "k,eta_end,re_f,im_f,abs_f2,energy_proxy,wronskian_drift,status\n"
            "1.0,2.0,nan,nan,nan,nan,nan,failed\n"
        )

    def test_tabulated_dip_below_zero_exits_2(self, tmp_path):
        # positive at every knot, but the spline dips to about -0.18 between
        bad = dict(COSMO_CONFIG)
        bad["model"] = {"kind": "tabulated",
                        "params": {"eta": [1, 2, 3, 4, 5], "a": [1, 1e-3, 1, 1e-3, 1]}}
        bad["eta"] = {"start": 1.5, "end": 4.5}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        result = run_cli("cosmo", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert result.returncode == 2
        assert "between the knots" in result.stderr

    def test_tabulated_dip_past_float_range_exits_2(self, tmp_path):
        # positive at both ends of eta 2.5 -> 4.5, but the spline dips to
        # about -1.5e299 near eta 3.5, where its check would overflow unscaled
        bad = dict(COSMO_CONFIG)
        bad["model"] = {"kind": "tabulated",
                        "params": {"eta": [0, 1, 2, 3, 4, 5], "a": [1, 1, 1e300, 1, 1, 1]}}
        bad["eta"] = {"start": 2.5, "end": 4.5}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        result = invoke(["cosmo", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 2
        [line] = result.stderr.splitlines()
        assert line.startswith("error:") and "not positive between the knots" in line

    def test_deeply_nested_json_exits_2(self, tmp_path):
        # nesting beyond the recursion limit makes json raise RecursionError
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000)
        result = invoke(["cosmo", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 2
        [line] = result.stderr.splitlines()
        assert line.startswith("error: malformed JSON")



class TestUnwritableOutput:
    def test_each_command_exits_2(self, tmp_path):
        """An output that cannot be written (a file in place of the
        ``verify`` directory, a missing parent directory, a directory in
        place of a file) is a usage error: exit 2, one ``error:`` line."""
        taken = tmp_path / "taken"
        taken.write_text("")
        missing = tmp_path / "nodir" / "x"
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("eps^{A B} eps_{A B} == 2\n")
        verify_cfg = tmp_path / "verify.json"
        verify_cfg.write_text(json.dumps({"identities": str(corpus)}))
        field = tmp_path / "field.csv"
        field.write_text(f"{BIVECTOR_HEADER}\n0,0,0,0,1,2,3,4,5,6\n")
        em_cfg = tmp_path / "em.json"
        em_cfg.write_text(json.dumps({"direction": "to_spinor", "input": str(field)}))
        cosmo_cfg = tmp_path / "cosmo.json"
        cosmo_cfg.write_text(json.dumps(
            dict(COSMO_CONFIG, k_grid={"min": 0.5, "max": 1.0, "count": 2})))
        for args in (["verify", "--out", str(taken)],
                     ["verify", "--config", str(verify_cfg), "--out", str(taken)],
                     ["check", "--suite", "trace-free", "--out", str(missing)],
                     ["check", "--suite", "trace-free", "--out", str(tmp_path)],
                     ["em", "--config", str(em_cfg), "--out", str(missing)],
                     ["cosmo", "--config", str(cosmo_cfg), "--out", str(missing)],
                     ["cosmo", "--config", str(cosmo_cfg), "--out", str(tmp_path)]):
            result = invoke(args)
            assert result.exit_code == 2, args
            assert isinstance(result.exception, SystemExit), args
            [line] = result.stderr.splitlines()
            assert line.startswith("error: cannot "), (args, line)
            assert "Traceback" not in result.stderr


class TestCollector:
    """``main(argv)`` leaves the cyclic garbage collector as it found it and
    never freezes; ``run()``, the process entry, freezes once on the way
    out."""

    def _cases(self, tmp_path):
        """(argv, exit code): a success and a usage error per subcommand,
        and one usage error from the parser."""
        field = tmp_path / "field.csv"
        field.write_text(f"{BIVECTOR_HEADER}\n0,0,0,0,1,2,3,4,5,6\n")
        em_cfg = tmp_path / "em.json"
        em_cfg.write_text(json.dumps({"direction": "to_spinor", "input": str(field)}))
        bad_em = tmp_path / "bad_em.json"
        bad_em.write_text(json.dumps({"direction": "sideways", "input": str(field)}))
        cosmo_cfg = tmp_path / "cosmo.json"
        cosmo_cfg.write_text(json.dumps(
            dict(COSMO_CONFIG, k_grid={"min": 0.5, "max": 1.0, "count": 2})))
        bad_cosmo = tmp_path / "bad_cosmo.json"
        bad_cosmo.write_text(json.dumps(dict(COSMO_CONFIG, model="radiation")))
        bad_verify = tmp_path / "bad_verify.json"
        bad_verify.write_text(json.dumps({"identities": 5}))
        out = tmp_path / "out"
        return [
            (["verify"], 0),
            (["verify", "--config", str(bad_verify)], 2),
            (["check", "--suite", "trace-free"], 0),
            (["check", "--suite", "nonsense"], 2),
            (["em", "--config", str(em_cfg), "--out", str(out)], 0),
            (["em", "--config", str(bad_em), "--out", str(out)], 2),
            (["cosmo", "--config", str(cosmo_cfg), "--out", str(out)], 0),
            (["cosmo", "--config", str(bad_cosmo), "--out", str(out)], 2),
            (["cosmo", "--config", str(cosmo_cfg)], 2),
        ]

    def test_main_leaves_the_collector_alone(self, tmp_path, monkeypatch):
        freezes = []
        monkeypatch.setattr(gc, "freeze", lambda: freezes.append(1))
        was_enabled = gc.isenabled()
        try:
            for enabled in (True, False):
                (gc.enable if enabled else gc.disable)()
                for argv, code in self._cases(tmp_path):
                    result = invoke(argv)
                    assert result.exit_code == code, (argv, result.stderr)
                    assert gc.isenabled() is enabled, argv
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert freezes == []

    @pytest.mark.parametrize("outcome", [0, 1, 2, None, "error"])
    def test_run_freezes_once_after_main(self, monkeypatch, outcome):
        from spinorwave import cli

        calls = []

        def fake_main():
            calls.append("main")
            if outcome == "error":
                raise RuntimeError("unexpected")
            sys.exit(outcome)

        monkeypatch.setattr(cli, "main", fake_main)
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        with pytest.raises(RuntimeError if outcome == "error" else SystemExit) as exc:
            cli.run()
        assert calls == ["main", "freeze"]
        if outcome != "error":
            assert exc.value.code == outcome

    def test_run_drives_main_on_argv(self, monkeypatch):
        from spinorwave import cli

        freezes = []
        monkeypatch.setattr(gc, "freeze", lambda: freezes.append(1))
        monkeypatch.setattr(sys, "argv", ["spinorwave", "check", "--suite", "trace-free"])
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == 0 and json.loads(stdout.getvalue())["all_passed"]
        assert freezes == [1]

    def test_unexpected_exception_keeps_traceback_and_exit_1(self):
        script = (
            "import atexit, gc, sys\n"
            "from spinorwave import cli\n"
            "def boom():\n"
            "    raise RuntimeError('boom')\n"
            "cli.main = boom\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            "cli.run()\n"
        )
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 1
        assert "Traceback" in result.stderr
        assert result.stderr.rstrip().endswith("RuntimeError: boom")
        assert result.stdout == "frozen True\n"


# Values put in place of a config field by the fuzz tests below: every JSON
# type, non-finite and out-of-range numbers.  None of them is a valid count
# or sample number larger than the ones in the base configs.
HOSTILE = [True, False, "x", "1e-6", None, [], {}, float("nan"), float("inf"), -1, 2.7,
           10**400]

# The documented configs, shrunk where a mode count sets the run time.
COSMO_BASES = [
    COSMO_CONFIG,
    {"model": {"kind": "de_sitter", "params": {"hubble": 1.0}},
     "k_grid": {"min": 0.5, "max": 2.0, "count": 3, "spacing": "lin"},
     "eta": {"start": -5.0, "end": -1.0},
     "ic": {"kind": "explicit", "f": [0.4, 0.1], "df": [-0.3, 0.7]},
     "samples": 21},
    {"model": {"kind": "tabulated",
               "params": {"eta": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                          "a": [1.0, 4.0, 9.0, 16.0, 25.0, 36.0]}},
     "k_grid": {"min": 0.5, "max": 1.0, "count": 2},
     "eta": {"start": 1.5, "end": 5.5},
     "tol": {"rel": 1e-6, "abs": 1e-9},
     "samples": 11},
]
CELLS = ["0", "1.5", "-2e-3", "7", " 3 ", "1e400", "nan", "-inf", "x", "", "1_0", "0x10"]


def _paths(node, prefix=()):
    """The path of every value below ``node`` in a JSON tree."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated(draw, base):
    """``base`` with one or two of its values replaced from HOSTILE or
    removed."""
    config = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(config))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        parent = config
        for step in parents:
            parent = parent[step]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(HOSTILE)))
    return config


@st.composite
def csv_texts(draw):
    """A field CSV: either header, rows of 9 to 11 cells, blank lines."""
    lines = [draw(st.sampled_from([BIVECTOR_HEADER, WAVEFUNCTION_HEADER]))]
    for _ in range(draw(st.integers(0, 5))):
        width = draw(st.sampled_from([10, 10, 10, 9, 11]))
        lines.append(",".join(draw(st.lists(st.sampled_from(CELLS), min_size=width,
                                            max_size=width))))
        if draw(st.integers(0, 3)) == 0:
            lines.append("")
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


def _invoke(command: str, config, tmp: str, files: dict[str, str]) -> None:
    """Run one command on ``config`` in process and hold it to the exit-code
    contract: 0, 1 or 2, no traceback, and one ``error:`` line on exit 2."""
    for name, text in files.items():
        pathlib.Path(tmp, name).write_text(text, encoding="utf-8")
    cfg = pathlib.Path(tmp, "config.json")
    cfg.write_text(json.dumps(config), encoding="utf-8")
    args = [command, "--config", str(cfg)]
    if command != "verify":
        args += ["--out", str(pathlib.Path(tmp, "out"))]
    result = invoke(args)
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        (config, result.exception)
    assert result.exit_code in (0, 1, 2), (config, result.exit_code)
    if result.exit_code == 2:
        [line] = result.stderr.splitlines()
        assert line.startswith("error: "), (config, line)


class TestFuzz:
    """Documented configs with mutated fields, random field CSVs and
    spliced identity lines, run through the CLI in process."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(config=st.sampled_from(COSMO_BASES).flatmap(mutated))
    def test_cosmo_configs(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            _invoke("cosmo", config, tmp, {})

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(direction=st.sampled_from(["to_spinor", "to_bivector"]), data=st.data())
    def test_em_configs_and_csv(self, direction, data):
        with tempfile.TemporaryDirectory() as tmp:
            base = {"direction": direction, "input": str(pathlib.Path(tmp, "in.csv"))}
            config = data.draw(st.one_of(st.just(base), mutated(base)))
            _invoke("em", config, tmp, {"in.csv": data.draw(csv_texts())})

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_verify_configs_and_corpus(self, data):
        identity = "eps^{A B} eps_{A B} == 2"
        start = data.draw(st.integers(0, len(identity)))
        end = data.draw(st.integers(start, len(identity)))
        splice = data.draw(st.text(alphabet="{}_^()[]'ABX =+-/*012 ephiR#@", max_size=4))
        with tempfile.TemporaryDirectory() as tmp:
            base = {"identities": str(pathlib.Path(tmp, "corpus.txt"))}
            config = data.draw(st.one_of(st.just(base), mutated(base)))
            _invoke("verify", config, tmp,
                    {"corpus.txt": identity[:start] + splice + identity[end:] + "\n"})


class TestDeterminism:
    def test_cosmo_bytes_stable_across_runs(self, tmp_path):
        cfg = tmp_path / "cosmo.json"
        cfg.write_text(json.dumps(COSMO_CONFIG))
        outputs = []
        for n in range(3):
            out = tmp_path / f"spec_{n}.csv"
            assert run_cli("cosmo", "--config", str(cfg), "--out", str(out)).returncode == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_check_bytes_stable(self, tmp_path):
        a = run_cli("check", "--seed", "777")
        b = run_cli("check", "--seed", "777")
        assert a.stdout == b.stdout

    def test_verify_matches_golden_outputs(self, tmp_path):
        """``verify --out`` on both shipped corpora, on the derivative-free
        kernel sums in ``golden/kernel_sums.txt`` (decided by the exact
        component expansion, three of them mutants with printed residuals)
        and on the generated corpora ``golden/generated_<seed>.txt`` (the
        shipped entries relabelled and rescaled, plus random kernel sums, as
        ``perfbench.workloads.generate_identity_corpus`` writes them for
        seeds 4242 and 77) reproduces the saved report and trace files byte
        for byte, its exit code, and one ``name: status`` stdout line per
        report entry (the rewrite engine works in exact rational
        arithmetic, so the bytes are platform independent)."""
        from spinorwave.symbolic import shipped_corpus_text

        corpus = tmp_path / "negative.txt"
        corpus.write_text(shipped_corpus_text("identities_negative"))
        runs = [("shipped", None, 0), ("negative", corpus, 1),
                ("kernel_sums", GOLDEN / "kernel_sums.txt", 1),
                ("generated_4242", GOLDEN / "generated_4242.txt", 1),
                ("generated_77", GOLDEN / "generated_77.txt", 1)]
        for name, identities, code in runs:
            args = []
            if identities is not None:
                config = tmp_path / f"{name}.json"
                config.write_text(json.dumps({"identities": str(identities)}))
                args = ["--config", str(config)]
            out = tmp_path / name
            result = run_cli("verify", *args, "--out", str(out))
            assert (result.returncode, result.stderr) == (code, ""), name
            golden = GOLDEN / name
            assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in golden.iterdir())
            for expected in golden.iterdir():
                assert (out / expected.name).read_bytes() == expected.read_bytes(), expected.name
            entries = json.loads((golden / "report.json").read_text())["identities"]
            assert result.stdout == "".join(f"{e['name']}: {e['status']}\n" for e in entries)

    def test_em_matches_golden_outputs(self, tmp_path):
        """``em`` reproduces ``golden/em/`` byte for byte in both directions:
        ``bivector.csv`` (200 rows from ``default_rng(200)``: points uniform
        in [-1, 1), then F = R - R^T with R standard normal (200, 4, 4)) to
        ``wavefunction.csv``, and that file back to ``roundtrip.csv``.  The
        conversions sum their terms in a fixed order, so the bytes do not
        depend on the BLAS build."""
        golden = GOLDEN / "em"
        for direction, source, target in (("to_spinor", "bivector.csv", "wavefunction.csv"),
                                           ("to_bivector", "wavefunction.csv", "roundtrip.csv")):
            cfg = tmp_path / f"{direction}.json"
            cfg.write_text(json.dumps({"direction": direction, "input": str(golden / source)}))
            out = tmp_path / target
            assert run_cli("em", "--config", str(cfg), "--out", str(out)).returncode == 0
            assert out.read_bytes() == (golden / target).read_bytes(), target

    def test_verify_bytes_stable(self, tmp_path):
        outs = []
        for n in range(2):
            out = tmp_path / f"v{n}"
            assert run_cli("verify", "--out", str(out)).returncode == 0
            outs.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            )
        assert outs[0] == outs[1]
