"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance below is the pinned one, not a calibrated value.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from spinorwave.core import (
    EPS_LOW,
    EPS_UP,
    SpinAffinity,
    Variance,
    covariant_derivative_forms,
    random_spinor,
    spinor_signature,
)
from spinorwave.em import (
    BivectorField,
    PhotonWaveFunction,
    bivector_from_spinors,
    massless_residual,
    massless_residual_grid,
    null_wavevector,
    plane_wave_wavefunction,
    spinors_from_bivector,
    stress_energy,
)
from spinorwave.errors import WeightError
from spinorwave.frw import (
    ModeSpec,
    de_sitter,
    integrate_mode,
    radiation,
    wronskian_drift,
)
from spinorwave.symbolic import (
    KernelTable,
    Parser,
    expr_weight,
    parse_identity_file,
    run_identity_cases,
    shipped_corpus_text,
    verify_identity,
)

CLI = [sys.executable, "-m", "spinorwave.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=600)


def report(criterion: str):
    print(f"[acceptance] {criterion}: PASS")


class TestAcceptance:
    def test_criterion_1_symbolic_derivation(self):
        """Splitting and the full wave-equation chain verify with the exact
        coefficients (rational arithmetic); R/2 and +2 mutants fail."""
        reports = run_identity_cases(
            parse_identity_file(shipped_corpus_text("identities"))
        )
        status = {r.name: r.success for r in reports}
        assert status["splitting"] is True
        assert status["wave_equation"] is True
        mutants = run_identity_cases(
            parse_identity_file(shipped_corpus_text("identities_negative"))
        )
        assert [r.name for r in mutants] == [
            "wave_equation_ricci_mutant",
            "wave_equation_coupling_mutant",
        ]
        assert all(not r.success for r in mutants)
        assert all(not r.residual.is_zero for r in mutants)
        report("criterion 1 (symbolic derivation chain, exact coefficients)")

    def test_criterion_2_index_displacement(self):
        """Direct and rearranged covariant-derivative forms agree on 1000
        random draws to 1e-12."""
        rng = np.random.default_rng(20240201)
        worst = 0.0
        for _ in range(1000):
            theta = SpinAffinity(
                rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
            )
            low = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            phi = np.einsum("BX,AX->AB", np.asarray(EPS_UP), 0.5 * (low + low.T))
            dphi = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
            direct, rearranged = covariant_derivative_forms(phi, theta, dphi)
            worst = max(worst, float(np.max(np.abs(direct - rearranged))))
        assert worst < 1e-12
        report(f"criterion 2 (index displacement, 1000 draws, max {worst:.2e})")

    def test_criterion_3_epsilon_algebra(self):
        """eps contraction, raise/lower inversion, symmetric/trace split,
        triple antisymmetrization; all exact or below 1e-14."""
        rng = np.random.default_rng(3)
        assert np.einsum("ab,ab->", np.asarray(EPS_UP), np.asarray(EPS_LOW)) == 2.0
        delta = np.einsum("ab,cb->ac", np.asarray(EPS_UP), np.asarray(EPS_LOW))
        assert np.array_equal(delta, np.eye(2))
        worst = 0.0
        for _ in range(200):
            xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            back = (EPS_UP @ xi) @ EPS_LOW  # xi^A = eps^{AB} xi_B, then xi_B = xi^A eps_{AB}
            worst = max(worst, float(np.max(np.abs(back - xi))))
            theta = random_spinor(spinor_signature("uu"), rng)
            sym = theta.symmetrize((0, 1))
            trace = theta.raise_lower(1, Variance.UP).contract(0, 1).data
            recon = sym.data + 0.5 * np.asarray(EPS_LOW) * trace
            worst = max(worst, float(np.max(np.abs(theta.data - recon))))
            triple = random_spinor(spinor_signature("uuu"), rng)
            worst = max(worst, triple.symmetrize((0, 1, 2), antisym=True).max_abs())
        assert worst < 1e-14
        report(f"criterion 3 (epsilon algebra, max {worst:.2e})")

    def test_criterion_4_electromagnetic_sector(self):
        """Round-trip on 100 random bivectors (1e-12); null plane wave
        satisfies the field equation analytically (1e-12) with measured
        grid order 2.0 +- 0.3; non-null wave rejected."""
        rng = np.random.default_rng(4)
        raw = rng.standard_normal((100, 4, 4))
        F = BivectorField(raw - np.swapaxes(raw, -1, -2))
        back = bivector_from_spinors(spinors_from_bivector(F))
        roundtrip = float(np.max(np.abs(back.values - F.values)))
        assert roundtrip < 1e-12

        alpha = np.array([0.9 + 0.1j, -0.3 + 0.6j])
        k = null_wavevector(alpha)
        wf = plane_wave_wavefunction(alpha, k)
        analytic = massless_residual(wf, rng.standard_normal((50, 4)))
        assert analytic < 1e-12

        def grid_residual(n):
            axes = [np.linspace(0.0, 1.0, n)] * 4
            mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
            return massless_residual_grid(wf.phi(mesh), 1.0 / (n - 1))

        order = math.log2(grid_residual(9) / grid_residual(17))
        assert order == pytest.approx(2.0, abs=0.3)

        k_bad = k + np.array([0.5, 0.0, 0.0, 0.0])
        wf_bad = plane_wave_wavefunction(alpha, k_bad)
        pts = rng.standard_normal((50, 4))
        bound = 0.1 * float(np.linalg.norm(k_bad)) * float(np.max(np.abs(wf_bad.phi(pts))))
        assert massless_residual(wf_bad, pts) > bound
        report(
            f"criterion 4 (EM sector: roundtrip {roundtrip:.2e}, "
            f"null residual {analytic:.2e}, grid order {order:.2f})"
        )

    def test_criterion_5_energy_momentum(self):
        """The 1/(2 pi) energy-momentum tensor is trace-free to 1e-12 with
        nonnegative energy density on 100 random wave functions."""
        rng = np.random.default_rng(5)
        g_inv = np.diag([1.0, -1.0, -1.0, -1.0])
        t = np.array([1.0, 0.0, 0.0, 0.0])
        worst_trace = 0.0
        for _ in range(100):
            raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            wf = PhotonWaveFunction.physical(0.5 * (raw + raw.T))
            T = stress_energy(wf)
            worst_trace = max(worst_trace, abs(float(np.einsum("ab,ab->", g_inv, T))))
            assert float(t @ T @ t) >= -1e-12
        assert worst_trace < 1e-12
        # the prefactor itself: a unit wave function carries T00 = 1/(4 pi)
        unit = PhotonWaveFunction.physical(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert stress_energy(unit)[0, 0] == pytest.approx(1.0 / (4.0 * math.pi))
        report(f"criterion 5 (energy-momentum: trace {worst_trace:.2e}, density >= 0)")

    def test_criterion_6_weight_bookkeeping(self):
        """Declared weights reproduce the stated values and the engine
        rejects weight-inhomogeneous identities."""
        table = KernelTable()
        parser = Parser(table)
        assert expr_weight(parser.parse_expression("phi_{A}^{B}"), table) == (0, 0)
        assert expr_weight(parser.parse_expression("phi_{A B}"), table) == (-1, 0)
        assert expr_weight(parser.parse_expression("Delta^{A B}"), table) == (1, 0)
        assert expr_weight(parser.parse_expression("vartheta_sym_{a (B C)}"), table) == (-1, 0)
        assert expr_weight(parser.parse_expression("vartheta_sym_{a}^{(B C)}"), table) == (1, 0)
        with pytest.raises(WeightError):
            verify_identity(
                parser.parse_expression("theta_{A B}"),
                parser.parse_expression("phi_{A B}"),
                [],
                table,
            )
        report("criterion 6 (weight bookkeeping and rejection)")

    def test_criterion_7_cosmology(self):
        """Radiation modes match the analytic reference to 1e-6 at rel tol
        1e-9; Wronskian drift below 1e-8 on radiation and de Sitter; the
        separated equation matches the 1+1 grid operator at order 2; the
        radiation spectrum product k |f|^2 a^2 is flat to 1e-6."""
        m = radiation()
        sol = integrate_mode(m, ModeSpec(k=1.0, eta0=1.0, eta1=10.0))
        exact = np.exp(-1j * sol.eta) / np.sqrt(2.0) / sol.eta
        rel = float(np.max(np.abs(sol.f - exact) / np.abs(exact)))
        assert rel < 1e-6
        assert sol.wronskian_drift < 1e-8

        ds = de_sitter(1.0)
        s1 = integrate_mode(ds, ModeSpec(k=1.0, eta0=-10.0, eta1=-0.1))
        s2 = integrate_mode(
            ds,
            ModeSpec(k=1.0, eta0=-10.0, eta1=-0.1, ic_kind="explicit",
                     f0=0.4 + 0.1j, df0=-0.3 + 0.7j),
        )
        drift = wronskian_drift(s1, s2, ds)
        assert drift < 1e-8
        assert s1.wronskian_drift < 1e-8

        order = self._grid_oracle_order()
        assert order == pytest.approx(2.0, abs=0.3)

        flatness = self._cli_radiation_spectrum_flatness()
        assert flatness < 1e-6
        report(
            f"criterion 7 (cosmology: mode err {rel:.2e}, drift {drift:.2e}, "
            f"grid order {order:.2f}, spectrum flat to {flatness:.2e})"
        )

    @staticmethod
    def _cli_radiation_spectrum_flatness() -> float:
        """64 log-spaced modes in [0.1, 100] through the CLI; all rows ok and
        k |f|^2 a^2 flat."""
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "cosmo.json")
            out = os.path.join(tmp, "spectrum.csv")
            with open(cfg, "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "model": {"kind": "radiation", "params": {"a0": 1.0}},
                        "k_grid": {"min": 0.1, "max": 100.0, "count": 64,
                                   "spacing": "log"},
                        "eta": {"start": 1.0, "end": 10.0},
                        "ic": {"kind": "positive_frequency"},
                        "tol": {"rel": 1e-9, "abs": 1e-12},
                    },
                    handle,
                )
            result = run_cli("cosmo", "--config", cfg, "--out", out)
            assert result.returncode == 0, result.stderr
            with open(out, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        assert len(lines) == 65  # header + 64 rows
        products = []
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[-1] == "ok"
            k, abs_f2 = float(cells[0]), float(cells[4])
            products.append(k * abs_f2 * 10.0 ** 2)
        products = np.asarray(products)
        return float(np.max(np.abs(products - 0.5)) / 0.5)

    @staticmethod
    def _grid_oracle_order():
        from spinorwave.frw import matter, mode_residual, ricci_scalar

        m = matter(1.0)
        k, w = 2.0, 2.6

        def deviation(n):
            eta = np.linspace(1.0, 2.0, n)
            x = np.linspace(0.0, 1.0, n)
            h_eta, h_x = eta[1] - eta[0], x[1] - x[0]
            a = np.vectorize(m.a)(eta)
            ap = np.vectorize(m.a_prime)(eta)
            app = np.vectorize(m.a_second)(eta)
            u = np.exp(-1j * w * eta)
            f = u / a
            fp = (-1j * w * u * a - u * ap) / a**2
            fpp = (
                -w * w * u / a - 2 * (-1j * w * u) * ap / a**2
                - u * app / a**2 + 2 * u * ap**2 / a**3
            )
            sep = np.array(
                [mode_residual(m, k, f[i], fp[i], fpp[i], eta[i]) for i in range(n)]
            )
            psi = f[:, None] * np.exp(1j * k * x)[None, :]
            d2t = (psi[2:, 1:-1] - 2 * psi[1:-1, 1:-1] + psi[:-2, 1:-1]) / h_eta**2
            dt = (psi[2:, 1:-1] - psi[:-2, 1:-1]) / (2 * h_eta)
            d2x = (psi[1:-1, 2:] - 2 * psi[1:-1, 1:-1] + psi[1:-1, :-2]) / h_x**2
            inner = slice(1, -1)
            col = lambda v: v[inner, None]
            op = (d2t + 2.0 * col(ap / a) * dt - d2x) / col(a) ** 2 + col(
                np.array([ricci_scalar(m, e) / 3.0 for e in eta])
            ) * psi[1:-1, 1:-1]
            want = col(sep / a**2) * np.exp(1j * k * x)[None, 1:-1]
            return float(np.max(np.abs(op - want)))

        return math.log2(deviation(65) / deviation(129))

    def test_criterion_8_determinism(self, tmp_path):
        """Every subcommand produces byte-identical output across repeated runs."""
        # verify
        reports = []
        for n in range(2):
            out = tmp_path / f"verify{n}"
            assert run_cli("verify", "--out", str(out)).returncode == 0
            reports.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert reports[0] == reports[1]
        # check
        a = run_cli("check", "--suite", "eps-algebra", "--suite", "trace-free")
        b = run_cli("check", "--suite", "eps-algebra", "--suite", "trace-free")
        assert a.stdout == b.stdout and a.returncode == b.returncode == 0
        # cosmo
        cfg = tmp_path / "cosmo.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": {"kind": "radiation", "params": {"a0": 1.0}},
                    "k_grid": {"min": 0.3, "max": 3.0, "count": 6, "spacing": "log"},
                    "eta": {"start": 1.0, "end": 4.0},
                }
            )
        )
        blobs = []
        for n in range(3):
            out = tmp_path / f"s{n}.csv"
            assert run_cli("cosmo", "--config", str(cfg), "--out", str(out)).returncode == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
        # em
        from spinorwave.em import BivectorField, write_bivector_csv

        rng = np.random.default_rng(8)
        raw = rng.standard_normal((5, 4, 4))
        field = BivectorField(raw - np.swapaxes(raw, -1, -2))
        src = tmp_path / "field.csv"
        src.write_text(write_bivector_csv(rng.standard_normal((5, 4)), field))
        em_cfg = tmp_path / "em.json"
        em_cfg.write_text(json.dumps({"direction": "to_spinor", "input": str(src)}))
        em_blobs = []
        for n in range(2):
            out = tmp_path / f"wf{n}.csv"
            assert run_cli("em", "--config", str(em_cfg), "--out", str(out)).returncode == 0
            em_blobs.append(out.read_bytes())
        assert em_blobs[0] == em_blobs[1]
        report("criterion 8 (byte-determinism of every subcommand)")
