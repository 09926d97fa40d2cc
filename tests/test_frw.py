"""Scale-factor models, the mode equation, the integrator, and spectra."""

import collections
import dataclasses
import math
import re
import time

import numpy as np
import pytest
import sympy

from spinorwave.errors import ConfigError, DomainError, GridError, IntegrationError
from spinorwave.frw import (
    ModeSpec,
    de_sitter,
    integrate_mode,
    k_grid_from_config,
    matter,
    mode_residual,
    model_from_config,
    radiation,
    render_csv,
    ricci_scalar,
    spectrum,
    spectrum_from_config,
    tabulated,
    wronskian_drift,
)
from spinorwave.frw.modes import (
    _BLOCK,
    _MAX_SUBSTEPS,
    _magnus_steps,
    _propagate,
    sample_grid,
)

RNG = np.random.default_rng(11)


def _reference_u(model, k, eta, rtol):
    """u = a f and u' at ``eta`` for positive-frequency data at eta[0], from
    scipy's DOP853, which shares no code with the Magnus solver."""
    from scipy.integrate import solve_ivp

    u0 = np.exp(-1j * k * eta[0]) / math.sqrt(2.0 * k)

    def rhs(e, y):
        return [y[1], -(k * k + model.a_second(e) / model.a(e)) * y[0]]

    sol = solve_ivp(rhs, (eta[0], eta[-1]), [u0, -1j * k * u0], method="DOP853",
                    t_eval=eta, rtol=rtol, atol=1e-16)
    return sol.y[0], sol.y[1]


def reference_propagate(propagators, u0, du0, eta):
    """(u, u') at every sample by one step per sample interval: the loop
    that the blocked prefix products of ``_propagate`` replaced."""
    u, du = u0, du0
    us, dus = [u], [du]
    for a, b, c, d in zip(*propagators.tolist()):
        u, du = a * u + b * du, c * u + d * du
        us.append(u)
        dus.append(du)
    us, dus = np.array(us, dtype=complex), np.array(dus, dtype=complex)
    finite = np.isfinite(us) & np.isfinite(dus)
    if not finite.all():
        raise IntegrationError("solution overflowed",
                               last_eta=float(eta[max(np.argmin(finite) - 1, 0)]))
    return us, dus


def _exact_f_end(model, k, eta0, eta1):
    """f(eta1) of the positive-frequency mode on matter or de Sitter, where
    a''/a = 2/eta^2 and u = a f is a combination of sqrt|eta| J_{+-nu}(k |eta|),
    nu = i sqrt(7)/2, fitted to (u, u') at eta0 with mpmath's Bessel J."""
    import mpmath

    sign = 1 if eta0 > 0 else -1

    def basis(order, eta):
        x = abs(mpmath.mpf(eta))
        j = mpmath.besselj(order, k * x)
        dj = mpmath.besselj(order, k * x, derivative=1)
        return mpmath.sqrt(x) * j, sign * (j / (2 * mpmath.sqrt(x)) + mpmath.sqrt(x) * k * dj)

    with mpmath.workdps(30):
        nu = 1j * mpmath.sqrt(7) / 2
        u0 = mpmath.exp(-1j * k * eta0) / mpmath.sqrt(2 * k)
        (p, dp), (m, dm) = basis(nu, eta0), basis(-nu, eta0)
        c = mpmath.lu_solve(mpmath.matrix([[p, m], [dp, dm]]), mpmath.matrix([u0, -1j * k * u0]))
        u1 = c[0] * basis(nu, eta1)[0] + c[1] * basis(-nu, eta1)[0]
    return complex(u1) / model.a(eta1)


class TestRicciScalar:
    def test_radiation_is_flat(self):
        m = radiation(2.0)
        for eta in (0.5, 1.0, 7.3):
            assert ricci_scalar(m, eta) == 0.0

    def test_de_sitter_constant(self):
        H = 0.7
        m = de_sitter(H)
        for eta in (-9.0, -1.0, -0.05):
            assert ricci_scalar(m, eta) == pytest.approx(12.0 * H * H, rel=1e-12)

    def test_de_sitter_finite_difference_cross_check(self):
        H, eta, h = 0.7, -1.3, 1e-4
        m = de_sitter(H)
        fd = (m.a(eta + h) - 2.0 * m.a(eta) + m.a(eta - h)) / h**2
        assert 6.0 * fd / m.a(eta) ** 3 == pytest.approx(ricci_scalar(m, eta), rel=1e-5)

    def test_matter_finite_difference_cross_check(self):
        m = matter(1.3)
        eta, h = 1.7, 1e-4
        fd = (m.a(eta + h) - 2.0 * m.a(eta) + m.a(eta - h)) / h**2
        assert 6.0 * fd / m.a(eta) ** 3 == pytest.approx(
            ricci_scalar(m, eta), rel=1e-6
        )

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            ricci_scalar(radiation(), -1.0)
        with pytest.raises(DomainError):
            ricci_scalar(de_sitter(), 1.0)

    def test_tabulated_matches_source(self):
        eta = np.linspace(0.5, 5.0, 200)
        m = tabulated(eta, 1.3 * eta**2)
        ref = matter(1.3)
        for e in (1.0, 2.2, 4.5):
            assert m.a(e) == pytest.approx(ref.a(e), rel=1e-10)
            assert ricci_scalar(m, e) == pytest.approx(ricci_scalar(ref, e), rel=1e-4)


class TestModeResidual:
    def test_exact_radiation_solution(self):
        m = radiation()
        k = 1.7
        for eta in (1.0, 2.5, 8.0):
            a = m.a(eta)
            f = np.exp(-1j * k * eta) / a
            fp = (-1j * k * np.exp(-1j * k * eta) * a - np.exp(-1j * k * eta) * m.a_prime(eta)) / a**2
            u = np.exp(-1j * k * eta)
            # f = u/a with u'' = -k^2 u: build f'' from the quotient rule
            fpp = (
                (-k * k * u) / a
                - 2.0 * (-1j * k * u) * m.a_prime(eta) / a**2
                + 2.0 * u * m.a_prime(eta) ** 2 / a**3
            )
            assert abs(mode_residual(m, k, f, fp, fpp, eta)) < 1e-12

    def test_zero_is_zero(self):
        assert mode_residual(radiation(), 1.0, 0.0, 0.0, 0.0, 2.0) == 0.0

    def test_substitution_invariance_symbolic(self):
        # (1/a) [u'' + (k^2 + a''/a) u] with u = a f reproduces the residual
        eta, k = sympy.symbols("eta k", positive=True)
        a = sympy.Function("a", positive=True)(eta)
        f = sympy.Function("f")(eta)
        u = a * f
        residual = f.diff(eta, 2) + 2 * (a.diff(eta) / a) * f.diff(eta) + (
            k**2 + 2 * a.diff(eta, 2) / a
        ) * f
        via_u = (u.diff(eta, 2) + (k**2 + a.diff(eta, 2) / a) * u) / a
        assert sympy.simplify(residual - via_u) == 0

    def test_substitution_invariance_numeric(self):
        m = matter(0.8)
        k = 2.3
        worst = 0.0
        for _ in range(50):
            eta = float(RNG.uniform(0.5, 4.0))
            f, fp, fpp = (
                complex(*RNG.standard_normal(2)),
                complex(*RNG.standard_normal(2)),
                complex(*RNG.standard_normal(2)),
            )
            a, ap, app = m.a(eta), m.a_prime(eta), m.a_second(eta)
            u = a * f
            up = ap * f + a * fp
            upp = app * f + 2 * ap * fp + a * fpp
            via_u = (upp + (k * k + app / a) * u) / a
            worst = max(worst, abs(mode_residual(m, k, f, fp, fpp, eta) - via_u))
        assert worst < 1e-10

    def test_grid_discretization_oracle(self):
        # FD of (box + R/3)(f e^{ikx}) on a 1+1 grid agrees with the
        # separated residual e^{ikx} (1/a^2) mode_residual(f) at O(h^2);
        # checked on a non-solution profile so the comparison is nontrivial
        m = matter(1.0)
        k = 2.0
        w = 1.3 * k  # off-shell frequency

        def fd_deviation(n):
            eta = np.linspace(1.0, 2.0, n)
            x = np.linspace(0.0, 1.0, n)
            h_eta, h_x = eta[1] - eta[0], x[1] - x[0]
            a = np.vectorize(m.a)(eta)
            f = np.exp(-1j * w * eta) / a
            psi = f[:, None] * np.exp(1j * k * x)[None, :]
            ap = np.vectorize(m.a_prime)(eta)
            app = np.vectorize(m.a_second)(eta)
            # exact derivatives of f for the separated residual
            u = np.exp(-1j * w * eta)
            fp = (-1j * w * u * a - u * ap) / a**2
            fpp = (
                -w * w * u / a
                - 2 * (-1j * w * u) * ap / a**2
                - u * app / a**2
                + 2 * u * ap**2 / a**3
            )
            sep = np.array(
                [
                    mode_residual(m, k, f[i], fp[i], fpp[i], eta[i])
                    for i in range(n)
                ]
            )
            d2t = (psi[2:, 1:-1] - 2 * psi[1:-1, 1:-1] + psi[:-2, 1:-1]) / h_eta**2
            dt = (psi[2:, 1:-1] - psi[:-2, 1:-1]) / (2 * h_eta)
            d2x = (psi[1:-1, 2:] - 2 * psi[1:-1, 1:-1] + psi[1:-1, :-2]) / h_x**2
            inner = slice(1, -1)
            col = lambda v: v[inner, None]
            op = (
                d2t + 2.0 * col(ap / a) * dt - d2x
            ) / col(a) ** 2 + col(
                np.array([ricci_scalar(m, e) / 3.0 for e in eta])
            ) * psi[1:-1, 1:-1]
            want = col(sep / a**2) * np.exp(1j * k * x)[None, 1:-1]
            return float(np.max(np.abs(op - want)))

        r1, r2 = fd_deviation(65), fd_deviation(129)
        assert math.log2(r1 / r2) == pytest.approx(2.0, abs=0.3)


class TestIntegrateMode:
    def test_radiation_matches_analytic(self):
        m = radiation()
        sol = integrate_mode(m, ModeSpec(k=1.0, eta0=1.0, eta1=10.0))
        exact = np.exp(-1j * sol.eta) / np.sqrt(2.0) / sol.eta
        rel = np.max(np.abs(sol.f - exact) / np.abs(exact))
        assert rel < 1e-6

    def test_infrared_limit_bounded_with_linear_u(self):
        m = radiation()
        sol = integrate_mode(
            m, ModeSpec(k=1e-9, eta0=1.0, eta1=20.0, ic_kind="explicit",
                        f0=1.0 + 0j, df0=0.0j)
        )
        assert np.max(np.abs(sol.f)) <= 1.0 + 1e-9
        u = sol.eta * sol.f
        coeffs = np.polyfit(sol.eta, u.real, 2)
        assert abs(coeffs[0]) < 1e-8  # u'' = 0: no quadratic component

    def test_de_sitter_wronskian_conservation(self):
        m = de_sitter(1.0)
        s1 = integrate_mode(m, ModeSpec(k=1.0, eta0=-10.0, eta1=-0.1))
        s2 = integrate_mode(
            m, ModeSpec(k=1.0, eta0=-10.0, eta1=-0.1, ic_kind="explicit",
                        f0=0.4 + 0.1j, df0=-0.3 + 0.7j)
        )
        assert wronskian_drift(s1, s2, m) < 1e-8

    def test_exact_pair_has_zero_drift(self):
        m = radiation()
        k = 3.0
        eta = np.linspace(1.0, 5.0, 101)
        a = eta
        f1 = np.exp(-1j * k * eta) / a
        f2 = np.exp(1j * k * eta) / a
        from spinorwave.frw.modes import ModeSolution

        def fprime(sign):
            u = np.exp(sign * 1j * k * eta)
            return (sign * 1j * k * u * a - u) / a**2

        s1 = ModeSolution(k, eta, f1, fprime(-1), 0.0, 0)
        s2 = ModeSolution(k, eta, f2, fprime(+1), 0.0, 0)
        assert wronskian_drift(s1, s2, radiation()) < 1e-14

    def test_identical_solutions_report_absolute_drift(self):
        m = radiation()
        s1 = integrate_mode(m, ModeSpec(k=1.0, eta0=1.0, eta1=2.0, ic_kind="explicit",
                                        f0=1.0 + 0j, df0=0.0j))
        assert wronskian_drift(s1, s1, m) < 1e-9  # W == 0: absolute deviation

    def test_mismatched_grids_rejected(self):
        m = radiation()
        s1 = integrate_mode(m, ModeSpec(k=1.0, eta0=1.0, eta1=2.0, samples=11))
        s2 = integrate_mode(m, ModeSpec(k=1.0, eta0=1.0, eta1=2.0, samples=21))
        with pytest.raises(GridError):
            wronskian_drift(s1, s2, m)

    def test_tolerance_halving_monotone(self):
        # the Magnus steps are exact for radiation (a'' = 0), so its error is
        # round-off at every tolerance; on de Sitter the error must fall
        # strictly with the tolerance
        rad, ds = radiation(), de_sitter(1.0)
        errors = []
        for rtol in (1e-6, 5e-7, 2.5e-7):
            spec = {"k": 1.0, "rtol": rtol, "atol": rtol * 1e-3}
            sol = integrate_mode(rad, ModeSpec(eta0=1.0, eta1=10.0, **spec))
            exact = np.exp(-1j * sol.eta) / np.sqrt(2.0) / sol.eta
            assert np.max(np.abs(sol.f - exact) / np.abs(exact)) < 1e-12
            sol = integrate_mode(ds, ModeSpec(eta0=-10.0, eta1=-0.1, **spec))
            u_ref, _ = _reference_u(ds, 1.0, sol.eta, rtol=1e-12)
            f_ref = u_ref / ds.a(sol.eta)
            errors.append(float(np.max(np.abs(sol.f - f_ref) / np.abs(f_ref))))
        assert errors[0] > errors[1] > errors[2]

    def test_error_estimate_bounds_measured_error(self):
        # relative error of (u, u'/omega) as documented on ModeSolution, against
        # DOP853 at scipy's tightest tolerance
        knots = np.linspace(0.9, 10.1, 24)
        kinked = tabulated(knots, knots * (1.0 + 0.05 * np.sin(0.7 * knots)))
        for model, eta0, eta1 in ((de_sitter(1.0), -10.0, -0.1), (matter(1.0), 1.0, 10.0),
                                  (kinked, 1.0, 10.0)):
            eta = np.linspace(eta0, eta1, 201)
            a, ap = model.a(eta), model.a_prime(eta)
            for k in (0.3, 3.0, 30.0):
                u_ref, du_ref = _reference_u(model, k, eta, rtol=3e-14)
                omega = np.sqrt(np.maximum(
                    np.abs(k * k + model.a_second(eta) / a), (eta1 - eta0) ** -2))
                for rtol in (1e-6, 1e-9):
                    sol = integrate_mode(model, ModeSpec(k, eta0, eta1, rtol=rtol))
                    u, du = a * sol.f, ap * sol.f + a * sol.f_prime
                    measured = np.max(np.hypot(np.abs(u - u_ref), np.abs(du - du_ref) / omega)
                                      / np.hypot(np.abs(u_ref), np.abs(du_ref) / omega))
                    assert measured <= sol.error_estimate, (model.kind, k, rtol)
                    assert sol.error_estimate <= rtol, (model.kind, k, rtol)

    def test_invalid_specs_rejected(self):
        m = radiation()
        with pytest.raises(ConfigError):
            integrate_mode(m, ModeSpec(k=-1.0, eta0=1.0, eta1=2.0))
        with pytest.raises(DomainError):
            integrate_mode(m, ModeSpec(k=1.0, eta0=-1.0, eta1=2.0))
        for rtol, atol in ((-1.0, 1e-12), (1e-9, -1e-12), (math.nan, 1e-12),
                           (1e-9, math.inf), (0.0, 0.0)):
            with pytest.raises(ConfigError):
                integrate_mode(m, ModeSpec(k=1.0, eta0=1.0, eta1=2.0, rtol=rtol, atol=atol))
        for k in (math.inf, math.nan):
            with pytest.raises(ConfigError, match="finite"):
                integrate_mode(m, ModeSpec(k=k, eta0=1.0, eta1=2.0))
        for f0, df0 in ((complex(math.nan, 0.0), 1j), (1.0, complex(0.0, math.inf))):
            with pytest.raises(ConfigError, match="initial data"):
                integrate_mode(m, ModeSpec(1.0, 1.0, 2.0, "explicit", f0, df0))
        # Each sample interval takes at least one of the _MAX_SUBSTEPS coarse
        # substeps.  Only validated here: nothing is integrated or allocated.
        ModeSpec(k=1.0, eta0=1.0, eta1=2.0, samples=_MAX_SUBSTEPS + 1).validate(m)
        for samples in (_MAX_SUBSTEPS + 2, 100_000_000):
            with pytest.raises(ConfigError, match="samples must be at most"):
                ModeSpec(k=1.0, eta0=1.0, eta1=2.0, samples=samples).validate(m)
        # One ulp of eta range cannot hold 50 distinct samples.
        with pytest.raises(ConfigError, match="too narrow for 50 distinct samples"):
            ModeSpec(k=1.0, eta0=1.0, eta1=math.nextafter(1.0, 2.0), samples=50).validate(m)

    def test_blowup_raises_with_last_good_point(self):
        from spinorwave.frw import ScaleFactorModel

        # a = (pole - eta)^-2 has a''/a = 6/(pole - eta)^2, which is not
        # integrable at the pole: the mode's phase diverges there, so no
        # substep count resolves the interval that contains it
        pole = 2.305
        model = ScaleFactorModel(
            "pole",
            lambda eta: (pole - eta) ** -2.0,
            lambda eta: 2.0 * (pole - eta) ** -3.0,
            lambda eta: 6.0 * (pole - eta) ** -4.0,
            (0.0, 5.0),
        )
        start = time.perf_counter()
        with pytest.raises(IntegrationError) as info:
            integrate_mode(model, ModeSpec(k=1.0, eta0=1.0, eta1=3.0))
        assert time.perf_counter() - start < 20.0
        assert info.value.last_eta is not None
        assert 1.0 <= info.value.last_eta <= pole

    def test_failed_mode_marks_row_and_continues(self, monkeypatch):
        import importlib

        spectrum_mod = importlib.import_module("spinorwave.frw.spectrum")
        real = spectrum_mod.integrate_mode

        def flaky(model, spec, grid):
            if abs(spec.k - 2.0) < 1e-12:
                raise IntegrationError("synthetic failure", last_eta=spec.eta0)
            return real(model, spec, grid)

        monkeypatch.setattr(spectrum_mod, "integrate_mode", flaky)
        rows = spectrum_mod.spectrum(radiation(), np.array([1.0, 2.0, 3.0]), 1.0, 4.0)
        assert [row.status for row in rows] == ["ok", "failed", "ok"]
        csv_text = render_csv(rows)
        failed_line = csv_text.splitlines()[2]
        assert failed_line.endswith(",failed") and "nan" in failed_line


    def test_matches_exact_bessel_modes(self):
        # matter and de Sitter both have a''/a = 2/eta^2, so u = a f is exact in
        # Bessel functions of imaginary order; the largest measured error at
        # eta_end is 0.029 rtol (de Sitter, eta -1e3 to -1, k 30, rtol 1e-9)
        for model, eta0, eta1 in ((matter(1.0), 1.0, 10.0), (matter(1.0), 1.0, 1e3),
                                  (de_sitter(1.0), -10.0, -0.1), (de_sitter(1.0), -1e3, -1.0)):
            ks = np.array([0.3, 3.0, 30.0])
            exact = [_exact_f_end(model, k, eta0, eta1) for k in ks]
            for rtol in (1e-6, 1e-9):
                rows = spectrum(model, ks, eta0, eta1, rtol=rtol)
                assert [row.status for row in rows] == ["ok"] * 3
                for row, f in zip(rows, exact):
                    assert abs(row.f - f) <= rtol * abs(f), (model.kind, eta1, row.k, rtol)


class TestPropagate:
    """``_propagate`` against the per-sample loop it replaced, on random
    determinant-1 propagators (Magnus steps of random width and a''/a)."""

    LENGTHS = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2000, 5 * _BLOCK + 3)

    @staticmethod
    def _steps(rng, n, q_range, k2, h_range):
        h = rng.uniform(*h_range, n)
        q1, q2 = rng.uniform(*q_range, (2, n))
        return _magnus_steps(k2, h, q1, q2), np.cumsum(np.r_[1.0, h])

    @staticmethod
    def _data(rng, scale):
        return ((scale + 0j, 0j), (0j, scale * 1j),
                (scale * complex(*rng.normal(size=2)), scale * complex(*rng.normal(size=2))))

    @staticmethod
    def _agrees(m, u0, du0, eta, reference):
        # Products within a block round differently from the loop.  Relative
        # to the largest state so far they agree to 1e-12 (6e-14 measured,
        # on mixed oscillating and growing steps at 2000 samples).
        u, du = _propagate(m, u0, du0, eta)
        u_ref, du_ref = reference
        size = np.maximum.accumulate(np.hypot(abs(u_ref), abs(du_ref)))
        return np.max(np.hypot(abs(u - u_ref), abs(du - du_ref)) / size) <= 1e-12

    def test_blocked_matches_reference(self):
        rng = np.random.default_rng(34)
        for n in self.LENGTHS:
            for q_range, k2 in (((0.0, 10.0), 100.0), ((-10.0, 0.0), 0.0), ((-10.0, 10.0), 5.0)):
                m, eta = self._steps(rng, n, q_range, k2, (0.01, 0.2))
                for u0, du0 in self._data(rng, 1.0):
                    reference = reference_propagate(m, u0, du0, eta)
                    assert self._agrees(m, u0, du0, eta, reference), (n, q_range)

    def test_overflow_fails_where_the_reference_fails(self):
        # Steps that grow by e^20 to e^32 overflow a block's products within
        # 32 steps, before a state that starts at 1e-300 overflows; the
        # blocked path must fail at the reference's sample, and agree with
        # the reference wherever the reference stays finite.
        rng = np.random.default_rng(35)
        outcomes = collections.Counter()
        for n in self.LENGTHS:
            for scale in (1.0, 1e-300):
                m, eta = self._steps(rng, n, (-4000.0, -2500.0), 0.0, (0.4, 0.5))
                for u0, du0 in self._data(rng, scale):
                    with np.errstate(over="ignore", invalid="ignore"):
                        try:
                            reference = reference_propagate(m, u0, du0, eta)
                        except IntegrationError as exc:
                            with pytest.raises(IntegrationError, match="overflowed") as info:
                                _propagate(m, u0, du0, eta)
                            assert info.value.last_eta == exc.last_eta, (n, scale)
                            outcomes["overflowed"] += 1
                        else:
                            assert self._agrees(m, u0, du0, eta, reference), (n, scale)
                            outcomes["finite"] += 1
        assert outcomes["overflowed"] and outcomes["finite"]


class TestSharedGrid:
    def test_sharing_is_exact(self):
        knots = np.linspace(0.9, 10.1, 24)
        kinked = tabulated(knots, knots * (1.0 + 0.05 * np.sin(0.7 * knots)))
        for model, eta0, eta1 in ((radiation(), 1.0, 10.0), (matter(1.0), 1.0, 10.0),
                                  (de_sitter(1.0), -10.0, -0.1), (kinked, 1.0, 10.0)):
            grid = sample_grid(model, eta0, eta1, 301)
            for k in (0.3, 3.0, 30.0):
                spec = ModeSpec(k, eta0, eta1, samples=301)
                shared, alone = integrate_mode(model, spec, grid), integrate_mode(model, spec)
                for name in ("eta", "f", "f_prime"):
                    assert np.array_equal(getattr(shared, name), getattr(alone, name))
                assert (shared.wronskian_drift, shared.steps, shared.error_estimate) == (
                    alone.wronskian_drift, alone.steps, alone.error_estimate)

    def test_grid_of_other_settings_rejected(self):
        model = matter(1.0)
        grid = sample_grid(model, 1.0, 10.0, 301)
        for eta0, eta1, samples in ((1.0, 10.0, 300), (1.5, 10.0, 301), (1.0, 9.0, 301)):
            with pytest.raises(GridError, match="does not match"):
                integrate_mode(model, ModeSpec(0.5, eta0, eta1, samples=samples), grid)
        assert integrate_mode(model, ModeSpec(0.5, 1.0, 10.0, samples=301), grid).eta is grid.eta

    def test_modes_add_no_model_calls_on_the_first_pass(self):
        # matter at 2000 samples and k <= 1: every interval passes with its
        # first pass's one coarse and two fine substeps
        base = matter(1.0)
        calls = collections.Counter()

        def counted(fn):
            def call(eta):
                calls[fn] += 1
                return fn(eta)

            return call

        model = dataclasses.replace(base, a=counted(base.a), a_prime=counted(base.a_prime),
                                    a_second=counted(base.a_second))
        settings = {"ic_kind": "explicit", "f0": 0.3 + 0.1j, "df0": -0.2 + 0.5j,
                    "samples": 2000}
        for k in (0.05, 1.0):
            assert integrate_mode(base, ModeSpec(k, 1.0, 10.0, **settings)).steps == 2 * 1999

        def model_calls(count):
            calls.clear()
            rows = spectrum(model, np.linspace(0.05, 1.0, count), 1.0, 10.0, **settings)
            assert all(row.status == "ok" for row in rows)
            return sum(calls.values())

        # each mode beyond the first adds its a(eta_end) call only
        assert model_calls(12) == model_calls(1) + 11


class TestConformalFlatness:
    def test_integrated_mode_satisfies_flat_field_equation(self):
        # radiation background (R = 0): u = a f obeys the flat oscillator,
        # so the reconstructed null plane-wave profile built from the
        # integrated history must satisfy the flat massless equation to the
        # integration tolerance
        from spinorwave.core.connecting import FLAT
        from spinorwave.core.convention import EPS_UP
        from spinorwave.em import null_wavevector

        alpha = np.array([1.0, 1.0 + 0.0j]) / math.sqrt(2.0)
        k_vec = null_wavevector(alpha)
        k = float(k_vec[0])  # frequency of the reconstructed wave
        m = radiation()
        sol = integrate_mode(m, ModeSpec(k=k, eta0=1.0, eta1=6.0))
        a = sol.eta
        u = a * sol.f
        up = sol.f + a * sol.f_prime          # a' = 1 in this model
        # phi_{AB}(x) = alpha_A alpha_B u(t) exp(i k_sp . x_sp); with a null
        # covector k_a = (k, k_sp) the time dependence of the exact solution
        # is exp(-i k t), so d_t phi = u' layer and spatial derivatives use
        # the exact wavevector components
        # profile phi_{AB} = alpha_A alpha_B u(t) exp(-i k_j x^j), sampled at
        # x = 0: the time derivative is the integrated u', the spatial ones
        # carry the exact covector components
        outer = np.einsum("A,B->AB", alpha, alpha)
        worst = 0.0
        for i in range(len(sol.eta)):
            d = np.zeros((4, 2, 2), dtype=complex)
            d[0] = up[i] * outer
            for ax in (1, 2, 3):
                d[ax] = -1j * k_vec[ax] * u[i] * outer
            d_spinor = np.einsum("aCD,aAB->CDAB", FLAT.s_inv, d)
            res = np.einsum(
                "AC,ED,BX,CDAX->EB",
                np.asarray(EPS_UP), np.asarray(EPS_UP), np.asarray(EPS_UP), d_spinor,
            )
            worst = max(worst, float(np.max(np.abs(res))) / max(abs(u[i]), 1e-30))
        assert worst < 1e-6


class TestSpectrum:
    def test_radiation_flat_product(self):
        # desk-scale slice; the full 64-mode [0.1, 100] grid runs in the
        # acceptance suite
        m = radiation()
        ks = np.geomspace(0.1, 20.0, 16)
        rows = spectrum(m, ks, 1.0, 10.0)
        a_end = m.a(10.0)
        product = np.array([row.k * row.abs_f2 for row in rows]) * a_end**2
        assert np.max(np.abs(product - 0.5)) / 0.5 < 1e-6
        assert all(row.status == "ok" for row in rows)

    def test_empty_grid(self):
        rows = spectrum(radiation(), np.zeros(0), 1.0, 10.0)
        assert rows == []
        assert render_csv(rows).splitlines()[0].startswith("k,eta_end")

    def test_deterministic_across_runs(self):
        config = {
            "model": {"kind": "radiation", "params": {"a0": 1.0}},
            "k_grid": {"min": 0.5, "max": 5.0, "count": 8, "spacing": "log"},
            "eta": {"start": 1.0, "end": 4.0},
        }
        _, csv1 = spectrum_from_config(config)
        _, csv2 = spectrum_from_config(config)
        _, csv3 = spectrum_from_config(config)
        assert csv1 == csv2 == csv3

    def test_config_run_calls_module_globals(self, monkeypatch):
        """``spectrum_from_config`` reaches the model parser, the mode loop,
        the integrator and the renderer through the module globals of
        ``frw.spectrum``, so a wrapper set there (as ``perfbench/spans.py``
        sets one) sees every call."""
        import importlib

        spectrum_mod = importlib.import_module("spinorwave.frw.spectrum")
        calls = []
        for name in ("model_from_config", "spectrum", "integrate_mode", "render_csv"):
            def wrapper(*args, _name=name, _real=getattr(spectrum_mod, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(spectrum_mod, name, wrapper)
        spectrum_from_config({"model": {"kind": "radiation"}, "eta": {"start": 1.0, "end": 2.0},
                              "k_grid": {"min": 1.0, "max": 2.0, "count": 2}})
        assert calls == ["model_from_config", "spectrum", "integrate_mode", "integrate_mode",
                         "render_csv"]

    def test_energy_proxy_formula(self):
        m = radiation()
        rows = spectrum(m, np.array([2.0]), 1.0, 3.0)
        row = rows[0]
        sol = integrate_mode(m, ModeSpec(k=2.0, eta0=1.0, eta1=3.0))
        expected = (
            abs(sol.f_prime[-1]) ** 2 + 4.0 * abs(sol.f[-1]) ** 2
        ) / (2.0 * math.pi * m.a(3.0) ** 4)
        assert row.energy_proxy == pytest.approx(expected, rel=1e-12)

    def test_tabulated_dip_past_float_range_rejected(self):
        # positive at the knots, but the pieces on either side of the 1e300
        # knot dip to about -4.3e299, and b * b of their discriminants overflows
        with pytest.raises(ConfigError, match="not positive between the knots"):
            tabulated([0, 1, 2, 3, 4, 5], [1, 1, 1e300, 1, 1, 1])

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            k_grid_from_config({"min": -1.0, "max": 2.0, "count": 4})
        with pytest.raises(ConfigError):
            model_from_config({"kind": "warp-drive"})
        # positive at the knots; the first piece's minimum is -0.184 at eta 5/3
        with pytest.raises(ConfigError, match=r"between the knots \(a=-0\.184 at eta=1\.66667\)"):
            tabulated([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 1e-3, 1.0, 1e-3, 1.0])
        for params in ({"eta": [1, 2, 3, 4], "a": [1, 2, 3, "x"]},
                       {"eta": [1, 2, 3, 4], "a": [1, 2, math.inf, 4]},
                       {"eta": [1, 2, 3, 4], "a": [1, 2, 3]}):
            with pytest.raises(ConfigError):
                model_from_config({"kind": "tabulated", "params": params})
        for model in ("radiation", {"kind": ["radiation"]}, {"kind": "matter", "params": [1]}):
            with pytest.raises(ConfigError):
                model_from_config(model)
        with pytest.raises(DomainError):
            spectrum_from_config(
                {
                    "model": {"kind": "de_sitter", "params": {"hubble": 1.0}},
                    "k_grid": {"min": 1.0, "max": 2.0, "count": 2},
                    "eta": {"start": -5.0, "end": 1.0},
                }
            )
        assert k_grid_from_config({"min": 1.0, "max": 2.0, "count": 3.0}).size == 3
        for grid in ({"min": 1.0, "max": math.inf, "count": 4},
                     {"min": 1.0, "max": math.nan, "count": 4},
                     {"min": math.nan, "max": 2.0, "count": 1},
                     {"min": 1.0, "max": 2.0, "count": 2.7},
                     {"min": 1.0, "max": 2.0, "count": math.inf},
                     {"min": 1.0, "max": 2.0, "count": "many"}):
            with pytest.raises(ConfigError):
                k_grid_from_config(grid)
        for kind, params in (("radiation", {"a0": math.nan}), ("matter", {"a0": math.inf}),
                             ("radiation", {"a0": 10**400}), ("de_sitter", {"hubble": -1.0}),
                             ("de_sitter", {"hubble": math.nan})):
            with pytest.raises(ConfigError, match="positive and finite|a number"):
                model_from_config({"kind": kind, "params": params})
        # a = -1/(H eta) overflows to inf for a denormal H
        with pytest.raises(ConfigError, match="finite"):
            de_sitter(1e-320).check_values(-5.0, -1.0)
        base = {"model": {"kind": "radiation"}, "eta": {"start": 1.0, "end": 2.0},
                "k_grid": {"min": 1.0, "max": 2.0, "count": 2}}
        for extra in ({"samples": 2.5}, {"samples": math.inf},
                      {"ic": {"kind": "explicit", "f": [math.nan, 0.0], "df": [1.0, 0.0]}},
                      {"ic": {"kind": "explicit", "f": [1.0, 0.0], "df": [0.0, math.nan]}}):
            with pytest.raises(ConfigError):
                spectrum_from_config(dict(base, **extra))
        # The checks that do not depend on k hold for an empty k grid too.
        empty = dict(base, k_grid={"min": 1.0, "max": 2.0, "count": 0})
        for extra, message in (
            ({"tol": {"rel": -1}}, "tolerances"),
            ({"samples": 1}, "at least 2 sample points"),
            ({"ic": {"kind": "bogus"}}, "unknown initial-condition kind"),
            ({"ic": {"kind": "explicit", "f": [math.nan, 0.0], "df": [1.0, 0.0]}},
             "initial data"),
        ):
            with pytest.raises(ConfigError, match=message):
                spectrum_from_config(dict(empty, **extra))
        # Wrong JSON types and numbers beyond float range: each names its
        # field, and none is converted to a value that runs.
        explicit = {"kind": "explicit", "f": [1.0, 0.0], "df": [0.0, 1.0]}
        knots = [1.0, 2.0, 3.0, 4.0, 5.0]
        for extra, field in (
            ({"ic": dict(explicit, f=[10**400, 0])}, "ic.f"),
            ({"ic": dict(explicit, f=[1.0, 0.0, 0.0])}, "ic.f"),
            ({"ic": dict(explicit, df=[True, 0.0])}, "ic.df"),
            ({"ic": []}, "ic"),
            ({"ic": None}, "ic"),
            ({"tol": {"rel": "1e-6"}}, "tol.rel"),
            ({"tol": 0}, "tol"),
            ({"samples": "11"}, "samples"),
            ({"k_grid": {"min": 1.0, "max": 2.0, "count": True}}, "k_grid.count"),
            ({"k_grid": {"min": "1", "max": 2.0, "count": 2}}, "k_grid.min"),
            ({"eta": {"start": "1", "end": 2.0}}, "eta.start"),
            ({"model": {"kind": "radiation", "params": {"a0": "2"}}}, "a0"),
            ({"model": {"kind": "radiation", "params": {"a0": True}}}, "a0"),
            ({"model": {"kind": "tabulated", "params": {"eta": knots, "a": [1, 2, 10**400, 4, 5]}},
              "eta": {"start": 1.5, "end": 4.5}}, "model.params.a"),
            ({"model": {"kind": "tabulated", "params": {"eta": knots, "a": knots, "b": 1}},
              "eta": {"start": 1.5, "end": 4.5}}, "params are eta, a, got eta, a, b"),
        ):
            with pytest.raises(ConfigError, match=re.escape(field)):
                spectrum_from_config(dict(base, **extra))


class TestTabulatedSpline:
    """The tabulated model against scipy's ``CubicSpline`` (not-a-knot, its
    default), used here as an independent oracle only."""

    @staticmethod
    def _knot_sets():
        rng = np.random.default_rng(2024)
        for n in (4, 5, 24, 2000):
            yield f"uniform-{n}", np.linspace(0.9, 10.1, n)
        for n in (4, 6, 40, 300):
            yield f"jittered-{n}", np.cumsum(rng.uniform(0.05, 1.0, n))

    def test_matches_scipy_not_a_knot(self):
        from scipy.interpolate import CubicSpline

        worst = (0.0, "")
        for name, knots in self._knot_sets():
            a = 2.0 + np.sin(1.3 * knots) + 0.05 * knots ** 2
            model = tabulated(knots, a)
            oracle = CubicSpline(knots, a)
            eta = np.concatenate([np.linspace(knots[0], knots[-1], 4001), knots])
            for order, fn in enumerate((model.a, model.a_prime, model.a_second)):
                expected = oracle(eta, order)
                got = fn(eta)
                scalar = fn(float(knots[-1]))
                assert isinstance(scalar, float)
                assert scalar == pytest.approx(oracle(knots[-1], order), rel=1e-12, abs=1e-12)
                ratio = np.max(np.abs(got - expected)) / np.max(np.abs(expected))
                worst = max(worst, (ratio, f"{name} derivative {order}"))
        assert worst[0] <= 1e-12, worst

    def test_small_positive_minimum_accepted(self):
        # a quadratic the spline reproduces, with its minimum 1e-6 between
        # knots (test_config_validation has one that dips below zero)
        knots = np.linspace(1.0, 5.0, 9)
        model = tabulated(knots, (knots - 2.6) ** 2 + 1e-6)
        assert model.a(2.6) == pytest.approx(1e-6, rel=1e-6)
        assert model.a(2.6) > 0

    def test_no_scipy_import(self):
        """Building and running a tabulated spectrum never imports scipy."""
        import os
        import subprocess
        import sys

        import spinorwave

        script = (
            "import sys\n"
            "from spinorwave.frw import spectrum_from_config\n"
            "knots = [1.0 + 0.5 * i for i in range(12)]\n"
            "rows, _ = spectrum_from_config({\n"
            "    'model': {'kind': 'tabulated',\n"
            "              'params': {'eta': knots, 'a': [e * e for e in knots]}},\n"
            "    'k_grid': {'min': 0.5, 'max': 2.0, 'count': 2},\n"
            "    'eta': {'start': 1.5, 'end': 6.0}})\n"
            "assert [row.status for row in rows] == ['ok', 'ok'], rows\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = os.path.dirname(os.path.dirname(spinorwave.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
