"""Concrete epsilon-formalism algebra: contraction, displacement, symmetry,
conjugation, connecting objects, and the spin affinity."""

import decimal
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorwave.core import (
    ComponentSpinor,
    ConnectingObjects,
    EPS_LOW,
    FLAT,
    FLAT_SYMBOLS,
    EPS_UP,
    MINKOWSKI,
    SpinAffinity,
    Variance,
    affinity_from_metric,
    covariant_derivative_forms,
    levi_civita4,
    metric_compatibility_residual,
    random_spinor,
    spinor_signature,
)
from spinorwave.core.indices import permutation_sign
from spinorwave.errors import (
    ContractionError,
    DegenerateMetricError,
    IndexPlacementError,
)

RNG = np.random.default_rng(2024)


def sym_phi_mixed(rng):
    low = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    low = 0.5 * (low + low.T)
    return np.einsum("BX,AX->AB", np.asarray(EPS_UP), low)


class TestEpsilonAlgebra:
    def test_eps_contraction_gives_delta(self):
        eps_up = ComponentSpinor(spinor_signature("UU"), EPS_UP)
        eps_lo = ComponentSpinor(spinor_signature("uu"), EPS_LOW)
        prod = eps_up.tensor(eps_lo)          # eps^{AB} eps_{CD}
        delta = prod.contract(1, 3)           # over B: -> delta^A_C
        assert np.array_equal(delta.data, np.eye(2))

    def test_full_eps_contraction_is_two(self):
        eps_up = ComponentSpinor(spinor_signature("UU"), EPS_UP)
        eps_lo = ComponentSpinor(spinor_signature("uu"), EPS_LOW)
        total = eps_up.tensor(eps_lo).contract(1, 3).contract(0, 1)
        assert total.data == pytest.approx(2.0)

    def test_spinor_square_vanishes(self):
        # zeta^A zeta_A = 0 is forced by antisymmetry
        zeta = ComponentSpinor(spinor_signature("U"), np.array([1.0, 1.0j]))
        lowered = zeta.raise_lower(0, Variance.DOWN)
        assert zeta.tensor(lowered).contract(0, 1).data == pytest.approx(0.0)

    def test_symmetric_times_eps_vanishes(self):
        phi = random_spinor(spinor_signature("uu"), RNG).symmetrize((0, 1))
        eps = ComponentSpinor(spinor_signature("UU"), EPS_UP)
        out = phi.tensor(eps).contract(0, 2).contract(0, 1)
        assert abs(out.data) < 1e-14

    def test_lowering_basis_vector(self):
        # zeta^A = (1, 0): zeta_B = zeta^A eps_{AB} = (eps_00, eps_01) = (0, 1)
        zeta = ComponentSpinor(spinor_signature("U"), np.array([1.0, 0.0]))
        lowered = zeta.raise_lower(0, Variance.DOWN)
        assert np.array_equal(lowered.data, np.array([0.0, 1.0]))

    def test_raise_lower_roundtrip(self):
        zeta = ComponentSpinor(spinor_signature("U"), np.array([3.0, 2.0 - 1.0j]))
        back = zeta.raise_lower(0, Variance.DOWN).raise_lower(0, Variance.UP)
        assert back.allclose(zeta, atol=0.0)

    def test_raising_both_eps_slots(self):
        eps_lo = ComponentSpinor(spinor_signature("uu"), EPS_LOW)
        raised = eps_lo.raise_lower(0, Variance.UP).raise_lower(1, Variance.UP)
        assert np.array_equal(raised.data, EPS_UP)

    def test_contract_kind_mismatch_rejected(self):
        s = random_spinor(spinor_signature("Up"), RNG)
        with pytest.raises(ContractionError):
            s.contract(0, 1)

    def test_raise_wrong_direction_rejected(self):
        s = random_spinor(spinor_signature("U"), RNG)
        with pytest.raises(IndexPlacementError):
            s.raise_lower(0, Variance.UP)


class TestSymmetrize:
    def test_antisym_three_spinor_slots_vanishes(self):
        s = random_spinor(spinor_signature("uuu"), RNG)
        assert s.symmetrize((0, 1, 2), antisym=True).max_abs() < 1e-14

    def test_symmetric_product_is_fixed_point(self):
        a = random_spinor(spinor_signature("u"), RNG)
        b = random_spinor(spinor_signature("u"), RNG)
        phi = (a.tensor(b) + b.tensor(a)) * 0.5
        assert phi.symmetrize((0, 1)).allclose(phi, atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_projector(self, seed):
        rng = np.random.default_rng(seed)
        s = random_spinor(spinor_signature("uuU"), rng)
        once = s.symmetrize((0, 1))
        assert once.symmetrize((0, 1)).allclose(once, atol=1e-14)

    def test_decomposition_brute_force(self):
        # theta_{AB} = theta_{(AB)} + 1/2 eps_{AB} theta_C^C over all entries
        theta = random_spinor(spinor_signature("uu"), RNG)
        sym = theta.symmetrize((0, 1))
        trace = theta.raise_lower(1, Variance.UP).contract(0, 1).data
        recon = sym.data + 0.5 * EPS_LOW * trace
        assert np.max(np.abs(theta.data - recon)) < 1e-14

    def test_heterogeneous_slots_rejected(self):
        s = random_spinor(spinor_signature("uU"), RNG)
        with pytest.raises(IndexPlacementError):
            s.symmetrize((0, 1))


class TestConjugation:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_involution(self, seed):
        rng = np.random.default_rng(seed)
        s = random_spinor(spinor_signature("uPwU"), rng)
        assert s.conjugate().conjugate().allclose(s, atol=0.0)

    def test_commutes_with_contraction(self):
        s = random_spinor(spinor_signature("uUpP"), RNG)
        a = s.contract(0, 1).conjugate()
        b = s.conjugate().contract(0, 1)
        assert a.allclose(b, atol=1e-14)

    def test_kind_swap(self):
        s = random_spinor(spinor_signature("uP"), RNG)
        assert s.conjugate().signature == spinor_signature("pU")


class TestConnectingObjects:
    def test_flat_metric_reconstruction(self):
        assert np.max(np.abs(FLAT.metric - MINKOWSKI)) < 1e-12

    def test_flat_metric_is_exact(self):
        """FLAT is built on the integer Pauli symbols, so its metric and
        inverse metric are eta to the last bit, and its symbols are the
        flat symbols byte for byte."""
        assert np.array_equal(FLAT.metric, MINKOWSKI)
        assert np.array_equal(FLAT.metric_inv, MINKOWSKI)
        assert FLAT.s.tobytes() == FLAT_SYMBOLS.tobytes()

    def test_flat_symbols_round_to_nearest(self):
        """Every nonzero component of FLAT.s and FLAT.s_inv has modulus the
        double nearest 1/sqrt(2) (worked out here in 40-digit decimals), so
        the symbols and their inverses agree to the last bit."""
        nearest = float(decimal.Context(prec=40).sqrt(decimal.Decimal(2)) / 2)
        for table in (FLAT.s, FLAT.s_inv):
            moduli = np.abs(table[table != 0])
            assert moduli.size == 8 and set(moduli.tolist()) == {nearest}

    def test_minkowski_is_read_only(self):
        with pytest.raises(ValueError):
            MINKOWSKI[0, 0] = 2
        assert MINKOWSKI[0, 0] == 1.0

    def test_conformal_scaling(self):
        co = ConnectingObjects.conformal(1.7)
        assert np.max(np.abs(co.metric - 1.7**2 * MINKOWSKI)) < 1e-12

    def test_vector_roundtrip(self):
        for _ in range(20):
            v = RNG.standard_normal(4)
            back = FLAT.spinor_to_vector(FLAT.vector_to_spinor(v))
            assert np.max(np.abs(back - v)) < 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateMetricError):
            ConnectingObjects.from_matrices(np.zeros((4, 2, 2)))


class TestPermutationSign:
    def test_matches_inversion_parity(self):
        for n in range(7):
            for perm in itertools.permutations(range(n)):
                inversions = sum(
                    perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)
                )
                assert permutation_sign(perm) == (-1) ** inversions, perm

    def test_levi_civita4_is_permutation_determinant(self):
        eps = levi_civita4()
        for index in itertools.product(range(4), repeat=4):
            if len(set(index)) < 4:
                assert eps[index] == 0.0, index
            else:
                det = np.linalg.det(np.eye(4)[list(index)])
                assert eps[index] == np.rint(det), index


class TestSpinAffinity:
    def test_split_is_exact(self):
        for _ in range(50):
            theta = SpinAffinity(
                RNG.standard_normal((4, 2, 2)) + 1j * RNG.standard_normal((4, 2, 2))
            )
            assert theta.split_residual() < 1e-14

    def test_forms_agree_for_random_inputs(self):
        worst = 0.0
        for _ in range(100):
            theta = SpinAffinity(
                RNG.standard_normal((4, 2, 2)) + 1j * RNG.standard_normal((4, 2, 2))
            )
            phi = sym_phi_mixed(RNG)
            dphi = RNG.standard_normal((4, 2, 2)) + 1j * RNG.standard_normal((4, 2, 2))
            direct, rearranged = covariant_derivative_forms(phi, theta, dphi)
            worst = max(worst, float(np.max(np.abs(direct - rearranged))))
        assert worst < 1e-12

    def test_zero_affinity_gives_partial(self):
        phi = sym_phi_mixed(RNG)
        dphi = RNG.standard_normal((4, 2, 2)) + 1j * RNG.standard_normal((4, 2, 2))
        direct, rearranged = covariant_derivative_forms(
            phi, SpinAffinity(np.zeros((4, 2, 2))), dphi
        )
        assert np.array_equal(direct, dphi)
        assert np.array_equal(rearranged, dphi)

    def test_pure_trace_drops_out(self):
        # theta_{aAC} = 1/2 eps_{AC} t_a has no symmetric part; both forms
        # reduce to the coordinate derivative for the weight-zero field
        t = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
        mixed = 0.5 * np.einsum("a,CA->aAC", t, np.eye(2))
        theta = SpinAffinity(mixed)
        phi = sym_phi_mixed(RNG)
        dphi = RNG.standard_normal((4, 2, 2)) + 1j * RNG.standard_normal((4, 2, 2))
        direct, rearranged = covariant_derivative_forms(phi, theta, dphi)
        assert np.max(np.abs(direct - dphi)) < 1e-13
        assert np.max(np.abs(rearranged - dphi)) < 1e-13


class TestBatchedAffinity:
    """Affinities, wave functions and derivatives stacked on a leading
    sample axis give the per-sample results."""

    def draws(self, n):
        theta = RNG.standard_normal((n, 4, 2, 2)) + 1j * RNG.standard_normal((n, 4, 2, 2))
        phi = np.stack([sym_phi_mixed(RNG) for _ in range(n)])
        dphi = RNG.standard_normal((n, 4, 2, 2)) + 1j * RNG.standard_normal((n, 4, 2, 2))
        return theta, phi, dphi

    def test_stacked_draws_equal_per_draw_calls(self):
        theta, phi, dphi = self.draws(20)
        direct, rearranged = covariant_derivative_forms(phi, SpinAffinity(theta), dphi)
        assert direct.shape == rearranged.shape == (20, 4, 2, 2)
        for n in range(20):
            one = SpinAffinity(theta[n])
            d, r = covariant_derivative_forms(phi[n], one, dphi[n])
            assert np.array_equal(direct[n], d) and np.array_equal(rearranged[n], r)
        batch = SpinAffinity(theta)
        for n in range(20):
            one = SpinAffinity(theta[n])
            assert np.array_equal(batch.symmetric_part()[n], one.symmetric_part())
            assert np.array_equal(batch.trace()[n], one.trace())
        assert batch.split_residual() < 1e-14

    def test_bad_trailing_shapes_rejected(self):
        theta, phi, dphi = self.draws(3)
        for bad in ((4, 2, 3), (3, 2, 2), (5, 4, 2), (2, 2)):
            with pytest.raises(IndexPlacementError):
                SpinAffinity(np.zeros(bad))
        affinity = SpinAffinity(theta)
        for bad_phi, bad_dphi in ((phi[..., :1], dphi), (phi, dphi[..., :1, :, :]),
                                  (phi[0], dphi), (phi, dphi[:2]), (phi[:, None], dphi)):
            with pytest.raises(IndexPlacementError):
                covariant_derivative_forms(bad_phi, affinity, bad_dphi)


def conformal_family(a0, a1, eta):
    a = a0 + a1 * eta
    s = a * FLAT_SYMBOLS
    ds = np.zeros((4, 4, 2, 2), dtype=complex)
    ds[0] = a1 * FLAT_SYMBOLS
    dg = np.zeros((4, 4, 4))
    dg[0] = 2.0 * a * a1 * MINKOWSKI
    return ConnectingObjects.from_matrices(s), dg, ds


class TestAffinityFromMetric:
    def test_flat_constant_objects_vanish(self):
        sym = affinity_from_metric(
            FLAT, np.zeros((4, 4, 4)), np.zeros((4, 4, 2, 2))
        )
        assert np.max(np.abs(sym)) < 1e-14

    def test_conformal_symmetric(self):
        objects, dg, ds = conformal_family(1.0, 0.3, 0.7)
        sym = affinity_from_metric(objects, dg, ds)
        assert np.max(np.abs(sym - np.transpose(sym, (0, 2, 1)))) < 1e-12

    def test_metric_compatibility_exact_derivatives(self):
        objects, dg, ds = conformal_family(1.0, 0.3, 0.7)
        sym = affinity_from_metric(objects, dg, ds)
        affinity = SpinAffinity.from_symmetric_part(sym)
        assert metric_compatibility_residual(objects, dg, ds, affinity) < 1e-12

    def test_metric_compatibility_finite_differences(self):
        # affinity from exact data; the compatibility check itself uses a
        # finite-difference d(g), so the residual is the O(h^2) stencil error
        def residual_at(h):
            eta = 0.7

            def a_of(e):
                return np.exp(0.4 * e) + 0.3 * e

            def ap_of(e):
                return 0.4 * np.exp(0.4 * e) + 0.3

            objects = ConnectingObjects.from_matrices(a_of(eta) * FLAT_SYMBOLS)
            ds_exact = np.zeros((4, 4, 2, 2), dtype=complex)
            ds_exact[0] = ap_of(eta) * FLAT_SYMBOLS
            dg_exact = np.zeros((4, 4, 4))
            dg_exact[0] = 2 * a_of(eta) * ap_of(eta) * MINKOWSKI
            sym = affinity_from_metric(objects, dg_exact, ds_exact)
            affinity = SpinAffinity.from_symmetric_part(sym)
            dg_fd = np.zeros((4, 4, 4))
            dg_fd[0] = (a_of(eta + h) ** 2 - a_of(eta - h) ** 2) / (2 * h) * MINKOWSKI
            return metric_compatibility_residual(objects, dg_fd, ds_exact, affinity)

        r1, r2 = residual_at(1e-2), residual_at(5e-3)
        assert r1 > 1e-8  # the stencil error is visible ...
        assert r1 / r2 == pytest.approx(4.0, rel=0.15)  # ... and second order

    def test_singular_objects_rejected(self):
        bad = ConnectingObjects(
            FLAT.s.copy(), FLAT.s_inv.copy(), np.zeros((4, 4)), np.zeros((4, 4))
        )
        with pytest.raises(DegenerateMetricError):
            affinity_from_metric(bad, np.zeros((4, 4, 4)), np.zeros((4, 4, 2, 2)))
