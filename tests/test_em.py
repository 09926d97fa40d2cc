"""Electromagnetic sector: conversions, residuals, invariants, stress tensor,
and the CSV interchange formats."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorwave.core.connecting import FLAT, MINKOWSKI, ConnectingObjects
from spinorwave.core.convention import EPS_LOW, EPS_UP
from spinorwave.em import (
    BivectorField,
    PhotonWaveFunction,
    bivector_from_spinors,
    dual,
    field_from_potential,
    invariants,
    massless_residual,
    massless_residual_grid,
    null_wavevector,
    plane_wave_potential,
    plane_wave_wavefunction,
    pure_gauge_potential,
    read_bivector_csv,
    read_wavefunction_csv,
    spinors_from_bivector,
    stress_energy,
    write_bivector_csv,
    write_wavefunction_csv,
)
from spinorwave.em import BIVECTOR_HEADER, WAVEFUNCTION_HEADER, csvio, fields
from spinorwave.errors import BivectorError, ConfigError, SpinorSymmetryError

RNG = np.random.default_rng(7)

# Cells that float() reads but numpy's reader may not: digit separators,
# non-ASCII decimal digits, Unicode whitespace padding.
FLOAT_ONLY_CELLS = ["1_0", "1_000.5", "2e1_0", "\u0661\u0662", "\u06f3.\u06f5", "\uff17",
                    "\xa01\xa0", "\u20002", "\x0c3"]
# Cells numpy's reader would take but float() rejects: U+001F padding.  The
# U+001C-U+001E of the same kind also break the line in ``splitlines``.
NUMPY_ONLY_CELLS = ["1\x1f", "\x1f2", " \x1f3\x1f "]
LINE_BREAK_CELLS = ["4\x1c", "\x1d5", "6\x1e"]
NON_FINITE_CELLS = ["nan", "-nan", "inf", "-Infinity", "1e400", "-1e400", "9" * 400]
BAD_CELLS = ["", " ", "x", "0x10", "1__0", "_1", "1e", "--1", "1.2.3", "\x001", "1#2", "#",
             "\"1\""]


def _valid_cells():
    """Finite cells both readers take, in several spellings and paddings."""
    spellings = st.floats(allow_nan=False, allow_infinity=False).flatmap(
        lambda x: st.sampled_from([repr(x), f"{x:.17g}", f"{x:.3e}", f"{x:f}"]))
    padded = st.tuples(st.sampled_from(["", " ", "\t"]), spellings,
                       st.sampled_from(["", " ", "\t"])).map("".join)
    return st.one_of(spellings, padded, st.integers(-10**20, 10**20).map(str),
                     st.sampled_from(["+7", ".5", "5.", "-0", "1E5", "0.0e-0"]))


@st.composite
def csv_bodies(draw, width=10):
    """Clean data lines with up to two disturbances put in: a row with one
    odd cell, a ragged row, or an empty or whitespace-only line."""
    row = st.lists(_valid_cells(), min_size=width, max_size=width)
    lines = [",".join(cells) for cells in draw(st.lists(row, max_size=5))]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["odd", "ragged", "blank"]))
        if kind == "odd":
            cells = draw(row)
            cells[draw(st.integers(0, width - 1))] = draw(
                st.sampled_from(FLOAT_ONLY_CELLS + NUMPY_ONLY_CELLS + LINE_BREAK_CELLS
                                + NON_FINITE_CELLS + BAD_CELLS))
            line = ",".join(cells)
        elif kind == "ragged":
            n = draw(st.sampled_from([1, width - 1, width + 1]))
            line = ",".join(draw(st.lists(_valid_cells(), min_size=n, max_size=n)))
        else:
            line = draw(st.sampled_from(["", " ", "\t", "\xa0"]))
        lines.insert(draw(st.integers(0, len(lines))), line)
    return lines


def _read_outcome(read):
    """The rows ``read`` returns, or the message of the ConfigError it raises."""
    try:
        return read()
    except ConfigError as exc:
        return str(exc)


def assert_readers_agree(text: str, header: str) -> None:
    """``_read_rows`` (bulk first) returns the per-line reader's array bit for
    bit, or raises its ConfigError with the same message, and warns nothing."""
    width = header.count(",") + 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bulk = _read_outcome(lambda: csvio._read_rows(text, header))
    per_line = _read_outcome(lambda: csvio._read_rows_per_line(text.splitlines(), header, width))
    assert type(bulk) is type(per_line), (bulk, per_line)
    if isinstance(per_line, str):
        assert bulk == per_line
    else:
        assert bulk.dtype == per_line.dtype and bulk.shape == per_line.shape
        assert bulk.tobytes() == per_line.tobytes()


def random_bivectors(n):
    raw = RNG.standard_normal((n, 4, 4))
    return BivectorField(raw - np.swapaxes(raw, -1, -2))


def random_wavefunction(n=1):
    raw = RNG.standard_normal((n, 2, 2)) + 1j * RNG.standard_normal((n, 2, 2))
    return PhotonWaveFunction.physical(0.5 * (raw + np.swapaxes(raw, -1, -2)))


class TestConversions:
    def test_zero_maps_to_zero(self):
        wf = spinors_from_bivector(BivectorField(np.zeros((4, 4))))
        assert np.max(np.abs(wf.phi)) == 0.0

    def test_roundtrip_100_draws(self):
        F = random_bivectors(100)
        back = bivector_from_spinors(spinors_from_bivector(F))
        assert np.max(np.abs(back.values - F.values)) < 1e-12

    def test_real_field_gives_conjugate_sector(self):
        wf = spinors_from_bivector(random_bivectors(50))
        assert np.max(np.abs(wf.phi_conj - np.conj(wf.phi))) < 1e-14

    def test_linearity(self):
        wf1, wf2 = random_wavefunction(8), random_wavefunction(8)
        summed = PhotonWaveFunction(wf1.phi + wf2.phi, wf1.phi_conj + wf2.phi_conj)
        lhs = bivector_from_spinors(summed).values
        rhs = bivector_from_spinors(wf1).values + bivector_from_spinors(wf2).values
        assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_single_component_gives_real_rank2(self):
        phi = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        F = bivector_from_spinors(PhotonWaveFunction.physical(phi)).values
        assert np.max(np.abs(np.imag(F))) < 1e-14
        assert np.linalg.matrix_rank(F) == 2

    def test_antisymmetry_enforced(self):
        with pytest.raises(BivectorError):
            BivectorField(np.eye(4))

    def test_symmetry_enforced(self):
        with pytest.raises(SpinorSymmetryError):
            PhotonWaveFunction.physical(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_duality_rotation_phase(self):
        F = random_bivectors(10)
        wf = spinors_from_bivector(F)
        theta = 0.37
        rotated = BivectorField(
            math.cos(theta) * F.values + math.sin(theta) * dual(F).values
        )
        wf_rot = spinors_from_bivector(rotated)
        assert np.max(np.abs(wf_rot.phi - np.exp(-1j * theta) * wf.phi)) < 1e-12


def einsum_spinors(F, objects):
    """Reference: phi_AB = (1/2) F_{A C' B}^{C'} per sample, symmetrized."""
    Fs = np.einsum("aAC,bBD,...ab->...ACBD", objects.s_inv, objects.s_inv, F)
    phi = 0.5 * np.einsum("...ACBD,CD->...AB", Fs, EPS_UP)
    conj = 0.5 * np.einsum("...ACBD,AB->...CD", Fs, EPS_UP)
    return (0.5 * (phi + np.swapaxes(phi, -1, -2)),
            0.5 * (conj + np.swapaxes(conj, -1, -2)))


def einsum_bivector(phi, conj, objects):
    """Reference: F_{AA'BB'} = eps_{A'B'} phi_{AB} + eps_{AB} conj_{A'B'} per
    sample, in world indices and antisymmetrized."""
    Fs = (np.einsum("CD,...AB->...ACBD", EPS_LOW, phi)
          + np.einsum("AB,...CD->...ACBD", EPS_LOW, conj))
    F = np.einsum("aAC,bBD,...ACBD->...ab", objects.s, objects.s, Fs)
    return 0.5 * (F - np.swapaxes(F, -1, -2))


class TestMatricesMatchEinsum:
    """The fixed-matrix conversions against the per-sample einsum formulas;
    the summation order differs, so they agree to round-off.  On conformal
    objects S = scale x flat the formulas give the flat results times
    scale^2 (spinors from a bivector) and scale^-2 (a bivector from spinors)."""

    OBJECTS = [(FLAT, 1.0), (ConnectingObjects.conformal(2.5), 2.5)]
    SHAPES = [(), (7,), (3, 5)]

    @staticmethod
    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("objects, scale", OBJECTS, ids=["flat", "conformal"])
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_to_spinor(self, objects, scale, shape):
        raw = RNG.standard_normal(shape + (4, 4))
        F = raw - np.swapaxes(raw, -1, -2)
        wf = spinors_from_bivector(BivectorField(F))
        phi, conj = einsum_spinors(F, objects)
        assert wf.phi.shape == wf.phi_conj.shape == shape + (2, 2)
        assert self.close(wf.phi, scale**2 * phi) and self.close(wf.phi_conj, scale**2 * conj)

    @pytest.mark.parametrize("objects, scale", OBJECTS, ids=["flat", "conformal"])
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_to_bivector(self, objects, scale, shape):
        def symmetric():
            raw = RNG.standard_normal(shape + (2, 2)) + 1j * RNG.standard_normal(shape + (2, 2))
            return raw + np.swapaxes(raw, -1, -2)

        phi = symmetric()
        physical = bivector_from_spinors(PhotonWaveFunction.physical(phi)).values
        want = einsum_bivector(phi, np.conj(phi), objects) / scale**2
        assert physical.dtype == float and physical.shape == shape + (4, 4)
        assert np.max(np.abs(want.imag)) < 1e-15 * np.max(np.abs(want.real))
        assert self.close(physical, want.real)
        # an independent primed sector gives a complex bivector
        conj = symmetric()
        general = bivector_from_spinors(PhotonWaveFunction(phi, conj)).values
        assert general.dtype == complex
        assert self.close(general, einsum_bivector(phi, conj, objects) / scale**2)


class TestExactMaps:
    """The flat conversions of basis elements, exactly: S_a = sigma_a / sqrt(2)
    makes every entry of the two conversion matrices 0, +-1/2 or +-1, times
    1 or i."""

    # rows: the basis bivectors F01, F02, F03, F12, F13, F23; columns: phi00,
    # phi01, phi11 and the primed conj00, conj01, conj11
    TO_SPINOR = [
        [0.5, 0, -0.5, 0.5, 0, -0.5],
        [0.5j, 0, 0.5j, -0.5j, 0, -0.5j],
        [0, -0.5, 0, 0, -0.5, 0],
        [0, 0.5j, 0, 0, -0.5j, 0],
        [-0.5, 0, -0.5, -0.5, 0, -0.5],
        [-0.5j, 0, 0.5j, 0.5j, 0, -0.5j],
    ]
    # rows: the basis spinors phi00, phi01, phi11, conj00, conj01, conj11 (the
    # other sector zero); columns: F01, F02, F03, F12, F13, F23
    TO_BIVECTOR = [
        [0.5, -0.5j, 0, 0, -0.5, 0.5j],
        [0, 0, -1, -1j, 0, 0],
        [-0.5, -0.5j, 0, 0, -0.5, -0.5j],
        [0.5, 0.5j, 0, 0, -0.5, -0.5j],
        [0, 0, -1, 1j, 0, 0],
        [-0.5, 0.5j, 0, 0, -0.5, 0.5j],
    ]

    def test_basis_bivectors(self):
        wf = spinors_from_bivector(BivectorField(fields.bivector_from_pairs(np.eye(6))))
        got = np.concatenate([fields.symmetric_components(wf.phi),
                              fields.symmetric_components(wf.phi_conj)], axis=-1)
        assert np.array_equal(got, np.array(self.TO_SPINOR))

    def test_basis_spinors(self):
        basis = fields.symmetric_from_components(np.eye(3, dtype=complex))
        zero = np.zeros_like(basis)
        F = np.concatenate([bivector_from_spinors(PhotonWaveFunction(basis, zero)).values,
                            bivector_from_spinors(PhotonWaveFunction(zero, basis)).values])
        assert np.array_equal(fields.bivector_pairs(F), np.array(self.TO_BIVECTOR))

    def test_matrix_entries(self):
        entries = np.concatenate([fields._TO_SPINOR, fields._TO_BIVECTOR]).ravel().tolist()
        assert set(entries) <= {0, 0.5, -0.5, 1, -1, 0.5j, -0.5j, 1j, -1j}

    def test_physical_unit_spinor(self):
        # phi00 = 1 with its conjugate sector: the sum of two images of 1/2
        phi = fields.symmetric_from_components(np.array([1.0, 0.0, 0.0]))
        F = bivector_from_spinors(PhotonWaveFunction.physical(phi)).values
        assert F.dtype == float
        assert F[0, 1] == 1.0 and F[2, 3] == 0.0


class TestPotentials:
    def test_pure_gauge_has_no_field(self):
        pot = pure_gauge_potential(np.array([0.7, 0.2, -0.4, 0.9]), scale=2.0)
        pts = RNG.standard_normal((30, 4))
        assert np.max(np.abs(field_from_potential(pot, pts).values)) < 1e-12

    def test_null_wave_matches_hand_differentiation(self):
        # Phi = (0, sin(t - x), 0, 0): F_01 = -cos(t-x) hand-derived from
        # F_ab = d_a Phi_b - d_b Phi_a with k = (1, -1, 0, 0) covector
        k = np.array([1.0, -1.0, 0.0, 0.0])
        p = np.array([0.0, 1.0, 0.0, 0.0])
        pot = plane_wave_potential(p, k)
        pts = RNG.standard_normal((20, 4))
        F = field_from_potential(pot, pts).values
        phase = pts @ k
        assert np.max(np.abs(F[:, 0, 1] - np.cos(phase))) < 1e-12
        assert np.max(np.abs(F[:, 1, 0] + np.cos(phase))) < 1e-12
        assert np.max(np.abs(F[:, 2, :])) < 1e-14


class TestGridErrors:
    def test_potential_grid_too_small(self):
        from spinorwave.errors import GridError

        with pytest.raises(GridError, match="axis 0 too small"):
            massless_residual_grid(np.zeros((2, 5, 5, 5, 2, 2)), 0.1)

    def test_wavefunction_grid_shape_enforced(self):
        from spinorwave.errors import GridError

        with pytest.raises(GridError):
            massless_residual_grid(np.zeros((5, 5, 2, 2)), 0.1)


class TestMasslessResidual:
    def test_null_plane_wave_satisfies_field_equation(self):
        alpha = np.array([1.0 + 0.2j, 0.4 - 0.9j])
        k = null_wavevector(alpha)
        assert abs(k @ MINKOWSKI @ k) < 1e-12
        wf = plane_wave_wavefunction(alpha, k)
        pts = RNG.standard_normal((40, 4))
        assert massless_residual(wf, pts) < 1e-12

    def test_constant_wavefunction_has_zero_residual(self):
        wf = plane_wave_wavefunction(np.array([1.0, 2.0]), np.zeros(4))
        assert massless_residual(wf, RNG.standard_normal((10, 4))) < 1e-14

    def test_non_null_wave_rejected(self):
        alpha = np.array([1.0 + 0.2j, 0.4 - 0.9j])
        k = null_wavevector(alpha) + np.array([0.6, 0.0, 0.0, 0.0])
        wf = plane_wave_wavefunction(alpha, k)
        pts = RNG.standard_normal((40, 4))
        bound = 0.1 * float(np.linalg.norm(k)) * float(np.max(np.abs(wf.phi(pts))))
        assert massless_residual(wf, pts) > bound

    def test_grid_residual_second_order(self):
        alpha = np.array([1.0 + 0.2j, 0.4 - 0.9j])
        k = null_wavevector(alpha)
        wf = plane_wave_wavefunction(alpha, k)

        def residual(n):
            axes = [np.linspace(0.0, 1.0, n)] * 4
            mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
            return massless_residual_grid(wf.phi(mesh), 1.0 / (n - 1))

        r1, r2 = residual(9), residual(17)
        assert math.log2(r1 / r2) == pytest.approx(2.0, abs=0.3)


class TestStressEnergy:
    def test_trace_free_and_positive(self):
        g_inv = np.linalg.inv(MINKOWSKI)
        t = np.array([1.0, 0.0, 0.0, 0.0])
        for _ in range(100):
            wf = random_wavefunction(1)
            T = stress_energy(wf)[0]
            assert np.max(np.abs(T - T.T)) < 1e-12
            assert abs(np.einsum("ab,ab->", g_inv, T)) < 1e-12
            assert t @ T @ t >= -1e-12

    def test_zero_wavefunction(self):
        wf = PhotonWaveFunction.physical(np.zeros((2, 2)))
        assert np.max(np.abs(stress_energy(wf))) == 0.0

    def test_empty_batch_is_real_and_empty(self):
        # both conversions to world tensors share one round-off rule
        wf = PhotonWaveFunction.physical(np.zeros((0, 2, 2)))
        for values in (stress_energy(wf), bivector_from_spinors(wf).values):
            assert values.shape == (0, 4, 4) and values.dtype == np.float64

    def test_matches_nested_loop_oracle_with_prefactor(self):
        wf = random_wavefunction(1)
        T = stress_energy(wf)[0]
        want = np.zeros((4, 4), dtype=complex)
        for a in range(4):
            for b in range(4):
                acc = 0j
                for A in range(2):
                    for Ap in range(2):
                        for B in range(2):
                            for Bp in range(2):
                                acc += (
                                    FLAT.s[a, A, Ap]
                                    * FLAT.s[b, B, Bp]
                                    * wf.phi[0, A, B]
                                    * wf.phi_conj[0, Ap, Bp]
                                )
                want[a, b] = acc / (2.0 * math.pi)
        assert np.max(np.abs(T - want)) < 1e-12


class TestInvariants:
    def test_null_wave_invariants_vanish(self):
        alpha = np.array([1.0 + 0.2j, 0.4 - 0.9j])
        wf_a = plane_wave_wavefunction(alpha, null_wavevector(alpha))
        pts = RNG.standard_normal((20, 4))
        phi = wf_a.phi(pts)
        field = bivector_from_spinors(
            PhotonWaveFunction(0.5 * (phi + np.swapaxes(phi, -1, -2)),
                               np.conj(0.5 * (phi + np.swapaxes(phi, -1, -2))))
        )
        i1, i2 = invariants(field)
        assert np.max(np.abs(i1)) < 1e-12
        assert np.max(np.abs(i2)) < 1e-12

    def test_pure_electric_component(self):
        F = np.zeros((4, 4))
        F[0, 1], F[1, 0] = 1.0, -1.0
        i1, i2 = invariants(BivectorField(F))
        assert i1 == pytest.approx(-2.0)
        assert i2 == pytest.approx(0.0)

    def test_zero_field(self):
        i1, i2 = invariants(BivectorField(np.zeros((4, 4))))
        assert i1 == 0.0 and i2 == 0.0


class TestCsv:
    def test_wavefunction_roundtrip_bytes(self):
        pts = RNG.standard_normal((12, 4))
        wf = random_wavefunction(12)
        text = write_wavefunction_csv(pts, wf)
        pts2, wf2 = read_wavefunction_csv(text)
        assert write_wavefunction_csv(pts2, wf2) == text

    def test_bivector_roundtrip_bytes(self):
        pts = RNG.standard_normal((9, 4))
        F = random_bivectors(9)
        text = write_bivector_csv(pts, F)
        pts2, F2 = read_bivector_csv(text)
        assert write_bivector_csv(pts2, F2) == text
        assert np.max(np.abs(F2.values - F.values)) < 1e-15

    def test_headers_are_pinned(self):
        from spinorwave.em import BIVECTOR_HEADER, WAVEFUNCTION_HEADER

        assert WAVEFUNCTION_HEADER == (
            "t,x,y,z,re_phi00,im_phi00,re_phi01,im_phi01,re_phi11,im_phi11"
        )
        assert BIVECTOR_HEADER == "t,x,y,z,F01,F02,F03,F12,F13,F23"

    def test_bulk_and_per_line_parse_agree(self):
        from spinorwave.em import BIVECTOR_HEADER

        pts = RNG.standard_normal((5000, 4))
        text = write_bivector_csv(pts, random_bivectors(5000))
        bulk = csvio._read_rows(text, BIVECTOR_HEADER)
        per_line = csvio._read_rows_per_line(text.splitlines(), BIVECTOR_HEADER, 10)
        assert bulk.shape == (5000, 10)
        assert np.array_equal(bulk, per_line)
        # blank lines send the parse down the per-line path, with equal rows
        spaced = text.replace("\n", "\n\n", 3) + "\n  \n"
        assert np.array_equal(csvio._read_rows(spaced, BIVECTOR_HEADER), bulk)

    @pytest.mark.parametrize("bad, message", [
        ("0,0,0,0,1,2,3,4,5", "line 6: expected 10 columns"),
        ("0,0,0,0,1,2,3,4,5,6,7", "line 6: expected 10 columns"),
        ("0,0,0,0,1,2,x,4,5,6", "line 6: could not convert string to float: 'x'"),
        ("0,0,0,0,1,2,,4,5,6", "line 6: could not convert string to float: ''"),
        ("0,nan,0,0,1,2,3,4,5,inf", "line 6: 'nan' is not a finite number"),
        ("0,0,0,0,1,2,3,4,5,-Infinity", "line 6: '-Infinity' is not a finite number"),
    ])
    def test_bad_line_named_by_file_line(self, bad, message):
        from spinorwave.em import BIVECTOR_HEADER

        good = "0,0,0,0,1,2,3,4,5,6"
        text = f"\n{BIVECTOR_HEADER}\n{good}\n\n{good}\n{bad}\n{good}\n"
        with pytest.raises(ConfigError) as info:
            read_bivector_csv(text)
        assert str(info.value) == message

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(header=st.sampled_from([BIVECTOR_HEADER, WAVEFUNCTION_HEADER]),
           newline=st.sampled_from(["\n", "\n", "\r\n"]), body=csv_bodies())
    def test_bulk_reader_agrees_with_per_line_reader(self, header, newline, body):
        assert_readers_agree(newline.join([header, *body]) + newline, header)

    @pytest.mark.parametrize("cell, value", [
        ("1_0", 10.0),
        ("2_5e-1_0", 2.5e-9),
        ("\u0661\u0662", 12.0),  # Arabic-Indic digits
        ("-\u0663.\u0665", -3.5),
    ])
    def test_cells_only_float_reads_take_the_per_line_path(self, cell, value):
        row = ",".join([cell] + ["0"] * 9)
        text = f"{BIVECTOR_HEADER}\n0,1,2,3,4,5,6,7,8,9\n{row}\n"
        assert csvio._parse_bulk(text.splitlines()[1:], 10) is None
        assert_readers_agree(text, BIVECTOR_HEADER)
        pts, _ = read_bivector_csv(text)
        assert pts[1, 0] == value

    @pytest.mark.parametrize("cell", NUMPY_ONLY_CELLS + NON_FINITE_CELLS + BAD_CELLS)
    @pytest.mark.parametrize("column", [0, 9])
    def test_cells_neither_reader_takes(self, cell, column):
        cells = ["0"] * 10
        cells[column] = cell
        text = f"{BIVECTOR_HEADER}\n0,1,2,3,4,5,6,7,8,9\n{','.join(cells)}\n"
        assert_readers_agree(text, BIVECTOR_HEADER)
        with pytest.raises(ConfigError, match="^line 3: "):
            read_bivector_csv(text)

    def test_empty_lines_stay_on_the_bulk_path(self):
        body = ["", "0,1,2,3,4,5,6,7,8,9", "", "", "9,8,7,6,5,4,3,2,1,0", ""]
        rows = csvio._parse_bulk(body, 10)
        assert rows is not None and rows.shape == (2, 10)
        assert_readers_agree("\n".join([BIVECTOR_HEADER, *body]), BIVECTOR_HEADER)
        assert csvio._parse_bulk(["", ""], 10) is None

    def test_header_only_file_in_both_directions(self):
        from spinorwave.em import BIVECTOR_HEADER, WAVEFUNCTION_HEADER

        pts, F = read_bivector_csv(BIVECTOR_HEADER + "\n")
        assert pts.shape == (0, 4) and F.values.shape == (0, 4, 4)
        out = write_wavefunction_csv(pts, spinors_from_bivector(F))
        assert out == WAVEFUNCTION_HEADER + "\n"
        pts, wf = read_wavefunction_csv(out)
        assert pts.shape == (0, 4) and wf.phi.shape == (0, 2, 2)
        assert write_bivector_csv(pts, bivector_from_spinors(wf)) == BIVECTOR_HEADER + "\n"
        for header in (BIVECTOR_HEADER, WAVEFUNCTION_HEADER):
            assert csvio._read_rows(header + "\n", header).shape == (0, 10)


def render_with_repr(header: str, table: np.ndarray) -> str:
    """The writer's output as ``'%r'`` formats each cell: the reference the
    block formatter must match byte for byte."""
    line = ",".join(["%r"] * table.shape[1]) + "\n"
    return header + "\n" + line * len(table) % tuple(table.ravel().tolist())


def _with_ulps(values, ulps: int) -> np.ndarray:
    """``values`` and their neighbours up to ``ulps`` steps away on either
    side, both signs."""
    values = np.asarray(values, dtype=float)
    out = [values]
    up, down = values, values
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    out = np.concatenate(out)
    out = out[np.isfinite(out)]
    return np.concatenate([out, -out])


def _em_roundtrip_table() -> np.ndarray:
    """The bivector input table of the benchmark's em round trip (seed 7)."""
    rng = np.random.default_rng([7, 4])
    return np.hstack([rng.uniform(-1.0, 1.0, (20000, 4)), rng.standard_normal((20000, 6))])


CELL_FAMILIES = {
    "signed zeros": lambda: np.array([0.0, -0.0]),
    "powers of two": lambda: _with_ulps(np.ldexp(1.0, np.arange(-1074, 1024)), 1),
    "powers of ten": lambda: _with_ulps([float(f"1e{k}") for k in range(-323, 309)], 3),
    "form switches": lambda: _with_ulps([1e-4, 1e-5, 1e15, 1e16, 1e17, 9999999999999998.0], 20),
    "integers": lambda: np.concatenate([np.arange(2.0 ** 20 + 1), _with_ulps([2.0 ** 53], 1)]),
    "tenths and eighths": lambda: np.concatenate([np.arange(-4000, 4001) / 10,
                                                  np.arange(-4000, 4001) / 8]),
}


def reference_ryu_tables() -> tuple[np.ndarray, ...]:
    """``csvio._ryu_tables`` one biased exponent at a time, in Python
    integers."""
    rows = []
    for biased in range(2047):
        e2 = max(biased, 1) - 1077
        if e2 >= 0:
            q = ((e2 * 78913) >> 18) - (e2 > 3)
            pow5 = 5 ** q
            mul = (1 << (pow5.bit_length() + 124)) // pow5 + 1
            shift = pow5.bit_length() + 124 + q - e2
            e10, case = q, 1 if q <= 21 else 0
        else:
            q = ((-e2 * 732923) >> 20) - (-e2 > 1)
            pow5 = 5 ** (-e2 - q)
            mul = (pow5 << 125) >> pow5.bit_length()
            shift = q + 125 - pow5.bit_length()
            e10, case = q + e2, 2 if q <= 1 else 0
        mask = (1 << q) - 1 if case == 0 and e2 < 0 and q < 63 else (1 << 64) - 1
        rows.append(([mul >> k & 0xFFFFFFFF for k in (0, 32, 64, 96)], shift - 96, e10, mask,
                     case, 5 ** q if case == 1 else 1))
    mul, shift, e10, mask, case, pow5 = zip(*rows)
    return (np.array(mul, dtype=np.uint64).T.copy(), np.array(shift, dtype=np.uint64),
            np.array(e10, dtype=np.int64), np.array(mask, dtype=np.uint64),
            np.array(case, dtype=np.int8), np.array(pow5, dtype=np.uint64))


class TestBlockFormatter:
    """The block formatter's bytes against ``'%r'`` on every cell."""

    def test_tables_match_the_reference(self):
        """Every row of the Ryu tables, and the digit quads, equal the
        per-exponent and per-integer builds."""
        for got, want in zip(csvio._ryu_tables(), reference_ryu_tables()):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
        quads = np.frombuffer("".join(f"{k:04d}" for k in range(10 ** 4)).encode("ascii"),
                              dtype=np.uint32)
        assert csvio._QUADS.dtype == quads.dtype and np.array_equal(csvio._QUADS, quads)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 12).flatmap(lambda width: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False),
                 min_size=width, max_size=width), min_size=1, max_size=6)))
    def test_tables_match_repr(self, rows):
        table = np.array(rows, dtype=float)
        assert csvio._render(BIVECTOR_HEADER, table) == render_with_repr(BIVECTOR_HEADER, table)

    @pytest.mark.parametrize("family", sorted(CELL_FAMILIES))
    def test_cell_families_match_repr(self, family):
        cells = CELL_FAMILIES[family]()
        table = np.resize(cells, (-(-cells.size // 8), 8))
        assert csvio._render(WAVEFUNCTION_HEADER, table) == render_with_repr(
            WAVEFUNCTION_HEADER, table)

    def test_em_roundtrip_table_matches_repr(self):
        table = _em_roundtrip_table()
        assert len(table) > csvio._CHUNK
        assert csvio._render(BIVECTOR_HEADER, table) == render_with_repr(BIVECTOR_HEADER, table)
