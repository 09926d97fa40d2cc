"""Maxwell bivector <-> photon wave-function conversions and diagnostics,
in flat space.

Values are batched over an arbitrary leading sample shape; the trailing axes
are the tensor/spinor components.  The extraction normalization is fixed so
that ``phi_AB = (1/2) F_{A C' B}^{C'}`` inverts the reconstruction
``F_{AA'BB'} = eps_{A'B'} phi_{AB} + eps_{AB} conj_phi_{A'B'}`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.connecting import FLAT, MINKOWSKI, PAULI_OBJECTS, levi_civita4
from ..core.convention import EPS_LOW, EPS_UP
from ..errors import BivectorError, SpinorSymmetryError


@dataclass(frozen=True)
class BivectorField:
    """Antisymmetric world tensor samples, shape (..., 4, 4)."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.shape[-2:] != (4, 4):
            raise BivectorError(f"trailing axes must be (4,4), got {arr.shape}")
        if not np.array_equal(arr, -np.swapaxes(arr, -1, -2)):
            raise BivectorError("bivector samples are not exactly antisymmetric")
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class PhotonWaveFunction:
    """Symmetric spinor samples phi_{AB} (..., 2, 2) plus the primed sector."""

    phi: np.ndarray
    phi_conj: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=complex)
        conj = np.asarray(self.phi_conj, dtype=complex)
        for name, arr in (("phi", phi), ("phi_conj", conj)):
            if arr.shape[-2:] != (2, 2):
                raise SpinorSymmetryError(f"{name} trailing axes must be (2,2)")
            if not np.array_equal(arr, np.swapaxes(arr, -1, -2)):
                raise SpinorSymmetryError(f"{name} is not exactly symmetric")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "phi_conj", conj)

    @classmethod
    def physical(cls, phi: np.ndarray) -> "PhotonWaveFunction":
        phi = np.asarray(phi, dtype=complex)
        return cls(phi, np.conj(phi))


# The six independent components F_ab, a < b, in CSV column order
# (01, 02, 03, 12, 13, 23); the three of a symmetric 2x2 matrix (00, 01, 11),
# and the place of each of its four entries among those three.
_PAIR_ROW, _PAIR_COL = np.triu_indices(4, 1)
_SYM_ROW, _SYM_COL = np.triu_indices(2)
_SYM_AT = np.array([[0, 1], [1, 2]])


def bivector_pairs(F: np.ndarray) -> np.ndarray:
    """(..., 4, 4) -> (..., 6): F_01, F_02, F_03, F_12, F_13, F_23."""
    return F[..., _PAIR_ROW, _PAIR_COL]


def bivector_from_pairs(v: np.ndarray) -> np.ndarray:
    """(..., 6) -> the exactly antisymmetric (..., 4, 4) with those pairs."""
    F = np.zeros(v.shape[:-1] + (4, 4), dtype=v.dtype)
    F[..., _PAIR_ROW, _PAIR_COL] = v
    F[..., _PAIR_COL, _PAIR_ROW] = -v
    return F


def symmetric_components(m: np.ndarray) -> np.ndarray:
    """(..., 2, 2) -> (..., 3): m_00, m_01, m_11."""
    return m[..., _SYM_ROW, _SYM_COL]


def symmetric_from_components(v: np.ndarray) -> np.ndarray:
    """(..., 3) -> the exactly symmetric (..., 2, 2) with those components."""
    return v[..., _SYM_AT]


def _extract(F: np.ndarray, s_inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi_AB = (1/2) F_{A C' B}^{C'} and its primed partner, symmetrized,
    through the inverse symbols ``s_inv``."""
    Fs = np.einsum("aAC,bBD,...ab->...ACBD", s_inv, s_inv, F)
    phi = 0.5 * np.einsum("...ACBD,CD->...AB", Fs, EPS_UP)
    conj = 0.5 * np.einsum("...ACBD,AB->...CD", Fs, EPS_UP)
    return (0.5 * (phi + np.swapaxes(phi, -1, -2)),
            0.5 * (conj + np.swapaxes(conj, -1, -2)))


def _reconstruct(phi: np.ndarray, conj: np.ndarray, s: np.ndarray) -> np.ndarray:
    """F_{AA'BB'} = eps_{A'B'} phi_{AB} + eps_{AB} conj_{A'B'}, in world
    indices through the symbols ``s``, and antisymmetrized."""
    Fs = (
        np.einsum("CD,...AB->...ACBD", EPS_LOW, phi)
        + np.einsum("AB,...CD->...ACBD", EPS_LOW, conj)
    )
    F = np.einsum("aAC,bBD,...ACBD->...ab", s, s, Fs)
    return 0.5 * (F - np.swapaxes(F, -1, -2))


def _flat_maps() -> tuple[np.ndarray, np.ndarray]:
    """The two flat conversions as (6, 6) complex matrices acting on rows:
    bivector pairs -> (phi, conj) components, and (phi, conj) components ->
    bivector pairs.  Each is the image of the six basis vectors under
    :func:`_extract` or :func:`_reconstruct`, so those stay the definition.
    The images are taken on the symbols ``PAULI``, whose metric 2 eta
    inverts exactly, so no step rounds; the flat symbols are
    ``PAULI / sqrt(2)``, which scales the two maps by 2 and by 1/2.  Every
    entry is 0, +-1/2 or +-1, times 1 or i."""
    phi, conj = _extract(bivector_from_pairs(np.eye(6)), PAULI_OBJECTS.s_inv)
    to_spinor = 2.0 * np.concatenate(
        [symmetric_components(phi), symmetric_components(conj)], axis=-1)
    basis = symmetric_from_components(np.eye(3))
    zero, s = np.zeros_like(basis), PAULI_OBJECTS.s
    to_bivector = 0.5 * bivector_pairs(np.concatenate(
        [_reconstruct(basis, zero, s), _reconstruct(zero, basis, s)]))
    for m in (to_spinor, to_bivector):
        m.setflags(write=False)
    return to_spinor, to_bivector


_TO_SPINOR, _TO_BIVECTOR = _flat_maps()


def _apply(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``rows @ matrix``, summed in a fixed order with one numpy multiply and
    one add per term.  A BLAS product may fuse or reorder these depending on
    the library and the CPU, which would make the bytes of the output files
    depend on the machine.  Sums beyond float range come out non-finite
    without a warning; the CSV writers refuse them."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = rows[..., 0, None] * matrix[0]
        for k in range(1, len(matrix)):
            out += rows[..., k, None] * matrix[k]
    return out


def _real_if_roundoff(v: np.ndarray) -> np.ndarray:
    """The real part of ``v`` when its imaginary part is round-off: below 1e-13
    of its largest real entry, or of 1.  An empty batch is real."""
    if np.max(np.abs(v.imag), initial=0.0) < 1e-13 * max(
            1.0, np.max(np.abs(v.real), initial=0.0)):
        return v.real
    return v


def spinors_from_bivector(field: BivectorField) -> PhotonWaveFunction:
    """Extract phi_{AB} (and the primed sector) from an antisymmetric F."""
    v = _apply(bivector_pairs(field.values), _TO_SPINOR)
    return PhotonWaveFunction(symmetric_from_components(v[..., :3]),
                              symmetric_from_components(v[..., 3:]))


def bivector_from_spinors(wf: PhotonWaveFunction) -> BivectorField:
    """F_{AA'BB'} = eps_{A'B'} phi_{AB} + eps_{AB} conj_{A'B'}, in world indices.

    The result is real when its imaginary part is round-off (see
    :func:`_real_if_roundoff`), as for a physical wave function."""
    v = _apply(np.concatenate([symmetric_components(wf.phi),
                               symmetric_components(wf.phi_conj)], axis=-1),
               _TO_BIVECTOR)
    return BivectorField(bivector_from_pairs(_real_if_roundoff(v)))


def stress_energy(wf: PhotonWaveFunction) -> np.ndarray:
    """T_{AA'BB'} = (1/2 pi) phi_{AB} conj_{A'B'}, converted to world indices:
    real symmetric trace-free samples, shape (..., 4, 4)."""
    Ts = np.einsum("...AB,...CD->...ACBD", wf.phi, wf.phi_conj) / (2.0 * np.pi)
    T = np.einsum("aAC,bBD,...ACBD->...ab", FLAT.s, FLAT.s, Ts)
    return _real_if_roundoff(T)


def _raised(F: np.ndarray) -> np.ndarray:
    """F^{ab} = eta^{ac} eta^{bd} F_cd with the flat metric."""
    return np.einsum("ac,bd,...cd->...ab", MINKOWSKI, MINKOWSKI, F)


def dual(field: BivectorField) -> BivectorField:
    """(*F)_ab = (1/2) eps_{abcd} F^{cd}, oriented with eps_{0123} = -1.

    This orientation makes the unprimed wave-function sector anti-self-dual
    with eigenvalue -i, so duality rotations act on it as the phase factor
    exp(-i theta).
    """
    eps4 = -levi_civita4()
    return BivectorField(0.5 * np.einsum("abcd,...cd->...ab", eps4, _raised(field.values)))


def invariants(field: BivectorField) -> tuple[np.ndarray, np.ndarray]:
    """The quadratic invariants (F_ab F^ab, F_ab (*F)^ab); both vanish iff
    the wave function is null."""
    F = field.values
    return (np.einsum("...ab,...ab->...", F, _raised(F)),
            np.einsum("...ab,...ab->...", F, _raised(dual(field).values)))
