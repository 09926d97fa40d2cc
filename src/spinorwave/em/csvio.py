"""CSV interchange for sampled fields (bit-exact schemas).

Wave-function files:  t,x,y,z,re_phi00,im_phi00,re_phi01,im_phi01,re_phi11,im_phi11
Bivector files:       t,x,y,z,F01,F02,F03,F12,F13,F23

Floats are written with ``repr`` (shortest round-trip form), so identical
data produces identical bytes.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .fields import BivectorField, PhotonWaveFunction

WAVEFUNCTION_HEADER = "t,x,y,z,re_phi00,im_phi00,re_phi01,im_phi01,re_phi11,im_phi11"
BIVECTOR_HEADER = "t,x,y,z,F01,F02,F03,F12,F13,F23"

_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def _fmt(x: float) -> str:
    return repr(float(x))


def write_wavefunction_csv(points: np.ndarray, wf: PhotonWaveFunction) -> str:
    points = np.asarray(points, dtype=float).reshape(-1, 4)
    phi = wf.phi.reshape(-1, 2, 2)
    lines = [WAVEFUNCTION_HEADER]
    for p, m in zip(points, phi):
        cells = [_fmt(v) for v in p]
        for a, b in ((0, 0), (0, 1), (1, 1)):
            cells.append(_fmt(m[a, b].real))
            cells.append(_fmt(m[a, b].imag))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def read_wavefunction_csv(text: str) -> tuple[np.ndarray, PhotonWaveFunction]:
    rows = _read_rows(text, WAVEFUNCTION_HEADER)
    points = rows[:, :4]
    phi = np.zeros((len(rows), 2, 2), dtype=complex)
    phi[:, 0, 0] = rows[:, 4] + 1j * rows[:, 5]
    phi[:, 0, 1] = rows[:, 6] + 1j * rows[:, 7]
    phi[:, 1, 0] = phi[:, 0, 1]
    phi[:, 1, 1] = rows[:, 8] + 1j * rows[:, 9]
    return points, PhotonWaveFunction.physical(phi)


def write_bivector_csv(points: np.ndarray, field: BivectorField) -> str:
    points = np.asarray(points, dtype=float).reshape(-1, 4)
    F = np.asarray(field.values.real, dtype=float).reshape(-1, 4, 4)
    lines = [BIVECTOR_HEADER]
    for p, m in zip(points, F):
        cells = [_fmt(v) for v in p] + [_fmt(m[a, b]) for a, b in _PAIRS]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def read_bivector_csv(text: str) -> tuple[np.ndarray, BivectorField]:
    rows = _read_rows(text, BIVECTOR_HEADER)
    points = rows[:, :4]
    F = np.zeros((len(rows), 4, 4))
    for col, (a, b) in enumerate(_PAIRS, start=4):
        F[:, a, b] = rows[:, col]
        F[:, b, a] = -rows[:, col]
    return points, BivectorField(F)


def _read_rows(text: str, header: str) -> np.ndarray:
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1] != header:
        raise ConfigError(f"expected header {header!r}")
    width = len(header.split(","))
    data = []
    for n, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != width:
            raise ConfigError(f"line {n}: expected {width} columns")
        try:
            data.append([float(c) for c in cells])
        except ValueError as exc:
            raise ConfigError(f"line {n}: {exc}") from exc
    return np.asarray(data, dtype=float) if data else np.zeros((0, width))
