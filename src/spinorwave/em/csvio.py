"""CSV interchange for sampled fields (bit-exact schemas).

Wave-function files:  t,x,y,z,re_phi00,im_phi00,re_phi01,im_phi01,re_phi11,im_phi11
Bivector files:       t,x,y,z,F01,F02,F03,F12,F13,F23

Floats are written with ``repr`` (shortest round-trip form), so identical
data produces identical bytes.  A cell is read as ``float()`` reads it.
Every cell must be a finite number, in the files read and in the files
written.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError
from .fields import (
    BivectorField,
    PhotonWaveFunction,
    bivector_from_pairs,
    bivector_pairs,
    symmetric_components,
    symmetric_from_components,
)

WAVEFUNCTION_HEADER = "t,x,y,z,re_phi00,im_phi00,re_phi01,im_phi01,re_phi11,im_phi11"
BIVECTOR_HEADER = "t,x,y,z,F01,F02,F03,F12,F13,F23"

# Rows rendered per ``%`` format; bounds the transient list of Python floats,
# which would otherwise set the peak memory.
_CHUNK = 4096


class NonFiniteRowError(ConfigError):
    """A row to be written holds a cell that is not a finite number; ``row``
    is its 0-based index among the data rows."""

    def __init__(self, row: int, cell: float):
        self.row = row
        super().__init__(f"data row {row + 1}: {cell!r} is not a finite number")


def data_line_number(text: str, row: int) -> int:
    """The file line (1-based, blank lines counted) of data row ``row``
    (0-based) of a CSV file that the readers accepted."""
    return _numbered(text.splitlines())[row + 1][0]


def write_wavefunction_csv(points: np.ndarray, wf: PhotonWaveFunction) -> str:
    points = np.asarray(points, dtype=float).reshape(-1, 4)
    phi = symmetric_components(wf.phi.reshape(-1, 2, 2))
    cells = np.stack([phi.real, phi.imag], axis=-1).reshape(-1, 6)
    return _render(WAVEFUNCTION_HEADER, np.hstack([points, cells]))


def read_wavefunction_csv(text: str) -> tuple[np.ndarray, PhotonWaveFunction]:
    rows = _read_rows(text, WAVEFUNCTION_HEADER)
    phi = symmetric_from_components(rows[:, 4::2] + 1j * rows[:, 5::2])
    return rows[:, :4], PhotonWaveFunction.physical(phi)


def write_bivector_csv(points: np.ndarray, field: BivectorField) -> str:
    points = np.asarray(points, dtype=float).reshape(-1, 4)
    pairs = bivector_pairs(field.values.real.reshape(-1, 4, 4))
    return _render(BIVECTOR_HEADER, np.hstack([points, pairs]))


def read_bivector_csv(text: str) -> tuple[np.ndarray, BivectorField]:
    rows = _read_rows(text, BIVECTOR_HEADER)
    return rows[:, :4], BivectorField(bivector_from_pairs(rows[:, 4:]))


def _render(header: str, table: np.ndarray) -> str:
    """The header line, then one line per row of ``repr`` cells; raises
    :class:`NonFiniteRowError` for the first row with a non-finite cell."""
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise NonFiniteRowError(row, float(table[row][~np.isfinite(table[row])][0]))
    line = ",".join(["%r"] * table.shape[1]) + "\n"
    parts = [header + "\n"]
    for start in range(0, len(table), _CHUNK):
        block = table[start:start + _CHUNK]
        parts.append(line * len(block) % tuple(block.ravel().tolist()))
    return "".join(parts)


def _read_rows(text: str, header: str) -> np.ndarray:
    """The data rows under ``header`` as an (n, width) float array.

    The bulk parse takes files whose cells numpy's reader accepts; on anything
    else the per-line parse returns the same array or names the bad line.
    numpy's reader strips U+001C-U+001F around a cell as whitespace, which
    ``float()`` rejects; ``splitlines`` breaks lines at all of them but
    U+001F, so a file holding U+001F is parsed line by line."""
    width = header.count(",") + 1
    lines = text.splitlines()
    if lines and lines[0] == header and "\x1f" not in text:
        rows = _parse_bulk(lines[1:], width)
        if rows is not None:
            return rows
    return _read_rows_per_line(lines, header, width)


def _parse_bulk(body: list[str], width: int) -> np.ndarray | None:
    """``body`` as an (n, width) array of finite floats, or None when it has
    no data, a line has another width or a cell is not a finite number that
    numpy's reader accepts.  That reader skips empty lines and converts each
    cell with the correctly rounded parser ``float()`` uses, and on lines
    without U+001F it accepts a subset of what ``float()`` accepts, so the
    values match the per-line parse."""
    if not any(body):  # numpy warns on input without data
        return None
    try:
        rows = np.loadtxt(body, delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError:  # a ragged body or a cell numpy's reader rejects
        return None
    return rows if rows.shape[1] == width and np.isfinite(rows).all() else None


def _numbered(lines: list[str]) -> list[tuple[int, str]]:
    """The non-blank lines with their 1-based file line numbers."""
    return [(n, ln) for n, ln in enumerate(lines, start=1) if ln.strip()]


def _read_rows_per_line(lines: list[str], header: str, width: int) -> np.ndarray:
    numbered = _numbered(lines)
    if not numbered or numbered[0][1] != header:
        raise ConfigError(f"expected header {header!r}")
    data = []
    for n, line in numbered[1:]:
        cells = line.split(",")
        if len(cells) != width:
            raise ConfigError(f"line {n}: expected {width} columns")
        try:
            row = [float(c) for c in cells]
        except ValueError as exc:
            raise ConfigError(f"line {n}: {exc}") from exc
        for cell, value in zip(cells, row):
            if not math.isfinite(value):
                raise ConfigError(f"line {n}: {cell!r} is not a finite number")
        data.append(row)
    return np.asarray(data, dtype=float) if data else np.zeros((0, width))
