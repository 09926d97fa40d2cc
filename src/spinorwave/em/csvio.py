"""CSV interchange for sampled fields (bit-exact schemas).

Wave-function files:  t,x,y,z,re_phi00,im_phi00,re_phi01,im_phi01,re_phi11,im_phi11
Bivector files:       t,x,y,z,F01,F02,F03,F12,F13,F23

A cell is written as Python's ``repr`` writes the float: the shortest digits
that read back to the same double, laid out positionally for decimal
exponents -4 to 15 and as ``d.ddde+XX`` otherwise, so identical data
produces identical bytes.  The writer works on blocks of rows in numpy:
Ryu (Adams, PLDI 2018) gives every cell's shortest digits from its bits with
128-bit fixed-point products on ``uint64`` arrays, and a byte gather lays
the cells out as ``repr`` does.  A cell is read as ``float()`` reads it.  Every cell
must be a finite number, in the files read and in the files written.
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

# Rows rendered per block.  A block's ``uint64`` temporaries (a few dozen
# values per cell) and the intp index of its layout gather (``_WIDTH`` per
# cell, about 1 MiB for a block of ten-cell rows) bound the writer's extra
# memory; larger blocks pay numpy's per-call cost less often but raise the
# peak.
_CHUNK = 512


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
    """The header line, then one line per row of shortest round-trip cells;
    raises :class:`NonFiniteRowError` for the first row with a non-finite
    cell."""
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise NonFiniteRowError(row, float(table[row][~np.isfinite(table[row])][0]))
    parts = [header + "\n"]
    for start in range(0, len(table), _CHUNK):
        parts.append(_render_block(table[start:start + _CHUNK]))
    return "".join(parts)


# -- shortest round-trip digits (Ryu) ---------------------------------------
#
# A finite double is 4 m2 * 2**e2, and the reals that round to it lie between
# (4 m2 - 1 - mm_shift) * 2**e2 and (4 m2 + 2) * 2**e2, bounds included when
# m2 is even; mm_shift is 0 at a power of two, whose lower neighbour is half
# as far.  Ryu scales the two bounds and the double by 10**-e10 with one
# 125-bit power of 5 (``_MUL``, picked by the exponent), keeps the integer
# parts vm < vr < vp, and drops the decimal digits on which vm and vp agree.
# The products are exact: 32-bit limbs in ``uint64`` columns.

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_TEN = _U(10)
_POW10 = np.array([10 ** k for k in range(20)], dtype=np.uint64)


def _ryu_tables() -> tuple[np.ndarray, ...]:
    """Per biased binary exponent (0-2046): the four 32-bit limbs of the
    scaled power of 5, the shift of the product past bit 96, e10, the bits
    that must be zero in 4 m2 for vr to be exact (all of them where no such
    test applies), the case where the bounds can be exact in another way
    (1: e2 >= 0 and q <= 21, 2: e2 in [-4, -1]) and, for case 1, 5**q."""
    e2 = np.maximum(np.arange(2047), 1) - 1077
    up = e2 >= 0
    # floor(e2 log10 2), less one past 3; floor(-e2 log10 5), less one past 1
    q = np.where(up, ((e2 * 78913) >> 18) - (e2 > 3), ((-e2 * 732923) >> 20) - (-e2 > 1))
    k = np.where(up, q, -e2 - q)  # the scaling power is 5**k
    pow5 = [5 ** n for n in range(k.max() + 1)]
    bits = np.array([p.bit_length() for p in pow5])[k]
    # per power: 2**(bits + 124) // 5**k + 1 for e2 >= 0, 5**k >> (bits - 125) below
    muls = [(1 << (p.bit_length() + 124)) // p + 1 for p in pow5] \
        + [(p << 125) >> p.bit_length() for p in pow5]
    limbs = np.frombuffer(b"".join(m.to_bytes(16, "little") for m in muls), dtype="<u4")
    mul = limbs.reshape(-1, 4).astype(np.uint64)[np.where(up, k, len(pow5) + k)].T.copy()
    shift = np.where(up, bits + 124 + q - e2, q + 125 - bits) - 96
    case = np.where(up, q <= 21, 2 * (q <= 1))
    mask = np.where(~up & (case == 0) & (q < 63), (1 << np.minimum(q, 62)) - 1, -1)
    return (mul, shift.astype(np.uint64), np.where(up, q, q + e2).astype(np.int64),
            mask.astype(np.uint64), case.astype(np.int8),
            np.where(case == 1, 5 ** np.minimum(q, 21), 1).astype(np.uint64))


_MUL, _SHIFT, _E10, _MASK, _CASE, _POW5 = _ryu_tables()


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digits, e10) per finite double given by its ``uint64`` bits: the
    shortest digits that read back to the double, nearest to it and even on
    a tie, with the double equal to about digits * 10**e10; zeros give
    (0, 0)."""
    biased = ((bits >> _U(52)) & _U(0x7FF)).astype(np.intp)
    mant = bits & _U((1 << 52) - 1)
    m2 = np.where(biased != 0, mant | _U(1 << 52), mant)
    closed = (m2 & _U(1)) == _U(0)
    mm_shift = (mant != _U(0)) | (biased <= 1)
    mv = m2 << _U(2)
    b0, b1, b2, b3 = _MUL.take(biased, axis=1)
    s = _SHIFT.take(biased)
    # X = mv * mul in 32-bit columns: t0-t3 below bit 128, vr = X >> (96 + s)
    a0, a1 = mv & _M32, mv >> _U(32)
    p00, p01, p02, p03 = a0 * b0, a0 * b1, a0 * b2, a0 * b3
    p10, p11, p12, p13 = a1 * b0, a1 * b1, a1 * b2, a1 * b3
    t0 = p00 & _M32
    c = (p00 >> _U(32)) + (p01 & _M32) + (p10 & _M32)
    t1 = c & _M32
    c = (p01 >> _U(32)) + (p10 >> _U(32)) + (p02 & _M32) + (p11 & _M32) + (c >> _U(32))
    t2 = c & _M32
    c = (p02 >> _U(32)) + (p11 >> _U(32)) + (p03 & _M32) + (p12 & _M32) + (c >> _U(32))
    t3 = c & ((_U(1) << s) - _U(1))
    c4 = (p03 >> _U(32)) + (p12 >> _U(32)) + (p13 & _M32) + (c >> _U(32))
    vr = ((c & _M32) >> s) | ((c4 & _M32) << (_U(32) - s)) \
        | (((p13 >> _U(32)) + (c4 >> _U(32))) << (_U(64) - s))
    # vp and vm from the fraction X mod 2**(96 + s) (limbs t0-t3) and
    # 2 mul or -(1 + mm_shift) mul; each limb of the difference is biased
    # by 2**33 and the bias carried out of the next, so no limb goes below 0
    u = t0 + (b0 << _U(1))
    u = t1 + (b1 << _U(1)) + (u >> _U(32))
    u = t2 + (b2 << _U(1)) + (u >> _U(32))
    vp = vr + ((t3 + (b3 << _U(1)) + (u >> _U(32))) >> s)
    d = mm_shift.astype(np.uint64)
    u = t0 + _U(1 << 33) - (b0 << d)
    u = t1 + _U((1 << 33) - 2) - (b1 << d) + (u >> _U(32))
    u = t2 + _U((1 << 33) - 2) - (b2 << d) + (u >> _U(32))
    u = t3 + _U((1 << 40) - 2) - (b3 << d) + (u >> _U(32))
    vm = vr + (u >> s) - (_U(1) << (_U(40) - s))
    # where the scaled bounds can be exact, vr (vm) may be followed by
    # nothing but zeros, which decides ties and whether vm itself counts
    vr_exact = (mv & _MASK.take(biased)) == _U(0)
    vm_exact = np.zeros(bits.shape, dtype=bool)
    case = _CASE.take(biased)
    one = np.flatnonzero(case == 1)
    if one.size:
        mv1, pow5 = mv[one], _POW5.take(biased[one])
        by5 = mv1 % _U(5) == _U(0)
        vr_exact[one] = by5 & (mv1 % pow5 == _U(0))
        vm_exact[one] = ~by5 & closed[one] & ((mv1 - _U(1) - d[one]) % pow5 == _U(0))
        vp[one] -= (~by5 & ~closed[one] & ((mv1 + _U(2)) % pow5 == _U(0))).astype(np.uint64)
    two = np.flatnonzero(case == 2)
    vr_exact[two] = True
    vm_exact[two] = closed[two] & mm_shift[two]
    vp[two] -= (~closed[two]).astype(np.uint64)
    # removed = the largest r with vp // 10**r > vm // 10**r, which then
    # holds for every smaller r: each pass divides once more and counts the
    # cells where it still holds, over those alone once they are few
    removed = np.zeros(bits.shape, dtype=np.intp)
    live = None
    hi, lo = vp, vm
    while True:
        hi, lo = hi // _TEN, lo // _TEN
        more = hi > lo
        k = np.count_nonzero(more)
        if not k:
            break
        if live is None:
            removed += more
        else:
            removed[live] += more
        if 2 * k < more.size:
            live = np.flatnonzero(more) if live is None else live[more]
            hi, lo = hi[more], lo[more]
    # an exact vm also drops the zeros it ends in
    vm_exact &= vm % _POW10.take(removed) == _U(0)
    live = np.flatnonzero(vm_exact)
    rest = vm[live] // _POW10.take(removed[live])
    while live.size:
        more = rest % _TEN == _U(0)
        live, rest = live[more], rest[more] // _TEN
        removed[live] += 1
    some = removed > 0
    unit = _POW10.take(removed - some)
    head = vr // unit  # vr with all but the last dropped digit gone
    vr_exact &= vr == head * unit
    digits = np.where(some, head // _TEN, vr)
    last = np.where(some, head - digits * _TEN, _U(0))
    tie_to_even = vr_exact & (last == _U(5)) & ((digits & _U(1)) == _U(0))
    digits += ((vm >= digits * _POW10.take(removed)) & ~(closed & vm_exact)) \
        | ((last >= _U(5)) & ~tie_to_even)
    zero = m2 == _U(0)
    digits[zero] = 0
    e10 = _E10.take(biased) + removed
    e10[zero] = 0
    return digits, e10


# -- layout ------------------------------------------------------------------
#
# Each cell gets a 32-byte source row: its digits right-aligned in bytes
# 0-19, then sign, exponent sign, three exponent digits, separator, '.',
# '0', 'e' and NUL bytes.  A layout lists the source bytes of one cell's
# text and its separator, padded with NUL, which the block drops at the end.

_SIGN, _EXP_SIGN, _EXP100, _EXP10, _EXP1, _SEP, _DOT, _ZERO, _E, _NUL = range(20, 30)
_SOURCE = 32
_WIDTH = 25  # sign, 17 digits, '.', 'e', sign and 3 exponent digits, separator
# A cell is 0.d1d2...dn * 10**decpt; repr writes it positionally for decpt
# from -3 to 16 (1e-4 is 0.0001, 1e16 is 1e+16) and in exponent form else.
_FIXED_MIN, _FIXED_MAX = -3, 16
_FIXED_KEYS = (_FIXED_MAX - _FIXED_MIN + 1) * 17
# four ASCII digits per integer below 10**4, as one native uint32 each
_QUADS = (np.arange(10 ** 4)[:, None] // np.array([1000, 100, 10, 1]) % 10
          + ord("0")).astype(np.uint8).view(np.uint32).ravel()


def _layouts() -> np.ndarray:
    """The layout of each (decpt, digit count) key, then of each (digit
    count, 3-digit exponent) key in exponent form."""
    rows = []
    for decpt in range(_FIXED_MIN, _FIXED_MAX + 1):
        for n in range(1, 18):
            digits = list(range(20 - n, 20))
            if decpt <= 0:
                rows.append([_ZERO, _DOT] + [_ZERO] * -decpt + digits)
            elif decpt < n:
                rows.append(digits[:decpt] + [_DOT] + digits[decpt:])
            else:
                rows.append(digits + [_ZERO] * (decpt - n) + [_DOT, _ZERO])
    for n in range(1, 18):
        digits = list(range(20 - n, 20))
        mantissa = digits[:1] + ([_DOT] + digits[1:] if n > 1 else [])
        rows.append(mantissa + [_E, _EXP_SIGN, _EXP10, _EXP1])
        rows.append(mantissa + [_E, _EXP_SIGN, _EXP100, _EXP10, _EXP1])
    table = np.full((len(rows), _WIDTH), _NUL, dtype=np.intp)
    for key, row in enumerate(rows):
        table[key, :len(row) + 2] = [_SIGN, *row, _SEP]
    return table


_LAYOUTS = _layouts()


def _render_block(block: np.ndarray) -> str:
    """The lines of ``block``'s rows of finite cells, each ending in "\n"."""
    rows, cols = block.shape
    bits = np.ascontiguousarray(block, dtype=np.float64).view(np.uint64).ravel()
    digits, e10 = _shortest(bits)
    n = digits.size
    count = np.searchsorted(_POW10[1:18], digits, side="right") + 1
    decpt = e10 + count
    exp = np.abs(decpt - 1)
    key = np.where((decpt < _FIXED_MIN) | (decpt > _FIXED_MAX),
                   _FIXED_KEYS + 2 * (count - 1) + (exp >= 100),
                   17 * (decpt - _FIXED_MIN) + count - 1)
    source = np.empty((n, _SOURCE), dtype=np.uint8)
    quads = source[:, :20].view(np.uint32)
    high, low = digits // _U(10 ** 8), digits % _U(10 ** 8)
    quads[:, 0] = _QUADS.take(high // _U(10 ** 8))
    quads[:, 1] = _QUADS.take(high // _U(10 ** 4) % _U(10 ** 4))
    quads[:, 2] = _QUADS.take(high % _U(10 ** 4))
    quads[:, 3] = _QUADS.take(low // _U(10 ** 4))
    quads[:, 4] = _QUADS.take(low % _U(10 ** 4))
    source[:, _SIGN] = (bits >> _U(63)).astype(np.uint8) * np.uint8(ord("-"))
    source[:, _EXP_SIGN] = np.where(decpt <= 0, np.uint8(ord("-")), np.uint8(ord("+")))
    source[:, _EXP100] = exp // 100 + ord("0")
    source[:, _EXP10] = exp // 10 % 10 + ord("0")
    source[:, _EXP1] = exp % 10 + ord("0")
    source.reshape(rows, cols, _SOURCE)[:, :, _SEP] = np.frombuffer(
        b"," * (cols - 1) + b"\n", dtype=np.uint8)
    source[:, _DOT:] = np.frombuffer(b".0e\0\0\0", dtype=np.uint8)
    index = _LAYOUTS.take(key, axis=0)
    index += np.arange(0, n * _SOURCE, _SOURCE)[:, None]
    return source.ravel().take(index).tobytes().translate(None, b"\0").decode("ascii")


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
