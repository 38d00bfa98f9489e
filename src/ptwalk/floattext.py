"""Exact float64 text for large table columns, as byte rows.

Each value's text is one uint8 row padded with 0xFF, a byte that UTF-8 never
holds, and may end with the separator that follows it in a table; a table of
such rows compacts to its text with bytes.translate.
``float_rows`` writes one of two texts, byte for byte:

- ``'%.17g' % x`` (CSV) is in fixed notation when the decimal exponent X, after
  rounding to 17 significant digits, lies in [-4, 16]; there it is the 17-digit
  integer D = round(|x| 10^(16 - X)), half to even, with a decimal point placed
  by X and trailing fractional zeros dropped.
- ``float.__repr__`` (JSON) is in fixed notation for X in [-4, 15], with '.0'
  after an integer; its digits are the shortest that read back as x, the
  nearest to x among those.

Exactness: 10^s for s <= 20 is an exact double, and the Veltkamp/Dekker
two-product gives fl(|x| 10^s) = p and its rounding error e exactly, so
V = |x| 10^(16 - X) = p + e.  Where p >= 10^16 > 2^53, p is an even integer.
'%.17g' takes D = p + rint(e), which rounds V half to even.  For repr, the
values that read back as x fill V +- h, h = ulp(x)/2 10^s.  With F = floor(e),
the multiple of m below V lies e - (F - D mod m) under it, the one above
(F - D mod m + m) - e over it; e +- h and 2e are exact doubles (they are
multiples of 2^-48 under 32), so each test is exact.  The digits are the one
inside multiple of 100 (the interval is under 23 wide, so it is also the only
inside multiple of any coarser power of ten), else the nearer inside multiple
of 10, else of 1 (the nearest integer always is inside: h > 1/2).
Neither end of the interval decides a digit, so it does not matter that an end
reads back as x only for an even significand, nor that the gap below a power
of two is h/2: an end is an integer only for x >= 2^52, where V = 10x is itself
the nearer candidate, and a power of two is itself the candidate of the
coarsest spacing with one inside.  X comes from log10, which may be off by one
next to a power of ten; the exact test 10^16 <= D and digits < 10^17 rejects
every such row.  '%' or repr itself writes the rest: exponent form, +-0, inf,
nan, subnormals, a rounding up to 10^17, and for repr a tie.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

__all__ = ["float_rows", "text_rows"]

_LOW, _HIGH = -4, 16  # the exponents '%.17g' writes in fixed notation; repr stops at 15
_POW10 = np.array([float(10**s) for s in range(_HIGH - _LOW + 1)])  # exact doubles
_SPLIT = 134217729.0  # 2^27 + 1, the Veltkamp splitter
_HALF_ULP = _POW10 * 2.0**-53  # h = ulp(x)/2 10^s = 2^E _HALF_ULP[s] for x in [2^E, 2^(E+1))
_STEPS = np.array([100, 10, 1])[:, None]  # candidate digit spacings, in units of V
# floor(r * 1/m) = r // m exactly for integers r < 100: each double 1/m is just above 1/m.
_RECIPROCALS = np.array([0.01, 0.1, 1.0])[:, None]
# Values per block: the layout holds 24 int64 indices per value, and blocks of
# this size keep it in cache (0.75 MB) and bound the memory a table adds.  A
# 14 752-value column took 1.35x as long as one 2^14 block as in 2^12 blocks;
# whole Bloch tables took within 6% of the time they take in 2^13 blocks.
_BLOCK = 2**12
_WIDTH = 24  # no float text '%' or repr writes is longer


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)

# Each value's bytes before layout, 24 per row and built as six uint32 words:
# "000d" for the leading digit d, four 4-digit groups, then sign, '.', 0xFF, 0xFF.
# So digit k sits at byte 3 + k, and byte 0 is a '0'.
_GROUPS = np.ascontiguousarray(  # "%04d" % n as one uint32, for n < 10^4
    np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")).view(np.uint32).ravel()
_ZERO, _SIGN, _DOT, _PAD = 0, 20, 21, 23
_TAIL = np.frombuffer(b"\xff.\xff\xff-.\xff\xff", dtype=np.uint32)  # by sign


def _layouts(dot_zero: bool) -> np.ndarray:
    """The byte of each of the 24 output columns, by exponent X and significant digit count n.

    A row is the sign, the digits with '.' placed by X ('0.' and zeros first for
    X < 0), up to the last significant digit or the units digit (with dot_zero,
    '.0' after the units digit), then padding.
    """
    x = np.arange(_LOW, _HIGH + 1)[:, None, None]
    n = np.arange(18)[:, None]
    j = np.arange(_WIDTH)
    small = np.where(j == 2, _DOT, np.where(j < 2 - x, _ZERO, j + x + 1))
    column = np.where(x < 0, small, np.where(j <= x + 1, j + 2, np.where(j == x + 2, _DOT, j + 1)))
    column[..., 0] = _SIGN
    last = np.where(x < 0, n + 1 - x, np.where(n > x + 1, n + 1, x + 1 + 2 * dot_zero))
    return np.where(j <= last, column, _PAD).reshape(-1, _WIDTH)


_LAYOUTS = {False: _layouts(False), True: _layouts(True)}


def text_rows(texts: list[str], end: bytes = b"") -> np.ndarray:
    """Each text's UTF-8 bytes as one row of a uint8 matrix, padded with 0xFF and
    ended by ``end``."""
    data = [text.encode() for text in texts]
    width = max(map(len, data), default=0)
    padded = b"".join([item.ljust(width, b"\xff") + end for item in data])
    return np.frombuffer(padded, dtype=np.uint8).reshape(len(data), width + len(end))


def float_rows(values: np.ndarray, shortest: bool, texts: Callable[[np.ndarray], list[str]],
               ends: Sequence[tuple[int, bytes]] = ()) -> np.ndarray:
    """The text of each float64 value as one 0xFF-padded uint8 row, 24 bytes wide.

    ``'%.17g' % v`` for shortest=False and ``float.__repr__(v)`` for shortest=True,
    byte for byte, for the values in fixed notation; ``texts`` writes the rest
    (an array of them) as one str each, of 24 characters at most.

    ``ends`` splits the values, in order, into segments of (count, separator):
    the rows of a segment end with its separator, right after their padding, and
    every row is 24 bytes plus the longest separator wide.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    width = _WIDTH + max((len(end) for _, end in ends), default=0)
    rows = np.full((values.size, width), 0xFF, dtype=np.uint8)
    start = 0
    for count, end in ends:
        rows[start:start + count, width - len(end):] = np.frombuffer(end, dtype=np.uint8)
        start += count
    text = rows[:, :_WIDTH]
    done = np.zeros(values.size, dtype=bool)
    for start in range(0, values.size, _BLOCK):
        taken, fixed_rows = _fixed_rows(values[start:start + _BLOCK], shortest)
        text[start + taken] = fixed_rows
        done[start + taken] = True
    rest = text_rows(texts(values[~done]))
    text[~done, :rest.shape[1]] = rest
    return rows


def _fixed_rows(values: np.ndarray, shortest: bool) -> tuple[np.ndarray, np.ndarray]:
    """The rows written here, all in fixed notation, and their bytes; the caller writes the rest."""
    magnitude = np.abs(values)
    top = _HIGH - shortest
    rows = np.flatnonzero((magnitude >= 1e-4) & (magnitude < _POW10[top + 1]))
    a = magnitude[rows]
    x = np.clip(np.floor(np.log10(a)), _LOW, top).astype(np.intp)
    s = _HIGH - x
    p = a * _POW10[s]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[s], _POW10_LO[s]
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    if shortest:
        d, fixed = _shortest(a, p, e, s)
    else:
        d = p.astype(np.int64) + np.rint(e).astype(np.int64)
        fixed = ((p > 1e16) | ((p == 1e16) & (e >= 0))) & (d < 10**17)
    rows, x, d = rows[fixed], x[fixed], d[fixed]

    lead, rest = np.divmod(d, 10**16)
    high, low = np.divmod(rest, 10**8)
    words = np.empty((d.size, 6), dtype=np.uint32)
    words[:, 0] = _GROUPS[lead]
    quotient, remainder = np.divmod(np.stack([high, low], axis=1), 10**4)
    words[:, 1:5] = _GROUPS[np.stack([quotient, remainder], axis=2).reshape(-1, 4)]
    words[:, 5] = _TAIL[(values[rows] < 0).view(np.uint8)]
    row_bytes = words.view(np.uint8)
    significant = 17 - np.argmax(row_bytes[:, 19:2:-1] != ord("0"), axis=1)
    layout = np.take(_LAYOUTS[shortest], (x - _LOW) * 18 + significant, axis=0)
    layout += np.arange(0, row_bytes.size, _WIDTH)[:, None]
    return rows, np.take(row_bytes, layout)


def _shortest(a, p, e, s) -> tuple[np.ndarray, np.ndarray]:
    """repr's digits of each |x| = a as a 17-digit integer, and whether they are found here."""
    h = (a.view(np.uint64) & 0x7FF0000000000000).view(np.float64) * _HALF_ULP[s]  # exact
    floor_e = np.floor(e)
    d = p.astype(np.int64) + floor_e.astype(np.int64)
    r = (d % 100).astype(np.float64)
    below = floor_e - (r - _STEPS * np.floor(r * _RECIPROCALS))  # F - D mod m, exact
    low_in, high_in = below >= e - h, below + _STEPS <= e + h
    # A multiple of 100 is one of 10, and the nearest integer is always inside
    # (h > 1/2): the coarsest spacing with a multiple inside is the one after
    # those without.
    level = 2 - (low_in[:2] | high_in[:2]).sum(axis=0)
    pick = level * a.size + np.arange(a.size)
    step, start = _STEPS.ravel()[level], below.ravel()[pick]
    low_in, high_in = low_in.ravel()[pick], high_in.ravel()[pick]
    middle = 2 * start + step
    up = high_in & ~(low_in & (2 * e < middle))
    digits = d + (start - floor_e + up * step).astype(np.int64)
    return digits, ~(low_in & high_in & (2 * e == middle)) & (d >= 10**16) & (digits < 10**17)
