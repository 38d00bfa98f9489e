"""Exact '%.17g' text for large float64 columns of the CSV writer.

``'%.17g' % x`` writes x in fixed notation when its decimal exponent X, after
rounding to 17 significant digits, lies in [-4, 16]; there the text is the
17-digit integer D = round(|x| 10^(16 - X)), half to even, with a decimal point
placed by X and trailing fractional zeros dropped.  ``g17_text`` computes D
exactly in numpy and lays the text out for that class.  Every other value
(exponent form, +-0, inf, nan, subnormals) goes through '%' itself.

Exactness: 10^s for s <= 20 is an exact double, and the Veltkamp/Dekker
two-product gives fl(|x| 10^s) = p and its rounding error e exactly.  Where
p >= 10^16 > 2^53, p is an even integer, so D = p + rint(e) rounds the exact
product half to even.  X comes from log10, which may be off by one next to a
power of ten; the exact test 10^16 <= p + e and D < 10^17 rejects every such
row, and a rounding up to 10^17 (which moves X), to the '%' path.
"""

from __future__ import annotations

import numpy as np

__all__ = ["g17_text"]

_LOW, _HIGH = -4, 16  # the exponents '%.17g' writes in fixed notation
_POW10 = np.array([float(10**s) for s in range(_HIGH - _LOW + 1)])  # exact doubles
_SPLIT = 134217729.0  # 2^27 + 1, the Veltkamp splitter
# Values per block: the layout holds 24 int64 indices per value, and blocks of
# this size keep it in cache (about twice as fast per value as one 10^6 block).
_BLOCK = 2**14


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)

# Each value's bytes before layout, 24 per row and built as six uint32 words:
# "000d" for the leading digit d, four 4-digit groups, then sign, '.', '\n', NUL.
# So digit k sits at byte 3 + k, and byte 0 is a '0'.
_GROUPS = np.ascontiguousarray(  # "%04d" % n as one uint32, for n < 10^4
    np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")).view(np.uint32).ravel()
_ZERO, _SIGN, _DOT, _NEWLINE, _NUL = 0, 20, 21, 22, 23
_TAIL = np.frombuffer(b"\0.\n\0-.\n\0", dtype=np.uint32)  # by sign


def _layouts() -> np.ndarray:
    """The byte of each of the 24 output columns, by exponent X and significant digit count n.

    A row is the sign, the digits with '.' placed by X ('0.' and zeros first for
    X < 0), up to the last significant digit or the units digit, then a newline
    and NULs.
    """
    x = np.arange(_LOW, _HIGH + 1)[:, None, None]
    n = np.arange(18)[:, None]
    j = np.arange(24)
    small = np.where(j == 2, _DOT, np.where(j < 2 - x, _ZERO, j + x + 1))
    column = np.where(x < 0, small, np.where(j <= x + 1, j + 2, np.where(j == x + 2, _DOT, j + 1)))
    column[..., 0] = _SIGN
    last = np.where(x < 0, n + 1 - x, np.where(n > x + 1, n + 1, x + 1))
    return np.where(j <= last, column, np.where(j == last + 1, _NEWLINE, _NUL)).reshape(-1, 24)


_LAYOUTS = _layouts()


def g17_text(values: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for each float64 value, byte for byte, as an object array of str."""
    values = np.asarray(values, dtype=np.float64).ravel()
    text = np.empty(values.size, dtype=object)
    done = np.zeros(values.size, dtype=bool)
    for start in range(0, values.size, _BLOCK):
        rows, fixed_text = _fixed_text(values[start:start + _BLOCK])
        text[start + rows] = fixed_text
        done[start + rows] = True
    text[~done] = list(map("%.17g".__mod__, values[~done].tolist()))
    return text


def _fixed_text(values: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """The rows written here, all in fixed notation, and their text; '%' writes the rest."""
    magnitude = np.abs(values)
    rows = np.flatnonzero((magnitude >= 1e-4) & (magnitude < 1e17))
    a = magnitude[rows]
    x = np.clip(np.floor(np.log10(a)), _LOW, _HIGH).astype(np.intp)
    s = _HIGH - x
    p = a * _POW10[s]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[s], _POW10_LO[s]
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
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
    layout = np.take(_LAYOUTS, (x - _LOW) * 18 + significant, axis=0)
    layout += np.arange(0, row_bytes.size, 24)[:, None]
    body = np.take(row_bytes, layout).tobytes().translate(None, b"\0").decode("ascii")
    return rows, body.split("\n")[:-1]
