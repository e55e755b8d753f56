"""Shortest round-trip float text from numpy: the bytes of repr, without repr.

write_rows writes a table of columns as the bytes that
",".join(map(repr, row)) + "\\n" gives for each row, and texts gives the
repr strings of one column. Both compute every cell's digits with numpy
array operations:

- A normal, nonzero float x = m 2^q (m a 53-bit integer) is scaled to
  s = x 10^k with 17 integer digits. 10^k is held as a double-double
  (hi in [1, 2), lo, binary exponent) built from exact integers, the
  product is taken with Dekker's two-product and shifted with ldexp, so
  s = N + r (N an integer, 0 <= r <= 1) is known to about 1e-14.
- The doubles next to x are 2^q away, h = s / (2m) in units of s, so
  the 17-digit integers that read back as x are [N + ceil(r - h),
  N + floor(r + h)]. Its width is below 24.
- The shortest digits are those of the multiple of the largest power of
  ten u that lies in that range, and the one nearest s when several do;
  that is what repr prints.
- The text is laid out by repr's rule: exponent form when the decimal
  point position is <= -4 or > 16, at least two exponent digits, and
  ".0" on integral values.

A cell whose digits this cannot prove goes to repr itself: zero,
subnormals, inf and nan; powers of two, whose rounding interval is
asymmetric; every cell of a column that is not float64; any cell with an
interval end or a rounding midpoint within 1e-9 of a digit boundary
(where round-half-even on reading, or a tie in the last digit, would
decide); and the rare cell next to a power of ten for which log10 gives
the wrong digit count. The bytes are therefore always those of repr.

Rows are gathered into slabs of whole rows, at most SLAB_CELLS cells,
and each slab is formatted CHUNK_CELLS cells at a time in buffers that
are reused: no copy of the whole table is made. Each cell's text is
gathered into a fixed-width row, NUL in the unused bytes, by a table of
layouts, and the NUL bytes are dropped by a boolean mask (np.compress
builds an index array eight times the text's size, the mask does not).
"""

from __future__ import annotations

import functools

import numpy as np

CHUNK_CELLS = 4096
SLAB_CELLS = 65536
_PIECE = 1024  # cells per byte gather
_WIDTH = 25  # longest repr (24 characters) plus the separator

_MARGIN = 1e-9
_TINY, _HUGE = np.finfo(np.float64).tiny, np.finfo(np.float64).max
_K_MIN, _K_MAX = -294, 326  # 10^k for every normal float's 17-digit scale
_PREC = 120  # bits of each 10^k before it is rounded to a double-double
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant

# One row of source bytes per cell: the 17 digits at bytes 3..19, the
# same digits with their trailing zeros as NUL at 23..39, the exponent's
# four digits at 40..43 (each group of four digits is one uint32 from
# _Tables.quads), then the constant bytes and the separator.
_ROW = 52
_DIGIT, _TRIMMED, _EXP = 3, 23, 40
_MINUS, _DOT, _ZERO_CHAR, _E, _PLUS, _NUL, _SEP = range(44, 51)
_CONSTANTS = {_MINUS: b"-", _DOT: b".", _ZERO_CHAR: b"0", _E: b"e", _PLUS: b"+"}
# Layout keys: key = (class * 2 + flag) * 2 + negative. Classes 0..19 are
# the fixed form with decimal point position -3..16 (x = 0.d1d2... 10^point),
# where flag marks an integral value; 20..23 the exponent form (negative
# exponent, three exponent digits), where flag marks a single digit; 24 a
# cell left to repr.
_FIXED, _REPR = 20, 24
_POINTS = 700  # point + _POINTS / 2 indexes _Tables.key_base


class _Tables:
    """Constant tables, built on the first write."""

    def __init__(self):
        hi, hi_top, lo, exp2 = [], [], [], []
        for k in range(_K_MIN, _K_MAX + 1):
            if k >= 0:
                v = 10**k
                e = v.bit_length() - 1  # 10^k = (hi + lo) 2^e, hi in [1, 2)
                shift = _PREC - e
                t = v << shift if shift >= 0 else (v + (1 << (-shift - 1))) >> -shift
            else:
                v = 10**-k
                e = -v.bit_length()
                t = ((1 << (_PREC - e)) + v // 2) // v
            h = t >> (_PREC - 52)
            hi.append(h / 2**52)
            hi_top.append((h >> 26 << 26) / 2**52)  # the top 27 bits, for Dekker
            lo.append((t - (h << (_PREC - 52))) / 2**_PREC)
            exp2.append(e)
        self.hi = np.array(hi)
        self.hi_top = np.array(hi_top)
        self.lo = np.array(lo)
        self.exp2 = np.array(exp2, dtype=np.intp)
        # quads[g]: the four digits of g; quads[10000 + g]: the same with
        # trailing zeros as NUL
        g = np.arange(10000, dtype=np.uint16)[:, None]
        digits = (g // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10 + ord("0"))
        digits = digits.astype(np.uint8)
        trailing = np.logical_and.accumulate(digits[:, ::-1] == ord("0"), axis=1)[:, ::-1]
        trimmed = np.where(trailing, 0, digits).astype(np.uint8)
        self.quads = np.concatenate([digits, trimmed]).view(np.uint32).ravel()
        point = np.arange(_POINTS) - _POINTS // 2
        exp10 = point - 1
        cls = np.where((point >= -3) & (point <= 16), point + 3,
                       _FIXED + 2 * (exp10 < 0) + (np.abs(exp10) >= 100))
        self.key_base = 4 * cls
        self.layouts = np.array([_layout(key) for key in range(4 * (_REPR + 1))], dtype=np.intp)


def _layout(key: int) -> list:
    """Source byte of each of the _WIDTH output bytes for one layout key."""
    cls, flag, neg = key // 4, key // 2 % 2, key % 2
    digits = [_DIGIT + i for i in range(17)]
    trimmed = [_TRIMMED + i for i in range(17)]
    if cls == _REPR:  # the text that format writes into the row
        return list(range(_WIDTH - 1)) + [_SEP]
    if cls < _FIXED:
        point = cls - 3
        if point <= 0:
            text = [_ZERO_CHAR, _DOT] + [_ZERO_CHAR] * -point + trimmed
        elif flag:  # integral
            text = digits[:point] + [_DOT, _ZERO_CHAR]
        else:
            text = digits[:point] + [_DOT] + trimmed[point:]
    else:
        negative_exp, three = divmod(cls - _FIXED, 2)
        exponent = [_EXP + 1, _EXP + 2, _EXP + 3][1 - three:]  # at least two digits
        text = (digits[:1] + ([] if flag else [_DOT] + trimmed[1:])
                + [_E, _MINUS if negative_exp else _PLUS] + exponent)
    text = [_MINUS] * neg + text
    return text + [_NUL] * (_WIDTH - 1 - len(text)) + [_SEP]


@functools.cache
def _tables() -> _Tables:
    return _Tables()


class _Chunk:
    """Buffers for formatting up to CHUNK_CELLS cells, reused chunk after chunk."""

    def __init__(self, cells: int):
        self.t = _tables()
        self.src = np.zeros((min(cells, CHUNK_CELLS), _ROW), dtype=np.uint8)
        for at, char in _CONSTANTS.items():
            self.src[:, at] = ord(char)
        self.quads = self.src.view(np.uint32)
        self.base = np.arange(len(self.src))[:, None] * _ROW

    def _scaled(self, xm, e, k):
        """s = xm 2^(e - 1) 10^k as hi + lo, xm in [1, 2)."""
        t = self.t
        i = k - _K_MIN
        hi, top = np.take(t.hi, i), np.take(t.hi_top, i)
        p = xm * hi
        # Dekker's two-product: the rounding error of p, exactly, from
        # halves of xm and of hi that multiply without rounding
        a = xm * _SPLIT
        x_top = a - (a - xm)
        x_bottom = np.subtract(xm, x_top, out=a)
        bottom = np.subtract(hi, top, out=hi)
        err = x_top * top - p
        err += x_top * bottom
        err += x_bottom * top
        err += x_bottom * bottom
        err += xm * np.take(t.lo, i)
        shift = e + (np.take(t.exp2, i) - 1)
        return np.ldexp(p, shift, out=p), np.ldexp(err, shift, out=err)

    def _decimal(self, ax, bad):
        """The shortest digits of the positive floats ax as a 17-digit
        integer d with ax = 0.d 10^point, and point; bad is or-ed in place
        with the cells whose digits are not proven. The chunk's peak memory
        is the arrays alive at once, so each is dropped once used up."""
        xm, e = np.frexp(ax)
        xm *= 2.0
        bad |= xm == 1.0  # a power of two
        k = (16 - np.floor(np.log10(ax))).astype(np.intp)
        hi, lo = self._scaled(xm, e, k)
        floor_lo = np.floor(lo)
        n = hi.astype(np.int64)
        n += floor_lo.astype(np.int64)
        r = np.subtract(lo, floor_lo, out=lo)  # s = n + r
        h = np.divide(hi, xm, out=hi)
        h *= 2.0**-53  # s / (2m): half the gap to the next double
        del e, xm, floor_lo
        low = r - h
        high = np.add(r, h, out=h)
        ceil_low, floor_high = np.ceil(low), np.floor(high)
        bad |= np.abs(ceil_low - low - 0.5) > 0.5 - _MARGIN
        bad |= np.abs(high - floor_high - 0.5) > 0.5 - _MARGIN
        del low, high
        width = np.subtract(floor_high, ceil_low, out=ceil_low)  # integers in range, less one
        top = n + floor_high.astype(np.int64)
        last2 = (top - top // 100 * 100).astype(np.float64)
        del top
        by100 = last2 <= width  # a multiple of 100 in range: it is the only one
        by10 = last2 - np.floor(last2 / 10) * 10 <= width
        del width
        n_mod10 = last2 - floor_high  # n mod 100, then mod 10
        n_mod10 -= np.floor(n_mod10 / 10) * 10
        rest = np.where(by10, n_mod10 + r, r)  # s mod 10 or s mod 1
        half = np.where(by10, 5.0, 0.5)
        bad |= ~by100 & (np.abs(rest - half) < _MARGIN)
        up = rest >= half
        del rest, half, r
        delta = np.where(by100, floor_high - last2, np.where(by10, 10 * up - n_mod10, up))
        d = n + delta.astype(np.int64)
        # log10 can land one off just below a power of ten, giving s 16 or
        # 18 digits; d then leaves [10^16, 10^17) and the cell goes to repr,
        # as does the value that would round up to 10^17 (it lies within
        # 1e-16 of a power of ten, where log10 lands one off)
        bad |= (d < 10**16) | (d >= 10**17)
        return d, 17 - k

    def _source(self, x, seps):
        """Fill the source rows of the cells x; return their layout keys
        and the indices of the cells whose digits are not proven."""
        c = x.size
        t = self.t
        ax = np.abs(x)
        bad = ~((ax >= _TINY) & (ax <= _HUGE))  # zero, subnormal, inf, nan
        ax[bad] = 1.0
        d, point = self._decimal(ax, bad)

        quads = self.quads[:c]
        for col, unit in enumerate((10**16, 10**12, 10**8, 10**4)):
            g = d // unit
            d -= g * unit
            quads[:, col] = np.take(t.quads, g)
            quads[:, col + 5] = np.take(t.quads, g + 10000 * (d == 0))  # trimmed
        quads[:, 4] = np.take(t.quads, d)
        quads[:, 9] = np.take(t.quads, d + 10000)
        quads[:, 10] = np.take(t.quads, np.abs(point - 1))
        src = self.src[:c]
        src[:, _SEP] = seps

        # the digits after the first are all trailing zeros: a single digit
        single = src[:, _TRIMMED + 1] == 0
        flag = np.where((point >= 1) & (point <= 16), ax == np.floor(ax), single)
        key = np.take(t.key_base, point + _POINTS // 2) + 2 * flag + np.signbit(x)
        key[bad] = 4 * _REPR
        return key, np.flatnonzero(bad)

    def format(self, write, x, seps, fallback) -> None:
        """Write the text of the cells x (at most CHUNK_CELLS float64
        values), each followed by its separator byte from seps, through
        write(uint8 array). A cell whose digits are not proven is written
        as fallback(i), i its index in x."""
        key, bad = self._source(x, seps)
        for i in bad.tolist():
            padded = fallback(i).ljust(_WIDTH - 1, b"\0")
            self.src[i, :_WIDTH - 1] = np.frombuffer(padded, dtype=np.uint8)
        # one byte index per output byte: it is built _PIECE cells at a
        # time, so that it stays small
        for a in range(0, x.size, _PIECE):
            b = min(a + _PIECE, x.size)
            index = np.take(self.t.layouts, key[a:b], axis=0, mode="clip")
            index += self.base[a:b]
            rows = np.take(self.src.ravel(), index, mode="clip").ravel()
            write(rows[rows != 0])


def write_rows(write, cols) -> None:
    """Write the rows of the equal-length 1-D arrays cols through write,
    in pieces (uint8 arrays): row i is ",".join(repr(col[i].item()) for
    col in cols) plus a newline, byte for byte."""
    ncols = len(cols)
    rows = len(cols[0]) if ncols else 0
    if not rows:
        return
    exact = np.array([col.dtype == np.float64 for col in cols])
    per = max(1, SLAB_CELLS // ncols)
    slab = np.empty((min(per, rows), ncols))
    zeros = np.zeros(len(slab))  # the cells of a column that is not float64
    seps = np.full(slab.size, ord(","), dtype=np.uint8)
    seps[ncols - 1::ncols] = ord("\n")
    chunk = _Chunk(rows * ncols)

    def text(k):  # cell k of the table, counted row by row
        row, j = divmod(k, ncols)
        return repr(cols[j][row].item()).encode()

    for lo in range(0, rows, per):
        block = slab[:min(per, rows - lo)]
        np.stack([col[lo:lo + len(block)] if exact[j] else zeros[:len(block)]
                  for j, col in enumerate(cols)], axis=1, out=block)
        cells = block.ravel()
        for a in range(0, cells.size, CHUNK_CELLS):
            b = min(a + CHUNK_CELLS, cells.size)
            chunk.format(write, cells[a:b], seps[a:b], lambda i: text(lo * ncols + a + i))


def texts(values) -> list:
    """The repr of every element of the 1-D array values, as a list of str."""
    parts = []
    write_rows(parts.append, [values])
    return b"".join(parts).decode().split("\n")[:-1]
