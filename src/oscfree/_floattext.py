"""repr's text for arrays of finite doubles, from numpy integer arithmetic.

cells(x) lays out repr(float(v)) for each v of x as one row of a byte matrix, and texts(x)
gives the same texts as a bytes array.  The digits are the shortest decimal that reads
back as v, the closest such one, ties to an even last digit: Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020, the algorithm of Java's Double.toString) on uint64
arrays, with two changes that give Python's digits in place of Java's.  A subnormal
significand is never scaled by ten (Java wants two digits), and one digit fewer is tried
whatever the size of the digits.  The layout is repr's: fixed point for decimal exponents
from -4 to 15 (0.0001, 1234567890123456.0), otherwise d.ddde+XX with at least two exponent
digits; a trailing .0 on integers, and a sign on -0.0.  It is integer arithmetic, so its
bytes do not depend on numpy's SIMD dispatch.  Its tables are made on first use.
"""

from __future__ import annotations

import functools

import numpy as np

_WIDTH = 29  # bytes of a cell: sign and "0.000" (6), 17 digits and a dot (18), "e-324" (5)
# values formatted at a time: about 150 numpy calls of about 0.5 us each besides their work,
# and 170 ns a value in tables-io's tables (2-vCPU Xeon, numpy 2.4).  8192 cut a table pass
# by about 8% but doubled the 0.75 MiB working set and raised peak RSS by 2.8 MB
_BLOCK = 4096
_K_MIN = -324  # decimal exponents k of the powers of ten 10^-k: -324 .. 292, one per double scale
_POINTS = 640  # decimal points -323 .. 309 of a sign, at point + 323 (+ _POINTS if negative)
# uint64 constants as 0-d arrays, which a ufunc takes with about half the overhead of a scalar
_K = {
    v: np.array(v, np.uint64)
    for v in (1, 2, 3, 4, 8, 10, 12, 16, 19, 32, 40, 48, 51, 56, 63, 64, 100, 103, 5243, 10**4,
              10**8, 10**16, 2**32 - 1, 2**64 - 4, 0x7F_0000_007F, 0x000F_000F_000F_000F,
              0x7F7F_7F7F_7F7F_7F7F, 0x8080_8080_8080_8080)
}


@functools.cache
def _tables():
    """(point, offset, shift, g, digits, threshold, align), made on first use in about a
    millisecond of exact integer arithmetic.

    The first four are indexed by at = 4096 sign + 2 bq + irregular, for a double's sign,
    biased exponent bq and whether its significand bits are all 0 (irregular: the interval
    below a power of two is half as wide as above it; bq 0 and 1 count as regular).  The
    double is c 2^q, q = max(bq, 1) - 1075 and c = bits - offset.  k = floor(log10(2^q)), or
    floor(log10(3/4 2^q)) where irregular (Giulietti, section 9); g = g1 2^63 + g0, a column
    of g, is the 126-bit floor(10^-k 2^-r) + 1 with r = floor(log2 10^-k) - 125, so (g - 1)
    2^r <= 10^-k < g 2^r; shift holds h + 1 and that less 1 where irregular, h = q + r + 127
    (2 .. 5); and point = k + 323, + _POINTS if negative.  at 1 is 0.0: its g is 0, so its
    digits are 0.  A double f >= 1 of biased exponent e (0 for f = 0) has digits[e] digits,
    one more where f >= threshold[e]; align[n] is 10^(17 - n).
    """
    g1, g0, h0 = [], [], []
    for k in range(_K_MIN, 293):
        if k <= 0:
            p = 10**-k
            r = p.bit_length() - 126
            g = (p >> r if r >= 0 else p << -r) + 1
        else:
            p = 10**k  # 10^-k = 1/p, and p is not a power of two
            r = -p.bit_length() - 125
            g = (1 << -r) // p + 1
        g1.append(g >> 63)
        g0.append(g & (2**63 - 1))
        h0.append(r + 127)
    u = np.uint64
    at = np.arange(4096)
    bq, irregular = at >> 1, (at & 1) * (at > 3)
    q = np.maximum(bq, 1) - 1075
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = q + np.array(h0)[k - _K_MIN]
    point = k + 323
    point[1] = 323
    g = np.array([g1, g0], u)[:, k - _K_MIN]
    g[:, 1] = 0
    offset = (np.maximum(bq - 1, 0) << 52).astype(u)
    shift = np.array([h + 1, h + 1 - irregular], u)
    pow10 = np.array([10**n for n in range(19)], u)
    digits = (np.maximum(np.arange(1081) - 1023, 0) * 1233 >> 12) + 1  # of 2^(e - 1023)
    threshold, align = pow10[digits], pow10[17 - np.arange(18)]
    return (np.concatenate([point, point + _POINTS]), np.concatenate([offset, offset + u(2**63)]),
            np.tile(shift, 2), np.tile(g, 2), digits, threshold, align)


def _product(g, cp, high, low):
    """The 128-bit products g cp of uint64s g < 2^63 (2, n) and cp < 2^60 (n), into high and
    low (their 64-bit halves)."""
    cp_lo, cp_hi = cp & _K[2**32 - 1], cp >> _K[32]
    np.right_shift(g, _K[32], out=high)
    cross = g & _K[2**32 - 1]
    np.multiply(cross, cp_lo, out=low)
    low >>= _K[32]
    cross *= cp_hi
    cross += low
    np.multiply(high, cp_lo, out=low)
    cross += low  # < 2^60 + 2^63 + 2^32
    cross >>= _K[32]
    high *= cp_hi
    high += cross
    np.multiply(g, cp, out=low)


def _shifted_by(high, low, g, s, sign, out_high, out_low):
    """(high, low) plus sign * g 2^s into (out_high, out_low), g < 2^63 and 0 < s < 64, as
    128-bit integers."""
    g_low = g << s
    np.right_shift(g, _K[64] - s, out=out_high)
    if sign > 0:
        np.add(low, g_low, out=out_low)
        out_high += high
        out_high += out_low < g_low
    else:
        out_high += low < g_low
        np.subtract(high, out_high, out=out_high)
        np.subtract(low, g_low, out=out_low)


def _rounded_to_odd(y1, y0, x1):
    """cp g 2^-127 rounded to odd: its floor, with the lowest bit set where that is inexact.

    (y1, y0) = g1 cp and x1 = (g0 cp) >> 64 for g = g1 2^63 + g0, as in Giulietti's rop.
    """
    z = y0 >> _K[1]
    z += x1
    vb = z >> _K[63]
    vb += y1
    z <<= _K[1]
    vb |= z != 0
    return vb


def _shortest(bits):
    """(f, point): the double of bits (finite) is f 10^k to repr's digits, and point is k's
    index in _tables.

    f has at most 17 digits and may end in zeros; it is 0 for 0.0.
    """
    point, offset, shift, g_table = _tables()[:4]
    at = bits >> _K[51]
    at |= _K[1]
    at -= (bits << _K[12]) != 0  # 2 bq + 1, less 1 where the significand bits are not all 0
    at = at.view(np.int64)
    g, s = g_table.take(at, axis=1), shift.take(at, axis=1)
    cp = bits - offset.take(at)
    cp <<= s[0] + _K[1]
    # v and the ends of its rounding interval, 4 c 2^h and that + 2 2^h and - 2 2^h (- 2^h
    # where irregular), times g 2^-127: in units of 10^k / 4.  Row j of high and low holds
    # the 128-bit g1 and g0 products of the j-th of those multiplicands
    high, low = np.empty((2, 3, 2, len(bits)), np.uint64)
    _product(g, cp, high[0], low[0])
    _shifted_by(high[0], low[0], g, s[0], 1, high[1], low[1])
    _shifted_by(high[0], low[0], g, s[1], -1, high[2], low[2])
    del g, s, cp
    vb, vbr, vbl = _rounded_to_odd(high[:, 0], low[:, 0], high[:, 1])
    del high, low
    # an odd significand's interval excludes its ends: they count as in by one unit only
    c = bits & _K[1]
    vbl += c
    vbr -= c
    # one digit fewer: at most one of u' = 10 t and w' = u' + 10 lies in the interval
    t = vb // _K[40]
    t40 = t * _K[40]
    upin = vbl <= t40
    t40 += _K[40]
    wpin = t40 <= vbr
    t += wpin
    t *= _K[10]
    # else one of s and s + 1 does, or both, and the closer one is taken, ties to even
    s = vb >> _K[2]
    s4 = vb & _K[2**64 - 4]
    uin = vbl <= s4
    s4 += _K[4]
    win = s4 <= vbr
    del vbl, vbr, s4, t40
    vb &= _K[3]
    vb += s & _K[1]  # under 3 where s is closer, or as close and even
    win &= vb >= _K[3]
    s += ~uin | win
    np.copyto(s, t, where=upin ^ wpin)
    return s, point.take(at)


def _swar8(v):
    """The 8 decimal digits of each of v < 10^8, one per byte, most significant byte first; in
    place."""
    high = v // _K[10**4]
    v -= high * _K[10**4]
    v <<= _K[32]
    v |= high  # 4-digit halves
    np.multiply(v, _K[5243], out=high)
    high >>= _K[19]
    high &= _K[0x7F_0000_007F]  # each half // 100
    v -= high * _K[100]
    v <<= _K[16]
    v |= high  # 2-digit quarters
    np.multiply(v, _K[103], out=high)
    high >>= _K[10]
    high &= _K[0x000F_000F_000F_000F]  # each quarter // 10
    v -= high * _K[10]
    v <<= _K[8]
    v |= high
    return v


def _digits_up_to_last_nonzero(v):
    """The byte count of each of v (decimal digits a byte, _swar8) up to its last nonzero one."""
    v = v + _K[0x7F7F_7F7F_7F7F_7F7F]
    v &= _K[0x8080_8080_8080_8080]
    for shift in (8, 16, 32):
        v |= v >> _K[shift]
    return np.bitwise_count(v)


@functools.cache
def _layouts():
    """(kd, ks, const, code, word): a cell's masks and constant bytes per class of layout, and
    the class and the exponent word of each decimal point.

    A class is the sign, the form (fixed point with the decimal point at one of 20 places, or
    an exponent of either sign with 2 or 3 digits) and the count of significant digits.  A
    cell's bytes 0 .. 23 are (D & KD) | (Dsh & KS) | C, a word at a time: D holds the 17
    digits (0 .. 9) at bytes 6 .. 22, Dsh those from the second one byte on, at 8 .. 23, for
    those past the dot, and C the sign at 0, "0.000" at 1 .. 5, the dot and 0x30 on each
    digit kept.  kd (3, classes) holds KD, ks (2, classes) words 1 and 2 of KS (word 0 is 0)
    and const (3, classes) C.  code[point] is the class of a decimal point's sign and form
    with one digit, and word[point] bytes 24 .. 31 of its cells: "e+" or "e-" and the
    exponent's digits, or 0 in fixed point.
    """
    rows = []
    for negative in (0, 1):
        for position in range(24):
            for used in range(1, 18):
                kd, ks, const = bytearray(24), bytearray(24), bytearray(24)
                if negative:
                    const[0] = ord("-")
                if position < 20:  # fixed point, the decimal point at digit position - 3
                    point = position - 3
                    if point <= 0:
                        const[1 : 3 - point] = b"0.000"[: 2 - point]
                        kd[6 : 6 + used] = b"\xff" * used
                    else:
                        end = max(used, point + 1)
                        kd[6 : 6 + point] = b"\xff" * point
                        const[6 + point] = ord(".")
                        ks[7 + point : 7 + end] = b"\xff" * (end - point)
                else:  # d.ddde-XXX, the exponent's sign and width by position
                    kd[6] = 0xFF
                    if used > 1:
                        const[7] = ord(".")
                        ks[8 : 7 + used] = b"\xff" * (used - 1)
                const = bytes(c | (0x30 & (d | s)) for c, d, s in zip(const, kd, ks))
                rows.append(np.frombuffer(bytes(kd + ks[8:]) + const, "<u8"))
    code, word = [], []
    for negative in (0, 1):
        for point in range(-323, _POINTS - 323):
            e = point - 1
            if -3 <= point <= 16:
                position, text = point + 3, b""
            else:
                position = 20 + 2 * (e < 0) + (abs(e) >= 100)
                text = (b"e-" if e < 0 else b"e+") + b"%02d" % abs(e)
            code.append((negative * 24 + position) * 17)
            word.append(int.from_bytes(text.ljust(8, b"\0"), "little"))
    rows = np.array(rows, np.uint64).T.copy()
    return rows[:3], rows[3:5], rows[5:], np.array(code), np.array(word, np.uint64)


def cells(x, out=None) -> np.ndarray:
    """A (len(x), _WIDTH) uint8 matrix: row i holds repr(float(x[i])) in its nonzero bytes.

    x is a 1-D float64 array of finite values, formatted _BLOCK values at a time into out,
    if given (a (len(x), _WIDTH) uint8 array, such as columns of a wider matrix).
    """
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty((len(x), _WIDTH), np.uint8)
    for start in range(0, len(x), _BLOCK):
        words = _cell_words(x[start : start + _BLOCK])
        put_rows(out[start : start + _BLOCK], words.view(np.uint8)[:, :_WIDTH])
    return out


def _cell_words(x) -> np.ndarray:
    """(len(x), 4) uint64: the cells of x, 32 bytes each, 8 to a word (little-endian)."""
    digits, threshold, align = _tables()[4:]
    kd, ks, const, code_at, word_at = _layouts()
    f, point = _shortest(np.ascontiguousarray(x).view(np.uint64))
    e = f.astype(np.float64).view(np.int64) >> 52
    length = digits.take(e)
    length += f >= threshold.take(e)
    f *= align.take(length)  # the 17 digits of f, left-aligned; 0.0 is the digit 0
    point += length
    del e, length
    first = f // _K[10**16]
    f -= first * _K[10**16]
    rest = np.empty((2, len(f)), np.uint64)
    np.floor_divide(f, _K[10**8], out=rest[0])
    np.subtract(f, rest[0] * _K[10**8], out=rest[1])
    del f
    _swar8(rest)
    counts = _digits_up_to_last_nonzero(rest)
    # significant digits less the first: up to the last nonzero of the 8 + 8 after it
    code = code_at.take(point)
    code += np.maximum(counts[0], (counts[1] + 8) * (counts[1] > 0))
    d = np.empty((3, len(x)), np.uint64)
    np.left_shift(first, _K[48], out=d[0])
    np.right_shift(rest, _K[8], out=d[1:])
    d[:2] |= rest << _K[56]
    d &= kd.take(code, axis=1)
    rest &= ks.take(code, axis=1)
    d[1:] |= rest
    out = np.empty((len(x), 4), np.uint64)
    np.bitwise_or(d, const.take(code, axis=1), out=out[:, :3].T)
    out[:, 3] = word_at.take(point)
    return out


def put_rows(block, rows) -> None:
    """block[:] = rows, for (n, w) uint8 arrays of contiguous rows, copied a row at a time."""
    row = f"V{block.shape[1]}"
    block.view(row)[:] = rows.view(row)


def matrix_text(rows: int, width: int, fill) -> bytearray:
    """The bytes of the (rows, width) uint8 matrix that fill(matrix) writes, but its NULs.

    The matrix lies over a bytearray, which is translated in place of a copy of it.
    """
    buffer = bytearray(rows * width)
    fill(np.frombuffer(buffer, np.uint8).reshape(rows, width))
    return buffer.translate(None, b"\0")


def texts(x) -> np.ndarray:
    """repr's text of each of x, as a bytes array ('S', as wide as the longest)."""
    parts = [np.empty(0, "S1")]
    for start in range(0, len(x), _BLOCK):  # a block at a time, so few bytes objects at once
        block = x[start : start + _BLOCK]

        def fill(matrix):  # each text, then the newline it is split at
            matrix[:, _WIDTH] = ord("\n")
            cells(block, matrix[:, :_WIDTH])

        text = bytes(matrix_text(len(block), _WIDTH + 1, fill))
        parts.append(np.array(text.split(b"\n")[:-1]))
    return np.concatenate(parts)
