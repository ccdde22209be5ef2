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
# values formatted at a time.  Each numpy call costs about 2 us besides its work (2-vCPU Xeon,
# numpy 2.4): a value took 138 ns at 4096, 182 ns at 2048 and 237 ns at 1024, and 123 ns at
# 8192 with twice the 0.78 MiB of temporaries
_BLOCK = 4096
_K_MIN = -324  # decimal exponents k of the powers of ten 10^-k: -324 .. 292, one per double scale
# uint64 constants as 0-d arrays, which a ufunc takes with about half the overhead of a scalar
_K = {
    v: np.array(v, np.uint64)
    for v in (1, 2, 3, 8, 10, 16, 19, 32, 48, 52, 56, 63, 64, 100, 103, 5243, 10**4, 10**8,
              10**16, 2**32 - 1, 2**52 - 1, 2**63 - 1, 0x7F_0000_007F, 0x000F_000F_000F_000F,
              0x7F7F_7F7F_7F7F_7F7F, 0x8080_8080_8080_8080, 0x3030_3030_3030_3030)
}


@functools.cache
def _tables():
    """(g1, g0, h0, pow10), made on first use in about a millisecond of exact integer arithmetic.

    For k from _K_MIN to 292, g = g1 2^63 + g0 is the 126-bit floor(10^-k 2^-r) + 1 with
    r = floor(log2 10^-k) - 125, so (g - 1) 2^r <= 10^-k < g 2^r, and h0 = r + 127.  pow10
    holds 10^0 .. 10^17.
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
    return np.array(g1, u), np.array(g0, u), np.array(h0), np.array([10**j for j in range(18)], u)


def _product(a, b, b_lo, b_hi):
    """(high, low) 64 bits of the 128-bit products a b of uint64s < 2^63, b_lo and b_hi the
    32-bit halves of b."""
    a_lo, a_hi = a & _K[2**32 - 1], a >> _K[32]
    low = a_lo * b_lo
    low >>= _K[32]
    high = a_hi * b_lo
    cross = high & _K[2**32 - 1]
    cross += low
    np.multiply(a_lo, b_hi, out=a_lo)
    cross += a_lo
    cross >>= _K[32]
    high >>= _K[32]
    high += cross
    np.multiply(a_hi, b_hi, out=a_hi)
    high += a_hi
    return high, a * b


def _shifted_by(high, low, g, s, s_rest, sign):
    """(high, low) plus sign * g 2^s, g < 2^63, 0 < s < 64 and s_rest = 64 - s, as 128-bit
    integers."""
    g_low, g_high = g << s, g >> s_rest
    if sign > 0:
        low = low + g_low
        g_high += high
        g_high += low < g_low
        return g_high, low
    borrow = low < g_low
    g_high += borrow
    return high - g_high, low - g_low


def _rounded_to_odd(y1, y0, x1):
    """cp g 2^-127 rounded to odd: its floor, with the lowest bit set where that is inexact.

    (y1, y0) = g1 cp and x1 = (g0 cp) >> 64 for g = g1 2^63 + g0, as in Giulietti's rop.
    """
    z = y0 >> _K[1]
    z += x1
    vb = z >> _K[63]
    vb += y1
    z &= _K[2**63 - 1]
    z += _K[2**63 - 1]
    z >>= _K[63]
    vb |= z
    return vb


def _shortest(bits):
    """(f, k) with the double of bits (nonzero, finite, sign cleared) = f 10^k to repr's digits.

    f has at most 17 digits and may end in zeros.
    """
    g1_table, g0_table, h0_table, _ = _tables()
    bq = bits >> _K[52]
    c = bits & _K[2**52 - 1]
    # an interval below a power of two is half as wide as above it (irregular spacing)
    irregular = (c == 0) & (bq > 1)
    c |= (bq != 0).astype(np.uint64) << _K[52]
    q = np.maximum(bq, _K[1]).astype(np.int64)
    q -= 1075  # c 2^q is the double
    # k = floor(log10(2^q)), or floor(log10(3/4 2^q)) where irregular (Giulietti, section 9)
    k = q * 661971961083
    k -= irregular * 274743187321
    k >>= 41
    at = k - _K_MIN
    q += h0_table[at]
    h = q.astype(np.uint64)  # 2 .. 5
    del bq, q
    g1, g0 = g1_table[at], g0_table[at]
    del at
    # v and the ends of its rounding interval, 4 c 2^h and that -+ 2 2^h (-1 where irregular),
    # times g 2^-127: in units of 10^k / 4
    cp = h + _K[2]
    np.left_shift(c, cp, out=cp)
    cp_halves = cp & _K[2**32 - 1], cp >> _K[32]
    y1, y0 = _product(g1, cp, *cp_halves)
    x1, x0 = _product(g0, cp, *cp_halves)
    del cp, cp_halves
    vb = _rounded_to_odd(y1, y0, x1)
    right = h + _K[1]
    vbr = _rounded_to_odd(
        *_shifted_by(y1, y0, g1, right, _K[64] - right, 1),
        _shifted_by(x1, x0, g0, right, _K[64] - right, 1)[0],
    )
    right -= irregular
    vbl = _rounded_to_odd(
        *_shifted_by(y1, y0, g1, right, _K[64] - right, -1),
        _shifted_by(x1, x0, g0, right, _K[64] - right, -1)[0],
    )
    del y1, y0, x1, x0, g1, g0, h, right, irregular
    # an odd significand's interval excludes its ends: they count as in by one unit only
    c &= _K[1]
    vbl += c
    vbr -= c
    del c
    s = vb >> _K[2]
    # one digit fewer: at most one of u' = 10 s' and w' = u' + 10 lies in the interval
    sp10 = s // _K[10]
    sp10 *= _K[10]
    upin = vbl <= sp10 << _K[2]
    wpin = (sp10 + _K[10]) << _K[2] <= vbr
    # else one of s and s + 1 does, or both, and the closer one is taken, ties to even
    uin = vbl <= s << _K[2]
    win = (s + _K[1]) << _K[2] <= vbr
    del vbl, vbr
    vb &= _K[3]
    closer_s = (vb < 2) | ((vb == 2) & ((s & _K[1]) == 0))
    only_one = uin ^ win
    take_s = (only_one & uin) | (~only_one & closer_s)
    s += ~take_s
    sp10 += wpin * _K[10]
    return np.where(upin ^ wpin, sp10, s), k


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
    """((11, classes), (325,)) uint64: a cell's masks and constant bytes per class of layout,
    and the word of each exponent magnitude's digits.

    A class is the sign, the form (fixed point with the decimal point at one of 20 places, or
    an exponent of either sign with 2 or 3 digits) and the count of significant digits.  A
    cell's bytes are (D & KD) | (Dsh & KS) | C, a word at a time: D holds the 17 digits at
    bytes 6 .. 22 and the exponent's 3 digits at 26 .. 28, Dsh the digits one byte on, for
    those past the dot, and C the sign at 0, "0.000" at 1 .. 5, the dot and "e+" or "e-" at
    24 .. 25.  Rows 0 .. 3 are KD, 4 .. 6 KS and 7 .. 10 C.
    """
    rows = []
    for negative in (0, 1):
        for position in range(24):
            for used in range(1, 18):
                kd, ks, const = bytearray(32), bytearray(32), bytearray(32)
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
                else:  # d.ddde-XXX: a negative exponent, and one of 3 digits, by position
                    negative_exponent, wide = divmod(position - 20, 2)
                    kd[6] = 0xFF
                    if used > 1:
                        const[7] = ord(".")
                        ks[8 : 7 + used] = b"\xff" * (used - 1)
                    const[24:26] = b"e-" if negative_exponent else b"e+"
                    kd[27 - wide : 29] = b"\xff" * (2 + wide)
                rows.append(np.frombuffer(bytes(kd + ks[:24] + const), "<u8"))
    # the exponent's digits at bytes 26 .. 28, by its magnitude
    exponents = [int.from_bytes(b"\0\0" + b"%03d" % e + b"\0\0\0", "little") for e in range(325)]
    return np.array(rows, dtype=np.uint64).T.copy(), np.array(exponents, np.uint64)


def cells(x, out=None) -> np.ndarray:
    """A (len(x), _WIDTH) uint8 matrix: row i holds repr(float(x[i])) in its nonzero bytes.

    x is a 1-D float64 array of finite values, formatted _BLOCK values at a time into out,
    if given (a (len(x), _WIDTH) uint8 array, such as columns of a wider matrix).
    """
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty((len(x), _WIDTH), np.uint8)
    for start in range(0, len(x), _BLOCK):
        words = _cell_words(x[start : start + _BLOCK]).T.astype("<u8", order="C")
        out[start : start + _BLOCK] = words.view(np.uint8)[:, :_WIDTH]
    return out


def _cell_words(x) -> np.ndarray:
    """(4, len(x)) uint64: the cells of x, 32 bytes each, a word of 8 at a time (little-endian)."""
    pow10 = _tables()[3]
    layouts, exponents = _layouts()
    bits = np.ascontiguousarray(x).view(np.uint64)
    negative = (bits >> _K[63]).astype(np.int64)
    bits = bits & _K[2**63 - 1]
    zero = bits == 0
    bits |= zero  # 0.0 is formatted apart, below
    f, k = _shortest(bits)
    length = np.searchsorted(pow10, f, side="right")  # f has that many digits
    # the 17 digits of f, left-aligned; 0.0 is the digit 0 with the point after it
    f *= pow10[17 - length]
    f *= ~zero
    k += length
    point = np.where(zero, 1, k)  # repr's decpt: the value is 0.ddd 10^point
    del k, length, zero
    first = f // _K[10**16]
    f -= first * _K[10**16]
    rest = np.empty((2, len(f)), np.uint64)
    np.floor_divide(f, _K[10**8], out=rest[0])
    np.subtract(f, rest[0] * _K[10**8], out=rest[1])
    del f
    _swar8(rest)
    counts = _digits_up_to_last_nonzero(rest)
    # significant digits less the first: up to the last nonzero of the 8 + 8 after it
    used = np.maximum(counts[0], (counts[1] + 8) * (counts[1] > 0))
    rest |= _K[0x3030_3030_3030_3030]
    e = point - 1
    magnitude = np.abs(e)
    position = np.where(
        (point < -3) | (point > 16), 20 + 2 * (e < 0) + (magnitude >= 100), point + 3
    )
    code = negative * 24
    code += position
    code *= 17
    code += used
    del negative, position, used, e, point, counts
    d = np.empty((4, len(bits)), np.uint64)
    np.bitwise_or(first, _K[0x30], out=d[0])
    d[0] <<= _K[48]
    d[0] |= rest[0] << _K[56]
    np.right_shift(rest[0], _K[8], out=d[1])
    d[1] |= rest[1] << _K[56]
    np.right_shift(rest[1], _K[8], out=d[2])
    exponents.take(magnitude, out=d[3])
    del first, rest, magnitude
    shifted = d[:3] << _K[8]
    shifted[1:] |= d[:2] >> _K[56]
    for j in range(4):
        d[j] &= layouts[j].take(code)
        if j < 3:
            shifted[j] &= layouts[4 + j].take(code)
            d[j] |= shifted[j]
        d[j] |= layouts[7 + j].take(code)
    return d


def texts(x) -> np.ndarray:
    """repr's text of each of x, as a bytes array ('S', as wide as the longest)."""
    matrix = np.full((len(x), _WIDTH + 1), ord("\n"), np.uint8)
    cells(x, matrix[:, :_WIDTH])  # each text, then the newline it is split at
    out = np.empty(len(x), f"S{max(1, np.count_nonzero(matrix, axis=1).max(initial=0) - 1)}")
    for start in range(0, len(x), _BLOCK):  # a block at a time, so few bytes objects at once
        text = matrix[start : start + _BLOCK].tobytes().translate(None, b"\0")
        out[start : start + _BLOCK] = text.split(b"\n")[:-1]
    return out
