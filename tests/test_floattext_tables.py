"""The float formatter's tables (oscfree._floattext._tables) against the arithmetic they replace."""

from fractions import Fraction

import numpy as np

from oscfree import _floattext


def test_scale_tables_match_their_arithmetic():
    """Each of the 2 x 4096 entries: the significand's offset, k's point index, h + 1 and
    that less 1 where irregular, and g, from q and k as Schubfach defines them."""
    point, offset, shift, g, *_ = _floattext._tables()
    for at in range(8192):
        sign, bq, zero_significand = at >> 12, (at >> 1) & 2047, at & 1
        irregular = zero_significand and bq > 1
        bits = sign << 63 | bq << 52 | (0 if zero_significand else 1)
        c = (bits & (2**52 - 1)) | (bq != 0) << 52
        assert bits - int(offset[at]) == c, at
        if at & 4095 == 1:  # 0.0: digits 0, the decimal point after the one digit
            assert (g[:, at] == 0).all() and point[at] == 323 + sign * _floattext._POINTS
            continue
        q = max(bq, 1) - 1075
        k = (q * 661971961083 - irregular * 274743187321) >> 41
        assert point[at] == k + 323 + sign * _floattext._POINTS, at
        scale = Fraction(10) ** -k
        r = scale.numerator.bit_length() - scale.denominator.bit_length()
        r -= Fraction(2) ** r > scale  # floor(log2 10^-k)
        r -= 125
        whole = int(g[0, at]) << 63 | int(g[1, at])
        assert (whole - 1) * Fraction(2) ** r <= scale < whole * Fraction(2) ** r, at
        assert whole < 2**126 and g[1, at] < 2**63
        h = q + r + 127
        assert 2 <= h <= 5 and shift[:, at].tolist() == [h + 1, h + 1 - irregular], at


def test_digit_counts_from_the_binary_exponent():
    """len(str(f)) is digits[e] + (f >= threshold[e]), e the biased exponent of float(f), at
    each power of 2 and of 10 up to 10^17 and on either side of it; 0 has one digit."""
    *_, digits, threshold, align = _floattext._tables()
    edges = {0} | {p + d for n in range(58) for p in (2**n, 10 ** min(n, 17)) for d in (-1, 0, 1)}
    f = np.array(sorted(e for e in edges if 0 <= e < 10**17), np.uint64)
    e = f.astype(np.float64).view(np.int64) >> 52
    length = digits[e] + (f >= threshold[e])
    assert length.tolist() == [len(str(int(v))) for v in f.tolist()]
    assert align.tolist()[1:] == [10 ** (17 - n) for n in range(1, 18)]
