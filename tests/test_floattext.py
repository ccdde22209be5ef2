"""The vectorized float formatter gives repr's text, byte for byte (oscfree._floattext)."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oscfree import _floattext


def assert_repr(values) -> None:
    """Each cell of the formatter, its row's nonzero bytes, is repr of its value."""
    x = np.asarray(values, dtype=np.float64)
    matrix = np.concatenate([_floattext.cells(x), np.full((len(x), 1), ord("\n"), np.uint8)], 1)
    got = matrix[matrix != 0].tobytes().decode().split("\n")[:-1]
    expected = list(map(repr, x.tolist()))
    wrong = [(e, g) for e, g in zip(expected, got) if e != g]
    assert len(got) == len(expected) and not wrong, wrong[:10]


def neighbours(x) -> np.ndarray:
    """x and the doubles on either side of each of its values."""
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


def test_random_bit_patterns():
    bits = np.random.default_rng(1).integers(0, 2**64, 2**18, dtype=np.uint64, endpoint=False)
    x = bits.view(np.float64)
    assert_repr(x[np.isfinite(x)])


def test_magnitudes_and_subnormals():
    rng = np.random.default_rng(2)
    assert_repr(10.0 ** rng.uniform(-300, 300, 2**16) * rng.choice([-1.0, 1.0], 2**16))
    # every subnormal significand width, and random ones
    assert_repr(np.ldexp(1.0, np.arange(-1074, -1022)))
    assert_repr(rng.integers(1, 2**52, 2**16, dtype=np.uint64).view(np.float64))


def test_powers_of_two_and_ten_with_their_neighbours():
    assert_repr(neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))
    assert_repr(neighbours([float(f"1e{e}") for e in range(-323, 309)]))


def test_integers_and_decimal_grids():
    rng = np.random.default_rng(3)
    assert_repr(rng.integers(0, 2**53, 2**15, endpoint=True).astype(np.float64))
    assert_repr(neighbours([2.0**53 - 1, 2.0**53, 123.0, 100.0, 1e15, 999999999999999.0]))
    assert_repr(np.linspace(-20.0, 20.0, 20001))
    assert_repr(np.linspace(-12.0, 12.0, 301))
    assert_repr(np.arange(-1000, 1001) / 1000)
    assert_repr(np.linspace(0.0, 1.0, 1001) * 1e-3)


def test_zeros_and_extremes():
    tiny, huge = sys.float_info.min, sys.float_info.max
    assert_repr([0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, huge, -huge, math.ulp(0.0)])


def test_layout_edges():
    # fixed point from 1e-4 to below 1e16, exponent form outside; .0 on whole numbers
    assert_repr(neighbours([1e16, -1e16, 9999999999999998.0, 1e-4, 1e-5, -1e-4, 1e-5 * 9]))
    assert_repr([1e22, 1e21, 1.5e16, 1234567890123456.8, 0.001, 0.0001234, 1e-100, 1.7e308])


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.integers(0, 300), elements=FINITE))
def test_matches_repr(x):
    assert_repr(x)


def test_texts_are_repr():
    x = neighbours([0.0, 1.5, -2.25e-300, 1e16, 0.1])
    texts = _floattext.texts(x)
    assert texts.dtype == np.dtype(f"S{max(len(repr(v)) for v in x.tolist())}")
    assert texts.tolist() == [repr(v).encode() for v in x.tolist()]
    assert _floattext.texts(np.array([])).tolist() == []


def test_texts_across_blocks():
    """Texts of every length, over three blocks: the last one ragged, the widest text in it."""
    x = np.random.default_rng(4).standard_normal(2 * _floattext._BLOCK + 3)
    digits, scale = 10.0 ** (np.arange(len(x)) % 17), 10.0 ** (np.arange(len(x)) % 40 - 20)
    x = np.trunc(x * digits) / digits * scale
    x[-1] = -2.2250738585072014e-308
    texts = _floattext.texts(x)
    assert texts.dtype == np.dtype(f"S{len(repr(float(x[-1])))}")
    assert texts.tolist() == [repr(v).encode() for v in x.tolist()]


def floor_log10(numerator: int, exponent: int) -> int:
    """floor(log10(numerator 2^exponent)) in integers: numerator 5^-exponent 10^exponent."""
    if exponent >= 0:
        return len(str(numerator << exponent)) - 1
    return len(str(numerator * 5**-exponent)) - 1 + exponent


def test_decimal_exponent_of_every_binary_exponent():
    """k = floor(log10(2^q)) and floor(log10(3/4 2^q)), as _shortest computes them, for every q."""
    q = np.arange(-1074, 972)
    regular = (q * 661971961083) >> 41
    irregular = (q * 661971961083 - 274743187321) >> 41
    assert regular.tolist() == [floor_log10(1, e) for e in q.tolist()]
    assert irregular.tolist() == [floor_log10(3, e - 2) for e in q.tolist()]


@pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097, 3 * 4096 + 5])
def test_blocks_and_out(count):
    """Values formatted a block at a time, into a wider matrix, keep repr's bytes."""
    x = np.random.default_rng(count).standard_normal(count) * 1e5
    assert_repr(x)
    wide = np.full((count, 40), 7, np.uint8)
    _floattext.cells(x, wide[:, 3 : 3 + _floattext._WIDTH])
    assert np.array_equal(wide[:, 3 : 3 + _floattext._WIDTH], _floattext.cells(x))
    assert (wide[:, :3] == 7).all() and (wide[:, 3 + _floattext._WIDTH :] == 7).all()
