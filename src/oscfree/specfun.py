"""Special functions for the oscillator eigenstate formulas.

Physicists' Hermite polynomials and the truncated (terminating) Kummer
confluent hypergeometric function, both by three-term recurrences in the
degree rather than explicit coefficient sums: the alternating sums
cancel catastrophically already at moderate degree, while the
recurrences stay accurate: eigenstates to degree 5000 and weighted Kummer
polynomials to degree 150 agree with 40-digit mpmath within 1e-13 of their
scale (tests/test_specfun.py).  The Hermite recurrence, hermite_scaled, carries
a power-of-two exponent per point, so no degree overflows it: one growth bound
per step sets both when it checks and what it divides by, and only a point
with a non-finite or huge x runs unscaled, on its own; the Kummer one
overflows on wide grids at high degree (gen2d --n-radial 300), which the CLI
turns into a NonFiniteError (exit 3).

Both recurrences update four preallocated buffers in place over the whole
array they are given; grid evaluations hand over one axis-0 slab at a time,
sized for these buffers (see analysis._SLAB).
"""

from __future__ import annotations

import numpy as np


def _limit_exponents(n: int, x):
    """L(x) = 1023 - 8 ceil(log2 g) with g = 2 |x| + 2n + 2, per point.  ceil(log2 g) is exact:
    one more than that of g / 2, which is np.frexp's exponent, less one where g / 2 is a
    power of two."""
    mantissa, exponent = np.frexp(np.abs(x) + (n + 1.0))
    return 1023 - 8 * (exponent + 1 - (mantissa == 0.5))


def hermite_scaled(n: int, x):
    """(h, h_prev, e) with H_n(x) = h 2^e and H_{n-1}(x) = h_prev 2^e (H_{-1} = 0).

    The three-term recurrence H_0 = 1, H_1 = 2x, H_{k+1} = 2x H_k - 2k H_{k-1}, with a check
    every 8 steps and at the end: wherever |h| or |h_prev| has passed 2^L(x), both are divided
    by 2^L(x), exactly, and e grows by L(x).  One step grows max(|h|, |h_prev|) by at most
    g = 2 |x| + 2n + 2, so with L(x) = 1023 - 8 ceil(log2 g) no value overflows between two
    checks, and none ends above 2^L(x): no degree overflows.  A point whose x is not finite or
    leaves no such L (g > 2^63) runs unscaled.  The same growth bound starts the checks: none
    runs until (k + 1) ceil(log2 g) at the largest scaled |x| passes its L, the smallest, so a
    degree and grid that cannot get there run the bare recurrence (a check that cannot fire
    changes nothing).  L, the bound and the checks take only the scaled points, so a point's
    (h, h_prev, e) does not depend on the other points of the call.  h and h_prev are shaped
    like x (0-d for a scalar x); e is 0 until a check finds a value past the smallest 2^L,
    then an int array shaped like x.
    """
    if n < 0:
        raise ValueError(f"Hermite degree must be nonnegative, got {n}")
    xa = np.asarray(x, dtype=float)
    h, h_prev, e = np.ones(xa.shape), np.zeros(xa.shape), 0
    if n == 0 or xa.size == 0:
        return h, h_prev, e
    x_max = max(np.fmax.reduce(xa, axis=None), -np.fmin.reduce(xa, axis=None))  # NaN left out
    scaled = True  # the points with an L: finite x, g <= 2^63 (a NaN point is never past 2^L)
    if not x_max + (n + 1.0) <= 2.0**62:
        scaled = np.abs(xa) + (n + 1.0) <= 2.0**62
        x_max = np.max(np.abs(xa), where=scaled, initial=-1.0)
    first = n  # the first step whose values can pass 2^gate
    if x_max >= 0.0:
        gate = int(_limit_exponents(n, x_max))  # the smallest L(x), 1023 - 8 ceil(log2 g_max)
        first = gate // ((1023 - gate) // 8)  # H_{k+1} and H_k are at most g_max^(k + 1)
    limit_exp = None  # L(x), made at the first check that finds a value past 2^gate
    x2 = 2.0 * xa
    h, h_prev, tmp = np.multiply(xa, 2.0, out=h_prev), h, np.empty(xa.shape)  # H_1, H_0
    for k in range(1, n):
        # 2x H_k - 2k H_{k-1} as 2x H_k + (-2k) H_{k-1}: the same bits
        np.multiply(x2, h, out=tmp)
        h_prev *= -(2.0 * k)
        h_prev += tmp
        h, h_prev = h_prev, h
        if k >= first and (k % 8 == 7 or k == n - 1):
            # fmax and fmin leave NaN points out; a scaled point's h and h_prev are finite
            tops = (np.fmax.reduce(h, axis=None), -np.fmin.reduce(h, axis=None))
            tops += (np.fmax.reduce(h_prev, axis=None), -np.fmin.reduce(h_prev, axis=None))
            if max(tops) > 2.0**gate:
                if limit_exp is None:
                    limit_exp = _limit_exponents(n, xa)
                    limit = np.ldexp(1.0, limit_exp, out=np.full(xa.shape, np.inf), where=scaled)
                big = np.abs(h) > limit
                big |= np.abs(h_prev) > limit
                np.ldexp(h, -limit_exp, out=h, where=big)
                np.ldexp(h_prev, -limit_exp, out=h_prev, where=big)
                e = e + limit_exp * big
    return h, h_prev, e


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n(x) of degree n >= 0, scalar in / scalar out.

    hermite_scaled's h 2^e: it overflows to inf only where H_n itself passes the largest float.
    """
    h, e = hermite_scaled(n, x)[::2]
    h = np.ldexp(h, e)
    return float(h) if np.ndim(x) == 0 else h


def kummer_truncated(n: int, b: float, z):
    """Terminating Kummer function F(-n, b, z).

    With a nonnegative integer first parameter the confluent
    hypergeometric series breaks off, leaving a degree-n polynomial.  It
    is evaluated by the contiguous relation (DLMF 13.3.1 at a = -k)
    (b + k) F_{k+1} = (2k + b - z) F_k - k F_{k-1} from F_0 = 1 and
    F_1 = 1 - z/b, written as an update of F_k so that F(-n, b, 0) stays
    exactly 1.

    Parameters
    ----------
    n : int
        Truncation index, n >= 0.
    b : float
        Second parameter, b > 0.
    z : float or ndarray
        Argument.

    Returns
    -------
    float or ndarray
        F(-n, b, z), scalar in / scalar out.
    """
    if n < 0:
        raise ValueError(f"truncation index must be nonnegative, got {n}")
    if not b > 0:
        raise ValueError(f"second parameter must be positive, got {b}")
    za = np.atleast_1d(np.asarray(z, dtype=float))
    f = f_prev = np.ones(za.shape)
    if n > 0:
        f, step, zf = 1.0 - za / b, np.empty(za.shape), np.empty(za.shape)
        for k in range(1, n):
            # F_k + (k (F_k - F_{k-1}) - z F_k) / (b + k)
            np.subtract(f, f_prev, out=step)
            step *= k
            np.multiply(za, f, out=zf)
            step -= zf
            step /= b + k
            step += f
            f, f_prev, step = step, f, f_prev
    return float(f[0]) if np.ndim(z) == 0 else f
