"""Special functions for the oscillator eigenstate formulas.

Physicists' Hermite polynomials and the truncated (terminating) Kummer
confluent hypergeometric function, both by three-term recurrences in the
degree rather than explicit coefficient sums: the alternating sums
cancel catastrophically already at moderate degree, while the
recurrences stay accurate: eigenstates to degree 170 and weighted Kummer
polynomials to degree 150 agree with 40-digit mpmath within 1e-13 of their
scale (tests/test_specfun.py).  The limit is overflow from about degree
170 on wide grids, which the CLI turns into a NonFiniteError (exit 3).

Both recurrences update four preallocated buffers in place over the whole
array they are given; grid evaluations hand over one axis-0 slab at a time,
sized for these buffers (see analysis._SLAB).
"""

from __future__ import annotations

import numpy as np


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n(x).

    Uses the three-term recurrence H_0 = 1, H_1 = 2x,
    H_{k+1} = 2x H_k - 2k H_{k-1}.

    Parameters
    ----------
    n : int
        Degree, n >= 0.
    x : float or ndarray
        Evaluation points.

    Returns
    -------
    float or ndarray
        H_n evaluated at x, scalar in / scalar out.
    """
    if n < 0:
        raise ValueError(f"Hermite degree must be nonnegative, got {n}")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    h = h_prev = np.ones(xa.shape)
    if n > 0:
        x2 = 2.0 * xa
        h, tmp = x2.copy(), np.empty(xa.shape)
        for k in range(1, n):
            # 2x H_k - 2k H_{k-1} as 2x H_k + (-2k) H_{k-1}: the same bits
            np.multiply(x2, h, out=tmp)
            h_prev *= -(2.0 * k)
            h_prev += tmp
            h, h_prev = h_prev, h
    return float(h[0]) if np.ndim(x) == 0 else h


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
