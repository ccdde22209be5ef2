"""Special functions for the oscillator eigenstate formulas.

Physicists' Hermite polynomials and the truncated (terminating) Kummer
confluent hypergeometric function, both by three-term recurrences in the
degree rather than explicit coefficient sums: the alternating sums
cancel catastrophically already at moderate degree, while the
recurrences stay accurate.  Absolute precision still degrades for degree
beyond roughly 200 because the polynomial values themselves grow, and
they overflow from about degree 180 on wide grids; the CLI accepts any
level and turns that overflow into a NonFiniteError (exit 3).
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
    xa = np.asarray(x, dtype=float)
    h_prev = np.ones_like(xa)
    if n == 0:
        out = h_prev
    else:
        h = 2.0 * xa
        for k in range(1, n):
            h, h_prev = 2.0 * xa * h - 2.0 * k * h_prev, h
        out = h
    if np.ndim(x) == 0:
        return float(out)
    return out


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
    if b <= 0:
        raise ValueError(f"second parameter must be positive, got {b}")
    za = np.asarray(z, dtype=float)
    f_prev = np.ones_like(za)
    f = f_prev if n == 0 else 1.0 - za / b
    for k in range(1, n):
        f, f_prev = f + (k * (f - f_prev) - za * f) / (b + k), f
    if np.ndim(z) == 0:
        return float(f)
    return f
