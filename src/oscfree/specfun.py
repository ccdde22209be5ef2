"""Special functions for the oscillator eigenstate formulas.

Physicists' Hermite polynomials and the truncated (terminating) Kummer
confluent hypergeometric function, both by three-term recurrences in the
degree rather than explicit coefficient sums: the alternating sums
cancel catastrophically already at moderate degree, while the
recurrences stay accurate: eigenstates to degree 170 and weighted Kummer
polynomials to degree 150 agree with 40-digit mpmath within 1e-13 of their
scale (tests/test_specfun.py).  The limit is overflow from about degree
170 on wide grids, which the CLI turns into a NonFiniteError (exit 3).

Both recurrences run over blocks of ``_BLOCK`` points at a time, each
step updating a few preallocated block buffers in place.  A step over
the whole array would make several grid-sized temporaries, which on a
grid of 10^5 points or more no longer fit in the core's cache; the block
buffers stay in it for all n steps.  Each point sees the same operations
in the same order as in the whole-array recurrence, so the result is
bit-identical to it.
"""

from __future__ import annotations

import numpy as np

# points per block: 128 KB per float64 buffer, so the few buffers of one
# recurrence stay in a 2 MB L2 cache
_BLOCK = 16384


def _blockwise(x, buffers: int, recurrence):
    """Evaluate ``recurrence`` on x, ``_BLOCK`` points at a time.

    ``recurrence(x_block, *scratch)`` gets a 1-D slice of x (C order) and
    ``buffers`` scratch arrays of the same length, reused from block to
    block, and returns the block's values.  Returns an ndarray of x's
    shape, or a float for a scalar x.
    """
    xa = np.asarray(x, dtype=float)
    flat = xa.reshape(-1)
    # a flat C-ordered output: the flat view of an array like a
    # Fortran-ordered x would be a copy, and the block writes lost in it
    out = np.empty(flat.size)
    scratch = [np.empty(min(flat.size, _BLOCK)) for _ in range(buffers)]
    for start in range(0, flat.size, _BLOCK):
        block = flat[start:start + _BLOCK]
        values = recurrence(block, *(buf[:block.size] for buf in scratch))
        out[start:start + block.size] = values
    if np.ndim(x) == 0:
        return float(out[0])
    return out.reshape(xa.shape)


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

    def recurrence(xb, x2, h, h_prev, tmp):
        h_prev.fill(1.0)
        if n == 0:
            return h_prev
        np.multiply(2.0, xb, out=x2)
        np.copyto(h, x2)
        for k in range(1, n):
            # 2x H_k - 2k H_{k-1} as 2x H_k + (-2k) H_{k-1}: the same bits
            np.multiply(x2, h, out=tmp)
            h_prev *= -(2.0 * k)
            h_prev += tmp
            h, h_prev = h_prev, h
        return h

    return _blockwise(x, 4, recurrence)


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

    def recurrence(zb, f, f_prev, step, zf):
        f_prev.fill(1.0)
        if n == 0:
            return f_prev
        np.divide(zb, b, out=f)
        np.subtract(1.0, f, out=f)
        for k in range(1, n):
            # F_k + (k (F_k - F_{k-1}) - z F_k) / (b + k)
            np.subtract(f, f_prev, out=step)
            step *= k
            np.multiply(zb, f, out=zf)
            step -= zf
            step /= b + k
            step += f
            f, f_prev, step = step, f, f_prev
        return f

    return _blockwise(z, 4, recurrence)
