"""Orthonormal oscillator eigenfunctions at given positions.

The three-term recurrence on the *normalized* functions is the only stable
route for n in the hundreds; raw Hermite polynomials overflow around n ~ 300.
"""

import math

import numpy as np

# h_0 leaves the normal double range once q^2/2 passes ~708; from q^2/2 > 700
# the recurrence carries 2**shift * h_n and renormalizes past 2**900
_SCALE_FROM = 700.0
_RENORM = 900


def hermite_functions(n_max, q):
    """First ``n_max`` orthonormal Hermite functions evaluated on ``q``.

    h_0(q) = pi^{-1/4} exp(-q^2/2)
    h_1(q) = sqrt(2) q h_0(q)
    h_{n+1}(q) = sqrt(2/(n+1)) q h_n(q) - sqrt(n/(n+1)) h_{n-1}(q)

    Returns an array of shape (n_max, len(q)). Rows are orthonormal with
    respect to dq integration. Past |q| ~ 37.4, where h_0 would underflow
    although h_n(q) is O(1) for n >~ q^2/2, each point carries an exact
    power-of-two scale through the recurrence; elsewhere no scale is applied
    and the values are those of the plain recurrence.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    out = np.empty((n_max, q.size))
    half_sq = 0.5 * q * q
    shift = np.where(half_sq > _SCALE_FROM, np.ceil(half_sq / math.log(2.0)), 0.0).astype(int)
    prev = np.zeros_like(q)
    cur = np.pi ** -0.25 * np.exp(shift * math.log(2.0) - half_sq)
    out[0] = np.ldexp(cur, -shift)
    for n in range(n_max - 1):
        prev, cur = cur, np.sqrt(2.0 / (n + 1)) * q * cur - np.sqrt(n / (n + 1.0)) * prev
        big = np.abs(cur) > 2.0 ** _RENORM
        if big.any():
            cur[big] = np.ldexp(cur[big], -_RENORM)
            prev[big] = np.ldexp(prev[big], -_RENORM)
            shift[big] -= _RENORM
        out[n + 1] = np.ldexp(cur, -shift)
    return out
