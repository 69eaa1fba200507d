"""Truncated-Fock-basis operator algebra.

Operators live on the span of the first ``dim`` number states and are plain
dense complex ``numpy`` arrays. Nothing here assumes Hermiticity or unitarity.

Identities that hold in infinite dimension (canonical commutators, products of
displacement-type exponentials) fail near the truncation corner. They are
asserted on a leading "interior" block instead; `interior_margin` computes how
far the corner artifacts reach for exponential-band operators.
"""

import math

import numpy as np

from .errors import (
    DimensionError,
    InvalidInputError,
    OperatorOverflowError,
    ShapeMismatchError,
)


def _check_dim(dim):
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise DimensionError(f"Fock truncation must be an integer >= 2, got {dim!r}")


def make_ladder(dim):
    """Annihilation operator a with <n-1|a|n> = sqrt(n)."""
    _check_dim(dim)
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(complex)


def make_quadratures(dim):
    """Position/momentum pair Q = (a+a†)/√2, P = (a−a†)/(i√2).

    Both are Hermitian by construction (real symmetric and purely imaginary
    antisymmetric, respectively). [Q,P] = i holds exactly except in the last
    row/column of the truncation.
    """
    a = make_ladder(dim)
    ad = a.conj().T
    q = (a + ad) / np.sqrt(2.0)
    p = (a - ad) / (1j * np.sqrt(2.0))
    return q, p


# Coefficients c_0..c_13 of the order-13 diagonal Padé approximant of exp,
# normalized to c_0 = 1 (each an exact integer ratio, rounded once; with
# c_0 = 1 a zero row and column of the input gives an exact 1), and
# theta_13: up to a 1-norm of theta_13 the approximant's backward error is
# below the float64 unit roundoff (Higham, SIAM J. Matrix Anal. Appl. 26,
# 1179, 2005, Table 2.3).
_PADE_13 = tuple(math.factorial(26 - k) * math.factorial(13)
                 // (math.factorial(13 - k) * math.factorial(k))
                 / math.factorial(26) for k in range(14))
_THETA_13 = 5.371920351148152
# Entries below sqrt(tiny) are set to zero before each squaring: a product of
# two that remain is never subnormal.
_FLUSH = math.sqrt(np.finfo(float).tiny)


def matrix_exponential(m):
    """exp(m) by scaling and squaring with the order-13 diagonal Padé approximant.

    s is the least s >= 0 with ||m||_1 / 2^s <= theta_13 (exact 1-norm); the
    approximant r = (V - U)^-1 (V + U) of exp(m / 2^s) takes six matrix
    products and one linear solve, and r is squared s times (Higham 2005).
    Before each squaring every entry, real and imaginary parts separately,
    of modulus below sqrt(tiny) ≈ 1.5e-154 is set to zero: the
    exponentials of the non-normal dissipator generators fall to ~1e-284
    off the diagonal, and products of such entries are subnormal, which
    slows a matrix product several times over. The flush changes no entry
    by more than sqrt(tiny) and leaves every product of two entries normal.

    A real input is exponentiated in real arithmetic and returns a real
    (float64) matrix; any other input is taken as complex. Raises
    InvalidInputError on non-finite entries and OperatorOverflowError
    (naming the 1-norm) if the squaring phase overflows, which happens for
    strongly non-normal inputs such as i*eta*R at large eps*dim.
    """
    m = np.asarray(m)
    m = m.astype(np.result_type(m, np.float64), copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatchError(f"matrix_exponential needs a square matrix, got {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInputError("matrix_exponential: input has non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.abs(m).sum(axis=0).max())
        finite = math.isfinite(norm)
        if finite:
            s = max(0, math.ceil(math.log2(norm / _THETA_13))) if norm > 0.0 else 0
            out = _pade_13(m * 2.0 ** -s)
            # two buffers in turn: the free one holds |entries| for the
            # flush, then the square
            spare = np.empty_like(out)
            for _ in range(s):
                parts, free = out.view(float), spare.view(float)
                np.abs(parts, out=free)
                parts[free < _FLUSH] = 0.0
                np.matmul(out, out, out=spare)
                out, spare = spare, out
            finite = np.isfinite(out.view(float)).all()
    if not finite:
        raise OperatorOverflowError(
            f"matrix exponential overflowed (input 1-norm {norm:.3e}); "
            "reduce the truncation dim or the regularization strength"
        )
    return out


def _pade_13(a):
    """(V - U)^-1 (V + U), the order-13 diagonal Padé approximant of exp(a).

    The sums accumulate in two reused buffers and V takes a's own buffer, so
    at most six matrices are alive and a is overwritten.
    """
    c = _PADE_13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    powers = (a6, a4, a2)
    x, y = np.zeros_like(a), np.empty_like(a)
    # U = a (A6 (c13 A6 + c11 A4 + c9 A2) + c7 A6 + c5 A4 + c3 A2 + c1 I)
    _add_powers(x, y, powers, (c[13], c[11], c[9]))
    np.matmul(a6, x, out=y)
    _add_powers(y, x, powers, (c[7], c[5], c[3]), c[1])
    u = np.matmul(a, y, out=x)
    # V = A6 (c12 A6 + c10 A4 + c8 A2) + c6 A6 + c4 A4 + c2 A2 + c0 I
    y.fill(0.0)
    _add_powers(y, a, powers, (c[12], c[10], c[8]))
    v = np.matmul(a6, y, out=a)
    _add_powers(v, y, powers, (c[6], c[4], c[2]), c[0])
    del a2, a4, a6, powers
    np.subtract(v, u, out=y)
    v += u
    del u, x
    return np.linalg.solve(y, v)


def _add_powers(out, scratch, powers, coefs, c0=0.0):
    """out += sum_k coefs[k] powers[k] + c0 I, each term formed in scratch."""
    for c, power in zip(coefs, powers):
        np.multiply(c, power, out=scratch)
        out += scratch
    out[np.diag_indices(out.shape[0])] += c0


def rotate(a, k):
    """F^k a F^-k for the π/2 phase-space rotation F = diag(i^n).

    Entry (m, n) is multiplied by i^(km) and then by i^(-kn), exact unit
    phases, so rotations compose and compare bitwise; the only temporary is
    the result. F a F† = -i a, F Q F† = P and F P F† = -Q.
    """
    a = np.asarray(a)
    f = np.array([1, 1j, -1, -1j])[k * np.arange(a.shape[0]) % 4]
    out = f[:, None] * a
    out *= f.conj()
    return out


def twirl(a):
    """(1/4) sum_k F^k a F^-k: a with its entries off m ≡ n (mod 4) set to zero.

    The phases i^(k(m-n)) sum to 4 on m ≡ n (mod 4) and to 0 elsewhere, so
    the average is the mask, exact and F-invariant. It is a mixture of unitary
    conjugations: trace, Hermiticity and positivity carry over, and
    Tr(B twirl(a)) = Tr(B a) for every B that commutes with F.
    """
    a = np.asarray(a)
    n = np.arange(a.shape[0])
    return np.where(np.subtract.outer(n, n) % 4 == 0, a, 0.0)


def hermitian_part(a):
    """(a + a†)/2."""
    return 0.5 * (a + a.conj().T)


def interior_block(a, margin):
    """Leading (dim-margin) x (dim-margin) submatrix (a view, not a copy)."""
    a = np.asarray(a)
    dim = a.shape[0]
    if not 0 <= margin < dim:
        raise DimensionError(f"margin must satisfy 0 <= margin < dim, got {margin} for dim {dim}")
    k = dim - margin
    return a[:k, :k]


def interior_margin(dim, eta, order=1):
    """Margin inside which corner artifacts of exponential-band operators stay.

    The matrix of e^{i*eta*Q} couples |n> to |n±k> for k up to about the
    classical band edge 2*(eta/√2)*√dim = √2*eta*√dim; products of `order`
    such factors reach `order` times as far. Entries further than that from
    the truncation corner are clean to near machine precision (the band has
    an Airy-type super-exponential edge), measured directly on the commutator
    and Lyapunov-derivative identities. The margin adds a cushion of 16 rows
    and is capped at dim - 2.
    """
    _check_dim(dim)
    m = int(np.ceil(order * np.sqrt(2.0) * eta * np.sqrt(dim))) + 16
    return min(m, dim - 2)


def max_abs(a):
    """Entrywise max modulus, the norm used by the interior-block checks."""
    return float(np.abs(a).max())


def spectrum(a):
    """Ascending eigenvalues of a Hermitian Fock-space matrix (dim >= 2).

    When both parity-mixing blocks a[0::2, 1::2] and a[1::2, 0::2] are zero,
    as for every parity-even state and logical operator, a is
    block-diagonal over n mod 2 and the merged spectra of the two blocks are
    exact; a matrix whose imaginary part is all zero is diagonalized in real
    arithmetic. Either way eigvalsh works on less: 15 ms against 39 ms for a
    logical operator at dim 400 on 2 cores.
    """
    a = np.asarray(a)
    if np.iscomplexobj(a) and not a.imag.any():
        a = a.real
    if a[0::2, 1::2].any() or a[1::2, 0::2].any():
        return np.linalg.eigvalsh(a)
    return np.sort(np.concatenate([np.linalg.eigvalsh(a[b::2, b::2]) for b in (0, 1)]))
