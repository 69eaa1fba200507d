"""Grid-code constructions: conjugated quadratures, stabilizing dissipators,
the Lyapunov operator, finite-energy codewords, and the certified decay rate.

Two lattice constants are supported: ETA_QUBIT = 2√π (square lattice, two
codewords) and ETA_SENSOR = √(2π) (self-dual lattice, a single comb state).
Other values are accepted but flagged uncertified.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGapError, DimensionError, InvalidInputError
from .fock import hermitian_part, make_quadratures, matrix_exponential, rotate, twirl
from .hermite import hermite_functions

ETA_QUBIT = 2.0 * math.sqrt(math.pi)
ETA_SENSOR = math.sqrt(2.0 * math.pi)

_LATTICE_TOL = 1e-12


def _lattice_kind(eta):
    if abs(eta - ETA_QUBIT) < _LATTICE_TOL:
        return "qubit"
    if abs(eta - ETA_SENSOR) < _LATTICE_TOL:
        return "sensor"
    return "other"


def _check_epsilon_eta(epsilon, eta):
    """ValueError unless epsilon is finite and non-negative and eta finite."""
    if not 0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and non-negative, got {epsilon}")
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta}")


def default_dim(epsilon):
    """Truncation rule n* = ceil(20/eps): large enough that results stop moving."""
    return int(math.ceil(20.0 / epsilon))


@dataclass(frozen=True)
class GkpParams:
    """Regularization strength, lattice constant, and Fock truncation.

    epsilon must be finite and non-negative and eta finite (ValueError
    otherwise). dim=None applies the 20/eps rule; passing dim explicitly
    overrides it (smaller values are accepted but degrade codeword quality).
    """

    epsilon: float
    eta: float = ETA_QUBIT
    dim: int = None

    def __post_init__(self):
        _check_epsilon_eta(self.epsilon, self.eta)
        if self.dim is None:
            if self.epsilon == 0:
                raise DimensionError("epsilon=0 has no default truncation; pass dim explicitly")
            object.__setattr__(self, "dim", default_dim(self.epsilon))
        if self.dim < 2:
            raise DimensionError(f"dim must be >= 2, got {self.dim}")

    @property
    def lattice(self):
        return _lattice_kind(self.eta)


def _reduced_trig(epsilon, eta):
    """sin/cos of eta^2*cosh(2*eps) without large-argument cancellation.

    For the two lattice constants eta^2 is an exact multiple of 2*pi, so the
    angle reduces to eta^2*(cosh(2*eps)-1) = eta^2*2*sinh(eps)^2 exactly.
    """
    c = math.cosh(2.0 * epsilon)
    if _lattice_kind(eta) != "other":
        angle = eta * eta * 2.0 * math.sinh(epsilon) ** 2
    else:
        angle = eta * eta * c
    return math.sin(angle), math.cos(angle)


def kappa(epsilon, eta=ETA_QUBIT):
    """Closed-form lower bound on the exponential decay rate of Tr(W rho).

    kappa = (sinh(e2*s) - sin(e2*c))(1 - exp(-3*e2*s/2))
          - (cosh(e2*s) - cos(e2*c))(1 + exp(-3*e2*s/2))
    with s = sinh(2*eps), c = cosh(2*eps), e2 = eta^2. Behaves as
    2*eta^4*eps^2 for small eps. May be negative outside the certified
    regime; see convergence_rate for the certificate flag. epsilon and eta
    are held to GkpParams' checks (ValueError).
    """
    _check_epsilon_eta(epsilon, eta)
    s = math.sinh(2.0 * epsilon)
    e2 = eta * eta
    sin_c, cos_c = _reduced_trig(epsilon, eta)
    damp = math.exp(-1.5 * e2 * s)
    return (math.sinh(e2 * s) - sin_c) * (1.0 - damp) - (math.cosh(e2 * s) - cos_c) * (1.0 + damp)


def kappa_asymptote(epsilon, eta=ETA_QUBIT):
    """Leading small-eps behavior 2*eta^4*eps^2."""
    return 2.0 * eta ** 4 * epsilon ** 2


@dataclass(frozen=True)
class RateCertificate:
    value: float
    certified: bool
    asymptote: float


def convergence_rate(epsilon, eta=ETA_QUBIT):
    """kappa together with the certificate flag (lattice constant supported,
    0 < eps <= 1/(2*eta), and the value actually positive); kappa's input
    checks apply."""
    value = kappa(epsilon, eta)
    certified = _lattice_kind(eta) != "other" and 0 < epsilon <= 1.0 / (2.0 * eta) and value > 0
    return RateCertificate(value, certified, kappa_asymptote(epsilon, eta))


def build_conjugated_quadratures(params):
    """R = cosh(eps) Q + i sinh(eps) P and S = -i sinh(eps) Q + cosh(eps) P.

    These are the images of Q and P under conjugation by the finite-energy
    envelope exp(-(eps/2)(Q^2+P^2)); non-Hermitian for eps > 0 with
    [R,R†] = [S,S†] = sinh(2 eps) I and [R,S] = i I away from the corner.
    In the Fock basis R = (e^{-eps} a† + e^{eps} a)/√2 is a real matrix and
    S = i(e^{-eps} a† - e^{eps} a)/√2 a purely imaginary one (returned as
    complex arrays).
    """
    q, p = make_quadratures(params.dim)
    ch, sh = math.cosh(params.epsilon), math.sinh(params.epsilon)
    r = ch * q + 1j * sh * p
    s = -1j * sh * q + ch * p
    return r, s


def _exp_i_r(params, theta):
    """e^{i theta R}, exponentiated in real arithmetic.

    R is real and tridiagonal, so with F = diag(i^n) the rotated generator
    F^-1 (i theta R) F = -i theta S is the real (theta/√2)(e^{-eps} a† -
    e^{eps} a): its imaginary part is exactly zero, since fock.rotate
    multiplies by exact unit phases. One real matrix exponential of it,
    rotated back, is e^{i theta R}.
    """
    r, _ = build_conjugated_quadratures(params)
    return rotate(matrix_exponential(rotate(1j * theta * r, -1).real), 1)


def build_dissipators(params):
    """The four stabilizing jump operators (e^{i eta R} - I, e^{i eta S} - I,
    e^{-i eta R} - I, e^{-i eta S} - I), in that order.

    The π/2 rotation F = diag(i^n) maps R to S and S to -R, so the k-th
    operator is F^k V_0 F^-k: one matrix exponential gives all four, and the
    other three are V_0 with exact unit phases on its entries (fock.rotate),
    so the rotation symmetry holds bitwise. Built by direct matrix
    exponential of the non-Hermitian generator; the similarity form with the
    inverse envelope is numerically explosive. The exponential is real
    (_exp_i_r), which costs less than a complex one, and every charge part
    of V_0 comes out exactly real or exactly imaginary.
    """
    v = _exp_i_r(params, params.eta) - np.eye(params.dim)
    return tuple(rotate(v, k) for k in range(4))


def build_lyapunov(dissipators):
    """W = sum_k V_k† V_k, symmetrized to exact Hermiticity, as a complex
    matrix.

    The dissipators must be the F-orbit of the first, V_k = F^k V_0 F^-k
    bitwise (fock.rotate, as build_dissipators makes them);
    InvalidInputError otherwise. Entry (m, n) of V_k† V_k is
    i^(k(m-n)) (V_0† V_0)_mn, and the phases sum to 4 when m ≡ n (mod 4)
    and to 0 otherwise, so W is fock.twirl(4 V_0† V_0): one product, and W
    commutes with F exactly. With U = F^-1 V_0 F, (U† U)_mn is
    i^(n-m) (V_0† V_0)_mn, the same on m ≡ n (mod 4), so W is also
    fock.twirl(4 U† U). The product is taken on U, in real arithmetic when
    U's imaginary part is all zero, as it is for the built dissipators.
    """
    dims = {v.shape for v in dissipators}
    if len(dims) != 1 or any(s[0] != s[1] for s in dims):
        raise DimensionError(f"dissipators must share a square shape, got {dims}")
    v0 = dissipators[0]
    if len(dissipators) != 4 or not all(
            np.array_equal(dissipators[k], rotate(v0, k)) for k in (1, 2, 3)):
        raise InvalidInputError(
            "dissipators must be the π/2 rotation orbit F^k V_0 F^-k of the first")
    u = rotate(v0, -1)
    if not u.imag.any():
        u = u.real
    return hermitian_part(twirl(4.0 * (u.conj().T @ u))).astype(complex)


# ---------------------------------------------------------------------------
# Codewords: the finite-energy envelope applied to the ideal combs
# ---------------------------------------------------------------------------

# the lattice sums stop at |x_j| <= sqrt(2 dim + 1) + _COMB_MARGIN
_COMB_MARGIN = 8.0


def build_codewords(params):
    """Fock-coefficient vectors of the finite-energy codewords.

    A codeword is an ideal comb sum_j |q = x_j> under the envelope
    exp(-eps (Q^2+P^2)/2) = exp(-eps (n + 1/2)), which is diagonal in Fock
    space, so up to normalization c_n = exp(-eps n) sum_j h_n(x_j). By
    Mehler's formula, sum_n exp(-eps n) h_n(q) h_n(x) is a constant times
    exp(-tanh(eps) x^2/2) exp(-(q - x/cosh eps)^2 / (2 tanh eps)): these are
    the Fock coefficients of the position-space Gaussian combs, exactly.
    The qubit lattice (x_j = j sqrt(pi)) yields |0> from even j and |1> from
    odd j orthogonalized against it; the sensor lattice (x_j = j sqrt(2 pi))
    yields one vector.

    h_n(-x) = (-1)^n h_n(x), so the combs, symmetric under x -> -x, have
    exactly zero odd coefficients, and each even one pairs +-x_j into
    2 h_n(x_j). The sums stop at |x_j| <= sqrt(2 dim + 1) + 8: every n < dim
    has its turning point sqrt(2n + 1) inside that bound and decays
    monotonically beyond it; on the bound every |h_n| is below 2e-22 (dims 2
    to 2000 checked, dim 2 the largest).
    """
    if params.epsilon == 0:
        raise ValueError("codewords need epsilon > 0 (zero-width combs are not normalizable)")
    if params.lattice == "qubit":
        spacing = math.sqrt(math.pi)
    elif params.lattice == "sensor":
        spacing = math.sqrt(2.0 * math.pi)
    else:
        raise ValueError(
            f"codewords are defined for the qubit/sensor lattice constants, got eta={params.eta}"
        )
    j = np.arange(int((math.sqrt(2.0 * params.dim + 1.0) + _COMB_MARGIN) / spacing) + 1)
    even_rows = hermite_functions(params.dim, j * spacing)[0::2]
    pair = np.where(j == 0, 1.0, 2.0)
    envelope = np.exp(-params.epsilon * np.arange(0, params.dim, 2))

    def comb(parity):
        coeff = np.zeros(params.dim)
        terms = pair if parity is None else pair * (j % 2 == parity)
        coeff[0::2] = envelope * (even_rows @ terms)
        return coeff

    if params.lattice == "sensor":
        coeff = comb(None)
        return [coeff / np.linalg.norm(coeff)]

    even, odd = comb(0), comb(1)
    one = odd - (even @ odd) / (even @ even) * even
    return [even / np.linalg.norm(even), one / np.linalg.norm(one)]


def kernel_codewords(lyapunov, n_kernel):
    """Kernel basis of W from its eigendecomposition; the cross-validation
    oracle for build_codewords.

    Takes the `n_kernel` smallest eigenvectors and demands the next
    eigenvalue exceed the kernel ones by a factor 1e3, else raises
    DegenerateGapError.
    """
    ew, vecs = np.linalg.eigh(hermitian_part(lyapunov))
    if n_kernel >= len(ew):
        raise DimensionError("n_kernel must be smaller than the operator dimension")
    kernel_level = max(float(np.abs(ew[:n_kernel]).max()), 1e-300)
    if ew[n_kernel] < 1e3 * kernel_level:
        raise DegenerateGapError(
            f"no spectral gap: kernel candidates reach {kernel_level:.3e} "
            f"but the next eigenvalue is {ew[n_kernel]:.3e}"
        )
    out = []
    for i in range(n_kernel):
        v = vecs[:, i]
        pivot = np.argmax(np.abs(v))
        v = v * (np.abs(v[pivot]) / v[pivot])  # deterministic phase
        out.append(v)
    return out


def logical_basis(codewords):
    """(S_x, S_y, S_z) built from the two codeword projectors."""
    if len(codewords) != 2:
        raise ValueError("logical basis needs exactly two codewords")
    zero, one = (np.asarray(c, dtype=complex) for c in codewords)
    p00 = np.outer(zero, zero.conj())
    p11 = np.outer(one, one.conj())
    p10 = np.outer(one, zero.conj())
    return p10 + p10.conj().T, 1j * p10 - 1j * p10.conj().T, p00 - p11


def mean_photon_number(vec):
    v = np.asarray(vec)
    n = np.arange(v.size)
    return float(np.sum(n * np.abs(v) ** 2) / np.sum(np.abs(v) ** 2))


@dataclass(frozen=True)
class GkpCode:
    """Bundle of everything derived from one parameter set.

    For the sensor lattice there is a single codeword and no logical basis.
    """

    params: GkpParams
    dissipators: tuple
    lyapunov: np.ndarray
    codewords: tuple
    sx: np.ndarray = None
    sy: np.ndarray = None
    sz: np.ndarray = None

    @property
    def dim(self):
        return self.params.dim

    def codeword_residuals(self):
        """||V_k psi|| for every dissipator and codeword, shape (4, n_codewords)."""
        return np.array(
            [[float(np.linalg.norm(v @ c)) for c in self.codewords] for v in self.dissipators]
        )


def build_code(params):
    """Construct the full GkpCode bundle for one parameter set."""
    dissipators = build_dissipators(params)
    lyap = build_lyapunov(dissipators)
    codewords = tuple(build_codewords(params))
    if params.lattice == "qubit":
        sx, sy, sz = logical_basis(list(codewords))
    else:
        sx = sy = sz = None
    return GkpCode(
        params=params,
        dissipators=dissipators,
        lyapunov=lyap,
        codewords=codewords,
        sx=sx,
        sy=sy,
        sz=sz,
    )
