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


def _in_certified_window(epsilon, eta):
    """Supported lattice constant and 0 < eps <= 1/(2*eta)."""
    return _lattice_kind(eta) != "other" and 0 < epsilon <= 1.0 / (2.0 * eta)


def default_dim(epsilon):
    """Truncation rule n* = ceil(20/eps): large enough that results stop moving."""
    return int(math.ceil(20.0 / epsilon))


@dataclass(frozen=True)
class GkpParams:
    """Regularization strength, lattice constant, and Fock truncation.

    dim=None applies the 20/eps rule; passing dim explicitly overrides it
    (smaller values are accepted but degrade codeword quality).
    """

    epsilon: float
    eta: float = ETA_QUBIT
    dim: int = None

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {self.epsilon}")
        if self.dim is None:
            if self.epsilon == 0:
                raise DimensionError("epsilon=0 has no default truncation; pass dim explicitly")
            object.__setattr__(self, "dim", default_dim(self.epsilon))
        if self.dim < 2:
            raise DimensionError(f"dim must be >= 2, got {self.dim}")

    @property
    def lattice(self):
        return _lattice_kind(self.eta)

    @property
    def certified(self):
        """Hypotheses of the exponential-convergence certificate."""
        return _in_certified_window(self.epsilon, self.eta)


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
    regime; see convergence_rate for the certificate flag.
    """
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
    eps <= 1/(2*eta), and the value actually positive)."""
    value = kappa(epsilon, eta)
    certified = _in_certified_window(epsilon, eta) and value > 0
    return RateCertificate(value, certified, kappa_asymptote(epsilon, eta))


def build_conjugated_quadratures(params):
    """R = cosh(eps) Q + i sinh(eps) P and S = -i sinh(eps) Q + cosh(eps) P.

    These are the images of Q and P under conjugation by the finite-energy
    envelope exp(-(eps/2)(Q^2+P^2)); non-Hermitian for eps > 0 with
    [R,R†] = [S,S†] = sinh(2 eps) I and [R,S] = i I away from the corner.
    """
    q, p = make_quadratures(params.dim)
    ch, sh = math.cosh(params.epsilon), math.sinh(params.epsilon)
    r = ch * q + 1j * sh * p
    s = -1j * sh * q + ch * p
    return r, s


def build_dissipators(params):
    """The four stabilizing jump operators (e^{i eta R} - I, e^{i eta S} - I,
    e^{-i eta R} - I, e^{-i eta S} - I), in that order.

    The π/2 rotation F = diag(i^n) maps R to S and S to -R, so the k-th
    operator is F^k V_0 F^-k: one matrix exponential gives all four, and the
    other three are V_0 with exact unit phases on its entries (fock.rotate),
    so the rotation symmetry holds bitwise. Built by direct matrix
    exponential of the non-Hermitian generator; the similarity form with the
    inverse envelope is numerically explosive.
    """
    r, _ = build_conjugated_quadratures(params)
    v = matrix_exponential(1j * params.eta * r) - np.eye(params.dim)
    return tuple(rotate(v, k) for k in range(4))


def build_lyapunov(dissipators):
    """W = sum_k V_k† V_k, symmetrized to exact Hermiticity.

    The dissipators must be the F-orbit of the first, V_k = F^k V_0 F^-k
    bitwise (fock.rotate, as build_dissipators makes them);
    InvalidInputError otherwise. Entry (m, n) of V_k† V_k is
    i^(k(m-n)) (V_0† V_0)_mn, and the phases sum to 4 when m ≡ n (mod 4)
    and to 0 otherwise, so W is fock.twirl(4 V_0† V_0): one product, and W
    commutes with F exactly.
    """
    dims = {v.shape for v in dissipators}
    if len(dims) != 1 or any(s[0] != s[1] for s in dims):
        raise DimensionError(f"dissipators must share a square shape, got {dims}")
    v0 = dissipators[0]
    if len(dissipators) != 4 or not all(
            np.array_equal(dissipators[k], rotate(v0, k)) for k in (1, 2, 3)):
        raise InvalidInputError(
            "dissipators must be the π/2 rotation orbit F^k V_0 F^-k of the first")
    return hermitian_part(twirl(4.0 * (v0.conj().T @ v0)))


# ---------------------------------------------------------------------------
# Codewords: position-space Gaussian combs projected onto the Fock basis
# ---------------------------------------------------------------------------

def _comb_spec(params):
    """Peak spacing, weight exponent, and retained-peak count for the comb.

    Peaks sit at j*spacing/cosh(eps), weight exp(-w2*j^2); j runs over even
    and odd integers for the qubit lattice and over all integers for the
    sensor lattice. K is the smallest integer whose weight drops below 1e-14.
    """
    th = math.tanh(params.epsilon)
    if params.lattice == "qubit":
        spacing = math.sqrt(math.pi)
        w2 = 0.5 * math.pi * th
    elif params.lattice == "sensor":
        spacing = math.sqrt(2.0 * math.pi)
        w2 = math.pi * th
    else:
        raise ValueError(
            f"codewords are defined for the qubit/sensor lattice constants, got eta={params.eta}"
        )
    k_max = int(math.ceil(math.sqrt(14.0 * math.log(10.0) / w2)))
    return spacing, w2, k_max


def _comb_on_grid(q, spacing, w2, k_max, cosh_eps, tanh_eps, parity):
    psi = np.zeros_like(q)
    for j in range(-k_max - 1, k_max + 2):
        if parity is not None and j % 2 != parity:
            continue
        weight = math.exp(-w2 * j * j)
        center = j * spacing / cosh_eps
        psi += weight * np.exp(-((q - center) ** 2) / (2.0 * tanh_eps))
    return psi


def build_codewords(params):
    """Fock-coefficient vectors of the finite-energy codewords.

    The position-space wavefunctions (Gaussian combs of width sqrt(tanh eps),
    Mehler-kernel weights) are sampled on a uniform grid and projected onto
    Hermite functions by trapezoidal quadrature, which is spectrally accurate
    here. The qubit lattice yields |0> from the even comb and |1> from the
    odd comb orthogonalized against it; the sensor lattice yields one vector.
    The odd Fock coefficients are exactly zero.

    The grid ends one spacing past the last peak, so the weight it drops is
    below 2 sum_{j >= k_max} exp(-2 w2 j^2) < 1e-27 (w2 k_max^2 >= 14 ln 10).
    """
    if params.epsilon == 0:
        raise ValueError("codewords need epsilon > 0 (zero-width combs are not normalizable)")
    spacing, w2, k_max = _comb_spec(params)
    th = math.tanh(params.epsilon)
    ch = math.cosh(params.epsilon)

    halfwidth = (k_max + 1) * spacing

    step = min(math.sqrt(th) / 8.0, 0.02)
    npts = int(math.ceil(2.0 * halfwidth / step)) + 1
    q = np.linspace(-halfwidth, halfwidth, npts)
    weights = np.full(npts, q[1] - q[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5

    # every comb is even in q, so it has no overlap with the odd Hermite
    # functions: only the even Fock coefficients are computed, and the odd
    # ones are exactly zero (the codewords live on two of the four n mod 4
    # blocks of the rotation symmetry)
    even_basis = hermite_functions(params.dim, q)[0::2]

    def project(parity):
        coeff = np.zeros(params.dim)
        coeff[0::2] = even_basis @ (weights * _comb_on_grid(q, spacing, w2, k_max, ch, th, parity))
        return coeff

    if params.lattice == "sensor":
        coeff = project(None)
        return [coeff / np.linalg.norm(coeff)]

    even, odd = project(0), project(1)
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
    """(S_0, S_x, S_y, S_z) built from the two codeword projectors."""
    if len(codewords) != 2:
        raise ValueError("logical basis needs exactly two codewords")
    zero, one = (np.asarray(c, dtype=complex) for c in codewords)
    p00 = np.outer(zero, zero.conj())
    p11 = np.outer(one, one.conj())
    p10 = np.outer(one, zero.conj())
    return (
        p00 + p11,
        p10 + p10.conj().T,
        1j * p10 - 1j * p10.conj().T,
        p00 - p11,
    )


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
        _, sx, sy, sz = logical_basis(list(codewords))
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
