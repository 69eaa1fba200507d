"""Closed forms the benchmark scores the program against.

Each is written out here from its formula, not taken from gkpstab, and each
has a self-check that needs no time integration:

  * the pure-loss (amplitude-damping) channel Phi_T, checked for trace
    preservation and the semigroup law Phi_T1 Phi_T2 = Phi_{T1 T2};
  * the certified rate kappa(eps, eta), checked against its small-eps
    asymptote 2 eta^4 eps^2;
  * the codeword identities of stationary logical operators, checked on
    operators built from exact projectors and on a perturbed one.
"""

import math

import numpy as np

ETA_QUBIT = 2.0 * math.sqrt(math.pi)


def kappa(epsilon, eta=ETA_QUBIT):
    """kappa = (sinh(e2 s) - sin(e2 c))(1 - exp(-3 e2 s / 2))
             - (cosh(e2 s) - cos(e2 c))(1 + exp(-3 e2 s / 2)),
    with s = sinh(2 eps), c = cosh(2 eps), e2 = eta^2, evaluated directly."""
    s = math.sinh(2.0 * epsilon)
    c = math.cosh(2.0 * epsilon)
    e2 = eta * eta
    damp = math.exp(-1.5 * e2 * s)
    return ((math.sinh(e2 * s) - math.sin(e2 * c)) * (1.0 - damp)
            - (math.cosh(e2 * s) - math.cos(e2 * c)) * (1.0 + damp))


def pure_loss_channel(rho, transmissivity):
    """<m|Phi_T(rho)|n> = sum_k sqrt(C(m+k,k) C(n+k,k)) T^((m+n)/2) (1-T)^k rho_{m+k,n+k}.

    Loss at rate kappa1 for a time t is Phi_T with T = exp(-kappa1 t). The
    channel only lowers photon numbers, so it is exact in a truncated space.
    The weights are formed in log space; C(m+k, k) overflows near dim 1000.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    if transmissivity == 1.0:
        return rho.copy()
    log_fact = np.cumsum(np.log(np.maximum(np.arange(2 * dim), 1.0)))
    log_t, log_loss = math.log(transmissivity), math.log1p(-transmissivity)
    out = np.zeros_like(rho)
    for k in range(dim):
        m = np.arange(dim - k)
        w = np.exp(0.5 * (log_fact[m + k] - log_fact[m] - log_fact[k]
                          + m * log_t + k * log_loss))
        out[: dim - k, : dim - k] += w[:, None] * w[None, :] * rho[k:, k:]
    return out


def codeword_identity_defect(jz, jx, zero, one):
    """Largest deviation of <0|Jz|0> = 1, <1|Jz|1> = -1, Re<0|Jx|1> = 1."""
    zero = np.asarray(zero, dtype=complex)
    one = np.asarray(one, dtype=complex)
    return max(
        abs(np.vdot(zero, jz @ zero).real - 1.0),
        abs(np.vdot(one, jz @ one).real + 1.0),
        abs(np.vdot(zero, jx @ one).real - 1.0),
    )


def self_check():
    """Run every oracle on inputs whose answer is known; raise on a miss.

    Returns the deviations it saw, for the result file.
    """
    rng = np.random.default_rng(20220331)
    dim = 24
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    trace_dev = abs(np.trace(pure_loss_channel(rho, 0.3)) - 1.0)
    composed = pure_loss_channel(pure_loss_channel(rho, 0.7), 0.4)
    semigroup_dev = float(np.abs(composed - pure_loss_channel(rho, 0.28)).max())

    eps = 1e-4
    asymptote_dev = abs(kappa(eps) / (2.0 * ETA_QUBIT ** 4 * eps ** 2) - 1.0)

    q, _ = np.linalg.qr(rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2)))
    zero, one = q[:, 0], q[:, 1]
    p00, p11, p10 = np.outer(zero, zero.conj()), np.outer(one, one.conj()), np.outer(one, zero.conj())
    jz, jx = p00 - p11, p10 + p10.conj().T
    exact_dev = codeword_identity_defect(jz, jx, zero, one)
    perturbed_dev = codeword_identity_defect(jz + 1e-6 * p00, jx, zero, one)

    seen = {
        "pure_loss_trace_dev": float(trace_dev),
        "pure_loss_semigroup_dev": semigroup_dev,
        "kappa_asymptote_rel_dev": asymptote_dev,
        "codeword_exact_dev": float(exact_dev),
        "codeword_perturbed_dev": float(perturbed_dev),
    }
    misses = [
        trace_dev > 1e-12,
        semigroup_dev > 1e-12,
        asymptote_dev > 5e-3,
        exact_dev > 1e-12,
        perturbed_dev < 5e-7,
    ]
    if any(misses):
        raise RuntimeError(f"oracle self-check failed: {seen}")
    return seen
