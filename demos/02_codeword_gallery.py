#!/usr/bin/env python3
"""Finite-energy codewords, two independent ways.

Route one is closed form: the finite-energy envelope exp(-eps n) applied to
the ideal combs, whose Fock coefficients are sums of Hermite functions over
the lattice sites (by Mehler's formula, the same states as the
position-space Gaussian combs); route two asks the Lyapunov operator for its
kernel. They must agree, and both codewords must be annihilated by all four
stabilizing dissipators.
"""

import numpy as np

from gkpstab import (
    ETA_SENSOR,
    GkpParams,
    build_code,
    kernel_codewords,
    mean_photon_number,
)

eps = 0.14
code = build_code(GkpParams(eps))
print(f"eps = {eps}, truncation dim = {code.dim} (rule: 20/eps)")

c0, c1 = code.codewords
print(f"\nclosed-form route: <0|0> = {np.linalg.norm(c0):.12f}, "
      f"<0|1> = {abs(np.vdot(c0, c1)):.2e}")
print(f"mean photon numbers: {mean_photon_number(c0):.3f}, {mean_photon_number(c1):.3f} "
      f"(1/(2 eps) = {1 / (2 * eps):.2f})")
print("odd-Fock weight (both wavefunctions are even):",
      [f"{np.sum(np.abs(w[1::2]) ** 2):.1e}" for w in code.codewords])

print("\nfirst ten even Fock amplitudes of |0>:")
for n in range(0, 20, 2):
    bar = "#" * int(60 * abs(c0[n]))
    print(f"  n={n:3d}  {c0[n]:+.5f}  {bar}")

resid = code.codeword_residuals()
print(f"\nmax ||V_k psi|| over 4 dissipators x 2 codewords: {resid.max():.2e}")

kernel = kernel_codewords(code.lyapunov, 2)
closed = np.vstack(code.codewords).T
eig = np.vstack(kernel).T
p_closed = closed @ np.linalg.inv(closed.conj().T @ closed) @ closed.conj().T
p_eig = eig @ eig.conj().T
print(f"projector distance closed form vs eigen-kernel: "
      f"{np.linalg.norm(p_closed - p_eig, 2):.2e}")

sensor = build_code(GkpParams(eps, eta=ETA_SENSOR))
print(f"\nsensor lattice: {len(sensor.codewords)} codeword, "
      f"mean photon {mean_photon_number(sensor.codewords[0]):.3f}, "
      f"max ||V psi|| = {sensor.codeword_residuals().max():.2e}")
