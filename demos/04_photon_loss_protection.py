#!/usr/bin/env python3
"""Photon loss with the autonomous correction on and off.

Starting from the |0> codeword with loss rate kappa1 = eps/5 (one photon
lifetime per horizon), the logical Z expectation Tr(J_z rho(t)) is tracked
against the stationary logical observables of the noiseless dynamics. The
"on" run adds the four stabilizing dissipators; the "off" run has the loss
channel alone, which the library evaluates in closed form.

This is the desk-size version (eps = 0.14). The production tier (eps = 0.1,
dim = 200) lives in the acceptance suite; tiers at eps = 1/20 and 1/30
reproduce order-of-magnitude-stronger suppression at matching cost.
"""

from gkpstab.analysis import error_rate_experiment

eps = 0.14
report = error_rate_experiment(eps, n_records=11)
print(f"eps = {eps}, dim = {report.dim}, kappa1 = {report.kappa1:.4f}, "
      f"horizon = 1/kappa1 = {1 / report.kappa1:.1f}")

print(f"\n{'t':>8} {'Tr(Jz) on':>12} {'Tr(Jz) off':>12}")
for t, z_on, z_off in zip(report.times, report.jz_on, report.jz_off):
    print(f"{t:>8.1f} {z_on:>12.6f} {z_off:>12.6f}")

print(f"\nsingle-point error rates at t = 1/kappa1:")
print(f"  on  = kappa1 (1 - Tr(Jz rho_on))  = {report.on_rate:.4e}")
print(f"  off = kappa1 (1 - Tr(Jz rho_off)) = {report.off_rate:.4e}")
print(f"  suppression ratio off/on = {report.suppression_ratio:.1f}")
print(f"fitted whole-grid rates: on {report.fitted_on_rate:.3e}, "
      f"off {report.fitted_off_rate:.3e}")
print(f"(logical observables converged to residual {report.logical_residual:.1e})")
