#!/usr/bin/env python3
"""Closed-form machinery behind the convergence certificate, verified
numerically: the 4x4 circulant coefficient matrix and its explicit
eigenpairs, the rewrite of the Lyapunov derivative through it, the
cosh/cos operator inequality, and the commutation/product rules the
construction relies on.
"""

import numpy as np

from gkpstab.analysis import (
    build_t_matrix,
    run_identity_suite,
    t_matrix_closed_eigenpairs,
    verify_t_spectrum,
)

print("circulant coefficient matrix at eps = 0.05:")
t = build_t_matrix(0.05)
with np.printoptions(precision=3, suppress=True):
    print(t.matrix)
print("\nclosed-form eigenvalues (sorted):",
      sorted(lam for lam, _ in t_matrix_closed_eigenpairs(0.05)))
report = verify_t_spectrum(t)
print(f"numeric vs closed forms: eigenpair dev {report.measured:.1e} (tol {report.tol:g}); "
      f"with the sign pattern lam4 <= lam3 <= 0 <= lam2 <= lam1: "
      f"{'PASS' if report.passed else 'FAIL'}")

print("\nfull identity suite at eps = 0.1 (dim 200):")
for result in run_identity_suite(0.1, dim=200):
    flag = "PASS" if result.passed else "FAIL"
    print(f"  {flag} {result.name}: measured {result.measured:.2e} (tol {result.tol:g})")
