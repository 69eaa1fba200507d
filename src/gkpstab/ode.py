"""Adaptive step-size control, and the embedded Runge-Kutta 5(4) pair that
is one of its two users.

`_drive` is the one adaptive loop in the package. It clamps steps to the
record times, enforces the step budget and the underflow guard, retreats
from non-finite error estimates, and updates the step size. A backend only
supplies attempt(y, h) -> (candidate, err, tol); the attempt is accepted iff
err <= tol, and the next step is h * clip(0.9 * (tol/err)**exponent, 0.2,
max_growth). The Dormand-Prince pair below is one backend; the step-doubling
exponential integrator in etd.py is the other.

Dormand-Prince: the 5th-order solution propagates, the embedded 4th-order
difference drives the controller. The state is a dense complex matrix and
the autonomous right-hand side is evaluated in matrix form; no superoperator
is ever materialized.
"""

import numpy as np

from .errors import StepSizeUnderflowError

# Dormand-Prince 5(4) tableau
_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_ERR = _B5 - _B4


def _drive(attempt, y, t_final, h, record_times, exponent, max_growth,
           on_accept=None, on_record=None, max_steps=10_000_000, diagnostics=None):
    """Adaptive march from t=0 to t_final, stopping exactly at each record time.

    on_accept(y) may modify every accepted candidate in place; on_record(t, y)
    fires at every record time and at t_final (and at t=0 when 0 is among
    record_times). Raises StepSizeUnderflowError when the step budget is
    spent or the controller is driven below ~1e4 ulp of the current time,
    appending `diagnostics` (a string) to the message. Returns (y, stats):
    the accepted and rejected steps "n_accept" and "n_reject", the smallest
    and largest accepted step "h_min" and "h_max" (None when no step was
    taken) and the next step size "h_final".
    """
    t = 0.0
    record = sorted(set(float(tr) for tr in record_times if 0.0 < tr <= t_final))
    if not record or record[-1] < t_final:
        record.append(t_final)
    if on_record is not None and any(np.isclose(tr, 0.0) for tr in record_times):
        on_record(0.0, y)
    suffix = f"; {diagnostics}" if diagnostics else ""
    n_accept = n_reject = 0
    h_min, h_max = np.inf, 0.0
    ri = 0
    while t < t_final - 1e-14 * max(1.0, t_final):
        if n_accept + n_reject > max_steps:
            raise StepSizeUnderflowError(
                f"step budget {max_steps} exhausted at t={t:.6g}{suffix}")
        t_stop = record[ri]
        h_try = min(h, t_stop - t)
        if h_try < 1e4 * np.finfo(float).eps * max(abs(t), 1.0):
            raise StepSizeUnderflowError(
                f"step size underflow at t={t:.6g} (h={h_try:.3e}){suffix}")
        candidate, err, tol = attempt(y, h_try)
        if not np.isfinite(err):
            h = 0.25 * h_try
            n_reject += 1
            continue
        if err <= tol:
            t += h_try
            y = candidate
            if on_accept is not None:
                on_accept(y)
            n_accept += 1
            h_min, h_max = min(h_min, h_try), max(h_max, h_try)
            if t >= t_stop - 1e-14 * max(1.0, t_final):
                if on_record is not None:
                    on_record(t_stop, y)
                ri += 1
        else:
            n_reject += 1
        factor = 0.9 * (tol / err) ** exponent if err > 0 else max_growth
        h = h_try * min(max_growth, max(0.2, factor))
    return y, {"n_accept": n_accept, "n_reject": n_reject,
               "h_min": h_min if n_accept else None, "h_max": h_max if n_accept else None,
               "h_final": h}


def _initial_step(f, y0, rtol, atol):
    """Standard Hairer-Norsett-Wanner h0 heuristic adapted to max-norm."""
    scale = atol + rtol * np.abs(y0).max()
    f0 = f(y0)
    d0 = np.abs(y0).max() / scale
    d1 = np.abs(f0).max() / scale
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = f(y1)
    d2 = np.abs(f1 - f0).max() / scale / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1)


def integrate(f, y0, t_final, rtol=1e-8, atol=1e-10, record_times=(),
              on_record=None, max_steps=10_000_000, diagnostics=None):
    """Integrate the autonomous y' = f(y) for a Hermitian matrix y from t=0
    to t_final with the Dormand-Prince pair, stopping exactly at each record
    time.

    The march starts from the Hermitian part of y0, and every accepted state
    is the Hermitian part of the 5th-order solution. on_record(t, y) fires
    at every record time and at t_final. Raises StepSizeUnderflowError as
    described in _drive. Returns _drive's stats plus "n_rhs", the number of
    evaluations of f: seven per attempt, and two for the initial step.
    """
    y = np.asarray(y0, dtype=complex)
    y = 0.5 * (y + y.conj().T)
    n_rhs = 0

    def counted(y):
        nonlocal n_rhs
        n_rhs += 1
        return f(y)

    def attempt(y, h):
        k = [counted(y)]
        for i in range(1, 7):
            k.append(counted(y + h * sum(aij * k[j] for j, aij in enumerate(_A[i]))))
        y5 = y + h * sum(b * k[i] for i, b in enumerate(_B5) if b != 0.0)
        err_mat = h * sum(e * k[i] for i, e in enumerate(_ERR) if e != 0.0)
        scale = atol + rtol * max(np.abs(y).max(), np.abs(y5).max())
        return 0.5 * (y5 + y5.conj().T), np.abs(err_mat).max() / scale, 1.0

    h = _initial_step(counted, y, rtol, atol)
    _, stats = _drive(
        attempt, y, t_final, h, record_times, exponent=0.2, max_growth=5.0,
        on_record=on_record, max_steps=max_steps, diagnostics=diagnostics)
    stats["n_rhs"] = n_rhs
    return stats
