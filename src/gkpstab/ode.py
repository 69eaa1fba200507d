"""Adaptive step-size control, and the embedded Runge-Kutta 5(4) pair that
is one of its two users.

`_drive` is the one adaptive loop in the package, and it owns the whole step
policy: the first step FIRST_STEP, the step budget MAX_STEPS, the
tolerances RTOL and ATOL, the record policy, the underflow guard, the
retreat from non-finite error estimates, the error test and the step-size
update. A backend supplies attempt(y, h) -> (candidate, error_estimate) and
the norm its states are measured in. With
tol = ATOL + RTOL * max(norm(y), norm(candidate)) the attempt is accepted
iff norm(error_estimate) <= tol, and the next step is
h * clip(SAFETY * (tol/err)**exponent, 0.2, max_growth). The Dormand-Prince
pair below is one backend; the step-doubling exponential integrator in
etd.py is the other.

Record times do not drive the step size. The distance to the next record
time is split into ceil(SAFETY * distance / h) equal steps, so no step is
longer than h / SAFETY, the step the controller's own error model puts
exactly at tol, and no sliver is left before a record. A step that lands on
a record time shorter than the proposal h does not reset the controller:
the next proposal is at least h (Hairer, Norsett & Wanner, Solving ODEs I,
sec. II.4, keep the step proposal across an output point).

Dormand-Prince: the 5th-order solution propagates, the embedded 4th-order
difference is the error estimate. The state is a dense matrix, and the
autonomous right-hand side is evaluated in matrix form; no superoperator is
ever materialized.
"""

import math

import numpy as np

from .errors import StepSizeUnderflowError
from .fock import hermitian_part, max_abs

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

FIRST_STEP = 1e-3      # the first step both backends try
MAX_STEPS = 10_000_000  # accepted plus rejected steps of one run
# the one accuracy every adaptive run is held to, on both backends
RTOL = 1e-8
ATOL = 1e-10
# the controller proposes SAFETY times the step its error model puts at tol
SAFETY = 0.9


def _min_step(t):
    """The shortest step the march takes from time t: ~1e4 ulp of t."""
    return 1e4 * np.finfo(float).eps * max(abs(t), 1.0)


def _drive(attempt, norm, y, t_final, record_times, exponent, max_growth,
           on_accept=None, on_record=None, diagnostics=None):
    """Adaptive march from t=0 to t_final, stopping exactly at each record time.

    The first step is FIRST_STEP, the budget of attempts MAX_STEPS and the
    tolerances RTOL and ATOL, all read at call time. attempt(y, h) returns
    (candidate, error_estimate) for a step of size h from y; after a
    rejection it is called again with the same y object.
    norm measures a state. The step is accepted iff norm(error_estimate) <=
    ATOL + RTOL * max(norm(y), norm(candidate)); a non-finite error retreats
    to h/4 and counts as a rejection. on_accept(y) is called with every
    accepted candidate and may modify it in place; on_record(t, y) fires at
    every record time and at t_final (and at t=0 when 0.0 is among
    record_times), with t equal to that time bitwise.

    The record policy: from t, with the proposal h, the distance r to the
    next record time is taken in ceil(SAFETY * r / h) equal steps, the
    count recomputed before every attempt. No attempt is longer than
    h / SAFETY, none is a sliver, and the last one lands on the record time
    bitwise. When that landing step is shorter than h, the next proposal is
    the larger of h and the one the step's own error gives, so a record does
    not reset the controller; "h_final" is therefore the controller's step
    after the last accepted one, not the length of a step cut to t_final.

    Raises ValueError, before any step, when two neighbours of the grid
    0, the record times in (0, t_final], t_final lie closer than
    _min_step of the earlier one, and StepSizeUnderflowError when the step
    budget is spent or the controller is driven below _min_step, appending
    `diagnostics` (a string) to the message. Returns (y, stats): the
    accepted and rejected steps "n_accept" and "n_reject", the smallest and
    largest accepted step "h_min" and "h_max" (None when no step was taken)
    and the next step size "h_final".
    """
    t, h = 0.0, FIRST_STEP
    record = sorted(set(float(tr) for tr in record_times if 0.0 < tr <= t_final))
    if not record or record[-1] < t_final:
        record.append(t_final)
    for a, b in zip([0.0] + record, record):
        if b - a < _min_step(a):
            raise ValueError(f"stops {a!r} and {b!r} are closer than the shortest step "
                             f"{_min_step(a):.3e}")
    if on_record is not None and 0.0 in record_times:
        on_record(0.0, y)
    suffix = f"; {diagnostics}" if diagnostics else ""
    n_accept = n_reject = 0
    h_min, h_max = np.inf, 0.0
    ri = 0
    while t < t_final - 1e-14 * max(1.0, t_final):
        if n_accept + n_reject > MAX_STEPS:
            raise StepSizeUnderflowError(
                f"step budget {MAX_STEPS} exhausted at t={t:.6g}{suffix}")
        t_stop = record[ri]
        n_left = max(1, math.ceil(SAFETY * (t_stop - t) / h))
        h_try = (t_stop - t) / n_left
        if h_try < _min_step(t):
            raise StepSizeUnderflowError(
                f"step size underflow at t={t:.6g} (h={h_try:.3e}){suffix}")
        candidate, estimate = attempt(y, h_try)
        err = norm(estimate)
        del estimate  # free before the next attempt allocates its own
        if not np.isfinite(err):
            h = 0.25 * h_try
            n_reject += 1
            continue
        tol = ATOL + RTOL * max(norm(y), norm(candidate))
        factor = SAFETY * (tol / err) ** exponent if err > 0 else max_growth
        h_next = h_try * min(max_growth, max(0.2, factor))
        if err <= tol:
            y = candidate
            if on_accept is not None:
                on_accept(y)
            n_accept += 1
            h_min, h_max = min(h_min, h_try), max(h_max, h_try)
            if n_left > 1:
                t += h_try
            else:
                t = t_stop
                if on_record is not None:
                    on_record(t_stop, y)
                ri += 1
                if h_try < h:
                    h_next = max(h_next, h)
        else:
            n_reject += 1
        h = h_next
    return y, {"n_accept": n_accept, "n_reject": n_reject,
               "h_min": h_min if n_accept else None, "h_max": h_max if n_accept else None,
               "h_final": h}


def integrate(f, y0, t_final, record_times=(), on_record=None, diagnostics=None):
    """Integrate the autonomous y' = f(y) for a Hermitian matrix y from t=0
    to t_final with the Dormand-Prince pair, stopping exactly at each record
    time.

    f must be linear and map y† to f(y)†, as the Lindblad generator does.
    The march starts from the Hermitian part of y0, and every accepted state
    is the Hermitian part of the 5th-order solution y5. The seventh stage is
    f(y5), so the Hermitian part of it is f at the accepted state, the first
    stage of the next attempt (first same as last); a retry after a
    rejection evaluates its first stage again. on_record(t, y) fires at
    every record time and at t_final. Raises StepSizeUnderflowError as
    described in _drive. Returns _drive's stats plus "n_rhs", the number of
    evaluations of f: six per attempt, one more per retry, and one for the
    initial state.
    """
    y = hermitian_part(np.asarray(y0))
    n_rhs = 0
    last = (None, None)  # the last attempt's candidate and f at it

    def counted(y):
        nonlocal n_rhs
        n_rhs += 1
        return f(y)

    def attempt(y, h):
        nonlocal last
        k = [last[1] if last[0] is y else counted(y)]
        last = (None, None)
        for i in range(1, 7):
            k.append(counted(y + h * sum(aij * k[j] for j, aij in enumerate(_A[i]))))
        y5 = y + h * sum(b * k[i] for i, b in enumerate(_B5) if b != 0.0)
        err = h * sum(e * k[i] for i, e in enumerate(_ERR) if e != 0.0)
        candidate = hermitian_part(y5)
        del y5  # free before the next first stage is formed
        last = (candidate, hermitian_part(k[6]))
        return candidate, err

    _, stats = _drive(
        attempt, max_abs, y, t_final, record_times, exponent=0.2,
        max_growth=5.0, on_record=on_record, diagnostics=diagnostics)
    stats["n_rhs"] = n_rhs
    return stats
