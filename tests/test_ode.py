"""The step loop ode._drive: its error test, its reuse of the state after a
rejection, and its retreat from non-finite error estimates."""

import numpy as np
import pytest

from gkpstab.fock import max_abs
from gkpstab.ode import _drive

RTOL, ATOL = 0.1, 0.01


def toy_attempt(candidate, estimates):
    """An attempt that returns a copy of `candidate` and the queued error
    estimates (zero once they run out); calls records (y, h) of each call."""
    calls = []

    def attempt(y, h):
        calls.append((y, h))
        err = estimates.pop(0) if estimates else 0.0
        return np.array(candidate), np.array([err])
    return attempt, calls


def drive(attempt, y):
    # one step of h = 1 covers [0, 1]
    return _drive(attempt, max_abs, y, 1.0, RTOL, ATOL, record_times=(),
                  exponent=0.2, max_growth=5.0, h=1.0)


@pytest.mark.parametrize("y, candidate", [([2.0], [-3.0]), ([-3.0], [2.0])])
def test_step_accepted_iff_error_within_tolerance(y, candidate):
    # tol = atol + rtol * max(norm(y), norm(candidate)), the larger norm 3 on
    # either side
    tol = ATOL + RTOL * 3.0
    for err, accepted in ((tol, True), (np.nextafter(tol, np.inf), False)):
        attempt, calls = toy_attempt(candidate, [err])
        _, stats = drive(attempt, np.array(y))
        assert calls[0][1] == 1.0
        assert stats["n_reject"] == (0 if accepted else 1)


def test_rejection_retries_from_the_same_state():
    y0 = np.array([1.0])
    attempt, calls = toy_attempt([1.0], [10.0, 10.0])
    _, stats = drive(attempt, y0)
    assert stats["n_reject"] == 2
    # both retries get the very object the rejected attempt had
    assert calls[0][0] is y0 and calls[1][0] is y0 and calls[2][0] is y0
    # after an acceptance the attempt starts from the accepted candidate
    assert all(c[0] is not y0 for c in calls[3:])
    assert calls[1][1] < calls[0][1] and calls[2][1] < calls[1][1]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_error_retreats_to_a_quarter_step(bad):
    attempt, calls = toy_attempt([1.0], [bad])
    _, stats = drive(attempt, np.array([1.0]))
    assert [h for _, h in calls[:2]] == [1.0, 0.25]
    assert stats["n_reject"] == 1
