"""The step loop ode._drive: its error test, its reuse of the state after a
rejection, its retreat from non-finite error estimates, and its record
policy (equal steps up to each record time, none longer than h / SAFETY,
no reset of the step after landing on one)."""

import numpy as np
import pytest

from gkpstab import evolve, ode
from gkpstab.fock import max_abs
from gkpstab.lindblad import ObservableSpec
from gkpstab.ode import SAFETY, _drive

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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ode, "FIRST_STEP", 1.0)
        mp.setattr(ode, "RTOL", RTOL)
        mp.setattr(ode, "ATOL", ATOL)
        return _drive(attempt, max_abs, y, 1.0, record_times=(), exponent=0.2, max_growth=5.0)


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


# The record-policy toy: its state is [1, t], of norm 1 while t <= 1, so the
# tolerance is the constant TOL, and its error is TOL * (h / H_TOL)**5. The
# controller's proposal after an accepted step is then SAFETY * H_TOL, and a
# step of H_TOL = proposal / SAFETY is exactly at the tolerance.
TOL = ATOL + RTOL
H_TOL = 0.07
PROPOSAL = SAFETY * H_TOL


def march(record_times, h=PROPOSAL):
    """Drive the toy over [0, 1]; returns the attempted steps, the times of
    the accepted states, the (t, state time) pairs on_record received and
    the stats."""
    attempts, accepted, records = [], [], []

    def attempt(y, h):
        attempts.append(h)
        return y + np.array([0.0, h]), np.array([TOL * (h / H_TOL) ** 5])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ode, "FIRST_STEP", h)
        mp.setattr(ode, "RTOL", RTOL)
        mp.setattr(ode, "ATOL", ATOL)
        _, stats = _drive(attempt, max_abs, np.array([1.0, 0.0]), 1.0,
                          record_times, exponent=0.2, max_growth=5.0,
                          on_accept=lambda y: accepted.append(y[1]),
                          on_record=lambda t, y: records.append((t, y[1])))
    return attempts, accepted, records, stats


def test_every_record_time_is_hit_bitwise():
    grid = [0.013, 0.2, 0.201, 0.37, 1 / 3, 0.5, 0.9, 0.9 + 1e-9, 1.0]
    _, accepted, records, _ = march(grid)
    assert [t for t, _ in records] == sorted(grid)
    # the state handed over is the one whose step ended there
    for t, state_time in records:
        assert state_time == pytest.approx(t, rel=1e-13)
        assert state_time in accepted


def test_steps_between_records_are_equal():
    grid = np.linspace(0.0, 1.0, 6)
    _, accepted, _, stats = march(grid)
    assert stats["n_reject"] == 0
    # the index of the accepted state at each record time, -1 for t = 0
    ends = [-1] + list(np.searchsorted(accepted, grid[1:] - 1e-12))
    steps = np.diff([0.0] + accepted)
    for a, b in zip(ends[:-1], ends[1:]):
        segment = steps[a + 1:b + 1]
        # 0.2 at a proposal of 0.063 is three steps of 0.0667, no sliver
        assert len(segment) == 3
        assert segment.max() <= segment.min() * (1 + 1e-12)


def test_no_attempt_is_longer_than_the_proposal_over_safety():
    # records 0.068 apart, between the proposal 0.063 and 0.063 / SAFETY:
    # each is reached in one step
    grid = np.arange(1, 15) * 0.068
    attempts, _, records, stats = march(grid)
    assert max(attempts) <= PROPOSAL / SAFETY * (1 + 1e-12)
    assert stats["n_reject"] == 0
    assert len(attempts) == len(records) == len(grid) + 1


def test_landing_on_a_record_does_not_reset_the_step():
    # the steps that land on 0.01 and on 0.47 are far shorter than the
    # proposal; the attempt after each is still at least the proposal
    attempts, accepted, _, stats = march([0.01, 0.46, 0.47])
    assert stats["n_reject"] == 0
    for t in (0.01, 0.47):
        i = int(np.argmin(np.abs(np.array(accepted) - t)))
        assert attempts[i] < PROPOSAL
        assert attempts[i + 1] >= PROPOSAL * (1 - 1e-12)
    assert stats["h_final"] >= PROPOSAL * (1 - 1e-12)


def test_records_cost_at_most_one_step_each(small_code, small_model):
    # the criterion-7 protected run at eps = 0.14, dim 143 over t = 1/kappa1;
    # 101 records are 0.357 apart, about one working step
    kappa1 = 0.028
    model = small_model.with_photon_loss(kappa1)
    rho0 = np.outer(small_code.codewords[0], small_code.codewords[0].conj())
    quiet = ObservableSpec(positivity_tol=None)
    t_final = 1.0 / kappa1
    accepted = {}
    for n in (2, 101):
        meta = evolve(model, rho0, t_final, record_times=np.linspace(0.0, t_final, n),
                      observables=quiet).meta
        assert meta["method"] == "etd4"
        accepted[n] = meta["n_accept"]
    assert accepted[101] <= accepted[2] + 101
