import dataclasses
import inspect
import math

import numpy as np
import pytest

from gkpstab import (
    GkpParams,
    ResourceLimitError,
    analysis,
    build_code,
    build_codewords,
    build_dissipators,
    build_lyapunov,
    cli,
    codes,
    fock,
)
from gkpstab.analysis import (
    CirculantT,
    build_t_matrix,
    commutation_check,
    envelope_conjugation_check,
    error_rate_experiment,
    fit_decay_rate,
    glauber_check,
    lyapunov_decay_experiment,
    operator_inequality_min_eigs,
    random_density_matrix,
    run_identity_suite,
    t_matrix_closed_eigenpairs,
    verify_lambda_identity,
    verify_lyapunov_derivative_identity,
    verify_t_spectrum,
)
from gkpstab.codes import ETA_QUBIT, kappa
from gkpstab.fock import interior_block, interior_margin, rotate
from gkpstab.lindblad import (
    LindbladModel,
    ObservableSpec,
    adjoint_rhs,
    evolve,
    stabilizer_model,
)


# --- circulant coefficient matrix ---------------------------------------------


def test_t_matrix_vanishes_at_zero():
    t = build_t_matrix(0.0, ETA_QUBIT)
    assert np.abs(t.matrix).max() <= 1e-12


def test_t_matrix_hermitian_circulant():
    t = build_t_matrix(0.07).matrix
    assert np.abs(t - t.conj().T).max() <= 1e-14
    # each row is the cyclic right-shift of the previous one
    for k in range(1, 4):
        np.testing.assert_allclose(t[k], np.roll(t[k - 1], 1), atol=1e-14)


def test_t_matrix_explicit_entries():
    eps = 0.06
    s, c = math.sinh(2 * eps), math.cosh(2 * eps)
    e2 = 4.0 * math.pi
    t = build_t_matrix(eps).matrix
    assert t[0, 0] == pytest.approx(math.exp(-e2 * s) - 1.0, rel=1e-13)
    assert t[0, 2] == pytest.approx(math.exp(e2 * s) - 1.0, rel=1e-13)
    assert t[0, 1] == pytest.approx(np.exp(-1j * e2 * c) - 1.0, rel=1e-13)
    assert t[0, 3] == pytest.approx(np.exp(1j * e2 * c) - 1.0, rel=1e-13)


def test_flat_vector_eigenpair():
    eps = 0.05
    t = build_t_matrix(eps).matrix
    s, c = math.sinh(2 * eps), math.cosh(2 * eps)
    lam = 2.0 * (math.cosh(4 * math.pi * s) + math.cos(4 * math.pi * c) - 2.0)
    vec = np.full(4, 0.5)
    np.testing.assert_allclose(t @ vec, lam * vec, atol=1e-10 * max(1, abs(lam)))


def test_closed_eigenvalue_lambda3():
    eps = 0.025
    s, c = math.sinh(2 * eps), math.cosh(2 * eps)
    pairs = t_matrix_closed_eigenpairs(eps)
    expected = -2.0 * (math.sinh(4 * math.pi * s) - math.sin(4 * math.pi * c))
    assert pairs[2][0] == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("eps", [1e-9, 0.01, 0.025, 0.05, 0.1, 1.0 / (2 * ETA_QUBIT)])
def test_t_spectrum_matches_closed_forms(eps):
    report = verify_t_spectrum(build_t_matrix(eps))
    assert report.passed
    assert report.measured <= report.tol == 1e-10


def test_t_spectrum_ordering_on_certified_grid():
    for eps in np.linspace(1e-4, 1.0 / (2.0 * ETA_QUBIT), 40):
        assert verify_t_spectrum(build_t_matrix(eps)).passed


def test_t_spectrum_fails_on_broken_sign_pattern():
    # at eta = sqrt(pi) the closed forms still match T, but lam_2 < 0
    report = verify_t_spectrum(build_t_matrix(0.05, eta=math.sqrt(math.pi)))
    assert report.measured <= report.tol
    assert not report.passed


def test_t_spectrum_mismatch_raises():
    t = build_t_matrix(0.05)
    corrupted = CirculantT(t.epsilon, t.eta, t.matrix + 1e-6 * np.eye(4))
    report = verify_t_spectrum(corrupted)
    assert not report.passed
    assert report.measured > 1e-10


# --- operator identities ---------------------------------------------------------


def test_lyapunov_derivative_identity_unit_scale():
    report = verify_lyapunov_derivative_identity(build_code(GkpParams(0.05, dim=200)))
    assert report.passed, f"deviation {report.measured:.3e}"


def test_adjoint_rhs_matches_bracket_form():
    # sum_k D*_k(W) = sum_{k,l} V_k† [V_l†, V_k] V_l on the interior block
    code = build_code(GkpParams(0.05, dim=200))
    w = code.lyapunov
    lhs = np.zeros_like(w)
    for v in code.dissipators:
        lhs += adjoint_rhs(LindbladModel(((v, 1.0),)), w)
    rhs = np.zeros_like(w)
    for vk in code.dissipators:
        for vl in code.dissipators:
            vld = vl.conj().T
            rhs += vk.conj().T @ (vld @ vk - vk @ vld) @ vl
    margin = interior_margin(200, ETA_QUBIT, order=2)
    assert np.abs(interior_block(lhs - rhs, margin)).max() <= 1e-6


def test_lambda_identity_unit_scale():
    report = verify_lambda_identity(build_code(GkpParams(0.05, dim=300)))
    assert report.passed, f"deviation {report.measured:.3e}"


def test_lambda_identity_eps_zero_reduction():
    # at eps=0 the minus form is 2(I - cos(eta Q)), manifestly PSD
    assert operator_inequality_min_eigs(0.0, dim=200).measured >= -1e-10


def test_operator_inequality_at_working_point():
    assert operator_inequality_min_eigs(0.1, dim=200).passed


def test_commutation_check_small(small_code):
    assert commutation_check(small_code).measured <= 1e-6


def test_glauber_identity():
    code = build_code(GkpParams(0.05, dim=300))
    assert glauber_check(code).measured <= 1e-6


def test_envelope_conjugation():
    assert envelope_conjugation_check(0.05, 200).measured <= 1e-6


def test_identity_suite_all_pass(code200):
    results = run_identity_suite(code200)
    assert all(r.passed for r in results), [
        (r.name, r.measured) for r in results if not r.passed
    ]
    assert len(results) == 7


def test_identity_suite_builds_v0_once(monkeypatch):
    # one matrix exponential for the bundle's V_0, one for the half step of
    # the Lambda identity, both real, and one complex for the product rule;
    # the envelope is exponentiated on its diagonal
    calls = []
    original = fock.matrix_exponential

    def counting(a):
        calls.append(a.dtype)
        return original(a)

    for module in (codes, analysis):
        monkeypatch.setattr(module, "matrix_exponential", counting)
    results = run_identity_suite(build_code(GkpParams(0.2)))
    assert all(r.passed for r in results)
    assert calls == [np.float64, np.float64, np.complex128]


def test_identity_checks_read_the_bundle(code200):
    # a bundle whose V_0 is off by 1e-3 in one entry of the interior block
    # (42 x 42 at dim 200), with its orbit and W rebuilt from it: both
    # identities must see the change
    v0 = code200.dissipators[0].copy()
    v0[10, 12] += 1e-3
    orbit = tuple(rotate(v0, k) for k in range(4))
    broken = dataclasses.replace(code200, dissipators=orbit, lyapunov=build_lyapunov(v0))
    for check in (verify_lyapunov_derivative_identity, verify_lambda_identity):
        assert check(code200).passed
        report = check(broken)
        assert not report.passed, (report.name, report.measured)


# --- experiment machinery ---------------------------------------------------------


def test_random_density_matrix_properties(rng):
    rho = random_density_matrix(60, rng)
    assert np.real(np.trace(rho)) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho)[0] >= -1e-14
    nbar = float(np.real(np.sum(np.arange(60) * np.diag(rho))))
    assert nbar <= 60 / 4 + 5  # support on the lower half keeps photons low
    assert np.abs(rho[40:, :]).max() == 0.0


def test_fit_decay_rate_recovers_synthetic():
    t = np.linspace(0.0, 10.0, 101)
    rate, n = fit_decay_rate(t, 3.0 * np.exp(-0.73 * t))
    assert rate == pytest.approx(0.73, rel=1e-10)
    assert n > 50


def test_fit_decay_rate_floor_guard():
    t = np.linspace(0.0, 10.0, 101)
    vals = 3.0 * np.exp(-0.5 * t)
    vals[60:] = 1e-13  # saturated tail below the 1e-11 floor
    rate, n = fit_decay_rate(t, vals)
    assert n < 70
    assert rate == pytest.approx(0.5, rel=1e-6)


def test_decay_experiment_small(small_code):
    report = lyapunov_decay_experiment(
        0.14, dim=small_code.dim, n_trials=3, seed=11, code=small_code
    )
    assert report.passed
    assert report.min_rate >= 0.95 * report.rate_bound
    assert report.rate_bound == pytest.approx(kappa(0.14), rel=1e-12)
    assert len(report.trials) == 3
    assert all(not t.degenerate for t in report.trials)


def test_decay_experiment_degenerate_skip(small_code, monkeypatch):
    # the first draw is a codespace state, Tr(W rho) ~ 0; the second is the
    # seed-3 random state
    c0 = small_code.codewords[0]
    draws = [np.outer(c0, c0.conj())]
    monkeypatch.setattr(analysis, "random_density_matrix",
                        lambda dim, rng: draws.pop() if draws else random_density_matrix(dim, rng))
    report = lyapunov_decay_experiment(
        0.14, dim=small_code.dim, n_trials=2, seed=2, code=small_code
    )
    assert report.trials[0].degenerate
    assert not report.trials[1].degenerate
    assert report.passed


def test_decay_trial_keeps_its_one_draw(small_code, monkeypatch):
    # a first draw just above the degenerate floor is evolved as drawn, so
    # the trial's seed reproduces its row
    c0 = small_code.codewords[0]
    mixed = (1.0 - 1e-8) * np.outer(c0, c0.conj()) + 1e-8 * random_density_matrix(
        small_code.dim, np.random.default_rng(5))
    w0 = float(np.real(np.vdot(small_code.lyapunov, mixed)))
    assert 1e-8 < w0 <= 1e-4
    draws = []
    monkeypatch.setattr(analysis, "random_density_matrix",
                        lambda dim, rng: draws.append(rng) or mixed)
    report = lyapunov_decay_experiment(
        0.14, dim=small_code.dim, n_trials=1, seed=2, code=small_code
    )
    assert len(draws) == 1
    assert report.trials[0].initial_lyapunov == w0
    assert not report.trials[0].degenerate


@pytest.mark.parametrize("epsilon, dim", [(0.12, 143), (0.14, 200)], ids=["epsilon", "dim"])
@pytest.mark.parametrize("experiment", [
    lambda eps, dim, code: lyapunov_decay_experiment(eps, dim=dim, n_trials=1, code=code),
    lambda eps, dim, code: error_rate_experiment(eps, dim=dim, code=code),
], ids=["decay", "error-rate"])
def test_experiments_reject_a_foreign_code_bundle(small_code, monkeypatch, epsilon, dim,
                                                   experiment):
    def no_run(*args, **kwargs):
        raise AssertionError("evolved a mismatched bundle")

    for name in ("evolve", "logical_operators"):
        monkeypatch.setattr(analysis, name, no_run)
    with pytest.raises(ValueError, match="does not match") as exc:
        experiment(epsilon, dim, small_code)
    assert str(small_code.params) in str(exc.value)
    assert str(GkpParams(epsilon, dim=dim)) in str(exc.value)


@pytest.mark.slow
def test_error_rate_experiment_no_loss(small_code):
    # kappa1=0: the stabilized run keeps Tr(J_z rho) = 1
    report = error_rate_experiment(0.14, dim=small_code.dim, kappa1=0.0,
                                   n_records=9, code=small_code)
    assert report.on_rate == 0.0
    assert np.abs(report.traj_on.column("jz") - 1.0).max() <= 1e-5


def test_experiments_accept_the_benchmark_calls():
    # perfbench/workloads.py makes these calls and rebinds these attributes
    inspect.signature(lyapunov_decay_experiment).bind(0.1, dim=200, n_trials=1, seed=0,
                                                      code=None)
    inspect.signature(error_rate_experiment).bind(0.1, dim=200, seed=0, code=None)
    for module, name in ((analysis, "evolve"), (analysis, "logical_operators"),
                         (cli, "build_code"), (cli, "stabilizer_model")):
        assert callable(getattr(module, name))


@pytest.fixture(scope="module")
def captured_decay_trial(small_code):
    """One seeded decay trial with analysis.evolve wrapped the way
    perfbench/workloads.py::capture wraps it: (report, trajectories)."""
    trajs = []
    original = analysis.evolve

    def hooked(*args, **kwargs):
        out = original(*args, **kwargs)
        trajs.append(out)
        return out

    analysis.evolve = hooked
    try:
        report = lyapunov_decay_experiment(0.14, dim=small_code.dim, n_trials=1, seed=11,
                                           code=small_code)
    finally:
        analysis.evolve = original
    return report, trajs


def test_decay_trial_is_one_forward_trajectory(captured_decay_trial):
    # the decay benchmark scores exactly one forward run per trial
    report, trajs = captured_decay_trial
    assert not report.trials[0].degenerate
    assert len(trajs) == 1
    traj = trajs[0]
    assert {"lyapunov", "trace"} <= set(traj.records)
    assert traj.times[0] == 0.0
    assert len(traj.column("lyapunov")) == len(traj.column("trace")) == len(traj.times)


def test_twirled_decay_trial_matches_the_full_state(small_code, captured_decay_trial):
    # oracle: the same trial evolved from the untwirled state on all 16 blocks
    report, (twirled,) = captured_decay_trial
    trial = report.trials[0]
    assert trial.initial_lyapunov > 1e-4  # the first draw was kept
    rho0 = random_density_matrix(small_code.dim, np.random.default_rng(trial.seed))
    horizon = analysis.DECAY_HORIZON / report.rate_bound
    full = evolve(stabilizer_model(small_code), rho0, horizon,
                  record_times=np.linspace(0.0, horizon, analysis.DECAY_RECORDS),
                  observables=ObservableSpec(lyapunov=small_code.lyapunov, positivity_tol=None))
    assert full.meta["blocks"] == 16
    assert twirled.meta["blocks"] == trial.blocks == 4
    assert (trial.n_accept, trial.n_reject, trial.n_jumps) == (
        twirled.meta["n_accept"], twirled.meta["n_reject"], twirled.meta["n_jumps"])
    np.testing.assert_array_equal(twirled.times, full.times)
    w_full, w_twirled = full.column("lyapunov"), twirled.column("lyapunov")
    above = w_full > 1e-11 * w_full[0]
    assert above.sum() >= 5
    assert np.all(np.abs(w_twirled - w_full)[above] <= 1e-12 * w_full[above])
    rate, _ = fit_decay_rate(full.times, w_full)
    assert trial.fitted_rate == pytest.approx(rate, rel=1e-12)


def test_error_rate_experiment_resource_guard():
    with pytest.raises(ResourceLimitError):
        error_rate_experiment(0.01)  # dim 2000 over the default ceiling


def test_experiments_reject_an_empty_grid():
    # one record is t = 0 alone, and no trial leaves no rate to test
    for n in (0, 1):
        with pytest.raises(ValueError, match="n_records"):
            error_rate_experiment(0.14, n_records=n)
    with pytest.raises(ValueError, match="n_trials"):
        lyapunov_decay_experiment(0.14, n_trials=0)


def truncation_convergence_check(epsilon, eta=ETA_QUBIT, dim=None, factor=1.5):
    """Compare codewords and kernel eigenvalues at dim and factor*dim.

    Returns max |coefficient difference| over the shared range and the shift
    of the lowest non-kernel eigenvalue of W; both should be tiny when the
    20/eps rule is adequate.
    """
    params = GkpParams(epsilon, eta, dim)
    big = GkpParams(epsilon, eta, int(math.ceil(factor * params.dim)))
    small_words = build_codewords(params)
    big_words = build_codewords(big)
    coeff_dev = max(
        float(np.abs(bw[: params.dim] - sw).max()) for sw, bw in zip(small_words, big_words)
    )
    gap_small = np.linalg.eigvalsh(build_lyapunov(build_dissipators(params)[0]))
    gap_big = np.linalg.eigvalsh(build_lyapunov(build_dissipators(big)[0]))
    n_kernel = len(small_words)  # one kernel vector per codeword
    gap_shift = abs(float(gap_small[n_kernel]) - float(gap_big[n_kernel]))
    return {"coefficient_deviation": coeff_dev, "gap_shift": gap_shift,
            "dim": params.dim, "dim_big": big.dim}


def test_truncation_convergence_rule():
    out = truncation_convergence_check(0.25)
    assert out["dim"] == 80 and out["dim_big"] == 120
    assert out["coefficient_deviation"] <= 1e-8
    assert out["gap_shift"] <= 1e-3
