"""Acceptance criteria, one test per numbered criterion, each printing a
PASS/FAIL line with the measured values (run with -s to see them live).

Shared heavy objects (the eps=0.1/dim=200 code, its logical operators) come
from session fixtures in conftest.py. Criteria 4 and 7 integrate production
trajectories and are marked slow (still run by default), as are the
eps=1/20 and eps=1/30 tiers of criterion 7.
"""

import math

import numpy as np
import pytest

from gkpstab import (
    GkpParams,
    LindbladModel,
    ObservableSpec,
    adjoint_rhs,
    build_code,
    evolve,
    interior_margin,
    kappa,
    kappa_asymptote,
    kernel_codewords,
    lindblad_rhs,
    make_ladder,
    pure_loss_trajectory,
    stabilizer_model,
)
from gkpstab.analysis import (
    build_t_matrix,
    error_rate_experiment,
    lyapunov_decay_experiment,
    operator_inequality_min_eigs,
    random_density_matrix,
    verify_lambda_identity,
    verify_lyapunov_derivative_identity,
    verify_t_spectrum,
)
from gkpstab.codes import ETA_QUBIT


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# --- 1: closed-form rate and its small-eps behavior -------------------------


def test_criterion_1_rate_formula_and_asymptotics():
    ratio = kappa(1e-3) / kappa_asymptote(1e-3)
    grid = np.linspace(1e-8, 1.0 / (2.0 * ETA_QUBIT), 100)
    positive = all(kappa(e) > 0 for e in grid)
    ok = 0.95 <= ratio <= 1.05 and positive
    report(1, ok, f"kappa/asymptote(1e-3)={ratio:.6f}, positive on 100-point grid: {positive}")
    assert 0.95 <= ratio <= 1.05
    assert positive


# --- 2: kernel structure of the Lyapunov operator ----------------------------


def test_criterion_2_kernel_structure(code200, sensor_code200):
    ew = np.linalg.eigvalsh(code200.lyapunov)
    qubit_ok = ew[0] <= 1e-8 and ew[1] <= 1e-8 and ew[2] >= 1e-4
    ew_s = np.linalg.eigvalsh(sensor_code200.lyapunov)
    sensor_ok = ew_s[0] <= 1e-8 and ew_s[1] >= 1e-4
    report(2, qubit_ok and sensor_ok,
           f"qubit lowest three: {ew[0]:.2e}, {ew[1]:.2e}, {ew[2]:.2e}; "
           f"sensor lowest two: {ew_s[0]:.2e}, {ew_s[1]:.2e}")
    assert qubit_ok
    assert sensor_ok


# --- 3: codeword consistency --------------------------------------------------


def test_criterion_3_codeword_consistency(code200):
    quad = np.vstack(code200.codewords).T
    eig = np.vstack(kernel_codewords(code200.lyapunov, 2)).T
    p_quad = quad @ np.linalg.inv(quad.conj().T @ quad) @ quad.conj().T
    p_eig = eig @ eig.conj().T
    distance = float(np.linalg.norm(p_quad - p_eig, 2))
    residual = float(code200.codeword_residuals().max())
    ok = distance <= 1e-5 and residual <= 1e-6
    report(3, ok, f"projector distance {distance:.2e}, max ||V psi|| {residual:.2e}")
    assert distance <= 1e-5
    assert residual <= 1e-6


# --- 4: Lyapunov decay at the certified rate ----------------------------------


@pytest.mark.slow
def test_criterion_4_lyapunov_decay(code200):
    result = lyapunov_decay_experiment(0.1, dim=200, n_trials=10, seed=42, code=code200)
    detail = (f"bound {result.rate_bound:.4f}, measured min {result.min_rate:.4f}, "
              f"median {result.median_rate:.4f} over {len(result.trials)} trials")
    report(4, result.passed, detail)
    assert result.passed, detail
    assert result.min_rate >= 0.95 * result.rate_bound


# --- 5: circulant-matrix spectrum and the derivative identity ------------------


def test_criterion_5_circulant_identities():
    spectrum_ok = True
    worst = 0.0
    for eps in (0.01, 0.025, 0.05, 0.1, 1.0 / (2.0 * ETA_QUBIT)):
        r = verify_t_spectrum(build_t_matrix(eps))
        spectrum_ok &= r.passed
        worst = max(worst, r.measured)
    identity = verify_lyapunov_derivative_identity(build_code(GkpParams(0.05, dim=300)))
    ok = spectrum_ok and identity.passed
    report(5, ok, f"spectrum worst dev {worst:.2e} (tol 1e-10); "
                  f"derivative identity dev {identity.measured:.2e} "
                  f"(tol 1e-5, dim 300, margin {interior_margin(300, ETA_QUBIT, order=2)})")
    assert spectrum_ok
    assert identity.passed


# --- 6: operator inequality and the closed form behind it ----------------------


def test_criterion_6_operator_inequality():
    worst_eig = 0.0
    for eps in (0.025, 0.05, 0.1):
        worst_eig = min(worst_eig, operator_inequality_min_eigs(eps, dim=400).measured)
    lam = verify_lambda_identity(build_code(GkpParams(0.05, dim=400)))
    ok = worst_eig >= -1e-6 and lam.passed
    report(6, ok, f"min interior eigenvalue {worst_eig:.2e} (>= -1e-6); "
                  f"closed-form dev {lam.measured:.2e} (tol 1e-5)")
    assert worst_eig >= -1e-6
    assert lam.passed


# --- 7: photon-loss suppression experiment -------------------------------------


@pytest.fixture(scope="module")
def fig_experiment(code200):
    return error_rate_experiment(0.1, dim=200, code=code200)


@pytest.mark.slow
def test_criterion_7_suppression_ratio(fig_experiment):
    r = fig_experiment
    ok = 3.5 <= r.suppression_ratio <= 14.0
    report(7, ok, f"suppression ratio {r.suppression_ratio:.3f} (window [3.5, 14]); "
                  f"on_rate {r.on_rate:.3e}, off_rate {r.off_rate:.3e}")
    assert ok, f"ratio {r.suppression_ratio}"


def pure_loss_channel(rho, transmissivity):
    """Closed-form amplitude-damping channel with transmissivity T.

    <m|Phi_T(rho)|n> = sum_k sqrt(C(m+k,k) C(n+k,k)) T^((m+n)/2) (1-T)^k
    rho_{m+k,n+k}. Loss at rate kappa for a time t is Phi_T with
    T = exp(-kappa t). It only moves weight to lower photon numbers, so the
    formula is exact in a truncated Fock space. Coefficients are built in
    log form so that large binomials do not overflow.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    if transmissivity == 1.0:
        return rho.copy()
    log_fact = np.array([math.lgamma(n + 1.0) for n in range(2 * dim)])
    out = np.zeros_like(rho)
    for k in range(dim):
        m = np.arange(dim - k)
        c = np.exp(0.5 * (log_fact[m + k] - log_fact[m] - log_fact[k]
                          + m * math.log(transmissivity) + k * math.log1p(-transmissivity)))
        out[: dim - k, : dim - k] += np.outer(c, c) * rho[k:, k:]
    return out


def test_pure_loss_channel_preserves_trace_and_composes():
    rng = np.random.default_rng(11)
    rho = random_density_matrix(40, rng, support_dim=40)
    trace_dev = abs(np.trace(pure_loss_channel(rho, 0.3)) - 1.0)
    composed = pure_loss_channel(pure_loss_channel(rho, 0.7), 0.4)
    semigroup_dev = float(np.abs(composed - pure_loss_channel(rho, 0.7 * 0.4)).max())
    assert trace_dev <= 1e-12
    assert semigroup_dev <= 1e-12


def test_pure_loss_channel_generator_is_the_loss_dissipator():
    # Forward difference in t at T = exp(-h): its error is (h/2) L^2 rho to
    # leading order, so it must sit within h * max|L^2 rho| of L rho.
    rng = np.random.default_rng(12)
    dim = 40
    rho = random_density_matrix(dim, rng, support_dim=dim)
    loss = LindbladModel(((make_ladder(dim), 1.0),))
    l_rho = lindblad_rhs(loss, rho)
    l2_rho = lindblad_rhs(loss, l_rho)
    h = 1e-6
    fd = (pure_loss_channel(rho, math.exp(-h)) - rho) / h
    assert float(np.abs(fd - l_rho).max()) <= h * float(np.abs(l2_rho).max())


def test_loss_only_evolve_matches_pure_loss_channel():
    # criterion 7's off check at a small dim, on a full-rank state: the
    # integrated loss-only run against the closed form at every record
    dim, kappa1 = 60, 0.02
    rho0 = random_density_matrix(dim, np.random.default_rng(13), support_dim=dim)
    record = np.linspace(0.0, 1.0 / kappa1, 11)
    traj = evolve(LindbladModel(((make_ladder(dim), kappa1),)), rho0, record[-1],
                  record_times=record,
                  observables=ObservableSpec(snapshot_times=tuple(record), positivity_tol=None))
    assert traj.meta["method"] == "rk45"
    assert len(traj.snapshots) == len(record)
    for t, rho in traj.snapshots.items():
        expected = pure_loss_channel(rho0, math.exp(-kappa1 * t))
        assert np.abs(rho - expected).max() <= 1e-8, f"t={t}"


@pytest.mark.parametrize("dtype", [float, complex])
def test_closed_form_loss_matches_pure_loss_channel(dtype):
    # the unprotected arm's closed form, on a rank-3 factor at dim 60,
    # against the diagonal-shift form above at every record
    dim, kappa1 = 60, 0.02
    rng = np.random.default_rng(14)
    y0 = rng.standard_normal((dim, 3)).astype(dtype)
    if dtype is complex:
        y0 += 1j * rng.standard_normal((dim, 3))
    y0 /= np.linalg.norm(y0)
    rho0 = y0 @ y0.conj().T
    record = np.linspace(0.0, 1.0 / kappa1, 11)
    traj = pure_loss_trajectory(
        y0, kappa1, record,
        ObservableSpec(snapshot_times=tuple(record), positivity_tol=None))
    assert traj.meta == {"method": "closed_form", "rank": 3}
    assert len(traj.snapshots) == len(record)
    for t, rho in traj.snapshots.items():
        expected = pure_loss_channel(rho0, math.exp(-kappa1 * t))
        assert np.abs(rho - expected).max() <= 1e-12, f"t={t}"


@pytest.mark.slow
def test_criterion_7_off_rate_matches_loss_rate(fig_experiment, code200, logicals200):
    # The "off" run is photon loss alone, so its logical error must be exactly
    # the one the pure-loss channel produces at rate kappa1: at every record
    # time, Tr(J_z rho_off(t)) = Tr(J_z Phi_T(rho0)) with T = exp(-kappa1 t),
    # and off_rate = kappa1 * (1 - Tr(J_z Phi_{1/e}(rho0))). The value is not
    # kappa1: loss contracts the grid by exp(-kappa1 t / 2), and a peak keeps
    # its logical value until it drifts past the decision boundary of the
    # stabilized flow, so Tr(J_z) decays non-exponentially (README, known
    # deviations).
    r = fig_experiment
    rho0 = np.outer(code200.codewords[0], code200.codewords[0].conj())

    def jz_after_loss(transmissivity):
        rho = pure_loss_channel(rho0, transmissivity)
        return float(np.real(np.sum(logicals200.jz * rho.T)))

    expected = np.array([jz_after_loss(math.exp(-r.kappa1 * t)) for t in r.times])
    record_dev = float(np.abs(r.jz_off - expected).max())
    expected_rate = r.kappa1 * (1.0 - jz_after_loss(math.exp(-1.0)))
    rate_dev = abs(r.off_rate - expected_rate)
    ok = record_dev <= 1e-8 and rate_dev <= 1e-8 * r.kappa1
    report(7, ok, f"off_rate/kappa1 = {r.off_rate / r.kappa1:.4f} "
                  f"(closed-form pure loss {expected_rate / r.kappa1:.4f}); "
                  f"max record deviation {record_dev:.1e} (tol 1e-8)")
    assert record_dev <= 1e-8, f"J_z record deviates from pure loss by {record_dev:.3e}"
    assert rate_dev <= 1e-8 * r.kappa1, f"off_rate {r.off_rate:.6e} vs {expected_rate:.6e}"


@pytest.mark.slow
def test_criterion_7_long_tier_eps_1_20():
    r = error_rate_experiment(1.0 / 20.0, dim=400)
    ok = 27.0 <= r.suppression_ratio <= 240.0
    report(7, ok, f"eps=1/20 suppression ratio {r.suppression_ratio:.1f} (window [27, 240])")
    assert ok


@pytest.mark.slow
def test_criterion_7_long_tier_eps_1_30():
    r = error_rate_experiment(1.0 / 30.0, dim=600)
    ok = 300.0 <= r.suppression_ratio <= 3000.0
    report(7, ok, f"eps=1/30 suppression ratio {r.suppression_ratio:.1f} (window [300, 3000])")
    assert ok


# --- 8: logical-operator spectra and the Bloch ball -----------------------------


@pytest.mark.slow
def test_criterion_8_logical_operator_properties(code200, logicals200):
    spectra = logicals200.spectra()
    spec_ok = all(
        ew[0] >= -1.0 - 1e-6 and ew[-1] <= 1.0 + 1e-6 for ew in spectra.values()
    )
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        rho = random_density_matrix(200, rng)
        x = float(np.real(np.trace(logicals200.jx @ rho)))
        y = float(np.real(np.trace(logicals200.jy @ rho)))
        z = float(np.real(np.trace(logicals200.jz @ rho)))
        worst = max(worst, x * x + y * y + z * z)
    ball_ok = worst <= 1.0 + 1e-6
    ranges = {k: (float(v[0]), float(v[-1])) for k, v in spectra.items()}
    report(8, spec_ok and ball_ok,
           f"spectra {ranges}; max Bloch norm^2 over 100 states {worst:.3e}")
    assert spec_ok
    assert ball_ok


# --- 9: engine correctness properties -------------------------------------------


def test_criterion_9_engine_properties():
    # duality at dim=40
    rng = np.random.default_rng(7)
    dim = 40
    ops = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
           for _ in range(3)]
    model = LindbladModel(tuple((op, r) for op, r in zip(ops, (1.0, 0.5, 2.0))))
    duality_dev = 0.0
    for _ in range(5):
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = random_density_matrix(dim, rng, support_dim=dim)
        lhs = np.trace(x @ lindblad_rhs(model, rho))
        rhs = np.trace(adjoint_rhs(model, x) @ rho)
        duality_dev = max(duality_dev, abs(lhs - rhs) / max(1.0, abs(lhs)))

    # trace preservation over a stabilized trajectory (explicit pair)
    code = build_code(GkpParams(0.1, dim=40))
    rho0 = random_density_matrix(40, rng)
    traj = evolve(stabilizer_model(code), rho0, 2.0,
                  record_times=np.linspace(0, 2, 9),
                  observables=ObservableSpec(positivity_tol=None))
    assert traj.meta["method"] == "rk45"
    trace_dev = float(np.abs(traj.column("trace") - 1.0).max())

    # single-channel loss on the one-photon state
    loss = LindbladModel(((make_ladder(4), 1.0),))
    fock1 = np.zeros((4, 4), dtype=complex)
    fock1[1, 1] = 1.0
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    expected[1, 1] = -1.0
    loss_dev = float(np.abs(lindblad_rhs(loss, fock1) - expected).max())

    ok = duality_dev <= 1e-10 and trace_dev <= 1e-8 and loss_dev <= 1e-12
    report(9, ok, f"duality {duality_dev:.2e} (1e-10); trace {trace_dev:.2e} (1e-8); "
                  f"loss action {loss_dev:.2e} (1e-12)")
    assert duality_dev <= 1e-10
    assert trace_dev <= 1e-8
    assert loss_dev <= 1e-12


# --- steady-state sanity shared by several criteria ------------------------------


@pytest.mark.slow
def test_codespace_is_steady_under_stabilization(code200, model200):
    rho0 = np.outer(code200.codewords[0], code200.codewords[0].conj())
    traj = evolve(model200, rho0, 2.0, record_times=np.linspace(0, 2, 9),
                  observables=ObservableSpec(lyapunov=code200.lyapunov))
    peak = float(traj.column("lyapunov").max())
    trace_dev = float(np.abs(traj.column("trace") - 1.0).max())
    ok = peak <= 1e-5 and trace_dev <= 1e-8
    report("steady", ok, f"max Tr(W rho(t)) {peak:.2e}; trace dev {trace_dev:.2e}")
    assert peak <= 1e-5
    assert trace_dev <= 1e-8
