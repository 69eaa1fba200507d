"""Numerical verification of the convergence-proof machinery and the
photon-loss error-suppression experiment.

Everything here is either a closed-form/matrix cross-check (the circulant
coefficient matrix and its spectrum, the Lyapunov-derivative rewrite, the
cosh/cos operator inequality) or a seeded, reproducible experiment
(Lyapunov decay statistics, on/off error rates).
"""

import math
from dataclasses import dataclass

import numpy as np

from .codes import (
    _exp_i_r,
    GkpParams,
    build_code,
    build_conjugated_quadratures,
    convergence_rate,
    ETA_QUBIT,
)
from .errors import ResourceLimitError
from .fock import (
    hermitian_part,
    interior_block,
    interior_margin,
    make_quadratures,
    matrix_exponential,
    max_abs,
    rotate,
    twirl,
)
from .lindblad import (
    ObservableSpec,
    adjoint_rhs,
    evolve,
    logical_operators,
    pure_loss_trajectory,
    stabilizer_model,
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one closed-form check: the measured deviation (for the
    operator inequality, the smallest eigenvalue), the tolerance it is held
    to, and whether it passed."""

    name: str
    measured: float
    tol: float
    passed: bool


# ---------------------------------------------------------------------------
# Circulant coefficient matrix of the Lyapunov-derivative rewrite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CirculantT:
    """4x4 Hermitian circulant built from sinh/cosh of 2*eps and eta.

    Entry (k,l) is exp(eta^2 * z_kl) - 1 where z_kl I = [R_l†, R_k] for the
    generator list (R, S, -R, -S).
    """

    epsilon: float
    eta: float
    matrix: np.ndarray


def _scalar_commutator(l, k, s, c):
    """[R_l†, R_k] = z I for R_1..R_4 = (R, S, -R, -S); returns z."""
    sign = (1.0 if l < 2 else -1.0) * (1.0 if k < 2 else -1.0)
    if l % 2 == k % 2:
        base = -s  # [R†,R] = [S†,S] = -sinh(2 eps)
    elif l % 2 == 1:
        base = -1j * c  # [S†,R]
    else:
        base = 1j * c  # [R†,S]
    return sign * base


def build_t_matrix(epsilon, eta=ETA_QUBIT):
    s = math.sinh(2.0 * epsilon)
    c = math.cosh(2.0 * epsilon)
    e2 = eta * eta
    t = np.empty((4, 4), dtype=complex)
    for k in range(4):
        for l in range(4):
            t[k, l] = np.exp(e2 * _scalar_commutator(l, k, s, c)) - 1.0
    return CirculantT(epsilon, eta, t)


def t_matrix_closed_eigenpairs(epsilon, eta=ETA_QUBIT):
    """The four closed-form (eigenvalue, unit eigenvector) pairs of T."""
    s = math.sinh(2.0 * epsilon)
    c = math.cosh(2.0 * epsilon)
    e2 = eta * eta
    lams = [
        2.0 * (math.cosh(e2 * s) - math.cos(e2 * c)),
        2.0 * (math.cosh(e2 * s) + math.cos(e2 * c) - 2.0),
        -2.0 * (math.sinh(e2 * s) - math.sin(e2 * c)),
        -2.0 * (math.sinh(e2 * s) + math.sin(e2 * c)),
    ]
    rows = np.array(
        [
            [1, -1, 1, -1],
            [1, 1, 1, 1],
            [1, -1j, -1, 1j],
            [1, 1j, -1, -1j],
        ],
        dtype=complex,
    ) / 2.0
    # T = sum_k lam_k row_k† row_k, so the column eigenvectors are conj(row_k)
    return [(lams[k], rows[k].conj()) for k in range(4)]


def verify_t_spectrum(t):
    """Check the numeric spectrum of T against the closed forms.

    Eigenvalue lists are compared after sorting; eigenvectors through the
    residual ||T u - lam u||, which is insensitive to phase and to rotations
    inside degenerate clusters. measured is the larger of the two, held to
    1e-10; the check passes only if the closed-form eigenvalues also keep the
    sign pattern lam_4 <= lam_3 <= 0 <= lam_2 <= lam_1.
    """
    tol = 1e-10
    pairs = t_matrix_closed_eigenpairs(t.epsilon, t.eta)
    closed = np.array([lam for lam, _ in pairs])
    numeric = np.linalg.eigvalsh(hermitian_part(t.matrix))
    eig_err = float(np.abs(np.sort(closed) - numeric).max())
    resid = 0.0
    for lam, u in pairs:
        resid = max(resid, float(np.linalg.norm(t.matrix @ u - lam * u)))
    slack = 1e-12  # roundoff allowance for the eps->0 degeneracy
    ordering = bool(
        closed[3] <= closed[2] + slack
        and closed[2] <= slack
        and closed[1] >= -slack
        and closed[1] <= closed[0] + slack
    )
    passed = eig_err <= tol and resid <= tol and ordering
    return CheckResult("t_spectrum_closed_forms", max(eig_err, resid), tol, passed)


# ---------------------------------------------------------------------------
# Operator identities on the interior block
# ---------------------------------------------------------------------------


def _interior_max(a, margin):
    return max_abs(interior_block(a, margin))


def _at_most(name, measured, tol):
    return CheckResult(name, measured, tol, measured <= tol)


def verify_lyapunov_derivative_identity(code):
    """Check sum_k D*_k(W) = sum_{k,l} W_k† T_kl W_l on the interior block,
    to 1e-5, for the bundle's W under stabilizer_model(code).

    W_k = exp(-i eta R_k†) V_k chains two displacement-type exponentials, so
    the margin uses order=2 corner clearance. exp(-i eta R_k†) is
    (exp(i eta R_k))† = (V_k + I)†, so W_k = (V_k + I)† V_k.
    """
    params = code.params
    w = code.lyapunov
    lhs = adjoint_rhs(stabilizer_model(code), w)

    t = build_t_matrix(params.epsilon, params.eta).matrix
    eye = np.eye(code.dim)
    wk = [(v + eye).conj().T @ v for v in code.dissipators]
    rhs = np.zeros_like(w)
    for k in range(4):
        for l in range(4):
            rhs += t[k, l] * (wk[k].conj().T @ wk[l])

    dev = _interior_max(lhs - rhs, interior_margin(code.dim, params.eta, order=2))
    return _at_most("lyapunov_derivative_identity", dev, 1e-5)


def _hermitian_function(h, f):
    ew, ev = np.linalg.eigh(h)
    return (ev * f(ew)) @ ev.conj().T


def _cosh_p_cos_q(epsilon, eta, dim):
    """cosh(3 eta sinh(eps) P) and cos(eta cosh(eps) Q) on the truncated space."""
    q, p = make_quadratures(dim)
    cosh_p = _hermitian_function(p, lambda x: np.cosh(3.0 * eta * math.sinh(epsilon) * x))
    cos_q = _hermitian_function(q, lambda x: np.cos(eta * math.cosh(epsilon) * x))
    return cosh_p, cos_q


def verify_lambda_identity(code):
    """Check the closed form of Lambda±† Lambda± against direct construction
    from the bundle's dissipators, to 1e-5 for both signs.

    Lambda± = e^{-i eta R†} e^{i eta R/2} ± e^{i eta R†} e^{-i eta R/2} and
    the closed form is 2 e^{-eta^2 s/8} (cosh(3 eta sinh(eps) P)
    ± e^{-3 eta^2 s/4} cos(eta cosh(eps) Q)) with s = sinh(2 eps).
    """
    epsilon, eta, dim = code.params.epsilon, code.params.eta, code.dim
    margin = interior_margin(dim, eta, order=2)
    cosh_p, cos_q = _cosh_p_cos_q(epsilon, eta, dim)
    s = math.sinh(2.0 * epsilon)
    e2 = eta * eta

    # V_0 + I = e^{i eta R} and V_2 + I = e^{-i eta R}; F^2 R F^-2 = -R exactly
    v = code.dissipators
    e_minus = (v[0] + np.eye(dim)).conj().T
    e_plus = (v[2] + np.eye(dim)).conj().T
    half_plus = _exp_i_r(code.params, 0.5 * eta)
    half_minus = rotate(half_plus, 2)
    pref = 2.0 * math.exp(-e2 * s / 8.0)
    damp = math.exp(-0.75 * e2 * s)

    dev = 0.0
    for sign in (1.0, -1.0):
        lam = e_minus @ half_plus + sign * (e_plus @ half_minus)
        closed = pref * (cosh_p + sign * damp * cos_q)
        dev = max(dev, _interior_max(lam.conj().T @ lam - closed, margin))
    return _at_most("lambda_closed_form", dev, 1e-5)


def operator_inequality_min_eigs(epsilon, eta=ETA_QUBIT, dim=None):
    """Smallest interior-block eigenvalue of
    e^{-3 eta^2 |s|/4} cosh(3 eta sinh(eps) P) -+ cos(eta cosh(eps) Q)
    over both signs.

    Both operators must be >= 0 up to truncation noise, so the check passes
    when measured >= tol = -1e-6.
    """
    dim = GkpParams(epsilon, eta, dim).dim
    margin = interior_margin(dim, eta, order=2)
    cosh_p, cos_q = _cosh_p_cos_q(epsilon, eta, dim)
    e2 = eta * eta
    damped = math.exp(-0.75 * e2 * abs(math.sinh(2.0 * epsilon))) * cosh_p
    worst = math.inf
    for sign in (1.0, -1.0):
        block = hermitian_part(interior_block(damped - sign * cos_q, margin))
        worst = min(worst, float(np.linalg.eigvalsh(block)[0]))
    return CheckResult("operator_inequality_psd", worst, -1e-6, worst >= -1e-6)


def commutation_check(code):
    """Max interior entry of [V_k, V_l] over all pairs, to 1e-6."""
    margin = interior_margin(code.dim, code.params.eta, order=1)
    worst = 0.0
    vs = code.dissipators
    for k in range(4):
        for l in range(k + 1, 4):
            comm = vs[k] @ vs[l] - vs[l] @ vs[k]
            worst = max(worst, _interior_max(comm, margin))
    return _at_most("dissipator_commutation", worst, 1e-6)


def glauber_check(code):
    """Max interior entry of e^{i eta R} e^{i eta S} - e^{-eta^2 [R,S]/2} e^{i eta (R+S)},
    to 1e-6.

    [R,S] = i I, so the prefactor is the scalar e^{-i eta^2 / 2}. The two
    factors on the left are V + I for the first two dissipators.
    """
    params = code.params
    eta = params.eta
    eye = np.eye(params.dim)
    r, s = build_conjugated_quadratures(params)
    lhs = (code.dissipators[0] + eye) @ (code.dissipators[1] + eye)
    rhs = np.exp(-0.5j * eta * eta) * matrix_exponential(1j * eta * (r + s))
    dev = _interior_max(lhs - rhs, interior_margin(params.dim, eta, order=2))
    return _at_most("exponential_product_rule", dev, 1e-6)


def envelope_conjugation_check(epsilon, dim):
    """Max interior entry of E Q E^{-1} - R for E = exp(-(eps/2)(Q^2+P^2)) and
    the library's R (codes.build_conjugated_quadratures), to 1e-6.

    Q^2+P^2 is exactly diagonal on the truncated space, so E and E^{-1} are
    the exponentials of its diagonal and E Q E^{-1} scales the rows and
    columns of Q; the corner entry of Q^2+P^2 is the only artifact, and a
    margin of 2 clears it.
    """
    q, p = make_quadratures(dim)
    half_log = 0.5 * epsilon * np.diag(q @ q + p @ p).real
    conjugated = np.exp(-half_log)[:, None] * q * np.exp(half_log)
    r, _ = build_conjugated_quadratures(GkpParams(epsilon, dim=dim))
    return _at_most("envelope_conjugation", _interior_max(conjugated - r, 2), 1e-6)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def random_density_matrix(dim, rng, support_dim=None):
    """Full-rank random state on the leading block (photon number ~ support/2).

    The default support dim//2 keeps the mean photon number near dim/4,
    safely inside the truncation.
    """
    k = dim // 2 if support_dim is None else int(support_dim)
    g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    rho = np.zeros((dim, dim), dtype=complex)
    rho[:k, :k] = g @ g.conj().T
    rho /= np.real(np.trace(rho))
    return rho


@dataclass(frozen=True)
class DecayTrial:
    """One decay trial. n_accept, n_reject, n_jumps and blocks are copied
    from the trajectory's meta (steps taken, jump applications, blocks the
    exponential backend carried); they stay 0 for a degenerate trial, and
    n_jumps and blocks for a run on the explicit backend."""

    seed: int
    initial_lyapunov: float
    fitted_rate: float
    n_fit_points: int
    degenerate: bool
    n_accept: int = 0
    n_reject: int = 0
    n_jumps: int = 0
    blocks: int = 0


@dataclass(frozen=True)
class DecayReport:
    epsilon: float
    eta: float
    dim: int
    rate_bound: float
    certified: bool
    trials: tuple
    min_rate: float
    median_rate: float
    passed: bool


def fit_decay_rate(times, values, window=(0.1, 1.0)):
    """Log-linear least-squares slope of `values` over the window (fractions
    of the final time). Points below 1e-11 * values[0] are dropped
    (double-precision floor of the weighted trace). Returns (rate, n_points);
    rate is positive for decay.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    t_final = times[-1]
    lo, hi = window[0] * t_final, window[1] * t_final
    keep = (times >= lo - 1e-12) & (times <= hi + 1e-12)
    keep &= values > max(values[0] * 1e-11, 0.0)
    if keep.sum() < 5:
        return float("nan"), int(keep.sum())
    t = times[keep]
    logv = np.log(values[keep])
    design = np.vstack([t, np.ones_like(t)]).T
    slope, _ = np.linalg.lstsq(design, logv, rcond=None)[0]
    return float(-slope), int(keep.sum())


DECAY_HORIZON = 5.0  # decay-experiment horizon, in units of 1/kappa
DECAY_RECORDS = 61   # record times over that horizon
MAX_DIM = 700        # largest truncation error_rate_experiment accepts


def _code_for(params, code):
    """The bundle an experiment runs: code, which must have been built from
    params (ValueError naming both otherwise), or a new one when it is None."""
    if code is None:
        return build_code(params)
    if code.params != params:
        raise ValueError(f"code bundle {code.params} does not match the run's {params}")
    return code


def lyapunov_decay_experiment(epsilon, eta=ETA_QUBIT, dim=None, n_trials=10, seed=0,
                              code=None):
    """Random-state decay statistics for Tr(W rho(t)) against the rate bound.

    Trial i draws one random density matrix, seeded seed + i (skipped as
    degenerate when its Lyapunov value is below 1e-8, e.g. codespace
    states), evolves it to DECAY_HORIZON / kappa on DECAY_RECORDS record
    times, and fits the log-slope over the [0.1, 1] fraction of the
    horizon. PASS means every fitted rate >= 0.95 * kappa; faster decay is
    expected (the bound is not tight) and recorded.

    The run starts from the rotation twirl fock.twirl(rho0), which keeps the
    entries with m ≡ n (mod 4), not from rho0. This is exact for Tr(W rho(t)):
    W and the four dissipators commute with the π/2 rotation F, so the flow
    commutes with F-conjugation, rho(t) twirled is the flow of rho0 twirled,
    and Tr(W twirl(rho)) = Tr(W rho). The twirl is a density matrix, and the
    exponential backend carries its 4 diagonal blocks instead of the 16 of a
    generic state. Raises ValueError for n_trials < 1, which would leave
    no rate to test, and for a code bundle built from other parameters.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    params = GkpParams(epsilon, eta, dim)
    rate = convergence_rate(epsilon, eta)
    if rate.value <= 0:
        raise ValueError("rate bound not positive; pick a certified parameter set")
    code = _code_for(params, code)
    model = stabilizer_model(code)
    horizon = DECAY_HORIZON / rate.value
    record = np.linspace(0.0, horizon, DECAY_RECORDS)
    spec = ObservableSpec(lyapunov=code.lyapunov, positivity_tol=None)

    trials = []
    for i in range(n_trials):
        trial_seed = seed + i
        rho0 = random_density_matrix(params.dim, np.random.default_rng(trial_seed))
        w0 = float(np.real(np.vdot(code.lyapunov, rho0)))
        if w0 <= 1e-8:
            trials.append(DecayTrial(trial_seed, w0, float("nan"), 0, True))
            continue
        traj = evolve(model, twirl(rho0), horizon, record_times=record, observables=spec)
        fitted, n_pts = fit_decay_rate(traj.times, traj.column("lyapunov"))
        meta = traj.meta
        trials.append(DecayTrial(trial_seed, w0, fitted, n_pts, False, meta["n_accept"],
                                 meta["n_reject"], meta.get("n_jumps", 0),
                                 meta.get("blocks", 0)))

    rates = [t.fitted_rate for t in trials if not t.degenerate and np.isfinite(t.fitted_rate)]
    min_rate = float(min(rates)) if rates else float("nan")
    median_rate = float(np.median(rates)) if rates else float("nan")
    passed = bool(rates) and min_rate >= 0.95 * rate.value
    return DecayReport(epsilon, eta, params.dim, rate.value, rate.certified, tuple(trials),
                       min_rate, median_rate, passed)


@dataclass(frozen=True)
class ErrorRateReport:
    """Single-point on/off error rates and the suppression they imply.

    on/off follow kappa1 * (1 - Tr(J_z rho(1/kappa1))); fitted_* are
    log-linear rates of the Tr(J_z rho(t)) records over the full grid.
    traj_on/traj_off hold the full Trajectory objects for CSV export;
    traj_off is closed-form (meta["method"] "closed_form"), None at kappa1 = 0.

    off_rate is a one-point estimator on a non-exponential decay and is not
    expected to equal kappa1. The "off" run is the pure-loss channel with
    transmissivity exp(-kappa1 t): it shrinks the grid by exp(-kappa1 t/2),
    and a peak keeps its logical value until it drifts past the decision
    boundary of the stabilized flow. At eps = 0.1, dim 200 this leaves
    Tr(J_z) = 0.249 at t = 1/kappa1, so off_rate = 0.75 kappa1.
    """

    epsilon: float
    dim: int
    kappa1: float
    on_rate: float
    off_rate: float
    suppression_ratio: float
    fitted_on_rate: float
    fitted_off_rate: float
    times: np.ndarray
    jz_on: np.ndarray
    jz_off: np.ndarray
    logical_residual: float
    traj_on: object = None
    traj_off: object = None

    def scalar_payload(self):
        """Every field whose value is a scalar, by name: the qec-sim payload."""
        return {name: v for name, v in vars(self).items() if np.isscalar(v)}


def error_rate_experiment(epsilon, dim=None, kappa1=None, n_records=51, seed=0, code=None):
    """The on/off photon-loss experiment.

    Both runs start from the |0> codeword projector and go to
    t_f = 1/kappa1: "on" integrates the four stabilizing dissipators plus
    the loss channel (a, kappa1); "off" is the loss channel alone, in closed
    form (pure_loss_trajectory on the codeword as a rank-1 factor). The
    logical observables are computed once from the noiseless model and both
    trajectories are scored against them. kappa1=0 runs the stabilized model
    alone over five decay times (steady-state control).

    The rates are one-point estimators, kappa1 * (1 - Tr(J_z rho(1/kappa1))).
    Neither run decays exponentially, so off_rate is the error that loss at
    rate kappa1 produces by t = 1/kappa1, not kappa1 itself; see
    ErrorRateReport.

    The experiment is deterministic: both runs start from the codeword
    projector, so seed is accepted for call compatibility and ignored.
    Raises ValueError for n_records < 2, since the rates need a record at
    t_f besides the one at t = 0, for a kappa1 that is not finite and
    non-negative, and for a code bundle built from other parameters.
    """
    if n_records < 2:
        raise ValueError(f"n_records must be at least 2, got {n_records}")
    params = GkpParams(epsilon, ETA_QUBIT, dim)
    if params.dim > MAX_DIM:
        raise ResourceLimitError(
            f"dim {params.dim} exceeds the maximum {MAX_DIM}; reduce the epsilon scope"
        )
    kappa1 = epsilon / 5.0 if kappa1 is None else float(kappa1)
    if not (np.isfinite(kappa1) and kappa1 >= 0):
        raise ValueError(f"kappa1 must be finite and non-negative, got {kappa1}")
    code = _code_for(params, code)
    base = stabilizer_model(code)
    logicals = logical_operators(base, code)

    zero = code.codewords[0]
    rho0 = np.outer(zero, zero.conj())
    if kappa1 > 0:
        t_final = 1.0 / kappa1
        on_model = base.with_photon_loss(kappa1)
    else:
        t_final = 5.0 / convergence_rate(epsilon).value
        on_model = base
    record = np.linspace(0.0, t_final, n_records)
    spec = ObservableSpec(lyapunov=code.lyapunov, logicals=logicals)

    traj_on = evolve(on_model, rho0, t_final, record_times=record, observables=spec)
    jz_on = traj_on.column("jz")
    traj_off = None
    if kappa1 > 0:
        traj_off = pure_loss_trajectory(zero[:, None], kappa1, record, observables=spec)
        jz_off = traj_off.column("jz")
    else:
        jz_off = np.ones_like(jz_on)

    on_rate = kappa1 * (1.0 - float(jz_on[-1]))
    off_rate = kappa1 * (1.0 - float(jz_off[-1]))
    ratio = off_rate / on_rate if on_rate > 0 else float("nan")
    fit_on, _ = fit_decay_rate(record, np.clip(jz_on, 1e-300, None), window=(0.0, 1.0))
    fit_off, _ = fit_decay_rate(record, np.clip(jz_off, 1e-300, None), window=(0.0, 1.0))
    return ErrorRateReport(
        epsilon, params.dim, kappa1, on_rate, off_rate, ratio, fit_on, fit_off,
        record, jz_on, jz_off, logicals.convergence_residual, traj_on, traj_off,
    )


# ---------------------------------------------------------------------------
# Bundled verification suite (drives the check subcommand)
# ---------------------------------------------------------------------------


def run_identity_suite(code):
    """All seven closed-form checks; four read the bundle's dissipators and W."""
    epsilon, eta, dim = code.params.epsilon, code.params.eta, code.dim
    return [
        verify_t_spectrum(build_t_matrix(epsilon, eta)),
        verify_lyapunov_derivative_identity(code),
        verify_lambda_identity(code),
        operator_inequality_min_eigs(epsilon, eta, dim),
        commutation_check(code),
        glauber_check(code),
        envelope_conjugation_check(epsilon, dim),
    ]
