"""Lindblad master equation: right-hand sides, time integration, stationary
logical observables, and Bloch coordinates.

The Hamiltonian is identically zero throughout; dynamics is a sum of
dissipation channels (operator, rate). Two integration backends sit behind
evolve(), both driven by the one adaptive step loop in ode.py: the explicit
Dormand-Prince 5(4) pair, and an exponential integrator that treats the stiff
drift exactly (see etd.py). evolve() picks the backend from the model and
the horizon alone: the stabilizer channels make the truncated generator
stiff (spectral radius ~ ||W||, which grows exponentially with eps*dim), so
production-size runs take the exponential backend, while a loss-only or
short run takes the explicit pair.

The explicit pair evaluates lindblad_rhs, which applies a channel elementwise
when its operator has all nonzeros on one diagonal (a, a†, powers of a, the
number operator): the jump is then a weighted diagonal shift of the state,
and when every channel is of this kind the drift G is diagonal too, so a
loss-only right-hand side costs O(d²) instead of four dense products.
"""

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import ode
from .codes import convergence_rate
from .errors import (
    ConvergenceWarning,
    InvalidInputError,
    PositivityWarning,
    ShapeMismatchError,
)
from .etd import SplitPropagator
from .fock import hermitian_part, make_ladder

__all__ = [
    "LindbladModel",
    "SolverOptions",
    "ObservableSpec",
    "Trajectory",
    "LogicalOperators",
    "stabilizer_model",
    "lindblad_rhs",
    "adjoint_rhs",
    "validate_density_matrix",
    "evolve",
    "logical_operators",
    "bloch_coordinates",
]


@dataclass(frozen=True)
class LindbladModel:
    """Channels (operator, rate) defining d/dt rho = sum_k r_k D_{A_k}(rho)."""

    channels: tuple

    def __post_init__(self):
        if not self.channels:
            raise ValueError("a LindbladModel needs at least one channel")
        dims = set()
        for op, rate in self.channels:
            op = np.asarray(op)
            if op.ndim != 2 or op.shape[0] != op.shape[1]:
                raise ShapeMismatchError(f"channel operator must be square, got {op.shape}")
            if rate < 0:
                raise ValueError(f"channel rates must be non-negative, got {rate}")
            dims.add(op.shape[0])
        if len(dims) != 1:
            raise ShapeMismatchError(f"channel operators disagree on dimension: {dims}")

    @property
    def dim(self):
        return self.channels[0][0].shape[0]

    @property
    def operators(self):
        return [np.asarray(op, dtype=complex) for op, _ in self.channels]

    @property
    def rates(self):
        return [float(r) for _, r in self.channels]

    @cached_property
    def drift(self):
        """G = sum_k r_k A_k†A_k / 2, built on first use."""
        return sum(r * (op.conj().T @ op) for op, r in zip(self.operators, self.rates)) / 2.0

    @cached_property
    def bands(self):
        """The one-diagonal channels, for lindblad_rhs; built on first use.

        Returns (per_channel, g_diag). per_channel[i] is (offset, weight)
        when every nonzero of the i-th operator A lies on one diagonal,
        A[i, i + offset] (a: +1, a†: -1, a^m: +m, n: 0), and None otherwise;
        weight is r v v^H with v = np.diagonal(A, offset), real when v is.
        Then A†A is diagonal, so when every channel has one offset G is the
        diagonal g_diag; otherwise g_diag is None.
        """
        per_channel, g_diag = [], np.zeros(self.dim)
        for op, r in zip(self.operators, self.rates):
            rows, cols = np.nonzero(op)
            offsets = np.unique(cols - rows)
            if offsets.size != 1:
                per_channel.append(None)
                g_diag = None
                continue
            k = int(offsets[0])
            v = np.diagonal(op, k)
            if not v.imag.any():
                v = v.real
            per_channel.append((k, r * np.outer(v, v.conj())))
            if g_diag is not None:
                # (A†A)_mm = |A[m - k, m]|²
                g_diag[max(k, 0):self.dim + min(k, 0)] += 0.5 * r * np.abs(v) ** 2
        return per_channel, g_diag

    def with_channel(self, op, rate):
        """New model with one channel appended."""
        return LindbladModel(self.channels + ((np.asarray(op, dtype=complex), float(rate)),))

    def with_photon_loss(self, rate):
        """Append the annihilation channel (a, rate)."""
        return self.with_channel(make_ladder(self.dim), rate)


def stabilizer_model(code):
    """The engineered dynamics: all four dissipators at unit rate."""
    return LindbladModel(tuple((v, 1.0) for v in code.dissipators))


def _check_same_dim(model, rho):
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (model.dim, model.dim):
        raise ShapeMismatchError(
            f"state shape {rho.shape} does not match model dimension {model.dim}"
        )
    return rho


def lindblad_rhs(model, rho):
    """sum_k r_k A rho A† - (G rho + rho G). Traceless by construction.

    A channel whose operator has all its nonzeros on one diagonal offset k
    (model.bands: a, a†, powers of a, n) is applied elementwise, as the
    shift (A rho A†)_ij = v_i conj(v_j) rho_{i+k, j+k} with v the diagonal
    of A; and when every channel is one-diagonal, G is diagonal and the
    drift is -(g_i + g_j) rho_ij. A loss-only model therefore costs O(d²)
    a call. Any other channel, and the drift of a model that has one, use
    dense products.
    """
    rho = _check_same_dim(model, rho)
    bands, g_diag = model.bands
    if g_diag is None:
        g = model.drift
        out = -(g @ rho + rho @ g)
    else:
        out = -(g_diag[:, None] + g_diag[None, :]) * rho
    d = model.dim
    for (op, rate), band in zip(model.channels, bands):
        if rate == 0.0:
            continue
        if band is None:
            out += rate * (op @ rho @ op.conj().T)
            continue
        k, weight = band
        if k >= 0:
            out[:d - k, :d - k] += weight * rho[k:, k:]
        else:
            out[-k:, -k:] += weight * rho[:d + k, :d + k]
    return out


def adjoint_rhs(model, x):
    """sum_k r_k A†XA - (G X + X G). Maps the identity to zero."""
    x = _check_same_dim(model, x)
    g = model.drift
    out = -(g @ x + x @ g)
    for op, rate in model.channels:
        if rate != 0.0:
            out += rate * (op.conj().T @ x @ op)
    return out


def _check_hermitian(rho, tol):
    herm = np.abs(rho - rho.conj().T).max()
    if herm > tol:
        raise InvalidInputError(f"Hermiticity defect {herm:.3e} beyond {tol}")


def validate_density_matrix(rho, trace_tol=1e-8, herm_tol=1e-10, psd_tol=1e-8):
    """Raise InvalidInputError unless rho is a density matrix within tolerances."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidInputError(f"density matrix must be square, got shape {rho.shape}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > trace_tol:
        raise InvalidInputError(f"trace {tr} deviates from 1 beyond {trace_tol}")
    _check_hermitian(rho, herm_tol)
    min_eig = float(np.linalg.eigvalsh(hermitian_part(rho))[0])
    if min_eig < -psd_tol:
        raise InvalidInputError(f"negative eigenvalue {min_eig:.3e} beyond -{psd_tol}")
    return rho


@dataclass(frozen=True)
class SolverOptions:
    """Integration controls. Tolerances apply to the max-norm local error of
    the state; max_steps caps the accepted plus rejected steps of one run."""

    rtol: float = 1e-8
    atol: float = 1e-10
    max_steps: int = 10_000_000


@dataclass(frozen=True)
class ObservableSpec:
    """What evolve() records at each output time.

    lyapunov: operator whose expectation is logged as "lyapunov" (usually W).
    logicals: LogicalOperators for Bloch coordinate columns jx/jy/jz.
    snapshot_times: times at which full density matrices are kept.
    positivity_tol: minimum-eigenvalue monitor threshold (warning only);
    None disables the eigenvalue check.
    """

    lyapunov: np.ndarray = None
    logicals: "LogicalOperators" = None
    snapshot_times: tuple = ()
    photon_number: bool = True
    positivity_tol: float = 1e-6


@dataclass
class Trajectory:
    """Time grid, recorded observables, optional snapshots, solver metadata.

    records maps column name -> array aligned with times. Columns always
    include "trace"; "lyapunov", "nbar", "jx", "jy", "jz" appear per spec.
    meta holds the backend's stats: "method", "n_accept", "n_reject", the
    smallest and largest accepted step "h_min" and "h_max", and "h_final",
    plus "n_rhs" (right-hand side evaluations) from the rk45 backend and
    "n_jumps", "trace_defect" and "blocks" from the etd4 backend
    ("blocks" counts the n mod 4 blocks of the state the run carried: 16
    for a generic state, 8 for a parity-even one such as a codeword
    projector, 4 for a rotation-invariant one such as fock.twirl of a
    state, 1 when the channels lack the π/2 rotation symmetry).
    """

    times: np.ndarray
    records: dict
    snapshots: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def column(self, name):
        return np.asarray(self.records[name])


# evolve integrates with the explicit pair while its stability-limited step
# count stays at or below this, and with the exponential integrator beyond
MAX_EXPLICIT_STEPS = 50_000


def evolve(model, rho0, t_final, record_times=None, options=None, observables=None):
    """Integrate the master equation and record observables.

    record_times defaults to 201 evenly spaced points, 0 and t_final
    included. rho0 must be Hermitian to 1e-10 (InvalidInputError
    otherwise); both backends integrate its Hermitian part. The backend is
    "rk45" when the explicit pair's stability-limited step count, estimated
    from ||G||_1, is at most MAX_EXPLICIT_STEPS, and "etd4" otherwise; the
    choice is stored in meta["method"]. Accepted states are exactly
    Hermitian on both backends: the explicit pair keeps the Hermitian part
    of each step, and the exponential backend carries Hermitian states by
    construction and rescales the trace to its initial value. Emits
    PositivityWarning if the state acquires an eigenvalue below
    -positivity_tol at a record point.
    """
    options = options or SolverOptions()
    observables = observables or ObservableSpec()
    rho0 = _check_same_dim(model, rho0)
    if not np.isfinite(rho0).all():
        raise InvalidInputError("initial state has non-finite entries")
    # validate_density_matrix's default herm_tol
    _check_hermitian(rho0, 1e-10)
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    if record_times is None:
        record_times = np.linspace(0.0, t_final, 201)
    record_times = np.asarray(sorted(set(float(t) for t in record_times)))

    snapshot_times = set(float(t) for t in observables.snapshot_times)
    all_stops = sorted(set(record_times.tolist()) | snapshot_times)

    times, recs, snaps = [], {"trace": []}, {}
    if observables.lyapunov is not None:
        recs["lyapunov"] = []
    if observables.photon_number:
        recs["nbar"] = []
        n_op_diag = np.arange(model.dim)
    if observables.logicals is not None:
        recs.update({"jx": [], "jy": [], "jz": []})
    warned = [False]

    def on_record(t, rho):
        in_grid = bool(np.any(np.isclose(record_times, t)))
        if t in snapshot_times or any(np.isclose(t, s) for s in snapshot_times):
            snaps[t] = rho.copy()
        if not in_grid:
            return
        times.append(t)
        recs["trace"].append(float(np.real(np.trace(rho))))
        if "lyapunov" in recs:
            recs["lyapunov"].append(float(np.real(np.vdot(observables.lyapunov, rho))))
        if "nbar" in recs:
            recs["nbar"].append(float(np.real(np.sum(n_op_diag * np.diag(rho)))))
        if "jx" in recs:
            for name, value in zip(("jx", "jy", "jz"),
                                   bloch_coordinates(observables.logicals, rho)):
                recs[name].append(value)
        if observables.positivity_tol is not None and not warned[0]:
            min_eig = float(np.linalg.eigvalsh(rho)[0])
            if min_eig < -observables.positivity_tol:
                warned[0] = True
                warnings.warn(
                    f"state eigenvalue {min_eig:.3e} below -{observables.positivity_tol} "
                    f"at t={t:.6g}",
                    PositivityWarning,
                )

    # ||G||_1 bounds the spectral radius of the Hermitian drift G; the
    # spectrum of L reaches ~ -2||G|| and the explicit 5(4) pair is stable
    # for steps up to ~3.3/|lambda|
    g_norm = np.linalg.norm(model.drift, 1)
    method = "rk45" if 2.0 * g_norm * t_final / 3.3 <= MAX_EXPLICIT_STEPS else "etd4"
    if method == "rk45":
        stats = ode.integrate(
            lambda y: lindblad_rhs(model, y),
            rho0,
            t_final,
            rtol=options.rtol,
            atol=options.atol,
            record_times=all_stops,
            on_record=on_record,
            max_steps=options.max_steps,
            diagnostics=f"drift norm ||G||_1 = {g_norm:.3e}",
        )
    else:
        prop = SplitPropagator(model.operators, model.rates, adjoint=False)
        _, stats = prop.run(
            rho0,
            t_final,
            rtol=options.rtol,
            atol=options.atol,
            record_times=all_stops,
            on_record=on_record,
            max_steps=options.max_steps,
        )
    stats["method"] = method
    return Trajectory(
        times=np.asarray(times),
        records={k: np.asarray(v) for k, v in recs.items()},
        snapshots=snaps,
        meta=stats,
    )


@dataclass(frozen=True)
class LogicalOperators:
    """Stationary logical observables and the residual left at stop time.

    convergence_residual is the max over x,y,z of ||L*(J)||_F / ||J||_F.
    """

    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    convergence_residual: float

    def spectra(self):
        return {name: np.linalg.eigvalsh(getattr(self, name)) for name in ("jx", "jy", "jz")}


def logical_operators(model, code, horizon_multiplier=20.0, tol=1e-7):
    """Evolve S_x, S_y, S_z under the adjoint flow until stationary.

    Stops when ||adjoint_rhs(X)||_F <= tol * ||X||_F, falling back to the
    horizon horizon_multiplier / kappa(eps, eta). The macro step is fixed at
    ~1/kappa: exact stationary points are fixed points of the exponential
    step at any size, so the limit is step-independent and error control on
    the (irrelevant) stiff transient would only slow the march down. A
    ConvergenceWarning reports a residual still above tol at the horizon;
    the operators are returned regardless. Note the Frobenius residual has a
    roundoff floor: corner entries of X at machine noise are amplified by
    the stiff drift. Measured as the smallest residual over a 20/kappa march
    (worst of x, y, z): 7.4e-5 at eps=0.14, dim 143, where the default tol
    cannot be met and the march warns at the horizon although the operators
    are converged; 4.8e-8 at eps=0.1, dim 200, where the march stops at
    8.6e-8 after 16 steps per operator, only a factor of 2 inside tol;
    1.3e-10 at eps=0.05, dim 400, where it stops after 17 to 21 steps.
    """
    if code.params.lattice != "qubit":
        raise ValueError("logical operators need the two-codeword lattice")
    if code.dim != model.dim:
        raise ShapeMismatchError(f"code dim {code.dim} != model dim {model.dim}")
    rate = convergence_rate(code.params.epsilon, code.params.eta)
    if rate.value <= 0:
        raise ValueError("decay-rate bound is not positive; no horizon available")
    t_max = horizon_multiplier / rate.value
    h = 0.4 / rate.value

    prop = SplitPropagator(model.operators, model.rates, adjoint=True)
    out = {}
    worst = 0.0
    for name, s in (("jx", code.sx), ("jy", code.sy), ("jz", code.sz)):
        x, resid, _t, _n = prop.run_to_stationary(s, h=h, residual_tol=tol, t_max=t_max)
        out[name] = x
        worst = max(worst, resid)
    if worst > tol:
        warnings.warn(
            f"adjoint residual {worst:.3e} above tol {tol:.1e} at t={t_max:.3g}; "
            "returning the horizon values",
            ConvergenceWarning,
        )
    return LogicalOperators(out["jx"], out["jy"], out["jz"], float(worst))


def bloch_coordinates(logicals, rho):
    """(Tr(Jx rho), Tr(Jy rho), Tr(Jz rho)) as real numbers.

    Raises InvalidInputError if any imaginary part exceeds 1e-8.
    """
    rho = np.asarray(rho, dtype=complex)
    out = []
    for j in (logicals.jx, logicals.jy, logicals.jz):
        if j.shape != rho.shape:
            raise ShapeMismatchError(f"operator shape {j.shape} vs state {rho.shape}")
        val = np.sum(j * rho.T)  # Tr(J rho) without forming J rho
        if abs(val.imag) > 1e-8:
            raise InvalidInputError(f"Bloch coordinate has imaginary part {val.imag:.3e}")
        out.append(float(val.real))
    return tuple(out)
