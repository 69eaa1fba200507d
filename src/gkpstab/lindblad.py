"""Lindblad master equation: right-hand sides, time integration, the
closed-form photon-loss channel, stationary logical observables, and Bloch
coordinates.

The Hamiltonian is identically zero throughout; dynamics is a sum of
dissipation channels (operator, rate). evolve() has one backend, the
exponential integrator of etd.py driven by the adaptive step loop in ode.py,
which treats the stiff drift exactly. It carries every channel set with the
π/2 rotation symmetry, the paper's four dissipators with or without photon
loss among them, at any dim and any horizon; a set without the symmetry
(one with q or p, say) is refused with etd.py's SymmetryError. lindblad_rhs
evaluates the generator in dense products; with ode.integrate it is the
tests' explicit reference, not a backend. A run keeps no states, only the
rows of observables its recorder takes at each record time.

Photon loss alone needs no integrator: pure_loss_trajectory records the
amplitude-damping channel in closed form, from a factor of the initial
state, through the same recorder as evolve().
"""

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .codes import convergence_rate, logical_basis
from .errors import (
    ConvergenceWarning,
    InvalidInputError,
    PositivityWarning,
    ShapeMismatchError,
)
from .etd import SplitPropagator
from .fock import make_ladder, rotate, spectrum

__all__ = [
    "LindbladModel",
    "ObservableSpec",
    "Trajectory",
    "LogicalOperators",
    "stabilizer_model",
    "lindblad_rhs",
    "adjoint_rhs",
    "evolve",
    "pure_loss_trajectory",
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
            if not 0 <= rate < np.inf:
                raise ValueError(f"channel rates must be finite and non-negative, got {rate}")
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
    rho = np.asarray(rho)
    if rho.shape != (model.dim, model.dim):
        raise ShapeMismatchError(
            f"state shape {rho.shape} does not match model dimension {model.dim}"
        )
    return rho


def lindblad_rhs(model, rho):
    """sum_k r_k A rho A† - (G rho + rho G), in dense products. Traceless by
    construction; a real rho is taken complex."""
    rho = _check_same_dim(model, rho).astype(complex, copy=False)
    g = model.drift
    out = -(g @ rho + rho @ g)
    for op, rate in model.channels:
        if rate != 0.0:
            out += rate * (op @ rho @ op.conj().T)
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


@dataclass(frozen=True)
class ObservableSpec:
    """What evolve() records at each record time, besides the "trace" and
    "nbar" columns that every trajectory records. No state is kept, only
    these rows.

    lyapunov: operator whose expectation is logged as "lyapunov" (usually W).
    logicals: LogicalOperators for Bloch coordinate columns jx/jy/jz.
    positivity_tol: minimum-eigenvalue monitor threshold (warning only);
    None disables the eigenvalue check.
    """

    lyapunov: np.ndarray = None
    logicals: "LogicalOperators" = None
    positivity_tol: float = 1e-6


@dataclass
class Trajectory:
    """Time grid, recorded observables, solver metadata; no states.

    records maps column name -> array aligned with times. Columns always
    include "trace" and "nbar" (the mean photon number); "lyapunov", "jx",
    "jy", "jz" appear per spec.
    meta["method"] is "closed_form" from pure_loss_trajectory, with only
    "rank" (the columns of its factor), or "etd4" from evolve(), with its
    stats: "n_accept", "n_reject", the smallest and largest accepted step
    "h_min" and "h_max", "h_final", "n_jumps" (11 per attempt),
    "trace_defect" and "blocks" ("blocks" counts the n mod 4 blocks of the
    state the run carried: 16 for a generic complex state and 10 for a
    generic real one, 8 for a complex parity-even one and 6 for a real one
    such as a codeword projector, 4 for a rotation-invariant one such as
    fock.twirl of a state).
    """

    times: np.ndarray
    records: dict
    meta: dict = field(default_factory=dict)

    def column(self, name):
        return np.asarray(self.records[name])


def _recorder(observables, record_times, dim):
    """(stops, on_record, finish): the sorted record times; on_record(t, rho),
    which appends a row of observables when t is exactly a record time and
    warns once from the positivity monitor, and keeps no state;
    finish(meta) -> Trajectory. Raises ValueError on a negative or
    non-finite record time."""
    record_set = set(float(t) for t in record_times)
    stops = sorted(record_set)
    bad = [t for t in stops if not 0 <= t < np.inf]
    if bad:
        raise ValueError(f"record times must be finite and non-negative, got {bad[0]}")
    times, recs = [], {"trace": [], "nbar": []}
    n_op_diag = np.arange(dim)
    if observables.lyapunov is not None:
        recs["lyapunov"] = []
    if observables.logicals is not None:
        recs.update({"jx": [], "jy": [], "jz": []})
    warned = [False]

    def on_record(t, rho):
        if t not in record_set:
            return
        times.append(t)
        recs["trace"].append(float(np.real(np.trace(rho))))
        recs["nbar"].append(float(np.real(np.sum(n_op_diag * np.diag(rho)))))
        if "lyapunov" in recs:
            recs["lyapunov"].append(float(np.real(np.vdot(observables.lyapunov, rho))))
        if "jx" in recs:
            for name, value in zip(("jx", "jy", "jz"),
                                   bloch_coordinates(observables.logicals, rho)):
                recs[name].append(value)
        if observables.positivity_tol is not None and not warned[0]:
            min_eig = float(spectrum(rho)[0])
            if min_eig < -observables.positivity_tol:
                warned[0] = True
                warnings.warn(
                    f"state eigenvalue {min_eig:.3e} below -{observables.positivity_tol} "
                    f"at t={t:.6g}",
                    PositivityWarning,
                )

    def finish(meta):
        return Trajectory(
            times=np.asarray(times),
            records={k: np.asarray(v) for k, v in recs.items()},
            meta=meta,
        )

    return stops, on_record, finish


def evolve(model, rho0, t_final, record_times=None, observables=None):
    """Integrate the master equation on the exponential integrator of etd.py
    and record observables.

    t_final must be positive and finite (ValueError otherwise). record_times
    defaults to 201 evenly spaced points, 0 and t_final included. Rows are
    kept at exactly the record times, which must lie in [0, t_final]
    (ValueError otherwise); no state is kept. rho0 must be Hermitian to
    1e-10 (InvalidInputError otherwise); its Hermitian part is integrated.
    Every step is held to the step loop's tolerances ode.RTOL and ode.ATOL.
    The channel set must have the π/2 rotation symmetry, as the paper's
    channels have with or without loss, at any dim and t_final; a set
    without it (one with q or p, for instance) raises the detector's
    SymmetryError (a ValueError). meta["method"] is "etd4". Accepted states
    are exactly Hermitian, and each is rescaled to the initial trace. Emits
    PositivityWarning if the state acquires an eigenvalue below
    -positivity_tol at a record point. Photon loss alone has a closed form;
    see pure_loss_trajectory.
    """
    observables = observables or ObservableSpec()
    rho0 = _check_same_dim(model, rho0).astype(complex, copy=False)
    if not np.isfinite(rho0).all():
        raise InvalidInputError("initial state has non-finite entries")
    herm = np.abs(rho0 - rho0.conj().T).max()
    if herm > 1e-10:
        raise InvalidInputError(f"initial state Hermiticity defect {herm:.3e} beyond 1e-10")
    if not 0 < t_final < np.inf:
        raise ValueError(f"t_final must be positive and finite, got {t_final}")
    if record_times is None:
        record_times = np.linspace(0.0, t_final, 201)
    # ode._drive lands on every stop bitwise
    stops, on_record, finish = _recorder(observables, record_times, model.dim)
    if stops and stops[-1] > t_final:
        raise ValueError(f"record times must not exceed t_final, got {stops[-1]}")
    prop = SplitPropagator(model.operators, model.rates, adjoint=False)
    _, stats = prop.run(rho0, t_final, record_times=stops, on_record=on_record)
    stats["method"] = "etd4"
    return finish(stats)


def pure_loss_trajectory(factor, rate, record_times, observables=None):
    """Photon loss alone, the channel (a, rate), in closed form from
    rho0 = Y0 Y0† for the d x r factor Y0: the trajectory evolve() would
    integrate for that one-channel model.

    Loss for a time t is the amplitude-damping channel with Kraus operators
    E_k = sum_m c_k(m) |m><m+k|, where c_k(m)² = C(m+k, k) T^m (1-T)^k with
    T = exp(-rate t) is a binomial probability, formed in log space. It only
    lowers photon numbers, so it is exact in the truncated space. Column
    y_j of Y0 gives Phi_j[m, k] = c_k(m) y_j[m+k] and rho(t) = sum_j Phi_j
    Phi_j†: one d x d product per column and record, real when Y0 is, in
    O(d²) memory; at t = 0, rho is Y0 Y0†. Rows are kept at every record
    time through evolve()'s recorder, without its positivity monitor: a Gram
    matrix has no negative eigenvalue. No state is kept. meta is
    {"method": "closed_form", "rank": r}. Raises ValueError on a negative or
    non-finite rate or record time.
    """
    y = np.asarray(factor)
    if y.ndim != 2:
        raise ShapeMismatchError(f"factor must be d x r, got shape {y.shape}")
    if not 0 <= rate < np.inf:
        raise ValueError(f"loss rate must be finite and non-negative, got {rate}")
    d, r = y.shape
    spec = replace(observables or ObservableSpec(), positivity_tol=None)
    stops, on_record, finish = _recorder(spec, record_times, d)

    def gram(phi):
        return phi @ phi.conj().T  # conj() of a real array is the array itself

    # log n! for n < 2d - 1; the windows of a zero-padded column are y_j[m + k]
    log_fact = np.cumsum(np.log(np.maximum(np.arange(2 * d - 1), 1.0)))
    m, k = np.arange(d)[:, None], np.arange(d)[None, :]
    half_log_binom = 0.5 * (log_fact[m + k] - log_fact[m] - log_fact[k])
    padded = np.concatenate([y, np.zeros((d - 1, r), dtype=y.dtype)])
    for t in stops:
        if rate * t == 0.0:
            on_record(t, gram(y))
            continue
        c = np.exp(half_log_binom - 0.5 * rate * t * m + 0.5 * np.log(-np.expm1(-rate * t)) * k)
        on_record(t, sum(gram(c * np.lib.stride_tricks.sliding_window_view(padded[:, j], d))
                         for j in range(r)))
    return finish({"method": "closed_form", "rank": r})


@dataclass(frozen=True)
class LogicalOperators:
    """Stationary logical observables and the residual left at stop time.

    convergence_residual is the worst last step defect (see logical_operators).
    """

    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    convergence_residual: float

    def spectra(self):
        return {name: spectrum(getattr(self, name)) for name in ("jx", "jy", "jz")}


# logical_operators stops at this step defect, or at STATIONARY_HORIZON / kappa
STATIONARY_TOL = 1e-10
STATIONARY_HORIZON = 20.0


def logical_operators(model, code):
    """Evolve S_z, S_x, S_y under the adjoint flow until stationary.

    S_x, S_y, S_z are codes.logical_basis of the two codewords, built here
    where they are marched; the one-codeword sensor lattice is a ValueError.

    Fixed exponential steps Phi_h, h = 0.4/kappa(eps, eta), until the step
    defect ||Phi_h(X) - X||_F / (h ||Phi_h(X)||_F) of the last iterate or
    of the march's extrapolated point (SplitPropagator.run_to_stationary)
    is at most STATIONARY_TOL, or to the horizon STATIONARY_HORIZON / kappa,
    both read at call time. Exact stationary points are fixed points of the
    step at any h, so the limit does not depend on h, and error control on
    the (irrelevant) stiff transient would only slow the march down. The
    step damps the truncation corner, so the defect falls to roundoff (1e-11 at
    eps = 0.14, dim 143). J_z is marched first; J_x then starts from
    S_x + F(J_z - S_z)F†, which has the limit of S_x, since the flow
    commutes with the pi/2 rotation F, and only the transient of
    S_x - F S_z F† is left to damp. At STATIONARY_TOL the marches take
    12/10/11 steps (z/x/y) at eps = 0.14, dim 143, 13/10/12 at eps = 0.1,
    dim 200 and 15/8/14 at eps = 0.05, dim 400. A ConvergenceWarning
    reports a defect still above STATIONARY_TOL at the horizon; the
    operators are returned regardless.
    """
    if code.params.lattice != "qubit":
        raise ValueError("logical operators need the two-codeword lattice")
    if code.dim != model.dim:
        raise ShapeMismatchError(f"code dim {code.dim} != model dim {model.dim}")
    rate = convergence_rate(code.params.epsilon, code.params.eta)
    if rate.value <= 0:
        raise ValueError("decay-rate bound is not positive; no horizon available")
    tol = STATIONARY_TOL
    t_max = STATIONARY_HORIZON / rate.value
    h = 0.4 / rate.value

    prop = SplitPropagator(model.operators, model.rates, adjoint=True)
    resids = []

    def stationary(s):
        x, resid, _t, _n = prop.run_to_stationary(s, h=h, residual_tol=tol, t_max=t_max)
        resids.append(resid)
        return x

    sx, sy, sz = logical_basis(code.codewords)
    jz = stationary(sz)
    # the limit P* is linear and commutes with the rotation F, so
    # P*(S_x + F(J_z - S_z)F†) = P*(S_x); the codewords are real and
    # parity-even, so J_z - S_z is too and its rotation is real
    jx = stationary(sx.real + rotate(jz.real - sz.real, 1).real)
    jy = stationary(sy)
    worst = max(resids)
    if worst > tol:
        warnings.warn(
            f"adjoint step defect {worst:.3e} above tol {tol:.1e} at t={t_max:.3g}; "
            "returning the horizon values",
            ConvergenceWarning,
        )
    return LogicalOperators(jx, jy, jz, float(worst))


def bloch_coordinates(logicals, rho):
    """(Tr(Jx rho), Tr(Jy rho), Tr(Jz rho)) as real numbers, from np.vdot(J, rho):
    Tr(J rho) for Hermitian J, its complex conjugate for Hermitian rho.

    Raises InvalidInputError if any imaginary part exceeds 1e-8.
    """
    rho = np.asarray(rho)
    out = []
    for j in (logicals.jx, logicals.jy, logicals.jz):
        if j.shape != rho.shape:
            raise ShapeMismatchError(f"operator shape {j.shape} vs state {rho.shape}")
        val = np.vdot(j, rho)
        if abs(val.imag) > 1e-8:
            raise InvalidInputError(f"Bloch coordinate has imaginary part {val.imag:.3e}")
        out.append(float(val.real))
    return tuple(out)
