import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkpstab import (
    ConvergenceWarning,
    GkpParams,
    InvalidInputError,
    LindbladModel,
    LogicalOperators,
    ObservableSpec,
    PositivityWarning,
    ShapeMismatchError,
    StepSizeUnderflowError,
    adjoint_rhs,
    bloch_coordinates,
    build_code,
    evolve,
    kappa,
    kernel_codewords,
    lindblad_rhs,
    logical_operators,
    make_ladder,
    make_quadratures,
    pure_loss_trajectory,
    stabilizer_model,
)
from gkpstab import lindblad, ode
from gkpstab.analysis import random_density_matrix
from gkpstab.etd import SplitPropagator
from gkpstab.fock import spectrum
from gkpstab.lindblad import STATIONARY_TOL


def loss_model(dim, rate=1.0):
    return LindbladModel(((make_ladder(dim), rate),))


# --- right-hand sides --------------------------------------------------------


def test_single_photon_loss_on_fock_one():
    model = loss_model(4)
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1.0
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    expected[1, 1] = -1.0
    assert np.abs(lindblad_rhs(model, rho) - expected).max() <= 1e-12


def test_rhs_traceless_random_hermitian(rng):
    dim = 50
    model = loss_model(dim, 0.7).with_channel(make_ladder(dim).conj().T, 0.3)
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = h + h.conj().T
    assert abs(np.trace(lindblad_rhs(model, h))) <= 1e-12 * np.abs(h).max() * dim


def _shift_rhs(model, rho):
    """lindblad_rhs written out apart from it: a channel whose operator A
    has all its nonzeros on the diagonal offset k is applied as the shift
    (A rho A†)_ij = v_i conj(v_j) rho_{i+k, j+k}, v = np.diagonal(A, k);
    any other channel, and the drift, in dense products."""
    dim = rho.shape[0]
    g = sum(r * (op.conj().T @ op) for op, r in model.channels) / 2.0
    out = -(g @ rho + rho @ g)
    for op, r in model.channels:
        rows, cols = np.nonzero(op)
        offsets = np.unique(cols - rows)
        if offsets.size != 1:
            out += r * (op @ rho @ op.conj().T)
            continue
        k = int(offsets[0])
        v = np.diagonal(op, k)
        weight = r * np.outer(v, v.conj())
        if k >= 0:
            out[:dim - k, :dim - k] += weight * rho[k:, k:]
        else:
            out[-k:, -k:] += weight * rho[:dim + k, :dim + k]
    return out


def _one_diagonal(dim, k, rng):
    v = rng.standard_normal(dim - abs(k)) + 1j * rng.standard_normal(dim - abs(k))
    return np.diag(v, k)


@pytest.mark.parametrize("case", ["a", "a_dag", "a2", "n", "random+3", "random-2",
                                  "a_and_a_dag", "a_and_dense", "a_and_real_dense"])
def test_one_diagonal_channels_match_dense_rhs(case):
    dim = 30
    rng = np.random.default_rng(77)
    a = make_ladder(dim)
    dense = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    channels = {
        "a": [a],
        "a_dag": [a.conj().T],
        "a2": [a @ a],
        "n": [np.diag(np.arange(dim)).astype(complex)],
        "random+3": [_one_diagonal(dim, 3, rng)],
        "random-2": [_one_diagonal(dim, -2, rng)],
        "a_and_a_dag": [a, a.conj().T],
        "a_and_dense": [a, dense],
        "a_and_real_dense": [a, dense.real],
    }[case]
    model = LindbladModel(tuple((op, 0.3 + 0.4 * i) for i, op in enumerate(channels)))
    rho = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    ref = _shift_rhs(model, rho)
    assert np.abs(lindblad_rhs(model, rho) - ref).max() <= 1e-14 * np.abs(ref).max()
    # a real state is taken complex and gets the complex result
    real = lindblad_rhs(model, rho.real)
    assert np.iscomplexobj(real)
    assert np.array_equal(real, lindblad_rhs(model, rho.real.astype(complex)))


def test_adjoint_unital():
    model = loss_model(30, 2.0)
    out = adjoint_rhs(model, np.eye(30, dtype=complex))
    assert np.abs(out).max() <= 1e-12


@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 40))
@settings(max_examples=15, deadline=None)
def test_generator_duality(seed, dim):
    rng = np.random.default_rng(seed)
    ops = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
           for _ in range(2)]
    model = LindbladModel(((ops[0], 0.8), (ops[1], 1.3)))
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = random_density_matrix(dim, rng, support_dim=dim)
    lhs = np.trace(x @ lindblad_rhs(model, rho))
    rhs = np.trace(adjoint_rhs(model, x) @ rho)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_rhs_shape_guard():
    with pytest.raises(ShapeMismatchError):
        lindblad_rhs(loss_model(4), np.eye(5))
    with pytest.raises(ShapeMismatchError):
        adjoint_rhs(loss_model(4), np.eye(3))


def test_model_validation():
    with pytest.raises(ValueError):
        LindbladModel(((make_ladder(4), -1.0),))
    with pytest.raises(ShapeMismatchError):
        LindbladModel(((make_ladder(4), 1.0), (make_ladder(5), 1.0)))
    with pytest.raises(ValueError):
        LindbladModel(())


@pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf])
def test_model_rejects_non_finite_rate(rate):
    # NaN fails every comparison, so a mere `rate < 0` lets it through
    with pytest.raises(ValueError, match="finite and non-negative"):
        LindbladModel(((make_ladder(4), rate),))


def test_steady_state_of_kernel_projector(small_code, small_model):
    kernel = kernel_codewords(small_code.lyapunov, 2)
    rho = sum(np.outer(v, v.conj()) for v in kernel) / 2.0
    assert np.abs(lindblad_rhs(small_model, rho)).max() <= 1e-6


# --- evolve: backends agree, conserve, record ----------------------------------


@pytest.fixture(scope="module")
def small_stiff_case():
    code = build_code(GkpParams(0.1, dim=40))
    model = stabilizer_model(code)
    rho0 = random_density_matrix(40, np.random.default_rng(5))
    return code, model, rho0


def _etd_run(model, rho0, t_final, record_times, lyapunov=None):
    # the exponential backend, called directly: evolve picks rk45 here
    prop = SplitPropagator(model.operators, model.rates)
    traces, lyap = [], []

    def on_record(_t, rho):
        traces.append(np.trace(rho).real)
        if lyapunov is not None:
            lyap.append(np.vdot(lyapunov, rho).real)

    rho, stats = prop.run(rho0, t_final, record_times=record_times, on_record=on_record)
    return rho, np.array(traces), np.array(lyap), stats


def test_backends_agree(small_stiff_case):
    code, model, rho0 = small_stiff_case
    t_final = 1.5
    grid = [0.0, 0.7, t_final]
    rk = evolve(model, rho0, t_final, record_times=grid,
                observables=ObservableSpec(lyapunov=code.lyapunov,
                                           snapshot_times=(t_final,), positivity_tol=None))
    assert rk.meta["method"] == "rk45"
    rho, _, lyap, _ = _etd_run(model, rho0, t_final, grid, code.lyapunov)
    assert np.abs(rk.snapshots[t_final] - rho).max() <= 5e-7
    np.testing.assert_allclose(rk.column("lyapunov"), lyap, rtol=1e-5, atol=1e-8)


def test_trace_preserved_both_backends(small_stiff_case):
    code, model, rho0 = small_stiff_case
    grid = np.linspace(0, 2, 9)
    traj = evolve(model, rho0, 2.0, record_times=grid,
                  observables=ObservableSpec(positivity_tol=None))
    assert traj.meta["method"] == "rk45"
    assert np.abs(traj.column("trace") - 1.0).max() <= 1e-8
    _, traces, _, stats = _etd_run(model, rho0, 2.0, grid)
    assert len(traces) == len(grid)
    assert np.abs(traces - 1.0).max() <= 1e-8
    assert stats["trace_defect"] <= 1e-6
    assert stats["n_jumps"] == 11 * (stats["n_accept"] + stats["n_reject"])


def test_hermitian_at_record_points(small_stiff_case, small_code, small_model, small_logicals):
    code, model, rho0 = small_stiff_case
    codeword = np.outer(small_code.codewords[0], small_code.codewords[0].conj())
    mixed = random_density_matrix(small_code.dim, np.random.default_rng(13))
    spec = ObservableSpec(snapshot_times=(0.25, 0.5), positivity_tol=None)
    for mdl, rho, method in ((model, rho0, "rk45"), (small_model, codeword, "etd4"),
                             (small_model, mixed, "etd4")):
        traj = evolve(mdl, rho, 0.5, record_times=[0.25, 0.5], observables=spec)
        assert traj.meta["method"] == method
        assert len(traj.snapshots) == 2
        for snap in traj.snapshots.values():
            assert np.abs(snap - snap.conj().T).max() == 0.0
    logicals = small_logicals[2]
    for j in (logicals.jx, logicals.jy, logicals.jz):
        assert np.abs(j - j.conj().T).max() == 0.0


def test_auto_method_selection(small_stiff_case):
    code, model, rho0 = small_stiff_case
    short = evolve(model, rho0, 0.05, record_times=[0.05])
    assert short.meta["method"] == "rk45"
    # production-size stabilizer dynamics must switch to the exponential path
    big = build_code(GkpParams(0.2))
    rho = np.outer(big.codewords[0], big.codewords[0].conj())
    traj = evolve(stabilizer_model(big), rho, 0.5, record_times=[0.5],
                  observables=ObservableSpec(positivity_tol=None))
    assert traj.meta["method"] == "etd4"


def test_stabilized_codeword_stays_steady(small_code, small_model):
    rho0 = np.outer(small_code.codewords[0], small_code.codewords[0].conj())
    traj = evolve(small_model, rho0, 2.0, record_times=np.linspace(0, 2, 11),
                  observables=ObservableSpec(lyapunov=small_code.lyapunov))
    assert traj.column("lyapunov").max() <= 1e-5
    assert np.abs(traj.column("trace") - 1.0).max() <= 1e-8
    meta = traj.meta
    assert meta["method"] == "etd4"
    assert meta["n_jumps"] == 11 * (meta["n_accept"] + meta["n_reject"])
    assert meta["trace_defect"] <= 1e-6


def test_meta_reports_accepted_step_range(small_stiff_case, small_code, small_model):
    code, model, rho0 = small_stiff_case
    codeword = np.outer(small_code.codewords[0], small_code.codewords[0].conj())
    quiet = ObservableSpec(positivity_tol=None)
    t_final = 0.2
    for mdl, rho, method in ((model, rho0, "rk45"), (small_model, codeword, "etd4")):
        meta = evolve(mdl, rho, t_final, record_times=[t_final], observables=quiet).meta
        assert meta["method"] == method
        if method == "rk45":
            # six new stages an attempt, the seventh is the next first stage;
            # a retry evaluates its first stage again
            attempts = meta["n_accept"] + meta["n_reject"]
            assert meta["n_rhs"] == 6 * attempts + meta["n_reject"] + 1
        # the accepted steps tile [0, t_final]
        n = meta["n_accept"]
        assert 0.0 < meta["h_min"] <= meta["h_max"] <= t_final
        assert n * meta["h_min"] <= t_final * (1 + 1e-12)
        assert n * meta["h_max"] >= t_final * (1 - 1e-12)


def test_meta_reports_carried_blocks(small_code, small_model):
    c0, c1 = small_code.codewords
    codeword = np.outer(c0, c0.conj())
    # parity-even but neither real nor imaginary
    complex_even = np.outer(c0 + 1j * c1, (c0 + 1j * c1).conj()) / 2
    mixed = random_density_matrix(small_code.dim, np.random.default_rng(13))
    quiet = ObservableSpec(positivity_tol=None)
    for rho, blocks in ((mixed, 16), (codeword, 6), (complex_even, 8)):
        meta = evolve(small_model, rho, 0.2, record_times=[0.2], observables=quiet).meta
        assert meta["method"] == "etd4"
        assert meta["blocks"] == blocks


def test_record_grid_and_columns(small_stiff_case):
    code, model, rho0 = small_stiff_case
    grid = np.linspace(0.0, 0.4, 5)
    traj = evolve(model, rho0, 0.4, record_times=grid,
                  observables=ObservableSpec(lyapunov=code.lyapunov,
                                             positivity_tol=None))
    np.testing.assert_allclose(traj.times, grid, atol=1e-12)
    for col in ("trace", "lyapunov", "nbar"):
        assert len(traj.column(col)) == len(grid)
    assert traj.column("nbar")[0] == pytest.approx(
        float(np.real(np.sum(np.arange(40) * np.diag(rho0)))), abs=1e-9)


def test_record_near_zero_adds_no_row_at_zero():
    rho0 = random_density_matrix(8, np.random.default_rng(3))
    traj = evolve(loss_model(8), rho0, 1.0, record_times=[5e-9, 1.0])
    assert traj.times.tolist() == [5e-9, 1.0]
    assert len(traj.column("trace")) == 2


def test_snapshot_near_a_record_time_is_its_own_stop():
    rho0 = random_density_matrix(8, np.random.default_rng(3))
    snap = 0.5 + 1e-9
    traj = evolve(loss_model(8), rho0, 1.0, record_times=[0.5, 1.0],
                  observables=ObservableSpec(snapshot_times=(snap,)))
    assert traj.times.tolist() == [0.5, 1.0]
    assert list(traj.snapshots) == [snap]


def test_stops_one_ulp_apart_are_rejected_before_any_step(small_code, small_model):
    # the march cannot step between two stops closer than its shortest step,
    # so such a grid is refused up front, naming both times
    after, below = np.nextafter(1.0, 2.0), np.nextafter(2.0, 0.0)
    rho0 = random_density_matrix(8, np.random.default_rng(3))
    for records, snapshots, pair in (([1.0, 2.0], (after,), "1.0 and 1.0000000000000002"),
                                     ([1.0, after, 2.0], (), "1.0 and 1.0000000000000002"),
                                     ([1.0, below], (), "1.9999999999999998 and 2.0")):
        with pytest.raises(ValueError, match=f"stops {pair} are closer"):
            evolve(loss_model(8), rho0, 2.0, record_times=records,
                   observables=ObservableSpec(snapshot_times=snapshots))
    # etd4, which the rule picks at this size: snapshots on linspace(0, tf, 6)
    # and records on linspace(0, tf, 51) fall 1 ulp apart at 7.14 and later
    kappa1 = small_code.params.epsilon / 5.0
    tf = 1.0 / kappa1
    c0 = small_code.codewords[0]
    with pytest.raises(ValueError, match="7.1428571428571415 and 7.142857142857142 are closer"):
        evolve(small_model.with_photon_loss(kappa1), np.outer(c0, c0), tf,
               record_times=np.linspace(0.0, tf, 51),
               observables=ObservableSpec(snapshot_times=tuple(np.linspace(0.0, tf, 6))))


def test_negative_record_or_snapshot_time_is_rejected():
    rho0 = random_density_matrix(8, np.random.default_rng(3))
    with pytest.raises(ValueError, match="non-negative"):
        evolve(loss_model(8), rho0, 1.0, record_times=[-0.5, 0.5, 1.0])
    with pytest.raises(ValueError, match="non-negative"):
        evolve(loss_model(8), rho0, 1.0, record_times=[0.5, 1.0],
               observables=ObservableSpec(snapshot_times=(-0.5,)))


@pytest.mark.parametrize("t_final, records, snapshots", [
    (float("nan"), None, ()), (float("inf"), None, ()), (float("inf"), [0.0, 1.0], ()),
    (1.0, [0.0, float("nan"), 1.0], ()), (1.0, [0.0, 1.0], (float("nan"),)),
    (1.0, [0.0, float("inf")], ()),
])
def test_non_finite_time_is_rejected(t_final, records, snapshots):
    rho0 = random_density_matrix(6, np.random.default_rng(3))
    with pytest.raises(ValueError, match="finite"):
        evolve(loss_model(6), rho0, t_final, record_times=records,
               observables=ObservableSpec(snapshot_times=snapshots))


def test_record_or_snapshot_time_past_t_final_is_rejected():
    rho0 = random_density_matrix(8, np.random.default_rng(3))
    with pytest.raises(ValueError, match="t_final"):
        evolve(loss_model(8), rho0, 1.0, record_times=[0.5, 1.0, 2.0])
    with pytest.raises(ValueError, match="t_final"):
        evolve(loss_model(8), rho0, 1.0, record_times=[0.5, 1.0],
               observables=ObservableSpec(snapshot_times=(1.5,)))


def test_positivity_warning():
    model = loss_model(2, 1.0)
    rho0 = np.diag([1.0 + 2e-6, -2e-6]).astype(complex)
    with pytest.warns(PositivityWarning):
        evolve(model, rho0, 0.1, record_times=[0.0, 0.1])


def test_positivity_warning_from_the_odd_parity_block():
    # parity-even, with its one negative eigenvalue -2e-6 inside the odd
    # block and off its diagonal: the record callback checks the blocks apart
    rho0 = np.diag([0.4, 0.3, 0.3, 0.0]).astype(complex)
    rho0[1, 3] = rho0[3, 1] = np.sqrt(0.3 * 2e-6 + 4e-12)
    with pytest.warns(PositivityWarning):
        evolve(loss_model(4, 1.0), rho0, 0.1, record_times=[0.0, 0.1])


@pytest.mark.parametrize("block", range(4))
def test_positivity_warning_from_every_rotation_block(block):
    # rotation-invariant (only m ≡ n mod 4 entries), with its one negative
    # eigenvalue -2e-6 off the diagonal of the n ≡ block (mod 4) block
    diag = np.full(8, 0.125)
    diag[block], diag[block + 4] = 0.25, 0.0
    rho0 = np.diag(diag).astype(complex)
    rho0[block, block + 4] = rho0[block + 4, block] = np.sqrt(0.25 * 2e-6 + 4e-12)
    with pytest.warns(PositivityWarning):
        evolve(loss_model(8, 1.0), rho0, 0.1, record_times=[0.0, 0.1])


def test_step_budget_guard(small_stiff_case, monkeypatch):
    code, model, rho0 = small_stiff_case
    monkeypatch.setattr(lindblad.ode, "MAX_STEPS", 5)
    with pytest.raises(StepSizeUnderflowError, match="step budget 5 exhausted"):
        evolve(model, rho0, 5.0)


def test_invalid_inputs(small_stiff_case):
    code, model, rho0 = small_stiff_case
    with pytest.raises(ValueError):
        evolve(model, rho0, -1.0)
    bad = rho0.copy()
    bad[0, 0] = np.nan
    with pytest.raises(InvalidInputError):
        evolve(model, bad, 1.0)
    skew = rho0.copy()
    skew[0, 1] += 1e-9
    with pytest.raises(InvalidInputError, match="Hermiticity"):
        evolve(model, skew, 1.0)


# --- the closed-form loss channel ------------------------------------------------


def _loss_factor(dim, rank, seed):
    y = np.random.default_rng(seed).standard_normal((dim, rank))
    return y / np.linalg.norm(y)


def _symmetric(dim, rng):
    h = rng.standard_normal((dim, dim))
    return h + h.T


def test_pure_loss_row_at_zero_is_the_initial_states():
    dim = 30
    rng = np.random.default_rng(5)
    logicals = LogicalOperators(*(_symmetric(dim, rng) for _ in range(3)), 0.0)
    lyap = _symmetric(dim, rng)
    y0 = _loss_factor(dim, 3, 5)
    rho0 = y0 @ y0.T
    traj = pure_loss_trajectory(y0, 0.03, [0.0, 1.0],
                                ObservableSpec(lyapunov=lyap, logicals=logicals))
    row = {name: traj.column(name)[0] for name in traj.records}
    expected = {
        "trace": float(np.real(np.trace(rho0))),
        "lyapunov": float(np.real(np.vdot(lyap, rho0))),
        "nbar": float(np.real(np.sum(np.arange(dim) * np.diag(rho0)))),
    }
    expected.update(zip(("jx", "jy", "jz"), bloch_coordinates(logicals, rho0)))
    assert row == expected


def test_pure_loss_records_like_evolve():
    # the same columns, times and snapshots as the integrated loss-only run
    dim = 20
    rng = np.random.default_rng(6)
    logicals = LogicalOperators(*(_symmetric(dim, rng) for _ in range(3)), 0.0)
    spec = ObservableSpec(lyapunov=_symmetric(dim, rng), logicals=logicals,
                          snapshot_times=(0.25, 0.5 + 1e-9))
    y0 = _loss_factor(dim, 2, 6)
    record = [0.0, 0.5, 1.0]
    closed = pure_loss_trajectory(y0, 1.0, record, spec)
    integrated = evolve(loss_model(dim), y0 @ y0.T, 1.0, record_times=record,
                        observables=spec)
    assert integrated.meta["method"] == "rk45"
    assert closed.times.tolist() == integrated.times.tolist() == record
    assert list(closed.records) == list(integrated.records)
    for name in closed.records:
        np.testing.assert_allclose(closed.column(name), integrated.column(name), atol=1e-8)
    assert list(closed.snapshots) == list(integrated.snapshots) == [0.25, 0.5 + 1e-9]
    for t, rho in closed.snapshots.items():
        assert rho.dtype == complex
        assert np.abs(rho - integrated.snapshots[t]).max() <= 1e-8


def test_pure_loss_without_loss_keeps_the_state():
    y0 = _loss_factor(10, 2, 8)
    traj = pure_loss_trajectory(y0, 0.0, [0.0, 5.0],
                                ObservableSpec(snapshot_times=(5.0,)))
    assert np.array_equal(traj.snapshots[5.0], (y0 @ y0.T).astype(complex))


def test_closed_form_loss_skips_the_positivity_monitor(monkeypatch):
    # a Gram matrix has no eigenvalue to flag; evolve's default spec still checks
    calls = []

    def counting(a):
        calls.append(a.shape)
        return spectrum(a)

    monkeypatch.setattr(lindblad, "spectrum", counting)
    y0 = _loss_factor(10, 2, 9)
    record = [0.0, 0.5, 1.0]
    pure_loss_trajectory(y0, 0.5, record, ObservableSpec(positivity_tol=1e-6))
    assert calls == []
    evolve(loss_model(10), y0 @ y0.T, 1.0, record_times=record)
    assert len(calls) == len(record)


def test_pure_loss_invalid_inputs():
    y0 = _loss_factor(8, 1, 7)
    for rate in (-0.1, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="loss rate"):
            pure_loss_trajectory(y0, rate, [0.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        pure_loss_trajectory(y0, 0.1, [0.0, float("nan"), 1.0])
    with pytest.raises(ValueError, match="non-negative"):
        pure_loss_trajectory(y0, 0.1, [-1.0, 1.0])
    with pytest.raises(ValueError, match="non-negative"):
        pure_loss_trajectory(y0, 0.1, [0.0, 1.0],
                             ObservableSpec(snapshot_times=(-0.5,)))
    with pytest.raises(ShapeMismatchError):
        pure_loss_trajectory(y0[:, 0], 0.1, [1.0])


# --- logical operators and Bloch coordinates ------------------------------------


@pytest.fixture(scope="module")
def small_logicals():
    code = build_code(GkpParams(0.14))
    model = stabilizer_model(code)
    return code, model, logical_operators(model, code)


def test_logical_operators_keep_their_parity_exactly(small_logicals):
    # S_x and S_z are real symmetric and S_y purely imaginary; the flow keeps
    # that parity, and the operators come back with the other part exactly zero
    _code, _model, logicals = small_logicals
    assert not logicals.jx.imag.any()
    assert not logicals.jz.imag.any()
    assert not logicals.jy.real.any()


def test_logical_spectra_bounded(small_logicals):
    code, model, logicals = small_logicals
    assert logicals.convergence_residual <= 1e-4
    for ew in logicals.spectra().values():
        assert ew[0] >= -1.0 - 1e-6
        assert ew[-1] <= 1.0 + 1e-6


def test_logicals_reduce_to_logical_basis_on_codespace(small_logicals):
    code, model, logicals = small_logicals
    c0, c1 = code.codewords
    plus = (c0 + c1) / np.sqrt(2.0)
    for rho in (np.outer(c0, c0.conj()), np.outer(plus, plus.conj())):
        x, y, z = bloch_coordinates(logicals, rho)
        sx = float(np.real(np.trace(code.sx @ rho)))
        sz = float(np.real(np.trace(code.sz @ rho)))
        assert abs(x - sx) <= 1e-6
        assert abs(z - sz) <= 1e-6


def test_bloch_of_reference_states(small_logicals):
    code, model, logicals = small_logicals
    c0, c1 = code.codewords
    x, y, z = bloch_coordinates(logicals, np.outer(c0, c0.conj()))
    assert z == pytest.approx(1.0, abs=1e-6)
    assert abs(x) <= 1e-6 and abs(y) <= 1e-6
    mixed = (np.outer(c0, c0.conj()) + np.outer(c1, c1.conj())) / 2.0
    assert np.allclose(bloch_coordinates(logicals, mixed), 0.0, atol=1e-6)
    plus = (c0 + c1) / np.sqrt(2.0)
    x, _, _ = bloch_coordinates(logicals, np.outer(plus, plus.conj()))
    assert x == pytest.approx(1.0, abs=1e-6)


def test_bloch_records_are_bloch_coordinates(small_logicals):
    # evolve records bloch_coordinates of each recorded state, bit for bit
    # the np.vdot(J, rho) pairing
    code, model, logicals = small_logicals
    c0, c1 = code.codewords
    plus = (c0 + c1) / np.sqrt(2.0)
    grid = (0.25, 0.5)
    traj = evolve(model.with_photon_loss(0.04), np.outer(plus, plus.conj()), 0.5,
                  record_times=grid,
                  observables=ObservableSpec(logicals=logicals, snapshot_times=grid,
                                             positivity_tol=None))
    assert len(traj.times) == len(grid)
    for i, t in enumerate(traj.times):
        rho = traj.snapshots[t]
        recorded = [traj.column(name)[i] for name in ("jx", "jy", "jz")]
        assert recorded == list(bloch_coordinates(logicals, rho))
        assert recorded == [float(np.real(np.vdot(j, rho)))
                            for j in (logicals.jx, logicals.jy, logicals.jz)]


def _hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g + g.conj().T


@pytest.mark.parametrize("non_hermitian", ["state", "operators"])
def test_bloch_coordinates_are_traces(non_hermitian):
    # the pairing is Tr(J rho) for Hermitian J and its conjugate for Hermitian
    # rho: either way the real parts are those of Tr(J rho), and the 1e-8
    # test on the imaginary part fires exactly when Tr(J rho) fails it
    dim = 12
    rng = np.random.default_rng(21)
    ops = [_hermitian(dim, rng) for _ in range(3)]
    rho = _hermitian(dim, rng)
    skew = 1j * _hermitian(dim, rng)
    for scale, real in ((1e-12, True), (1e-3, False)):
        if non_hermitian == "state":
            js, state = ops, rho + scale * skew
        else:
            js, state = [j + scale * skew for j in ops], rho
        logicals = LogicalOperators(*js, 0.0)
        traces = [np.trace(j @ state) for j in js]
        assert (max(abs(t.imag) for t in traces) <= 1e-8) == real
        if real:
            np.testing.assert_allclose(bloch_coordinates(logicals, state),
                                       [t.real for t in traces], rtol=1e-13)
        else:
            with pytest.raises(InvalidInputError):
                bloch_coordinates(logicals, state)


def test_bloch_errors(small_logicals):
    code, model, logicals = small_logicals
    with pytest.raises(ShapeMismatchError):
        bloch_coordinates(logicals, np.eye(3))
    skew = 1j * np.eye(code.dim, dtype=complex) / code.dim
    with pytest.raises(InvalidInputError):
        bloch_coordinates(logicals, skew)


def test_logical_nonconvergence_warns(small_logicals, monkeypatch):
    code, model, _ = small_logicals
    monkeypatch.setattr(lindblad, "STATIONARY_TOL", 1e-14)
    monkeypatch.setattr(lindblad, "STATIONARY_HORIZON", 0.5)
    with pytest.warns(ConvergenceWarning):
        out = logical_operators(model, code)
    assert out.convergence_residual > 1e-14  # reported, operators still returned


@pytest.mark.parametrize("point, bound", [("small", 1e-9), ("200", 5e-11)])
def test_logical_operators_match_a_cold_march(point, bound, request):
    # J_x is marched from S_x + F(J_z - S_z)F†, whose limit is that of S_x;
    # 60 plain steps of S_x itself are the reference, read on 20 states as
    # the largest |Tr((J_x - J_ref) rho)| (6.5e-10 and 3.8e-11 when J_x
    # was marched cold and stopped on its plain step defect)
    if point == "small":
        code, model, logicals = request.getfixturevalue("small_logicals")
    else:
        code, model = request.getfixturevalue("code200"), request.getfixturevalue("model200")
        logicals = request.getfixturevalue("logicals200")
    h = 0.4 / kappa(code.params.epsilon)
    prop = SplitPropagator(model.operators, model.rates, adjoint=True)
    ref, _resid, _t, steps = prop.run_to_stationary(code.sx, h=h, residual_tol=0.0, t_max=60 * h)
    assert steps == 60
    rng = np.random.default_rng(22)
    gap = max(abs(np.vdot(logicals.jx - ref, random_density_matrix(code.dim, rng)))
              for _ in range(20))
    assert gap <= bound
    # a returned operator, extrapolated or not, meets the test in a real step
    for j in (logicals.jx, logicals.jy, logicals.jz):
        _x, resid, _t, steps = prop.run_to_stationary(j, h=h, residual_tol=0.0, t_max=h)
        assert steps == 1 and resid <= STATIONARY_TOL


def test_logical_operators_take_fewer_steps(small_code, small_model, monkeypatch):
    # marched cold and stopped on the plain step defect, J_x, J_y and J_z
    # take 16 + 14 + 16 = 46 steps at eps = 0.14, dim 143
    jumps = []
    apply_jump = SplitPropagator.apply_jump
    monkeypatch.setattr(SplitPropagator, "apply_jump",
                        lambda self, m: jumps.append(1) or apply_jump(self, m))
    logical_operators(small_model, small_code)
    assert len(jumps) % 4 == 0 and len(jumps) // 4 < 46


def test_lyapunov_envelope_bound(small_code, small_model):
    # pointwise certificate: Tr(W rho(t)) <= Tr(W rho(0)) e^{-kappa t} (1+1e-3)
    rho0 = random_density_matrix(small_code.dim, np.random.default_rng(17))
    bound = kappa(small_code.params.epsilon)
    horizon = 5.0 / bound
    grid = np.linspace(0.0, horizon, 31)
    traj = evolve(small_model, rho0, horizon, record_times=grid,
                  observables=ObservableSpec(lyapunov=small_code.lyapunov,
                                             positivity_tol=None))
    w = traj.column("lyapunov")
    envelope = w[0] * np.exp(-bound * traj.times) * (1.0 + 1e-3)
    assert np.all(w <= envelope)


def test_alternative_noise_channels_run(small_stiff_case, small_code, small_model):
    # position/momentum/creation channels are plain extra channels; no new
    # machinery. a† has a definite charge and runs on etd4 at dim 143; q and
    # p break the rotation symmetry, which etd4 needs, so they run where
    # evolve picks rk45 (dim 40)
    code40, model40, _ = small_stiff_case
    q, p = make_quadratures(code40.dim)
    a_dag = np.conj(np.diag(np.sqrt(np.arange(1.0, small_code.dim)), 1)).T
    for code, model, op, method in ((code40, model40, q, "rk45"), (code40, model40, p, "rk45"),
                                    (small_code, small_model, a_dag, "etd4")):
        rho0 = np.outer(code.codewords[0], code.codewords[0].conj())
        traj = evolve(model.with_channel(op, 0.01), rho0, 0.5, record_times=[0.5],
                      observables=ObservableSpec(positivity_tol=None))
        assert traj.meta["method"] == method
        assert abs(traj.column("trace")[-1] - 1.0) <= 1e-8


@pytest.mark.slow
def test_decay_slope_twenty_states_production():
    # the 20-trial version of the slope property at the production point
    from gkpstab.analysis import lyapunov_decay_experiment

    report = lyapunov_decay_experiment(0.1, dim=200, n_trials=20, seed=7)
    assert report.passed
    assert report.min_rate >= 0.95 * report.rate_bound


def test_tolerance_halving_stability(small_logicals, monkeypatch):
    # halving the solver tolerance moves final Bloch coordinates by <= 1e-6
    code, model, logicals = small_logicals
    c0, c1 = code.codewords
    plus = (c0 + c1) / np.sqrt(2.0)
    rho0 = np.outer(plus, plus.conj())
    noisy = model.with_photon_loss(0.04)
    vals = []
    for rtol in (1e-8, 5e-9):
        monkeypatch.setattr(ode, "RTOL", rtol)
        monkeypatch.setattr(ode, "ATOL", rtol * 1e-2)
        traj = evolve(noisy, rho0, 5.0, record_times=[5.0],
                      observables=ObservableSpec(logicals=logicals,
                                                 positivity_tol=None))
        vals.append([traj.column(c)[-1] for c in ("jx", "jy", "jz")])
    assert np.abs(np.array(vals[0]) - np.array(vals[1])).max() <= 1e-6
