"""Exponential-integrator internals validated against brute force.

The dense superoperator of a small stabilizer model fits in memory, so the
exact propagator is available through its eigendecomposition; the split
exponential stepper must reproduce it. The phi functions are checked
against high-precision arithmetic, the real Kraus form against the complex
channel operators, and the jump counts against the stage structure.
"""

import tracemalloc

import mpmath
import numpy as np
import pytest

from gkpstab import GkpParams, build_code, build_dissipators, evolve
from gkpstab import etd, ode
from gkpstab.etd import SplitPropagator, _phi123
from gkpstab.analysis import random_density_matrix
from gkpstab.codes import ETA_SENSOR
from gkpstab.fock import make_ladder, make_quadratures, rotate
from gkpstab.lindblad import LindbladModel, ObservableSpec


def test_phi_functions_against_mpmath():
    # the series branch holds inside |z| < 0.25 and the recurrences outside,
    # so the points straddle -0.25 closely and span [-1e6, -1e-12] densely
    mpmath.mp.dps = 50
    edge = [np.nextafter(-0.25, -1.0), np.nextafter(-0.25, 0.0), -0.25 - 1e-9, -0.25 + 1e-9]
    zs = np.concatenate([[-3e5, -800.0, -30.0, -2.0, -0.5, -0.26, -0.25, -0.249,
                          -0.1, -1e-3, -1e-8, 0.0], edge, -np.logspace(6, -12, 400)])
    ez, p1, p2, p3 = _phi123(zs)
    for i, z in enumerate(zs):
        zm = mpmath.mpf(z)
        if z == 0.0:
            exact = [1.0, 0.5, 1.0 / 6.0]
        else:
            e = mpmath.e ** zm
            exact = [
                (e - 1) / zm,
                (e - 1 - zm) / zm ** 2,
                (e - 1 - zm - zm ** 2 / 2) / zm ** 3,
            ]
        for got, want in zip((p1[i], p2[i], p3[i]), exact):
            assert got == pytest.approx(float(want), rel=1e-13), f"z={z}"
    # below log(tiny) e^z is an exact zero, not a subnormal; above it is exp's
    log_tiny = np.log(np.finfo(float).tiny)
    low = np.array([np.nextafter(log_tiny, -np.inf), -709.0, -745.0, -746.0, -800.0, -3e5])
    assert np.all(np.exp(low[:3]) > 0.0)
    assert np.all(_phi123(low)[0] == 0.0) and np.all(ez[zs < log_tiny] == 0.0)
    assert np.array_equal(ez[zs > log_tiny], np.exp(zs[zs > log_tiny]))


@pytest.fixture(scope="module")
def tiny_model():
    dim = 28
    vs = build_dissipators(GkpParams(0.1, dim=dim))
    return dim, [np.asarray(v) for v in vs]


def _dense_superoperator(dim, vs):
    eye = np.eye(dim)
    g = sum(v.conj().T @ v for v in vs) / 2.0
    g = 0.5 * (g + g.conj().T)
    sup = np.zeros((dim * dim, dim * dim), dtype=complex)
    for v in vs:
        sup += np.kron(v, v.conj())
    sup -= np.kron(g, eye) + np.kron(eye, g.T)
    return sup


def _assert_matches_dense(prop, dim, sup, grid=((0.4, 0.002), (1.2, 0.004))):
    # grid holds (t_final, h) pairs of the fixed-step marches
    evals, evecs = np.linalg.eig(sup)
    coeffs = np.linalg.solve(evecs, random_density_matrix(
        dim, np.random.default_rng(2)).flatten())
    rho0 = (evecs @ coeffs).reshape(dim, dim)

    for t_final, h in grid:
        exact = (evecs @ (np.exp(evals * t_final) * coeffs)).reshape(dim, dim)
        xb = prop.to_basis(rho0)
        for _ in range(int(round(t_final / h))):
            xb = prop.step(xb, h)
        got = prop.from_basis(xb)
        assert np.abs(got - exact).max() <= 5e-9, f"t={t_final}"


def test_krogstad_matches_dense_propagator(tiny_model):
    dim, vs = tiny_model
    prop = SplitPropagator(vs, [1.0] * len(vs))
    _assert_matches_dense(prop, dim, _dense_superoperator(dim, vs))


def _assert_evolve_matches_dense(dim, ops, rates):
    # evolve's explicit pair on the whole complex matrix against the exact
    # propagator, at the times of the fixed-step marches
    model = LindbladModel(tuple(zip(ops, rates)))
    evals, evecs = np.linalg.eig(
        _dense_superoperator(dim, [np.sqrt(r) * v for v, r in zip(ops, rates)]))
    rho0 = random_density_matrix(dim, np.random.default_rng(2))
    coeffs = np.linalg.solve(evecs, rho0.flatten())
    for t_final in (0.4, 1.2):
        exact = (evecs @ (np.exp(evals * t_final) * coeffs)).reshape(dim, dim)
        traj = evolve(model, rho0, t_final, record_times=[t_final],
                      observables=ObservableSpec(snapshot_times=(t_final,), positivity_tol=None))
        assert traj.meta["method"] == "rk45"
        assert np.abs(traj.snapshots[t_final] - exact).max() <= 5e-9, f"t={t_final}"


def test_unclosed_channel_set_takes_complex_path(tiny_model):
    # one generic complex channel breaks the rotation symmetry: the
    # exponential integrator refuses it, and evolve runs it on the complex
    # explicit pair, which must still be exact
    dim, vs = tiny_model
    rng = np.random.default_rng(5)
    extra = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(dim)
    ops, rates = vs + [extra], [1.0] * len(vs) + [0.05]
    with pytest.raises(ValueError, match="channel 4 lacks the pi/2 rotation symmetry"):
        SplitPropagator(ops, rates)
    _assert_evolve_matches_dense(dim, ops, rates)


@pytest.mark.parametrize("with_loss", [False, True], ids=["stabilizers", "plus_loss"])
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_blocked_form_matches_dense_propagator(adjoint, with_loss):
    # dim 30 has uneven blocks (8, 8, 7, 7). The steps are half those of
    # the dim-28 test: at h = 0.002/0.004 the forward march reads 8.3e-9,
    # the fourth-order step error; at h/2 it reads 5.1e-10
    dim = 30
    ops, rates = list(build_dissipators(GkpParams(0.1, dim=dim))), [1.0] * 4
    if with_loss:
        ops, rates = ops + [make_ladder(dim)], rates + [0.02]
    prop = SplitPropagator(ops, rates, adjoint=adjoint)
    assert [len(b) for b in prop.basis] == [8, 8, 7, 7]
    sup = _dense_superoperator(dim, [np.sqrt(r) * v for v, r in zip(ops, rates)])
    if adjoint:
        sup = sup.conj().T   # L* in the Hilbert-Schmidt product
    _assert_matches_dense(prop, dim, sup, grid=((0.4, 0.001), (1.2, 0.002)))


def _one_block_run(ops, rates, adjoint, x, h, n_steps):
    """The jump of x and n_steps Krogstad steps of size h from x, in the
    complex eigenbasis of the whole G, with no use of the rotation symmetry:
    an independent reference for the blocked form."""
    g = sum(r * (v.conj().T @ v) for v, r in zip(ops, rates)) / 2.0
    ew, u = np.linalg.eigh(0.5 * (g + g.conj().T))
    ks = [u.conj().T @ (np.sqrt(r) * (v.conj().T if adjoint else v)) @ u
          for v, r in zip(ops, rates)]

    def jump(m):
        return sum(k @ m @ k.conj().T for k in ks)

    z = -(ew[:, None] + ew[None, :])
    e_h, p1_h, p2_h, p3_h = _phi123(h * z)
    e_2, p1_2, p2_2, _ = _phi123(0.5 * h * z)
    xb = u.conj().T @ (0.5 * (x + x.conj().T)) @ u
    jumped = u @ jump(xb) @ u.conj().T
    for _ in range(n_steps):
        n1 = jump(xb)
        n2 = jump(e_2 * xb + (0.5 * h) * p1_2 * n1)
        n3 = jump(e_2 * xb + (0.5 * h) * ((p1_2 - 2.0 * p2_2) * n1 + 2.0 * p2_2 * n2))
        n4 = jump(e_h * xb + h * ((p1_h - 2.0 * p2_h) * n1 + 2.0 * p2_h * n3))
        xb = e_h * xb + h * ((p1_h - 3.0 * p2_h + 4.0 * p3_h) * n1
                             + (2.0 * p2_h - 4.0 * p3_h) * (n2 + n3)
                             + (-p2_h + 4.0 * p3_h) * n4)
    return jumped, u @ xb @ u.conj().T


@pytest.mark.parametrize("with_loss", [False, True], ids=["stabilizers", "plus_loss"])
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
@pytest.mark.parametrize("dim", [28, 143])
def test_blocked_form_matches_one_block_form(small_code, dim, adjoint, with_loss):
    # dim 143 has uneven blocks (36, 36, 36, 35)
    vs = list(small_code.dissipators) if dim == 143 else list(build_dissipators(GkpParams(0.1, dim=dim)))
    ops, rates = vs, [1.0] * 4
    if with_loss:
        ops, rates = vs + [make_ladder(dim)], rates + [0.02]
    prop = SplitPropagator(ops, rates, adjoint=adjoint)
    assert [len(b) for b in prop.basis] == [len(range(j, dim, 4)) for j in range(4)]

    rho = random_density_matrix(dim, np.random.default_rng(12))
    xb = prop.to_basis(rho)
    jump = prop.from_basis(prop.apply_jump(xb))
    for _ in range(3):
        xb = prop.step(xb, 0.05)
    stepped = prop.from_basis(xb)
    jump_ref, stepped_ref = _one_block_run(ops, rates, adjoint, rho, 0.05, 3)
    assert np.abs(jump - jump_ref).max() <= 1e-12 * np.abs(jump_ref).max()
    # the stiff drift amplifies roundoff in the stages: at dim 143 three
    # steps of the one-block form move by up to 1.5e-10 (relative) under a
    # mere permutation of the Fock basis, so steps are compared at 1e-9
    assert np.abs(stepped - stepped_ref).max() <= 1e-9 * np.abs(stepped_ref).max()


def test_parity_even_states_take_six_or_eight_blocks(small_code):
    # a real parity-even state carries the blocks (i, j), i <= j, of
    # sectors 0 and 2; a complex one carries all 8 of them, and a generic
    # state 10 (real) or 16 (complex)
    vs = list(small_code.dissipators)
    prop = SplitPropagator(vs, [1.0] * len(vs))
    c0, c1 = small_code.codewords
    y = np.random.default_rng(15).standard_normal((small_code.dim,) * 2)
    for x, blocks in ((np.outer(c0 + 1j * c1, c0 - 1j * c1) / 2, 8), (y + y.T, 10),
                      (random_density_matrix(small_code.dim, np.random.default_rng(15)), 16)):
        prop.to_basis(x)
        assert len(prop._layout) == blocks
    xb = prop.to_basis(np.outer(c0, c0))
    assert len(prop._layout) == 6
    for _ in range(3):
        xb = prop.step(xb, 0.05)
    out = prop.from_basis(xb)
    # sectors 1 and 3 (odd n - m) are never stored, so they stay exactly zero
    assert not out[0::2, 1::2].any() and not out[1::2, 0::2].any()
    assert out[1::2, 1::2].any()


@pytest.mark.parametrize("with_loss", [False, True], ids=["stabilizers", "plus_loss"])
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
@pytest.mark.parametrize("dim", [28, 143])
def test_half_layout_matches_the_full_layout(small_code, dim, adjoint, with_loss, monkeypatch):
    # a real symmetric (Mᵀ = M) or imaginary antisymmetric (Mᵀ = -M) state
    # carries the blocks (i, j) with i <= j only; the same propagator made
    # to carry every block of the same sectors is the reference
    code = small_code if dim == 143 else build_code(GkpParams(0.1, dim=dim))
    ops, rates = list(code.dissipators), [1.0] * 4
    if with_loss:
        ops, rates = ops + [make_ladder(dim)], rates + [0.02]
    half = SplitPropagator(ops, rates, adjoint=adjoint)
    full = SplitPropagator(ops, rates, adjoint=adjoint)
    monkeypatch.setattr(full, "_set_layout",
                        lambda sectors, sign: SplitPropagator._set_layout(full, sectors, 0))
    c0 = code.codewords[0]
    y = np.random.default_rng(16).standard_normal((dim, dim))
    for x, blocks in ((np.outer(c0, c0), (6, 8)), (code.sx, (6, 8)), (code.sy, (6, 8)),
                      (y + y.T, (10, 16))):
        outs = []
        for prop in (half, full):
            xb = prop.to_basis(x)
            carried = len(prop._layout)
            modulus = prop._max_modulus(xb)
            jump = prop.from_basis(prop.apply_jump(xb))
            for _ in range(3):
                xb = prop.step(xb, 0.05)
            stepped = prop.from_basis(xb)
            marched, resid, _t, _n = prop.run_to_stationary(x, h=0.5, residual_tol=0.0,
                                                            t_max=1.0)
            outs.append((carried, modulus, jump, stepped, marched, resid))
        (n_half, *got), (n_full, *want) = outs
        assert (n_half, n_full) == blocks
        # the codewords are dark states of the dissipators, so their jump
        # and stationary residual are roundoff: compare at the input's scale
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-12 * max(np.abs(w).max(), np.abs(x).max())


def _step_by_expressions(prop, xb, h, n1):
    # the Krogstad step as whole-array expressions, a new array per
    # operation: the reference the in-place stages must match bit for bit
    e_h, e_2, a21, a31, a32, a41, a43, b1, b23, b4 = prop._phi_tables(h)
    n2 = prop.apply_jump(e_2 * xb + a21 * n1)
    n3 = prop.apply_jump(e_2 * xb + (a31 * n1 + a32 * n2))
    n4 = prop.apply_jump(e_h * xb + (a41 * n1 + a43 * n3))
    return e_h * xb + (b1 * n1 + b23 * (n2 + n3) + b4 * n4)


@pytest.mark.parametrize("dim", [28, 143])
def test_in_place_step_matches_the_expression_form_bitwise(small_code, dim):
    code = small_code if dim == 143 else build_code(GkpParams(0.1, dim=dim))
    prop = SplitPropagator(list(code.dissipators) + [make_ladder(dim)], [1.0] * 4 + [0.02])
    rng = np.random.default_rng(17)
    y = rng.standard_normal((dim, dim))
    for x, sign in ((y + y.T, 1), (1j * (y - y.T), -1),
                    (random_density_matrix(dim, rng), 0)):
        xb = prop.to_basis(x)
        assert prop._sign == sign
        for h in (0.05, 0.4, 0.4):
            n1 = prop.apply_jump(xb)
            want = _step_by_expressions(prop, xb, h, n1)
            inputs = xb.copy(), n1.copy()
            got = prop.step(xb, h, n1)
            assert np.array_equal(got, want)
            # the inputs are left alone and the result is a new array
            assert np.array_equal(xb, inputs[0]) and np.array_equal(n1, inputs[1])
            assert not np.shares_memory(got, xb) and not np.shares_memory(got, n1)
            xb = got


def test_extrapolated_stop_is_the_same_on_the_half_layout(small_code, monkeypatch):
    # the extrapolation's Gram matrix is taken in _inner, in which a block
    # carried without its mirror counts twice, so S_z's march stops at the
    # same step on the same point whichever layout carries it
    from gkpstab import kappa

    h = 0.4 / kappa(small_code.params.epsilon)
    vs = list(small_code.dissipators)
    half = SplitPropagator(vs, [1.0] * 4, adjoint=True)
    full = SplitPropagator(vs, [1.0] * 4, adjoint=True)
    monkeypatch.setattr(full, "_set_layout",
                        lambda sectors, sign: SplitPropagator._set_layout(full, sectors, 0))
    (x_half, r_half, _t, n_half), (x_full, r_full, _t, n_full) = (
        prop.run_to_stationary(small_code.sz, h=h, residual_tol=1e-10, t_max=50 * h)
        for prop in (half, full))
    assert n_half == n_full < 16 and max(r_half, r_full) <= 1e-10
    assert abs(r_half - r_full) <= 1e-3 * r_full
    assert np.abs(x_half - x_full).max() <= 1e-12 * np.abs(x_full).max()


def test_max_modulus_sees_a_nan_in_any_block(tiny_model):
    # the step loop retreats from a non-finite error estimate only if the
    # norm reports it, wherever the NaN sits in the carrier
    dim, vs = tiny_model
    prop = SplitPropagator(vs, [1.0] * len(vs))
    xb = prop.to_basis(random_density_matrix(dim, np.random.default_rng(18)))
    for a, _b, _shape in prop._layout.values():
        bad = xb.copy()
        bad[a] = np.nan
        assert np.isnan(prop._max_modulus(bad))


def test_channel_set_without_rotation_symmetry_is_rejected(tiny_model, small_model):
    # F q F† = p is not a channel, so stabilizers + q have no real blocked
    # form; single-charge channels (a, a†, n, a²) pass the detector
    dim, vs = tiny_model
    a = make_ladder(dim)
    for extra in (a, a.T, a.T @ a, a @ a):
        SplitPropagator(vs + [extra], [1.0] * len(vs) + [0.02])
    q = make_quadratures(dim)[0]
    with pytest.raises(ValueError, match="channel 4 lacks the pi/2 rotation symmetry"):
        SplitPropagator(vs + [q], [1.0] * len(vs) + [0.02])
    # evolve picks etd4 at dim 143 and raises there
    with_q = small_model.with_channel(make_quadratures(small_model.dim)[0], 0.02)
    rho = np.eye(small_model.dim) / small_model.dim
    with pytest.raises(ValueError, match="rotation symmetry"):
        evolve(with_q, rho, 0.2, record_times=[0.2],
               observables=ObservableSpec(positivity_tol=None))


def test_global_phase_of_a_channel_is_divided_out(tiny_model):
    # e^{0.3i} a and a have one Kraus map, and so one jump up to roundoff;
    # so do e^{0.3i} (n + a²) and n + a², given their rotation orbits
    dim, vs = tiny_model
    a = make_ladder(dim)
    rho = random_density_matrix(dim, np.random.default_rng(8))
    for v, copies in ((a, 1), (a.T @ a + a @ a, 4)):
        jumps = []
        for channel in (v, np.exp(0.3j) * v):
            orbit = [rotate(channel, k) for k in range(copies)]
            prop = SplitPropagator(vs + orbit, [1.0] * len(vs) + [0.02] * len(orbit))
            jumps.append(prop.from_basis(prop.apply_jump(prop.to_basis(rho))))
        assert np.abs(jumps[1] - jumps[0]).max() <= 1e-14 * np.abs(jumps[0]).max()
    # the charge-0 and charge-2 parts of n + e^{0.3i} a² carry different
    # phases, so no phase of the channel makes both real or imaginary
    v = a.T @ a + np.exp(0.3j) * (a @ a)
    with pytest.raises(ValueError, match="channel 4 has no real Kraus form: its charge-2"):
        SplitPropagator(vs + [rotate(v, k) for k in range(4)], [1.0] * len(vs) + [0.02] * 4)


def test_rotation_asymmetric_channel_set_takes_one_block(tiny_model):
    # F q F† = p is not a channel: no blocked form, so evolve runs the set
    # on the whole matrix, one block, which must still be exact
    dim, vs = tiny_model
    _assert_evolve_matches_dense(dim, vs + [make_quadratures(dim)[0]], [1.0] * len(vs) + [0.02])


def test_sensor_lattice_passes_the_symmetry_detector():
    vs = build_dissipators(GkpParams(0.1, eta=ETA_SENSOR, dim=40))
    prop = SplitPropagator(vs, [1.0] * len(vs))
    assert len(prop.basis) == 4


@pytest.mark.parametrize("with_loss", [False, True], ids=["stabilizers", "plus_loss"])
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_real_form_jump_matches_complex_operators(tiny_model, small_code, with_loss, adjoint):
    # dim 143 has uneven blocks (36, 36, 36, 35)
    for dim, vs in (tiny_model, (small_code.dim, list(small_code.dissipators))):
        ops, rates = list(vs), [1.0] * len(vs)
        if with_loss:
            ops.append(make_ladder(dim).astype(complex))
            rates.append(0.02)
        prop = SplitPropagator(ops, rates, adjoint=adjoint)
        assert all(np.isrealobj(k) for k in prop.basis + [k for ks in prop.kraus for k in ks])

        rho = random_density_matrix(dim, np.random.default_rng(6))
        sym = rho.real.astype(complex)             # real symmetric
        anti = 1j * rho.imag                       # purely imaginary Hermitian
        for x in (sym, anti, rho):
            want = sum(r * (v.conj().T @ x @ v if adjoint else v @ x @ v.conj().T)
                       for v, r in zip(ops, rates))
            got = prop.from_basis(prop.apply_jump(prop.to_basis(x)))
            assert got.dtype == complex
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert np.array_equal(got, got.conj().T)


def _jump_by_factors(prop, m):
    """The jump term by term: for each carried block and each factor, two
    products and a sum. The reference for the stacked products."""
    blocks = prop._blocks(m)
    out = np.zeros_like(m)
    for (p, q), dest in prop._blocks(out).items():
        for c, k in zip(prop._charges, prop.kraus):
            i, j = (p - c) % 4, (q - c) % 4
            if (i, j) in blocks:
                dest += k[i] @ blocks[i, j] @ k[j].T
            else:
                dest += prop._sign * (k[i] @ blocks[j, i].T @ k[j].T)
    return out


@pytest.mark.parametrize("with_loss", [False, True], ids=["stabilizers", "plus_loss"])
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_stacked_jump_matches_the_factor_loop(small_code, adjoint, with_loss):
    # dim 143 has uneven blocks (36, 36, 36, 35); every sector set and
    # transpose parity of the carrier is covered
    dim = small_code.dim
    ops, rates = list(small_code.dissipators), [1.0] * 4
    if with_loss:
        ops, rates = ops + [make_ladder(dim)], rates + [0.02]
    prop = SplitPropagator(ops, rates, adjoint=adjoint)
    assert [len(b) for b in prop.basis] == [36, 36, 36, 35]
    assert len(prop.kraus) == len(prop._charges) == (5 if with_loss else 4)
    for x, sign, carried in _every_layout(dim, np.random.default_rng(19)):
        xb = prop.to_basis(x)
        assert (prop._sign, len(prop._layout)) == (sign, carried)
        got, want = prop.apply_jump(xb), _jump_by_factors(prop, xb)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _every_layout(dim, rng):
    """(state, transpose parity, carried blocks) of every layout kind: sign
    0, +1 and -1 on sector 0, sectors 0 and 2, and all four."""
    y = rng.standard_normal((dim, dim))
    rho = random_density_matrix(dim, rng)
    n = np.arange(dim)
    for period, blocks in ((4, (4, 4, 4)), (2, (8, 6, 6)), (1, (16, 10, 10))):
        # keep the entries with m ≡ n mod period: sector 0, sectors 0 and 2,
        # or all four
        mask = np.subtract.outer(n, n) % period == 0
        yield from ((rho * mask, 0, blocks[0]), ((y + y.T) * mask, 1, blocks[1]),
                    (1j * (y - y.T) * mask, -1, blocks[2]))


@pytest.mark.parametrize("channels", ["stabilizers_loss_number", "loss_twophoton_number", "loss"])
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_jump_of_channel_sets_without_one_factor_per_charge(small_code, adjoint, channels):
    # the stabilizer orbit gives one factor per charge, summed into K; a, n
    # and a² each have one charge, so a and n beside the orbit are two
    # factors outside K, a + a² + n leaves charge 1 empty and has no K, and
    # so has loss alone; each factor outside K takes rows of Y of its own
    dim = small_code.dim
    a = make_ladder(dim)
    ops, rates, width, extras = {
        "stabilizers_loss_number": (list(small_code.dissipators) + [a, a.T @ a],
                                    [1.0] * 4 + [0.02, 0.1], dim, 2),
        "loss_twophoton_number": ([a, a @ a, a.T @ a], [1.0, 0.5, 0.2], 0, 3),
        "loss": ([a], [1.0], 0, 1),
    }[channels]
    prop = SplitPropagator(ops, rates, adjoint=adjoint)
    assert (prop._width, len(prop._extras)) == (width, extras)
    for x, sign, carried in _every_layout(dim, np.random.default_rng(21)):
        xb = prop.to_basis(x)
        assert (prop._sign, len(prop._layout)) == (sign, carried)
        got = prop.apply_jump(xb)
        want = _jump_by_factors(prop, xb)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        want = sum(r * (v.conj().T @ x @ v if adjoint else v @ x @ v.conj().T)
                   for v, r in zip(ops, rates))
        assert np.abs(prop.from_basis(got) - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("dim", [200, 400])
def test_factors_are_stored_once_and_the_jump_allocates_its_result(dim):
    # every Kraus block is a view of the one factor storage and, the four
    # blocks being of equal size here, together they tile it; Y is
    # allocated once and every layout's plan reads it;
    # a jump allocates its result and nothing of the carrier's size besides
    vs = build_dissipators(GkpParams(0.1, dim=dim))
    ops, rates = [np.asarray(v) for v in vs] + [make_ladder(dim)], [1.0] * 4 + [0.02]
    prop = SplitPropagator(ops, rates)
    assert len(prop.kraus) == 5 and all(len(ks) == 4 for ks in prop.kraus)
    kept = prop._factors.copy()
    prop._factors[...] = 0.0
    for ks in prop.kraus:
        for k in ks:
            k += 1.0
    assert np.all(prop._factors == 1.0)
    assert sum(k.size for ks in prop.kraus for k in ks) == prop._factors.size
    prop._factors[...] = kept

    y = prop._y
    for x, _sign, _carried in _every_layout(dim, np.random.default_rng(22)):
        xb = prop.to_basis(x)
        assert prop._y is y
        assert all(np.shares_memory(out, y) for sources, products in prop._plan
                   for *_, out in sources)
        assert all(np.shares_memory(right, y) for sources, products in prop._plan
                   for *_, right in products)
        prop.apply_jump(xb)
        tracemalloc.start()
        try:
            got = prop.apply_jump(xb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < got.nbytes + 64 * 1024


def test_jump_plan_is_built_once_per_layout(tiny_model):
    # run keeps the layout of its to_basis, and so its plan, for every jump;
    # a carrier of another layout gets a plan of its own
    dim, vs = tiny_model
    prop = SplitPropagator(vs, [1.0] * len(vs))
    rng = np.random.default_rng(20)
    rho = random_density_matrix(dim, rng)
    prop.to_basis(rho)
    plan = prop._plan
    seen = []
    apply_jump = prop.apply_jump
    prop.apply_jump = lambda xb: seen.append(prop._plan) or apply_jump(xb)
    _, stats = prop.run(rho, 0.1, record_times=[0.05, 0.1], on_record=lambda t, x: None)
    assert len(seen) == stats["n_jumps"] > 0
    assert all(p is plan for p in seen)
    prop.to_basis(random_density_matrix(dim, rng))
    assert prop._plan is plan
    y = rng.standard_normal((dim, dim))
    for x in (y + y.T, 1j * (y - y.T), rho):
        prop.to_basis(x)
        assert prop._plan is not plan
        plan = prop._plan


def test_one_part_state_of_any_symmetry_gets_its_exact_map(tiny_model):
    # a real or purely imaginary X of no symmetry gets the map of its
    # Hermitian part, the real symmetric or the imaginary antisymmetric one;
    # the blocked form may leave a rounding-level other part, which the
    # error bound covers
    dim, vs = tiny_model
    y = np.random.default_rng(9).standard_normal((dim, dim))
    prop = SplitPropagator(vs, [1.0] * len(vs))
    for z, herm in ((y, 0.5 * (y + y.T)), (1j * y, 0.5j * (y - y.T))):
        got = prop.from_basis(prop.apply_jump(prop.to_basis(z)))
        want = sum(v @ herm @ v.conj().T for v in vs)
        assert np.array_equal(got, got.conj().T)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_non_hermitian_jump_maps_the_hermitian_part(tiny_model):
    # a complex input of no symmetry
    dim, vs = tiny_model
    rng = np.random.default_rng(10)
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    herm = 0.5 * (x + x.conj().T)
    prop = SplitPropagator(vs, [1.0] * len(vs))
    got = prop.from_basis(prop.apply_jump(prop.to_basis(x)))
    want = sum(v @ herm @ v.conj().T for v in vs)
    assert np.array_equal(got, got.conj().T)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_run_counts_jump_applications(tiny_model, monkeypatch):
    dim, vs = tiny_model
    prop = SplitPropagator(vs, [1.0] * len(vs))
    calls = []
    apply_jump = prop.apply_jump
    prop.apply_jump = lambda xb: calls.append(1) or apply_jump(xb)
    rho0 = random_density_matrix(dim, np.random.default_rng(7))

    # passing the first stage in is the same computation as letting step make it
    xb = prop.to_basis(rho0)
    assert np.array_equal(prop.step(xb, 0.1, prop.apply_jump(xb)), prop.step(xb, 0.1))

    # an oversized first step forces rejections: every attempt, a retry
    # included, costs 11 jump applications
    calls.clear()
    monkeypatch.setattr(ode, "FIRST_STEP", 1.0)
    monkeypatch.setattr(ode, "RTOL", 1e-9)
    monkeypatch.setattr(ode, "ATOL", 1e-12)
    _, stats = prop.run(rho0, 1.0)
    assert stats["n_reject"] >= 1
    assert stats["n_jumps"] == len(calls)
    assert stats["n_jumps"] == 11 * (stats["n_accept"] + stats["n_reject"])

    # the step defect needs no jump of its own: 4 per step
    adj = SplitPropagator(vs, [1.0] * len(vs), adjoint=True)
    before = adj.n_jumps
    *_, steps = adj.run_to_stationary(np.eye(dim) + rho0, h=0.5, residual_tol=0.0, t_max=3.0)
    assert steps == 6
    assert adj.n_jumps - before == 4 * steps


def test_attempt_evaluates_three_phi_tables(tiny_model, monkeypatch):
    # a step of h needs phi at h and h/2, each step of h/2 at h/2 and h/4:
    # h/2 is evaluated once and reused
    dim, vs = tiny_model
    prop = SplitPropagator(vs, [1.0] * len(vs))
    args = []
    monkeypatch.setattr(etd, "_phi123", lambda z: args.append(z) or _phi123(z))
    monkeypatch.setattr(ode, "FIRST_STEP", 0.01)
    monkeypatch.setattr(ode, "RTOL", 1e-3)
    monkeypatch.setattr(ode, "ATOL", 1e-3)
    _, stats = prop.run(random_density_matrix(dim, np.random.default_rng(11)), 0.01)
    assert (stats["n_accept"], stats["n_reject"]) == (1, 0)
    assert len(args) == 3
    for z, s in zip(args, (0.01, 0.005, 0.0025)):
        assert np.array_equal(z, s * prop._zsum)


def test_step_size_far_beyond_explicit_stability(tiny_model):
    # ||L|| is ~1.2e2 here, so h=0.5 is ~20x outside the explicit stability
    # region: the split stepper must stay bounded and converge as h shrinks
    dim, vs = tiny_model
    sup = _dense_superoperator(dim, vs)
    prop = SplitPropagator(vs, [1.0] * len(vs))
    rho0 = random_density_matrix(dim, np.random.default_rng(3))
    evals, evecs = np.linalg.eig(sup)
    coeffs = np.linalg.solve(evecs, rho0.flatten())
    t_final = 8.0
    exact = (evecs @ (np.exp(evals * t_final) * coeffs)).reshape(dim, dim)
    errs = []
    for h in (0.5, 0.25, 0.125):
        xb = prop.to_basis(rho0)
        for _ in range(int(round(t_final / h))):
            xb = prop.step(xb, h)
        got = prop.from_basis(xb)
        assert np.isfinite(got).all()
        errs.append(np.abs(got - exact).max())
    assert errs[0] <= 0.1  # coarse transients, no instability
    assert errs[0] / errs[1] >= 3.0 and errs[1] / errs[2] >= 3.0


def test_adaptive_run_hits_tolerance(tiny_model, monkeypatch):
    dim, vs = tiny_model
    sup = _dense_superoperator(dim, vs)
    evals, evecs = np.linalg.eig(sup)
    rho0 = random_density_matrix(dim, np.random.default_rng(4))
    coeffs = np.linalg.solve(evecs, rho0.flatten())
    t_final = 2.0
    exact = (evecs @ (np.exp(evals * t_final) * coeffs)).reshape(dim, dim)

    prop = SplitPropagator(vs, [1.0] * len(vs))
    monkeypatch.setattr(ode, "RTOL", 1e-9)
    monkeypatch.setattr(ode, "ATOL", 1e-12)
    got, stats = prop.run(rho0, t_final)
    assert np.abs(got - exact).max() <= 1e-7
    assert stats["trace_defect"] <= 1e-8
    assert abs(np.trace(got) - 1.0) <= 1e-12


def test_adjoint_run_matches_dense_propagator(tiny_model, monkeypatch):
    # the adjoint flow does not conserve trace, so run must leave it alone:
    # a rescale to the initial trace would miss the exact propagator by the
    # trace change, which is far above the tolerance here
    dim, vs = tiny_model
    sup = _dense_superoperator(dim, vs).conj().T   # L* in the Hilbert-Schmidt product
    evals, evecs = np.linalg.eig(sup)
    rng = np.random.default_rng(8)
    x0 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    x0 = x0 + x0.conj().T
    coeffs = np.linalg.solve(evecs, x0.flatten())
    t_final = 2.0
    exact = (evecs @ (np.exp(evals * t_final) * coeffs)).reshape(dim, dim)
    assert abs(np.trace(exact) - np.trace(x0)) >= 1e-3

    prop = SplitPropagator(vs, [1.0] * len(vs), adjoint=True)
    monkeypatch.setattr(ode, "RTOL", 1e-9)
    monkeypatch.setattr(ode, "ATOL", 1e-12)
    got, stats = prop.run(x0, t_final)
    assert np.abs(got - exact).max() <= 1e-7 * np.abs(exact).max()
    assert stats["trace_defect"] == 0.0


def test_stationary_fixed_point_h_independent(small_code):
    # at a truncation that resolves the codespace, the stationary march lands
    # on the same element whatever the step (exact kernels are fixed points);
    # severely under-truncated generators have quasi-kernel junk instead,
    # which is why this uses the rule-compliant small code
    vs = list(small_code.dissipators)
    prop = SplitPropagator(vs, [1.0] * len(vs), adjoint=True)
    outs = []
    for h in (0.9, 2.7):
        x, _resid, _t, _n = prop.run_to_stationary(
            small_code.sz.astype(complex), h=h, residual_tol=1e-14, t_max=250.0)
        outs.append(x)
    assert np.abs(outs[0] - outs[1]).max() <= 1e-8


def test_stationary_march_stops_on_its_step_defect(small_code):
    # the step damps the truncation corner, so at eps = 0.14, dim 143 the
    # defect falls past 1e-10 well inside the horizon; the generator
    # residual ||L*(X)||_F / ||X||_F stops near 1e-5 there
    from gkpstab import kappa

    rate = kappa(small_code.params.epsilon)
    vs = list(small_code.dissipators)
    prop = SplitPropagator(vs, [1.0] * len(vs), adjoint=True)
    _x, resid, _t, steps = prop.run_to_stationary(small_code.sz, h=0.4 / rate,
                                                  residual_tol=1e-10, t_max=20.0 / rate)
    assert resid <= 1e-10 and steps < 50
    # 50 steps of h sum to 1e-13 short of 20/kappa; a march to the horizon
    # ends there and returns its last iterate, not an extrapolated point,
    # with the defect of its last full step, not that of a sliver
    x, resid, _t, steps = prop.run_to_stationary(small_code.sz, h=0.4 / rate,
                                                 residual_tol=0.0, t_max=20.0 / rate)
    assert steps == 50 and resid <= 1e-10
    xb = prop.to_basis(small_code.sz)
    for _ in range(50):
        xb = prop.step(xb, 0.4 / rate)
    assert np.array_equal(x, prop.from_basis(xb))


def test_adjoint_preserves_identity(tiny_model):
    dim, vs = tiny_model
    prop = SplitPropagator(vs, [1.0] * len(vs), adjoint=True)
    xb = prop.to_basis(np.eye(dim, dtype=complex))
    for _ in range(5):
        xb = prop.step(xb, 1.3)
    assert np.abs(prop.from_basis(xb) - np.eye(dim)).max() <= 1e-11
