import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gkpstab import (
    DimensionError,
    InvalidInputError,
    OperatorOverflowError,
    interior_block,
    interior_margin,
    make_ladder,
    make_quadratures,
    matrix_exponential,
)
from gkpstab.codes import ETA_QUBIT, GkpParams, build_conjugated_quadratures
from gkpstab.fock import hermitian_part, rotate, spectrum, twirl


def test_ladder_dim2():
    np.testing.assert_array_equal(make_ladder(2), np.array([[0, 1], [0, 0]], dtype=complex))


def test_ladder_superdiagonal_dim4():
    a = make_ladder(4)
    np.testing.assert_allclose(np.diag(a, 1), np.sqrt([1.0, 2.0, 3.0]))
    assert np.count_nonzero(a - np.diag(np.diag(a, 1), 1)) == 0


@pytest.mark.parametrize("dim", [2, 3, 17, 64])
def test_ladder_entries_exact(dim):
    a = make_ladder(dim)
    for n in range(1, dim):
        assert a[n - 1, n] == np.sqrt(n)
    np.testing.assert_array_equal(a.conj().T, np.diag(np.sqrt(np.arange(1.0, dim)), -1))


def test_ladder_rejects_small_dims():
    for bad in (1, 0, -3):
        with pytest.raises(DimensionError):
            make_ladder(bad)
    with pytest.raises(DimensionError):
        make_quadratures(1)


def test_quadratures_dim2():
    q, _ = make_quadratures(2)
    np.testing.assert_allclose(q, np.array([[0, 1], [1, 0]]) / np.sqrt(2))


def test_quadratures_hermitian_exactly():
    q, p = make_quadratures(30)
    assert np.abs(q - q.conj().T).max() == 0.0
    assert np.abs(p - p.conj().T).max() == 0.0


def test_ladder_from_quadratures():
    # (Q + iP)/sqrt(2) reproduces the ladder (two sqrt(2) roundings -> 1 ulp)
    dim = 12
    q, p = make_quadratures(dim)
    np.testing.assert_allclose((q + 1j * p) / np.sqrt(2), make_ladder(dim), atol=2e-15)


@pytest.mark.parametrize("dim", [5, 40])
def test_canonical_commutator_interior(dim):
    q, p = make_quadratures(dim)
    comm = q @ p - p @ q - 1j * np.eye(dim)
    assert np.abs(interior_block(comm, 1)).max() <= 1e-12
    # the single truncation artifact: corner entry -i*dim
    assert comm[dim - 1, dim - 1] == pytest.approx(-1j * dim)


def test_commutator_brute_force_dim5():
    q, p = make_quadratures(5)
    expected = np.zeros((5, 5), dtype=complex)
    expected[4, 4] = -5j
    np.testing.assert_allclose(q @ p - p @ q - 1j * np.eye(5), expected, atol=1e-14)


@pytest.mark.parametrize("dim", [2, 3, 50, 400])
def test_energy_is_exactly_diagonal(dim):
    # Q^2+P^2 has exactly zero off-diagonal and imaginary entries: the
    # envelope check exponentiates its diagonal alone
    q, p = make_quadratures(dim)
    h = q @ q + p @ p
    assert not (h - np.diag(np.diag(h))).any()
    assert not h.imag.any()
    n = np.arange(dim - 1)
    np.testing.assert_allclose(np.diag(h).real, np.append(2 * n + 1, dim - 1), rtol=1e-15)


# --- matrix exponential -----------------------------------------------------


def test_expm_zero_is_identity():
    np.testing.assert_array_equal(matrix_exponential(np.zeros((7, 7))), np.eye(7))


def test_expm_diagonal_phases():
    theta = np.linspace(-2.0, 3.0, 9)
    out = matrix_exponential(np.diag(1j * theta))
    np.testing.assert_allclose(np.diag(out), np.exp(1j * theta), atol=1e-14)


def test_expm_hermitian_generator_gives_unitary():
    dim = 300
    q, _ = make_quadratures(dim)
    u = matrix_exponential(1j * ETA_QUBIT * q)
    assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 1e-8


def test_expm_inverse_pairing():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((25, 25)) + 1j * rng.standard_normal((25, 25))
    m *= 2.0 / np.linalg.norm(m, 2)  # ||M|| = 2, well inside the regime
    prod = matrix_exponential(m) @ matrix_exponential(-m)
    assert np.abs(prod - np.eye(25)).max() <= 1e-10


@given(st.integers(2, 9), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_expm_commuting_diagonal_pairs(dim, seed):
    rng = np.random.default_rng(seed)
    da = rng.uniform(-3, 1, dim) + 1j * rng.uniform(-3, 3, dim)
    db = rng.uniform(-3, 1, dim) + 1j * rng.uniform(-3, 3, dim)
    lhs = matrix_exponential(np.diag(da)) @ matrix_exponential(np.diag(db))
    rhs = matrix_exponential(np.diag(da + db))
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_expm_keeps_a_real_input_real():
    # the rotated dissipator generator F^-1 (i eta R) F, real and non-normal
    params = GkpParams(0.15, dim=60)
    r, _ = build_conjugated_quadratures(params)
    g = rotate(1j * params.eta * r, -1)
    assert not g.imag.any()
    out = matrix_exponential(g.real)
    assert out.dtype == np.float64
    want = matrix_exponential(g)
    assert want.dtype == np.complex128
    assert np.abs(out - want).max() <= 1e-14 * np.abs(want).max()


def _rotated_generator(epsilon, dim):
    # F^-1 (i eta R) F, the real non-normal matrix the dissipator build exponentiates
    params = GkpParams(epsilon, dim=dim)
    r, _ = build_conjugated_quadratures(params)
    return rotate(1j * params.eta * r, -1).real


def _relative_1norm(got, want):
    return np.linalg.norm(got - want, 1) / np.linalg.norm(want, 1)


def test_expm_matches_mpmath_on_the_rotated_generator():
    g = _rotated_generator(0.15, 36)
    with mpmath.workdps(40):
        want = np.array(mpmath.expm(mpmath.matrix(g.tolist())).tolist(), dtype=float)
    assert _relative_1norm(matrix_exponential(g), want) <= 5e-15


def test_expm_matches_the_complex_route_at_dim_400():
    # the squaring phase of this exponential is where entries fall to
    # 1e-284 and are flushed; scipy's exponential of the complex form is
    # the reference
    g = _rotated_generator(0.05, 400)
    want = scipy.linalg.expm(g.astype(complex))
    assert _relative_1norm(matrix_exponential(g), want) <= 1e-13


def test_expm_flush_keeps_large_and_normal_entries():
    # e^700 is squared up from e^(700/256) next to an exact 1
    out = matrix_exponential(np.diag([700.0, 0.0]))
    assert out[1, 1] == 1.0 and out[0, 1] == 0.0 and out[1, 0] == 0.0
    assert out[0, 0] == pytest.approx(math.exp(700.0), rel=1e-12)
    # e^-705 is the square of e^-352.5 ≈ 8e-154, just above the flush
    # threshold sqrt(tiny) ≈ 1.5e-154; eight squarings amplify the
    # approximant's relative error at -705/256 (1.6e-15) 256-fold
    out = matrix_exponential(np.diag([-705.0, -705.0]))
    np.testing.assert_allclose(np.diag(out), math.exp(-705.0), rtol=2e-12)
    # a 1-norm below theta_13 takes no squaring, so nothing is flushed
    out = matrix_exponential(np.array([[0.0, 1e-160], [0.0, 0.0]]))
    np.testing.assert_array_equal(np.diag(out), [1.0, 1.0])
    assert out[0, 1] == pytest.approx(1e-160, rel=1e-15) and out[1, 0] == 0.0


def test_expm_rejects_nonfinite():
    bad = np.array([[0.0, np.nan], [0.0, 0.0]])
    with pytest.raises(InvalidInputError):
        matrix_exponential(bad)


def test_expm_overflow_names_norm():
    with pytest.raises(OperatorOverflowError, match="1-norm"):
        matrix_exponential(np.diag([800.0, 0.0]))


# --- interior helpers ------------------------------------------------------


def test_interior_block_bounds():
    m = np.arange(16.0).reshape(4, 4)
    np.testing.assert_array_equal(interior_block(m, 1), m[:3, :3])
    with pytest.raises(DimensionError):
        interior_block(m, 4)


def test_interior_margin_scales_with_band():
    m1 = interior_margin(200, ETA_QUBIT, order=1)
    m2 = interior_margin(200, ETA_QUBIT, order=2)
    assert m1 < m2 < 200
    assert interior_margin(50, ETA_QUBIT, order=2) == 48  # capped at dim-2


# --- rotation twirl ---------------------------------------------------------


def _random_state(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = hermitian_part(g @ g.conj().T)
    return rho / np.trace(rho).real


@given(st.integers(2, 40), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_twirl_keeps_a_density_matrix(dim, seed):
    rho = _random_state(dim, np.random.default_rng(seed))
    out = twirl(rho)
    assert np.trace(out) == np.trace(rho)
    np.testing.assert_array_equal(out, out.conj().T)
    assert np.linalg.eigvalsh(out)[0] >= -1e-14


@given(st.integers(2, 40), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_twirl_is_rotation_invariant_and_idempotent(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    out = twirl(a)
    for k in (1, 2, 3):
        np.testing.assert_array_equal(rotate(out, k), out)
    np.testing.assert_array_equal(twirl(out), out)
    # the mask is the average of the four rotations
    mean = sum(rotate(a, k) for k in range(4)) / 4.0
    assert np.abs(mean - out).max() <= 1e-15 * np.abs(a).max()


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=10, deadline=None)
def test_twirl_keeps_the_lyapunov_value(small_code, seed):
    rho = _random_state(small_code.dim, np.random.default_rng(seed))
    assert np.vdot(small_code.lyapunov, twirl(rho)) == np.vdot(small_code.lyapunov, rho)


@given(st.integers(2, 60), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["generic", "parity_even", "twirled"]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_min_eigenvalue_by_parity_blocks_matches_the_full_spectrum(dim, seed, kind, real):
    # a parity-even or twirled matrix takes the two-block route and a
    # generic one the whole matrix; a complex matrix with no imaginary part
    # goes in real arithmetic. Each gives the whole ascending spectrum
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if real:
        g.imag = 0.0
    a = hermitian_part(g) / np.sqrt(dim)
    n = np.arange(dim)
    if kind == "parity_even":
        a = np.where(np.subtract.outer(n, n) % 2 == 0, a, 0.0)
    elif kind == "twirled":
        a = twirl(a)
    want = np.linalg.eigvalsh(a)
    for x in (a, a.real) if real else (a,):
        got = spectrum(x)
        assert got.shape == want.shape and np.all(np.diff(got) >= 0)
        assert np.abs(got - want).max() <= 1e-12
