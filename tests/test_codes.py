import math

import numpy as np
import pytest

from gkpstab import (
    DegenerateGapError,
    DimensionError,
    GkpParams,
    InvalidInputError,
    build_code,
    build_codewords,
    build_conjugated_quadratures,
    build_dissipators,
    build_lyapunov,
    convergence_rate,
    kappa,
    kappa_asymptote,
    kernel_codewords,
    make_quadratures,
    mean_photon_number,
)
from gkpstab.codes import ETA_QUBIT, ETA_SENSOR, logical_basis
from gkpstab.etd import SplitPropagator
from gkpstab.fock import interior_block, matrix_exponential, rotate


# --- parameters ---------------------------------------------------------------


def test_default_truncation_rule():
    assert GkpParams(0.1).dim == 200
    assert GkpParams(0.05).dim == 400
    assert GkpParams(0.1, dim=64).dim == 64  # explicit override wins


def test_certified_regime_boundary():
    edge = 1.0 / (2.0 * ETA_QUBIT)
    assert GkpParams(edge).certified
    assert not GkpParams(edge * 1.01).certified
    assert not GkpParams(0.05, eta=1.7).certified  # unsupported lattice constant
    assert GkpParams(0.15, eta=ETA_SENSOR).certified  # sensor edge is 1/(2*sqrt(2pi)) ~ 0.199


def test_epsilon_zero_needs_explicit_dim():
    with pytest.raises(DimensionError):
        GkpParams(0.0)
    assert GkpParams(0.0, dim=30).dim == 30


# --- kappa ----------------------------------------------------------------------


def test_kappa_vanishes_at_zero():
    assert kappa(0.0) == 0.0
    assert kappa(0.0, ETA_SENSOR) == 0.0


def test_kappa_matches_asymptote_small_eps():
    ratio = kappa(1e-3) / kappa_asymptote(1e-3)
    assert 0.95 <= ratio <= 1.05


def test_kappa_positive_on_certified_grid():
    edge = 1.0 / (2.0 * ETA_QUBIT)
    for eps in np.linspace(edge / 100, edge, 100):
        assert kappa(eps) > 0.0


def test_kappa_positive_sensor_grid():
    edge = 1.0 / (2.0 * ETA_SENSOR)
    for eps in np.linspace(edge / 50, edge, 50):
        assert kappa(eps, ETA_SENSOR) > 0.0


def test_kappa_monotone_small_eps():
    grid = np.linspace(1e-4, 0.02, 60)
    vals = [kappa(e) for e in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_convergence_rate_flags():
    cert = convergence_rate(0.1)
    assert cert.certified and cert.value > 0
    # uncertified lattice: value may be anything, flag must be down
    assert not convergence_rate(0.1, eta=2.0).certified
    assert not convergence_rate(0.5).certified  # outside (0, 1/(2 eta)]


def test_kappa_reference_value():
    # frozen from the closed form, s=sinh(0.2), c=cosh(0.2), eta^2=4pi
    assert kappa(0.1) == pytest.approx(0.3843662565730155, rel=1e-12)


# --- conjugated quadratures ------------------------------------------------------


def test_eps_zero_reduces_to_quadratures():
    params = GkpParams(0.0, dim=40)
    r, s = build_conjugated_quadratures(params)
    q, p = make_quadratures(40)
    np.testing.assert_array_equal(r, q)
    np.testing.assert_array_equal(s, p)


def test_conjugated_commutators_interior():
    dim = 120
    params = GkpParams(0.1, dim=dim)
    r, s = build_conjugated_quadratures(params)
    eye = np.eye(dim)
    rs = r @ s - s @ r - 1j * eye
    assert np.abs(interior_block(rs, 2)).max() <= 1e-10
    rr = r @ r.conj().T - r.conj().T @ r - math.sinh(0.2) * eye
    assert np.abs(interior_block(rr, 2)).max() <= 1e-12
    ss = s @ s.conj().T - s.conj().T @ s - math.sinh(0.2) * eye
    assert np.abs(interior_block(ss, 2)).max() <= 1e-12


# --- dissipators and Lyapunov operator -------------------------------------------


def test_eps_zero_dissipator_is_unitary_minus_identity():
    params = GkpParams(0.0, dim=150)
    v1 = build_dissipators(params)[0]
    u = v1 + np.eye(150)
    assert np.abs(u.conj().T @ u - np.eye(150)).max() <= 1e-8


@pytest.mark.parametrize("dim", [60, 100])
def test_dissipator_order_and_inverses(dim):
    # dim=100 puts ||i eta R|| ~ 48, probing the top of the scaling regime
    params = GkpParams(0.15, dim=dim)
    v1, v2, v3, v4 = build_dissipators(params)
    eye = np.eye(dim)
    # V3/V4 are built from the negated generators: (V1+I)(V3+I) = I exactly
    assert np.abs((v1 + eye) @ (v3 + eye) - eye).max() <= 1e-8
    assert np.abs((v2 + eye) @ (v4 + eye) - eye).max() <= 1e-8


@pytest.mark.parametrize("eta", [ETA_QUBIT, ETA_SENSOR], ids=["qubit", "sensor"])
def test_dissipators_are_one_rotation_orbit(eta):
    # V_k = F^k V_0 F^-k bitwise, and each agrees with its own matrix
    # exponential (the four-expm build) to roundoff
    params = GkpParams(0.14, eta=eta, dim=143)
    vs = build_dissipators(params)
    for k, v in enumerate(vs):
        assert np.array_equal(v, rotate(vs[0], k))
    r, s = build_conjugated_quadratures(params)
    for v, g in zip(vs, (r, s, -r, -s)):
        want = matrix_exponential(1j * eta * g) - np.eye(params.dim)
        assert np.abs(v - want).max() <= 1e-12 * np.abs(want).max()


def test_lyapunov_hermitian_and_psd(small_code):
    w = small_code.lyapunov
    assert np.abs(w - w.conj().T).max() == 0.0
    eigs = np.linalg.eigvalsh(w)
    assert eigs[0] >= -1e-12 * eigs[-1]


def test_lyapunov_shape_error():
    with pytest.raises(DimensionError):
        build_lyapunov([np.eye(3), np.eye(4), np.eye(3), np.eye(3)])


def test_lyapunov_commutes_with_rotation_exactly(small_code):
    w = small_code.lyapunov
    n = np.arange(small_code.dim)
    assert not w[np.subtract.outer(n, n) % 4 != 0].any()
    # the four-product sum it replaces
    ref = sum(v.conj().T @ v for v in small_code.dissipators)
    ref = 0.5 * (ref + ref.conj().T)
    assert np.abs(w - ref).max() <= 1e-14 * np.abs(ref).max()


def test_lyapunov_rejects_non_orbit(small_code):
    vs = list(small_code.dissipators)
    for bad in (vs[:1] + vs[:1] + vs[2:], vs[:3], vs[:3] + [vs[3] * (1 + 1e-15)]):
        with pytest.raises(InvalidInputError):
            build_lyapunov(bad)


def test_lyapunov_takes_four_blocks(small_code):
    vs = list(small_code.dissipators)
    prop = SplitPropagator(vs, [1.0] * len(vs))
    prop.to_basis(small_code.lyapunov)
    assert len(prop._layout) == 4


def test_kernel_counts_small(small_code):
    # two near-zero eigenvalues for the qubit lattice at rule truncation
    ew = np.linalg.eigvalsh(small_code.lyapunov)
    assert abs(ew[0]) <= 1e-8 and abs(ew[1]) <= 1e-8
    assert ew[2] > 1.0


def test_sensor_kernel_is_one_dimensional():
    code = build_code(GkpParams(0.2, eta=ETA_SENSOR))
    ew = np.linalg.eigvalsh(code.lyapunov)
    assert abs(ew[0]) <= 1e-8
    assert ew[1] > 1.0
    assert len(code.codewords) == 1
    assert code.sx is None


# --- codewords -------------------------------------------------------------------


def test_codewords_orthonormal(small_code):
    c0, c1 = small_code.codewords
    assert abs(np.linalg.norm(c0) - 1.0) <= 1e-12
    assert abs(np.linalg.norm(c1) - 1.0) <= 1e-12
    assert abs(np.vdot(c0, c1)) <= 1e-10


def test_codewords_even_fock_support(small_code):
    for w in small_code.codewords:
        assert float(np.sum(np.abs(w[1::2]) ** 2)) <= 1e-10


def test_codewords_are_exactly_parity_even(small_code):
    sensor = build_codewords(GkpParams(0.14, eta=ETA_SENSOR))
    for w in list(small_code.codewords) + sensor:
        assert not w[1::2].any() and w[0::2].any()


def test_codeword_dissipator_residuals(small_code):
    # certified-regime small fixture; the 1e-6 contract number at eps=0.1/dim=200
    # is covered by the acceptance suite
    assert small_code.codeword_residuals().max() <= 2e-5


def test_codeword_lyapunov_quadratic_form(small_code):
    w = small_code.lyapunov
    for c in small_code.codewords:
        assert float(np.real(np.vdot(c, w @ c))) <= 1e-6


def test_codewords_match_kernel_span(small_code):
    kernel = kernel_codewords(small_code.lyapunov, 2)
    quad = np.vstack(small_code.codewords).T
    eig = np.vstack(kernel).T
    p_quad = quad @ np.linalg.inv(quad.conj().T @ quad) @ quad.conj().T
    p_eig = eig @ eig.conj().T
    assert np.linalg.norm(p_quad - p_eig, 2) <= 1e-5


def test_mean_photon_number_tracks_inverse_eps():
    # the 1/(2 eps) rule is asymptotic; at eps=0.1 it holds within 30%
    code = build_code(GkpParams(0.1, dim=200))
    target = 5.0
    for w in code.codewords:
        assert abs(mean_photon_number(w) - target) <= 0.3 * target


def test_codewords_reject_eps_zero():
    with pytest.raises(ValueError):
        build_codewords(GkpParams(0.0, dim=50))


def test_degenerate_gap_error():
    with pytest.raises(DegenerateGapError):
        kernel_codewords(np.eye(10), 2)


def test_kernel_codewords_deterministic_phase(small_code):
    a = kernel_codewords(small_code.lyapunov, 2)
    b = kernel_codewords(small_code.lyapunov, 2)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


# --- logical basis ---------------------------------------------------------------


def test_logical_basis_algebra(small_code):
    s0, sx, sy, sz = logical_basis(list(small_code.codewords))
    assert np.real(np.trace(s0)) == pytest.approx(2.0, abs=1e-10)
    for s in (sx, sy, sz):
        assert np.abs(s - s.conj().T).max() <= 1e-12
        ew = np.linalg.eigvalsh(s)
        np.testing.assert_allclose([ew[0], ew[-1]], [-1.0, 1.0], atol=1e-10)
    # Pauli algebra inside the codespace: sx @ sy = i sz on the span
    c0, c1 = small_code.codewords
    for vec in (c0, c1):
        np.testing.assert_allclose((sx @ sy) @ vec, 1j * (sz @ vec), atol=1e-10)
