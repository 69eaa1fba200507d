import math

import mpmath
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
from gkpstab import codes
from gkpstab.codes import ETA_QUBIT, ETA_SENSOR, logical_basis
from gkpstab.etd import SplitPropagator
from gkpstab.fock import interior_block, matrix_exponential, rotate, twirl
from gkpstab.hermite import hermite_functions


# --- parameters ---------------------------------------------------------------


def test_default_truncation_rule():
    assert GkpParams(0.1).dim == 200
    assert GkpParams(0.05).dim == 400
    assert GkpParams(0.1, dim=64).dim == 64  # explicit override wins


def test_certified_regime_boundary():
    edge = 1.0 / (2.0 * ETA_QUBIT)
    assert convergence_rate(edge).certified
    assert not convergence_rate(edge * 1.01).certified
    assert not convergence_rate(0.05, eta=1.7).certified  # unsupported lattice constant
    # sensor edge is 1/(2*sqrt(2pi)) ~ 0.199
    assert convergence_rate(0.15, eta=ETA_SENSOR).certified


def test_epsilon_zero_needs_explicit_dim():
    with pytest.raises(DimensionError):
        GkpParams(0.0)
    assert GkpParams(0.0, dim=30).dim == 30


@pytest.mark.parametrize("epsilon, eta, name", [
    (float("nan"), ETA_QUBIT, "epsilon"), (float("inf"), ETA_QUBIT, "epsilon"),
    (-0.1, ETA_QUBIT, "epsilon"),
    (0.1, float("nan"), "eta"), (0.1, float("inf"), "eta"), (0.1, -float("inf"), "eta"),
], ids=["nan-eps", "inf-eps", "negative-eps", "nan-eta", "inf-eta", "minus-inf-eta"])
def test_non_finite_parameters_are_rejected(epsilon, eta, name):
    # a plain ValueError, not a DimensionError: the CLI reports it as exit 2.
    # kappa and convergence_rate, which the kappa command calls without a
    # GkpParams, raise the same error
    for build in (lambda: GkpParams(epsilon, eta, dim=30), lambda: kappa(epsilon, eta),
                  lambda: convergence_rate(epsilon, eta)):
        with pytest.raises(ValueError, match=f"{name} must be finite") as exc:
            build()
        assert type(exc.value) is ValueError


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


def test_conjugated_quadratures_are_real_and_imaginary():
    # R is real and S purely imaginary in the Fock basis, exactly
    r, s = build_conjugated_quadratures(GkpParams(0.14, dim=143))
    assert not r.imag.any()
    assert not s.real.any()


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


@pytest.mark.parametrize("eta", [ETA_QUBIT, ETA_SENSOR], ids=["qubit", "sensor"])
def test_dissipator_charge_parts_are_real_or_imaginary(eta):
    # V_0 = F U F^-1 with U = e^{-i eta S} - I real, so U has an exactly zero
    # imaginary part and each charge part of V_0 is U's times the exact unit
    # phase i^c: exactly real or exactly imaginary, with no roundoff for
    # _charge_kraus's slack to absorb
    params = GkpParams(0.14, eta=eta, dim=143)
    v0 = build_dissipators(params)[0]
    assert not rotate(v0, -1).imag.any()
    n = np.arange(params.dim)
    charge = np.subtract.outer(n, n) % 4
    for c in range(4):
        part = v0[charge == c]
        assert part.any()
        assert not part.imag.any() if c % 2 == 0 else not part.real.any()


def test_lyapunov_hermitian_and_psd(small_code):
    w = small_code.lyapunov
    assert np.abs(w - w.conj().T).max() == 0.0
    eigs = np.linalg.eigvalsh(w)
    assert eigs[0] >= -1e-12 * eigs[-1]


def test_lyapunov_shape_error():
    with pytest.raises(DimensionError):
        build_lyapunov([np.eye(3), np.eye(4), np.eye(3), np.eye(3)])


def test_lyapunov_commutes_with_rotation_exactly(small_code, code200):
    for code in (small_code, code200):
        w = code.lyapunov
        assert w.dtype == np.complex128
        n = np.arange(code.dim)
        assert not w[np.subtract.outer(n, n) % 4 != 0].any()
        # the four-product sum it replaces, and the twirl of V_0† V_0 (W is
        # built from the real product of the rotated V_0 instead)
        v0 = code.dissipators[0]
        for ref in (sum(v.conj().T @ v for v in code.dissipators),
                    twirl(4.0 * (v0.conj().T @ v0))):
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


LATTICES = {
    "qubit": (ETA_QUBIT, math.sqrt(math.pi)),
    "sensor": (ETA_SENSOR, math.sqrt(2.0 * math.pi)),
}


@pytest.mark.parametrize("lattice", LATTICES)
def test_codeword_is_the_position_space_comb(lattice):
    # Mehler's formula: exp(-eps n) on the ideal comb is the Gaussian comb
    # sum_j exp(-tanh(eps) x_j^2/2) exp(-(q - x_j/cosh eps)^2 / (2 tanh eps)),
    # |0> on the even sites for the qubit lattice; at eps = 0.3, dim 150 the
    # Fock tail left out is exp(-45) ~ 3e-20
    eta, spacing = LATTICES[lattice]
    eps, dim = 0.3, 150
    word = build_codewords(GkpParams(eps, eta=eta, dim=dim))[0]
    j = np.arange(-16, 17)
    x = spacing * (j[j % 2 == 0] if lattice == "qubit" else j)
    q = np.linspace(-8.0, 8.0, 41)
    th, ch = math.tanh(eps), math.cosh(eps)
    comb = np.exp(-th * x ** 2 / 2 - (q[:, None] - x / ch) ** 2 / (2 * th)).sum(axis=1)
    psi = hermite_functions(dim, q).T @ word
    fitted = (psi @ comb) / (comb @ comb) * comb
    assert np.abs(psi - fitted).max() <= 1e-12 * np.abs(fitted).max()


@pytest.mark.parametrize("lattice", LATTICES)
def test_codewords_ignore_a_wider_lattice_cut(monkeypatch, lattice):
    eta, spacing = LATTICES[lattice]
    params = GkpParams(0.1, eta=eta)
    words = build_codewords(params)
    monkeypatch.setattr(codes, "_COMB_MARGIN", codes._COMB_MARGIN + 20 * spacing)
    for a, b in zip(words, build_codewords(params), strict=True):
        np.testing.assert_array_equal(a, b)


def mp_qubit_codewords(eps, dim):
    """|0>, |1> from exp(-eps n) sum_j h_n(j sqrt(pi)) in 40-digit arithmetic,
    summing both signs of j out to twenty sites past the library's cut."""
    with mpmath.workdps(40):
        j_max = int(math.sqrt(2 * dim + 1) / math.sqrt(math.pi)) + 25
        up = [mpmath.sqrt(mpmath.mpf(2) / (n + 1)) for n in range(dim)]
        down = [mpmath.sqrt(mpmath.mpf(n) / (n + 1)) for n in range(dim)]
        combs = [[mpmath.mpf(0)] * dim for _ in range(2)]
        for j in range(-j_max, j_max + 1):
            x = j * mpmath.sqrt(mpmath.pi)
            h_prev, h = 0, mpmath.pi ** -0.25 * mpmath.exp(-x * x / 2)
            for n in range(dim):
                combs[j % 2][n] += h
                h_prev, h = h, up[n] * x * h - down[n] * h_prev
        envelope = [mpmath.exp(-eps * n) for n in range(dim)]
        combs = [[e * c for e, c in zip(envelope, comb)] for comb in combs]
        even, odd = (mpmath.matrix(c) for c in combs)
        one = odd - (even.T * odd)[0] / (even.T * even)[0] * even
        return [np.array([float(v) for v in c / mpmath.norm(c)]) for c in (even, one)]


def test_codewords_past_the_underflow_of_h0():
    # at dim 1000 the lattice reaches |x| ~ 52, where h_0 underflows in
    # double precision while the high orders are O(0.3)
    params = GkpParams(0.02, dim=1000)
    for got, want in zip(build_codewords(params), mp_qubit_codewords(0.02, 1000), strict=True):
        assert np.abs(got - want).max() <= 1e-13


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
    sx, sy, sz = logical_basis(list(small_code.codewords))
    c0, c1 = small_code.codewords
    proj = np.outer(c0, c0.conj()) + np.outer(c1, c1.conj())
    assert np.real(np.trace(proj)) == pytest.approx(2.0, abs=1e-10)
    for s in (sx, sy, sz):
        # each lives on the codespace: P S P = S
        assert np.abs(proj @ s @ proj - s).max() <= 1e-12
        assert np.abs(s - s.conj().T).max() <= 1e-12
        ew = np.linalg.eigvalsh(s)
        np.testing.assert_allclose([ew[0], ew[-1]], [-1.0, 1.0], atol=1e-10)
    # Pauli algebra inside the codespace: sx @ sy = i sz on the span
    for vec in (c0, c1):
        np.testing.assert_allclose((sx @ sy) @ vec, 1j * (sz @ vec), atol=1e-10)
