import mpmath
import numpy as np
import pytest
from scipy.special import eval_hermite, factorial

from gkpstab.hermite import hermite_functions


def reference_hermite_function(n, q):
    norm = np.sqrt(2.0 ** n * factorial(n) * np.sqrt(np.pi))
    return eval_hermite(n, q) * np.exp(-0.5 * q * q) / norm


@pytest.mark.parametrize("n", [0, 1, 2, 7, 15])
def test_matches_polynomial_route_low_orders(n):
    q = np.linspace(-6, 6, 241)
    np.testing.assert_allclose(
        hermite_functions(n + 1, q)[n], reference_hermite_function(n, q), atol=1e-12
    )


def test_orthonormal_on_fine_grid():
    # trapezoid on a wide fine grid reproduces <h_m, h_n> = delta_mn
    n_max = 120
    q = np.linspace(-30, 30, 4001)
    h = hermite_functions(n_max, q)
    w = np.full(q.size, q[1] - q[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    gram = (h * w) @ h.T
    assert np.abs(gram - np.eye(n_max)).max() < 1e-10


def test_high_order_stays_finite():
    q = np.linspace(-40, 40, 801)
    h = hermite_functions(650, q)
    assert np.all(np.isfinite(h))
    # oscillatory region has O(1) amplitude even at n=649
    assert 0.1 < np.abs(h[649]).max() < 1.0


def mp_hermite_functions(n_max, q):
    """The same recurrence in 40-digit arithmetic, which has no underflow."""
    with mpmath.workdps(40):
        x = mpmath.mpf(q)
        rows = [mpmath.pi ** -0.25 * mpmath.exp(-x * x / 2)]
        rows.append(mpmath.sqrt(2) * x * rows[0])
        for n in range(1, n_max - 1):
            rows.append(mpmath.sqrt(mpmath.mpf(2) / (n + 1)) * x * rows[n]
                        - mpmath.sqrt(mpmath.mpf(n) / (n + 1)) * rows[n - 1])
        return np.array([float(v) for v in rows[:n_max]])


@pytest.mark.parametrize("q", [38.7, 45.0, 60.0])
def test_past_the_underflow_of_h0(q):
    # h_0(q) underflows past |q| ~ 38.6, yet h_n(q) is O(0.3) once
    # n >~ q^2/2; both signs of q, every order up to 2000
    want = mp_hermite_functions(2000, q)
    assert np.abs(want).max() > 0.3
    got = hermite_functions(2000, [q, -q])
    assert np.abs(got[:, 0] - want).max() <= 1e-13
    np.testing.assert_array_equal(got[1::2, 1], -got[1::2, 0])
    np.testing.assert_array_equal(got[0::2, 1], got[0::2, 0])


def test_underflow_region_is_zero_not_nan():
    h = hermite_functions(100, np.array([45.0]))
    assert np.all(h == 0.0)


def test_recurrence_oscillator_eigenrelation():
    # (q^2 - d^2/dq^2) h_n = (2n+1) h_n via the ladder-style identity
    # sqrt(2) q h_n = sqrt(n+1) h_{n+1} + sqrt(n) h_{n-1}
    q = np.linspace(-10, 10, 501)
    h = hermite_functions(30, q)
    for n in range(1, 29):
        lhs = np.sqrt(2.0) * q * h[n]
        rhs = np.sqrt(n + 1.0) * h[n + 1] + np.sqrt(float(n)) * h[n - 1]
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)
