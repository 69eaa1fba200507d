"""Exponential time differencing for the stiff Lindblad flow.

The generator splits as L(rho) = J(rho) - (G rho + rho G) with G = W/2
Hermitian and J completely positive. In the eigenbasis of G the drift is
elementwise, exp(t*drift) and its phi-functions are exact, and only the jump
part is treated by the (Krogstad) exponential Runge-Kutta stages. This is
immune to the e^{eps*n} stiffness of the truncated stabilizer band, which
caps explicit methods at steps of ~1/||W||.

Two properties carry the package's workloads:
  * step errors concentrate on transient fast modes; slow-manifold accuracy
    is fourth order, so trajectory runs take O(100) steps where an explicit
    5(4) pair would take millions;
  * any exact stationary point of the generator is a fixed point of the step
    for every h (the phi-function combinations telescope), so stationary
    observables can be reached with large fixed steps plus a residual test.

Adaptive runs go through ode._drive, the package's one step-size loop; this
module supplies only the attempt, a step-doubling Richardson estimate built
from three Krogstad steps.

The stages only need J applied, and J can be applied in real arithmetic. In
the Fock basis the GKP dissipators e^{±iηR} - I and e^{±iηS} - I (R real, S
purely imaginary) are two exactly real operators and one conjugate pair, and
a, a†, q and p are real or purely imaginary. Such a conjugation-closed set
has real Kraus operators for the same map, G is real and its eigenbasis is
real, so J commutes with complex conjugation and never mixes the real and
imaginary parts of X. A real congruence also keeps symmetry, so for a
Hermitian X = S + iA (S symmetric, A antisymmetric) one real sandwich of
S + A carries both parts. Every X then costs two dgemms per Kraus factor, a
quarter of the complex work: a real X (codeword projectors, S_x, S_z), a
purely imaginary one (S_y) and a complex Hermitian state alike. The
phi-weights are real and symmetric in (i, j), so every stage of an exactly
Hermitian state is exactly Hermitian. A channel set without this symmetry
(a generic complex operator with no conjugate partner of equal rate) keeps
complex Kraus factors and complex GEMMs.
"""

import numpy as np

from .ode import _drive


def _phi123(z):
    """phi_1, phi_2, phi_3 of exp on a (non-positive) real array, elementwise.

    Direct formulas away from zero; Horner series inside |z| < 0.25 where the
    subtractions cancel.
    """
    z = np.asarray(z, dtype=float)
    ez = np.exp(z)
    small = np.abs(z) < 0.25
    zs = np.where(small, 1.0, z)
    p1 = (ez - 1.0) / zs
    p2 = (ez - 1.0 - z) / (zs * zs)
    p3 = (ez - 1.0 - z - 0.5 * z * z) / (zs * zs * zs)
    if np.any(small):
        w = z[small]
        for k, out in ((1, p1), (2, p2), (3, p3)):
            acc = np.zeros_like(w)
            for j in range(13, -1, -1):
                # coefficient 1/(j+k)!
                acc = acc * w + 1.0 / _factorial(j + k)
            out[small] = acc
    return ez, p1, p2, p3


def _factorial(n, _cache={0: 1.0}):
    if n not in _cache:
        _cache[n] = n * _factorial(n - 1)
    return _cache[n]


def _real_kraus(ops, rates):
    """Real Kraus operators of sum_k r_k V_k X V_k†, or None.

    A real V_k gives sqrt(r)*V, a purely imaginary one sqrt(r)*Im V, and a
    pair (V, conj(V)) of equal rate gives sqrt(2r)*Re V and sqrt(2r)*Im V:
    r(V X V† + V̄ X V̄†) = 2r(Re V X Re Vᵀ + Im V X Im Vᵀ). This is a unitary
    mixing of the Kraus operators, so the map is the same. None when some
    channel is neither real, imaginary nor bitwise conjugate to a partner.
    """
    out, paired = [], set()
    for i, (v, r) in enumerate(zip(ops, rates)):
        if i in paired:
            continue
        if not v.imag.any():
            out.append(np.sqrt(r) * v.real)
        elif not v.real.any():
            out.append(np.sqrt(r) * v.imag)
        else:
            j = next((j for j in range(i + 1, len(ops)) if j not in paired
                      and rates[j] == r and np.array_equal(ops[j], v.conj())), None)
            if j is None:
                return None
            paired.add(j)
            out += [np.sqrt(2.0 * r) * v.real, np.sqrt(2.0 * r) * v.imag]
    return out


def _real_sandwich(factors, x):
    """sum_j a_j @ X @ a_j.T for real a_j, in real arithmetic.

    Write X = S + iA. A real congruence a Y aᵀ keeps the symmetry of Y, so
    for a Hermitian X (S symmetric, A antisymmetric) one real sandwich of
    M = S + A carries both parts: its symmetric part is the sandwich of S
    and its antisymmetric part that of A. A real or purely imaginary X of
    any symmetry is sandwiched as it is, and its result keeps its part.
    When both parts are non-zero, M is built from the Hermitian part of X,
    (Re X + Im X + (Re X - Im X)ᵀ)/2, which is bitwise Re X + Im X for an
    exactly Hermitian X, and the result is exactly Hermitian. Either way a
    jump costs two dgemms per factor.
    """
    x = np.asarray(x, dtype=complex)
    out = np.zeros(x.shape, dtype=complex)
    has_re, has_im = x.real.any(), x.imag.any()
    if has_re and has_im:
        m = x.real + x.imag
        m += (x.real - x.imag).T
        m *= 0.5
    elif has_re or has_im:
        m = np.ascontiguousarray(x.real if has_re else x.imag)
    else:
        return out
    acc = np.zeros_like(m)
    for a in factors:
        acc += a @ m @ a.T
    if not has_im:
        out.real = acc
    elif not has_re:
        out.imag = acc
    else:
        np.add(acc, acc.T, out=out.real)
        np.subtract(acc, acc.T, out=out.imag)
        out *= 0.5
    return out


class SplitPropagator:
    """Krogstad exponential RK4 for d/dt X = sum_k A_k X A_k† - (G X + X G).

    ops/rates define the channels; G = sum rates * op†op / 2 always. With
    adjoint=False the Kraus factors are A_k = sqrt(r_k) V_k (forward master
    equation); with adjoint=True they are A_k = sqrt(r_k) V_k† (observable
    evolution), which shares the same drift.

    real_form tells whether the channel set closes under complex conjugation;
    if so, kraus holds real factors of the same map and the G-eigenbasis is
    real. States stay complex arrays either way. adjoint is kept, because run
    rescales the trace of forward states only. n_jumps counts the jump
    applications made so far.

    The propagator acts on Hermitian matrices. On the real form, the basis
    changes and the jump cost two dgemms per factor for any X, and a complex
    Hermitian X gives exactly Hermitian outputs. A real or purely imaginary
    X of any symmetry gets its exact map; a complex non-Hermitian X gets the
    map of its Hermitian part.
    """

    def __init__(self, ops, rates, adjoint=False):
        ops = [np.asarray(v, dtype=complex) for v in ops]
        dim = ops[0].shape[0]
        factors = _real_kraus(ops, rates)
        self.real_form = factors is not None
        if not self.real_form:
            factors = [np.sqrt(r) * v for v, r in zip(ops, rates)]
        g = sum(k.conj().T @ k for k in factors) / 2.0
        self.g_eigs, self.basis = np.linalg.eigh(0.5 * (g + g.conj().T))
        kraus = [self.basis.conj().T @ k @ self.basis for k in factors]
        self.kraus = [np.ascontiguousarray(k.conj().T) for k in kraus] if adjoint else kraus
        self.dim = dim
        self.adjoint = adjoint
        self.n_jumps = 0
        self._zsum = -(self.g_eigs[:, None] + self.g_eigs[None, :])
        self._phi_last = (None, None)
        self._tables = {}

    def to_basis(self, x):
        if self.real_form:
            return _real_sandwich([self.basis.T], x)
        return self.basis.conj().T @ np.asarray(x, dtype=complex) @ self.basis

    def from_basis(self, xb):
        if self.real_form:
            return _real_sandwich([self.basis], xb)
        return self.basis @ xb @ self.basis.conj().T

    def apply_jump(self, xb):
        self.n_jumps += 1
        if self.real_form:
            return _real_sandwich(self.kraus, xb)
        out = np.zeros_like(xb)
        for k in self.kraus:
            out += k @ xb @ k.conj().T
        return out

    def _phi(self, s):
        """exp, phi_1, phi_2, phi_3 of s * zsum.

        The last argument is kept: a table of h needs h and h/2, and the
        table of h/2 that follows it in an attempt needs h/2 again and h/4.
        """
        if self._phi_last[0] != s:
            self._phi_last = (s, _phi123(s * self._zsum))
        return self._phi_last[1]

    def _phi_tables(self, h):
        """The weight arrays of a step of size h; the last two h are kept."""
        tbl = self._tables.get(h)
        if tbl is None:
            e_h, p1_h, p2_h, p3_h = self._phi(h)
            e_2, p1_2, p2_2, _ = self._phi(0.5 * h)
            tbl = (e_h, e_2,
                   (0.5 * h) * p1_2, p1_2 - 2.0 * p2_2, 2.0 * p2_2,
                   p1_h - 2.0 * p2_h, 2.0 * p2_h,
                   p1_h - 3.0 * p2_h + 4.0 * p3_h, 2.0 * p2_h - 4.0 * p3_h, -p2_h + 4.0 * p3_h)
            if len(self._tables) >= 2:
                self._tables.clear()
            self._tables[h] = tbl
        return tbl

    def step(self, xb, h, n1=None):
        """One Krogstad step of size h in the G-eigenbasis.

        n1 is apply_jump(xb) when the caller already has it.
        """
        e_h, e_2, a21, a31, a32, a41, a43, b1, b23, b4 = self._phi_tables(h)
        if n1 is None:
            n1 = self.apply_jump(xb)
        n2 = self.apply_jump(e_2 * xb + a21 * n1)
        n3 = self.apply_jump(e_2 * xb + (0.5 * h) * (a31 * n1 + a32 * n2))
        n4 = self.apply_jump(e_h * xb + h * (a41 * n1 + a43 * n3))
        return e_h * xb + h * (b1 * n1 + b23 * (n2 + n3) + b4 * n4)

    def run(self, x0, t_final, rtol=1e-8, atol=1e-10, record_times=(),
            on_record=None, h0=1e-3, max_steps=1_000_000):
        """Adaptive propagation by step doubling with local extrapolation.

        Each attempt of ode._drive takes one step of size h and two of size
        h/2; their difference over 15 is the Richardson error estimate and
        the extrapolated value propagates. The full step and the first half
        step share their first stage, which a rejected attempt keeps for the
        retry, so an attempt costs 11 jump applications (10 on a retry).
        ode._drive makes every accepted state Hermitian. A forward
        propagator also rescales it to the initial trace, which the exact
        forward flow conserves (the adjoint flow does not conserve trace, so
        it is left alone); the largest pre-rescale defect is reported in the
        returned stats, with the number of jump applications. Record times
        are hit exactly by step clamping.
        """
        jumps_before = self.n_jumps
        xb = self.to_basis(x0)
        target_trace = np.trace(xb)
        trace_defect = 0.0
        n1 = n1_of = None

        def attempt(xb, h):
            nonlocal n1, n1_of
            # _drive passes a new array after an accepted step and the same
            # one again after a rejection
            if xb is not n1_of:
                n1, n1_of = self.apply_jump(xb), xb
            big = self.step(xb, h, n1)
            half = self.step(self.step(xb, 0.5 * h, n1), 0.5 * h)
            err = np.abs(big - half).max() / 15.0
            scale = atol + rtol * max(np.abs(xb).max(), np.abs(half).max())
            return half + (half - big) / 15.0, err, scale

        def renormalize(xb):
            nonlocal trace_defect
            tr = np.trace(xb)
            trace_defect = max(trace_defect, abs(tr - target_trace))
            xb *= target_trace / tr

        record = None if on_record is None else (lambda t, xb: on_record(t, self.from_basis(xb)))
        xb, stats = _drive(
            attempt, xb, t_final, float(h0), record_times, exponent=0.25, max_growth=4.0,
            on_accept=None if self.adjoint else renormalize, on_record=record,
            max_steps=max_steps)
        stats["n_jumps"] = self.n_jumps - jumps_before
        stats["trace_defect"] = float(abs(trace_defect))
        return self.from_basis(xb), stats

    def run_to_stationary(self, x0, h, residual_tol, t_max):
        """Fixed-step march until ||L(X)||_F <= residual_tol * ||X||_F.

        Exact stationary points are fixed points of the step for any h, so
        the limit does not depend on h; h only sets how fast the decaying
        part dies. The jump inside each residual is the next step's first
        stage, so n steps cost 4n + 1 jump applications. Every step's state
        is made Hermitian. Returns (X, relative residual, reached time,
        steps).
        """
        xb = self.to_basis(x0)
        n1 = self.apply_jump(xb)
        t = 0.0
        n = 0
        resid = np.inf
        while t < t_max:
            hh = min(h, t_max - t)
            xb = self.step(xb, hh, n1)
            xb = 0.5 * (xb + xb.conj().T)
            t += hh
            n += 1
            n1 = self.apply_jump(xb)
            resid = np.linalg.norm(n1 + self._zsum * xb) / max(np.linalg.norm(xb), 1e-300)
            if resid <= residual_tol:
                break
        return self.from_basis(xb), float(resid), t, n
