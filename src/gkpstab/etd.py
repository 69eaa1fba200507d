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

The stages only need J applied, and the GKP channels let it run in real
arithmetic on a quarter of the state. Let F = diag(i^n) be the π/2
phase-space rotation. The four dissipators are one F-orbit,
V_k = F^k V_0 F^-k, and the loss channel a has a definite charge,
F a F† = -i a. Such a channel set has real Kraus factors of definite charge
(the masks of V_0 to m - n ≡ c mod 4), so G is block-diagonal over n mod 4
and its eigenbasis is real, and a factor of charge c sends block (i, j) of
the state to block (i + c, j + c): the 16 blocks fall into four sectors
j - i (mod 4) that never mix (the weak-symmetry reduction of Albert &
Jiang, PRA 89, 022118, 2014). The propagator carries only the sectors its
initial state occupies: 4 blocks for a rotation-invariant state (sector 0,
such as W, or fock.twirl of a state, which the decay experiment evolves),
8 for the codeword projectors and S_x, S_y, S_z (parity-even), all 16 for
a generic state. A real congruence also keeps symmetry, so a Hermitian
X = S + iA (S symmetric, A antisymmetric) is carried as the real M = S + A,
and every jump costs two dgemms per factor and per occupied block of a
quarter of the size. The phi-weights are real and symmetric in (i, j), so
the state stays Hermitian by construction.

Any other channel set runs through the same code with one complex block.
Either way the propagator evolves the Hermitian part of its input and
returns an exactly Hermitian matrix.
"""

import numpy as np

from .fock import rotate
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


def _charge_kraus(ops, rates):
    """Real Kraus operators of sum_k r_k V_k X V_k†, each of definite charge
    under the π/2 rotation F = diag(i^n), as (charge, factor) pairs; or None.

    A factor of charge c has entries only where m - n ≡ c (mod 4), so that
    F K F† = i^c K. A channel with a single charge (a, a†) is its own
    factor. A channel V with several needs its orbit F V F†, F² V F^-2,
    F³ V F^-3 among the channels, bitwise (fock.rotate) and at its rate r;
    the four then give the factors 2 sqrt(r) V_c, V_c being V masked to
    charge c, because sum_k F^k V F^-k X (F^k V F^-k)† = 4 sum_c V_c X V_c†.
    This is a unitary mixing of the Kraus operators, so the map is the same.
    Every factor must be exactly real or exactly imaginary. None when some
    channel fits neither case.
    """
    n = np.arange(ops[0].shape[0])
    charge = np.subtract.outer(n, n) % 4
    out, paired = [], set()
    for i, (v, r) in enumerate(zip(ops, rates)):
        if i in paired:
            continue
        charges = [c for c in range(4) if v[charge == c].any()]
        weight = np.sqrt(r)
        if len(charges) > 1:
            for k in (1, 2, 3):
                w = rotate(v, k)
                j = next((j for j in range(i + 1, len(ops)) if j not in paired
                          and rates[j] == r and np.array_equal(ops[j], w)), None)
                if j is None:
                    return None
                paired.add(j)
            weight *= 2.0
        for c in charges:
            k = np.where(charge == c, v, 0.0)
            if k.real.any() and k.imag.any():
                return None
            out.append((c, weight * (k.imag if k.imag.any() else k.real)))
    return out


class SplitPropagator:
    """Krogstad exponential RK4 for d/dt X = sum_k A_k X A_k† - (G X + X G).

    ops/rates define the channels; G = sum rates * op†op / 2 always. With
    adjoint=False the Kraus factors are A_k = sqrt(r_k) V_k (forward master
    equation); with adjoint=True they are A_k = sqrt(r_k) V_k† (observable
    evolution), which shares the same drift.

    The Fock space splits into nb blocks of n mod nb: nb = 4 when the
    channels pass the rotation-symmetry detector (_charge_kraus), else 1.
    real_form tells which: on the real form basis holds the real eigenbasis
    of each block of G, kraus the real factors in it, one block per source
    block, and a factor of charge c sends block (i, j) of the state to
    (i + c, j + c). Otherwise the factors, the one basis and the state are
    complex.

    Between to_basis and from_basis the state is a carrier: a flat array of
    the occupied blocks, those of the sectors j - i (mod nb) where the input
    has a non-zero block. The jump and the drift keep every sector, so the
    others stay exactly zero and are never stored. to_basis takes the
    Hermitian part X = S + iA (S symmetric, A antisymmetric) of its input,
    and from_basis returns an exactly Hermitian matrix. On the real form the
    carrier is the real M = S + A: a real congruence keeps symmetry, so the
    jump sum K M Kᵀ carries both parts, the phi-weights act on M as on X,
    Tr X = Tr M and ||X||_F = ||M||_F. to_basis fixes the layout that step,
    apply_jump and from_basis use until the next to_basis. adjoint is kept,
    because run rescales the trace of forward states only. n_jumps counts
    the jump applications made so far.
    """

    def __init__(self, ops, rates, adjoint=False):
        ops = [np.asarray(v, dtype=complex) for v in ops]
        self.dim = dim = ops[0].shape[0]
        factors = _charge_kraus(ops, rates)
        self.real_form = factors is not None
        if not self.real_form:
            factors = [(0, np.sqrt(r) * v) for v, r in zip(ops, rates)]
        nb = 4 if self.real_form else 1
        self._slices = [slice(b, dim, nb) for b in range(nb)]
        sl = self._slices
        # a factor of charge c maps block j to j + c, so G is block-diagonal
        self._g_eigs, self.basis = [], []
        for j in range(nb):
            g = sum(k[sl[(j + c) % nb], sl[j]].conj().T @ k[sl[(j + c) % nb], sl[j]]
                    for c, k in factors) / 2.0
            ew, vecs = np.linalg.eigh(0.5 * (g + g.conj().T))
            self._g_eigs.append(ew)
            self.basis.append(vecs)
        if adjoint:
            factors = [(-c, k.conj().T) for c, k in factors]
        self._charges = [c % nb for c, _ in factors]
        self.kraus = [tuple(self.basis[(j + c) % nb].conj().T @ k[sl[(j + c) % nb], sl[j]]
                            @ self.basis[j] for j in range(nb)) for c, k in factors]
        self.adjoint = adjoint
        self.n_jumps = 0
        self._layout = None

    def _set_layout(self, sectors):
        """Carry the blocks (i, i + s) of every sector s, sector by sector."""
        nb = len(self.basis)
        blocks = [(i, (i + s) % nb) for s in sorted(sectors) for i in range(nb)]
        if self._layout is not None and list(self._layout) == blocks:
            return
        self._layout, diag, start = {}, [], 0
        for i, j in blocks:
            shape = (len(self._g_eigs[i]), len(self._g_eigs[j]))
            self._layout[i, j] = (start, start + shape[0] * shape[1], shape)
            if i == j:
                diag.append(start + np.arange(shape[0]) * (shape[0] + 1))
            start += shape[0] * shape[1]
        self._diag = np.concatenate(diag) if diag else np.zeros(0, dtype=int)
        self._zsum = np.concatenate([-(self._g_eigs[i][:, None] + self._g_eigs[j][None, :]).ravel()
                                     for i, j in blocks])
        self._phi_last = (None, None)
        self._tables = {}

    def _blocks(self, m):
        """The blocks of a carrier, as views keyed by (i, j)."""
        return {ij: m[a:b].reshape(shape) for ij, (a, b, shape) in self._layout.items()}

    def to_basis(self, x):
        x = np.asarray(x, dtype=complex)
        if self.real_form:
            # M = S + A of the Hermitian part S + iA
            m = x.real + x.imag
            m += (x.real - x.imag).T
        else:
            m = x + x.conj().T
        m *= 0.5
        sl, nb = self._slices, len(self._slices)
        sectors = {(j - i) % nb for i in range(nb) for j in range(nb) if m[sl[i], sl[j]].any()}
        self._set_layout(sectors | {-s % nb for s in sectors} or {0})
        out = np.empty(self._zsum.size, dtype=m.dtype)
        for (i, j), blk in self._blocks(out).items():
            blk[...] = self.basis[i].conj().T @ m[sl[i], sl[j]] @ self.basis[j]
        return out

    def from_basis(self, m):
        full = np.zeros((self.dim, self.dim), dtype=m.dtype)
        sl = self._slices
        for (i, j), blk in self._blocks(m).items():
            full[sl[i], sl[j]] = self.basis[i] @ blk @ self.basis[j].conj().T
        out = np.empty((self.dim, self.dim), dtype=complex)
        if self.real_form:
            # S + iA from M = S + A
            np.add(full, full.T, out=out.real)
            np.subtract(full, full.T, out=out.imag)
        else:
            np.add(full, full.conj().T, out=out)
        out *= 0.5
        return out

    def apply_jump(self, m):
        self.n_jumps += 1
        nb = len(self.basis)
        out = np.zeros_like(m)
        blocks, into = self._blocks(m), self._blocks(out)
        for c, k in zip(self._charges, self.kraus):
            for (i, j), blk in blocks.items():
                into[(i + c) % nb, (j + c) % nb] += k[i] @ blk @ k[j].conj().T
        return out

    def _max_modulus(self, m):
        """max |X_ij| of the state a carrier holds.

        On the real form |X_ij| = sqrt((M_ij² + M_ji²)/2); block (j, i)
        holds the transposes of block (i, j).
        """
        if not self.real_form:
            return np.abs(m).max()
        blocks = self._blocks(m)
        return np.sqrt(0.5 * max(np.max(blk * blk + blocks[j, i].T * blocks[j, i].T)
                                 for (i, j), blk in blocks.items() if i <= j))

    def _trace(self, m):
        return m[self._diag].sum()

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
        The error is the max-modulus of the state's difference. A forward
        propagator rescales every accepted state to the initial trace, which
        the exact forward flow conserves (the adjoint flow does not conserve
        trace, so it is left alone); the largest pre-rescale defect is
        reported in the returned stats, with the number of jump applications
        and of carried blocks. Record times are hit exactly by step clamping.
        The rescale is needed: without it the trace drifts by 1.2e-7 over a
        criterion-4 decay trial (eps = 0.1, dim 200, seeds 1-3, 187 accepted
        steps) and by 3.7e-7 over the criterion-7 protected run, both above
        the 1e-8 trace gates, so it stays until a trace-exact scheme exists.
        """
        jumps_before = self.n_jumps
        xb = self.to_basis(x0)
        target_trace = self._trace(xb)
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
            err = self._max_modulus(big - half) / 15.0
            scale = atol + rtol * max(self._max_modulus(xb), self._max_modulus(half))
            return half + (half - big) / 15.0, err, scale

        def renormalize(xb):
            nonlocal trace_defect
            tr = self._trace(xb)
            trace_defect = max(trace_defect, abs(tr - target_trace))
            xb *= target_trace / tr

        record = None if on_record is None else (lambda t, xb: on_record(t, self.from_basis(xb)))
        xb, stats = _drive(
            attempt, xb, t_final, float(h0), record_times, exponent=0.25, max_growth=4.0,
            on_accept=None if self.adjoint else renormalize, on_record=record,
            max_steps=max_steps)
        stats["n_jumps"] = self.n_jumps - jumps_before
        stats["trace_defect"] = float(abs(trace_defect))
        stats["blocks"] = len(self._layout)
        return self.from_basis(xb), stats

    def run_to_stationary(self, x0, h, residual_tol, t_max):
        """Fixed-step march until ||L(X)||_F <= residual_tol * ||X||_F.

        Exact stationary points are fixed points of the step for any h, so
        the limit does not depend on h; h only sets how fast the decaying
        part dies. The jump inside each residual is the next step's first
        stage, so n steps cost 4n + 1 jump applications. Returns (X,
        relative residual, reached time, steps).
        """
        xb = self.to_basis(x0)
        n1 = self.apply_jump(xb)
        t = 0.0
        n = 0
        resid = np.inf
        while t < t_max:
            hh = min(h, t_max - t)
            xb = self.step(xb, hh, n1)
            t += hh
            n += 1
            n1 = self.apply_jump(xb)
            resid = np.linalg.norm(n1 + self._zsum * xb) / max(np.linalg.norm(xb), 1e-300)
            if resid <= residual_tol:
                break
        return self.from_basis(xb), float(resid), t, n
