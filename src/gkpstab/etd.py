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
    observables can be reached with large fixed steps until they stop moving.

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
8 for a parity-even state (sectors 0 and 2), all 16 for a generic state. A
real congruence also keeps symmetry, so a Hermitian X = S + iA (S
symmetric, A antisymmetric) is carried as the real M = S + A. The four
factors of the dissipator orbit have charges 0, 1, 2 and 3, so their
supports are disjoint and their sum K is one real matrix whose block (p, i)
is the factor of charge p - i. A jump takes two sweeps per carried sector
s: Y = X_s Kᵀ, one wide dgemm per source block (i, i + s) into row plane i
of a product buffer, then one dgemm per carried block (p, q), the rows of
K into p times the columns of Y of block q, which sums the four factors'
terms inside BLAS: 8 dgemms on the 4 blocks of the decay carrier, each
at least d/4 × d/4 × d. A factor outside K, such as the loss channel a
beside the orbit's own charge-3 factor, adds one product per carried
block into rows of Y of its own, and its block into p is columns of the
left matrix of p after K's, so no zero block is multiplied. The
phi-weights are real and symmetric in (i, j), so the state stays
Hermitian by construction. The same symmetry halves the work again for a
state that is real (A = 0, so Mᵀ = M) or purely imaginary (S = 0, Mᵀ = -M),
as the codeword projectors and S_x, S_y, S_z are: the jump, the phi-weights
and the drift keep that parity, block (j, i) stays ±(block (i, j))ᵀ, and
only the blocks with i <= j are carried: 6 of the 8 of a parity-even state,
10 of the 16 of a generic one, all 4 of a rotation-invariant one.

This real blocked form is the only one. A channel set without the π/2
rotation symmetry (one with q or p, for instance) is rejected with a
ValueError; lindblad.evolve integrates such sets with its explicit pair
where that is affordable. The propagator evolves the Hermitian part of its
input and returns an exactly Hermitian matrix.
"""

import math

import numpy as np

from .fock import hermitian_part, rotate
from .ode import _drive, _min_step

# step differences that run_to_stationary's extrapolation combines
STATIONARY_WINDOW = 4
# below this exponent e^z is subnormal
_LOG_TINY = math.log(np.finfo(float).tiny)


def _phi123(z):
    """phi_1, phi_2, phi_3 of exp on a (non-positive) real array, elementwise.

    Away from zero phi_1 = (e^z - 1)/z, phi_2 = (phi_1 - 1)/z and
    phi_3 = (phi_2 - 1/2)/z. Inside |z| < 0.25, where those subtractions
    cancel, one Horner series gives phi_3, then phi_2 = z phi_3 + 1/2 and
    phi_1 = z phi_2 + 1. e^z is an exact zero where z <= log(tiny), in
    place of the subnormals that numpy's exp computes there on a slow path;
    e^z - 1 rounds to -1 there either way, so phi_1..phi_3 are the same.
    """
    z = np.asarray(z, dtype=float)
    ez = np.exp(z, out=np.zeros_like(z), where=z > _LOG_TINY)
    small = np.abs(z) < 0.25
    zs = np.where(small, 1.0, z)
    p1 = ez - 1.0
    p1 /= zs
    p2 = p1 - 1.0
    p2 /= zs
    p3 = p2 - 0.5
    p3 /= zs
    if np.any(small):
        w = z[small]
        # sum_{j <= 13} w^j / (j + 3)!
        acc = np.full_like(w, 1.0 / math.factorial(16))
        for j in range(12, -1, -1):
            acc *= w
            acc += 1.0 / math.factorial(j + 3)
        p3[small] = acc
        acc *= w
        acc += 0.5
        p2[small] = acc
        acc *= w
        acc += 1.0
        p1[small] = acc
    return ez, p1, p2, p3


def _charge_kraus(ops, rates):
    """Real Kraus operators of sum_k r_k V_k X V_k†, each of definite charge
    under the π/2 rotation F = diag(i^n), as (charge, factor) pairs.

    A factor of charge c has entries only where m - n ≡ c (mod 4), so that
    F K F† = i^c K. A channel with a single charge (a, a†, n, a^m) is its
    own factor. A channel V with several needs its orbit F V F†, F² V F^-2,
    F³ V F^-3 among the channels, bitwise (fock.rotate) and at its rate r;
    the four then give the factors 2 sqrt(r) V_c, V_c being V masked to
    charge c, because sum_k F^k V F^-k X (F^k V F^-k)† = 4 sum_c V_c X V_c†.
    This is a unitary mixing of the Kraus operators, so the map is the same.
    A global phase of a channel is divided out; every factor must then be
    real or imaginary, to within the roundoff of that division. Raises
    ValueError naming the first channel that fails either condition.
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
                    raise ValueError(
                        f"channel {i} lacks the pi/2 rotation symmetry: it mixes charges "
                        f"{charges} and its rotation by {k} is not a channel at rate {r}")
                paired.add(j)
            weight *= 2.0
        top = v.flat[np.argmax(np.abs(v))]
        for c in charges:
            # a global phase leaves the map alone: divide it out, taking the
            # phase of the largest entry, to within the roundoff of the division
            k = np.where(charge == c, v, 0.0) * (abs(top) / top)
            slack = 4.0 * np.finfo(float).eps * np.abs(k)
            if np.all(np.abs(k.imag) <= slack):
                k = k.real
            elif np.all(np.abs(k.real) <= slack):
                k = k.imag
            else:
                raise ValueError(f"channel {i} has no real Kraus form: its charge-{c} "
                                 "part is neither real nor imaginary up to a phase of the channel")
            out.append((c, weight * k))
    return out


class SplitPropagator:
    """Krogstad exponential RK4 for d/dt X = sum_k A_k X A_k† - (G X + X G).

    ops/rates define the channels; G = sum rates * op†op / 2 always. With
    adjoint=False the Kraus factors are A_k = sqrt(r_k) V_k (forward master
    equation); with adjoint=True they are A_k = sqrt(r_k) V_k† (observable
    evolution), which shares the same drift. The channels must pass the
    rotation-symmetry detector (_charge_kraus, ValueError otherwise).

    The Fock space splits into the 4 blocks of n mod 4; basis[j] is the
    real eigenbasis of block j of G. kraus[f][j] is factor f's block from
    source block j in that basis, a view into the one stored copy of K and
    the factors outside it (the jump is described in the module docstring).
    apply_jump writes its products into one buffer Y of the propagator,
    sized for the largest sector, so a propagator must not be shared
    between threads.

    Between to_basis and from_basis the state is a carrier: a flat real
    array of the occupied blocks, those of the sectors j - i (mod 4) where
    the input has a non-zero block. The jump and the drift keep every
    sector, so the others stay exactly zero and are never stored. to_basis
    takes the Hermitian part X = S + iA (S symmetric, A antisymmetric) of
    its input and carries the real M = S + A: a real congruence keeps
    symmetry, so the jump sum K M Kᵀ carries both parts, the phi-weights act
    on M as on X, Tr X = Tr M and ||X||_F = ||M||_F. from_basis returns the
    exactly Hermitian S + iA. When the input's imaginary part is all zero,
    Mᵀ = M; when its real part is, Mᵀ = -M. Both parities are kept by the
    flow, so such a carrier holds only the blocks (i, j) with i <= j (the
    layout's sign is ±1): apply_jump reads a dropped source block as the
    signed transposed view of its mirror, from_basis fills the mirrors in
    and writes the imaginary (sign +1) or real (sign -1) part of its output
    as exact zeros, and _max_modulus, _inner and _frobenius measure the
    whole M. to_basis fixes the layout that step, apply_jump and from_basis
    use until the next to_basis, and a new layout or sign gets a new plan of
    apply_jump's products. adjoint is kept, because run rescales the trace
    of forward states only. n_jumps counts the jump applications made so
    far.
    """

    def __init__(self, ops, rates, adjoint=False):
        ops = [np.asarray(v, dtype=complex) for v in ops]
        self.dim = dim = ops[0].shape[0]
        factors = _charge_kraus(ops, rates)
        self._slices = sl = [slice(b, dim, 4) for b in range(4)]
        # a factor of charge c maps block j to j + c, so G is block-diagonal
        self._g_eigs, self.basis = [], []
        for j in range(4):
            g = sum(k[sl[(j + c) % 4], sl[j]].T @ k[sl[(j + c) % 4], sl[j]]
                    for c, k in factors) / 2.0
            ew, vecs = np.linalg.eigh(hermitian_part(g))
            self._g_eigs.append(ew)
            self.basis.append(vecs)
        if adjoint:
            factors = [(-c, k.T) for c, k in factors]
        self._charges = charges = [c % 4 for c, _ in factors]
        sizes = [len(e) for e in self._g_eigs]
        self._starts = st = np.cumsum([0] + sizes)
        # the factors are stored transposed: the rows of source block j and
        # the columns of block p hold the transposed block (p, j) of K, the
        # sum of the first factor of each charge when all four occur; every
        # other factor's block into p takes rows of its own below, in the
        # columns of p
        first = [charges.index(c) for c in range(4)] if set(charges) == {0, 1, 2, 3} else []
        self._width = width = dim if first else 0
        self._extras = [f for f in range(len(factors)) if f not in first]
        # _rows[f, j] is the first row of factor f's block from source block j
        self._rows = rows = {(f, j): st[j] for f in first for j in range(4)}
        self._heights = heights = []
        for p in range(4):
            heights.append(width)
            for f in self._extras:
                rows[f, (p - charges[f]) % 4] = heights[p]
                heights[p] += sizes[(p - charges[f]) % 4]
        # blocks of unequal size leave rows below a shorter column block unused
        self._factors = np.zeros((max(heights), dim))
        kraus = [[None] * 4 for _ in factors]
        for f, (_, k) in enumerate(factors):
            for j in range(4):
                p = (j + charges[f]) % 4
                kraus[f][j] = self._factors[rows[f, j]:rows[f, j] + sizes[j], st[p]:st[p + 1]].T
                kraus[f][j][...] = self.basis[p].T @ k[sl[p], sl[j]] @ self.basis[j]
        self.kraus = [tuple(ks) for ks in kraus]
        self._y = np.empty(max(heights) * dim)
        # a source block read as the negated transpose of its mirror
        self._neg = np.empty(max(sizes) ** 2)
        self.adjoint = adjoint
        self.n_jumps = 0
        self._layout = None

    def _set_layout(self, sectors, sign):
        """Carry the blocks (i, i + s) of every sector s, sector by sector.

        sign = ±1 declares the carrier of transpose parity Mᵀ = sign·M, and
        only the blocks with i <= j are carried: block (j, i) is
        sign·(block (i, j))ᵀ. sign = 0 carries every block of the sectors.
        """
        blocks = [(i, (i + s) % 4) for s in sorted(sectors) for i in range(4)
                  if not sign or i <= (i + s) % 4]
        if self._layout is not None and list(self._layout) == blocks and self._sign == sign:
            return
        self._sign = sign
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
        # apply_jump's plan, per sector: the products that fill the buffer
        # Y, each (carried block, mirror, right factor, rows of Y), mirror 0
        # reading the block itself and ±1 the signed transpose of its
        # mirror; then per carried block (p, q) its place in the carrier,
        # the left matrix of p and the columns of Y it multiplies
        index = {ij: n for n, ij in enumerate(blocks)}

        def source(i, j):
            return (index[i, j], 0) if (i, j) in index else (index[j, i], sign)

        st = self._starts
        self._plan = []
        for s in sorted(sectors):
            dests = [(pq, place) for pq, place in self._layout.items() if (pq[1] - pq[0]) % 4 == s]
            # the carried blocks (p, q) of a sector take every q from the
            # least to 3, so Y holds the columns [lo, dim)
            lo = st[min(q for (_, q), _ in dests)]
            y = self._y[:self._y.size // self.dim * (self.dim - lo)].reshape(-1, self.dim - lo)
            # Y = X_s Kᵀ: one row plane per source block (i, i + s)
            sources = []
            for i in range(4 if self._width else 0):
                j = (i + s) % 4
                sources.append(source(i, j) + (self._factors[st[j]:st[j + 1], lo:],
                                               y[st[i]:st[i + 1]]))
            products = []
            for (p, q), (a, b, shape) in dests:
                cols = slice(st[q] - lo, st[q + 1] - lo)
                # a factor outside K fills the rows of Y that its block into
                # p takes in the column block p of the storage
                for f in self._extras:
                    i, j = (p - self._charges[f]) % 4, (q - self._charges[f]) % 4
                    r = self._rows[f, i]
                    sources.append(source(i, j) + (self.kraus[f][j].T,
                                                   y[r:r + st[i + 1] - st[i], cols]))
                h = self._heights[p]
                products.append((a, b, shape, self._factors[:h, st[p]:st[p + 1]].T, y[:h, cols]))
            self._plan.append((sources, products))

    def _blocks(self, m):
        """The blocks of a carrier, as views keyed by (i, j)."""
        return {ij: m[a:b].reshape(shape) for ij, (a, b, shape) in self._layout.items()}

    def to_basis(self, x):
        x = np.asarray(x)
        x = x.astype(np.result_type(x, np.float64), copy=False)
        # M = S + A of the Hermitian part S + iA: symmetric for a real input,
        # antisymmetric for an imaginary one
        sign = 0
        if not np.iscomplexobj(x) or not x.imag.any():
            sign, m = 1, x.real + x.real.T
        elif not x.real.any():
            sign, m = -1, x.imag - x.imag.T
        else:
            m = x.real + x.imag
            m += (x.real - x.imag).T
        m *= 0.5
        sl = self._slices
        sectors = {(j - i) % 4 for i in range(4) for j in range(4) if m[sl[i], sl[j]].any()}
        self._set_layout(sectors | {-s % 4 for s in sectors} or {0}, sign)
        out = np.empty(self._zsum.size)
        for (i, j), blk in self._blocks(out).items():
            blk[...] = self.basis[i].T @ m[sl[i], sl[j]] @ self.basis[j]
        return out

    def from_basis(self, m):
        full = np.zeros((self.dim, self.dim))
        sl = self._slices
        for (i, j), blk in self._blocks(m).items():
            full[sl[i], sl[j]] = self.basis[i] @ blk @ self.basis[j].T
            if (j, i) not in self._layout:
                full[sl[j], sl[i]] = self._sign * full[sl[i], sl[j]].T
        # S + iA from M = S + A; a layout of sign +1 declares A = 0 and one
        # of sign -1 declares S = 0, so the other part is written as exact
        # zeros, not as the roundoff of the diagonal blocks
        out = np.zeros((self.dim, self.dim), dtype=complex)
        if self._sign >= 0:
            np.add(full, full.T, out=out.real)
        if self._sign <= 0:
            np.subtract(full, full.T, out=out.imag)
        out *= 0.5
        return out

    def apply_jump(self, m):
        """sum_k A_k X A_k† on a carrier, by the two sweeps of the module docstring."""
        self.n_jumps += 1
        blocks = [m[a:b].reshape(shape) for a, b, shape in self._layout.values()]
        out = np.empty(m.shape)
        for sources, products in self._plan:
            for n, mirror, right, y in sources:
                x = blocks[n]
                if mirror < 0:
                    x = np.negative(x, out=self._neg[:x.size].reshape(x.shape))
                np.matmul(x.T if mirror else x, right, out=y)
            for a, b, shape, left, y in products:
                np.matmul(left, y, out=out[a:b].reshape(shape))
        return out

    def _max_modulus(self, m):
        """max |X_ij| of the state a carrier holds.

        |X_ij| = sqrt((M_ij² + M_ji²)/2); block (j, i) holds the transposes
        of block (i, j), or ± block (i, j) itself when only (i, j) is
        carried. A NaN anywhere gives NaN.
        """
        blocks = self._blocks(m)
        tops = []
        for (i, j), blk in blocks.items():
            if i <= j:
                mirror = blocks[j, i].T if (j, i) in blocks else blk
                tops.append(np.max(blk * blk + mirror * mirror))
        return np.sqrt(0.5 * np.max(tops))

    def _inner(self, a, b):
        """Re Tr(X_a† X_b) of the states two carriers hold: <M_a, M_b>, in
        which a block carried without its mirror counts twice."""
        blocks = self._blocks(b)
        return float(sum((1.0 if (j, i) in self._layout else 2.0) * np.vdot(blk, blocks[i, j])
                         for (i, j), blk in self._blocks(a).items()))

    def _frobenius(self, m):
        """||X||_F of the state a carrier holds."""
        return math.sqrt(self._inner(m, m))

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
        """The weight arrays of a step of size h, the factors h/2 and h of
        the stage inputs and of the result folded in; the last two h are
        kept."""
        tbl = self._tables.get(h)
        if tbl is None:
            e_h, p1_h, p2_h, p3_h = self._phi(h)
            e_2, p1_2, p2_2, _ = self._phi(0.5 * h)
            a21 = (0.5 * h) * p1_2
            a32 = h * p2_2
            # h (phi_1 - 2 phi_2), 2h phi_2, h (4 phi_3 - phi_2),
            # h (2 phi_2 - 4 phi_3) and h (phi_1 - 3 phi_2 + 4 phi_3)
            hp2, hp3 = h * p2_h, (4.0 * h) * p3_h
            a43 = hp2 + hp2
            a41 = h * p1_h
            a41 -= a43
            b4 = hp3 - hp2
            tbl = (e_h, e_2, a21, a21 - a32, a32, a41, a43, a41 + b4, a43 - hp3, b4)
            if len(self._tables) >= 2:
                self._tables.clear()
            self._tables[h] = tbl
        return tbl

    def step(self, xb, h, n1=None):
        """One Krogstad step of size h in the G-eigenbasis.

        n1 is apply_jump(xb) when the caller already has it. With the weights
        of _phi_tables, which carry the factors h/2 and h, the stage inputs
        e_2 X + a21 N1, e_2 X + (a31 N1 + a32 N2), e_h X + (a41 N1 + a43 N3)
        and the result e_h X + (b1 N1 + b23 (N2 + N3) + b4 N4) are
        accumulated in place, every product and sum in the order of those
        expressions, so the step is bitwise that of the expressions; e_2 X
        and e_h X are formed once each, and at most five carriers are alive
        during a jump. The result is a new array.
        """
        e_h, e_2, a21, a31, a32, a41, a43, b1, b23, b4 = self._phi_tables(h)
        if n1 is None:
            n1 = self.apply_jump(xb)
        ex = e_2 * xb
        stage = a21 * n1
        stage += ex
        n2 = self.apply_jump(stage)
        np.multiply(a31, n1, out=stage)
        term = a32 * n2
        stage += term
        del term
        stage += ex
        n3 = self.apply_jump(stage)
        # stage takes b1 N1 + b23 (N2 + N3), ex takes e_h X and n2's buffer
        # the last stage input
        n2 += n3
        n2 *= b23
        np.multiply(b1, n1, out=stage)
        stage += n2
        np.multiply(e_h, xb, out=ex)
        last = np.multiply(a41, n1, out=n2)
        n3 *= a43
        last += n3
        del n2, n3
        last += ex
        n4 = self.apply_jump(last)
        del last
        n4 *= b4
        stage += n4
        ex += stage
        return ex

    def run(self, x0, t_final, record_times=(), on_record=None):
        """Adaptive propagation by step doubling with local extrapolation.

        Each attempt of ode._drive takes one step of size h and two of size
        h/2; their difference over 15 is the Richardson error estimate and
        the extrapolated value propagates. The full step and the first half
        step share their first stage, so an attempt costs 11 jump
        applications, a retry after a rejection included. ode._drive owns
        the step policy: it starts from ode.FIRST_STEP, spends at most
        ode.MAX_STEPS attempts, holds each to ode.RTOL and ode.ATOL and
        measures the error estimate and the states in _max_modulus, the max
        |X_ij| of the state a carrier holds. A forward propagator rescales
        every accepted state to the initial trace, which the exact forward
        flow conserves (the adjoint flow does not conserve trace, so it is
        left alone); the largest pre-rescale defect is
        reported in the returned stats, with the number of jump applications
        and of carried blocks. Record times are hit exactly by ode._drive's
        record policy: equal steps up to each record time, none longer than
        h / ode.SAFETY, and no reset of the step after landing on one.
        The rescale is needed: without it the trace drifts by 9.8e-8 to
        1.0e-7 over a criterion-4 decay trial (eps = 0.1, dim 200, seeds
        1000-3000, 168-169 accepted steps) and by 4.2e-7 over the
        criterion-7 protected run, both above the 1e-8 trace gates, so it
        stays until a trace-exact scheme exists.
        """
        jumps_before = self.n_jumps
        xb = self.to_basis(x0)
        target_trace = self._trace(xb)
        trace_defect = 0.0

        def attempt(xb, h):
            n1 = self.apply_jump(xb)
            big = self.step(xb, h, n1)
            half = self.step(self.step(xb, 0.5 * h, n1), 0.5 * h)
            err = (big - half) / 15.0
            return half - err, err

        def renormalize(xb):
            nonlocal trace_defect
            tr = self._trace(xb)
            trace_defect = max(trace_defect, abs(tr - target_trace))
            xb *= target_trace / tr

        record = None if on_record is None else (lambda t, xb: on_record(t, self.from_basis(xb)))
        xb, stats = _drive(
            attempt, self._max_modulus, xb, t_final, record_times,
            exponent=0.25, max_growth=4.0,
            on_accept=None if self.adjoint else renormalize, on_record=record)
        stats["n_jumps"] = self.n_jumps - jumps_before
        stats["trace_defect"] = float(abs(trace_defect))
        stats["blocks"] = len(self._layout)
        return self.from_basis(xb), stats

    def run_to_stationary(self, x0, h, residual_tol, t_max):
        """Fixed steps until ||Phi_h(X) - X||_F <= residual_tol * h * ||Phi_h(X)||_F,
        X being the last iterate or the extrapolated point Y below.

        Exact stationary points are fixed points of the step for any h, so
        the limit does not depend on h; h only sets how fast the decaying
        part dies. Phi_h is linear, so after each step the reduced-rank
        extrapolation of the last STATIONARY_WINDOW step differences
        U_j = X_{j+1} - X_j (Sidi, Vector Extrapolation Methods, SIAM 2017)
        gives a point Y = sum g_j X_j, sum g_j = 1, with its exact image
        Phi_h(Y) = sum g_j X_{j+1} and defect Phi_h(Y) - Y = sum g_j U_j at
        no jump application; the g_j minimize ||sum g_j U_j||_F. When Y
        meets the test, Phi_h(Y) is returned. Only the last iterate and the
        differences are kept. The march ends within ode._min_step of t_max
        rather than take a sliver step, whose defect would be roundoff, and
        a shorter last step is not extrapolated. n steps cost 4n jump
        applications. Returns (X, its defect over h ||Phi_h(X)||_F, reached
        time, steps); a march that never meets the test returns its last
        iterate and that step's defect.
        """
        xb, resid, t, n = self._march(self.to_basis(x0), h, residual_tol, t_max)
        return self.from_basis(xb), float(resid), t, n

    def _march(self, xb, h, residual_tol, t_max):
        """run_to_stationary on a carrier. The window is freed on return,
        before from_basis allocates the dense result."""
        t = 0.0
        n = 0
        resid = np.inf
        diffs, gram = [], np.zeros((0, 0))
        while t_max - t >= _min_step(t):
            hh = min(h, t_max - t)
            # only the differences the next extrapolation combines live
            # through the step
            drop = max(0, len(diffs) + 1 - STATIONARY_WINDOW)
            diffs, gram = diffs[drop:], gram[drop:, drop:]
            new = self.step(xb, hh)
            t += hh
            n += 1
            diff = new - xb
            xb = new
            resid = self._frobenius(diff) / (hh * max(self._frobenius(xb), 1e-300))
            if resid <= residual_tol:
                break
            if hh < h or not np.isfinite(resid):
                diffs, gram = [], np.zeros((0, 0))
                continue
            cross = np.array([self._inner(u, diff) for u in diffs + [diff]])
            diffs.append(diff)
            gram = np.block([[gram, cross[:-1, None]], [cross[None, :]]])
            stop = self._extrapolate(xb, diffs, gram, h, residual_tol)
            if stop is not None:
                return stop + (t, n)
        return xb, resid, t, n

    def _extrapolate(self, last, diffs, gram, h, residual_tol):
        """(Phi_h(Y), its defect over h ||Phi_h(Y)||_F) for the reduced-rank
        extrapolation Y = sum g_j X_j, sum g_j = 1, of the iterates whose step
        differences U_j = X_{j+1} - X_j are diffs, last being the newest
        iterate and gram the _inner products of diffs; None when the defect
        is above residual_tol or there is a single difference. g minimizes
        ||sum g_j U_j||_F, which is ||Phi_h(Y) - Y||_F."""
        if len(diffs) < 2:
            return None
        # g = (c, 1 - sum c) minimizes ||U_last + sum c_j (U_j - U_last)||_F
        rhs = gram[-1, -1] - gram[:-1, -1]
        c = np.linalg.lstsq(gram[:-1, :-1] - gram[:-1, -1:] + rhs, rhs, rcond=None)[0]
        g = np.append(c, 1.0 - c.sum())
        defect = g[-1] * diffs[-1]
        for gj, u in zip(g, diffs[:-1]):
            defect += gj * u
        # Phi_h(Y) = sum g_j X_{j+1}, and X_{j+1} = last - (U_{j+1} + ... + U_last)
        image = last.copy()
        for cj, u in zip(np.cumsum(g[:-1]), diffs[1:]):
            image -= cj * u
        ratio = self._frobenius(defect) / (h * max(self._frobenius(image), 1e-300))
        return (image, ratio) if ratio <= residual_tol else None
