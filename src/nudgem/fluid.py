"""Type-1 waiting and response times via a Markov-modulated fluid queue
with jumps.

The fluid level represents the virtual waiting time of a type-1 arrival;
type-2 jobs at the back of the queue that could still be passed are held
in the background state instead of the fluid. Models are provided for
FCFS and Nudge-M (Nudge-1 is Nudge-M at m = 1); the stationary fluid
distribution comes from the minimal nonnegative solution of an algebraic
Riccati equation, solved with the structure-preserving doubling algorithm
(SDA).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .phtype import ComplexityError, JobMix, MatrixExpDist, kron_sum, reachable

# Riccati stopping criteria.
RICCATI_STEP_TOL = 1e-14
RICCATI_RESIDUAL_TOL = 1e-12
RICCATI_MAX_ITER = 200
# Rows of Psi are return probabilities, so each sums to at most 1.
RICCATI_ROW_SUM_TOL = 1e-10
# State count grows as 2^m (n1 + 2 n2).
NUDGE_M_CAP = 10
# _inv_m_matrix inverts blocks up to this size by np.linalg.inv. On one
# or two OpenBLAS threads leaves of 48 to 127 ran the SDA's sizes
# (n- = 2^m, |R| = 2^(m-1) (n1 + 2 n2)) at one speed; a leaf of 128
# inverts 128-sized blocks whole, 1.9 times slower at n = 128 and 1.5
# times at n = 256 (one thread).
INV_LEAF = 96


class SparseRows:
    """A sparse matrix as padded row lists, numpy only. ``idx`` and ``val``
    are rows x k, k the largest nonzero count of a row (at least 1): row i
    holds its nonzeros in ascending column order, then padding with index
    0 and value 0. No stored entry is zero, so ``val != 0`` marks them.

    ``a @ x`` is the gather sum_j val[:, j] x[idx[:, j]], summed in that
    order, and ``x @ a`` is ``(a.T @ x.T).T``; ``np.asarray(a)`` densifies.
    numpy's operators defer to these methods (``__array_ufunc__`` is None),
    so no ufunc densifies it unasked."""

    __array_ufunc__ = None

    def __init__(self, idx: np.ndarray, val: np.ndarray, n_cols: int):
        self.idx, self.val = idx, val
        self.shape = (idx.shape[0], n_cols)

    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "SparseRows":
        """The matrix with entries vals at (rows, cols): repeated positions
        are summed in the given order, as np.add.at sums them, and zeros
        are dropped."""
        order = np.lexsort((cols, rows))  # stable
        rows, cols, vals = rows[order], cols[order], vals[order]
        first = np.ones(rows.size, dtype=bool)
        first[1:] = (np.diff(rows) != 0) | (np.diff(cols) != 0)
        summed = np.zeros(np.count_nonzero(first))
        np.add.at(summed, np.cumsum(first) - 1, vals)
        rows, cols, vals = rows[first], cols[first], summed
        keep = vals != 0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        counts = np.bincount(rows, minlength=shape[0])
        slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        idx = np.zeros((shape[0], max(int(counts.max(initial=0)), 1)), dtype=np.intp)
        val = np.zeros(idx.shape)
        idx[rows, slot] = cols
        val[rows, slot] = vals
        return cls(idx, val, shape[1])

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SparseRows":
        rows, cols = np.nonzero(a)
        return cls.from_coo(rows, cols, a[rows, cols], a.shape)

    @classmethod
    def scatter(cls, shape, *parts) -> "SparseRows":
        """The matrix that a = zeros(shape); a[rows, cols] = vals, for each
        (rows, cols, vals) of parts (broadcast, no position twice), fills."""
        parts = [np.broadcast_arrays(*part) for part in parts]
        return cls.from_coo(*(np.concatenate([part[k].ravel() for part in parts])
                              for k in range(3)), shape)

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def nbytes(self) -> int:
        return self.idx.nbytes + self.val.nbytes

    def coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of the nonzeros, in row-major order."""
        r, j = np.nonzero(self.val)
        return r, self.idx[r, j], self.val[r, j]

    def row_sums(self) -> np.ndarray:
        return self.val.sum(axis=1)

    def diagonal(self) -> np.ndarray:
        r, c, v = self.coo()
        out = np.zeros(min(self.shape))
        out[r[r == c]] = v[r == c]
        return out

    @property
    def T(self) -> "SparseRows":
        r, c, v = self.coo()
        return SparseRows.from_coo(c, r, v, self.shape[::-1])

    def _select(self, rows, cols):
        """coo() of the sub-block on the index arrays rows and cols (all
        when None), with its shape."""
        idx, val = ((self.idx, self.val) if rows is None
                    else (self.idx[rows], self.val[rows]))
        n_cols = self.shape[1]
        if cols is not None:
            pos = np.full(n_cols, -1)
            pos[cols] = np.arange(len(cols))
            idx, n_cols = pos[idx], len(cols)
        r, j = np.nonzero((val != 0) & (idx >= 0))
        return r, idx[r, j], val[r, j], (idx.shape[0], n_cols)

    def take(self, rows=None, cols=None) -> "SparseRows":
        """The sub-block a[np.ix_(rows, cols)], sparse."""
        return SparseRows.from_coo(*self._select(rows, cols))

    def dense(self, rows=None, cols=None) -> np.ndarray:
        """The sub-block a[np.ix_(rows, cols)], dense."""
        r, c, v, shape = self._select(rows, cols)
        out = np.zeros(shape)
        out[r, c] = v
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self.dense().astype(dtype or float, copy=False)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if not self.shape[1]:
            return np.zeros(self.shape[:1] + x.shape[1:])
        w = self.val if x.ndim == 1 else self.val[:, :, None]
        out = x[self.idx[:, 0]]
        out *= w[:, 0]
        for j in range(1, self.idx.shape[1]):
            term = x[self.idx[:, j]]
            term *= w[:, j]
            out += term
        return out

    def __rmatmul__(self, x: np.ndarray) -> np.ndarray:
        return (self.T @ np.asarray(x).T).T


# The four blocks indexed by S+, stored as SparseRows.
SPARSE_BLOCKS = ("t_mp", "t_pm", "t_pp", "p_mp")


@dataclass(frozen=True)
class RiccatiBlocks:
    """The four generator blocks that Psi's equation
    T_+- + Psi T_-- + T_++ Psi + Psi T_-+ Psi = 0 reads: T_-- dense, the
    three blocks indexed by S+ as ``SparseRows``."""

    t_mm: np.ndarray      # S- x S-
    t_mp: SparseRows      # S- x S+
    t_pm: SparseRows      # S+ x S-
    t_pp: SparseRows      # S+ x S+

    @property
    def n_minus(self) -> int:
        return self.t_mm.shape[0]

    @property
    def n_plus(self) -> int:
        return self.t_pp.shape[0]

    def restrict(self, r: np.ndarray) -> "RiccatiBlocks":
        """The blocks on the S+ states selected by the boolean mask r."""
        ri = np.flatnonzero(r)
        return RiccatiBlocks(t_mm=self.t_mm, t_mp=self.t_mp.take(cols=ri),
                             t_pm=self.t_pm.take(rows=ri),
                             t_pp=self.t_pp.take(ri, ri))


@dataclass(frozen=True)
class FluidModel(RiccatiBlocks):
    """Partitioned matrices of an MMFQ with jumps: the Riccati blocks and
    the level-0 boundary. The level stays at 0 only in one state, the
    empty system, so the boundary is two vectors.

    The blocks indexed by S+ (t_mp, t_pm, t_pp and p_mp) are stored as
    ``SparseRows``: under 1% of their entries are nonzero at m = 8, and
    dense they would be the model's largest arrays (n+ = 2^(m-1) (n1 + n2)
    + 2^m n2). Blocks given as dense arrays are converted. T_-- (n- x n-)
    and the two level-0 vectors stay dense."""

    t_star_0p: np.ndarray  # S+: rates out of level 0; lambda_0 their sum
    p_m0: np.ndarray      # S-: P[stay at level 0], else jump by p_mp
    p_mp: SparseRows      # S- x S+

    def __post_init__(self):
        for name in SPARSE_BLOCKS:
            block = getattr(self, name)
            if not isinstance(block, SparseRows):
                object.__setattr__(self, name, SparseRows.from_dense(block))
        nm, np_ = self.n_minus, self.n_plus
        assert self.t_mp.shape == (nm, np_)
        assert self.t_pm.shape == (np_, nm)
        assert self.t_star_0p.shape == (np_,)
        assert self.p_m0.shape == (nm,)
        assert self.p_mp.shape == (nm, np_)
        # row sums block by block: no (n- + n+)^2 generator is formed
        gen = np.concatenate([self.t_mm.sum(axis=1) + self.t_mp.row_sums(),
                              self.t_pm.row_sums() + self.t_pp.row_sums()])
        if np.max(np.abs(gen)) > 1e-10:
            raise ValueError("fluid generator rows must sum to zero")
        if np.max(np.abs(self.p_m0 + self.p_mp.row_sums() - 1.0)) > 1e-10:
            raise ValueError("boundary transition rows must sum to one")
        if np.any(self.t_star_0p < 0) or not self.t_star_0p.sum() > 0:
            raise ValueError("level-0 exit rates must be >= 0 with a positive sum")


def riccati_residual(model: RiccatiBlocks, psi: np.ndarray) -> float:
    """||T_+- + Psi T_-- + T_++ Psi + Psi (T_-+ Psi)||_inf.

    T_++, T_-- and T_-+ have a few nonzeros per row (under 1% of their
    entries at m = 8), so their products are gathers over padded row
    lists (``SparseRows``), and the one dense product Psi (T_-+ Psi) is
    n+ x n- x n-, where (Psi T_-+) Psi would be n+ x n+ x n- twice. The
    rounding differs from the dense form's by a few ulps of the terms.
    """
    res = model.t_pp @ psi
    res += (SparseRows.from_dense(model.t_mm.T) @ psi.T).T
    res += psi @ (model.t_mp @ psi)
    rows, cols, vals = model.t_pm.coo()
    res[rows, cols] += vals
    return float(np.linalg.norm(res, np.inf))


def _inv_m_matrix(a: np.ndarray) -> np.ndarray:
    """Overwrites the nonsingular M-matrix a with its inverse, and returns
    it: recursive 2 x 2 block elimination, split at half its size;
    np.linalg.inv up to INV_LEAF.

    With i11 = A11^{-1}, t = i11 A12, u = A21 i11 and
    i22 = (A22 - A21 t)^{-1}, the inverse is [[i11 + (t i22) u, -t i22],
    [-i22 u, i22]]. A Schur complement of a nonsingular M-matrix is one
    too (Fiedler & Ptak, Czech. Math. J. 12, 1962), so no block needs
    pivoting, and the work is matrix products. As i11, i22 >= 0 and
    A12, A21 <= 0, only the Schur complement subtracts; every other block
    is a sum of nonnegative terms. Each block of the inverse overwrites the
    block of a that is no longer read: A11, then A22 (through the Schur
    complement), A12 and A21, so the work space is t, u and one product.
    """
    n = a.shape[0]
    if n <= INV_LEAF:
        a[...] = np.linalg.inv(a)
        return a
    k = n // 2
    a11, a12, a21, a22 = a[:k, :k], a[:k, k:], a[k:, :k], a[k:, k:]
    _inv_m_matrix(a11)
    t, u = a11 @ a12, a21 @ a11
    a22 -= a21 @ t
    _inv_m_matrix(a22)
    np.matmul(t, a22, out=a12)
    del t
    a11 += a12 @ u
    np.matmul(a22, u, out=a21)
    np.negative(a12, out=a12)
    np.negative(a21, out=a21)
    return a


# Rows per block of _update_by_rows: a block's product is 256 x |R|,
# against |R| x |R| for the whole one.
MATMUL_ROWS = 256


def _update_by_rows(op, out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """out = op(out, a @ b) in place (op np.add or np.subtract),
    MATMUL_ROWS rows at a time, so no out-sized temporary is made. The
    rows of a block's product are those of the whole product to the last
    bit: each entry is the same dot product over the whole inner
    dimension."""
    for i in range(0, out.shape[0], MATMUL_ROWS):
        block = out[i:i + MATMUL_ROWS]
        op(block, a[i:i + MATMUL_ROWS] @ b, out=block)


def _shift_minus(x: np.ndarray, s: float) -> np.ndarray:
    """x <- s I - x in place, entry for entry as s * np.eye(n) - x:
    0 - x off the diagonal, and (0 - x) + s = s - x on it."""
    np.subtract(0.0, x, out=x)
    x[np.diag_indices_from(x)] += s
    return x


def _sda(model: RiccatiBlocks) -> Tuple[np.ndarray, int]:
    """SDA iterate H_k and k, the step that stopped.

    Cast as the M-matrix equation X C X - X D - A X + B = 0 with
    A = -T_++, D = -T_--, B = T_+-, C = T_-+ and the shift
    gamma = max diag(A, D); r = n+ and n = n-. Set-up: D_g^{-1} is formed
    once and W = A_g - B (D_g^{-1} C) is inverted once, the one r x r
    inverse of the solve. Then F = I - 2 gamma W^{-1},
    G = 2 gamma (D_g^{-1} C) W^{-1}, H = 2 gamma (W^{-1} B) D_g^{-1} and,
    as Woodbury gives V^{-1} = D_g^{-1} + (D_g^{-1} C) W^{-1} B D_g^{-1}
    for V = D_g - C A_g^{-1} B, E = I - 2 gamma D_g^{-1} - (D_g^{-1} C) H.
    W is formed in one r x r buffer from the sparse T_++, inverted in
    place, and then becomes F; D_g^{-1} and D_g^{-1} C are dropped before
    the loop, and B and C are dense (r x n) for the set-up's products only:
    the loop reads T_-+ and T_++ through their row lists.
    Each doubling step inverts only the n x n matrix I - GH: with
    X = (I - GH)^{-1}, the push-through identity
    F (I - HG)^{-1} H = (F H) X and (I - HG)^{-1} = I + H X G give
    H <- H + (F H X) E, G <- G + (E X)(G F), F <- F F + (F H X)(G F)
    and E <- (E X) E. A step costs one r x r x r product (F F) and
    O(r^2 n + r n^2 + n^3) more. Every added term is a sum of nonnegative
    matrices (E, F, G, H, D_g^{-1}, W^{-1} and X are >= 0), so no
    cancellation is added. D_g, W and I - GH are nonsingular M-matrices
    (Guo, Iannazzo & Meini, 2007), so their inverses come from
    ``_inv_m_matrix``, which subtracts only to form its Schur complements
    and sums nonnegative terms for every other block: they add no
    cancellation either. A step's largest live set is at F F: F and F F,
    its two r x r arrays, and H, G, F H X and G F, which are r x n.

    The loop stops when H moves by at most RICCATI_STEP_TOL or when
    ||R(H) 1||_inf <= RICCATI_RESIDUAL_TOL, with R(H) the residual
    T_+- + H T_-- + T_++ H + H T_-+ H, so
    R(H) 1 = T_+- 1 + H (T_-- 1) + T_++ (H 1) + H (T_-+ (H 1)) costs
    matrix-vector products only. The iterates rise monotonically to Psi
    (Guo, Lin & Xu, Numer. Math. 103, 2006; Guo, Iannazzo & Meini, SIAM
    J. Matrix Anal. Appl. 29(4), 2007) and R(H_k) >= 0 entrywise up to
    rounding, so ||R(H) 1||_inf is ||R(H)||_inf up to rounding. Measured
    on 941 solves (the 32 test oracle models; 300 random 1-3-phase mixes,
    each as Nudge-M with m <= 5, FCFS and Nudge-1, at lambda up to 0.995,
    some with p in {0, 1}; fig5a, fig5b and fig9a at m = 8, 9, 10), every
    entry of every iterate's dense residual was at least -8.4e-15, and
    this stop gave a Psi bit-identical to that of a stop on the full
    residual. ``solve_riccati`` still checks the full residual of Psi.
    The test runs on the new H before E, F and G are updated, since the
    stopping step never uses them.
    """
    b = np.asarray(model.t_pm)
    n = model.n_minus
    gamma = max(np.max(-model.t_pp.diagonal()), np.max(-np.diag(model.t_mm)))
    idg = _inv_m_matrix(gamma * np.eye(n) - model.t_mm)
    dgc = idg @ np.asarray(model.t_mp)
    # W = (gamma I - T_++) - B dgc: A_g = gamma I - T_++ entry for entry
    iw = _shift_minus(np.array(model.t_pp), gamma)
    _update_by_rows(np.subtract, iw, b, dgc)
    _inv_m_matrix(iw)
    h = 2.0 * gamma * (iw @ b) @ idg
    pm1, mm1 = b.sum(axis=1), model.t_mm.sum(axis=1)
    del b
    e = np.eye(n) - 2.0 * gamma * idg - dgc @ h
    g = 2.0 * gamma * dgc @ iw
    del idg, dgc
    f = iw  # F = I - 2 gamma W^{-1}, in W's buffer
    del iw
    f *= 2.0 * gamma
    _shift_minus(f, 1.0)

    for steps in range(1, RICCATI_MAX_ITER + 1):
        igh = _inv_m_matrix(_shift_minus(g @ h, 1.0))
        fhi = (f @ h) @ igh
        step = fhi @ e
        h_new = h + step
        # ||H_new - H||_inf, as np.linalg.norm forms it, in step's buffer
        np.abs(np.subtract(h_new, h, out=step), out=step)
        if step.sum(axis=1).max() <= RICCATI_STEP_TOL:
            break
        del step
        h = h_new
        h1 = h_new.sum(axis=1)
        r1 = (pm1 + h_new @ mm1 + model.t_pp @ h1
              + h_new @ (model.t_mp @ h1))
        if np.max(np.abs(r1)) <= RICCATI_RESIDUAL_TOL:
            break
        gf = g @ f
        ei = e @ igh
        del igh
        g += ei @ gf
        e = ei @ e
        del ei
        f = f @ f
        _update_by_rows(np.add, f, fhi, gf)
        del fhi, gf
    return h_new, steps


def reachable_plus(model: RiccatiBlocks) -> np.ndarray:
    """Boolean mask of the S+ states R that Psi's equation reaches: the
    states T_-+ enters, closed under the moves of T_++. Every other S+
    state (the set D) has a zero column in T_-+ and in T_++[R], so it is
    entered only from D or from the level-0 boundary."""
    start = np.zeros(model.n_plus, dtype=bool)
    start[model.t_mp.coo()[1]] = True
    return reachable(start, *model.t_pp.coo()[:2])


def _components(a: SparseRows) -> list:
    """Connected components of the nonzero pattern of the square matrix a,
    each as ascending indices, by label propagation: each state takes the
    smallest label among itself and its neighbours until none changes, so
    a component's label is its smallest index."""
    rows, cols, _ = a.coo()
    label = np.arange(a.shape[0])
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        np.minimum.at(new, cols, label[rows])
        if np.array_equal(new, label):
            break
        label = new
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def _d_groups(model: RiccatiBlocks, d: np.ndarray) -> list:
    """The connected components of T_++[D,D] for the S+ states d, grouped
    by equal blocks: (B, comps) pairs, comps holding one component per row
    as positions in d, in the order of ``_components``; none when d is
    empty. ``solve_riccati`` builds them once and reports them."""
    if not d.size:
        return []
    b_dd = model.t_pp.take(d, d)
    groups: Dict[Tuple[int, bytes], list] = {}
    for comp in _components(b_dd):
        block = b_dd.dense(comp, comp)
        groups.setdefault((comp.size, block.tobytes()), [block]).append(comp)
    return [(block, np.array(comps)) for block, *comps in groups.values()]


def _boundary_rows(model: RiccatiBlocks, r: np.ndarray, psi_r: np.ndarray,
                   groups: list) -> np.ndarray:
    """Psi[D] for D = ~r from Psi[R] = psi_r.

    As T_-+[:, D] = 0, the rows D of the Riccati equation are the linear
    Sylvester equation T_++[D,D] X + X U = -(T_+-[D] + T_++[D,R] Psi[R])
    with U = T_-- + T_-+[:, R] Psi[R]. T_++[D,D] is split into connected
    components (``_d_groups``, given as groups); components with equal
    blocks B share one solve of
    (B (x) I + I (x) U^T) vec(X) = vec(rhs), X vectorized by rows, with one
    right-hand side per component. For Nudge-M that is one n2 n- system
    with 2^(m-1) right-hand sides.
    """
    d, ri = np.flatnonzero(~r), np.flatnonzero(r)
    n = model.n_minus
    u = model.t_mm + model.t_mp.take(cols=ri) @ psi_r
    rhs = model.t_pm.dense(d) + model.t_pp.take(d, ri) @ psi_r
    out = np.empty((d.size, n))
    for block, comps in groups:
        nb = block.shape[0]
        x = np.linalg.solve(kron_sum(block, u.T),
                            -np.stack([rhs[c].ravel() for c in comps], axis=1))
        for k, c in enumerate(comps):
            out[c] = x[:, k].reshape(nb, n)
    return out


def solve_riccati(model: FluidModel,
                  report: Optional[dict] = None) -> np.ndarray:
    """Minimal nonnegative solution Psi of
    T_+- + Psi T_-- + T_++ Psi + Psi T_-+ Psi = 0.

    Only the S+ states R of ``reachable_plus`` go through SDA (``_sda``).
    The others, D, are entered from neither S- nor R. For Nudge-M they are
    the subset-3 states with s_1 = 0, "add a type-2 job and return to s",
    which only the level-0 boundary enters (through t_star_0p and p_mp).
    With T_++[R,D] = 0 and T_-+[:, D] = 0 the rows R of the equation
    involve Psi[R] alone, and W = A_g - B D_g^{-1} C is block-triangular,
    so in exact arithmetic every SDA iterate's rows R are those of the
    problem restricted to R. SDA therefore runs on the restricted blocks
    (2^(m-1) (n1 + 2 n2) states for Nudge-M), and Psi[D] follows from one
    linear Sylvester solve (``_boundary_rows``), which has no rows when D
    is empty (FCFS).

    Raises FloatingPointError when a row of Psi sums above
    1 + RICCATI_ROW_SUM_TOL (Psi[i, j] is the probability that the fluid,
    started up in phase i, first returns to its level in phase j, so
    every row of the minimal solution sums to at most 1), or when the
    residual of the whole equation exceeds RICCATI_RESIDUAL_TOL. A dict
    ``report``, when given, receives the mask R as ``report["reachable"]``,
    the groups of D components (``_d_groups``) as ``report["groups"]``,
    that residual, the one checked, as ``report["residual"]`` and the
    number of SDA doubling steps as ``report["steps"]``, so a caller need
    not compute them again.
    """
    r = reachable_plus(model)
    groups = _d_groups(model, np.flatnonzero(~r))
    # Psi is allocated after the SDA, whose peak it would otherwise raise
    psi_r, steps = _sda(model.restrict(r))
    psi = np.empty((model.n_plus, model.n_minus))
    psi[r] = psi_r
    del psi_r
    psi[~r] = _boundary_rows(model, r, psi[r], groups)
    np.clip(psi, 0.0, None, out=psi)
    rows = float(np.max(psi.sum(axis=1)))
    if rows > 1.0 + RICCATI_ROW_SUM_TOL:
        raise FloatingPointError(f"a row of Psi sums to 1 + {rows - 1.0:.3e}")
    res = riccati_residual(model, psi)
    if res > RICCATI_RESIDUAL_TOL:
        raise FloatingPointError(f"Riccati residual {res:.3e} above "
                           f"{RICCATI_RESIDUAL_TOL:.0e}")
    if report is not None:
        report.update(reachable=r, groups=groups, residual=res, steps=steps)
    return psi


@dataclass(frozen=True)
class FluidSolution:
    """Stationary fluid: Psi, pi_+ (normalized so eta = 1), the zero-level
    mass c0 and the law of the level W_1 (``stationary_fluid``).
    ``perron_shift`` is rho - 1, rho the Perron root of Psi P~ from one
    Newton step at 1: 0 for an exact Psi. ``riccati_residual`` is the
    residual ``solve_riccati`` checked Psi against, ``sda_steps`` the
    number of doubling steps it took and ``n_plus_solved`` the number |R|
    of S+ states they ran on."""

    model: FluidModel
    psi: np.ndarray
    pi_plus: np.ndarray
    c0: float
    w1: MatrixExpDist
    perron_shift: float
    riccati_residual: float
    sda_steps: int
    n_plus_solved: int

    def w1_ccdf(self, t):
        """P[W_1 > t] at a scalar t or on a 1-D grid."""
        return self.w1.ccdf(t)


# pi_+ on the components of a D group is proportional to one phase law in
# exact arithmetic: the components are entered only from the level-0
# boundary, for Nudge-M with alpha_2. Rounding moves it off by at most
# 2.7e-16 max pi_+ on the test oracle models (random mixes; exactly 0 when
# the group's phase law has one nonzero entry) and by 0 on the fig5a and
# fig5b recipes up to m = 10 and 9. The bound is 370 times that worst
# case. Components entered with two different phase laws are off by
# 2.3e-3 to 9.1e-3 max pi_+ in the tests' models.
LUMP_TOL = 1e-13


def _lump_d(groups: list, d: np.ndarray, pi_d: np.ndarray,
            scale: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One block per group of D components (groups, from ``_d_groups``)
    that carries pi_+ mass, for the law of W_1.

    The components of a group share their block B = K[c, c] = T_++[c, c],
    and pi_+ on each is m_c beta for one phase law beta. So the level
    started in the group evolves by B from beta whichever component it is
    in, and leaves for R at the rates sum_c w_c K[c, R] with w_c = m_c / M
    (exact lumpability). Returns the S+ states of one component per kept
    group; u, whose row j of a group puts w_c on phase j of each of
    its components; and the lumped pi_+, sum_c pi_+[c]. A group without
    mass is dropped; one whose pi_+ rows are off m_c beta by more than
    LUMP_TOL scale raises FloatingPointError.
    """
    reps, us, inits = [np.zeros(0, np.intp)], [np.zeros((0, d.size))], [np.zeros(0)]
    for _, comps in groups:
        rows = pi_d[comps]                      # one row per component
        mass, init = rows.sum(axis=1), rows.sum(axis=0)
        if not init.any():
            continue
        beta = init / mass.sum()
        if np.max(np.abs(rows - np.outer(mass, beta))) > LUMP_TOL * scale:
            raise FloatingPointError(
                "pi_+ on a group of boundary-entered components is not "
                "proportional to one phase law")
        u = np.zeros((comps.shape[1], d.size))
        u[np.arange(comps.shape[1]), comps] = (mass / mass.sum())[:, None]
        reps.append(d[comps[0]])
        us.append(u)
        inits.append(init)
    return np.concatenate(reps), np.concatenate(us), np.concatenate(inits)


def stationary_fluid(model: FluidModel) -> FluidSolution:
    """Stationary distribution of the fluid with jumps: pi_+, the
    zero-level mass c0 and the law of W_1,
    P[W_1 > t] = pi_+ e^{Kt} (-K)^{-1} Psi 1 with K = T_++ + Psi T_-+.
    Level 0 is one state, left at rate lambda_0 = sum t_star_0p, so
    P~ = p_mp + p_m0 (x) q with q = t_star_0p / lambda_0, and
    c0 = pi_+ Psi p_m0 / lambda_0.

    pi_+ is the Perron vector of Psi P~, normalized so eta = 1. P~ is a
    chain that restarts at q, so pi_+ comes from one n- x n- system (the
    regenerative form). With B = p_mp Psi and x = pi_+ Psi scaled so
    x p_m0 = 1, rho pi_+ = q + x p_mp and x = q Psi (rho I - B)^{-1}, where
    the Perron root rho solves f(rho) = q Psi (rho I - B)^{-1} p_m0 = 1.
    rho = 1 for an exact Psi, but the SDA's stop leaves Psi's rows short of
    1, so one Newton step from rho = 1 follows: with
    w0 = q Psi (I - B)^{-1} and y = w0 (I - B)^{-1}, f(1) = w0 p_m0 and
    f'(1) = -y p_m0, so rho - 1 = (w0 p_m0 - 1) / (y p_m0) and
    x = w0 - (rho - 1) y to first order. Without that step pi_+ misses the
    Perron vector by 1.8e-12 max pi_+ (fig5b m = 5, lambda = 0.95).

    K is not formed at size n+. With R the states of ``reachable_plus``
    (from ``solve_riccati``'s report) and D the rest, K[R, D] = 0 and
    K[D, D] = T_++[D, D], so the law is built on R plus one block per
    group of D components (``_lump_d``), with the tail (-K_l)^{-1} Psi_l 1
    of that lumped system. For Nudge-M the 2^(m-1) n2 states of D become
    one copy of S2.
    """
    solved: dict = {}
    psi = solve_riccati(model, report=solved)
    lam0 = model.t_star_0p.sum()
    q = model.t_star_0p / lam0
    i_b = -(model.p_mp @ psi)
    i_b[np.diag_indices_from(i_b)] += 1.0
    w0 = np.linalg.solve(i_b.T, q @ psi)
    y = np.linalg.solve(i_b.T, w0)
    shift = float((w0 @ model.p_m0 - 1.0) / (y @ model.p_m0))
    if not abs(shift) <= 1e-8:
        raise FloatingPointError(
            f"no eigenvalue of Psi P~ near 1 (Perron root 1 + {shift:.3e})")
    pi = q + (w0 - shift * y) @ model.p_mp
    if np.any(pi < -1e-8 * np.max(np.abs(pi))):
        raise FloatingPointError("pi_+ eigenvector is not sign-definite: least entry "
                                 f"{np.min(pi) / np.max(np.abs(pi)):.3e} max |pi_+| < -1e-8")
    pi = np.clip(pi, 0.0, None)

    r = solved["reachable"]
    ri, d = np.flatnonzero(r), np.flatnonzero(~r)
    reps, u, init_d = _lump_d(solved["groups"], d, pi[d], np.max(pi))
    nr = ri.size
    keep = np.concatenate([ri, reps])
    # T_++[R, R], the groups' blocks B and the zero blocks between them
    k = model.t_pp.dense(keep, keep)
    k[nr:, :nr] = u @ model.t_pp.take(d, ri)
    psi_l = np.concatenate([psi[ri], u @ psi[d]])
    # Psi_l T_-+[:, R] from the few nonzeros of each column of T_-+
    k[:, :nr] += psi_l @ model.t_mp.take(cols=ri)
    tail = np.linalg.solve(-k, psi_l @ np.ones(model.n_minus))
    init = np.concatenate([pi[ri], init_d])

    boundary = -(psi @ model.p_m0) / lam0
    eta = float(init @ tail - pi @ boundary)
    if eta <= 0:
        raise FloatingPointError(f"normalizing constant eta = {eta:.3e} <= 0")
    pi = pi / eta
    c0 = -float(pi @ boundary)
    if not (0.0 < c0 < 1.0):
        raise FloatingPointError(f"zero-level mass c0 = {c0:.6g} outside (0, 1)")
    w1 = MatrixExpDist(init / eta, k, tail)
    return FluidSolution(model=model, psi=psi, pi_plus=pi, c0=c0, w1=w1,
                         perron_shift=shift,
                         riccati_residual=solved["residual"],
                         sda_steps=solved["steps"], n_plus_solved=nr)


# ---------------------------------------------------------------------------
# Model constructions
# ---------------------------------------------------------------------------

def build_fcfs_fluid(mix: JobMix) -> FluidModel:
    """FCFS: the fluid is exactly the workload."""
    lam = mix.lam
    return FluidModel(
        t_mm=np.array([[-lam]]),
        t_mp=lam * mix.alpha.reshape(1, -1),
        t_pm=mix.exit.reshape(-1, 1),
        t_pp=mix.S,
        t_star_0p=lam * mix.alpha,
        p_m0=np.ones(1),
        p_mp=np.zeros((1, mix.n1 + mix.n2)),
    )


def build_nudge_m_fluid(mix: JobMix, m: int) -> FluidModel:
    """Nudge-M fluid model: the background state remembers which of the
    last m arrivals are still-waiting type-2 jobs.

    An S- state is the window bitmask v with s_1 (the newest arrival) as
    its most significant bit, the bit reversal of the index of
    ``PolicyFn.by_mask`` (bit 0 = newest); a permutation of the states
    would change the rounding of the Riccati solve. An arrival of type x
    (x = 1 for type 2) moves v to (x << (m - 1)) | (v >> 1); serving the
    oldest waiting type-2 job clears the lowest set bit, v & (v - 1).
    S+ holds subset 1 (s_1 = 0, type-1 phases), subset 2 (s_1 = 0, type-2
    phases) and subset 3 (all v, type-2 phases); with half = 2^(m-1), the
    phase blocks of v start at v n1, half n1 + v n2 and half (n1 + n2) +
    v n2. T_++ is I (x) S1, I (x) S2 and I (x) S2 on them, plus the
    coupling I (x) s2* alpha1 from subset 2 to subset 1.
    """
    if m < 1:
        raise ValueError("window m must be >= 1")
    if m > NUDGE_M_CAP:
        raise ComplexityError(f"fluid construction capped at m <= {NUDGE_M_CAP}")
    lam, p = mix.lam, mix.p
    n1, n2 = mix.n1, mix.n2
    a1, a2 = mix.ph1.alpha, mix.ph2.alpha
    nm, half = 1 << m, 1 << (m - 1)
    v = np.arange(nm)
    low, even, odd = v[:half], v[0::2], v[1::2]  # s_1 = 0; s_m = 0; s_m = 1
    # phase indices of each state's block, one row per state
    sub1 = low[:, None] * n1 + np.arange(n1)
    sub2 = half * n1 + low[:, None] * n2 + np.arange(n2)
    sub3 = half * (n1 + n2) + v[:, None] * n2 + np.arange(n2)
    npl = half * (n1 + n2) + nm * n2

    t_mm = np.eye(nm)
    t_mm *= -lam
    t_mm[even, half | (even >> 1)] = lam * (1 - p)
    # the S+-indexed blocks, each part as a[rows, cols] = values would set it
    t_mp = SparseRows.scatter(
        (nm, npl), (even[:, None], sub1[even >> 1], lam * p * a1),
        (odd[:, None], sub2[odd >> 1], lam * p * a2),
        (odd[:, None], sub3[half | (odd >> 1)], lam * (1 - p) * a2))
    t_pp = SparseRows.scatter((npl, npl), *(
        (rows[:, :, None], cols[:, None, :], block)
        for rows, cols, block in ((sub1, sub1, mix.ph1.S), (sub2, sub2, mix.ph2.S),
                                  (sub3, sub3, mix.ph2.S),
                                  (sub2, sub1, np.outer(mix.ph2.exit, a1)))))
    t_pm = SparseRows.scatter((npl, nm), (sub1, low[:, None], mix.ph1.exit),
                              (sub3, v[:, None], mix.ph2.exit))

    t_star_0p = np.zeros(npl)
    t_star_0p[sub1[0]] = lam * p * a1
    t_star_0p[sub3[0]] = lam * (1 - p) * a2

    p_m0 = np.zeros(nm)
    p_m0[0] = 1.0  # the fluid empties in v = 0 only
    busy = v[1:]
    p_mp = SparseRows.scatter((nm, npl), (busy[:, None], sub3[busy & (busy - 1)], a2))

    return FluidModel(t_mm=t_mm, t_mp=t_mp, t_pm=t_pm, t_pp=t_pp,
                      t_star_0p=t_star_0p, p_m0=p_m0, p_mp=p_mp)
