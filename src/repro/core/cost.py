"""Cost model evaluation (paper Formulas 2-4).

The communication cost of mapping process i -> site P[i] is

    COST(P) = sum_{i,j} AG[i,j] * LT[P[i], P[j]] + CG[i,j] / BT[P[i], P[j]]

This module provides:

* :func:`total_cost` — exact cost of one mapping, O(nnz) for sparse
  matrices and O(N*M) memory for dense ones (never materializing an N x N
  site-indexed matrix);
* :func:`aggregate_site_traffic` — the (M, M) per-site-pair traffic
  aggregation the algorithms reason about;
* :class:`CostEvaluator` — caches 1/BT and per-process rows to answer
  move/swap deltas and per-site placement costs in O(N) (or O(row
  nnz)), which MPIPP's refinement loop, annealing, the Monte Carlo
  engine and the greedy placement of repair and multilevel lean on
  heavily.
"""

from __future__ import annotations

import numpy as np

from .problem import MappingProblem

__all__ = ["total_cost", "aggregate_site_traffic", "CostEvaluator"]


def _check_assignment(P: np.ndarray, n: int, m: int) -> np.ndarray:
    P = np.asarray(P)
    if P.shape != (n,):
        raise ValueError(f"mapping vector must have shape ({n},), got {P.shape}")
    if P.dtype.kind not in "iu":
        raise TypeError(f"mapping vector must be integer, got dtype {P.dtype}")
    if np.any((P < 0) | (P >= m)):
        raise ValueError("mapping vector references sites outside 0..M-1")
    return P.astype(np.int64, copy=False)


def _site_indicator(P: np.ndarray, m: int) -> np.ndarray:
    """(M, N) one-hot site-membership matrix: ``S[s, i] = 1`` iff P[i] == s.

    Grouping by site becomes a BLAS matmul (``S @ CG @ S.T``) instead of an
    unbuffered ``np.add.at`` scatter, which is what makes the dense cost
    kernels fast.
    """
    S = np.zeros((m, P.shape[0]))
    S[P, np.arange(P.shape[0])] = 1.0
    return S


def _bincount_pairs(rows: np.ndarray, cols: np.ndarray, data: np.ndarray, m: int) -> np.ndarray:
    """Sum ``data`` into an (M, M) matrix indexed by flattened site pairs."""
    return np.bincount(rows * m + cols, weights=data, minlength=m * m).reshape(m, m)


def aggregate_site_traffic(problem: MappingProblem, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate CG and AG by site pair under mapping ``P``.

    Returns ``(volume, count)``: (M, M) matrices where ``volume[k, l]`` is
    the total bytes flowing from processes on site k to processes on site
    l, and ``count`` the analogous message count.  This is the quantity
    the cost function contracts against LT and 1/BT.

    Sparse problems sum the nnz edges with one ``np.bincount`` over
    flattened site-pair codes; dense problems group rows and columns with
    two one-hot matmuls.  Both avoid the unbuffered ``np.add.at`` scatter,
    whose per-element ufunc dispatch dominated this kernel's runtime.
    """
    n, m = problem.num_processes, problem.num_sites
    P = _check_assignment(P, n, m)
    if problem.is_sparse:
        cg = problem.cg_csr()
        ag = problem.ag_csr()
        vol = _bincount_pairs(P[cg.rows], P[cg.indices], cg.data, m)
        cnt = _bincount_pairs(P[ag.rows], P[ag.indices], ag.data, m)
        return vol, cnt
    # Dense path: S @ CG @ S.T with S the one-hot site indicator.
    # O(N^2 * M) BLAS flops, O(N * M) extra memory -- no (N, N)
    # site-indexed intermediates and no Python-level scatter.
    S = _site_indicator(P, m)
    vol = (S @ problem.CG) @ S.T
    cnt = (S @ problem.AG) @ S.T
    return vol, cnt


def total_cost(problem: MappingProblem, P: np.ndarray) -> float:  # repro-lint: disable=RPR003
    """COST(P): total communication cost in seconds of link time.

    ``P`` is validated by :func:`aggregate_site_traffic`'s
    ``_check_assignment`` call, hence the RPR003 suppression.

    Note this is the paper's additive objective — the sum over all process
    pairs of their alpha-beta transfer times — not a makespan; the
    discrete-event simulator in :mod:`repro.simmpi` provides the latter.
    """
    vol, cnt = aggregate_site_traffic(problem, P)
    return float(np.sum(cnt * problem.LT) + np.sum(vol / problem.BT))


class CostEvaluator:
    """Incremental and batch cost evaluation for one problem instance.

    Parameters
    ----------
    problem:
        The problem whose cost landscape is being explored.

    Notes
    -----
    * ``cost(P)`` — full evaluation, identical to :func:`total_cost`.
    * ``move_delta(P, i, s)`` — cost change of moving process i to site s.
    * ``swap_delta(P, i, j)`` — cost change of exchanging two processes'
      sites, with the i<->j interaction double-count corrected exactly.
    * ``_move_delta_unchecked`` / ``_swap_delta_unchecked`` — the same
      kernels without argument validation, for inner loops whose
      arguments are valid by construction (MPIPP, annealing, repair,
      multilevel refinement).
    * ``_swap_gains(D, P, rows, cols)`` — the approximate swap deltas
      ``D[i, P[j]] + D[j, P[i]]`` from :meth:`move_delta_matrix`, the
      one shortlist MPIPP's ``fast_refine`` and repair rank exchanges
      by before verifying them with ``_swap_delta_unchecked``.
    * ``_site_costs(P, placed, i)`` — cost of process i on every site
      against a partial placement (greedy placement and repair).
    * ``batch_cost(Ps)`` — vectorized evaluation of many mappings at once
      (Monte Carlo engine).
    """

    def __init__(self, problem: MappingProblem) -> None:
        self.problem = problem
        self._inv_bt = 1.0 / problem.BT
        self._lt = problem.LT
        # A scipy isinstance check on every read otherwise.
        self._sparse = problem.is_sparse
        if self._sparse:
            self._cg_rows = problem.CG  # CSR: fast row slicing
            self._cg_cols = problem.CG.tocsc()
            self._ag_rows = problem.AG
            self._ag_cols = problem.AG.tocsc()
        else:
            self._cg_rows = problem.CG
            self._ag_rows = problem.AG
            # Flattened copies back the batched GEMV in batch_cost.
            self._cg_flat = np.ascontiguousarray(problem.CG).ravel()
            self._ag_flat = np.ascontiguousarray(problem.AG).ravel()

    # ------------------------------------------------------------------ full

    def cost(self, P: np.ndarray) -> float:
        """Exact COST(P)."""
        return total_cost(self.problem, P)

    #: Soft cap on gather-tensor elements per dense batch chunk (~16 MiB of
    #: float64 per intermediate — measured ~4x faster than larger chunks by
    #: keeping the gather cache-resident); chunks bound memory, not
    #: vectorization.
    _DENSE_CHUNK_ELEMS = 1 << 21

    def batch_cost(self, Ps: np.ndarray) -> np.ndarray:
        """Costs of a (B, N) batch of mappings.

        Sparse problems evaluate all nnz edges for the whole batch in one
        fancy-indexing pass.  Dense problems gather the per-pair LT / 1/BT
        tables for a chunk of mappings at once and contract them against
        the flattened comm matrices with one GEMV per chunk — no
        Python-level per-mapping loop on either path, which is what makes
        10^5-10^6-sample Monte Carlo runs feasible.
        """
        Ps = np.asarray(Ps)
        if Ps.ndim != 2 or Ps.shape[1] != self.problem.num_processes:
            raise ValueError(
                f"Ps must be (B, {self.problem.num_processes}), got {Ps.shape}"
            )
        if self._sparse:
            return self._batch_cost_sparse(Ps)
        return self._batch_cost_dense(Ps)

    def _batch_cost_sparse(self, Ps: np.ndarray) -> np.ndarray:
        """Chunked sparse batch evaluation over the cached CSR views.

        For a chunk of mappings the flattened site-pair codes
        ``P[src] * M + P[dst]`` of the nnz edges index 1/BT and LT in one
        gather each; the per-mapping cost is then a (chunk, nnz) @ (nnz,)
        GEMV against the edge weights.  When CG and AG share a sparsity
        pattern (the common case: both derive from the same trace) the
        codes are computed once and reused for both contractions.
        """
        m = self.problem.num_sites
        cg = self.problem.cg_csr()
        ag = self.problem.ag_csr()
        lt_flat = self._lt.ravel()
        ibt_flat = self._inv_bt.ravel()
        shared = cg.nnz == ag.nnz and np.array_equal(cg.indptr, ag.indptr) and np.array_equal(
            cg.indices, ag.indices
        )
        b = Ps.shape[0]
        Ps = Ps.astype(np.int64, copy=False)
        out = np.empty(b)
        per_row = cg.nnz + (0 if shared else ag.nnz)
        chunk = max(1, self._DENSE_CHUNK_ELEMS // max(1, per_row))
        for start in range(0, b, chunk):
            pc = Ps[start : start + chunk]
            codes = pc[:, cg.rows] * m + pc[:, cg.indices]  # (c, nnz)
            acc = ibt_flat[codes] @ cg.data
            if shared:
                acc += lt_flat[codes] @ ag.data
            else:
                codes = pc[:, ag.rows] * m + pc[:, ag.indices]
                acc += lt_flat[codes] @ ag.data
            out[start : start + chunk] = acc
        return out

    def _batch_cost_dense(self, Ps: np.ndarray) -> np.ndarray:
        """Chunked fully-vectorized dense batch evaluation.

        For a chunk of mappings the flattened site-pair codes
        ``P[i] * M + P[j]`` index LT and 1/BT in one gather each; the cost
        is then the dot product of each gathered (N*N,) table with the
        flattened AG / CG — a (chunk, N^2) @ (N^2,) GEMV.
        """
        n, m = self.problem.num_processes, self.problem.num_sites
        b = Ps.shape[0]
        Ps = Ps.astype(np.int64, copy=False)
        lt_flat = self._lt.ravel()
        ibt_flat = self._inv_bt.ravel()
        out = np.empty(b)
        chunk = max(1, self._DENSE_CHUNK_ELEMS // max(1, n * n))
        for start in range(0, b, chunk):
            pc = Ps[start : start + chunk]
            codes = pc[:, :, None] * m + pc[:, None, :]  # (c, N, N)
            codes = codes.reshape(pc.shape[0], -1)
            out[start : start + chunk] = lt_flat[codes] @ self._ag_flat
            out[start : start + chunk] += ibt_flat[codes] @ self._cg_flat
        return out

    # ----------------------------------------------------------- incremental

    def move_delta(self, P: np.ndarray, i: int, new_site: int) -> float:
        """Cost change of re-mapping process ``i`` to ``new_site``.

        Exact; the diagonal terms vanish because CG/AG have zero diagonals.
        Sparse problems touch only the O(row nnz) stored neighbors of
        ``i`` instead of densifying its rows.
        """
        n, m = self.problem.num_processes, self.problem.num_sites
        P = _check_assignment(P, n, m)
        if not 0 <= i < n:
            raise IndexError(f"process index {i} out of range for N={n}")
        if not 0 <= new_site < m:
            raise IndexError(f"site index {new_site} out of range for M={m}")
        return self._move_delta_unchecked(P, i, new_site)

    def _move_delta_unchecked(self, P: np.ndarray, i: int, new_site: int) -> float:
        """``move_delta`` without argument validation.

        Inner-loop entry point for refinement passes (multilevel
        uncoarsening, repair) that re-evaluate thousands of candidate
        moves against an assignment they already know is valid — the
        O(N) ``_check_assignment`` would otherwise dominate the O(row
        nnz) delta itself.
        """
        old = int(P[i])
        if old == new_site:
            return 0.0
        lt, ibt = self._lt, self._inv_bt
        if self._sparse:
            delta = 0.0
            for csr, csc, table in (
                (self._cg_rows, self._cg_cols, ibt),
                (self._ag_rows, self._ag_cols, lt),
            ):
                s, e = csr.indptr[i], csr.indptr[i + 1]
                nbrs, w = csr.indices[s:e], csr.data[s:e]
                sites = P[nbrs]
                delta += w @ (table[new_site, sites] - table[old, sites])
                s, e = csc.indptr[i], csc.indptr[i + 1]
                nbrs, w = csc.indices[s:e], csc.data[s:e]
                sites = P[nbrs]
                delta += w @ (table[sites, new_site] - table[sites, old])
            return float(delta)
        # Contiguous copies: a dot product over the strided column view
        # takes BLAS's strided path, which may round differently.
        cg, ag, sites = self._cg_rows, self._ag_rows, P
        cg_out, cg_in = cg[i, :].copy(), cg[:, i].copy()
        ag_out, ag_in = ag[i, :].copy(), ag[:, i].copy()
        out_delta = (
            ag_out @ (lt[new_site, sites] - lt[old, sites])
            + cg_out @ (ibt[new_site, sites] - ibt[old, sites])
        )
        in_delta = (
            ag_in @ (lt[sites, new_site] - lt[sites, old])
            + cg_in @ (ibt[sites, new_site] - ibt[sites, old])
        )
        # The i-th entries contribute LT[new, old_i_site] style terms where
        # i's own site appears; but i's row/col diagonal entries are zero,
        # and the pair (i, i) never communicates, so no correction needed
        # beyond using the *old* position of i for its own entry — which is
        # exactly what P provides, and its coefficient is zero.
        return float(out_delta + in_delta)

    def _site_costs(self, P: np.ndarray, placed: np.ndarray, i: int) -> np.ndarray:
        """Alpha-beta cost of process ``i`` on every site, vs the placed set.

        ``cost[s] = sum_{j placed, j != i} AG[i,j] LT[s, P[j]] + AG[j,i] LT[P[j], s]
                    + CG[i,j] / BT[s, P[j]] + CG[j,i] / BT[P[j], s]``

        i's traffic is first summed by its partners' sites, then
        contracted against LT and 1/BT in O(M^2).  Sparse problems read
        the cached CSR rows and CSC columns in O(row nnz); dense ones
        mask the full rows in O(N).  Both add the same nonzero terms in
        ascending partner order, so they agree bit for bit.  ``P`` may
        hold anything where ``placed`` is False.  Unchecked, like
        :meth:`_move_delta_unchecked`: greedy placement and repair's
        polish call it once per process per pass.
        """
        m = self.problem.num_sites
        if self._sparse:
            sums = []
            for mat in (self._cg_rows, self._cg_cols, self._ag_rows, self._ag_cols):
                start, end = mat.indptr[i], mat.indptr[i + 1]
                nbrs, w = mat.indices[start:end], mat.data[start:end]
                keep = placed[nbrs] & (nbrs != i)
                sums.append(np.bincount(P[nbrs[keep]], weights=w[keep], minlength=m))
        else:
            partners = placed.copy()
            partners[i] = False  # a process never pays cost against itself
            idx = P[partners]
            cg, ag = self._cg_rows, self._ag_rows
            sums = [
                np.bincount(idx, weights=w, minlength=m)
                for w in (cg[i, partners], cg[partners, i], ag[i, partners], ag[partners, i])
            ]
        cgo, cgi, ago, agi = sums
        lt, ibt = self._lt, self._inv_bt
        return lt @ ago + lt.T @ agi + ibt @ cgo + ibt.T @ cgi

    def move_delta_matrix(self, P: np.ndarray) -> np.ndarray:
        """All single-move deltas at once: ``D[i, s] = move_delta(P, i, s)``.

        Computed with four (sparse-aware) matrix products in O(N^2 * M)
        time, which is what makes MPIPP's pairwise refinement tractable:
        a swap gain is ``D[i, P[j]] + D[j, P[i]]`` (:meth:`_swap_gains`)
        plus an O(1) pair correction.
        """
        n, m = self.problem.num_processes, self.problem.num_sites
        P = _check_assignment(P, n, m)
        lt_sel = self._lt[:, P]  # (M, N): LT[s, P[t]]
        ibt_sel = self._inv_bt[:, P]
        lt_sel_in = self._lt[P, :]  # (N, M): LT[P[t], s]
        ibt_sel_in = self._inv_bt[P, :]

        cg, ag = self.problem.CG, self.problem.AG
        # Outgoing: sum_t AG[i,t] * LT[s, P[t]]  -> AG @ lt_sel.T  (N, M)
        out_new = ag @ lt_sel.T + cg @ ibt_sel.T
        # Incoming: sum_t AG[t,i] * LT[P[t], s] -> AG.T @ lt_sel_in (N, M)
        in_new = ag.T @ lt_sel_in + cg.T @ ibt_sel_in
        new = np.asarray(out_new + in_new)
        # Current contribution of each process is its delta target at its
        # own site, i.e. new[i, P[i]].
        current = new[np.arange(n), P]
        return new - current[:, None]

    @staticmethod
    def _swap_gains(
        D: np.ndarray, P: np.ndarray, rows: np.ndarray | int, cols: np.ndarray
    ) -> np.ndarray:
        """Approximate swap deltas ``D[i, P[j]] + D[j, P[i]]``.

        ``D`` is :meth:`move_delta_matrix` at ``P``.  The sum of the two
        single moves mis-charges only the (i, j) interaction, so it ranks
        exchanges for :meth:`_swap_delta_unchecked` to verify.  Returns a
        ``(len(rows), len(cols))`` block, or one ``(len(cols),)`` row for
        a scalar ``rows``.
        """
        rows = np.asarray(rows)[..., None]
        return D[rows, P[cols]] + D[cols, P[rows]]

    def swap_delta(self, P: np.ndarray, i: int, j: int) -> float:
        """Cost change of exchanging the sites of processes ``i`` and ``j``.

        Validates like :meth:`move_delta`, then runs
        :meth:`_swap_delta_unchecked`.
        """
        n, m = self.problem.num_processes, self.problem.num_sites
        P = _check_assignment(P, n, m)
        for k in (i, j):
            if not 0 <= k < n:
                raise IndexError(f"process index {k} out of range for N={n}")
        return self._swap_delta_unchecked(P, i, j)

    def _pair_weight(self, mat, i: int, j: int) -> float:
        """``mat[i, j]`` read from the cached rows.

        Sparse rows are canonical (sorted, duplicate-free), so one
        ``searchsorted`` finds the entry; a missing one is 0.
        """
        if not self._sparse:
            return float(mat[i, j])
        indices = mat.indices
        s, e = mat.indptr[i], mat.indptr[i + 1]
        k = s + int(indices[s:e].searchsorted(j))
        return float(mat.data[k]) if k < e and indices[k] == j else 0.0

    def _swap_delta_unchecked(self, P: np.ndarray, i: int, j: int) -> float:
        """``swap_delta`` without argument validation.

        The sum of the two independent single moves, corrected exactly
        for the (i, j) interaction each naive move mis-charges.  With
        ``pair(x, y)`` the cost of the i<->j traffic when i sits on site
        x and j on site y:

        * move i->b (j still at b) charges ``pair(b, b) - pair(a, b)``;
        * move j->a (i still at a) charges ``pair(a, a) - pair(a, b)``;
        * the true pair delta is ``pair(b, a) - pair(a, b)``.
        """
        a, b = int(P[i]), int(P[j])
        if i == j or a == b:
            return 0.0
        d = self._move_delta_unchecked(P, i, b) + self._move_delta_unchecked(P, j, a)
        cg, ag = self._cg_rows, self._ag_rows
        cij, cji = self._pair_weight(cg, i, j), self._pair_weight(cg, j, i)
        aij, aji = self._pair_weight(ag, i, j), self._pair_weight(ag, j, i)
        lt, ibt = self._lt, self._inv_bt

        def pair(x: int, y: int) -> float:
            return aij * lt[x, y] + cij * ibt[x, y] + aji * lt[y, x] + cji * ibt[y, x]

        charged = (pair(b, b) - pair(a, b)) + (pair(a, a) - pair(a, b))
        true_delta = pair(b, a) - pair(a, b)
        return float(d - charged + true_delta)
