"""The geo-distributed process mapping problem (paper Section 3).

A :class:`MappingProblem` bundles everything Formula (4)-(5) needs:

* ``N`` processes with communication matrices ``CG`` (bytes exchanged) and
  ``AG`` (message counts) — the application side;
* ``M`` sites with latency matrix ``LT`` (seconds), bandwidth matrix ``BT``
  (bytes/s), capacity vector ``I`` and physical coordinates ``PC`` — the
  platform side;
* a constraint vector ``C`` pinning some processes to sites (data-movement
  / privacy constraints).

Conventions differ slightly from the paper's notation for ergonomics:
sites are 0-indexed and an *unconstrained* process has ``C[i] == -1``
(the paper uses 1-indexed sites with 0 meaning unconstrained).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from .._validation import InputError, check_square_matrix, check_vector, freeze_matrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..cloud.topology import CloudTopology

__all__ = [
    "MappingProblem",
    "InfeasibleProblemError",
    "DenseMaterializationError",
    "CSRArrays",
    "UNCONSTRAINED",
    "DENSE_LIMIT_ENV",
    "dense_materialize_limit",
]

#: Sentinel constraint value meaning "this process may map anywhere".
UNCONSTRAINED = -1

#: Environment variable overriding the dense-materialization N threshold.
DENSE_LIMIT_ENV = "REPRO_DENSE_MATERIALIZE_LIMIT"

#: Default largest N for which ``dense_CG()``/``dense_AG()`` will densify a
#: sparse matrix (8192^2 float64 is already ~512 MiB *per matrix*).
_DEFAULT_DENSE_LIMIT = 8192


def dense_materialize_limit() -> int:
    """The N threshold above which sparse->dense materialization refuses.

    Reads :data:`DENSE_LIMIT_ENV` on every call (cheap) so tests and
    operators can raise or lower the guard without rebuilding problems.
    """
    raw = os.environ.get(DENSE_LIMIT_ENV, "")
    if not raw:
        return _DEFAULT_DENSE_LIMIT
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{DENSE_LIMIT_ENV} must be an integer N threshold, got {raw!r}"
        ) from None
    if value <= 0:
        raise ValueError(f"{DENSE_LIMIT_ENV} must be positive, got {value}")
    return value


class InfeasibleProblemError(InputError):
    """No assignment can satisfy the problem's capacity/constraint system.

    Raised with a message naming the concrete deficit (how many more
    nodes the deployment would need) so that fault-degraded deployments
    fail actionably instead of surfacing as opaque shape or fill errors
    deep inside a mapper.
    """


class DenseMaterializationError(MemoryError):
    """A sparse matrix was about to be densified past the size guard.

    ``dense_CG()``/``dense_AG()`` on an N x N sparse matrix allocate
    ``N^2 * 8`` bytes; above :func:`dense_materialize_limit` that is
    gigabytes handed out silently.  Hot paths must use the cached CSR
    view (:meth:`MappingProblem.cg_csr` / :meth:`MappingProblem.ag_csr`)
    instead; callers that truly need the dense array can raise the
    threshold via :data:`DENSE_LIMIT_ENV`.
    """


@dataclass(frozen=True)
class CSRArrays:
    """Read-only CSR triplet of one comm matrix, plus expanded COO rows.

    ``indptr``/``indices``/``data`` are the standard CSR arrays (shared
    with the problem's stored matrix, never copies); ``rows`` is the
    COO-style row index of every stored entry (``len == nnz``), which is
    what the aggregation and batch-cost kernels gather against — caching
    it here removes the per-call ``tocoo()`` conversion those kernels
    used to pay.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    rows: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.data.shape[0])


def _check_comm_matrix(mat, name: str, size: int | None):
    """Validate a communication matrix, dense or sparse, zeroing nothing.

    Returns the matrix as float64 (CSR for sparse input).  The diagonal
    must be zero: a process does not pay network cost to talk to itself.
    """
    if sp.issparse(mat):
        if hasattr(mat, "check_format"):
            # Compressed input is trusted by scipy's C++ kernels: an index
            # out of range or a decreasing indptr would make tocsr,
            # sum_duplicates and sort_indices read and write out of bounds.
            try:
                mat.check_format(full_check=True)
                # check_format skips this when indptr ends at 0.
                if np.any(np.diff(mat.indptr) < 0):
                    raise InputError("indptr must be a non-decreasing sequence")
            except ValueError as exc:
                raise InputError(f"{name} is not a valid sparse matrix: {exc}") from exc
        m = mat.tocsr().astype(np.float64)
        if m.shape[0] != m.shape[1]:
            raise InputError(f"{name} must be square, got shape {m.shape}")
        if size is not None and m.shape[0] != size:
            raise InputError(f"{name} must be {size}x{size}, got {m.shape}")
        if not np.all(np.isfinite(m.data)):
            raise InputError(f"{name} contains non-finite entries")
        if m.nnz and m.data.min() < 0:
            raise InputError(f"{name} contains negative entries")
        if np.any(m.diagonal() != 0):
            raise InputError(f"{name} must have a zero diagonal")
        # Canonicalize once so the cached CSR view (and every kernel
        # reading it) sees sorted, duplicate-free arrays that can then be
        # frozen like the dense matrices are.
        m.sum_duplicates()
        m.sort_indices()
        return m
    arr = check_square_matrix(mat, name, size=size, nonnegative=True)
    if np.any(np.diagonal(arr) != 0):
        raise InputError(f"{name} must have a zero diagonal")
    return arr


@dataclass(frozen=True)
class MappingProblem:
    """An instance of the constrained geo-distributed mapping problem.

    Attributes
    ----------
    CG:
        (N, N) communication volume matrix in bytes; ``CG[i, j]`` is the
        total bytes process i sends to process j.  Dense ndarray or any
        scipy sparse matrix (stored as CSR).
    AG:
        (N, N) message count matrix, same layout as ``CG``.
    LT:
        (M, M) latency matrix in seconds (asymmetric in general).
    BT:
        (M, M) bandwidth matrix in bytes/s (asymmetric in general).
    capacities:
        (M,) nodes available per site, the paper's vector I.
    constraints:
        (N,) site index each process is pinned to, or ``UNCONSTRAINED``.
    coordinates:
        Optional (M, 2) [lat, lon] per site, the paper's PC matrix; needed
        by the grouping optimization, optional for everything else.
    """

    CG: "np.ndarray | sp.csr_matrix"
    AG: "np.ndarray | sp.csr_matrix"
    LT: np.ndarray
    BT: np.ndarray
    capacities: np.ndarray
    constraints: np.ndarray = field(default=None)  # type: ignore[assignment]
    coordinates: np.ndarray | None = None

    def __post_init__(self) -> None:
        cg = _check_comm_matrix(self.CG, "CG", None)
        n = cg.shape[0]
        ag = _check_comm_matrix(self.AG, "AG", n)
        object.__setattr__(self, "CG", cg)
        object.__setattr__(self, "AG", ag)

        lt = check_square_matrix(self.LT, "LT", nonnegative=True)
        m = lt.shape[0]
        bt = check_square_matrix(self.BT, "BT", size=m, nonnegative=True)
        if np.any(bt <= 0):
            raise InputError("BT entries must be strictly positive")
        object.__setattr__(self, "LT", lt)
        object.__setattr__(self, "BT", bt)

        caps = check_vector(self.capacities, "capacities", size=m)
        if np.any(caps <= 0):
            raise InputError("capacities must be positive")
        object.__setattr__(self, "capacities", caps)

        if self.constraints is None:
            cons = np.full(n, UNCONSTRAINED, dtype=np.int64)
        else:
            cons = check_vector(self.constraints, "constraints", size=n)
        bad = (cons != UNCONSTRAINED) & ((cons < 0) | (cons >= m))
        if np.any(bad):
            raise InputError(
                f"constraints reference invalid sites at processes {np.flatnonzero(bad)[:10]}"
            )
        object.__setattr__(self, "constraints", cons)

        if self.coordinates is not None:
            coords = np.asarray(self.coordinates, dtype=np.float64)
            if coords.shape != (m, 2):
                raise InputError(f"coordinates must be ({m}, 2), got {coords.shape}")
            object.__setattr__(self, "coordinates", coords)

        if caps.sum() < n:
            raise InfeasibleProblemError(
                f"total capacity {caps.sum()} cannot host {n} processes "
                f"(deficit: {n - int(caps.sum())} nodes)"
            )
        pinned = np.bincount(cons[cons != UNCONSTRAINED], minlength=m)
        if np.any(pinned > caps):
            over = np.flatnonzero(pinned > caps)
            excess = int((pinned - caps)[over].sum())
            raise InfeasibleProblemError(
                f"constraints overfill sites {over.tolist()} "
                f"(deficit: {excess} nodes)"
            )

        # Lazily filled by cg_csr()/ag_csr(); not a dataclass field, so
        # equality/repr stay defined by the problem data alone.
        object.__setattr__(self, "_csr_cache", {})
        self._freeze()

    def _freeze(self) -> None:
        """Make every validated array read-only, cached CSR rows included."""
        for name in ("LT", "BT", "capacities", "constraints"):
            getattr(self, name).setflags(write=False)
        freeze_matrix(self.CG)
        freeze_matrix(self.AG)
        for view in object.__getattribute__(self, "_csr_cache").values():
            if isinstance(view, CSRArrays):
                view.rows.setflags(write=False)

    def __setstate__(self, state: dict[str, object]) -> None:
        # Pickle keeps the cached fingerprint and CSR views but not numpy's
        # read-only flag, so an unpickled copy is frozen again here.
        self.__dict__.update(state)
        self._freeze()

    # ------------------------------------------------------------ properties

    @property
    def num_processes(self) -> int:
        """N, the number of parallel processes."""
        return self.CG.shape[0]

    @property
    def num_sites(self) -> int:
        """M, the number of sites."""
        return self.LT.shape[0]

    @property
    def is_sparse(self) -> bool:
        """True when CG/AG are stored sparse (large, structured apps)."""
        return sp.issparse(self.CG)

    @property
    def num_constrained(self) -> int:
        """Number of processes pinned by the constraint vector."""
        return int(np.count_nonzero(self.constraints != UNCONSTRAINED))

    @property
    def constraint_ratio(self) -> float:
        """Fraction of processes pinned (the paper's constraint ratio)."""
        return self.num_constrained / self.num_processes

    # -------------------------------------------------------------- builders

    @classmethod
    def from_topology(
        cls,
        CG,
        AG,
        topology: "CloudTopology",
        *,
        constraints: np.ndarray | None = None,
    ) -> "MappingProblem":
        """Build a problem from comm matrices plus a realized topology."""
        return cls(
            CG=CG,
            AG=AG,
            LT=topology.latency_s,
            BT=topology.bandwidth_Bps,
            capacities=topology.capacities,
            constraints=constraints,
            coordinates=topology.coordinates,
        )

    # --------------------------------------------------------------- helpers

    def communication_quantity(self) -> np.ndarray:
        """Total traffic touching each process: q[i] = sum_j CG[i,j]+CG[j,i].

        This is the "communication quantity" Algorithm 1 uses to pick the
        heaviest process first.
        """
        cg = self.CG
        if sp.issparse(cg):
            return np.asarray(cg.sum(axis=1)).ravel() + np.asarray(cg.sum(axis=0)).ravel()
        return cg.sum(axis=1) + cg.sum(axis=0)

    def _materialize(self, mat: "np.ndarray | sp.csr_matrix", name: str) -> np.ndarray:
        if not sp.issparse(mat):
            return mat
        n = mat.shape[0]
        limit = dense_materialize_limit()
        if n > limit:
            gib = n * n * 8 / 2**30
            raise DenseMaterializationError(
                f"{name}() would materialize a {n}x{n} float64 array "
                f"(~{gib:.1f} GiB) from a sparse matrix with {mat.nnz} stored "
                f"entries; use the cached CSR view ({name.replace('dense_', '').lower()}_csr()) "
                f"instead, or raise the guard via {DENSE_LIMIT_ENV} "
                f"(currently {limit})"
            )
        return mat.toarray()

    def dense_CG(self) -> np.ndarray:
        """CG as a dense array (views for dense input, materialized for sparse).

        Refuses to densify a sparse matrix above
        :func:`dense_materialize_limit` — see
        :class:`DenseMaterializationError`.
        """
        return self._materialize(self.CG, "dense_CG")

    def dense_AG(self) -> np.ndarray:
        """AG as a dense array (same materialization guard as dense_CG)."""
        return self._materialize(self.AG, "dense_AG")

    def _csr_view(self, key: str) -> CSRArrays:
        cache: dict[str, CSRArrays] = object.__getattribute__(self, "_csr_cache")
        view = cache.get(key)
        if view is None:
            mat = self.CG if key == "CG" else self.AG
            if not sp.issparse(mat):
                raise TypeError(
                    f"{key} is dense; the CSR view exists only for sparse "
                    "problems (gate on problem.is_sparse)"
                )
            rows = np.repeat(
                np.arange(mat.shape[0], dtype=np.int64), np.diff(mat.indptr)
            )
            rows.setflags(write=False)
            view = CSRArrays(
                indptr=mat.indptr, indices=mat.indices, data=mat.data, rows=rows
            )
            cache[key] = view
        return view

    def cg_csr(self) -> CSRArrays:
        """Cached CSR triplet view of CG (sparse problems only).

        The arrays are shared with the stored matrix (read-only, never
        copies); the expanded COO ``rows`` index is computed once and
        cached, which is what lets the aggregation/batch-cost kernels
        skip the per-call ``tocoo()`` conversion.
        """
        return self._csr_view("CG")

    def ag_csr(self) -> CSRArrays:
        """Cached CSR triplet view of AG (sparse problems only)."""
        return self._csr_view("AG")

    def fingerprint(self) -> str:
        """Canonical content fingerprint of the problem (hex SHA-256).

        Two problems with the same CG/AG/LT/BT/capacities/constraints/
        coordinates content fingerprint identically regardless of how
        they were built: dense and sparse comm matrices hash through the
        same canonical CSR form (``_check_comm_matrix`` already sorts
        indices and merges duplicates for sparse input, and dense input
        is converted once here), and index arrays are canonicalized to
        int64 so scipy's int32/int64 choice cannot split the key.

        This is the identity the serving layer (:mod:`repro.serve`) keys
        its result cache and request coalescing on, so it must be a pure
        function of the problem *content* — never of object identity,
        construction order, or storage format.  The digest is computed
        once and cached on the instance (the arrays are frozen, so it
        cannot go stale).
        """
        cache: dict[str, object] = object.__getattribute__(self, "_csr_cache")
        cached = cache.get("__fingerprint__")
        if isinstance(cached, str):
            return cached
        h = hashlib.sha256(b"repro.MappingProblem.v1")

        def update(tag: str, arr: np.ndarray, dtype: type) -> None:
            a = np.ascontiguousarray(arr, dtype=dtype)
            h.update(f"{tag}:{a.shape}:".encode())
            h.update(a.tobytes())

        for name in ("CG", "AG"):
            mat = getattr(self, name)
            if sp.issparse(mat):
                view = self.cg_csr() if name == "CG" else self.ag_csr()
                indptr, indices, data = view.indptr, view.indices, view.data
            else:
                csr = sp.csr_matrix(mat)
                indptr, indices, data = csr.indptr, csr.indices, csr.data
            h.update(f"{name}:{mat.shape}:".encode())
            update(f"{name}.indptr", indptr, np.int64)
            update(f"{name}.indices", indices, np.int64)
            update(f"{name}.data", data, np.float64)
        update("LT", self.LT, np.float64)
        update("BT", self.BT, np.float64)
        update("capacities", self.capacities, np.int64)
        update("constraints", self.constraints, np.int64)
        if self.coordinates is None:
            h.update(b"coordinates:none")
        else:
            update("coordinates", self.coordinates, np.float64)
        digest = h.hexdigest()
        cache["__fingerprint__"] = digest
        return digest

    def with_constraints(self, constraints: np.ndarray | None) -> "MappingProblem":
        """Copy of the problem with a different constraint vector."""
        return MappingProblem(
            CG=self.CG,
            AG=self.AG,
            LT=self.LT,
            BT=self.BT,
            capacities=self.capacities,
            constraints=constraints,
            coordinates=self.coordinates,
        )
