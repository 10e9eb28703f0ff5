"""Parallel K-means clustering workload (paper Section 5.1).

The paper evaluates the parallel K-means of Kanungo et al.: observations
are partitioned over the ranks; each Lloyd iteration assigns local points
to the nearest centroid, then globally reduces the per-cluster sums to
form new centroids.

The communication skeleton per iteration is a recursive-doubling
allreduce of the centroid accumulator (hypercube exchange — the
"complex" Fig. 3 pattern) plus, every few iterations, a data-shuffle
round in which every rank exchanges reassigned points with a set of
pseudo-random peers.  The shuffle is what the paper's complex,
non-diagonal K-means matrix reflects; bounding the peer count keeps the
trace O(N) so the same app scales to the 8192-rank simulations of
Fig. 7.

For fidelity, the *iteration count* is not a knob pulled out of thin
air: the app generates a synthetic clustered dataset and runs the very
K-means solver used by the mapper's grouping stage
(:func:`repro.core.grouping.kmeans`) to convergence; the observed
iteration count drives the simulation.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from .._validation import as_rng, check_positive_int
from ..core.grouping import kmeans
from ..simmpi.collectives import allreduce_recursive_doubling, bcast
from ..simmpi.engine import RankContext
from ..simmpi.ops import Compute, Operation, Recv, Repeat, Send
from .base import Application

__all__ = ["KMeansApp"]

_TAG_SHUFFLE = 21


class KMeansApp(Application):
    """Data-parallel Lloyd iterations with periodic point shuffles.

    Parameters
    ----------
    num_ranks:
        Process count.
    clusters / dims:
        K-means problem shape; the centroid accumulator carries
        ``clusters * dims * 8`` bytes plus per-cluster counts.
    points_per_rank:
        Local observations per rank; sets compute time and shuffle sizes.
    shuffle_every / shuffle_peers:
        A shuffle round runs every ``shuffle_every`` iterations; each rank
        exchanges with ``shuffle_peers`` deterministic pseudo-random peers.
    iterations:
        Override the Lloyd iteration count; by default it is *measured* by
        running the real solver on synthetic blobs.
    compute_per_point:
        Seconds of local work per point per iteration (distance
        evaluations against all centroids).
    seed:
        Drives the synthetic dataset and the shuffle peer choice.
    """

    name = "K-means"

    def __init__(
        self,
        num_ranks: int = 64,
        *,
        clusters: int = 100,
        dims: int = 64,
        points_per_rank: int = 20_000,
        shuffle_every: int = 4,
        shuffle_peers: int = 8,
        iterations: int | None = None,
        compute_per_point: float = 2.5e-6,
        seed: int = 7,
    ) -> None:
        super().__init__(num_ranks)
        self.clusters = check_positive_int(clusters, "clusters")
        self.dims = check_positive_int(dims, "dims")
        self.points_per_rank = check_positive_int(points_per_rank, "points_per_rank")
        self.shuffle_every = check_positive_int(shuffle_every, "shuffle_every")
        self.shuffle_peers = check_positive_int(shuffle_peers, "shuffle_peers")
        if compute_per_point < 0:
            raise ValueError("compute_per_point must be >= 0")
        self.compute_per_point = float(compute_per_point)
        self.seed = int(seed)
        if iterations is None:
            iterations = self._measure_iterations()
        self.iterations = check_positive_int(iterations, "iterations")

        # Payloads: centroid sums + counts; shuffles move ~2% of the local
        # points (reassignments near cluster boundaries) split over peers
        # with a zipf-like skew — most reassignments go to the clusters of
        # a few peers, which is what makes the aggregate pattern's
        # site-pair volumes asymmetric (and alignable by a geo-aware
        # mapper).
        self.reduce_bytes = self.clusters * self.dims * 8 + self.clusters * 8
        moved = max(1, self.points_per_rank // 50)
        total_shuffle = moved * self.dims * 8
        weights = 1.0 / np.arange(1, self.shuffle_peers + 1)
        weights /= weights.sum()
        self.shuffle_sizes = [
            max(1, int(total_shuffle * w)) for w in weights
        ]
        # Every rank shares one offset list per shuffle round.
        self.shuffle_offsets = [
            self._shuffle_offsets(r)
            for r in range(self.iterations // self.shuffle_every)
        ]

    # ---------------------------------------------------------------- sizing

    def _measure_iterations(self) -> int:
        """Run the real solver on a small synthetic replica of the workload.

        A miniature dataset with the same cluster count converges in the
        same number of Lloyd iterations as the full one (iteration count
        depends on cluster geometry, not on point volume), so this stays
        cheap while keeping the simulated loop length honest.
        """
        rng = as_rng(self.seed)
        k = min(self.clusters, 20)
        per = 40
        centers = rng.normal(scale=10.0, size=(k, 2))
        pts = np.concatenate(
            [c + rng.normal(scale=1.0, size=(per, 2)) for c in centers]
        )
        result = kmeans(pts, k, seed=rng, max_iter=60)
        return max(4, result.iterations)

    def _shuffle_offsets(self, round_idx: int) -> list[int]:
        """Deterministic pseudo-random ring offsets for one shuffle round.

        Rank r sends to ``(r + off) % N`` for each offset, so every rank
        also knows exactly whom it receives from (``(r - off) % N``)
        without global coordination; the offsets change per round, which
        scatters the aggregate pattern across the whole matrix.  O(peers)
        per round, so the pattern scales to the 8192-rank simulations.
        """
        if self.num_ranks == 1:
            return []
        rng = np.random.default_rng((self.seed, round_idx))
        k = min(self.shuffle_peers, self.num_ranks - 1)
        offsets: list[int] = []
        while len(offsets) < k:
            off = int(rng.integers(1, self.num_ranks))
            if off not in offsets:
                offsets.append(off)
        return offsets

    # --------------------------------------------------------------- program

    def program(self, ctx: RankContext) -> Generator[Operation | Repeat, None, None]:
        compute_iter = self.points_per_rank * self.compute_per_point

        # Initial centroids reach everyone from rank 0.
        yield from bcast(ctx, nbytes=self.clusters * self.dims * 8, root=0, tag=20)

        # One Lloyd iteration, built once and repeated; every
        # shuffle_every-th iteration ends with a shuffle round.
        step = (
            Compute(compute_iter),
            *allreduce_recursive_doubling(ctx, nbytes=self.reduce_bytes, tag=22),
        )
        for offsets in self.shuffle_offsets:
            yield Repeat(step, self.shuffle_every)
            for off, nbytes in zip(offsets, self.shuffle_sizes):
                yield Send(
                    dst=(ctx.rank + off) % ctx.size,
                    nbytes=nbytes,
                    tag=_TAG_SHUFFLE,
                )
            for off in offsets:
                yield Recv(src=(ctx.rank - off) % ctx.size, tag=_TAG_SHUFFLE)
        yield Repeat(step, self.iterations % self.shuffle_every)
