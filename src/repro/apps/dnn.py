"""Deep neural network training workload (paper Section 5.1).

The paper trains a DNN with parallelized stochastic gradient descent
(Zinkevich et al.): data-parallel workers compute gradients on local
minibatches, then synchronize model parameters.  Two properties matter
for mapping (Fig. 3's observations): the total message volume is *small*
relative to the NPB kernels, and computation dominates, so mapping buys a
modest end-to-end improvement on DNN (Fig. 5) even though the
communication part itself still improves.

The skeleton: per synchronization round, a heavy :class:`Compute` phase
followed by *parameter averaging through the coordinator* — a
binomial-tree reduce of the gradients to rank 0 and a binomial-tree
broadcast of the averaged model back (Zinkevich's scheme is exactly a
parameter average).  Total traffic per round is 2(P-1) messages — the
light, root-centric pattern visible in the paper's Fig. 3 DNN heatmap.
"""

from __future__ import annotations

from typing import Generator

from .._validation import check_positive_int
from ..simmpi.collectives import bcast, reduce
from ..simmpi.engine import RankContext
from ..simmpi.ops import Compute, Operation, Repeat
from .base import Application

__all__ = ["DNNApp"]


class DNNApp(Application):
    """Data-parallel SGD with per-round parameter averaging.

    Parameters
    ----------
    num_ranks:
        Worker count.
    param_bytes:
        Size of the synchronized parameter/gradient block.  The default
        (512 KB) models a compact CIFAR-scale ResNet (the paper trains
        ResNet on CIFAR-10, ~0.27 M parameters) with the light gradient
        compression any WAN-trained system applies — keeping total
        traffic far below the NPB kernels, as the paper observes in
        Fig. 3.
    rounds:
        Synchronization rounds (epochs x syncs-per-epoch).
    compute_per_round:
        Seconds of forward/backward work per worker per round; this is
        what makes DNN computation-bound.
    """

    name = "DNN"

    def __init__(
        self,
        num_ranks: int = 64,
        *,
        param_bytes: int = 512 * 1024,
        rounds: int = 25,
        compute_per_round: float = 8.0,
    ) -> None:
        super().__init__(num_ranks)
        self.param_bytes = check_positive_int(param_bytes, "param_bytes")
        self.rounds = check_positive_int(rounds, "rounds")
        if compute_per_round < 0:
            raise ValueError("compute_per_round must be >= 0")
        self.compute_per_round = float(compute_per_round)

    def program(self, ctx: RankContext) -> Generator[Operation | Repeat, None, None]:
        # Initial model distribution from the coordinator.
        yield from bcast(ctx, nbytes=self.param_bytes, root=0, tag=30)
        # One round, built once and repeated: compute, then parameter
        # averaging (gradients up the tree, model back down).
        body = (
            Compute(self.compute_per_round),
            *reduce(ctx, nbytes=self.param_bytes, root=0, tag=31),
            *bcast(ctx, nbytes=self.param_bytes, root=0, tag=32),
        )
        yield Repeat(body, self.rounds)
