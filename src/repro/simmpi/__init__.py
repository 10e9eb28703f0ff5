"""Discrete-event MPI simulator: the reproduction's substitute for the
paper's real EC2 runs and ns-2 simulations, plus the CYPRESS-style
profiler (a timeless drain of loops declared as data into per-pair
message sums, from which CG/AG come).
"""

from .collectives import (
    allgather_ring,
    allreduce_recursive_doubling,
    allreduce_ring,
    alltoall,
    barrier_dissemination,
    bcast,
    reduce,
)
from .engine import DeadlockError, Program, RankContext, SimResult, Simulator
from .network import SimNetwork, UniformNetwork
from .ops import Barrier, Compute, Operation, Recv, Repeat, Send, unroll
from .tracing import DENSE_LIMIT, TraceRecorder

__all__ = [
    "allgather_ring",
    "allreduce_recursive_doubling",
    "allreduce_ring",
    "alltoall",
    "barrier_dissemination",
    "bcast",
    "reduce",
    "DeadlockError",
    "Program",
    "RankContext",
    "SimResult",
    "Simulator",
    "SimNetwork",
    "UniformNetwork",
    "Barrier",
    "Compute",
    "Operation",
    "Recv",
    "Repeat",
    "Send",
    "unroll",
    "DENSE_LIMIT",
    "TraceRecorder",
]
