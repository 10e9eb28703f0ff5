"""Discrete-event MPI simulator: the reproduction's substitute for the
paper's real EC2 runs and ns-2 simulations, plus the CYPRESS-style
profiling and trace-compression substrate.
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
from .compression import (
    Loop,
    compress,
    compressed_size,
    compression_ratio,
    decompress,
    expanded_length,
    iter_with_multiplicity,
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
    "Loop",
    "compress",
    "compressed_size",
    "compression_ratio",
    "decompress",
    "expanded_length",
    "iter_with_multiplicity",
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
