"""repro.serve — mapping as a service.

The paper's mappers are batch solvers; this package puts them behind a
long-lived asyncio daemon so placement queries become request/response
calls against warm state.  Layers, inside out:

* :mod:`.solver` — pool-worker entrypoints (fabric task kinds
  ``serve-map`` / ``serve-repair`` / ``serve-compare``) built on
  :func:`repro.core.get_mapper` and problem fingerprints;
* :mod:`.engine` — the transport-independent broker: LRU result cache,
  request coalescing, one ``ProcessPoolExecutor`` task per solve,
  bounded-queue backpressure, and Greedy for geodist and multilevel
  requests under load;
* :mod:`.daemon` — unix-socket line-JSON and optional localhost HTTP
  front ends (``/health``, Prometheus ``/metrics``, ``/v1/*``);
* :mod:`.client` — the synchronous client the CLI's ``--remote`` flag,
  benchmarks, and CI use.

Start one with ``python -m repro serve --socket /tmp/repro.sock``.
"""

from .cache import ResultCache
from .client import OverloadedRemoteError, PlacementClient, RemoteError
from .daemon import PlacementDaemon, run
from .engine import EngineConfig, OverloadedError, PlacementEngine
from .protocol import (
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_problem,
    encode_mapping,
    encode_problem,
)

__all__ = [
    "ResultCache",
    "PlacementClient",
    "RemoteError",
    "OverloadedRemoteError",
    "PlacementDaemon",
    "run",
    "EngineConfig",
    "OverloadedError",
    "PlacementEngine",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "encode_problem",
    "decode_problem",
    "encode_mapping",
]
