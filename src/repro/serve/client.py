"""Synchronous client for the placement daemon's unix socket.

:class:`PlacementClient` is what the CLI's ``--remote`` flag, the
serving benchmark, and the CI smoke test use — a thin blocking wrapper
that encodes problems, frames line-JSON requests, and raises typed
errors.  It holds one connection open across calls (the daemon serves
any number of sequential requests per connection), so a request's cost
is one socket round trip, not a connect-per-call.

A :class:`~repro.core.MappingProblem` is encoded once per client: the
JSON text of its wire dict is kept in an LRU of
:data:`ENCODED_PROBLEMS` entries keyed by
:meth:`~repro.core.MappingProblem.fingerprint`, and each request line
splices that text in rather than encoding and dumping the problem
again.  A problem passed as a wire dict is dumped on every call.

Deliberately synchronous: callers are batch scripts and CLIs, and the
concurrency interesting to test (coalescing, backpressure) lives on the
daemon side — tests drive it with one client per thread.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Sequence

import numpy as np

from ..core import MappingProblem
from ..obs import current_trace_context
from .cache import ResultCache
from .protocol import encode_problem

__all__ = ["PlacementClient", "RemoteError", "OverloadedRemoteError"]

#: Encoded problems one client keeps, least recent dropped.
ENCODED_PROBLEMS = 16


class RemoteError(RuntimeError):
    """The daemon answered ``ok: false``; carries the HTTP-style code."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class OverloadedRemoteError(RemoteError):
    """A 429 rejection; ``retry_after_s`` says when to try again."""

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(429, message)
        self.retry_after_s = retry_after_s


class PlacementClient:
    """One blocking line-JSON connection to a placement daemon."""

    def __init__(self, socket_path: str, *, timeout: float | None = 60.0) -> None:
        self.socket_path = str(socket_path)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self._sock.settimeout(timeout)
            self._sock.connect(self.socket_path)
        except BaseException:
            self._sock.close()
            raise
        self._rfile = self._sock.makefile("rb")
        self._next_id = 0
        self._encoded = ResultCache(ENCODED_PROBLEMS)

    # ------------------------------------------------------------ plumbing

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "PlacementClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def request(self, op: str, **fields: Any) -> dict[str, Any]:
        """Send one request, return the full response envelope.

        Raises :class:`OverloadedRemoteError` on 429 and
        :class:`RemoteError` on any other ``ok: false`` answer.

        When the calling context is recording spans (the CLI's
        ``--trace``), the ambient trace context is injected as a
        ``traceparent`` so the daemon's request span — and the pool
        worker's solve spans under it — join the caller's trace.
        """
        self._next_id += 1
        payload = {"op": op, "id": self._next_id, **fields}
        ctx = current_trace_context()
        if ctx is not None:
            ctx.inject(payload)
        self._sock.sendall(self._line(payload))
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        response = json.loads(line.decode())
        if not response.get("ok"):
            code = int(response.get("code", 500))
            message = str(response.get("error", "unknown error"))
            if code == 429:
                raise OverloadedRemoteError(
                    message, float(response.get("retry_after_s", 0.1))
                )
            raise RemoteError(code, message)
        return response

    def _line(self, payload: dict[str, Any]) -> bytes:
        """``payload`` as one request line, a problem's cached text spliced in."""
        problem = payload.get("problem")
        if not isinstance(problem, MappingProblem):
            return json.dumps(payload).encode() + b"\n"
        key = problem.fingerprint()
        text = self._encoded.get(key)
        if text is None:
            text = json.dumps(encode_problem(problem)).encode()
            self._encoded.put(key, text)
        # The rest always holds "op" and "id", so its object is not empty.
        head = json.dumps({k: v for k, v in payload.items() if k != "problem"}).encode()
        return b"".join((head[:-1], b', "problem": ', text, b"}\n"))

    # ----------------------------------------------------------------- ops

    def map(
        self,
        problem: "MappingProblem | dict[str, Any]",
        *,
        mapper: str | None = None,
        seed: int = 0,
        mapper_kwargs: dict[str, Any] | None = None,
        sleep_s: float = 0.0,
    ) -> dict[str, Any]:
        """Solve one placement; returns the full envelope (``result`` has
        ``assignment``/``cost``, the envelope has ``cache_hit`` /
        ``coalesced`` / ``degraded`` / ``mapper`` / ``fingerprint``)."""
        fields: dict[str, Any] = {
            "problem": problem,
            "seed": int(seed),
        }
        if mapper is not None:
            fields["mapper"] = mapper
        if mapper_kwargs:
            fields["mapper_kwargs"] = dict(mapper_kwargs)
        if sleep_s > 0:
            fields["sleep_s"] = float(sleep_s)
        return self.request("map", **fields)

    def repair(
        self,
        problem: "MappingProblem | dict[str, Any]",
        partial: "Sequence[int] | np.ndarray",
        *,
        refine_rounds: int = 2,
        extra_moves: int = 0,
    ) -> dict[str, Any]:
        """Repair a partial assignment (see :func:`repro.core.repair_mapping`)."""
        return self.request(
            "repair",
            problem=problem,
            partial=[int(p) for p in np.asarray(partial).tolist()],
            refine_rounds=int(refine_rounds),
            extra_moves=int(extra_moves),
        )

    def compare(
        self,
        problem: "MappingProblem | dict[str, Any]",
        mappers: Sequence[str],
        *,
        seed: int = 0,
    ) -> dict[str, Any]:
        """Run several mappers on one problem in a single request."""
        return self.request(
            "compare",
            problem=problem,
            mappers=[str(m) for m in mappers],
            seed=int(seed),
        )

    def health(self) -> dict[str, Any]:
        return self.request("health")["result"]

    def metrics(self) -> dict[str, Any]:
        """The daemon's metrics: ``{"prometheus": str, "json": dict}``."""
        return self.request("metrics")["result"]

    def trace(self, trace_id: str) -> dict[str, Any]:
        """Fetch the stored trace document of a past request by its id.

        Every response envelope carries a ``trace_id``; feed it back
        here (a 404 :class:`RemoteError` means it aged out of the
        daemon's bounded trace map).
        """
        return self.request("trace", trace_id=str(trace_id))["result"]

    def shutdown(self) -> dict[str, Any]:
        """Ask the daemon to stop (it still answers this request)."""
        return self.request("shutdown")
