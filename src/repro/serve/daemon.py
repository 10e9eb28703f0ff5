"""The placement daemon: transports and lifecycle around the engine.

Two front ends over one :class:`~repro.serve.engine.PlacementEngine`:

* **Unix socket** (always on) — line-JSON, one request object per line,
  one response object per line.  The
  primary transport: local clients (the CLI's ``--remote`` flag, the
  benchmark, CI's smoke test) speak it through
  :class:`repro.serve.client.PlacementClient`.
* **HTTP on localhost** (optional, ``--http-port``) — a deliberately
  tiny HTTP/1.1 subset for humans and scrapers: ``GET /health``,
  ``GET /metrics`` (Prometheus text exposition), ``GET
  /v1/trace/<trace_id>`` (the stored trace document of a past request),
  ``POST /v1/{map,repair,compare}`` with the same JSON bodies as the
  socket ops.
  Backpressure surfaces as a real ``429`` with a ``Retry-After`` header.

Shutdown is graceful by contract: the ``shutdown`` op (or SIGTERM/
SIGINT under :func:`run`) stops accepting connections, fails queued
and running work with 503, and joins the process pool with ``wait=True`` — the CI
smoke test asserts no orphaned workers survive.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from typing import Any

from .._validation import InputError, check_nonnegative_int, coerce
from .engine import EngineConfig, PlacementEngine
from .protocol import ProtocolError, decode_request, error_response

__all__ = ["PlacementDaemon", "run"]

#: Refuse single-line requests beyond this many bytes (64 MiB) rather
#: than buffering unboundedly on a hostile or buggy client.
MAX_LINE_BYTES = 64 * 1024 * 1024

_HTTP_STATUS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class PlacementDaemon:
    """One engine behind a unix socket and an optional localhost HTTP port."""

    def __init__(
        self,
        socket_path: str,
        *,
        http_port: int | None = None,
        config: EngineConfig | None = None,
    ) -> None:
        self.socket_path = str(socket_path)
        self.http_port = http_port
        self.engine = PlacementEngine(config)
        self._unix_server: asyncio.AbstractServer | None = None
        self._http_server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Start the engine and begin accepting connections."""
        await self.engine.start()
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)  # stale socket from a dead daemon
        # limit= raises the StreamReader buffer from its 64 KiB default;
        # a dense N=512 problem encodes to a few MiB of JSON on one line.
        self._unix_server = await asyncio.start_unix_server(
            self._serve_unix_connection, path=self.socket_path, limit=MAX_LINE_BYTES
        )
        if self.http_port is not None:
            self._http_server = await asyncio.start_server(
                self._serve_http_connection,
                host="127.0.0.1",
                port=self.http_port,
                limit=MAX_LINE_BYTES,
            )

    async def stop(self) -> None:
        """Stop accepting, fail queued and running work, join the pool."""
        for server in (self._unix_server, self._http_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        self._unix_server = None
        self._http_server = None
        await self.engine.stop()
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        self._shutdown.set()

    def request_shutdown(self) -> None:
        """Ask :meth:`serve_forever` to return (idempotent, signal-safe)."""
        self._shutdown.set()

    async def serve_forever(self) -> None:
        """Block until a ``shutdown`` op or :meth:`request_shutdown`."""
        await self._shutdown.wait()

    # ---------------------------------------------------------- unix socket

    async def _serve_unix_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._write_line(
                        writer, error_response(None, 413, "request line too large")
                    )
                    break
                if not line:
                    break
                if len(line) > MAX_LINE_BYTES:
                    await self._write_line(
                        writer, error_response(None, 413, "request line too large")
                    )
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                try:
                    request = decode_request(text)
                except ProtocolError as exc:
                    await self._write_line(writer, error_response(None, 400, str(exc)))
                    continue
                if request.get("op") == "shutdown":
                    await self._write_line(
                        writer,
                        {"id": request.get("id"), "ok": True,
                         "result": {"stopping": True}},
                    )
                    self.request_shutdown()
                    break
                response = await self.engine.handle(request)
                await self._write_line(writer, response)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _write_line(
        writer: asyncio.StreamWriter, payload: dict[str, Any]
    ) -> None:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()

    # ----------------------------------------------------------------- HTTP

    async def _serve_http_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, headers, body = await self._handle_http(reader)
            reason = _HTTP_STATUS.get(status, "Unknown")
            head = [f"HTTP/1.1 {status} {reason}"]
            head.extend(f"{k}: {v}" for k, v in headers.items())
            head.append(f"Content-Length: {len(body)}")
            head.append("Connection: close")
            writer.write("\r\n".join(head).encode() + b"\r\n\r\n" + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_http(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict[str, str], bytes]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) < 2:
            return 400, _json_headers(), _json_body({"error": "bad request line"})
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = check_nonnegative_int(
                coerce("Content-Length", int, headers.get("content-length") or "0"),
                "Content-Length",
            )
        except InputError as exc:
            return 400, _json_headers(), _json_body({"error": str(exc)})
        if length > MAX_LINE_BYTES:
            return 413, _json_headers(), _json_body({"error": "body too large"})
        try:
            raw = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError as exc:
            return 400, _json_headers(), _json_body({
                "error": f"body ended after {len(exc.partial)} of "
                f"Content-Length {length} bytes"
            })

        if method == "GET" and path == "/health":
            return 200, _json_headers(), _json_body(self.engine.health())
        if method == "GET" and path == "/metrics":
            self.engine.refresh_runtime_gauges()
            text = self.engine.metrics.snapshot().render_prom()
            return 200, {"Content-Type": "text/plain; version=0.0.4"}, text.encode()
        if method == "GET" and path.startswith("/v1/trace/"):
            trace_id = path[len("/v1/trace/"):]
            doc = self.engine.get_trace(trace_id)
            if doc is None:
                return 404, _json_headers(), _json_body(
                    {"error": f"no trace {trace_id!r}"}
                )
            return 200, _json_headers(), _json_body(doc)
        if method != "POST":
            return 405, _json_headers(), _json_body({"error": "method not allowed"})
        if not path.startswith("/v1/"):
            return 404, _json_headers(), _json_body({"error": f"no route {path}"})
        op = path[len("/v1/"):]
        try:
            request = decode_request(raw or b"{}")
        except ProtocolError as exc:
            return 400, _json_headers(), _json_body({"error": str(exc)})
        request["op"] = op
        response = await self.engine.handle(request)
        status = 200 if response.get("ok") else int(response.get("code", 500))
        extra = _json_headers()
        if status == 429 and "retry_after_s" in response:
            extra["Retry-After"] = str(max(1, round(response["retry_after_s"])))
        return status, extra, _json_body(response)


def _json_headers() -> dict[str, str]:
    return {"Content-Type": "application/json"}


def _json_body(obj: dict[str, Any]) -> bytes:
    return json.dumps(obj).encode()


def run(
    socket_path: str,
    *,
    http_port: int | None = None,
    config: EngineConfig | None = None,
) -> None:
    """Run a daemon until SIGTERM/SIGINT or a ``shutdown`` op (blocking).

    The CLI's ``python -m repro serve`` lands here.  The "listening"
    line goes to stderr only once both sockets are bound.
    """
    import signal

    async def _amain() -> None:
        daemon = PlacementDaemon(socket_path, http_port=http_port, config=config)
        try:
            # A failed bind (say, the HTTP port is taken) still removes
            # the unix socket and joins the pool on the way out.
            await daemon.start()
            where = f"unix://{socket_path}"
            if http_port is not None:
                where += f" and http://127.0.0.1:{http_port}"
            print(f"placement daemon listening on {where}", file=sys.stderr)
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, daemon.request_shutdown)
                except NotImplementedError:  # platforms without signal support
                    pass
            await daemon.serve_forever()
        finally:
            await daemon.stop()

    asyncio.run(_amain())
