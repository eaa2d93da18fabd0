"""Dependency-free HTTP/1.1 front end for the translation service.

The repo ships no web framework and the container installs none, so
this is a deliberately small hand-rolled server on asyncio streams —
enough protocol for load generators, health probes, and ``curl``:

* ``POST /translate?grammar=NAME`` — body is the input text; a 200
  response body is the rendered root attributes, byte-identical to
  ``repro run`` / ``repro batch`` output for the same input.
* ``GET /healthz`` — liveness + per-grammar breaker/queue state.
* ``GET /stats``  — the full ``repro.obs`` metrics snapshot as JSON.

Typed service failures map onto status codes::

    ServerOverloaded    429  (Retry-After header)
    GrammarUnavailable  503  (Retry-After header)
    TranslationTimeout  408
    WorkerCrashed       500
    per-input error     422  (ok=False ServeResult: bad input text)

Every response carries ``X-Request-Id`` when a request was admitted.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import (
    GrammarUnavailable,
    ServeError,
    ServerOverloaded,
    TranslationTimeout,
    WorkerCrashed,
)
from repro.serve.daemon import TranslationServer

__all__ = ["HttpFrontend"]

#: Largest accepted request body (1 MiB) — admission control starts at
#: the socket.
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpFrontend:
    """Serves a :class:`~repro.serve.daemon.TranslationServer` over TCP."""

    def __init__(self, server: TranslationServer, host: str, port: int):
        self.server = server
        self.host = host
        self.port = port
        self._tcp: Optional[asyncio.AbstractServer] = None

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the bound (host, port) — port 0
        resolves to the kernel-assigned port."""
        self._tcp = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sock = self._tcp.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def stop(self) -> None:
        if self._tcp is not None:
            self._tcp.close()
            await self._tcp.wait_closed()
            self._tcp = None

    # -- protocol ----------------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, target, headers, body = request
                status, out_headers, payload = await self._route(
                    method, target, headers, body
                )
                keep_alive = (
                    headers.get("connection", "keep-alive") != "close"
                    # An oversized body (413) is left unread on the
                    # socket; reusing the connection would parse those
                    # bytes as the next request head, so close instead.
                    and body is not None
                )
                await self._respond(
                    writer, status, out_headers, payload, keep_alive
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return None
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            return None
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if ":" in line:
                key, value = line.split(":", 1)
                headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            return method, target, headers, None  # routed to 413
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    async def _route(self, method, target, headers, body):
        url = urlsplit(target)
        path = url.path
        if body is None:
            return 413, {}, _json_err("PayloadTooLarge", "body too large")
        if path == "/healthz" and method == "GET":
            health = self.server.health()
            # Degraded (some grammar impaired, or low-disk admission
            # pause) still answers 200 — the daemon is alive and will
            # recover; 503 is reserved for "every grammar refuses work"
            # and for draining, the states a load balancer should route
            # around.
            status = 200 if health["status"] in ("ok", "degraded") else 503
            return status, {}, _json(health)
        if path == "/stats" and method == "GET":
            return 200, {}, _json(self._stats())
        if path == "/translate" and method == "POST":
            return await self._translate(url, body)
        return 404, {}, _json_err("NotFound", f"no route {method} {path}")

    async def _translate(self, url, body: bytes):
        params = parse_qs(url.query)
        grammars = sorted(self.server.services)
        grammar = params.get("grammar", [None])[0]
        if grammar is None:
            if len(grammars) != 1:
                return 400, {}, _json_err(
                    "BadRequest",
                    f"?grammar= is required (serving {grammars})",
                )
            grammar = grammars[0]
        timeout = None
        if "timeout" in params:
            try:
                timeout = float(params["timeout"][0])
            except ValueError:
                return 400, {}, _json_err("BadRequest", "bad timeout value")
            if not 0 < timeout < math.inf:
                # A NaN, infinite or non-positive deadline would time out
                # at once, kill a worker and count a breaker failure.
                return 400, {}, _json_err(
                    "BadRequest", "timeout must be positive and finite"
                )
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError:
            return 400, {}, _json_err("BadRequest", "body is not UTF-8")
        try:
            result = await self.server.submit(grammar, text, timeout=timeout)
        except ServerOverloaded as exc:
            return (
                429,
                {"Retry-After": _retry_after(exc.retry_after)},
                _json_err(type(exc).__name__, str(exc)),
            )
        except GrammarUnavailable as exc:
            return (
                503,
                {"Retry-After": _retry_after(exc.retry_after)},
                _json_err(type(exc).__name__, str(exc)),
            )
        except TranslationTimeout as exc:
            return 408, {}, _json_err(type(exc).__name__, str(exc))
        except (WorkerCrashed, ServeError) as exc:
            return 500, {}, _json_err(type(exc).__name__, str(exc))
        rid = {"X-Request-Id": str(result.request_id)}
        if not result.ok:
            return (
                422,
                rid,
                _json_err(result.error_type or "?", result.error or ""),
            )
        return (
            200,
            dict(rid, **{"Content-Type": "text/plain; charset=utf-8"}),
            result.output.encode("utf-8"),
        )

    def _stats(self):
        metrics = self.server.metrics
        if metrics is None:
            return {}
        from repro.obs.export import jsonable_snapshot

        return jsonable_snapshot(metrics)

    async def _respond(
        self, writer, status, headers, payload: bytes, keep_alive: bool
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}"]
        base = {
            "Content-Type": "application/json; charset=utf-8",
            "Content-Length": str(len(payload)),
            "Connection": "keep-alive" if keep_alive else "close",
        }
        base.update(headers or {})
        head.extend(f"{k}: {v}" for k, v in base.items())
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(payload)
        await writer.drain()


def _json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


def _json_err(error_type: str, message: str) -> bytes:
    return _json({"error": error_type, "message": message})


def _retry_after(seconds: float) -> str:
    """HTTP Retry-After wants whole seconds; always advise >= 1."""
    return str(max(1, int(seconds + 0.999)))
