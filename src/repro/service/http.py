"""Thin stdlib HTTP/JSON front end for the simulation service.

Asyncio-streams HTTP/1.1, one request per connection (``Connection:
close``), no third-party dependencies.  Endpoints:

- ``POST /submit`` — job wire dict → ``202 {ticket, key, state,
  coalesced}``; sheds with ``429`` + ``Retry-After`` when admission
  control rejects; malformed submissions are a ``400``;
- ``GET /status/<ticket>`` — state + structured event log;
- ``GET /result/<ticket>`` — blocks until done; result wire dict, or a
  ``500`` with the structured failure;
- ``GET /stream/<ticket>`` — newline-delimited JSON progress events,
  close-delimited (curl-friendly live view of the degradation ladder);
- ``GET /healthz`` — fleet liveness and degradation status;
- ``GET /metrics`` — the full :class:`ServiceMetrics` counter dict.

The server never parses more HTTP than it needs: request line, headers,
``Content-Length`` body.  It exists so campaigns can run against a
long-lived warm fleet from another process, not to be a web framework.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

from repro.errors import (
    ConfigError,
    JobExecutionError,
    ReproError,
    ServiceOverloadError,
)
from repro.service.coordinator import DONE, FAILED, SimulationService
from repro.service.wire import job_from_wire, result_to_wire

_MAX_BODY = 1 << 20  # 1 MiB is orders of magnitude above any job spec


def _response(
    status: int,
    payload: Dict,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode()
    reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
              404: "Not Found", 429: "Too Many Requests",
              500: "Internal Server Error"}.get(status, "OK")
    headers = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name in sorted(extra_headers or {}):
        headers.append(f"{name}: {extra_headers[name]}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode() + body


class ServiceHTTPServer:
    """Serve one :class:`SimulationService` over HTTP."""

    def __init__(
        self,
        service: SimulationService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # ------------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            method, path, body = await self._read_request(reader)
        except (asyncio.IncompleteReadError, ValueError, ConfigError):
            writer.close()
            return
        try:
            await self._dispatch(method, path, body, writer)
        except ServiceOverloadError as overload:
            writer.write(_response(
                429,
                {"error": "overloaded", "reason": overload.reason,
                 "retry_after": overload.retry_after,
                 "message": str(overload)},
                {"Retry-After": f"{overload.retry_after:.3f}"},
            ))
        except ConfigError as bad:
            writer.write(_response(400, {"error": "bad_request",
                                         "message": str(bad)}))
        except JobExecutionError as failed:
            writer.write(_response(500, {
                "error": "job_failed",
                "message": str(failed),
                "traceback": getattr(failed, "traceback_text", None),
            }))
        except ReproError as error:
            writer.write(_response(500, {"error": type(error).__name__,
                                         "message": str(error)}))
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away; nothing to salvage
        writer.close()

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Tuple[str, str, bytes]:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise ConfigError("malformed request line")
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                content_length = int(value.strip())
        if content_length > _MAX_BODY:
            raise ConfigError("request body too large")
        body = await reader.readexactly(content_length) if content_length \
            else b""
        return method, path, body

    async def _dispatch(self, method: str, path: str, body: bytes,
                        writer: asyncio.StreamWriter) -> None:
        service = self.service
        if method == "POST" and path == "/submit":
            try:
                wire = json.loads(body.decode() or "{}")
            except json.JSONDecodeError as bad:
                raise ConfigError(f"submission is not JSON: {bad}") from bad
            ticket = service.submit(job_from_wire(wire))
            writer.write(_response(202, ticket))
            return
        if method == "GET" and path.startswith("/status/"):
            status = service.status(path[len("/status/"):])
            if status is None:
                writer.write(_response(404, {"error": "unknown_ticket"}))
            else:
                writer.write(_response(200, status))
            return
        if method == "GET" and path.startswith("/result/"):
            ticket = path[len("/result/"):]
            if service.status(ticket) is None:
                writer.write(_response(404, {
                    "error": "unknown_ticket",
                    "message": f"unknown ticket {ticket!r}",
                }))
                return
            # Any other ServiceError (the service stopping under the
            # waiter) is a structured 500 from _handle.
            result = await service.result(ticket)
            payload = (result_to_wire(result)
                       if hasattr(result, "to_dict") else result)
            writer.write(_response(200, {"ticket": ticket,
                                         "result": payload}))
            return
        if method == "GET" and path.startswith("/stream/"):
            await self._stream(path[len("/stream/"):], writer)
            return
        if method == "GET" and path == "/healthz":
            writer.write(_response(200, service.healthz()))
            return
        if method == "GET" and path == "/metrics":
            writer.write(_response(200, service.metrics.as_dict()))
            return
        writer.write(_response(404, {"error": "no_such_endpoint"}))

    async def _stream(self, ticket: str,
                      writer: asyncio.StreamWriter) -> None:
        """Newline-JSON progress events until the ticket settles."""
        service = self.service
        if service.status(ticket) is None:
            writer.write(_response(404, {"error": "unknown_ticket"}))
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        sent = 0
        while True:
            status = service.status(ticket)
            if status is None:
                break
            events = status.get("events", [])
            while sent < len(events):
                writer.write(
                    json.dumps(events[sent], sort_keys=True).encode()
                    + b"\n"
                )
                sent += 1
            await writer.drain()
            if status["state"] in (DONE, FAILED):
                writer.write(
                    json.dumps({"event": "settled",
                                "state": status["state"]}).encode() + b"\n"
                )
                break
            await service.clock.sleep(service.config.stream_interval)
