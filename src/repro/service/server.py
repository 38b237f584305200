"""TCP front-end for a :class:`~repro.service.service.FactorService`.

A thin :mod:`socketserver` wrapper: each connection gets a handler
thread; each request is one framed message (see
:mod:`repro.service.protocol`); factorization requests block the
connection's thread on the job handle — concurrency comes from multiple
connections, admission control from the service's queue.

Request ops::

    {"op": "ping"}
    {"op": "health"}
    {"op": "factor", "A": {...csc...}} |
    {"op": "factor", "pattern_id": "...", "values": ndarray}
    {"op": "stats"}
    {"op": "shutdown"}

Error responses carry ``ok: False`` plus the typed error's stable
``kind`` tag, so :class:`~repro.service.client.ServiceClient` re-raises
the same exception types the in-process API uses.
"""

from __future__ import annotations

import socketserver
import threading

from repro.service import protocol
from repro.service.jobs import ServiceError
from repro.service.service import FactorService


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        server: ServiceServer = self.server.owner  # type: ignore[attr-defined]
        while True:
            try:
                msg = protocol.recv_msg(self.request)
            except (protocol.ProtocolError, OSError):
                return
            if msg is None:
                return
            try:
                response = server.dispatch(msg)
            except ServiceError as exc:
                response = {
                    "ok": False, "kind": exc.kind, "error": str(exc)
                }
            except Exception as exc:  # noqa: BLE001 - report, keep serving
                response = {
                    "ok": False, "kind": "error", "error": repr(exc)
                }
            try:
                protocol.send_msg(self.request, response)
            except OSError:
                return
            if msg.get("op") == "shutdown":
                return


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class ServiceServer:
    """Serve a :class:`FactorService` on a TCP address."""

    def __init__(
        self,
        service: FactorService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self._tcp = _TCPServer((host, port), _Handler)
        self._tcp.owner = self
        self._thread: threading.Thread | None = None
        self._shutdown_requested = threading.Event()
        self._serving = False

    @property
    def address(self) -> tuple[str, int]:
        return self._tcp.server_address[:2]

    # ------------------------------------------------------------------
    def dispatch(self, msg: dict) -> dict:
        op = msg.get("op")
        if op == "ping":
            return {"ok": True}
        if op == "health":
            return {"ok": True, "health": self.service.health()}
        if op == "stats":
            return {"ok": True, "stats": self.service.stats()}
        if op == "factor":
            A = msg.get("A")
            handle = self.service.submit(
                A=None if A is None else protocol.unpack_csc(A),
                pattern_id=msg.get("pattern_id"),
                values=msg.get("values"),
                timeout=msg.get("timeout"),
            )
            result = handle.result(msg.get("timeout"))
            return {
                "ok": True,
                "job_id": result.job_id,
                "pattern_id": result.pattern_id,
                "cache": result.cache,
                "L": protocol.pack_csc(result.L),
                "perm": result.perm,
                "record": (
                    None if result.record is None
                    else result.record.to_dict()
                ),
            }
        if op == "shutdown":
            self._shutdown_requested.set()
            # shutdown() blocks until serve_forever exits; never call it
            # from a handler thread.
            threading.Thread(
                target=self._tcp.shutdown, daemon=True
            ).start()
            return {"ok": True}
        raise ServiceError(f"unknown op {op!r}")

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        self._serving = True
        self._tcp.serve_forever(poll_interval=0.1)

    def start_background(self) -> "ServiceServer":
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-service-tcp", daemon=True
        )
        self._thread.start()
        return self

    @property
    def shutdown_requested(self) -> bool:
        """True once a client sent ``{"op": "shutdown"}``."""
        return self._shutdown_requested.is_set()

    def close(self) -> None:
        """Stop accepting, close the socket (service left to the caller)."""
        if self._serving:
            self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
