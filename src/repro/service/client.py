"""`ServiceClient`: the TCP client of a ``python -m repro serve`` server.

Requests are serialized on one socket, so run one client per concurrent
caller. Server-side failures arrive as the service's typed errors
(:class:`~repro.service.jobs.AdmissionRejected`,
:class:`~repro.service.jobs.JobFailed`, ...). An in-process caller uses
:class:`~repro.service.service.FactorService` directly.

Resilience: connects (and reads) under the client's
``timeout`` — a down server is a typed
:class:`~repro.service.jobs.ServiceUnavailable`, never a hang — and a
broken connection drops the socket, so the client's next call
reconnects. The client never retries on its own: the caller resubmits,
the service re-runs the job (it names every job itself), and the answer
is bitwise the same.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass

import numpy as np

from repro.service import protocol
from repro.service.jobs import (
    AdmissionRejected,
    JobFailed,
    ServiceClosed,
    ServiceError,
    ServiceUnavailable,
    UnknownPatternError,
    ValidationFailed,
)

#: Wire ``kind`` tag -> exception type raised client-side.
_ERROR_TYPES = {
    "rejected": lambda m: AdmissionRejected("remote", m),
    "closed": ServiceClosed,
    "unknown_pattern": UnknownPatternError,
    "unavailable": ServiceUnavailable,
    "failed": lambda m: JobFailed("<remote>", m),
    "validation": lambda m: ValidationFailed("<remote>", m),
    "error": ServiceError,
}


@dataclass
class ClientResult:
    """Result of one remote factorization."""

    job_id: str
    pattern_id: str
    #: ``"hit"`` or ``"miss"``.
    cache: str
    #: The factor, in permuted order.
    L: object
    #: Fill-reducing permutation (for :func:`solve`).
    perm: np.ndarray
    #: Service-side timing record as a plain dict.
    record: dict | None = None

    def solve(self, b: np.ndarray) -> np.ndarray:
        from repro.numeric import solve_with_factor

        return solve_with_factor(self.L, b, self.perm)


class ServiceClient:
    """Submit factorizations to a ``repro serve`` server.

    >>> client = ServiceClient(address=("host", 9876))
    >>> res = client.factor(A)
    >>> res2 = client.factor(pattern_id=res.pattern_id, values=new_data)
    """

    def __init__(
        self,
        address: tuple[str, int],
        timeout: float | None = 120.0,
    ):
        self.address = address
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()
        self._connect()

    def _connect(self) -> None:
        # The configured timeout bounds connect AND every read: a down
        # or wedged server is a typed error, never an indefinite hang.
        try:
            self._sock = socket.create_connection(
                self.address, timeout=self.timeout
            )
        except OSError as exc:
            self._sock = None
            raise ServiceUnavailable(
                f"cannot connect to {self.address[0]}:{self.address[1]}: "
                f"{exc}"
            ) from exc
        self._sock.setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
        )

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close never matters
                pass
            self._sock = None

    # ------------------------------------------------------------------
    def _request(self, msg: dict) -> dict:
        """One request/response round trip. Connection-level failures
        (broken pipe, timeout, dead server) drop the socket and surface
        as :class:`ServiceUnavailable`; the next call reconnects."""
        with self._lock:
            try:
                if self._sock is None:
                    self._connect()
                protocol.send_msg(self._sock, msg)
                response = protocol.recv_msg(self._sock)
            except ServiceUnavailable:
                raise
            except (OSError, protocol.ProtocolError) as exc:
                self._drop_connection()
                raise ServiceUnavailable(
                    f"connection to {self.address} broke: {exc!r}"
                ) from exc
        if response is None:
            self._drop_connection()
            raise ServiceUnavailable("server closed the connection")
        if not response.get("ok"):
            make = _ERROR_TYPES.get(response.get("kind"), ServiceError)
            raise make(response.get("error", "unknown server error"))
        return response

    # ------------------------------------------------------------------
    def ping(self) -> bool:
        return bool(self._request({"op": "ping"})["ok"])

    def health(self) -> dict:
        """The service's liveness/degradation probe (see
        :meth:`~repro.service.service.FactorService.health`)."""
        return self._request({"op": "health"})["health"]

    def factor(
        self,
        A=None,
        pattern_id: str | None = None,
        values: np.ndarray | None = None,
        timeout: float | None = None,
    ) -> ClientResult:
        """Factor a matrix (or pattern handle + values); blocks until
        the job completes or ``timeout`` (default: the client's) runs
        out. Raises the service's typed errors. The service names the
        job (``ClientResult.job_id``)."""
        timeout = self.timeout if timeout is None else timeout
        msg = {
            "op": "factor",
            "pattern_id": pattern_id,
            "timeout": timeout,
        }
        if A is not None:
            msg["A"] = protocol.pack_csc(A)
        if values is not None:
            msg["values"] = np.ascontiguousarray(values, dtype=np.float64)
        r = self._request(msg)
        return ClientResult(
            job_id=r["job_id"],
            pattern_id=r["pattern_id"],
            cache=r["cache"],
            L=protocol.unpack_csc(r["L"]),
            perm=np.asarray(r["perm"]),
            record=r.get("record"),
        )

    def stats(self) -> dict:
        return self._request({"op": "stats"})["stats"]

    def shutdown_server(self) -> None:
        """Ask the server to stop serving."""
        self._request({"op": "shutdown"})

    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
