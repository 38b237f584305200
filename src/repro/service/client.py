"""`ServiceClient`: the TCP client of a ``python -m repro serve`` server.

Requests are serialized on one socket, so run one client per concurrent
caller. Server-side failures arrive as the service's typed errors
(:class:`~repro.service.jobs.AdmissionRejected`,
:class:`~repro.service.jobs.JobFailed`, ...). An in-process caller uses
:class:`~repro.service.service.FactorService` directly.

Resilience: connects (and reads) under the client's
``timeout`` — a down server is a typed
:class:`~repro.service.jobs.ServiceUnavailable`, never a hang — and a
broken connection triggers reconnect plus, when a
:class:`~repro.service.resilience.RetryPolicy` is configured,
exponential-backoff retries of ``retryable`` errors. Retries are safe
because every ``factor`` carries a stable ``job_id`` and the server
dedups on it: a retry of an in-flight or completed job never runs it
twice.
"""

from __future__ import annotations

import socket
import threading
import time
import uuid
from dataclasses import dataclass

import numpy as np

from repro.service import protocol
from repro.service.jobs import (
    AdmissionRejected,
    DeadlineExceeded,
    JobFailed,
    ServiceClosed,
    ServiceError,
    ServiceUnavailable,
    UnknownPatternError,
    ValidationFailed,
)
from repro.service.resilience import RetryPolicy

#: Wire ``kind`` tag -> exception type raised client-side.
_ERROR_TYPES = {
    "rejected": lambda m: AdmissionRejected("remote", m),
    "closed": ServiceClosed,
    "unknown_pattern": UnknownPatternError,
    "deadline": DeadlineExceeded,
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

    ``retry`` (a :class:`~repro.service.resilience.RetryPolicy`, or None
    to disable) governs reconnect-and-retry of transient failures;
    :attr:`retry_count` tallies retries actually taken.
    """

    def __init__(
        self,
        address: tuple[str, int],
        timeout: float | None = 120.0,
        retry: RetryPolicy | None = None,
    ):
        self.address = address
        self.timeout = timeout
        self.retry = retry
        #: Total transient-error retries this client has taken.
        self.retry_count = 0
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
    def _request_once(self, msg: dict) -> dict:
        """One request/response round trip. Connection-level failures
        (broken pipe, timeout, dead server) drop the socket and surface
        as the retryable :class:`ServiceUnavailable`."""
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

    def _request(self, msg: dict) -> dict:
        """Round trip with the retry policy applied: ``retryable`` typed
        errors back off and go again (reconnecting if the socket
        dropped); everything else raises immediately."""
        attempt = 0
        while True:
            try:
                return self._request_once(msg)
            except ServiceError as exc:
                if self.retry is None or not self.retry.should_retry(
                    attempt, exc
                ):
                    raise
                time.sleep(self.retry.delay(attempt))
                attempt += 1
                self.retry_count += 1

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
        job_id: str | None = None,
        timeout: float | None = None,
        deadline_s: float | None = None,
    ) -> ClientResult:
        """Factor a matrix (or pattern handle + values); blocks until
        the job completes. Raises the service's typed errors.
        ``deadline_s`` is the job's end-to-end budget — past it the call
        raises :class:`~repro.service.jobs.DeadlineExceeded`, never
        hangs. A stable ``job_id`` is generated when not given, so
        retries of the same call are idempotent."""
        timeout = self.timeout if timeout is None else timeout
        msg = {
            "op": "factor",
            "pattern_id": pattern_id,
            # Stable across retries: the server dedups on it.
            "job_id": job_id or uuid.uuid4().hex[:12],
            "timeout": timeout,
            "deadline_s": deadline_s,
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
