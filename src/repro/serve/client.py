"""Blocking NDJSON client for :class:`~repro.serve.server.SessionServer`.

A thin, dependency-free request/response wrapper over one TCP
connection: each call writes a frame, reads the matching response line,
and either returns the ``result`` object or re-raises the server-side
error as the library exception class it names
(:func:`repro.serve.protocol.raise_remote`).  One client is safe to
share between threads (calls serialise on an internal lock), but
concurrency *across the server's coalescing window* is better driven
with one client per thread — separate connections let the event loop
interleave requests, which is what the admission queue batches.

The :attr:`ServeClient.last_epoch` attribute records the epoch id of
the most recent answer, so callers (and the property tests) can check
which committed database version a response was pinned to.
"""

from __future__ import annotations

import socket
import threading
from typing import Dict, Iterable, List, Optional, Sequence

from repro.exceptions import ProtocolError, ServeError
from repro.serve.protocol import decode_frame, encode_frame, raise_remote


class ServeClient:
    """One connection to a serving endpoint.

    Parameters
    ----------
    host, port:
        The server's bound address (see
        :attr:`~repro.serve.server.SessionServer.port`).
    tenant:
        Default tenant id for :meth:`release` calls.
    timeout:
        Socket timeout in seconds for connect and each response read.
    """

    def __init__(
        self,
        host: str,
        port: int,
        tenant: Optional[str] = None,
        timeout: float = 60.0,
    ):
        self.tenant = tenant
        self.last_epoch: Optional[int] = None
        self._mutex = threading.Lock()
        self._next_id = 0
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ServeError(
                f"could not connect to {host}:{port}: {exc}"
            ) from exc
        self._reader = self._sock.makefile("rb")

    # ---------------------------------------------------------------- core
    def call(self, op: str, **params) -> Dict[str, object]:
        """Send one request and return the full response frame.

        Raises the server-reported exception on ``ok: false`` responses;
        convenience methods below unwrap ``result`` for the common ops.
        """
        with self._mutex:
            self._next_id += 1
            request_id = self._next_id
            frame = encode_frame({"id": request_id, "op": op, **params})
            try:
                self._sock.sendall(frame)
                line = self._reader.readline()
            except (ConnectionError, OSError) as exc:
                raise ServeError(f"connection to server lost: {exc}") from exc
        if not line:
            raise ServeError("server closed the connection")
        payload = decode_frame(line)
        if payload.get("id") != request_id:
            raise ProtocolError(
                f"response id {payload.get('id')!r} does not match "
                f"request id {request_id}"
            )
        if not payload.get("ok"):
            error = payload.get("error")
            if not isinstance(error, dict):
                raise ProtocolError("error response carries no error object")
            raise_remote(error)
        if isinstance(payload.get("epoch"), int):
            self.last_epoch = payload["epoch"]
        return payload

    # -------------------------------------------------------- conveniences
    def count(self) -> int:
        """``|Q(D)|`` at the server's head epoch."""
        return self.call("count")["result"]["count"]

    def probe(
        self, relation: str, rows: Sequence[Sequence[object]]
    ) -> List[int]:
        """``w(t)`` per probe row (see :meth:`PreparedQuery.probe`)."""
        return self.call("probe", relation=relation, rows=[list(r) for r in rows])[
            "result"
        ]["weights"]

    def sensitivity(
        self, method: str = "auto", skip_relations: Iterable[str] = ()
    ) -> Dict[str, object]:
        """The wire view of ``LS(Q, D)`` (dict; tables never serialised)."""
        return self.call(
            "sensitivity", method=method, skip_relations=list(skip_relations)
        )["result"]

    def top_k(
        self, k: int, skip_relations: Iterable[str] = ()
    ) -> Dict[str, object]:
        """The wire view of the top-k clamping upper bound."""
        return self.call("top_k", k=k, skip_relations=list(skip_relations))[
            "result"
        ]

    def explain(self, skip_relations: Iterable[str] = ()) -> Dict[str, object]:
        return self.call("explain", skip_relations=list(skip_relations))[
            "result"
        ]

    def release(
        self, epsilon: float, tenant: Optional[str] = None, **params
    ) -> Dict[str, object]:
        """A per-tenant DP release; ``tenant`` falls back to the client
        default.  Mechanism parameters pass through (``mechanism``,
        ``primary``, ``ell``, ``delta``, ...)."""
        tenant_id = tenant if tenant is not None else self.tenant
        if tenant_id is None:
            raise ServeError(
                "release needs a tenant (per call or as the client default)"
            )
        return self.call(
            "release", epsilon=epsilon, tenant=tenant_id, **params
        )["result"]

    def apply(self, batch: Iterable[Sequence[object]]) -> Dict[str, object]:
        """Commit one update batch; returns ``{"count", "applied"}`` with
        the new epoch id recorded on :attr:`last_epoch`."""
        encoded = [[op, relation, list(row)] for op, relation, row in batch]
        return self.call("apply", batch=encoded)["result"]

    def insert(self, relation: str, row: Sequence[object]) -> int:
        return int(self.apply([("insert", relation, row)])["count"])

    def delete(self, relation: str, row: Sequence[object]) -> int:
        return int(self.apply([("delete", relation, row)])["count"])

    def stats(self) -> Dict[str, object]:
        return self.call("stats")["result"]

    def epoch(self) -> Dict[str, object]:
        return self.call("epoch")["result"]

    def shutdown(self) -> Dict[str, object]:
        """Ask the server to drain and exit."""
        return self.call("shutdown")["result"]

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        with self._mutex:
            try:
                self._reader.close()
            finally:
                self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        peer = self._sock.getpeername() if self._sock.fileno() >= 0 else "closed"
        return f"ServeClient({peer}, tenant={self.tenant!r})"


def connect(
    host: str, port: int, tenant: Optional[str] = None, timeout: float = 60.0
) -> ServeClient:
    """Open a client connection (alias for the constructor)."""
    return ServeClient(host, port, tenant=tenant, timeout=timeout)
