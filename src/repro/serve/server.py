"""The asyncio NDJSON front end of the serving layer.

:class:`SessionServer` wires the pieces of :mod:`repro.serve` together
around one maintained :class:`~repro.session.PreparedQuery`:

* every read request pins an epoch lease
  (:class:`~repro.serve.epochs.EpochManager`) for exactly the lifetime
  of the request, so its answer — and the ``epoch`` field echoed in the
  response — is consistent with one committed database version;
* reads are admitted through the coalescing queue
  (:class:`~repro.serve.admission.AdmissionQueue`), so concurrent
  same-epoch probes ride one vectorized pass and duplicate
  count/sensitivity requests execute once;
* ``apply`` requests queue on the single writer thread and resolve with
  the new epoch id;
* ``release`` requests spend the calling tenant's isolated budget
  (:class:`~repro.serve.tenants.TenantRegistry`) — never coalesced,
  never shared.

The event loop itself does no engine work: requests ``await`` futures
resolved by the admission/writer threads (or run blocking calls in the
default executor), so one slow sensitivity computation never stalls
frame parsing for other connections.  Connections are handled
request-at-a-time; concurrency — and hence coalescing — comes from many
connections, which is how real callers (and the bench/property suites)
drive the server.  Shutdown is graceful: a ``shutdown`` frame (or
:meth:`SessionServer.stop`) finishes in-flight requests, answers them,
then closes the listener and drains the worker threads.
"""

from __future__ import annotations

import asyncio
import functools
import threading
from typing import Dict, Iterable, Optional, Tuple

from repro.exceptions import ProtocolError, ServeError, TenantError
from repro.serve.admission import AdmissionQueue
from repro.serve.epochs import EpochManager
from repro.serve.protocol import (
    MAX_LINE,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
    error_response,
    explanation_to_dict,
    ok_response,
    outcome_to_dict,
    parse_request,
    sensitivity_result_to_dict,
)
from repro.serve.tenants import TenantRegistry
from repro.session import PreparedQuery


class SessionServer:
    """Serve one prepared query over newline-delimited JSON.

    Parameters
    ----------
    session:
        Epoch 0's session.  The server never mutates it: its epoch
        manager's writer folds each batch into a fork of the head.  The
        server holds the session only as epoch 0's, so it is dropped when
        a batch supersedes that epoch and no lease pins it.
    host, port:
        Listen address; ``port=0`` (the default) binds an ephemeral port,
        published on :attr:`port` once the server is ready.
    default_epsilon:
        Open-door tenant mode: unknown tenant ids presented to
        ``release`` are auto-registered with this total budget.  ``None``
        requires tenants to be pre-registered on :attr:`tenants`.
    max_batch:
        Probe-coalescing cap, forwarded to the admission queue.

    Run blocking (:meth:`run`), or in a daemon thread behind the calling
    thread (:meth:`start_background` / :meth:`stop`) — the pattern the
    tests, benchmarks and ``repro serve`` CLI all use.
    """

    def __init__(
        self,
        session: PreparedQuery,
        host: str = "127.0.0.1",
        port: int = 0,
        default_epsilon: Optional[float] = None,
        tenants: Optional[TenantRegistry] = None,
        max_batch: int = 4096,
    ):
        self.manager = EpochManager(session)
        self.admission = AdmissionQueue(self.manager, max_batch=max_batch)
        self.tenants = (
            tenants if tenants is not None else TenantRegistry(default_epsilon)
        )
        self._host_arg = host
        self._port_arg = port
        #: Bound address, available once the server is ready.
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._requests_served = 0
        self._counter_mutex = threading.Lock()
        self._connections: set = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._handlers = {
            "count": self._op_count,
            "probe": self._op_probe,
            "sensitivity": self._op_sensitivity,
            "top_k": self._op_top_k,
            "explain": self._op_explain,
            "release": self._op_release,
            "apply": self._op_apply,
            "stats": self._op_stats,
            "epoch": self._op_epoch,
            "shutdown": self._op_shutdown,
        }

    # ------------------------------------------------------------ lifecycle
    def run(self) -> None:
        """Serve until a ``shutdown`` frame or :meth:`stop` (blocking)."""
        try:
            asyncio.run(self._main())
        finally:
            self.admission.close()
            self.manager.close()

    def start_background(self) -> "SessionServer":
        """Start serving on a daemon thread; returns once the listener is
        bound (:attr:`host`/:attr:`port` are then valid)."""
        if self._thread is not None:
            raise ServeError("server was already started")
        self._thread = threading.Thread(
            target=self.run, name="repro-serve-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise ServeError("server failed to become ready within 60s")
        if self._startup_error is not None:
            self._thread.join()
            raise ServeError(
                f"server failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def stop(self, timeout: float = 60.0) -> None:
        """Trigger graceful shutdown and wait for the serving thread."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._signal_shutdown)
            except RuntimeError:
                pass  # loop already shut down between the checks
        if self._thread is not None:
            self._thread.join(timeout)

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block until the background serving thread exits (e.g. after a
        client-issued ``shutdown`` frame)."""
        if self._thread is not None:
            self._thread.join(timeout)

    def _signal_shutdown(self) -> None:
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    def __enter__(self) -> "SessionServer":
        return self.start_background()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_connection,
                self._host_arg,
                self._port_arg,
                limit=MAX_LINE + 2,
            )
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            raise
        address = server.sockets[0].getsockname()
        self.host, self.port = address[0], address[1]
        self._ready.set()
        async with server:
            await self._shutdown_event.wait()
            server.close()
            await server.wait_closed()
            # Connection handlers race readline against the shutdown
            # event, so idle connections exit promptly; give in-flight
            # requests a grace window, then abort stragglers.
            for _ in range(200):
                if not self._connections:
                    break
                await asyncio.sleep(0.05)
            for writer in list(self._connections):
                writer.close()

    # ---------------------------------------------------------- connections
    async def _handle_connection(self, reader, writer) -> None:
        self._connections.add(writer)
        try:
            while True:
                line = await self._next_line(reader, writer)
                if line is None:
                    break
                if not line.strip():
                    continue
                response, stop = await self._handle_line(line)
                await self._write(writer, response)
                if stop:
                    self._signal_shutdown()
                    break
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _next_line(self, reader, writer) -> Optional[bytes]:
        """The next frame, or ``None`` on EOF/shutdown/oversized input."""
        read_task = asyncio.ensure_future(reader.readline())
        stop_task = asyncio.ensure_future(self._shutdown_event.wait())
        try:
            done, _pending = await asyncio.wait(
                {read_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            stop_task.cancel()
        if read_task not in done:
            read_task.cancel()
            return None
        try:
            line = read_task.result()
        except (asyncio.LimitOverrunError, ValueError):
            await self._write(
                writer,
                error_response(
                    None, ProtocolError(f"frame exceeds MAX_LINE={MAX_LINE}")
                ),
            )
            return None
        except (ConnectionError, OSError):
            return None
        return line or None

    async def _handle_line(
        self, line: bytes
    ) -> Tuple[Dict[str, object], bool]:
        request_id: object = None
        op = ""
        try:
            payload = decode_frame(line)
            request_id, op, params = parse_request(payload)
            result, epoch = await self._handlers[op](params)
        except Exception as exc:
            return error_response(request_id, exc), False
        with self._counter_mutex:
            self._requests_served += 1
        return ok_response(request_id, result, epoch), op == "shutdown"

    async def _write(self, writer, payload: Dict[str, object]) -> None:
        try:
            frame = encode_frame(payload)
        except ProtocolError as exc:
            frame = encode_frame(error_response(payload.get("id"), exc))
        try:
            writer.write(frame)
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away; its request was still served

    # -------------------------------------------------------------- helpers
    async def _admit_read(self, kind: str, **params):
        """Lease -> coalesced read -> release; returns (result, epoch)."""
        lease = self.manager.acquire()
        try:
            result = await asyncio.wrap_future(
                self.admission.submit_read(lease, kind, **params)
            )
            return result, lease.epoch_id
        finally:
            lease.release()

    @staticmethod
    def _skip(params: Dict[str, object]) -> Tuple[str, ...]:
        skip = params.get("skip_relations", ())
        if not isinstance(skip, (list, tuple)):
            raise ProtocolError("'skip_relations' must be a list")
        return tuple(skip)

    # ------------------------------------------------------------- handlers
    async def _op_count(self, params):
        count, epoch = await self._admit_read("count")
        return {"count": count}, epoch

    async def _op_probe(self, params):
        relation = params.get("relation")
        rows = params.get("rows")
        if not isinstance(relation, str) or not isinstance(rows, list):
            raise ProtocolError(
                "probe needs a string 'relation' and a list 'rows'"
            )
        lease = self.manager.acquire()
        try:
            weights = await asyncio.wrap_future(
                self.admission.submit_probe(lease, relation, rows)
            )
            return {"weights": weights}, lease.epoch_id
        finally:
            lease.release()

    async def _op_sensitivity(self, params):
        result, epoch = await self._admit_read(
            "sensitivity",
            method=params.get("method", "auto"),
            skip_relations=self._skip(params),
            top_k=params.get("top_k"),
        )
        return sensitivity_result_to_dict(result), epoch

    async def _op_top_k(self, params):
        k = params.get("k")
        if not isinstance(k, int) or k < 1:
            raise ProtocolError("top_k needs a positive integer 'k'")
        result, epoch = await self._admit_read(
            "top_k", k=k, skip_relations=self._skip(params)
        )
        return sensitivity_result_to_dict(result), epoch

    async def _op_explain(self, params):
        result, epoch = await self._admit_read(
            "explain", skip_relations=self._skip(params)
        )
        return explanation_to_dict(result), epoch

    async def _op_release(self, params):
        tenant_id = params.get("tenant")
        if not isinstance(tenant_id, str) or not tenant_id:
            raise TenantError("release needs a non-empty string 'tenant'")
        tenant = self.tenants.get(tenant_id)
        epsilon = params.get("epsilon")
        if not isinstance(epsilon, (int, float)) or isinstance(epsilon, bool):
            raise ProtocolError("release needs a numeric 'epsilon'")
        kwargs: Dict[str, object] = {"accountant": tenant.accountant}
        for name in (
            "mechanism",
            "primary",
            "ell",
            "delta",
            "clamp_nonnegative",
            "max_threshold",
        ):
            if name in params:
                kwargs[name] = params[name]
        lease = self.manager.acquire()
        try:
            # Releases draw fresh noise and spend budget per request, so
            # they bypass the coalescing queue; the executor keeps the
            # sensitivity work off the event loop.
            outcome = await asyncio.get_running_loop().run_in_executor(
                None,
                functools.partial(
                    self.manager.release, lease, float(epsilon), **kwargs
                ),
            )
            return outcome_to_dict(outcome), lease.epoch_id
        finally:
            lease.release()

    async def _op_apply(self, params):
        batch = params.get("batch")
        if not isinstance(batch, list):
            raise ProtocolError("apply needs a list 'batch'")
        applied = await asyncio.wrap_future(self.manager.submit(batch))
        return (
            {"count": applied.count, "applied": applied.applied},
            applied.epoch_id,
        )

    async def _op_stats(self, params):
        lease = self.manager.acquire()
        try:
            session_stats = await asyncio.wrap_future(
                self.admission.submit_read(lease, "stats")
            )
            with self._counter_mutex:
                served = self._requests_served
            payload = {
                "protocol": PROTOCOL_VERSION,
                "requests_served": served,
                "session": session_stats,
                "epochs": self.manager.stats(),
                "admission": self.admission.stats(),
                "tenants": self.tenants.stats(),
            }
            return payload, lease.epoch_id
        finally:
            lease.release()

    async def _op_epoch(self, params):
        head = self.manager.head
        return (
            {
                "epoch": head.epoch_id,
                "updates_applied": head.updates_applied,
                "protocol": PROTOCOL_VERSION,
            },
            head.epoch_id,
        )

    async def _op_shutdown(self, params):
        return {"shutting_down": True}, None

    def __repr__(self) -> str:
        bound = f"{self.host}:{self.port}" if self.port else "unbound"
        return f"SessionServer({bound}, head={self.manager.head.epoch_id})"


def serve(
    session: PreparedQuery,
    host: str = "127.0.0.1",
    port: int = 0,
    default_epsilon: Optional[float] = None,
    tenant_budgets: Optional[Dict[str, float]] = None,
    max_batch: int = 4096,
) -> SessionServer:
    """Build a :class:`SessionServer` with pre-registered tenant budgets
    (convenience constructor used by the CLI and examples)."""
    registry = TenantRegistry(default_epsilon)
    for tenant_id, budget in (tenant_budgets or {}).items():
        registry.register(tenant_id, budget)
    return SessionServer(
        session,
        host=host,
        port=port,
        tenants=registry,
        max_batch=max_batch,
    )
