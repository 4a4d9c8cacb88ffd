"""Admission control: coalescing concurrent reads into shared passes.

The expensive serving reads are *batchable*: the probe machinery
(:meth:`repro.session.PreparedQuery.probe`) answers a thousand probe
tuples with **one** probe-id-tagged join chain against the maintained
botjoins and topjoins, at nearly the cost of answering one.  A server
that executes each arriving request by itself throws that economy away.
The :class:`AdmissionQueue` gets it back:

* Callers submit requests (:meth:`~AdmissionQueue.submit_probe`,
  :meth:`~AdmissionQueue.submit_read`) and receive a
  ``concurrent.futures.Future`` immediately.
* A dispatcher thread drains everything pending in rounds.  Within one
  round, probe requests pinned to the **same epoch and relation** are
  concatenated into one row batch and answered by a single vectorized
  pass; per-request slices are fanned back out to the waiting futures.
  Cacheable reads (``count``, ``sensitivity``, ``top_k``, ``explain``,
  ``stats``) that share an epoch and configuration execute **once** and
  resolve every duplicate future with the same result object.
* DP releases are deliberately *not* admissible here: each release draws
  fresh randomness and spends a specific tenant's budget, so two
  identical release requests are two distinct answers.  The server calls
  :meth:`~repro.serve.epochs.EpochManager.release` directly, per
  request.

Coalescing never crosses epochs — requests pinned to different epochs
land in different groups, preserving the epoch-consistency guarantee of
:mod:`repro.serve.epochs`.  ``benchmarks/bench_serving.py`` measures the
payoff: coalesced probe admission versus request-at-a-time on the same
workload.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ServeError
from repro.serve.epochs import EpochLease, EpochManager

#: Read kinds the queue knows how to coalesce (dedup by configuration).
READ_KINDS = ("count", "sensitivity", "top_k", "explain", "stats")


class _ProbeRequest:
    __slots__ = ("lease", "relation", "rows", "future")

    def __init__(
        self,
        lease: EpochLease,
        relation: str,
        rows: List[Tuple[object, ...]],
        future: "Future",
    ):
        self.lease = lease
        self.relation = relation
        self.rows = rows
        self.future = future


class _ReadRequest:
    __slots__ = ("lease", "kind", "params", "future")

    def __init__(
        self,
        lease: EpochLease,
        kind: str,
        params: Tuple[Tuple[str, object], ...],
        future: "Future",
    ):
        self.lease = lease
        self.kind = kind
        self.params = params
        self.future = future


def _freeze(value):
    """Canonicalise a parameter value into a hashable grouping key."""
    if isinstance(value, (list, tuple, set, frozenset)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


class AdmissionQueue:
    """Round-based coalescing front of an :class:`EpochManager`.

    Parameters
    ----------
    manager:
        The epoch manager every admitted read executes against.
    max_batch:
        Cap on probe rows merged into one vectorized pass; a larger
        merged group is answered in ``max_batch``-sized chunks (still far
        fewer passes than request-at-a-time).
    """

    def __init__(self, manager: EpochManager, max_batch: int = 4096):
        if max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch}")
        self._manager = manager
        self._max_batch = max_batch
        self._mutex = threading.Lock()
        self._wakeup = threading.Condition(self._mutex)
        self._probes: List[_ProbeRequest] = []
        self._reads: List[_ReadRequest] = []
        self._closed = False
        # Counters (guarded by the mutex) for the server's stats endpoint:
        # requests in, engine executions out — their ratio is the win.
        self._counters = {
            "probe_requests": 0,
            "probe_rows": 0,
            "probe_passes": 0,
            "read_requests": 0,
            "read_executions": 0,
            "dispatch_rounds": 0,
        }
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-admission", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------ submission
    def submit_probe(
        self,
        lease: EpochLease,
        relation: str,
        rows: Sequence[Sequence[object]],
    ) -> "Future":
        """Admit a probe request; resolves to ``List[int]`` (one ``w(t)``
        per row, in input order)."""
        request = _ProbeRequest(
            lease, relation, [tuple(row) for row in rows], Future()
        )
        with self._wakeup:
            if self._closed:
                raise ServeError("admission queue is closed")
            self._probes.append(request)
            self._counters["probe_requests"] += 1
            self._counters["probe_rows"] += len(request.rows)
            self._wakeup.notify()
        return request.future

    def submit_read(self, lease: EpochLease, kind: str, **params) -> "Future":
        """Admit a cacheable read (``kind`` in :data:`READ_KINDS`).

        Requests sharing (epoch, kind, configuration) within one dispatch
        round execute once; every duplicate future resolves to the same
        result object (results are immutable value objects, so sharing is
        safe).
        """
        if kind not in READ_KINDS:
            raise ServeError(
                f"unknown read kind {kind!r} (known: {', '.join(READ_KINDS)})"
            )
        frozen = tuple(sorted((k, _freeze(v)) for k, v in params.items()))
        request = _ReadRequest(lease, kind, frozen, Future())
        with self._wakeup:
            if self._closed:
                raise ServeError("admission queue is closed")
            self._reads.append(request)
            self._counters["read_requests"] += 1
            self._wakeup.notify()
        return request.future

    # -------------------------------------------------------------- dispatch
    def _dispatch_loop(self) -> None:
        while True:
            with self._wakeup:
                while not self._probes and not self._reads and not self._closed:
                    self._wakeup.wait()
                if self._closed and not self._probes and not self._reads:
                    return
                probes, self._probes = self._probes, []
                reads, self._reads = self._reads, []
                self._counters["dispatch_rounds"] += 1
            self._run_round(probes, reads)

    def _run_round(
        self, probes: List[_ProbeRequest], reads: List[_ReadRequest]
    ) -> None:
        probe_groups: Dict[Tuple[int, str], List[_ProbeRequest]] = {}
        for request in probes:
            key = (request.lease.epoch_id, request.relation)
            probe_groups.setdefault(key, []).append(request)
        for group in probe_groups.values():
            self._run_probe_group(group)

        read_groups: Dict[Tuple, List[_ReadRequest]] = {}
        for request in reads:
            key = (request.lease.epoch_id, request.kind, request.params)
            read_groups.setdefault(key, []).append(request)
        for group in read_groups.values():
            self._run_read_group(group)

    def _run_probe_group(self, group: List[_ProbeRequest]) -> None:
        """One vectorized pass (per ``max_batch`` chunk) for a same-epoch,
        same-relation probe group; slices fan back out by offset."""
        live = [r for r in group if r.future.set_running_or_notify_cancel()]
        if not live:
            return
        relation = live[0].relation
        cursor = 0
        while cursor < len(live):
            chunk: List[_ProbeRequest] = []
            rows: List[Tuple[object, ...]] = []
            while cursor < len(live):
                request = live[cursor]
                if chunk and len(rows) + len(request.rows) > self._max_batch:
                    break
                chunk.append(request)
                rows.extend(request.rows)
                cursor += 1
            try:
                weights = self._manager.probe(chunk[0].lease, relation, rows)
            except Exception as exc:
                for request in chunk:
                    request.future.set_exception(exc)
                continue
            with self._mutex:
                self._counters["probe_passes"] += 1
            offset = 0
            for request in chunk:
                request.future.set_result(
                    weights[offset : offset + len(request.rows)]
                )
                offset += len(request.rows)

    def _run_read_group(self, group: List[_ReadRequest]) -> None:
        live = [r for r in group if r.future.set_running_or_notify_cancel()]
        if not live:
            return
        first = live[0]
        try:
            result = self._execute_read(first.lease, first.kind, first.params)
        except Exception as exc:
            for request in live:
                request.future.set_exception(exc)
            return
        with self._mutex:
            self._counters["read_executions"] += 1
        for request in live:
            request.future.set_result(result)

    def _execute_read(
        self,
        lease: EpochLease,
        kind: str,
        params: Tuple[Tuple[str, object], ...],
    ):
        kwargs = dict(params)
        if kind == "count":
            return self._manager.count(lease)
        if kind == "sensitivity":
            return self._manager.sensitivity(
                lease,
                method=kwargs.get("method", "auto"),
                skip_relations=kwargs.get("skip_relations", ()),
                top_k=kwargs.get("top_k"),
            )
        if kind == "top_k":
            return self._manager.top_k(
                lease,
                kwargs["k"],
                skip_relations=kwargs.get("skip_relations", ()),
            )
        if kind == "explain":
            return self._manager.explain(
                lease, skip_relations=kwargs.get("skip_relations", ())
            )
        if kind == "stats":
            return self._manager.session_stats(lease)
        raise ServeError(f"unknown read kind {kind!r}")  # pragma: no cover

    # ------------------------------------------------------------ lifecycle
    def stats(self) -> Dict[str, int]:
        """Coalescing counters: requests admitted vs engine executions."""
        with self._mutex:
            return dict(self._counters)

    def close(self) -> None:
        """Finish draining queued requests, then stop the dispatcher.
        Idempotent; further submissions raise
        :class:`~repro.exceptions.ServeError`."""
        with self._wakeup:
            if self._closed:
                already = True
            else:
                already = False
                self._closed = True
                self._wakeup.notify_all()
        if not already:
            self._dispatcher.join()

    def __enter__(self) -> "AdmissionQueue":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        with self._mutex:
            pending = len(self._probes) + len(self._reads)
        return f"AdmissionQueue(pending={pending}, closed={self._closed})"
