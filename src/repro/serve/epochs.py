"""Snapshot epochs: pinned multi-reader / single-writer session state.

The :class:`~repro.session.PreparedQuery` contract gives *per-call*
atomicity — one lock serialises every read against every committed
batch.  That is not enough for a server: a caller issuing "count, then
sensitivity, then three probes" must see all five answers from the
*same* database version, even while a writer keeps folding update
batches in between.  This module adds that missing layer, in the spirit
of MVCC engines and of maintained query answering under updates
(Berkholz, Keppeler & Schweikardt):

* An :class:`Epoch` is one committed version: an epoch id plus the
  session that answers at it.  Epochs form a chain; exactly one is the
  *head*.
* Readers pin an epoch with a refcounted :class:`EpochLease`
  (:meth:`EpochManager.acquire`).  Every read runs through one funnel,
  :meth:`EpochManager.read`, on the pinned epoch's session —
  ``manager.read(lease, lambda s: s.count())`` — so it answers exactly
  at that epoch, never newer, never torn.
* A **single writer thread** drains queued update batches
  (:meth:`EpochManager.submit`).  For each one it forks the head session
  (:meth:`~repro.session.PreparedQuery.fork`: the fork shares every
  maintained relation and copies only the dicts a fold writes), folds the
  batch into the fork with :meth:`~repro.session.PreparedQuery.apply`,
  and publishes the fork as the next head.  No reader ever sees the
  fold, and a batch that raises just drops its fork: the head epoch, and
  every answer served from it, stays bit-identical.
* A superseded epoch lives as long as its leases.  When the last lease
  drains the epoch retires and drops its session.

Reads at every epoch, stale or head, hit maintained state (botjoins,
topjoins and tables folded under updates), and the writer never waits
on a reader longer than one session call.  Everything else in
:mod:`repro.serve` — the coalescing admission queue, the asyncio front
end — goes through this module; lint rule R007 pins that layering by
banning direct maintained-state access (``_evaluator``, ``JoinState``,
...) anywhere else under ``serve/``.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional

from repro.engine.database import Database
from repro.exceptions import OverloadedError, ServeError
from repro.session import PreparedQuery, Update

#: Sentinel shutting the writer thread down.
_STOP = object()


class Epoch:
    """One committed version of the served query.

    An epoch carries its id, the session that answers at it, and that
    session's immutable database snapshot and update-stream position
    (:attr:`updates_applied`).  No batch folds into the session once the
    epoch is published; it is dropped when the epoch retires.  Mutable
    bookkeeping (refcount, superseded/retired flags) belongs to the
    :class:`EpochManager` and is guarded by its mutex, not by this
    object.
    """

    def __init__(self, epoch_id: int, session: PreparedQuery):
        self.epoch_id = epoch_id
        self.session: Optional[PreparedQuery] = session
        self.db = session.db
        self.updates_applied = session.updates_applied
        self._refcount = 0
        self._superseded = False
        self._retired = False

    @property
    def refcount(self) -> int:
        """Number of live leases pinning this epoch."""
        return self._refcount

    @property
    def superseded(self) -> bool:
        """True once a newer epoch has been swapped in as head."""
        return self._superseded

    @property
    def retired(self) -> bool:
        """True once the last lease drained and the session was dropped."""
        return self._retired

    def __repr__(self) -> str:
        state = (
            "retired"
            if self._retired
            else ("superseded" if self._superseded else "head")
        )
        return (
            f"Epoch({self.epoch_id}, {state}, leases={self._refcount}, "
            f"updates={self.updates_applied})"
        )


class EpochLease:
    """A refcounted pin on one epoch.

    Acquired from :meth:`EpochManager.acquire`; usable as a context
    manager.  :meth:`EpochManager.read` takes a lease and answers exactly
    at its epoch.  Release is idempotent; reading through a released
    lease raises :class:`~repro.exceptions.ServeError`.
    """

    def __init__(self, manager: "EpochManager", epoch: Epoch):
        self._manager = manager
        self._epoch = epoch
        self._released = False

    @property
    def epoch(self) -> Epoch:
        return self._epoch

    @property
    def epoch_id(self) -> int:
        return self._epoch.epoch_id

    @property
    def db(self) -> Database:
        """The immutable database snapshot this lease pins."""
        return self._epoch.db

    def release(self) -> None:
        """Drop the pin (idempotent).  May retire the epoch."""
        if not self._released:
            self._released = True
            self._manager._release(self._epoch)

    def _require_active(self) -> None:
        if self._released:
            raise ServeError(
                f"lease on epoch {self._epoch.epoch_id} was already released"
            )

    def __enter__(self) -> "EpochLease":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.release()
        return False

    def __repr__(self) -> str:
        state = "released" if self._released else "active"
        return f"EpochLease(epoch={self._epoch.epoch_id}, {state})"


@dataclass(frozen=True)
class AppliedBatch:
    """Outcome of one committed writer batch."""

    #: The epoch the batch created (the new head at commit time).
    epoch_id: int
    #: Maintained ``|Q(D)|`` after the batch.
    count: int
    #: Number of stream elements in the batch (pre-compaction).
    applied: int


class EpochManager:
    """Owns the epoch chain and the single writer thread.

    Parameters
    ----------
    session:
        Epoch 0's session.  The manager never mutates it: each batch
        folds into a fork of the head session, so callers must not
        mutate it either while the manager serves.  Writes go through
        :meth:`submit` / :meth:`apply`, and reads through :meth:`read`.
    max_queue:
        Bound on queued-but-unapplied writer batches.  A submission
        beyond it raises :class:`~repro.exceptions.OverloadedError` at
        once instead of blocking, so a writer that falls behind sheds
        load rather than stalling every caller.

    Locking protocol: no batch folds into a published session, so a read
    through a lease takes no lock beyond the session's own per-call one.
    The writer holds the head session's lock only while it forks it, so a
    fork never copies a half-built lazy level; a level a reader builds on
    the head after that is built again on the next head at first use.
    Reads and the fold may encode new values at once; the columnar
    vocabulary assigns each its code under its own lock.
    The manager's own mutex guards the head pointer, the epoch map,
    refcounts, counters and the closed flag (with the enqueue that checks
    it), and is never held across engine work.
    """

    def __init__(self, session: PreparedQuery, max_queue: int = 1024):
        self._mutex = threading.Lock()
        head = Epoch(0, session)
        self._head = head
        self._epochs: Dict[int, Epoch] = {head.epoch_id: head}
        self._retired_count = 0
        self._batches_applied = 0
        self._batches_failed = 0
        self._batches_rejected = 0
        self._closed = False
        self._queue: "queue.Queue" = queue.Queue(maxsize=max_queue)
        self._writer = threading.Thread(
            target=self._writer_loop, name="repro-serve-writer", daemon=True
        )
        self._writer.start()

    # ------------------------------------------------------------- accessors
    @property
    def session(self) -> PreparedQuery:
        """The head epoch's session.  Do not mutate it; use :meth:`submit`."""
        return self._head.session

    @property
    def head(self) -> Epoch:
        """The current head epoch."""
        return self._head

    @property
    def closed(self) -> bool:
        return self._closed

    # ---------------------------------------------------------------- leases
    def acquire(self) -> EpochLease:
        """Pin the current head epoch and return the lease."""
        with self._mutex:
            if self._closed:
                raise ServeError("epoch manager is closed")
            epoch = self._head
            epoch._refcount += 1
            return EpochLease(self, epoch)

    def _release(self, epoch: Epoch) -> None:
        with self._mutex:
            epoch._refcount -= 1
            self._maybe_retire(epoch)

    def _maybe_retire(self, epoch: Epoch) -> None:
        """Retire a drained, superseded epoch (mutex held)."""
        if epoch._superseded and epoch._refcount <= 0 and not epoch._retired:
            epoch._retired = True
            epoch.session = None
            self._epochs.pop(epoch.epoch_id, None)
            self._retired_count += 1

    # ----------------------------------------------------------------- reads
    def read(self, lease: EpochLease, fn: Callable[[PreparedQuery], object]):
        """Run ``fn`` on the session of ``lease``'s epoch: the one route
        every served read takes.

        Head or superseded, no batch folds into an epoch's session once
        it is published, so the answer is exactly the one a fresh session
        over that epoch's database would give — pinned by the
        serving-equivalence property suite.  A released lease raises
        :class:`~repro.exceptions.ServeError`.
        """
        lease._require_active()
        return fn(lease.epoch.session)

    # ---------------------------------------------------------------- writes
    def submit(self, batch: Iterable[Update]):
        """Queue one update batch for the writer thread; returns a
        ``concurrent.futures.Future`` resolving to :class:`AppliedBatch`
        (or raising the batch's error).

        Batches commit in submission order, each creating one new epoch.
        A failed batch (unknown relation, malformed element, count
        overflow) commits nothing and does not advance the epoch — the
        error surfaces on this future only.

        Never blocks: when ``max_queue`` batches are already pending this
        raises :class:`~repro.exceptions.OverloadedError` and queues
        nothing.
        """
        from concurrent.futures import Future

        future: "Future" = Future()
        item = (list(batch), future)
        # The closed check and the enqueue share the mutex that close()
        # sets ``_closed`` under, so a batch can never land behind the
        # writer's stop sentinel (``put_nowait`` never blocks).
        with self._mutex:
            if self._closed:
                raise ServeError("epoch manager is closed")
            try:
                self._queue.put_nowait(item)
            except queue.Full:
                self._batches_rejected += 1
                raise OverloadedError(
                    f"writer queue full ({self._queue.maxsize} batches "
                    "pending); retry later"
                ) from None
        return future

    def apply(self, batch: Iterable[Update]) -> AppliedBatch:
        """Synchronous :meth:`submit` — blocks until the batch commits."""
        return self.submit(batch).result()

    def _writer_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            batch, future = item
            if not future.set_running_or_notify_cancel():
                continue
            try:
                # Only the writer moves the head, so reading it here is safe.
                session = self._head.session.fork()
                count = session.apply(batch)
            except Exception as exc:
                # The failed batch's fork is dropped, so the head is
                # untouched by construction; reporting the error on the
                # future (not crashing the writer) keeps it serving.
                with self._mutex:
                    self._batches_failed += 1
                future.set_exception(exc)
            else:
                new_head = self._advance(session)
                with self._mutex:
                    self._batches_applied += 1
                future.set_result(
                    AppliedBatch(
                        epoch_id=new_head.epoch_id,
                        count=count,
                        applied=len(batch),
                    )
                )

    def _advance(self, session: PreparedQuery) -> Epoch:
        """Publish ``session`` as the next head epoch."""
        with self._mutex:
            old = self._head
            new = Epoch(old.epoch_id + 1, session)
            self._epochs[new.epoch_id] = new
            self._head = new
            old._superseded = True
            self._maybe_retire(old)
            return new

    # ------------------------------------------------------------ lifecycle
    def stats(self) -> Dict[str, object]:
        """Operational snapshot: epoch chain, leases, writer counters."""
        with self._mutex:
            live = {
                epoch.epoch_id: epoch.refcount
                for epoch in self._epochs.values()
            }
            info = {
                "head_epoch": self._head.epoch_id,
                "head_updates_applied": self._head.updates_applied,
                "live_epochs": live,
                "active_leases": sum(live.values()),
                "retired_epochs": self._retired_count,
                "queued_batches": self._queue.qsize(),
                "batches_applied": self._batches_applied,
                "batches_failed": self._batches_failed,
                "batches_rejected": self._batches_rejected,
                "closed": self._closed,
            }
        return info

    def close(self) -> None:
        """Drain the writer queue, stop the writer thread and refuse new
        leases/batches.  Idempotent.  Already-pinned leases keep reading
        (their epochs keep their sessions until released)."""
        with self._mutex:
            if self._closed:
                already = True
            else:
                already = False
                self._closed = True
        if already:
            return
        self._queue.put(_STOP)
        self._writer.join()

    def __enter__(self) -> "EpochManager":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return (
            f"EpochManager(head={self._head.epoch_id}, "
            f"live={len(self._epochs)}, closed={self._closed})"
        )
