"""Snapshot epochs: pinned multi-reader / single-writer session state.

The :class:`~repro.session.PreparedQuery` contract gives *per-call*
atomicity — one lock serialises every read against every committed
batch.  That is not enough for a server: a caller issuing "count, then
sensitivity, then three probes" must see all five answers from the
*same* database version, even while a writer keeps folding update
batches in between.  This module adds that missing layer, in the spirit
of MVCC engines and of maintained query answering under updates
(Berkholz, Keppeler & Schweikardt):

* An :class:`Epoch` is an immutable snapshot handle — an epoch id plus
  the session's immutable :class:`~repro.engine.database.Database`
  snapshot at one commit point.  Epochs form a chain; exactly one is the
  *head*.
* Readers pin an epoch with a refcounted :class:`EpochLease`
  (:meth:`EpochManager.acquire`).  Every read through a lease
  (:meth:`~EpochManager.count`, :meth:`~EpochManager.sensitivity`,
  :meth:`~EpochManager.probe`, ...) answers exactly at the pinned
  epoch — never newer, never torn.
* A **single writer thread** drains queued update batches
  (:meth:`EpochManager.submit`), folds each one into the live session
  (:meth:`~repro.session.PreparedQuery.apply` — compaction + one
  staged-then-committed vectorized fold per maintained level) while
  holding the session lock, and *atomically swaps in* the next epoch
  under the same lock.  A batch that raises commits nothing: the head
  epoch, and every answer served from it, stays bit-identical.
* A superseded epoch lives as long as its leases: reads against it are
  answered from a lazily *forked* session over its frozen snapshot
  (:meth:`~repro.session.PreparedQuery.fork`), entirely outside the
  writer's lock.  When the last lease drains the epoch retires and its
  resources are dropped.

Head reads hit the maintained state (botjoins/topjoins/tables folded
under updates — fast), stragglers on old epochs pay a rebuild but stay
consistent, and the writer never blocks on readers longer than one
session call.  Everything else in :mod:`repro.serve` — the coalescing
admission queue, the asyncio front end — goes through this module; lint
rule R007 pins that layering by banning direct maintained-state access
(``_evaluator``, ``JoinState``, ...) anywhere else under ``serve/``.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.database import Database
from repro.exceptions import OverloadedError, ServeError
from repro.session import PreparedQuery, Update

#: Sentinel shutting the writer thread down.
_STOP = object()


class Epoch:
    """One immutable snapshot of the served session's state.

    An epoch never changes once created: it carries the epoch id, the
    immutable database snapshot taken at its commit point, and the
    update-stream position (:attr:`updates_applied`).  Mutable
    bookkeeping (refcount, superseded/retired flags, the lazily built
    frozen reader) belongs to the :class:`EpochManager` and is guarded by
    its locks, not by this object.
    """

    def __init__(self, epoch_id: int, db: Database, updates_applied: int):
        self.epoch_id = epoch_id
        self.db = db
        self.updates_applied = updates_applied
        self._refcount = 0
        self._superseded = False
        self._retired = False
        self._frozen: Optional[PreparedQuery] = None
        self._frozen_lock = threading.Lock()

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
        """True once the last lease drained and resources were dropped."""
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
    manager.  Every manager read takes a lease and answers exactly at
    its epoch.  Release is idempotent; reading through a released lease
    raises :class:`~repro.exceptions.ServeError`.
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
    """Owns the session, the epoch chain, and the single writer thread.

    Parameters
    ----------
    session:
        The live maintained :class:`~repro.session.PreparedQuery`.  The
        manager takes over all mutation: callers must stop calling
        ``session.apply``/``insert``/``delete`` directly and go through
        :meth:`submit` / :meth:`apply` instead (reads through leases).
    max_queue:
        Bound on queued-but-unapplied writer batches.  A submission
        beyond it raises :class:`~repro.exceptions.OverloadedError` at
        once instead of blocking, so a writer that falls behind sheds
        load rather than stalling every caller.

    Locking protocol (the heart of the epoch guarantee): the writer
    thread holds ``session.lock`` across *both* the fold and the head
    swap, and head reads check ``lease.epoch.superseded`` under that
    same lock before touching the session — so a read through a lease
    either sees the session exactly at its epoch, or detects the swap
    and falls back to the epoch's frozen fork.  The manager's own mutex
    only guards the epoch map and refcounts and is never held across
    engine work.
    """

    def __init__(self, session: PreparedQuery, max_queue: int = 1024):
        self._session = session
        self._mutex = threading.Lock()
        head = Epoch(0, session.db, session.updates_applied)
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
        """The live maintained session (head state).  Do not mutate it
        directly; use :meth:`submit`."""
        return self._session

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
            self._epochs.pop(epoch.epoch_id, None)
            self._retired_count += 1
            frozen, epoch._frozen = epoch._frozen, None
            if frozen is not None:
                frozen.close()

    # ----------------------------------------------------------------- reads
    def read(self, lease: EpochLease, fn: Callable[[PreparedQuery], object]):
        """Run ``fn`` against a session view pinned to ``lease``'s epoch.

        While the lease's epoch is head, ``fn`` runs on the maintained
        session under the session lock (so it cannot interleave with the
        writer's fold-and-swap).  Once superseded, ``fn`` runs lock-free
        on the epoch's frozen fork over its immutable snapshot — the
        answer is identical to what the head read would have produced at
        that epoch, pinned by the serving-equivalence property suite.
        """
        lease._require_active()
        epoch = lease.epoch
        if not epoch._superseded:
            with self._session.lock:
                # Re-check under the lock: the writer swaps heads while
                # holding it, so a non-superseded epoch here is proof the
                # session state still belongs to this epoch.
                if not epoch._superseded:
                    return fn(self._session)
        return fn(self._frozen_session(epoch))

    def _frozen_session(self, epoch: Epoch) -> PreparedQuery:
        """The epoch's lazily built read-only fork (one per epoch)."""
        with epoch._frozen_lock:
            if epoch._retired:
                raise ServeError(
                    f"epoch {epoch.epoch_id} already retired"
                )
            if epoch._frozen is None:
                epoch._frozen = self._session.fork(epoch.db)
            return epoch._frozen

    def count(self, lease: EpochLease) -> int:
        """``|Q(D)|`` at the lease's epoch."""
        return self.read(lease, lambda s: s.count())

    def probe(
        self, lease: EpochLease, relation: str, rows: Sequence[Sequence[object]]
    ) -> List[int]:
        """Hypothetical count-change magnitudes ``w(t)`` at the epoch.

        All rows ride one probe-id-tagged vectorized pass; the admission
        queue coalesces concurrent requests onto this call.
        """
        return self.read(lease, lambda s: s.probe(relation, rows))

    def sensitivity(
        self,
        lease: EpochLease,
        method: str = "auto",
        skip_relations: Iterable[str] = (),
        top_k: Optional[int] = None,
    ):
        """``LS(Q, D)`` (a ``SensitivityResult``) at the lease's epoch."""
        skip = tuple(skip_relations)
        return self.read(
            lease,
            lambda s: s.sensitivity(
                method=method, skip_relations=skip, top_k=top_k
            ),
        )

    def top_k(
        self, lease: EpochLease, k: int, skip_relations: Iterable[str] = ()
    ):
        """The top-k clamping upper bound at the lease's epoch."""
        skip = tuple(skip_relations)
        return self.read(lease, lambda s: s.top_k(k, skip_relations=skip))

    def explain(self, lease: EpochLease, skip_relations: Iterable[str] = ()):
        """The TSens cost profile at the lease's epoch."""
        skip = tuple(skip_relations)
        return self.read(lease, lambda s: s.explain(skip_relations=skip))

    def release(self, lease: EpochLease, epsilon: float, **kwargs):
        """A DP release computed at the lease's epoch.

        Unlike the other reads this draws fresh noise per call, so the
        admission queue never coalesces or dedups it; the tenant's
        accountant (``kwargs["accountant"]``) is spent exactly once.
        """
        return self.read(lease, lambda s: s.release(epsilon, **kwargs))

    def session_stats(self, lease: EpochLease) -> Dict[str, object]:
        """:meth:`PreparedQuery.stats` of the lease's epoch view."""
        return self.read(lease, lambda s: s.stats())

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

        if self._closed:
            raise ServeError("epoch manager is closed")
        future: "Future" = Future()
        try:
            self._queue.put_nowait((list(batch), future))
        except queue.Full:
            with self._mutex:
                self._batches_rejected += 1
            raise OverloadedError(
                f"writer queue full ({self._queue.maxsize} batches pending); "
                "retry later"
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
                with self._session.lock:
                    count = self._session.apply(batch)
                    new_head = self._advance()
            except Exception as exc:
                # The session's staged-then-commit contract already
                # guarantees its state is untouched; reporting the error
                # on the future (not crashing the writer) keeps the head
                # epoch serving.
                with self._mutex:
                    self._batches_failed += 1
                future.set_exception(exc)
            else:
                with self._mutex:
                    self._batches_applied += 1
                future.set_result(
                    AppliedBatch(
                        epoch_id=new_head.epoch_id,
                        count=count,
                        applied=len(batch),
                    )
                )

    def _advance(self) -> Epoch:
        """Swap in the next head epoch (session lock held by the writer)."""
        with self._mutex:
            old = self._head
            new = Epoch(
                old.epoch_id + 1,
                self._session.db,
                self._session.updates_applied,
            )
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
        (their epochs' frozen forks stay valid until released)."""
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
