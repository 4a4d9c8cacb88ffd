"""TPC-H-style refresh batches for the q3 views, with foreign keys kept.

One batch is RF1 (new orders, each with 1-7 lineitems on existing
customers and partsupp pairs) followed by RF2 (existing orders deleted
together with all their lineitems).  The generator keeps its own model of
the live orders so that every delete names rows that exist, and so that
the acknowledged batches can be replayed onto the starting database.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

Update = Tuple[str, str, Tuple[int, ...]]

ORDERS_PER_BATCH = 8
MAX_LINES_PER_ORDER = 7


class RefreshGenerator:
    """Deterministic RF1/RF2 batches over a q3 database (``C``, ``O``,
    ``L``, ``PS`` views), drawn from ``rng``."""

    def __init__(self, db, rng: np.random.Generator):
        self._rng = rng
        self.customers: List[Tuple[int, int]] = sorted(db.relation("C").counts)
        self._partsupp: List[Tuple[int, int]] = sorted(db.relation("PS").counts)
        self._order_ck: Dict[int, int] = {ok: ck for ck, ok in db.relation("O").counts}
        self._lines: Dict[int, List[Tuple[int, int, int]]] = {}
        for row, count in db.relation("L").items():
            self._lines.setdefault(row[0], []).extend([row] * count)
        # Live order keys in a list for O(1) uniform draws and removals.
        self._live: List[int] = sorted(self._order_ck)
        self._slot: Dict[int, int] = {ok: i for i, ok in enumerate(self._live)}
        self._next_ok = max(self._live) + 1

    def _add_order(self, ok: int, ck: int, lines) -> None:
        self._order_ck[ok] = ck
        self._lines[ok] = list(lines)
        self._slot[ok] = len(self._live)
        self._live.append(ok)

    def _drop_order(self, ok: int) -> None:
        slot = self._slot.pop(ok)
        last = self._live.pop()
        if last != ok:
            self._live[slot] = last
            self._slot[last] = slot

    def batch(self) -> List[Update]:
        rng = self._rng
        # RF2 victims are drawn from the orders live before this batch.
        victims = [
            self._live[i]
            for i in rng.choice(len(self._live), size=ORDERS_PER_BATCH, replace=False)
        ]
        updates: List[Update] = []
        for _ in range(ORDERS_PER_BATCH):
            ok = self._next_ok
            self._next_ok += 1
            ck = self.customers[int(rng.integers(len(self.customers)))][1]
            lines = []
            for _ in range(int(rng.integers(1, MAX_LINES_PER_ORDER + 1))):
                sk, pk = self._partsupp[int(rng.integers(len(self._partsupp)))]
                lines.append((ok, sk, pk))
            updates.append(("insert", "O", (ck, ok)))
            updates.extend(("insert", "L", line) for line in lines)
            self._add_order(ok, ck, lines)
        for ok in victims:
            updates.extend(("delete", "L", line) for line in self._lines.pop(ok))
            updates.append(("delete", "O", (self._order_ck.pop(ok), ok)))
            self._drop_order(ok)
        return updates

    def probe_rows(self, n: int) -> List[Tuple[int, int]]:
        """``n`` distinct existing customer rows ``(NK, CK)``."""
        picks = self._rng.choice(len(self.customers), size=n, replace=False)
        return [self.customers[int(i)] for i in picks]


def replay(db, batches: Sequence[Sequence[Update]]):
    """``db`` with every batch applied in order, one tuple at a time."""
    for batch in batches:
        for op, relation, row in batch:
            if op == "insert":
                db = db.add_tuple(relation, row)
            else:
                db = db.remove_tuple(relation, row)
    return db
