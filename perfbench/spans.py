"""In-memory span recorder wrapped around each layer's public entry points.

The benchmark must not change the program, so spans are recorded from
here: :meth:`Tracer.install` swaps wrappers into the module namespaces
the program calls through (``repro.session``,
``repro.evaluation.joinstate``, ...) for the life of the process.  A span is
``(id, parent, name, start, end, rows)``; the parent is the span open on
the same thread when it started, so a layer's self time is its duration
minus its direct children.  Spans stay in memory until the run writes
them out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (module path, attribute, span name, rows-of-result function).  A class
#: attribute is written ``"Class.method"``.
Target = Tuple[str, str, str, Optional[Callable]]


def _rel_rows(relation) -> int:
    return relation.distinct_count()


def _mapping_rows(mapping) -> int:
    return sum(r.distinct_count() for r in mapping.values() if r is not None)


def _bound_rows(bound) -> int:
    return _mapping_rows(bound.node_relations)


def _table_rows(table) -> int:
    return sum(f.distinct_count() for f in table.factors)


def _probe_rows(args, kwargs, result) -> int:
    return len(result)


def _delta_rows(args, kwargs, result) -> int:
    # IncrementalEvaluator.apply_batch(self, deltas)
    return sum(d.tuple_count() for d in args[1])


def _result(fn):
    return lambda args, kwargs, result: fn(result)


TARGETS: List[Target] = [
    # query: planning done by prepare() (classification + decomposition).
    ("repro.session", "PreparedQuery.__init__", "query.plan", None),
    # session: the public PreparedQuery ops.
    ("repro.session", "PreparedQuery.count", "session.count", None),
    ("repro.session", "PreparedQuery.sensitivity", "session.sensitivity", None),
    ("repro.session", "PreparedQuery.probe", "session.probe", None),
    ("repro.session", "PreparedQuery.apply", "session.apply", None),
    # evaluation: bind, Yannakakis passes, multiplicity tables, updates.
    ("repro.evaluation.joinstate", "bind", "evaluation.bind", _result(_bound_rows)),
    ("repro.evaluation.joinstate", "compute_botjoins", "evaluation.botjoins",
     _result(_mapping_rows)),
    ("repro.evaluation.joinstate", "compute_topjoins", "evaluation.topjoins",
     _result(_mapping_rows)),
    ("repro.evaluation.joinstate", "build_table", "evaluation.tables",
     _result(_table_rows)),
    ("repro.session", "compact_updates", "evaluation.compact", None),
    ("repro.evaluation.incremental", "IncrementalEvaluator.apply_batch",
     "evaluation.apply_batch", _delta_rows),
    ("repro.evaluation.incremental", "IncrementalEvaluator.delta_batch",
     "evaluation.probe", _probe_rows),
    # engine: the join/group-by kernels the table build and patch call.
    ("repro.evaluation.joinstate", "join_all", "engine.join_all", _result(_rel_rows)),
    ("repro.evaluation.joinstate", "group_by", "engine.group_by", _result(_rel_rows)),
    # core: witness selection over states, path sweeps.
    ("repro.session", "tsens_from_states", "core.tsens", None),
    ("repro.session", "PathState", "core.path", None),
    ("repro.session", "ls_path_join", "core.path", None),
]


class Tracer:
    """Collects spans from any thread while :attr:`enabled` is true."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Tuple[int, Optional[int], str, float, float, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, fn: Callable, name: str, rows: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            count = rows(args, kwargs, result) if rows is not None else 0
            tracer.spans.append((span_id, parent, name, start, end, count))
            return result

        return traced

    def install(self) -> None:
        """Wrap every :data:`TARGETS` entry point with a span."""
        for module_path, attribute, name, rows in TARGETS:
            owner = importlib.import_module(module_path)
            *classes, leaf = attribute.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            setattr(owner, leaf, self.wrap(getattr(owner, leaf), name, rows))


def summarize(spans) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, seconds and rows.

    ``self_s`` is a span's duration minus its non-engine children, so a
    layer keeps the kernel time it spends but not the time of another
    layer it triggers (a table build that first materialises topjoins
    does not count them).  Engine spans are keyed by their parent, so
    ``engine.join_all@evaluation.tables`` (a table build) stays apart
    from the same kernel under a maintained table patch."""
    names = {s[0]: s[2] for s in spans}
    nested: Dict[int, float] = {}
    for _id, parent, name, start, end, _rows in spans:
        if parent is not None and not name.startswith("engine."):
            nested[parent] = nested.get(parent, 0.0) + (end - start)
    out: Dict[str, Dict[str, float]] = {}
    for span_id, parent, name, start, end, rows in spans:
        key = name
        if name.startswith("engine."):
            key = f"{name}@{names.get(parent, 'none')}"
        entry = out.setdefault(
            key, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "rows": 0}
        )
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - nested.get(span_id, 0.0)
        entry["rows"] += rows
    return out
