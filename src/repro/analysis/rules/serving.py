"""R007 — epoch-lease boundary: serve/ code reads through leases only.

The serving layer's consistency story rests on one funnel: every read of
maintained query state goes through an epoch lease
(:meth:`repro.serve.epochs.EpochManager.read`), so it is pinned to one
committed database version.  A handler that reaches directly into the
session's evaluator internals (``_evaluator``, ``component_states``,
``delta_batch``, :class:`JoinState`, ...) bypasses the pin and can
observe a half-folded batch or a post-swap state under an old lease.

This rule pins the funnel statically: inside any ``serve``
directory, direct maintained-state access — the session/evaluator
internals above, or any import from :mod:`repro.evaluation` — is a
violation everywhere except ``epochs.py``, the one module allowed to
own the boundary.  Test files are exempt (they legitimately poke
internals to set up scenarios).
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import Iterator

from repro.analysis.framework import FileContext, Finding, Rule

#: Session/evaluator internals that bypass the epoch pin.
BANNED_ATTRIBUTES = frozenset(
    {
        "_evaluator",
        "_ensure_evaluator",
        "_states",
        "component_states",
        "apply_batch",
        "delta_batch",
    }
)

#: Maintained-state classes serve/ handlers must never touch directly.
BANNED_NAMES = frozenset({"JoinState", "IncrementalEvaluator"})

#: Module prefix whose import marks a boundary violation.
BANNED_IMPORT_PREFIX = "repro.evaluation"

#: The one serve/ module allowed to own the lease boundary.
EXEMPT_FILES = frozenset({"epochs.py"})


class EpochLeaseBoundaryRule(Rule):
    rule_id = "R007"
    title = "epoch-lease boundary: serve/ touches maintained state directly"
    rationale = (
        "Serving handlers that bypass epoch leases can observe half-folded "
        "update batches or post-swap state; all maintained-state access "
        "belongs behind EpochManager.read in epochs.py."
    )

    def applies_to(self, path: PurePath) -> bool:
        if "serve" not in path.parts:
            return False
        if path.name in EXEMPT_FILES or path.name.startswith("test_"):
            return False
        return True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                if node.attr in BANNED_ATTRIBUTES:
                    yield ctx.finding(
                        self,
                        node,
                        f"direct maintained-state access .{node.attr}; go "
                        "through an epoch lease (EpochManager.read) — only "
                        "epochs.py may touch session internals",
                    )
                elif node.attr in BANNED_NAMES:
                    yield self._banned_name(ctx, node, node.attr)
            elif isinstance(node, ast.Name) and node.id in BANNED_NAMES:
                yield self._banned_name(ctx, node, node.id)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == BANNED_IMPORT_PREFIX or module.startswith(
                    BANNED_IMPORT_PREFIX + "."
                ):
                    yield ctx.finding(
                        self,
                        node,
                        f"serve/ must not import from {module}; maintained "
                        "state is reached through epoch leases only",
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == BANNED_IMPORT_PREFIX or alias.name.startswith(
                        BANNED_IMPORT_PREFIX + "."
                    ):
                        yield ctx.finding(
                            self,
                            node,
                            f"serve/ must not import {alias.name}; maintained "
                            "state is reached through epoch leases only",
                        )

    def _banned_name(self, ctx: FileContext, node: ast.AST, name: str) -> Finding:
        return ctx.finding(
            self,
            node,
            f"serve/ must not use {name} directly; wrap the access in "
            "epochs.py behind an epoch lease",
        )
