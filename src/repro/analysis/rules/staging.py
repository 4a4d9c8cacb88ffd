"""R002 — staged-commit: committed join state mutates only in commit methods.

:class:`~repro.evaluation.joinstate.JoinState` and
:class:`~repro.evaluation.incremental.IncrementalEvaluator` follow a
staged-then-commit protocol: an update batch folds into a fork of the
join state (``JoinState.stage_update_batch``), which shares every
relation and copies only the dicts, and the state adopts the fork in a
commit method once every fold succeeded — so a failure mid-update can
never leave the maintained botjoins, topjoins, or multiplicity tables
half-new.  This rule pins that protocol: assignments to committed
attributes are legal only inside ``__init__`` and methods whose name
contains ``commit`` as a word segment (``_commit``, ``_commit_fold``,
``commit_update_batch``, ...); everywhere else, stage into a fork or
locals and hand them to a commit method.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import Dict, FrozenSet, Iterator

from repro.analysis.framework import (
    FileContext,
    Finding,
    Rule,
    attribute_chain_root,
    walk_skipping_nested_functions,
)

#: Committed-state attributes per maintained-state class.
COMMITTED_ATTRS: Dict[str, FrozenSet[str]] = {
    "JoinState": frozenset({"bound", "botjoins", "_topjoins", "_tables"}),
    "IncrementalEvaluator": frozenset({"_db", "_base_count"}),
}


def _is_commit_method(name: str) -> bool:
    if name == "__init__":
        return True
    return "commit" in name.lower().split("_")


class StagedCommitRule(Rule):
    rule_id = "R002"
    title = "staged-commit: committed state assigned outside a commit method"
    rationale = (
        "Writing maintained join state outside a commit method can leave "
        "botjoins/topjoins/tables half-updated when an update fails; stage "
        "into a fork and adopt it in a commit method instead."
    )

    def applies_to(self, path: PurePath) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            committed = COMMITTED_ATTRS.get(node.name)
            if committed is None:
                continue
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if _is_commit_method(item.name):
                    continue
                yield from self._check_method(ctx, node.name, item, committed)

    def _check_method(
        self,
        ctx: FileContext,
        class_name: str,
        method: ast.AST,
        committed: FrozenSet[str],
    ) -> Iterator[Finding]:
        for node in walk_skipping_nested_functions(method):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    root, attr = attribute_chain_root(target)
                    if root == "self" and attr in committed:
                        yield ctx.finding(
                            self,
                            node,
                            f"{class_name}.{method.name} assigns committed state "
                            f"self.{attr}; stage into a fork or locals and "
                            "adopt them in a commit method",
                        )
                        break
