"""R001 — privacy-taint: raw counts must not escape ``dp/`` unnoised.

The DP layer's contract is that anything derived from the private
database — counts, sensitivities, probes, multiplicity tables — leaves a
public ``dp/`` function only after passing through a noise mechanism from
:mod:`repro.dp.primitives`, or with an explicit
:func:`repro.dp.marking.declassified` marker recording that the release
is intentional (e.g. the non-private debugging fields of an outcome).

The analysis is a per-function taint fixpoint: source expressions taint
the names they are assigned to, sanitizer calls clear taint, and a
finding is raised when a tainted expression reaches a return statement,
a ``print``, or a logging call.  Attribute reads on bare ``self`` are
*not* sources — an outcome object re-exposing its own declassified
fields is fine; pulling ``oracle.base_count`` out of a live oracle is
not.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import Iterator, Set

from repro.analysis.framework import (
    FileContext,
    Finding,
    Rule,
    decorator_names,
    terminal_name,
    top_level_functions,
    walk_skipping_nested_functions,
)

#: Calls that produce values derived from the private database.
SOURCE_CALLS = frozenset(
    {
        "count",
        "count_query",
        "evaluate_count",
        "sensitivity",
        "local_sensitivity",
        "tuple_sensitivities",
        "probe",
        "delta_batch",
        "tsens",
        "multiplicity_table",
        "truncated_count",
        "truncated_count_reevaluated",
        "truncated_fraction",
    }
)

#: Attribute reads that expose private-derived state (unless read off ``self``).
SOURCE_ATTRS = frozenset({"base_count", "local_sensitivity", "tuple_sensitivities"})

#: Calls that launder taint: DP mechanisms and the explicit marker.
SANITIZERS = frozenset(
    {
        "laplace_mechanism",
        "laplace_noise",
        "above_threshold",
        "laplace_confidence_radius",
        "declassified",
    }
)

#: Call targets treated as output sinks in addition to ``return``.
SINK_CALLS = frozenset({"print", "log", "debug", "info", "warning", "error", "critical"})


class PrivacyTaintRule(Rule):
    rule_id = "R001"
    title = "privacy-taint: raw counts may not escape dp/ public functions"
    rationale = (
        "Returning or printing a value derived from count()/sensitivity() "
        "without a primitives mechanism or @declassified is a privacy leak."
    )

    def applies_to(self, path: PurePath) -> bool:
        return "dp" in path.parts

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func, _cls in top_level_functions(ctx.tree):
            if func.name.startswith("_"):
                continue
            if "declassified" in decorator_names(func):
                continue
            yield from self._check_function(ctx, func)

    # ------------------------------------------------------------- core
    def _check_function(self, ctx: FileContext, func: ast.AST) -> Iterator[Finding]:
        tainted = self._tainted_names(func)
        for node in walk_skipping_nested_functions(func):
            if isinstance(node, ast.Return) and node.value is not None:
                if self._is_tainted(node.value, tainted):
                    yield ctx.finding(
                        self,
                        node,
                        f"function {func.name} returns a value derived from the "
                        "private database without a primitives mechanism or "
                        "@declassified marker",
                    )
            elif isinstance(node, ast.Call) and terminal_name(node.func) in SINK_CALLS:
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if self._is_tainted(arg, tainted):
                        yield ctx.finding(
                            self,
                            node,
                            f"function {func.name} writes a value derived from "
                            "the private database to an output sink "
                            f"({terminal_name(node.func)})",
                        )
                        break

    def _tainted_names(self, func: ast.AST) -> Set[str]:
        """Fixpoint of taint over the function's simple assignments."""
        tainted: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for node in walk_skipping_nested_functions(func):
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    value = node.value
                    if value is None:
                        continue
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    if self._is_tainted(value, tainted):
                        for target in targets:
                            for name in _target_names(target):
                                if name not in tainted:
                                    tainted.add(name)
                                    changed = True
        return tainted

    def _is_tainted(self, expr: ast.AST, tainted: Set[str]) -> bool:
        if isinstance(expr, ast.Call):
            name = terminal_name(expr.func)
            if name in SANITIZERS:
                return False
            if name in SOURCE_CALLS:
                return True
            parts = list(expr.args) + [kw.value for kw in expr.keywords]
            return any(self._is_tainted(part, tainted) for part in parts)
        if isinstance(expr, ast.Name):
            return expr.id in tainted
        if isinstance(expr, ast.Attribute):
            if expr.attr in SOURCE_ATTRS and not _is_bare_self(expr.value):
                return True
            return self._is_tainted(expr.value, tainted)
        if isinstance(expr, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return False
        return any(
            self._is_tainted(child, tainted) for child in ast.iter_child_nodes(expr)
        )


def _is_bare_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _target_names(target: ast.AST) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)
