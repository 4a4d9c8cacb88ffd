"""Rule registry for ``repro lint``.

:func:`builtin_rules` returns the rules shipped with the repo;
:func:`load_rules` adds any third-party rules advertised through the
``repro.lint_rules`` setuptools entry-point group (each entry point is a
callable returning an iterable of :class:`~repro.analysis.framework.Rule`
instances), so downstream forks can plug in their own contracts without
patching this package.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.framework import LintConfigError, Rule
from repro.analysis.rules.asserts import NoBareAssertRule
from repro.analysis.rules.dispatch import DispatchCompletenessRule
from repro.analysis.rules.invalidation import InvalidateOnMutateRule
from repro.analysis.rules.overflow import CheckedOverflowRule
from repro.analysis.rules.privacy import PrivacyTaintRule
from repro.analysis.rules.serving import EpochLeaseBoundaryRule
from repro.analysis.rules.staging import StagedCommitRule

_ENTRY_POINT_GROUP = "repro.lint_rules"


def builtin_rules() -> List[Rule]:
    return [
        PrivacyTaintRule(),
        StagedCommitRule(),
        InvalidateOnMutateRule(),
        DispatchCompletenessRule(),
        CheckedOverflowRule(),
        NoBareAssertRule(),
        EpochLeaseBoundaryRule(),
    ]


def _entry_point_rules() -> List[Rule]:
    try:
        from importlib.metadata import entry_points
    except ImportError:  # pragma: no cover - py<3.8 has no importlib.metadata
        return []
    try:
        eps = entry_points()
        if hasattr(eps, "select"):  # py3.10+
            group = eps.select(group=_ENTRY_POINT_GROUP)
        else:  # pragma: no cover - py3.8/3.9 dict API
            group = eps.get(_ENTRY_POINT_GROUP, [])
    except Exception:  # pragma: no cover - metadata backends vary
        return []
    rules: List[Rule] = []
    builtin_ids = {rule.rule_id for rule in builtin_rules()}
    for entry_point in group:
        try:
            factory = entry_point.load()
        except Exception:  # pragma: no cover - broken third-party plugin
            continue
        if factory is builtin_rules:
            continue  # our own entry point; already included
        for rule in factory():
            if rule.rule_id not in builtin_ids:
                rules.append(rule)
    return rules


def load_rules(only: Optional[Sequence[str]] = None) -> List[Rule]:
    """All available rules, optionally filtered to the ids in ``only``."""
    rules = builtin_rules() + _entry_point_rules()
    if only is None:
        return rules
    by_id: Dict[str, Rule] = {rule.rule_id: rule for rule in rules}
    selected: List[Rule] = []
    for rule_id in only:
        if rule_id not in by_id:
            known = ", ".join(sorted(by_id))
            raise LintConfigError(f"unknown rule {rule_id!r} (known: {known})")
        selected.append(by_id[rule_id])
    return selected
