"""Core of the ``repro lint`` static-analysis framework.

The framework is deliberately small: a :class:`Rule` visits the ``ast`` of
one file (wrapped in a :class:`FileContext`) and yields :class:`Finding`
objects; the :class:`LintRunner` walks a file tree, parses each Python
file once, runs every applicable rule, and filters the raw findings
through two silencing layers:

* **inline suppressions** — a ``# repro-lint: disable=R001`` comment on
  (or immediately above) the offending line, or a file-wide
  ``# repro-lint: disable-file=R001`` (see :mod:`repro.analysis.suppressions`);
* **a baseline file** — known pre-existing findings recorded by
  ``repro lint --update-baseline`` (see :mod:`repro.analysis.baseline`);
  only findings *not* in the baseline fail the run.

Rules are registered in :mod:`repro.analysis.rules`; the CLI surface is
the ``repro lint`` subcommand in :mod:`repro.cli`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePath
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.suppressions import Suppressions
from repro.exceptions import ReproError

#: Directory names the runner never descends into.
SKIPPED_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", "fixtures"})


class LintConfigError(ReproError):
    """``repro lint`` was invoked with an invalid configuration."""


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    column: int
    rule: str
    message: str
    #: stripped text of the offending line — the baseline key, so baseline
    #: entries survive pure line-number drift and age out when the line
    #: itself disappears.
    line_text: str = field(compare=False, default="")

    def key(self) -> Tuple[str, str, str]:
        """Identity used for baseline matching (line numbers excluded)."""
        return (self.rule, self.path, self.line_text)

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "line_text": self.line_text,
        }


class FileContext:
    """Everything a rule may need about one parsed file."""

    def __init__(self, path: Path, source: str, tree: ast.Module, display_path: str):
        self.path = path
        self.display_path = display_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        lineno = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0)
        return Finding(
            path=self.display_path,
            line=lineno,
            column=column,
            rule=rule.rule_id,
            message=message,
            line_text=self.line_text(lineno),
        )


class Rule:
    """Base class for one lint rule.

    Subclasses set :attr:`rule_id`, :attr:`title` and :attr:`rationale`
    (surfaced by ``repro lint --list-rules`` and the docs), narrow
    :meth:`applies_to` when the contract is path-specific, and implement
    :meth:`check`.
    """

    rule_id: str = "R000"
    title: str = ""
    rationale: str = ""

    def applies_to(self, path: PurePath) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.rule_id})"


# ------------------------------------------------------------ ast helpers
def terminal_name(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a name/attribute/call chain.

    ``oracle.truncated_count`` → ``"truncated_count"``; ``count(...)`` →
    ``"count"``; anything else → ``None``.
    """
    if isinstance(node, ast.Call):
        return terminal_name(node.func)
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def attribute_chain_root(node: ast.AST) -> Tuple[Optional[str], Optional[str]]:
    """Resolve an assignment target to ``(root name, first attribute)``.

    ``self.botjoins[x]`` → ``("self", "botjoins")``;
    ``self.bound.atom_relations[r]`` → ``("self", "bound")``;
    ``local[x]`` → ``("local", None)``.
    """
    attrs: List[str] = []
    current = node
    while True:
        if isinstance(current, ast.Subscript):
            current = current.value
        elif isinstance(current, ast.Attribute):
            attrs.append(current.attr)
            current = current.value
        elif isinstance(current, ast.Name):
            return current.id, (attrs[-1] if attrs else None)
        else:
            return None, None


def walk_skipping_nested_functions(node: ast.AST) -> Iterator[ast.AST]:
    """Yield ``node`` and descendants, but do not enter nested function
    definitions or lambdas — rule scopes are per-function."""
    yield node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield from walk_skipping_nested_functions(child)


def decorator_names(node: ast.AST) -> List[str]:
    """Terminal names of a def/class decorator list (empty when absent)."""
    names: List[str] = []
    for decorator in getattr(node, "decorator_list", []):
        name = terminal_name(decorator)
        if name is not None:
            names.append(name)
    return names


def top_level_functions(
    tree: ast.Module,
) -> Iterator[Tuple[ast.AST, Optional[ast.ClassDef]]]:
    """Module-level functions and methods of module-level classes.

    Nested defs are deliberately excluded: the privacy boundary rules
    reason about a module's public surface, and closures are internal.
    Yields ``(function, enclosing class or None)``.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, None
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item, node


# ----------------------------------------------------------------- runner
@dataclass
class LintResult:
    """Outcome of one :meth:`LintRunner.run`."""

    findings: List[Finding]
    suppressed: int
    baselined: int
    stale_baseline: int
    checked_files: int

    @property
    def clean(self) -> bool:
        return not self.findings


class LintRunner:
    """Drive a set of rules over a file tree."""

    def __init__(self, rules: Sequence[Rule]):
        seen = set()
        for rule in rules:
            if rule.rule_id in seen:
                raise LintConfigError(f"duplicate rule id {rule.rule_id}")
            seen.add(rule.rule_id)
        self.rules = list(rules)

    # -------------------------------------------------------- file walking
    @staticmethod
    def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
        for path in paths:
            if path.is_file():
                if path.suffix == ".py":
                    yield path
                continue
            if not path.exists():
                raise LintConfigError(f"no such file or directory: {path}")
            for candidate in sorted(path.rglob("*.py")):
                parts = set(candidate.parts)
                if parts & SKIPPED_DIRS:
                    continue
                yield candidate

    # ------------------------------------------------------------ checking
    def check_file(self, path: Path) -> List[Finding]:
        """Raw findings for one file, inline suppressions applied."""
        source = path.read_text(encoding="utf-8")
        display = self._display_path(path)
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as error:
            return [
                Finding(
                    path=display,
                    line=error.lineno or 1,
                    column=(error.offset or 1) - 1,
                    rule="E000",
                    message=f"syntax error: {error.msg}",
                    line_text="",
                )
            ]
        ctx = FileContext(path, source, tree, display)
        suppressions = Suppressions.parse(source)
        findings: List[Finding] = []
        for rule in self.rules:
            if not rule.applies_to(path):
                continue
            for finding in rule.check(ctx):
                if not suppressions.is_suppressed(finding.rule, finding.line):
                    findings.append(finding)
        return findings

    def run(self, paths: Iterable[Path], baseline=None) -> LintResult:
        """Lint ``paths``; apply ``baseline`` (a :class:`~repro.analysis.baseline.Baseline`)."""
        all_findings: List[Finding] = []
        suppressed = 0
        checked = 0
        for path in self.iter_python_files(paths):
            checked += 1
            raw_count = len(list(self._raw_findings(path)))
            kept = self.check_file(path)
            suppressed += raw_count - len(kept)
            all_findings.extend(kept)
        all_findings.sort()
        if baseline is None:
            return LintResult(all_findings, suppressed, 0, 0, checked)
        new, matched, stale = baseline.split(all_findings)
        return LintResult(new, suppressed, matched, stale, checked)

    def _raw_findings(self, path: Path) -> List[Finding]:
        """Findings before suppression filtering (for the suppressed count)."""
        source = path.read_text(encoding="utf-8")
        display = self._display_path(path)
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            return []
        ctx = FileContext(path, source, tree, display)
        findings: List[Finding] = []
        for rule in self.rules:
            if rule.applies_to(path):
                findings.extend(rule.check(ctx))
        return findings

    @staticmethod
    def _display_path(path: Path) -> str:
        try:
            return path.resolve().relative_to(Path.cwd()).as_posix()
        except ValueError:
            return path.as_posix()
