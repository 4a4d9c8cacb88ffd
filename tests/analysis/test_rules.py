"""Fixture-based self-tests for every repro-lint rule.

Each rule directory under ``fixtures/`` holds known-bad and known-good
snippets (classified by a ``bad``/``good`` prefix on the file name or an
enclosing directory).  Because several rules are path-scoped — R001 fires
only under a ``dp`` directory, R006 exempts test trees — the fixtures are
copied into a neutral temporary directory, preserving their relative
layout, before linting.
"""

import shutil
from pathlib import Path

import pytest

from repro.analysis import LintRunner, builtin_rules

FIXTURES = Path(__file__).parent / "fixtures"

RULE_IDS = ["R001", "R002", "R003", "R004", "R005", "R006", "R007"]


def _rule(rule_id):
    return {rule.rule_id: rule for rule in builtin_rules()}[rule_id]


def _classify(relative: Path) -> str:
    for part in relative.parts:
        if part.startswith("bad"):
            return "bad"
        if part.startswith("good"):
            return "good"
    raise AssertionError(f"fixture {relative} has no bad/good marker")


def _copied_fixtures(rule_id, tmp_path):
    """Copy one rule's fixture tree to a neutral path; yield (kind, path)."""
    source_root = FIXTURES / rule_id
    pairs = []
    for source in sorted(source_root.rglob("*.py")):
        relative = source.relative_to(source_root)
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(source, target)
        pairs.append((_classify(relative), target))
    return pairs


class TestFixtureCoverage:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_rule_has_bad_and_good_fixture(self, rule_id):
        kinds = {_classify(p.relative_to(FIXTURES / rule_id))
                 for p in (FIXTURES / rule_id).rglob("*.py")}
        assert kinds == {"bad", "good"}

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_bad_flagged_good_clean(self, rule_id, tmp_path):
        runner = LintRunner([_rule(rule_id)])
        for kind, path in _copied_fixtures(rule_id, tmp_path):
            findings = runner.check_file(path)
            if kind == "bad":
                assert findings, f"{rule_id} missed known-bad fixture {path.name}"
                assert all(f.rule == rule_id for f in findings)
            else:
                assert not findings, (
                    f"{rule_id} false positive on {path.name}: {findings}"
                )


class TestRuleSpecifics:
    def test_r001_counts_each_leak(self, tmp_path):
        runner = LintRunner([_rule("R001")])
        for kind, path in _copied_fixtures("R001", tmp_path):
            if kind == "bad":
                # return leak + print leak + derived-value leak + probe leak
                assert len(runner.check_file(path)) == 4

    def test_r003_reports_partial_invalidation(self, tmp_path):
        runner = LintRunner([_rule("R003")])
        for kind, path in _copied_fixtures("R003", tmp_path):
            if kind == "bad":
                messages = [f.message for f in runner.check_file(path)]
                assert len(messages) == 2
                assert any("only on some paths" in m for m in messages)

    def test_r006_scoped_out_of_test_trees(self):
        rule = _rule("R006")
        assert not rule.applies_to(Path("tests/analysis/test_rules.py"))
        assert rule.applies_to(Path("src/repro/query/gyo.py"))

    def test_r001_scoped_to_dp(self):
        rule = _rule("R001")
        assert rule.applies_to(Path("src/repro/dp/tsensdp.py"))
        assert not rule.applies_to(Path("src/repro/session.py"))

    def test_r003_scoped_to_session_module(self):
        rule = _rule("R003")
        assert rule.applies_to(Path("src/repro/session.py"))
        assert not rule.applies_to(Path("src/repro/evaluation/joinstate.py"))

    def test_r007_scoped_to_serve_minus_epochs(self):
        rule = _rule("R007")
        assert rule.applies_to(Path("src/repro/serve/server.py"))
        assert rule.applies_to(Path("src/repro/serve/admission.py"))
        assert not rule.applies_to(Path("src/repro/serve/epochs.py"))
        assert not rule.applies_to(Path("tests/serve/test_server.py"))
        assert not rule.applies_to(Path("src/repro/session.py"))

    def test_r007_counts_each_bypass(self, tmp_path):
        runner = LintRunner([_rule("R007")])
        for kind, path in _copied_fixtures("R007", tmp_path):
            if kind == "bad":
                messages = [f.message for f in runner.check_file(path)]
                # evaluation import + JoinState name + _evaluator +
                # _ensure_evaluator + delta_batch + component_states
                assert len(messages) == 6
                assert any("epoch lease" in m for m in messages)


class TestSourceTreeContract:
    def test_src_passes_all_rules_with_empty_baseline(self):
        src = Path(__file__).resolve().parents[2] / "src"
        result = LintRunner(builtin_rules()).run([src])
        assert result.clean, "\n".join(
            f"{f.path}:{f.line} {f.rule} {f.message}" for f in result.findings
        )

    def test_seeding_bad_fixture_into_src_fails(self, tmp_path):
        """The CI-gate property: any known-bad snippet inside a src-like
        tree produces findings (here: a dp/ leak and a bare assert)."""
        bad_dp = tmp_path / "repro" / "dp" / "leaky.py"
        bad_dp.parent.mkdir(parents=True)
        shutil.copyfile(FIXTURES / "R001" / "dp" / "bad_leak.py", bad_dp)
        shutil.copyfile(
            FIXTURES / "R006" / "bad_assert.py", tmp_path / "repro" / "asserty.py"
        )
        result = LintRunner(builtin_rules()).run([tmp_path])
        assert {f.rule for f in result.findings} == {"R001", "R006"}
