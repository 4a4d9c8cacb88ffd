"""Driver-level tests: suppressions, baselines, reporters, and the CLI."""

import json
from pathlib import Path

import pytest

from repro.analysis import Baseline, LintConfigError, LintRunner, builtin_rules, load_rules
from repro.analysis.rules.asserts import NoBareAssertRule
from repro.analysis.suppressions import Suppressions
from repro.cli import main

TWO_ASSERTS = (
    "def f(x):\n"
    "    assert x  # repro-lint: disable=R006\n"
    "    assert x\n"
    "    return x\n"
)


def _lint_file(tmp_path, source, rules=None, name="sample.py"):
    path = tmp_path / name
    path.write_text(source)
    runner = LintRunner(rules if rules is not None else [NoBareAssertRule()])
    return path, runner.check_file(path)


class TestSuppressions:
    def test_inline_disable_silences_exactly_one_finding(self, tmp_path):
        _, findings = _lint_file(tmp_path, TWO_ASSERTS)
        assert len(findings) == 1
        assert findings[0].line == 3  # only the unsuppressed assert

    def test_standalone_comment_suppresses_next_code_line(self, tmp_path):
        source = (
            "def f(x):\n"
            "    # repro-lint: disable=R006 -- justified here\n"
            "    assert x\n"
            "    return x\n"
        )
        _, findings = _lint_file(tmp_path, source)
        assert findings == []

    def test_disable_file_silences_whole_module(self, tmp_path):
        source = "# repro-lint: disable-file=R006\n" + TWO_ASSERTS
        _, findings = _lint_file(tmp_path, source)
        assert findings == []

    def test_disable_all_and_multiple_rules(self):
        s = Suppressions.parse("x = 1  # repro-lint: disable=R001,R005\n")
        assert s.is_suppressed("R001", 1)
        assert s.is_suppressed("R005", 1)
        assert not s.is_suppressed("R006", 1)
        s = Suppressions.parse("x = 1  # repro-lint: disable=all\n")
        assert s.is_suppressed("R999", 1)

    def test_marker_inside_string_literal_does_not_suppress(self, tmp_path):
        source = (
            "def f(x):\n"
            '    note = "# repro-lint: disable=R006"\n'
            "    assert x\n"
            "    return note\n"
        )
        _, findings = _lint_file(tmp_path, source)
        assert len(findings) == 1

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        source = "def f(x):\n    assert x  # repro-lint: disable=R001\n"
        _, findings = _lint_file(tmp_path, source)
        assert len(findings) == 1

    def test_suppressed_count_reported(self, tmp_path):
        path = tmp_path / "sample.py"
        path.write_text(TWO_ASSERTS)
        result = LintRunner([NoBareAssertRule()]).run([tmp_path])
        assert len(result.findings) == 1
        assert result.suppressed == 1


class TestBaseline:
    def test_baselined_findings_do_not_fail(self, tmp_path):
        path = tmp_path / "sample.py"
        path.write_text("def f(x):\n    assert x\n")
        runner = LintRunner([NoBareAssertRule()])
        baseline_path = tmp_path / "baseline.json"
        Baseline.write(baseline_path, runner.check_file(path))
        result = runner.run([path], baseline=Baseline.load(baseline_path))
        assert result.clean
        assert result.baselined == 1

    def test_new_findings_still_fail(self, tmp_path):
        path = tmp_path / "sample.py"
        path.write_text("def f(x):\n    assert x\n")
        runner = LintRunner([NoBareAssertRule()])
        baseline_path = tmp_path / "baseline.json"
        Baseline.write(baseline_path, runner.check_file(path))
        path.write_text("def f(x):\n    assert x\n    assert x is not None\n")
        result = runner.run([path], baseline=Baseline.load(baseline_path))
        assert len(result.findings) == 1
        assert "assert x is not None" in result.findings[0].line_text

    def test_matching_is_consuming(self, tmp_path):
        """Duplicating a baselined bad line is a new finding."""
        path = tmp_path / "sample.py"
        path.write_text("def f(x):\n    assert x\n")
        runner = LintRunner([NoBareAssertRule()])
        baseline = Baseline(
            [f.key() for f in runner.check_file(path)]
        )
        path.write_text("def f(x):\n    assert x\n    assert x\n")
        result = runner.run([path], baseline=baseline)
        assert len(result.findings) == 1

    def test_entries_age_out_when_line_disappears(self, tmp_path):
        path = tmp_path / "sample.py"
        path.write_text("def f(x):\n    assert x\n")
        runner = LintRunner([NoBareAssertRule()])
        baseline_path = tmp_path / "baseline.json"
        Baseline.write(baseline_path, runner.check_file(path))
        # Fix the line; the baseline entry is now stale.
        path.write_text("def f(x):\n    return x\n")
        result = runner.run([path], baseline=Baseline.load(baseline_path))
        assert result.clean
        assert result.stale_baseline == 1
        # Rewriting the baseline drops the stale entry.
        count = Baseline.write(baseline_path, runner.check_file(path))
        assert count == 0
        assert Baseline.load(baseline_path).split([]) == ([], 0, 0)

    def test_entries_survive_line_number_drift(self, tmp_path):
        path = tmp_path / "sample.py"
        path.write_text("def f(x):\n    assert x\n")
        runner = LintRunner([NoBareAssertRule()])
        baseline = Baseline([f.key() for f in runner.check_file(path)])
        # Unrelated code above moves the finding down two lines.
        path.write_text("import os\nimport sys\n\ndef f(x):\n    assert x\n")
        result = runner.run([path], baseline=baseline)
        assert result.clean
        assert result.baselined == 1

    def test_corrupt_baseline_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("{not json")
        with pytest.raises(LintConfigError):
            Baseline.load(bad)

    def test_missing_baseline_is_empty(self, tmp_path):
        assert len(Baseline.load(tmp_path / "absent.json")) == 0


class TestRegistry:
    def test_builtin_rules_are_unique_and_complete(self):
        ids = [rule.rule_id for rule in builtin_rules()]
        assert ids == sorted(ids)
        assert set(ids) == {
            "R001", "R002", "R003", "R004", "R005", "R006", "R007",
        }

    def test_load_rules_filter(self):
        assert [r.rule_id for r in load_rules(only=["R006", "R001"])] == [
            "R006",
            "R001",
        ]

    def test_load_rules_unknown_id(self):
        with pytest.raises(LintConfigError):
            load_rules(only=["R999"])

    def test_duplicate_rule_ids_rejected(self):
        with pytest.raises(LintConfigError):
            LintRunner([NoBareAssertRule(), NoBareAssertRule()])


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("def f(x):\n    return x\n")
        assert main(["lint", str(path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text("def f(x):\n    assert x\n")
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "R006" in out and "dirty.py:2" in out

    def test_json_format(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text("def f(x):\n    assert x\n")
        assert main(["lint", str(path), "--format=json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["findings"] == 1
        assert payload["findings"][0]["rule"] == "R006"
        assert payload["findings"][0]["line"] == 2

    def test_baseline_roundtrip_via_cli(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text("def f(x):\n    assert x\n")
        baseline = tmp_path / "baseline.json"
        assert (
            main(["lint", str(path), "--baseline", str(baseline), "--update-baseline"])
            == 0
        )
        capsys.readouterr()
        assert main(["lint", str(path), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_update_baseline_requires_baseline_path(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path), "--update-baseline"]) == 2

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ["R001", "R002", "R003", "R004", "R005", "R006"]:
            assert rule_id in out

    def test_rules_filter(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text("def f(x):\n    assert x\n")
        assert main(["lint", str(path), "--rules", "R001"]) == 0
        capsys.readouterr()
        assert main(["lint", str(path), "--rules", "R999"]) == 2

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "/nonexistent/path/xyz"]) == 2

    def test_syntax_error_reported_not_crashing(self, tmp_path, capsys):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        assert main(["lint", str(path)]) == 1
        assert "E000" in capsys.readouterr().out
