"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def csv_data(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "R.csv").write_text("A,B\n1,2\n3,2\n")
    (data / "S.csv").write_text("B,C\n2,9\n")
    return data


class TestSensitivityCommand:
    def test_prints_local_sensitivity(self, csv_data, capsys):
        code = main(
            ["sensitivity", "--query", "R(A,B), S(B,C)", "--data", str(csv_data)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "local sensitivity: 2" in out
        assert "witness" in out

    def test_method_naive(self, csv_data, capsys):
        code = main(
            [
                "sensitivity", "--query", "R(A,B), S(B,C)",
                "--data", str(csv_data), "--method", "naive",
            ]
        )
        assert code == 0
        assert "method           : naive" in capsys.readouterr().out

    def test_parse_error_is_reported(self, csv_data, capsys):
        code = main(
            ["sensitivity", "--query", "!!!", "--data", str(csv_data)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_int_columns(self, csv_data, capsys):
        code = main(
            [
                "sensitivity", "--query", "R(A,B), S(B,C)",
                "--data", str(csv_data), "--int-columns",
            ]
        )
        assert code == 0

    def test_int_columns_parses_values_as_ints(self, csv_data, capsys):
        code = main(
            [
                "sensitivity", "--query", "R(A,B), S(B,C)",
                "--data", str(csv_data), "--int-columns",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        # values must be ints, not strings, in the witness report
        assert "'B': 2" in out and "'B': '2'" not in out

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    def test_backend_flag_gives_same_answer(self, csv_data, capsys, backend):
        code = main(
            [
                "sensitivity", "--query", "R(A,B), S(B,C)",
                "--data", str(csv_data), "--backend", backend,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "local sensitivity: 2" in out


class TestCountCommand:
    def test_counts(self, csv_data, capsys):
        code = main(["count", "--query", "R(A,B), S(B,C)", "--data", str(csv_data)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "2"


class TestGenerateCommand:
    def test_tpch_to_json(self, tmp_path, capsys):
        out_file = tmp_path / "tpch.json"
        code = main(
            [
                "generate", "tpch", "--scale", "0.0001",
                "--seed", "1", "--output", str(out_file),
            ]
        )
        assert code == 0
        document = json.loads(out_file.read_text())
        assert "Lineitem" in document["relations"]

    def test_generated_json_feeds_sensitivity(self, tmp_path, capsys):
        out_file = tmp_path / "tpch.json"
        main(
            [
                "generate", "tpch", "--scale", "0.0001",
                "--seed", "1", "--output", str(out_file),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "sensitivity",
                "--query", "Nation(RK,NK), Customer(NK,CK)",
                "--data", str(out_file),
            ]
        )
        assert code == 0
        assert "local sensitivity:" in capsys.readouterr().out


class TestExperimentCommand:
    def test_fig6a_small(self, capsys):
        code = main(
            ["experiment", "fig6a", "--scales", "0.0001", "--seed", "3"]
        )
        assert code == 0
        assert "Figure 6a" in capsys.readouterr().out

    def test_table1(self, capsys):
        code = main(["experiment", "table1", "--seed", "3"])
        assert code == 0
        assert "Table 1" in capsys.readouterr().out

    def test_params_few_runs(self, capsys):
        code = main(["experiment", "params", "--runs", "2", "--seed", "3"])
        assert code == 0
        assert "ℓ sweep" in capsys.readouterr().out


class TestWhereClauses:
    def test_where_filters(self, csv_data, capsys):
        code = main(
            [
                "count", "--query", "R(A,B), S(B,C)", "--data", str(csv_data),
                "--where", "R: A = '1'",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_where_in_sensitivity(self, csv_data, capsys):
        code = main(
            [
                "sensitivity", "--query", "R(A,B), S(B,C)",
                "--data", str(csv_data), "--where", "R: A != '1'",
            ]
        )
        assert code == 0
        assert "local sensitivity" in capsys.readouterr().out

    def test_malformed_where(self, csv_data, capsys):
        code = main(
            [
                "count", "--query", "R(A,B), S(B,C)", "--data", str(csv_data),
                "--where", "no colon here",
            ]
        )
        assert code == 2


class TestRemovedWorkersFlag:
    """Execution is serial only; ``--workers`` is an unknown flag."""

    @pytest.mark.parametrize("command", ["sensitivity", "count", "explain"])
    def test_workers_flag_is_a_usage_error(self, csv_data, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    command, "--query", "R(A,B), S(B,C)",
                    "--data", str(csv_data), "--workers", "2",
                ]
            )
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestExplainCommand:
    def test_explain_renders(self, csv_data, capsys):
        code = main(
            ["explain", "--query", "R(A,B), S(B,C)", "--data", str(csv_data)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TSens explanation" in out
        assert "multiplicity tables:" in out


class TestServeClientCommands:
    """End-to-end: ``repro serve`` subprocess driven by ``repro client``."""

    @pytest.fixture()
    def served(self, csv_data):
        import os
        import re
        import subprocess
        import sys
        import time

        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--query", "R(A,B), S(B,C)", "--data", str(csv_data),
                "--int-columns", "--default-epsilon", "5",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = process.stdout.readline()
            match = re.search(r" on 127\.0\.0\.1:(\d+)", banner)
            assert match, f"no bound-port banner in {banner!r}"
            yield int(match.group(1))
            main(["client", "shutdown", "--port", match.group(1)])
            assert process.wait(timeout=60) == 0
        finally:
            if process.poll() is None:
                process.kill()
            process.stdout.close()

    def test_client_drives_served_session(self, served, capsys):
        port = str(served)
        assert main(["client", "count", "--port", port]) == 0
        frame = json.loads(capsys.readouterr().out)
        assert frame["ok"] is True
        assert frame["result"]["count"] == 2
        assert frame["epoch"] == 0

        assert main([
            "client", "apply", "--port", port,
            "--params", '{"batch": [["insert", "R", [5, 2]]]}',
        ]) == 0
        frame = json.loads(capsys.readouterr().out)
        assert frame["result"]["count"] == 3
        assert frame["epoch"] == 1

        assert main([
            "client", "release", "--port", port, "--tenant", "alice",
            "--params",
            '{"epsilon": 0.5, "mechanism": "tsensdp", "primary": "R", "ell": 5}',
        ]) == 0
        frame = json.loads(capsys.readouterr().out)
        assert frame["result"]["mechanism_outcome"] == "TSensDPOutcome"

        assert main(["client", "stats", "--port", port]) == 0
        stats = json.loads(capsys.readouterr().out)["result"]
        assert stats["epochs"]["head_epoch"] == 1
        assert [t["tenant_id"] for t in stats["tenants"]] == ["alice"]

    def test_client_surfaces_remote_errors(self, served, capsys):
        code = main([
            "client", "probe", "--port", str(served),
            "--params", '{"relation": "Nope", "rows": [[1, 1]]}',
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_client_rejects_malformed_params(self, capsys):
        code = main([
            "client", "count", "--port", "1", "--params", "not json",
        ])
        assert code == 2
        assert "JSON object" in capsys.readouterr().err


class TestExplainSessionStats:
    def test_explain_prints_session_stats(self, csv_data, capsys):
        code = main(
            ["explain", "--query", "R(A,B), S(B,C)", "--data", str(csv_data)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "session stats:" in out
        assert '"relation_cardinalities"' in out

    def test_client_reports_unreachable_server(self, capsys):
        code = main(["client", "count", "--port", "1"])
        assert code == 2
        assert "could not connect" in capsys.readouterr().err
