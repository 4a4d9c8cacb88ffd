"""BENCH artifact provenance: written whole, stamped, never mixed.

``benchmarks/conftest.py`` writes ``BENCH_<backend>.json`` after each
benchmark run and ``benchmarks/trend.py`` renders the artifacts.  An
earlier version merged old timings into a new file under the new scale,
so timings measured at one scale were reported under another; these
tests pin the fix without running any benchmark.
"""

import importlib.util
import json
import os
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def trend():
    return _load(BENCH_DIR / "trend.py", "bench_trend")


@pytest.fixture()
def bench_conftest(tmp_path):
    """The benchmark conftest, loaded from a copy so it writes its
    artifact under ``tmp_path`` instead of into ``benchmarks/``."""
    copy = tmp_path / "benchmarks" / "conftest.py"
    copy.parent.mkdir()
    shutil.copy(BENCH_DIR / "conftest.py", copy)
    return _load(copy, "bench_conftest_copy")


def _stamp(**overrides):
    stamp = {
        "git_sha": "0123456789abcdef",
        "git_dirty": False,
        "cpu_count": 2,
        "python": "3.11.7",
        "numpy": "2.4.6",
        "tpch_scale": 0.005,
        "seed": 0,
    }
    stamp.update(overrides)
    return stamp


def _report(backend, seconds, **stamp):
    return {
        "backend": backend,
        "stamp": _stamp(**stamp),
        "timings_seconds": {"bench_x.py::test_q3": seconds},
    }


def _tables(text):
    return [block for block in text.split("\n\n") if block.startswith("== ")]


class TestTrendGrouping:
    def test_matching_stamps_share_one_table(self, trend):
        text = trend.render(
            {"python": _report("python", 2.0), "columnar": _report("columnar", 0.5)}
        )
        (table,) = _tables(text)
        assert "tpch_scale=0.005" in table
        assert "4.0x" in table  # py/col ratio of the shared row

    def test_differing_scales_never_share_a_row(self, trend):
        text = trend.render(
            {
                "python": _report("python", 40.0, tpch_scale=0.005),
                "columnar": _report("columnar", 0.5, tpch_scale=0.0005),
            }
        )
        tables = _tables(text)
        assert len(tables) == 2
        for table in tables:
            header = table.splitlines()[1]
            assert ("python" in header) != ("columnar" in header)
            assert "py/col" not in header

    def test_differing_hosts_never_share_a_row(self, trend):
        text = trend.render(
            {
                "python": _report("python", 2.0, cpu_count=2),
                "columnar": _report("columnar", 0.5, cpu_count=64),
            }
        )
        titles = [table.splitlines()[0] for table in _tables(text)]
        assert sorted(t.split()[2] for t in titles) == ["cpu_count=2", "cpu_count=64"]

    def test_unstamped_artifacts_form_their_own_group(self, trend):
        legacy = {"backend": "python", "timings_seconds": {"bench_x.py::test_q3": 1.0}}
        text = trend.render({"python": legacy, "columnar": _report("columnar", 0.5)})
        titles = [table.splitlines()[0] for table in _tables(text)]
        assert "== unstamped" in titles
        assert len(titles) == 2

    def test_dirty_tree_is_marked_in_the_title(self, trend):
        text = trend.render({"python": _report("python", 1.0, git_dirty=True)})
        assert "git=0123456789+dirty" in text

    def test_unreadable_artifact_is_skipped(self, trend, tmp_path, monkeypatch, capsys):
        (tmp_path / "BENCH_python.json").write_text(json.dumps(_report("python", 1.0)))
        (tmp_path / "BENCH_columnar.json").write_text("{not json")
        monkeypatch.setattr(trend, "BENCH_DIR", tmp_path)
        assert list(trend.load_reports()) == ["python"]
        assert "skipping BENCH_columnar.json" in capsys.readouterr().err


def _session(times, args=("-q",), backend="python", scale=0.005):
    options = {"--backend": backend, "tpch_scale": scale}
    config = SimpleNamespace(
        _bench_wall_times=times,
        getoption=options.__getitem__,
        invocation_params=SimpleNamespace(args=tuple(args)),
    )
    return SimpleNamespace(config=config)


class TestArtifactWriter:
    def test_artifact_is_rewritten_whole(self, bench_conftest):
        out = Path(bench_conftest.__file__).parent / "BENCH_python.json"
        out.write_text(
            json.dumps(
                {
                    "backend": "python",
                    "tpch_scale": 0.0005,
                    "timings_seconds": {"bench_sharded.py::test_old": 1.15},
                }
            )
        )
        session = _session({"bench_x.py::test_q3": 40.0}, scale=0.005)
        bench_conftest.pytest_sessionfinish(session, 0)
        payload = json.loads(out.read_text())
        assert payload["timings_seconds"] == {"bench_x.py::test_q3": 40.0}
        assert payload["stamp"]["tpch_scale"] == 0.005
        assert payload["invocation"] == ["-q"]
        assert "tpch_scale" not in payload  # nothing carried over

    def test_failed_run_leaves_the_artifact_alone(self, bench_conftest):
        out = Path(bench_conftest.__file__).parent / "BENCH_python.json"
        out.write_text("previous\n")
        bench_conftest.pytest_sessionfinish(_session({"bench_x.py::t": 1.0}), 1)
        assert out.read_text() == "previous\n"

    def test_stamp_records_code_host_and_inputs(self, bench_conftest, monkeypatch):
        answers = {"rev-parse": "abc123", "status": " M src/repro/session.py"}
        monkeypatch.setattr(bench_conftest, "_git", lambda *args: answers[args[0]])
        stamp = bench_conftest.bench_stamp(0.005, 7)
        assert (stamp["git_sha"], stamp["git_dirty"]) == ("abc123", True)
        assert stamp["cpu_count"] == os.cpu_count()
        assert stamp["numpy"] == numpy.__version__
        assert (stamp["tpch_scale"], stamp["seed"]) == (0.005, 7)

    def test_stamp_without_git_claims_no_commit(self, bench_conftest, monkeypatch):
        def no_git(*args):
            raise OSError("git not found")

        monkeypatch.setattr(bench_conftest, "_git", no_git)
        stamp = bench_conftest.bench_stamp(None, 0)
        assert stamp["git_sha"] is None and stamp["git_dirty"] is None

    def test_node_ids_are_keyed_relative_to_the_bench_dir(self, bench_conftest):
        normalise = bench_conftest._normalized_nodeid
        assert normalise("benchmarks/bench_x.py::test_q3") == "bench_x.py::test_q3"
        assert normalise("bench_x.py::test_q3") == "bench_x.py::test_q3"
