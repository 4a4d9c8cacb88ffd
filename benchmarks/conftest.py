"""Shared fixtures for the benchmark suite.

Scales are chosen so the whole suite finishes in minutes on a laptop while
preserving every shape claim; pass larger scales through the experiment
modules (``python -m repro.experiments.fig6a``) for paper-sized runs.

The suite is backend-parametrised: ``pytest benchmarks/ --backend columnar``
runs every benchmark on the vectorized columnar engine.  Each successful
run writes ``benchmarks/BENCH_<backend>.json`` whole — the per-test wall
times of that run only, never merged with an earlier file — stamped with
the git commit, core count, python and numpy versions, TPC-H scale and
seed (:func:`bench_stamp`), so the performance trajectory of both
backends is tracked over time (compare the two files for the
python-vs-columnar picture; ``trend.py`` renders them).
"""

import json
import os
import platform
import subprocess
import time
from pathlib import Path

import pytest

from repro.datasets import generate_ego_network, generate_tpch

#: Default TPC-H scale for the ``tpch_base`` fixture: 0.005, the scale of
#: the layered benchmark's fig-7 q3 workloads (``perfbench/``).  Override
#: per run with ``--tpch-scale`` or the ``REPRO_TPCH_SCALE`` environment
#: variable.
TPCH_SCALE = float(os.environ.get("REPRO_TPCH_SCALE", "0.005"))
SEED = 0


def pytest_addoption(parser):
    parser.addoption(
        "--backend",
        action="store",
        default="python",
        choices=("python", "columnar"),
        help="execution backend the benchmark fixtures materialise data on",
    )
    parser.addoption(
        "--tpch-scale",
        action="store",
        type=float,
        default=TPCH_SCALE,
        dest="tpch_scale",
        help="TPC-H scale factor for the tpch_base fixture "
             "(default: %(default)s, or REPRO_TPCH_SCALE)",
    )


def pytest_configure(config):
    config._bench_wall_times = {}


@pytest.fixture(scope="session")
def backend(request):
    return request.config.getoption("--backend")


@pytest.fixture(scope="session")
def tpch_scale(request):
    return request.config.getoption("tpch_scale")


@pytest.fixture(scope="session")
def tpch_base(backend, tpch_scale):
    return generate_tpch(tpch_scale, seed=SEED, backend=backend)


@pytest.fixture(scope="session")
def tpch_small(backend):
    return generate_tpch(0.0001, seed=SEED, backend=backend)


@pytest.fixture(scope="session")
def facebook_base(backend):
    return generate_ego_network(
        nodes=120, directed_edges=2000, num_circles=250, seed=SEED,
        backend=backend,
    )


def _normalized_nodeid(nodeid: str) -> str:
    """Node id relative to this directory, whatever the invocation rootdir.

    ``pytest benchmarks/bench_x.py`` from the repo root and ``pytest
    bench_x.py`` from inside ``benchmarks/`` must key the same timing
    entry, or artifacts from the two invocations would not line up in
    ``trend.py``."""
    prefix = Path(__file__).resolve().parent.name + "/"
    return nodeid[len(prefix):] if nodeid.startswith(prefix) else nodeid


@pytest.fixture(autouse=True)
def _record_wall_time(request):
    """Record per-test wall time for the BENCH_<backend>.json report."""
    start = time.perf_counter()
    yield
    request.config._bench_wall_times[_normalized_nodeid(request.node.nodeid)] = (
        time.perf_counter() - start
    )


def _git(*args: str) -> str:
    root = Path(__file__).resolve().parent.parent
    return subprocess.run(
        ["git", *args], cwd=root, capture_output=True, text=True, check=True
    ).stdout.strip()


def bench_stamp(tpch_scale, seed) -> dict:
    """Provenance of a BENCH artifact: the code, host and inputs it ran on.

    ``git_dirty`` marks a run from a working tree with uncommitted changes
    to tracked files (``git_sha`` is then the commit they sit on).
    ``tpch_scale`` is ``None`` for benchmarks that generate their own data.
    """
    import numpy

    try:
        sha = _git("rev-parse", "HEAD")
        dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.CalledProcessError):
        sha, dirty = None, None
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "tpch_scale": tpch_scale,
        "seed": seed,
    }


def pytest_sessionfinish(session, exitstatus):
    config = session.config
    times = getattr(config, "_bench_wall_times", None)
    if not times or exitstatus != 0:
        # A failed/interrupted run must not clobber good trajectory data.
        return
    backend = config.getoption("--backend")
    out = Path(__file__).resolve().parent / f"BENCH_{backend}.json"
    # Written whole from this run: timings of an earlier run (another
    # scale, host or commit) must never sit under this run's stamp.  A
    # filtered run (-k, single file) therefore leaves a partial artifact,
    # recognisable by its ``invocation``.
    payload = {
        "backend": backend,
        "stamp": bench_stamp(config.getoption("tpch_scale"), SEED),
        "invocation": list(config.invocation_params.args),
        "timings_seconds": {
            node: round(t, 6) for node, t in sorted(times.items())
        },
    }
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
