"""The benchmark's workloads: set-up, the measured closed loop, and checks.

Each workload function takes a :class:`Config` and returns an
:class:`Outcome`; ``run.py`` turns outcomes into metrics.  All workloads
run the columnar backend with the serial default (``workers=1``).
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import prepare
from repro.datasets.tpch import generate_tpch
from repro.serve.client import ServeClient
from repro.serve.protocol import sensitivity_result_to_dict
from repro.workloads.tpch_queries import q1_workload, q2_workload, q3_workload

from calibrate import Calibrator
from refresh import RefreshGenerator, replay
from spans import Tracer

BACKEND = "columnar"
#: TPC-H scale factor per workload.
SCALES = {
    "tsens-cyclic": 0.005,
    "tsens-acyclic": 0.05,
    "maintain-refresh": 0.005,
    "serve-mixed": 0.005,
}
#: Set-up repeats until both minimums are met; ``setup_s`` is the median.
MIN_SETUPS = 3
MIN_SETUP_S = 2.0
#: Reference-kernel time after each set-up.
SETUP_CALIBRATION_S = 0.3
#: C rows per probe: maintain-refresh, serve-mixed.
MAINTAIN_PROBE_ROWS = 64
SERVE_PROBE_ROWS = 16
#: serve-mixed: read mix and the fixed write schedule.
SERVE_PROBE_SHARE = 0.7
BATCH_PERIOD_S = 5.0
#: serve-mixed: the load pauses this often for a server-side kernel run.
CALIBRATION_PERIOD_S = 1.0
#: serve-mixed: a connection that waits this long for the other gives up.
ROUND_TIMEOUT_S = 120.0
#: Kernel time interleaved with a closed loop's ops, as a share of op time.
CALIBRATION_SHARE = 0.15
#: The traced run measures its first third untraced (overhead baseline).
UNTRACED_SHARE = 1 / 3

HERE = Path(__file__).resolve().parent


@dataclass
class Config:
    workload: str
    seed: int
    seconds: float
    trace: bool
    scale: float


@dataclass
class Op:
    """One completed (or failed) operation of the measured loop."""

    kind: str
    start: float
    end: float
    traced: bool
    ok: bool
    #: seconds per sub-step (``apply``/``sensitivity``/``probe``).
    parts: Dict[str, float] = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass
class Outcome:
    setup_s: List[float]
    #: reference-kernel run times interleaved with the set-ups (seconds).
    setup_calibration_s: List[float]
    start: float
    ops: List[Op]
    #: check name -> passed; every check the workload defines is present.
    checks: Dict[str, bool]
    #: peak RSS when the measured loop starts, and at its end.
    setup_rss_mb: float
    peak_rss_mb: float
    #: spans of the traced phase (from the server on serve-mixed).
    spans: list
    params: Dict[str, object]
    extra: Dict[str, object] = field(default_factory=dict)
    #: reference-kernel run times interleaved with the ops (seconds).
    calibration_s: List[float] = field(default_factory=list)
    #: name the whole op's latency is also reported under (``tsens``).
    op_name: Optional[str] = None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def normal(result) -> Dict[str, object]:
    """A sensitivity result in its JSON wire form (count-free)."""
    return json.loads(json.dumps(sensitivity_result_to_dict(result), sort_keys=True))


def pin_to_one_core() -> None:
    """Keep this process on one core.  The host's cores slow down and
    recover independently, so the reference kernel must share its core
    with the ops it rescales."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def repeat_setup(build: Callable[[], object]) -> Tuple[object, List[float], List[float]]:
    """Run ``build`` at least :data:`MIN_SETUPS` times and for at least
    :data:`MIN_SETUP_S` seconds (a cheap set-up gets more samples), each
    followed by :data:`SETUP_CALIBRATION_S` of reference-kernel runs; the
    last result, every set-up time and every kernel run time."""
    times: List[float] = []
    calibrator = Calibrator()
    value = None
    while len(times) < MIN_SETUPS or sum(times) < MIN_SETUP_S:
        value = None
        start = time.perf_counter()
        value = build()
        times.append(time.perf_counter() - start)
        calibrator.run(SETUP_CALIBRATION_S)
    return value, times, calibrator.samples


def closed_loop(
    cfg: Config, tracer: Optional[Tracer], step
) -> Tuple[float, List[Op], List[float]]:
    """Call ``step(op)`` for ``cfg.seconds`` (at least once); after each op
    run the reference kernel for :data:`CALIBRATION_SHARE` of its time.

    ``step`` fills ``op.parts`` and returns ``False`` when its answer is
    wrong; a raise is a failed op.  In a traced run tracing switches on
    after the first :data:`UNTRACED_SHARE` of the time.  Returns the start,
    the ops and the kernel run times."""
    ops: List[Op] = []
    calibrator = Calibrator()
    if tracer is not None:
        # One root span per op, so the spans of an op share an ancestor.
        step = tracer.wrap(step, "op", None)
    start = time.perf_counter()
    deadline = start + cfg.seconds
    switch = start + cfg.seconds * UNTRACED_SHARE
    while not ops or time.perf_counter() < deadline:
        traced = tracer is not None and time.perf_counter() >= switch
        if tracer is not None:
            tracer.enabled = traced
        op = Op("op", time.perf_counter(), 0.0, traced, False)
        try:
            op.ok = step(op) is not False
        except Exception:
            traceback.print_exc(file=sys.stderr)
        op.end = time.perf_counter()
        ops.append(op)
        calibrator.run(CALIBRATION_SHARE * op.latency)
    if tracer is not None:
        tracer.enabled = False
    return start, ops, calibrator.samples


def _timed(op: Op, part: str, fn, *args, **kwargs):
    start = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        op.parts[part] = op.parts.get(part, 0.0) + time.perf_counter() - start


def _tsens_op(op: Optional[Op], wl, db):
    """Fresh ``prepare`` + ``count()`` + ``sensitivity()``; the answer."""
    op = op if op is not None else Op("ref", 0.0, 0.0, False, False)
    session = prepare(wl.query, db, tree=wl.tree)
    count = session.count()
    result = _timed(op, "sensitivity", session.sensitivity, skip_relations=wl.skip_relations)
    return {"count": count, "sensitivity": normal(result)}


def _traced(cfg: Config) -> Optional[Tracer]:
    if not cfg.trace:
        return None
    tracer = Tracer()
    tracer.install()
    return tracer


# ------------------------------------------------------------- tsens-cyclic
def tsens_cyclic(cfg: Config) -> Outcome:
    """q3 with the paper's GHD: one op is a cold prepare + count + TSens."""
    pin_to_one_core()
    wl = q3_workload()
    db, setup_s, setup_calibration_s = repeat_setup(
        lambda: wl.prepare(generate_tpch(cfg.scale, seed=cfg.seed, backend=BACKEND))
    )
    reference = _tsens_op(None, wl, db)
    setup_rss = peak_rss_mb()
    tracer = _traced(cfg)
    mismatches: List[float] = []

    def step(op: Op) -> bool:
        same = _tsens_op(op, wl, db) == reference
        if not same:
            mismatches.append(op.start)
        return same

    start, ops, calibration_s = closed_loop(cfg, tracer, step)
    rss = peak_rss_mb()
    return Outcome(
        setup_s=setup_s,
        setup_calibration_s=setup_calibration_s,
        start=start,
        ops=ops,
        checks={"answers_equal_reference": not mismatches},
        setup_rss_mb=setup_rss,
        peak_rss_mb=rss,
        spans=tracer.spans if tracer else [],
        calibration_s=calibration_s,
        params={"query": "q3", "skip_relations": list(wl.skip_relations)},
        op_name="tsens",
    )


# ------------------------------------------------------------ tsens-acyclic
def tsens_acyclic(cfg: Config) -> Outcome:
    """q1 (path) then q2 (acyclic star): one op is the pair, each a cold
    prepare + count + sensitivity, so its latency is one mode, not two."""
    pin_to_one_core()
    q1, q2 = q1_workload(), q2_workload()

    def build():
        base = generate_tpch(cfg.scale, seed=cfg.seed, backend=BACKEND)
        return q1.prepare(base), q2.prepare(base)

    (db1, db2), setup_s, setup_calibration_s = repeat_setup(build)
    reference = (_tsens_op(None, q1, db1), _tsens_op(None, q2, db2))
    setup_rss = peak_rss_mb()
    tracer = _traced(cfg)
    mismatches: List[float] = []

    def step(op: Op) -> bool:
        same = (_tsens_op(op, q1, db1), _tsens_op(op, q2, db2)) == reference
        if not same:
            mismatches.append(op.start)
        return same

    start, ops, calibration_s = closed_loop(cfg, tracer, step)
    rss = peak_rss_mb()
    return Outcome(
        setup_s=setup_s,
        setup_calibration_s=setup_calibration_s,
        start=start,
        ops=ops,
        checks={"answers_equal_reference": not mismatches},
        setup_rss_mb=setup_rss,
        peak_rss_mb=rss,
        spans=tracer.spans if tracer else [],
        calibration_s=calibration_s,
        params={"queries": ["q1", "q2"], "op": "q1 op then q2 op"},
        op_name="tsens",
    )


# --------------------------------------------------------- maintain-refresh
def warm_q3_session(scale: float, seed: int):
    """The warm q3 session both update workloads start from."""
    wl = q3_workload()
    db = wl.prepare(generate_tpch(scale, seed=seed, backend=BACKEND))
    session = prepare(wl.query, db, tree=wl.tree)
    session.count()
    session.sensitivity(skip_relations=wl.skip_relations)
    session.probe("C", sorted(db.relation("C").counts)[:SERVE_PROBE_ROWS])
    return session


def maintain_refresh(cfg: Config) -> Outcome:
    """Warm q3 session; one op is apply(refresh batch), sensitivity(),
    probe("C", 64 rows)."""
    pin_to_one_core()
    skip = q3_workload().skip_relations
    session, setup_s, setup_calibration_s = repeat_setup(lambda: warm_q3_session(cfg.scale, cfg.seed))
    generator = RefreshGenerator(session.db, np.random.default_rng(cfg.seed))
    setup_rss = peak_rss_mb()
    tracer = _traced(cfg)
    batch_sizes: List[int] = []
    last_rows: List[Tuple[int, int]] = []

    def step(op: Op) -> None:
        batch = generator.batch()
        rows = generator.probe_rows(MAINTAIN_PROBE_ROWS)
        batch_sizes.append(len(batch))
        _timed(op, "apply", session.apply, batch)
        _timed(op, "sensitivity", session.sensitivity, skip_relations=skip)
        _timed(op, "probe", session.probe, "C", rows)
        last_rows[:] = rows

    start, ops, calibration_s = closed_loop(cfg, tracer, step)
    rss = peak_rss_mb()
    # After the run: a fresh session over the final database must agree.
    fresh = prepare(session.query, session.db, tree=session.tree)
    checks = {
        "final_count": session.count() == fresh.count(),
        "final_sensitivity": normal(session.sensitivity(skip_relations=skip))
        == normal(fresh.sensitivity(skip_relations=skip)),
        "final_probe": session.probe("C", last_rows) == fresh.probe("C", last_rows),
    }
    return Outcome(
        setup_s=setup_s,
        setup_calibration_s=setup_calibration_s,
        start=start,
        ops=ops,
        checks=checks,
        setup_rss_mb=setup_rss,
        peak_rss_mb=rss,
        spans=tracer.spans if tracer else [],
        calibration_s=calibration_s,
        params={
            "query": "q3",
            "probe_rows": MAINTAIN_PROBE_ROWS,
            "batch_updates_min": min(batch_sizes, default=0),
            "batch_updates_max": max(batch_sizes, default=0),
        },
    )


# -------------------------------------------------------------- serve-mixed
class _ServerProcess:
    """``serve_main.py`` in its own process, driven over stdin/stdout.

    With two or more usable cores the server is pinned to one core and
    this load generator to another, so the two processes do not trade
    places run to run (which moved the request latency median by ~40%
    between otherwise identical runs on a 2-core host)."""

    def __init__(self, cfg: Config):
        cores = sorted(os.sched_getaffinity(0))
        pin = len(cores) >= 2
        if pin:
            os.sched_setaffinity(0, {cores[0]})
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "serve_main.py"),
                "--scale", repr(cfg.scale),
                "--seed", str(cfg.seed),
                "--trace", "1" if cfg.trace else "0",
                "--core", str(cores[1] if pin else -1),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.hello: Dict[str, object] = {}

    def read(self) -> Dict[str, object]:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("benchmark server exited early")
        return json.loads(line)

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def calibrate(self, seconds: float) -> List[float]:
        self.send(f"calibrate {seconds!r}")
        return list(self.read()["calibration_s"])

    def finish(self) -> Dict[str, object]:
        self.send("stop")
        report = self.read()
        self.proc.wait(timeout=60)
        return report

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def serve_mixed(cfg: Config) -> Outcome:
    """A served warm q3 session: two connections reading 70% probes / 30%
    sensitivity in rounds; one sends a refresh batch instead of a read
    when one falls due (every 5 s).

    In a round both connections send a request at once and the next round
    starts when both have their answers, so the admission queue sees the
    same concurrency every round.  Free-running connections drift in and
    out of step with each other, which moved the request latency median
    between ~2 and ~3.5 ms from run to run.  Between rounds, once a
    second from the first round on, the server runs the reference kernel
    for :data:`CALIBRATION_SHARE` of a second."""
    skip = list(q3_workload().skip_relations)
    server = _ServerProcess(cfg)
    try:
        server.hello = server.read()
        return _drive_server(cfg, server, skip)
    finally:
        server.kill()


def _drive_server(cfg: Config, server: _ServerProcess, skip: List[str]) -> Outcome:
    port = int(server.hello["port"])
    base = q3_workload().prepare(generate_tpch(cfg.scale, seed=cfg.seed, backend=BACKEND))
    generator = RefreshGenerator(base, np.random.default_rng(cfg.seed))
    customers = generator.customers
    acked: List[list] = []
    lateness: List[float] = []
    newest = {"epoch": 0}
    mutex = threading.Lock()
    ops: List[Op] = []
    counters = {"stale_reads": 0, "reads": 0, "stale_probe": 0, "stale_sensitivity": 0}
    start = time.perf_counter()
    deadline = start + cfg.seconds
    switch = start + cfg.seconds * UNTRACED_SHARE
    dues = list(np.arange(start + BATCH_PERIOD_S / 2, deadline, BATCH_PERIOD_S))
    calibration_s: List[float] = []
    #: what the next round does; set by ``between_rounds``.
    plan = {
        "over": False,
        "traced": False,
        "due": None,
        "calibrated": start - CALIBRATION_PERIOD_S,
    }

    def between_rounds() -> None:
        """Runs in one connection while both wait between rounds."""
        now = time.perf_counter()
        if now >= deadline:
            plan["over"] = True
            return
        if now >= plan["calibrated"] + CALIBRATION_PERIOD_S:
            calibration_s.extend(server.calibrate(CALIBRATION_SHARE * CALIBRATION_PERIOD_S))
            plan["calibrated"] = now
        if cfg.trace and not plan["traced"] and now >= switch:
            plan["traced"] = True
            server.send("trace on")
        plan["due"] = dues.pop(0) if dues and now >= dues[0] else None

    rounds = threading.Barrier(2, action=between_rounds, timeout=ROUND_TIMEOUT_S)

    def connection(index: int) -> None:
        rng = np.random.default_rng([cfg.seed, index])
        try:
            with ServeClient("127.0.0.1", port) as client:
                while True:
                    rounds.wait()
                    if plan["over"]:
                        return
                    request(index, client, rng)
        except threading.BrokenBarrierError:
            pass
        finally:
            # A connection that stops early must not hold the other.
            if not plan["over"]:
                rounds.abort()

    def request(index: int, client: ServeClient, rng) -> None:
        """This connection's apply or read in the current round."""
        now = time.perf_counter()
        is_traced = plan["traced"]
        if index == 0 and plan["due"] is not None:
            due = plan["due"]
            batch = generator.batch()
            op = Op("apply", due, 0.0, is_traced, False)
            lateness.append(now - due)
            try:
                client.apply(batch)
                op.ok = True
                with mutex:
                    acked.append(batch)
                    newest["epoch"] = max(newest["epoch"], client.last_epoch)
            except Exception:
                traceback.print_exc(file=sys.stderr)
            op.end = time.perf_counter()
            op.parts["apply"] = op.latency
            ops.append(op)
            return
        probe = rng.random() < SERVE_PROBE_SHARE
        op = Op("probe" if probe else "sensitivity", now, 0.0, is_traced, False)
        try:
            if probe:
                picks = rng.choice(len(customers), size=SERVE_PROBE_ROWS, replace=False)
                client.probe("C", [customers[int(i)] for i in picks])
            else:
                client.sensitivity(skip_relations=skip)
            op.ok = True
            with mutex:
                counters["reads"] += 1
                if client.last_epoch < newest["epoch"]:
                    counters["stale_reads"] += 1
                    counters[f"stale_{op.kind}"] += 1
        except Exception:
            traceback.print_exc(file=sys.stderr)
        op.end = time.perf_counter()
        op.parts[op.kind] = op.latency
        ops.append(op)

    threads = [threading.Thread(target=connection, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if cfg.trace:
        server.send("trace off")
    ops.sort(key=lambda op: op.start)

    check_rows = generator.probe_rows(MAINTAIN_PROBE_ROWS)
    with ServeClient("127.0.0.1", port) as client:
        rtts = []
        for _ in range(32):
            t0 = time.perf_counter()
            client.epoch()
            rtts.append(time.perf_counter() - t0)
        head = {
            "count": client.count(),
            "sensitivity": json.loads(
                json.dumps(client.sensitivity(skip_relations=skip), sort_keys=True)
            ),
            "probe": client.probe("C", check_rows),
        }
        stats = client.stats()
    report = server.finish()

    # The head must equal a fresh session over the replayed acked batches.
    wl = q3_workload()
    fresh = prepare(wl.query, replay(base, acked), tree=wl.tree)
    checks = {
        "head_count": head["count"] == fresh.count(),
        "head_sensitivity": head["sensitivity"]
        == normal(fresh.sensitivity(skip_relations=wl.skip_relations)),
        "head_probe": head["probe"] == fresh.probe("C", check_rows),
        "all_batches_acked": len(acked) == len([op for op in ops if op.kind == "apply"]),
        "rounds_intact": not rounds.broken,
    }
    admission = stats["admission"]
    return Outcome(
        setup_s=list(server.hello["setup_s"]),
        setup_calibration_s=list(server.hello["setup_calibration_s"]),
        start=start,
        ops=ops,
        checks=checks,
        setup_rss_mb=float(server.hello["setup_rss_mb"]),
        peak_rss_mb=float(report["peak_rss_mb"]),
        spans=report["spans"],
        calibration_s=calibration_s,
        params={
            "query": "q3",
            "connections": 2,
            "probe_rows": SERVE_PROBE_ROWS,
            "probe_share": SERVE_PROBE_SHARE,
            "batch_period_s": BATCH_PERIOD_S,
            "batches": len(acked),
        },
        extra={
            "generator_late_ms_max": 1e3 * max(lateness, default=0.0),
            "generator_late_ms_mean": 1e3 * float(np.mean(lateness)) if lateness else 0.0,
            **counters,
            "epoch_rtt_ms": 1e3 * float(np.median(rtts)),

            "admission": admission,
            "epochs": stats["epochs"],
            "coalesce_ratio": admission["probe_requests"] / max(1, admission["probe_passes"]),
            "read_dedup_ratio": admission["read_requests"]
            / max(1, admission["read_executions"]),
        },
    )


WORKLOADS: Dict[str, Callable[[Config], Outcome]] = {
    "tsens-cyclic": tsens_cyclic,
    "tsens-acyclic": tsens_acyclic,
    "maintain-refresh": maintain_refresh,
    "serve-mixed": serve_mixed,
}
