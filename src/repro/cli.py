"""Command-line interface: ``python -m repro <command>``.

Five commands cover the library's day-to-day uses:

``sensitivity``
    Local sensitivity of a query over data on disk (CSV directory or JSON
    database), with the most sensitive tuple per relation.
``count``
    The bag count ``|Q(D)|``.
``explain``
    TSens cost profile (intermediate sizes, table factors).
``bench-session``
    Drive an insert/delete stream through one maintained
    :class:`~repro.session.PreparedQuery` and through rebuild-per-update,
    verify they agree, and report the speedup.
``experiment``
    Re-run one of the paper's experiments (fig6a, fig6b, fig7, table1,
    table2, params) and print its table.
``generate``
    Materialise a synthetic dataset (tpch or facebook) to a JSON database
    file for use with the other commands.
``lint``
    Run the project's static-analysis rules (privacy taint, staged
    commit, cache invalidation, dispatch completeness, checked overflow,
    no bare asserts, epoch-lease boundary) over a source tree; see
    ``docs/lint-rules.md``.
``serve``
    Boot the snapshot-epoch session server
    (:class:`~repro.serve.server.SessionServer`) over a prepared query:
    concurrent coalesced reads, a single-writer update pipeline, and
    per-tenant DP budgets over newline-delimited JSON.
``client``
    Issue one request against a running ``repro serve`` endpoint and
    print the response frame.

``sensitivity``, ``count``, ``explain``, ``bench-session`` and ``serve``
all go through one shared prepare step (:func:`repro.session.prepare`):
load, parse, attach selections, plan — then ask the session.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.engine.backend import BACKEND_NAMES, DEFAULT_BACKEND
from repro.engine.io import load_database, load_database_csv_dir, save_database
from repro.query import parse_query
from repro.session import PreparedQuery, prepare, rebuild_per_update_counts
from repro.exceptions import ReproError


def _load_data(path_text: str, int_columns: bool, backend: str = DEFAULT_BACKEND):
    path = Path(path_text)
    if path.is_dir():
        converters = None
        if int_columns:
            # Apply int() to every column of every relation lazily: build
            # a mapping-of-mappings that defaults to int.
            class _AllInt(dict):
                def get(self, key, default=None):
                    return _IntColumns()

            class _IntColumns(dict):
                def get(self, key, default=None):
                    return int

            converters = _AllInt()
        return load_database_csv_dir(path, converters=converters, backend=backend)
    return load_database(path, backend=backend)


def _apply_where(query, clauses):
    """Attach ``--where "REL: <predicate>"`` clauses to the query."""
    from repro.query import parse_predicate

    for clause in clauses or ():
        if ":" not in clause:
            raise ReproError(
                f"--where needs the form 'RELATION: predicate', got {clause!r}"
            )
        relation, text = clause.split(":", 1)
        query = query.with_selection(relation.strip(), parse_predicate(text))
    return query


def _session_from_args(args: argparse.Namespace) -> PreparedQuery:
    """The shared prepare step: load → parse → selections → plan."""
    db = _load_data(args.data, args.int_columns, args.backend)
    query = _apply_where(parse_query(args.query), args.where)
    return prepare(query, db)


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    session = _session_from_args(args)
    result = session.sensitivity(
        method=args.method,
        top_k=args.top_k,
        skip_relations=tuple(args.skip or ()),
        reeval_mode=args.reeval_mode,
    )
    print(f"query            : {session.query}")
    print(f"method           : {result.method}")
    print(f"local sensitivity: {result.local_sensitivity}")
    if result.witness is not None:
        print(
            f"witness          : {result.witness.relation} "
            f"{dict(result.witness.assignment)}"
        )
    print("per relation:")
    for relation, witness in result.per_relation.items():
        detail = dict(witness.assignment) if witness.assignment else "-"
        print(f"  {relation}: δ={witness.sensitivity}  {detail}")
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    print(_session_from_args(args).count())
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    import json

    session = _session_from_args(args)
    print(session.explain(skip_relations=tuple(args.skip or ())))
    print("session stats:")
    print(json.dumps(session.stats(), indent=2))
    return 0


def _cmd_bench_session(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.datasets import random_update_stream

    session = _session_from_args(args)
    query, base = session.query, session.db
    rng = np.random.default_rng(args.seed)
    stream = random_update_stream(
        query, base, rng, args.updates, insert_fraction=args.insert_fraction
    )

    start = time.perf_counter()
    maintained_counts = [session.apply([update]) for update in stream]
    maintained_seconds = time.perf_counter() - start

    start = time.perf_counter()
    rebuilt_counts = rebuild_per_update_counts(query, base, stream)
    rebuild_seconds = time.perf_counter() - start

    agreement = maintained_counts == rebuilt_counts
    speedup = rebuild_seconds / max(maintained_seconds, 1e-9)
    print(f"query              : {query}")
    print(f"backend            : {session.backend}")
    print(f"updates applied    : {len(stream)} "
          f"(count probed after each)")
    print(f"final |Q(D)|       : {maintained_counts[-1] if stream else session.count()}")
    print(f"maintained session : {maintained_seconds:.3f}s")
    print(f"rebuild per update : {rebuild_seconds:.3f}s")
    print(f"speedup            : {speedup:.1f}x")
    print(f"counts agree       : {'yes' if agreement else 'NO'}")
    if not agreement:
        raise ReproError(
            "maintained counts diverged from rebuild-per-update counts"
        )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import fig6a, fig6b, fig7, param_analysis, table1, table2

    name = args.name
    if name == "fig6a":
        scales = tuple(args.scales) if args.scales else fig6a.DEFAULT_SCALES
        print(fig6a.report(fig6a.run(scales=scales, seed=args.seed)))
    elif name == "fig6b":
        scale = args.scales[0] if args.scales else fig6b.DEFAULT_SCALE
        print(fig6b.report(fig6b.run(scale=scale, seed=args.seed)))
    elif name == "fig7":
        scales = tuple(args.scales) if args.scales else fig6a.DEFAULT_SCALES
        print(fig7.report(fig7.run(scales=scales, seed=args.seed)))
    elif name == "table1":
        print(table1.report(table1.run(seed=args.seed)))
    elif name == "table2":
        scale = args.scales[0] if args.scales else table2.DEFAULT_TPCH_SCALE
        print(
            table2.report(
                table2.run(tpch_scale=scale, n_runs=args.runs, seed=args.seed)
            )
        )
    elif name == "params":
        print(
            param_analysis.report(
                param_analysis.run(n_runs=args.runs, seed=args.seed)
            )
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ReproError(f"unknown experiment {name}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset == "tpch":
        from repro.datasets import generate_tpch

        db = generate_tpch(args.scale, seed=args.seed)
    else:
        from repro.datasets import generate_ego_network

        db = generate_ego_network(seed=args.seed)
    save_database(db, args.output)
    sizes = {name: db.relation(name).total_count() for name in db.relation_names}
    print(f"wrote {args.output}: {sizes}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import Baseline, LintRunner, load_rules
    from repro.analysis.reporters import render_json, render_rule_list, render_text

    rules = load_rules(only=args.rules)
    if args.list_rules:
        print(render_rule_list(rules))
        return 0
    runner = LintRunner(rules)
    paths = [Path(p) for p in (args.paths or ["src"])]
    baseline_path = Path(args.baseline) if args.baseline else None
    if args.update_baseline:
        if baseline_path is None:
            raise ReproError("--update-baseline requires --baseline PATH")
        findings = []
        for path in runner.iter_python_files(paths):
            findings.extend(runner.check_file(path))
        count = Baseline.write(baseline_path, findings)
        print(f"wrote {baseline_path} with {count} entr{'y' if count == 1 else 'ies'}")
        return 0
    baseline = Baseline.load(baseline_path) if baseline_path else None
    result = runner.run(paths, baseline=baseline)
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return 0 if result.clean else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import serve

    budgets = {}
    for spec in args.tenant or ():
        if "=" not in spec:
            raise ReproError(
                f"--tenant needs the form NAME=EPSILON, got {spec!r}"
            )
        name, epsilon = spec.split("=", 1)
        try:
            budgets[name.strip()] = float(epsilon)
        except ValueError:
            raise ReproError(
                f"--tenant budget must be a number, got {epsilon!r}"
            ) from None
    session = _session_from_args(args)
    server = serve(
        session,
        host=args.host,
        port=args.port,
        default_epsilon=args.default_epsilon,
        tenant_budgets=budgets,
        max_batch=args.max_batch,
    )
    server.start_background()
    print(
        f"serving {session.query.name} [{session.backend}] on "
        f"{server.host}:{server.port}",
        flush=True,
    )
    try:
        server.wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        session.close()
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    import json

    from repro.serve import ServeClient

    try:
        params = json.loads(args.params)
    except json.JSONDecodeError as error:
        raise ReproError(f"--params must be a JSON object: {error}") from None
    if not isinstance(params, dict):
        raise ReproError("--params must be a JSON object")
    if args.tenant is not None:
        params.setdefault("tenant", args.tenant)
    with ServeClient(args.host, args.port, timeout=args.timeout) as client:
        payload = client.call(args.op, **params)
    print(json.dumps(payload, indent=2))
    return 0


def _add_data_arguments(parser: argparse.ArgumentParser) -> None:
    """Options every prepare-based command shares."""
    parser.add_argument("--query", required=True, help='e.g. "R(A,B), S(B,C)"')
    parser.add_argument(
        "--data", required=True, help="CSV directory or JSON database file"
    )
    parser.add_argument(
        "--int-columns", action="store_true",
        help="parse every CSV column as int",
    )
    parser.add_argument(
        "--backend", default=DEFAULT_BACKEND, choices=BACKEND_NAMES,
        help="execution backend for the engine (default: %(default)s)",
    )
    parser.add_argument(
        "--where", action="append",
        help="selection clause 'RELATION: predicate', repeatable "
             "(e.g. --where \"R: A = 1 and B in {2, 3}\")",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Local sensitivities of counting queries with joins (TSens).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sens = subparsers.add_parser(
        "sensitivity", help="compute LS(Q, D) and the most sensitive tuple"
    )
    _add_data_arguments(sens)
    sens.add_argument(
        "--method",
        default="auto",
        choices=["auto", "path", "tsens", "naive", "reeval"],
    )
    sens.add_argument(
        "--reeval-mode",
        default="incremental",
        choices=["incremental", "full"],
        dest="reeval_mode",
        help="probe engine for --method reeval: cached-delta propagation "
             "(incremental) or one full re-evaluation per candidate (full)",
    )
    sens.add_argument("--top-k", type=int, default=None, dest="top_k")
    sens.add_argument(
        "--skip", nargs="*", help="relations with certified δ ≤ 1 to skip"
    )
    sens.set_defaults(handler=_cmd_sensitivity)

    count = subparsers.add_parser("count", help="compute |Q(D)|")
    _add_data_arguments(count)
    count.set_defaults(handler=_cmd_count)

    explain_cmd = subparsers.add_parser(
        "explain", help="profile a TSens run (intermediate sizes, factors)"
    )
    _add_data_arguments(explain_cmd)
    explain_cmd.add_argument("--skip", nargs="*")
    explain_cmd.set_defaults(handler=_cmd_explain)

    bench = subparsers.add_parser(
        "bench-session",
        help="maintained session vs rebuild-per-update on an update stream",
    )
    _add_data_arguments(bench)
    bench.add_argument(
        "--updates", type=int, default=200,
        help="stream length (default: %(default)s)",
    )
    bench.add_argument(
        "--insert-fraction", type=float, default=0.5, dest="insert_fraction",
        help="fraction of inserts in the stream (default: %(default)s)",
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(handler=_cmd_bench_session)

    experiment = subparsers.add_parser(
        "experiment", help="re-run a paper experiment"
    )
    experiment.add_argument(
        "name",
        choices=["fig6a", "fig6b", "fig7", "table1", "table2", "params"],
    )
    experiment.add_argument("--scales", nargs="*", type=float)
    experiment.add_argument("--runs", type=int, default=20)
    experiment.add_argument("--seed", type=int, default=0)
    experiment.set_defaults(handler=_cmd_experiment)

    generate = subparsers.add_parser(
        "generate", help="write a synthetic dataset to JSON"
    )
    generate.add_argument("dataset", choices=["tpch", "facebook"])
    generate.add_argument("--scale", type=float, default=0.001)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", required=True)
    generate.set_defaults(handler=_cmd_generate)

    lint = subparsers.add_parser(
        "lint", help="run the project's static-analysis rules"
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="report format (default: %(default)s)",
    )
    lint.add_argument(
        "--baseline", default=None,
        help="baseline JSON file; findings recorded there do not fail the run",
    )
    lint.add_argument(
        "--update-baseline", action="store_true", dest="update_baseline",
        help="rewrite --baseline from the current findings (stale entries age out)",
    )
    lint.add_argument(
        "--rules", nargs="*", default=None,
        help="restrict to these rule ids (e.g. --rules R001 R006)",
    )
    lint.add_argument(
        "--list-rules", action="store_true", dest="list_rules",
        help="print the rule catalog and exit",
    )
    lint.set_defaults(handler=_cmd_lint)

    serve_cmd = subparsers.add_parser(
        "serve",
        help="boot the snapshot-epoch session server over a prepared query",
    )
    _add_data_arguments(serve_cmd)
    serve_cmd.add_argument(
        "--host", default="127.0.0.1",
        help="listen address (default: %(default)s)",
    )
    serve_cmd.add_argument(
        "--port", type=int, default=0,
        help="listen port; 0 (default) binds an ephemeral port, echoed "
             "on stdout once ready",
    )
    serve_cmd.add_argument(
        "--default-epsilon", type=float, default=None, dest="default_epsilon",
        help="open-door tenant mode: auto-register unknown tenants with "
             "this total privacy budget (default: strict, pre-registered "
             "tenants only)",
    )
    serve_cmd.add_argument(
        "--tenant", action="append",
        help="pre-register a tenant budget as NAME=EPSILON, repeatable",
    )
    serve_cmd.add_argument(
        "--max-batch", type=int, default=4096, dest="max_batch",
        help="probe-coalescing cap per vectorized pass (default: %(default)s)",
    )
    serve_cmd.set_defaults(handler=_cmd_serve)

    client_cmd = subparsers.add_parser(
        "client", help="issue one request against a running repro serve"
    )
    client_cmd.add_argument(
        "op",
        choices=[
            "count", "probe", "sensitivity", "top_k", "explain",
            "release", "apply", "stats", "epoch", "shutdown",
        ],
    )
    client_cmd.add_argument("--host", default="127.0.0.1")
    client_cmd.add_argument("--port", type=int, required=True)
    client_cmd.add_argument(
        "--params", default="{}",
        help='JSON object of op parameters, e.g. '
             '\'{"relation": "R", "rows": [[1, 2]]}\'',
    )
    client_cmd.add_argument(
        "--tenant", default=None, help="tenant id (release requests)"
    )
    client_cmd.add_argument("--timeout", type=float, default=60.0)
    client_cmd.set_defaults(handler=_cmd_client)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
