"""Package-level sanity: public API surface and metadata."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.engine",
    "repro.evaluation",
    "repro.query",
    "repro.core",
    "repro.baselines",
    "repro.dp",
    "repro.datasets",
    "repro.workloads",
    "repro.experiments",
]


class TestPublicApi:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_exports_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.{symbol} missing"

    def test_version(self):
        import repro

        assert repro.__version__

    def test_top_level_quickstart_docstring_example(self):
        # The snippet in repro.__doc__ must keep working.
        from repro import Database, Relation, local_sensitivity, parse_query

        q = parse_query("Q(A,B,C) :- R(A,B), S(B,C)")
        db = Database(
            {
                "R": Relation(["A", "B"], [(1, 2)]),
                "S": Relation(["B", "C"], [(2, 3), (2, 4)]),
            }
        )
        assert local_sensitivity(q, db).local_sensitivity == 2

    def test_exception_hierarchy(self):
        from repro import exceptions

        for name in (
            "SchemaError",
            "QueryStructureError",
            "NotAcyclicError",
            "SelfJoinError",
            "DecompositionError",
            "ParseError",
            "PrivacyBudgetError",
            "MechanismConfigError",
            "UnknownRelationError",
            "UnknownAttributeError",
        ):
            cls = getattr(exceptions, name)
            assert issubclass(cls, exceptions.ReproError)


#: Entry points that once took execution-strategy knobs; the serial
#: engine is now the only path, so none of them may accept one.
SERIAL_ENTRY_POINTS = [
    ("repro.session", "prepare"),
    ("repro.session", "PreparedQuery"),
    ("repro.evaluation.incremental", "IncrementalEvaluator"),
    ("repro.evaluation.joinstate", "JoinState"),
    ("repro.evaluation.joinstate", "build_table"),
    ("repro.evaluation.yannakakis", "bind"),
    ("repro.evaluation.yannakakis", "compute_botjoins"),
    ("repro.evaluation.yannakakis", "compute_topjoins"),
    ("repro.query.conjunctive", "ConjunctiveQuery.bound_relation"),
]

STRATEGY_KNOBS = {"workers", "parallel", "shard_cache", "resident"}

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


class TestSerialExecutionOnly:
    @pytest.mark.parametrize("name", ["repro.engine.parallel", "repro.engine.sharding"])
    def test_parallel_modules_are_gone(self, name):
        assert importlib.util.find_spec(name) is None

    def test_no_module_imports_multiprocessing(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(n.split(".")[0] == "multiprocessing" for n in names):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
        assert offenders == []

    @pytest.mark.parametrize(
        "module_path, attribute",
        SERIAL_ENTRY_POINTS,
        ids=[f"{m}:{a}" for m, a in SERIAL_ENTRY_POINTS],
    )
    def test_entry_point_takes_no_strategy_knob(self, module_path, attribute):
        target = importlib.import_module(module_path)
        for part in attribute.split("."):
            target = getattr(target, part)
        parameters = set(inspect.signature(target).parameters)
        assert parameters & STRATEGY_KNOBS == set()
