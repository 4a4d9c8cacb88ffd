"""The entry points the layered benchmark traces stay where it patches them.

``perfbench/spans.py`` records per-layer spans by swapping wrappers into
module namespaces (``repro.evaluation.joinstate.build_table``,
``repro.session.PathState``, ...).  That only works while each name is
still a module (or class) attribute *and* the program calls it through
that attribute rather than through a private alias.  A rename or a direct
import elsewhere would silently drop the layer from every traced run, so
each target is checked here: it resolves, and a wrapper installed the way
the tracer installs it is reached by an ordinary session lifecycle.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.session import prepare

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(path, attribute) for path, attribute, _name, _rows in module.TARGETS]


def _owner(module_path, attribute):
    owner = importlib.import_module(module_path)
    *classes, leaf = attribute.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, leaf


def _lifecycle(query, db):
    """Plan, read, probe, update and read again — every traced layer."""
    session = prepare(query, db, backend="columnar")
    answers = [session.count(), session.probe("R2", [("b1", "c1"), ("b9", "c9")])]
    for method in ("tsens", "path"):
        answers.append(session.sensitivity(method=method).local_sensitivity)
    answers.append(
        session.apply([("insert", "R1", ("a3", "b1")), ("delete", "R4", ("d2", "e4"))])
    )
    for method in ("tsens", "path"):
        answers.append(session.sensitivity(method=method).local_sensitivity)
    return answers


@pytest.mark.parametrize(
    "module_path, attribute",
    _targets(),
    ids=[f"{path}:{attribute}" for path, attribute in _targets()],
)
def test_traced_entry_point_is_called_through_its_module(
    module_path, attribute, monkeypatch, fig3_query, fig3_db
):
    untraced = _lifecycle(fig3_query, fig3_db)
    owner, leaf = _owner(module_path, attribute)
    original = getattr(owner, leaf)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(leaf)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, leaf, wrapper)
    traced = _lifecycle(fig3_query, fig3_db)
    assert calls, f"{module_path}.{attribute} is no longer called through its module"
    assert traced == untraced
