"""Database instances: named relations plus key constraints.

A :class:`Database` is an immutable mapping from relation name to
:class:`~repro.engine.relation.Relation`, optionally annotated with primary
keys and foreign keys.  The key annotations are what PrivSQL's neighbour
semantics (Sec. 6.1 of the paper) needs: deleting a tuple from the primary
private relation cascades along foreign keys.

The module also provides the paper's domain notions from Section 3.1:
:meth:`Database.active_domain` (values of an attribute appearing in a given
relation) and :meth:`Database.representative_domain` (Definition 3.1 — the
intersection of the attribute's active domains over the *other* relations
that mention it).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.engine.operators import patch, semijoin
from repro.engine.relation import Relation, Row
from repro.exceptions import SchemaError, UnknownRelationError


@dataclass(frozen=True)
class ForeignKey:
    """A foreign key ``child.child_attrs → parent.parent_attrs``.

    Deleting a parent tuple cascades to every child tuple whose
    ``child_attrs`` values match the parent's ``parent_attrs`` values.
    """

    child: str
    child_attributes: Tuple[str, ...]
    parent: str
    parent_attributes: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.child_attributes) != len(self.parent_attributes):
            raise SchemaError(
                f"foreign key arity mismatch: {self.child_attributes} vs "
                f"{self.parent_attributes}"
            )


class Database:
    """An immutable collection of named relations with optional keys.

    Parameters
    ----------
    relations:
        Mapping from relation name to :class:`Relation`.
    primary_keys:
        Optional mapping from relation name to its key attributes.
    foreign_keys:
        Optional iterable of :class:`ForeignKey` constraints.  Referenced
        relation names must exist.
    backend:
        Optional execution-backend name (``"python"``/``"columnar"``); when
        given, every relation is converted to that backend on construction.
    """

    def __init__(
        self,
        relations: Mapping[str, Relation],
        primary_keys: Optional[Mapping[str, Sequence[str]]] = None,
        foreign_keys: Optional[Iterable[ForeignKey]] = None,
        backend: Optional[str] = None,
    ):
        self._relations: Dict[str, Relation] = dict(relations)
        if backend is not None:
            from repro.engine.backend import get_backend

            chosen = get_backend(backend)
            self._relations = {
                name: chosen.convert(rel) for name, rel in self._relations.items()
            }
        if not self._relations:
            raise SchemaError("a database needs at least one relation")
        self._primary_keys: Dict[str, Tuple[str, ...]] = {}
        for name, attrs in (primary_keys or {}).items():
            self._require(name)
            for attr in attrs:
                self._relations[name].schema.index_of(attr)
            self._primary_keys[name] = tuple(attrs)
        self._foreign_keys: List[ForeignKey] = []
        for fk in foreign_keys or ():
            self._require(fk.child)
            self._require(fk.parent)
            for attr in fk.child_attributes:
                self._relations[fk.child].schema.index_of(attr)
            for attr in fk.parent_attributes:
                self._relations[fk.parent].schema.index_of(attr)
            self._foreign_keys.append(fk)

    def _require(self, name: str) -> None:
        if name not in self._relations:
            raise UnknownRelationError(name)

    # ------------------------------------------------------------- accessors
    def relation(self, name: str) -> Relation:
        """The relation called ``name``."""
        self._require(name)
        return self._relations[name]

    def __getitem__(self, name: str) -> Relation:
        return self.relation(name)

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    @property
    def relation_names(self) -> Tuple[str, ...]:
        """Relation names in insertion order."""
        return tuple(self._relations)

    @property
    def relations(self) -> Mapping[str, Relation]:
        """Read-only name→relation view."""
        return dict(self._relations)

    @property
    def foreign_keys(self) -> Tuple[ForeignKey, ...]:
        return tuple(self._foreign_keys)

    def primary_key(self, name: str) -> Optional[Tuple[str, ...]]:
        """Primary key attributes of ``name`` or ``None`` if undeclared."""
        self._require(name)
        return self._primary_keys.get(name)

    def total_tuples(self) -> int:
        """Total bag cardinality over all relations — the paper's ``n``."""
        return sum(rel.total_count() for rel in self._relations.values())

    def attribute_names(self) -> Tuple[str, ...]:
        """Union of all attribute names — the paper's ``A_D``."""
        seen: Dict[str, None] = {}
        for rel in self._relations.values():
            for attr in rel.attributes:
                seen.setdefault(attr, None)
        return tuple(seen)

    @property
    def backend(self) -> str:
        """Name of the execution backend the relations live on.

        ``"mixed"`` when relations disagree (possible after manual
        ``with_relation`` calls across backends).
        """
        from repro.engine.backend import backend_of

        names = {backend_of(rel) for rel in self._relations.values()}
        return names.pop() if len(names) == 1 else "mixed"

    def with_backend(self, backend: str) -> "Database":
        """Copy of this database with every relation converted to
        ``backend``; key metadata is preserved.  Identity conversions are
        free (relations already on the backend are reused)."""
        from repro.engine.backend import get_backend

        chosen = get_backend(backend)
        return self._copy_with(
            {name: chosen.convert(rel) for name, rel in self._relations.items()}
        )

    # ----------------------------------------------------------- modification
    def with_relation(self, name: str, relation: Relation) -> "Database":
        """Copy of this database with relation ``name`` replaced."""
        self._require(name)
        updated = dict(self._relations)
        updated[name] = relation
        return self._copy_with(updated)

    def add_tuple(self, name: str, row: Sequence[object]) -> "Database":
        """``D ∪ {t}`` — copy with one more occurrence of ``row`` in ``name``."""
        return self.with_relation(name, self._patched(name, row, True))

    def remove_tuple(self, name: str, row: Sequence[object]) -> "Database":
        """``D \\ {t}`` — copy with one occurrence of ``row`` removed (a
        no-op when ``row`` is absent)."""
        return self.with_relation(name, self._patched(name, row, False))

    def _patched(self, name: str, row: Sequence[object], insert: bool) -> Relation:
        """Relation ``name`` with one occurrence of ``row`` patched in or out."""
        base = self.relation(name)
        one = type(base)(base.schema, [row])
        return patch(base, plus=one) if insert else patch(base, minus=one)

    def cascade_delete(self, name: str, row: Sequence[object]) -> "Database":
        """Delete ``row`` from ``name`` and cascade along foreign keys.

        This implements PrivSQL's neighbouring-database semantics for
        multi-relational schemas: removing a primary-private tuple removes
        every tuple (in any relation) that transitively references it.
        Each child relation loses, by monus, its semijoin with the deleted
        parent row's key.
        """
        row = tuple(row)
        updated = dict(self._relations)
        updated[name] = self._patched(name, row, False)
        # Worklist of (relation, keyed values) whose dependants must go.
        frontier: List[Tuple[str, Row]] = [(name, row)]
        while frontier:
            parent_name, parent_row = frontier.pop()
            parent_schema = self._relations[parent_name].schema
            for fk in self._foreign_keys:
                if fk.parent != parent_name:
                    continue
                parent_positions = parent_schema.project_positions(fk.parent_attributes)
                key = tuple(parent_row[p] for p in parent_positions)
                child_rel = updated[fk.child]
                doomed = semijoin(
                    child_rel, type(child_rel)(fk.child_attributes, [key])
                )
                if doomed.is_empty():
                    continue
                frontier.extend((fk.child, crow) for crow in doomed)
                updated[fk.child] = patch(child_rel, minus=doomed)
        return self._copy_with(updated)

    def _copy_with(self, relations: Dict[str, Relation]) -> "Database":
        db = Database.__new__(Database)
        db._relations = relations
        db._primary_keys = dict(self._primary_keys)
        db._foreign_keys = list(self._foreign_keys)
        return db

    # -------------------------------------------------------------- domains
    def active_domain(self, attribute: str, relation_name: str) -> frozenset:
        """``Σ^{A,i}_act`` — values of ``attribute`` appearing in the relation."""
        return self.relation(relation_name).column_values(attribute)

    def representative_domain(self, attribute: str, relation_name: str) -> frozenset:
        """Definition 3.1 — representative domain of ``attribute`` w.r.t.
        ``relation_name``.

        If the attribute appears in at least one *other* relation, this is
        the intersection of its active domains over those relations.  If it
        is exclusive to ``relation_name``, the paper picks one arbitrary
        active value; we return the smallest active value (or a synthetic
        placeholder when the relation is empty) for determinism.
        """
        self._require(relation_name)
        others = [
            rel
            for name, rel in self._relations.items()
            if name != relation_name and attribute in rel.schema
        ]
        if others:
            from repro.engine.columnar import ColumnarRelation, intersect_column_values

            if all(isinstance(rel, ColumnarRelation) for rel in others):
                fast = intersect_column_values(others, attribute)
                if fast is not None:
                    return fast
            domain = others[0].column_values(attribute)
            for rel in others[1:]:
                domain = domain & rel.column_values(attribute)
            return domain
        active = self.active_domain(attribute, relation_name)
        if active:
            return frozenset([min(active)])
        return frozenset([f"_any_{attribute}"])

    def representative_tuples(self, relation_name: str) -> Iterator[Row]:
        """``Σ^{A_i}_repr`` — cross product of per-attribute representative
        domains for ``relation_name`` (Definition 3.1).

        Used by the naive algorithm (Theorem 3.1); iterates lazily since the
        product can be large.
        """
        rel = self.relation(relation_name)
        domains = [
            sorted(self.representative_domain(attr, relation_name), key=repr)
            for attr in rel.attributes
        ]
        return iter(product(*domains))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}[{rel.total_count()}]" for name, rel in self._relations.items()
        )
        return f"Database({parts})"
