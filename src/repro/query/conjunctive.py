"""Full conjunctive queries without self-joins.

A :class:`ConjunctiveQuery` is the paper's

    ``Q(A_D) :- R1(A1), R2(A2), ..., Rm(Am)``

— a natural join of ``m`` distinct base relations under bag semantics, whose
*count* ``|Q(D)|`` is the quantity whose sensitivity we study.  Queries may
carry per-atom selection predicates (Sec. 5.4 "Selections"), which the
algorithms apply by filtering the base relations before running — a tuple
failing its selection has sensitivity 0.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.query.atoms import Atom
from repro.exceptions import SchemaError, SelfJoinError, UnknownRelationError

Predicate = Callable[[Mapping[str, object]], bool]


class ConjunctiveQuery:
    """A full CQ without self-joins, with optional per-atom selections.

    Parameters
    ----------
    atoms:
        The body atoms.  Relation names must be distinct (no self-joins).
    name:
        Optional display name (e.g. ``"q1"``) used in reports.
    selections:
        Optional mapping ``relation name -> predicate`` applied to that
        relation's tuples before the join.

    Examples
    --------
    >>> q = ConjunctiveQuery([Atom("R1", ("A", "B")), Atom("R2", ("B", "C"))])
    >>> sorted(q.variables)
    ['A', 'B', 'C']
    >>> q.is_connected()
    True
    """

    def __init__(
        self,
        atoms: Iterable[Atom],
        name: str = "Q",
        selections: Optional[Mapping[str, Predicate]] = None,
    ):
        self._atoms: Tuple[Atom, ...] = tuple(atoms)
        if not self._atoms:
            raise SchemaError("a conjunctive query needs at least one atom")
        names = [a.relation for a in self._atoms]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise SelfJoinError(
                f"self-joins are not supported; repeated relations: {dup}"
            )
        self.name = name
        self._selections: Dict[str, Predicate] = dict(selections or {})
        for rel_name in self._selections:
            if rel_name not in names:
                raise UnknownRelationError(rel_name)
        self._by_relation = {a.relation: a for a in self._atoms}

    # ------------------------------------------------------------- structure
    @property
    def atoms(self) -> Tuple[Atom, ...]:
        return self._atoms

    @property
    def relation_names(self) -> Tuple[str, ...]:
        """Relation names in body order."""
        return tuple(a.relation for a in self._atoms)

    @property
    def variables(self) -> Tuple[str, ...]:
        """All query variables in first-appearance order (the head ``A_D``)."""
        seen: Dict[str, None] = {}
        for atom in self._atoms:
            for var in atom.variables:
                seen.setdefault(var, None)
        return tuple(seen)

    @property
    def selections(self) -> Mapping[str, Predicate]:
        return dict(self._selections)

    def atom(self, relation: str) -> Atom:
        """The atom over ``relation``."""
        try:
            return self._by_relation[relation]
        except KeyError:
            raise UnknownRelationError(relation) from None

    def occurrences(self, variable: str) -> Tuple[str, ...]:
        """Relations whose atoms mention ``variable``, in body order."""
        return tuple(a.relation for a in self._atoms if variable in a.variable_set)

    def join_variables(self) -> Tuple[str, ...]:
        """Variables appearing in at least two atoms."""
        return tuple(v for v in self.variables if len(self.occurrences(v)) >= 2)

    def exclusive_variables(self, relation: str) -> Tuple[str, ...]:
        """Variables of ``relation`` appearing in no other atom (Sec. 5.4
        'Other': these are ignored during sensitivity computation and
        extrapolated back into the witness tuple)."""
        atom = self.atom(relation)
        return tuple(
            v for v in atom.variables if len(self.occurrences(v)) == 1
        )

    def is_connected(self) -> bool:
        """True iff the query hypergraph is connected."""
        return len(self.connected_components()) == 1

    def connected_components(self) -> List[Tuple[Atom, ...]]:
        """Partition the atoms into hypergraph-connected components.

        Two atoms are connected when they share a variable.  Disconnected
        queries are handled by running the algorithms per component and
        combining via cross-product counts (Sec. 5.4).
        """
        remaining = list(self._atoms)
        components: List[Tuple[Atom, ...]] = []
        while remaining:
            seed = remaining.pop(0)
            group = [seed]
            vars_seen = set(seed.variable_set)
            changed = True
            while changed:
                changed = False
                for atom in list(remaining):
                    if atom.variable_set & vars_seen:
                        group.append(atom)
                        vars_seen |= atom.variable_set
                        remaining.remove(atom)
                        changed = True
            components.append(tuple(group))
        return components

    def subquery(self, atoms: Sequence[Atom], name: Optional[str] = None) -> "ConjunctiveQuery":
        """A query over a subset of this query's atoms, keeping selections."""
        keep = {a.relation for a in atoms}
        selections = {r: p for r, p in self._selections.items() if r in keep}
        return ConjunctiveQuery(atoms, name=name or self.name, selections=selections)

    # ------------------------------------------------------------- data side
    def bound_relation(self, db: Database, relation: str) -> Relation:
        """The relation renamed to query variables, with selections applied.

        The database column names are mapped positionally onto the atom's
        variables, then the atom's selection predicate (if any) filters the
        bag.  All algorithms consume relations through this method so that
        selections are honoured uniformly.
        """
        atom = self.atom(relation)
        base = db.relation(relation)
        if base.schema.arity != atom.arity:
            raise SchemaError(
                f"atom {atom} has arity {atom.arity} but relation "
                f"{relation!r} has arity {base.schema.arity}"
            )
        renamed = base.rename(dict(zip(base.attributes, atom.variables)))
        predicate = self._selections.get(relation)
        if predicate is not None:
            renamed = renamed.filter(predicate)
        return renamed

    def validate_against(self, db: Database) -> None:
        """Check every atom matches a database relation in name and arity."""
        for atom in self._atoms:
            if atom.relation not in db:
                raise UnknownRelationError(atom.relation)
            if db.relation(atom.relation).schema.arity != atom.arity:
                raise SchemaError(
                    f"atom {atom} arity mismatch with relation "
                    f"{atom.relation!r} ({db.relation(atom.relation).schema.arity})"
                )

    def with_selection(self, relation: str, predicate: Predicate) -> "ConjunctiveQuery":
        """Copy of this query adding a selection predicate on ``relation``."""
        self.atom(relation)
        selections = dict(self._selections)
        selections[relation] = predicate
        return ConjunctiveQuery(self._atoms, name=self.name, selections=selections)

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self._atoms)
        head = ", ".join(self.variables)
        return f"{self.name}({head}) :- {body}"

    def __repr__(self) -> str:
        return f"ConjunctiveQuery<{self}>"
