"""Conjunctive-query representation, decompositions, and classification."""

from repro.query.atoms import Atom
from repro.query.classify import (
    classify,
    is_doubly_acyclic,
    is_doubly_acyclic_tree,
    is_path_query,
    path_order,
)
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.ghd import auto_decompose, component_trees, ghd_from_groups
from repro.query.gyo import gyo_join_forest, gyo_join_tree, gyo_reduce, is_acyclic
from repro.query.hypergraph import Hypergraph
from repro.query.jointree import DecompositionTree, TreeNode, join_tree_from_parents
from repro.query.parser import parse_query
from repro.query.predicates import Predicate, parse_predicate

__all__ = [
    "Atom",
    "ConjunctiveQuery",
    "DecompositionTree",
    "Hypergraph",
    "TreeNode",
    "auto_decompose",
    "classify",
    "component_trees",
    "ghd_from_groups",
    "gyo_join_forest",
    "gyo_join_tree",
    "gyo_reduce",
    "is_acyclic",
    "is_doubly_acyclic",
    "is_doubly_acyclic_tree",
    "is_path_query",
    "join_tree_from_parents",
    "parse_predicate",
    "parse_query",
    "Predicate",
    "path_order",
]
