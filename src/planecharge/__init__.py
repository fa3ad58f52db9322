"""Plane-graph workbench: reducible-configuration checking, exact list
coloring, and integer-twelfths discharging audits for planar graphs of
maximum degree 4 without 5-cycles."""

from .catalog import CATALOG_ORDER, Configuration, catalog, get_configuration
from .choosability import (
    ChoosabilityVerdict,
    DemandFunction,
    ListAssignment,
    chromatic_number,
    clique_f_choosable,
    is_f_choosable,
    is_k_choosable,
    l_coloring,
)
from .corpus import (
    NamedGraph,
    enumerate_class,
    named_examples,
    random_class_member,
)
from .discharging import (
    ChargeState,
    FaceAudit,
    FinalAudit,
    apply_rules,
    edge_level_audit,
    final_audit,
    initial_charges,
    reconcile_face,
)
from .matcher import MatchEmbedding, find_any_reducible, find_configuration
from .plane_graph import (
    ClassReport,
    PlaneGraph,
    build_from_rotation,
    class_membership,
    has_cycle_of_length,
    load_graph_file,
)
from .reducibility import (
    CatalogEntryResult,
    ReductionReport,
    f_values,
    verify_catalog,
    verify_reduction,
)
from .square import SimpleGraph, induced_subgraph, neighbors_within2, square

__version__ = "0.1.0"

__all__ = [
    "CATALOG_ORDER",
    "CatalogEntryResult",
    "ChargeState",
    "ChoosabilityVerdict",
    "ClassReport",
    "Configuration",
    "DemandFunction",
    "FaceAudit",
    "FinalAudit",
    "ListAssignment",
    "MatchEmbedding",
    "NamedGraph",
    "PlaneGraph",
    "ReductionReport",
    "SimpleGraph",
    "apply_rules",
    "build_from_rotation",
    "catalog",
    "chromatic_number",
    "class_membership",
    "clique_f_choosable",
    "edge_level_audit",
    "enumerate_class",
    "f_values",
    "final_audit",
    "find_any_reducible",
    "find_configuration",
    "get_configuration",
    "has_cycle_of_length",
    "induced_subgraph",
    "initial_charges",
    "is_f_choosable",
    "is_k_choosable",
    "l_coloring",
    "load_graph_file",
    "neighbors_within2",
    "named_examples",
    "random_class_member",
    "reconcile_face",
    "square",
    "verify_catalog",
    "verify_reduction",
]
