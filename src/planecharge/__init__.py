"""Plane-graph workbench: reducible-configuration checking, exact list
coloring, and integer-twelfths discharging audits for planar graphs of
maximum degree 4 without 5-cycles.

``import planecharge`` loads no submodule: each exported name's module is
imported on the name's first access (PEP 562), so a run loads only the
modules it uses.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

# Each exported name and the module that defines it, in ``__all__`` order.
_OWNER = {
    "CATALOG_ORDER": "catalog",
    "CatalogEntryResult": "reducibility",
    "ChargeState": "discharging",
    "ChoosabilityVerdict": "choosability",
    "ClassReport": "plane_graph",
    "Configuration": "catalog",
    "DemandFunction": "choosability",
    "FaceAudit": "discharging",
    "FinalAudit": "discharging",
    "ListAssignment": "choosability",
    "MatchEmbedding": "matcher",
    "NamedGraph": "corpus",
    "PlaneGraph": "plane_graph",
    "ReductionReport": "reducibility",
    "SimpleGraph": "plane_graph",
    "apply_rules": "discharging",
    "build_from_rotation": "plane_graph",
    "catalog": "catalog",
    "chromatic_number": "choosability",
    "class_membership": "plane_graph",
    "clique_f_choosable": "choosability",
    "edge_level_audit": "discharging",
    "enumerate_class": "corpus",
    "f_values": "reducibility",
    "final_audit": "discharging",
    "find_any_reducible": "matcher",
    "find_configuration": "matcher",
    "get_configuration": "catalog",
    "has_cycle_of_length": "plane_graph",
    "induced_subgraph": "square",
    "initial_charges": "discharging",
    "is_f_choosable": "choosability",
    "is_k_choosable": "choosability",
    "l_coloring": "choosability",
    "load_graph_file": "plane_graph",
    "neighbors_within2": "square",
    "named_examples": "corpus",
    "random_class_member": "corpus",
    "reconcile_face": "discharging",
    "square": "square",
    "verify_catalog": "reducibility",
    "verify_reduction": "reducibility",
}

__all__ = list(_OWNER)


def __getattr__(name: str):
    """Import the module that defines ``name`` and keep the name here."""
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER})


class _Package(type(sys)):
    """The package module.  Loading a submodule binds it on its package, and
    ``catalog`` and ``square`` are each a submodule and the function of the
    same name that it defines; the function keeps the name."""

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, type(sys)) and _OWNER.get(name) == name:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
