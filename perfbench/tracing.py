"""Spans around the public planecharge functions, recorded from outside.

``Tracer.install`` replaces each traced function in every ``planecharge``
module namespace that binds it (``is_f_choosable`` is bound in both
``choosability`` and ``reducibility``, ``build_from_rotation`` in both
``plane_graph`` and ``corpus``), so calls made inside the package are
recorded as well as the benchmark's own.  A span holds its name, start,
end, parent span and item id; spans stay in memory in flat arrays until
``write`` saves them.  Counts are taken from return values at the same
boundaries.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

# Layer of each traced module; catalog construction belongs to reducibility.
LAYERS = {
    "choosability": "choosability",
    "reducibility": "reducibility",
    "catalog": "reducibility",
    "square": "square",
    "corpus": "corpus",
    "plane_graph": "plane_graph",
    "matcher": "matcher",
    "discharging": "discharging",
    "cli": "cli",
}


def _patterns(t, r):
    t.counts["choosability.patterns_checked"] += r.patterns_checked


def _coloring(t, r):
    t.counts["choosability.l_coloring.failed"] += r is None


def _canonical(t, r):
    t.canonical_keys.add(r)


def _embeddings(t, r):
    t.counts["corpus.planar_embeddings.found"] += len(r)
    t.counts["corpus.planar_embeddings.hits"] += bool(r)


def _matches(t, r):
    t.counts["matcher.matches"] += len(r)


def _transfers(t, r):
    t.counts["discharging.transfers"] += len(r)


def _negatives(t, r):
    t.counts["discharging.negatives"] += len(r.negatives)


def _report_bytes(t, r):
    t.counts["cli.report_bytes"] += len(r.encode("utf-8"))


# (module, attribute path, span name, result hook)
TARGETS = (
    ("choosability", "is_f_choosable", "choosability.is_f_choosable", _patterns),
    ("choosability", "l_coloring", "choosability.l_coloring", _coloring),
    ("reducibility", "verify_catalog", "reducibility.verify_catalog", None),
    ("reducibility", "verify_reduction", "reducibility.verify_reduction", None),
    ("catalog", "catalog", "catalog.catalog", None),
    ("square", "square", "square.square", None),
    ("corpus", "canonical_form", "corpus.canonical_form", _canonical),
    ("corpus", "planar_embeddings", "corpus.planar_embeddings", _embeddings),
    ("plane_graph", "build_from_rotation", "plane_graph.build_from_rotation", None),
    ("plane_graph", "load_graph_file", "plane_graph.load_graph_file", None),
    ("plane_graph", "class_membership", "plane_graph.class_membership", None),
    (
        "plane_graph",
        "adjacency_has_cycle_of_length",
        "plane_graph.adjacency_has_cycle_of_length",
        None,
    ),
    ("matcher", "find_configuration", "matcher.find_configuration", _matches),
    ("matcher", "find_any_reducible", "matcher.find_any_reducible", None),
    ("discharging", "final_audit", "discharging.final_audit", _negatives),
    ("discharging", "edge_level_audit", "discharging.edge_level_audit", None),
    ("discharging", "rule_transfers", "discharging.rule_transfers", _transfers),
    ("discharging", "reconcile_face", "discharging.reconcile_face", None),
    ("cli", "run", "cli.run", None),
    ("cli", "RunReport.to_json", "cli.to_json", _report_bytes),
)


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.item_id = -1
        self.active = True
        self.counts: Counter = Counter()
        self.canonical_keys: set = set()
        self._stack = [-1]

    def _wrap(self, name, fn, hook):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.item.append(self.item_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Wrap every target; call once, after importing planecharge.cli."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "planecharge" or key.startswith("planecharge."))
        ]
        for module_name, path, name, hook in TARGETS:
            owner = sys.modules["planecharge." + module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, hook)
            if outer:
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def metrics(self) -> dict[str, float]:
        n = len(self.start)
        durations = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        calls = Counter()
        busy = Counter()
        self_time = Counter({layer: 0.0 for layer in LAYERS.values()})
        scanned = 0
        any_id = self.names.index("matcher.find_any_reducible")
        config_id = self.names.index("matcher.find_configuration")
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += durations[i]
                if self.name_id[i] == config_id and self.name_id[p] == any_id:
                    scanned += 1
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            busy[name] += durations[i]
            self_time[LAYERS[name.split(".", 1)[0]]] += durations[i] - child[i]

        out: dict[str, float] = {}
        for layer, seconds in self_time.items():
            out[f"{layer}.self_s"] = seconds
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = float(busy[name])
        c = self.counts
        out["choosability.patterns_checked"] = c["choosability.patterns_checked"]
        out["choosability.l_coloring.fail_frac"] = _ratio(
            c["choosability.l_coloring.failed"], calls["choosability.l_coloring"]
        )
        out["corpus.canonical_form.unique_frac"] = _ratio(
            len(self.canonical_keys), calls["corpus.canonical_form"]
        )
        out["corpus.planar_embeddings.found"] = c["corpus.planar_embeddings.found"]
        out["corpus.planar_embeddings.hit_frac"] = _ratio(
            c["corpus.planar_embeddings.hits"], calls["corpus.planar_embeddings"]
        )
        out["matcher.matches"] = c["matcher.matches"]
        out["matcher.scan_depth"] = _ratio(scanned, calls["matcher.find_any_reducible"])
        out["discharging.transfers"] = c["discharging.transfers"]
        out["discharging.negatives"] = c["discharging.negatives"]
        out["cli.report_bytes"] = c["cli.report_bytes"]
        return out

    def write(self, stem: str) -> None:
        """Save the spans as ``stem.json`` (layout) plus ``stem.bin`` (arrays)."""
        fields = ("name_id", "parent", "item", "start", "end")
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "count": len(self.start),
                    "arrays": [[f, getattr(self, f).typecode] for f in fields],
                    "byteorder": sys.byteorder,
                },
                fh,
            )
        with open(stem + ".bin", "wb") as fh:
            for f in fields:
                getattr(self, f).tofile(fh)
