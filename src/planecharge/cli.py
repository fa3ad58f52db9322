"""Batch command-line front end.

Every command reads graphs from JSON files ({"n": ..., "rot": [[...], ...]}),
prints one deterministic JSON report to stdout, and exits 0 for successful
queries (pass or info), 1 when a verification fails, and 2 on usage or
input errors.  Report bytes equal ``json.dumps(body, sort_keys=True,
indent=2)`` of the report body.  Each ``_cmd_*`` handler returns its
outcome and payload; ``run`` builds the report, whose inputs are the parsed
arguments, and reports every GraphError a handler raises as bad input.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

# What every command needs; each handler imports its own library module, so
# a run loads only the modules its command uses.
from .catalog import CATALOG_ORDER
from .errors import GraphError
from .plane_graph import (
    PlaneGraph,
    SimpleGraph,
    class_membership,
    dump_graph_file,
    load_graph_file,
    to_file_dict,
)

if TYPE_CHECKING:
    from .choosability import ListAssignment
    from .matcher import MatchEmbedding
    from .reducibility import CatalogEntryResult

REPORT_SCHEMA = "planecharge-report/1"


class CliInputError(Exception):
    """Bad input file or value; reported on stderr with exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a CliInputError, so it prints one line like
    every other bad input; subparsers are built with the same class."""

    def error(self, message: str):
        raise CliInputError(message)


class RunReport(NamedTuple):
    command: str
    inputs: dict
    outcome: str  # "pass" | "fail" | "info"
    payload: dict

    @property
    def exit_code(self) -> int:
        return 1 if self.outcome == "fail" else 0

    def to_json(self) -> str:
        """The report as JSON text, byte-identical to ``json.dumps(body,
        sort_keys=True, indent=2)``."""
        body = {
            "schema": REPORT_SCHEMA,
            "command": self.command,
            "inputs": self.inputs,
            "outcome": self.outcome,
            "exit_code": self.exit_code,
            "payload": self.payload,
        }
        return _dumps(body)


_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


def _dumps(value, newline: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for values whose dict
    keys are all str.  Any indent sends ``json.dumps`` to its pure-Python
    encoder; this builds each container with one join instead, and each of
    these with one call to the C encoder: a list of scalars, a dict of
    scalars (see ``_dumps_flat``) and a list of flat records (see
    ``_flat_records``).  ``newline`` is a line break plus the indent of the
    enclosing level."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return json.dumps(value)  # NaN and Infinity spelled as json spells them
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if c_make_encoder is not None:
            if set(map(type, value)) <= _SCALAR_TYPES:
                return _dumps_flat(value, newline)
            if _flat_records(value):
                return _dumps_records(value, newline)
        items = [_dumps(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if (
            c_make_encoder is not None
            and set(map(type, value)) == {str}
            and set(map(type, value.values())) <= _SCALAR_TYPES
        ):
            return _dumps_flat(value, newline)
        items = [
            encode_basestring_ascii(k) + ": " + _dumps(value[k], inner)
            for k in sorted(value)
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _encoder(item_separator: str):
    """The C encoder, sorting keys and writing ``item_separator`` between
    items and no line break inside brackets or braces."""
    return c_make_encoder(
        None, None, encode_basestring_ascii, None, ": ", item_separator, True, False, True
    )


def _dumps_flat(value, newline: str) -> str:
    """``_dumps`` at indent ``newline`` of a non-empty list or tuple of
    scalars, or of a non-empty dict with str keys and scalar values (exact
    types, as in ``_flat_records``).  One C encoder call writes each item
    separator as a comma plus the item line's indent; only the brackets'
    own line breaks are added.  An encoded string escapes every line
    break, so no value can hold a raw one."""
    inner = newline + "  "
    text = "".join(_encoder("," + inner)(value, 0))
    return text[0] + inner + text[1:-1] + newline + text[-1]


def _flat_records(records) -> bool:
    """Whether a non-empty list or tuple holds only non-empty dicts whose
    values are str, int, float, bool or None (exact types; subclasses take
    the recursive path).  Each pass runs in C: a report's ledgers hold tens
    of thousands of records."""
    return (
        set(map(type, records)) == {dict}
        and all(records)
        and set(map(type, chain.from_iterable(map(dict.values, records)))) <= _SCALAR_TYPES
    )


def _dumps_records(records, newline: str) -> str:
    """``_dumps`` of flat records (see ``_flat_records``) at indent
    ``newline``.  The C encoder writes every field separator as a comma
    plus the field line's indent but puts no line break inside braces;
    the braces are then set on lines of their own by one replace.  That
    replace is exact: an encoded string escapes every line break, so each
    raw line break in the text is a separator, and the one between two
    records is the only separator with a brace on both sides (keys are
    written quoted, scalar values end in no brace, and no record is
    empty)."""
    inner = newline + "  "
    fields = inner + "  "
    text = "".join(_encoder("," + fields)(records, 0))  # '[{' ... '},' + fields + '{' ... '}]'
    body = text[2:-2].replace("}," + fields + "{", inner + "}," + inner + "{" + fields)
    return "[" + inner + "{" + fields + body + inner + "}" + newline + "]"


def _load(path: str) -> PlaneGraph:
    try:
        return load_graph_file(path)
    except OSError as exc:
        raise CliInputError(f"cannot read graph file {path!r}: {exc.strerror}")
    except (ValueError, GraphError, RecursionError) as exc:
        raise CliInputError(f"bad graph file {path!r}: {exc}")


@contextlib.contextmanager
def _writing(path: str):
    """Report an OSError raised while writing ``path`` as bad input."""
    try:
        yield
    except OSError as exc:
        raise CliInputError(f"cannot write {path!r}: {exc.strerror}")


def _write_graphs(out: str, graphs: dict[str, PlaneGraph]) -> None:
    """Write each graph to a file of its name in the directory ``out``,
    which is created if missing."""
    with _writing(out):
        os.makedirs(out, exist_ok=True)
        for name, g in graphs.items():
            dump_graph_file(g, os.path.join(out, name))


def _simple_dict(graph: SimpleGraph) -> dict:
    return {"n": graph.vertex_count, "edges": [list(e) for e in graph.edges()]}


def _match_dict(emb: MatchEmbedding) -> dict:
    return {
        "config": emb.config_id,
        "roles": {name: v for name, v in emb.roles},
        "faces": list(emb.faces),
    }


def _charge_map(charges: dict) -> dict:
    return {str(k): c for k, c in sorted(charges.items())}


def _transfer_list(transfers, names: dict) -> list:
    """The ledger records of ``transfers``; ``names`` maps each element key
    already written in this report to its str(), and gains the new ones."""
    for key in {t.source for t in transfers} | {t.sink for t in transfers}:
        if key not in names:
            names[key] = str(key)
    return [
        {
            "rule": t.rule,
            "source": names[t.source],
            "sink": names[t.sink],
            "twelfths": t.amount,
        }
        for t in transfers
    ]


def _cmd_inspect(args) -> tuple[str, dict]:
    g = _load(args.graph)
    payload = {
        "vertices": g.vertex_count,
        "edges": g.edge_count,
        "faces": g.face_count,
        "degrees": list(map(len, g.rotation)),
        "face_lengths": sorted(g.face_lengths()),
        "class": class_membership(g)._asdict(),
    }
    return "info", payload


def _cmd_square(args) -> tuple[str, dict]:
    from .square import square

    return "info", {"square": _simple_dict(square(_load(args.graph)))}


def _parse_lists(text: str, n: int) -> ListAssignment:
    from .choosability import ListAssignment

    try:
        data = json.loads(text)
        if not isinstance(data, list) or len(data) != n:
            raise ValueError(f"need one list per vertex ({n})")
        for v, colors in enumerate(data):
            if not isinstance(colors, list):
                raise ValueError(f"the list of vertex {v} is not an array")
        return ListAssignment.from_lists(data)
    except (ValueError, TypeError, RecursionError) as exc:
        raise CliInputError(f"bad --lists value: {exc}")


def _cmd_color(args) -> tuple[str, dict]:
    from .choosability import l_coloring

    g = _load(args.graph)
    assignment = _parse_lists(args.lists, g.vertex_count)
    coloring = l_coloring(g, assignment)
    payload = {
        "colorable": coloring is not None,
        "coloring": None if coloring is None else [coloring[v] for v in range(g.vertex_count)],
    }
    return "info", payload


def _cmd_choosable(args) -> tuple[str, dict]:
    from .choosability import is_k_choosable

    verdict = is_k_choosable(_load(args.graph), args.k)
    payload = {
        "k": args.k,
        "choosable": verdict.choosable,
        "patterns_checked": verdict.patterns_checked,
        "bad_assignment": None
        if verdict.bad_assignment is None
        else [sorted(s) for s in verdict.bad_assignment.lists],
    }
    return "info", payload


def _entry_payload(result: CatalogEntryResult) -> dict:
    body: dict = {
        "id": result.config_id,
        "kind": result.kind,
        "passed": result.passed,
        "notes": list(result.notes),
    }
    if result.report is not None:
        rep = result.report
        body.update(
            {
                "condition1_ok": rep.condition1_ok,
                "condition2_ok": rep.condition2_ok,
                "smaller_ok": rep.smaller_ok,
                "choosable": rep.choosable,
                "f_matches_expected": rep.f_matches_expected,
                "f": {str(v): f for v, f in sorted(rep.computed_f.items())},
            }
        )
    return body


def _cmd_verify_lemma(args) -> tuple[str, dict]:
    from .reducibility import verify_entry

    result = verify_entry(args.id)
    return "pass" if result.passed else "fail", _entry_payload(result)


def _cmd_verify_catalog(args) -> tuple[str, dict]:
    from .reducibility import verify_catalog

    results = verify_catalog()
    payload = {
        "entries": [_entry_payload(r) for r in results],
        "passed": sum(1 for r in results if r.passed),
        "failed": sum(1 for r in results if not r.passed),
    }
    outcome = "pass" if all(r.passed for r in results) else "fail"
    if args.report:
        with _writing(args.report), open(args.report, "w", encoding="utf-8") as fh:
            fh.write(_report(args, outcome, payload).to_json())
            fh.write("\n")
    return outcome, payload


def _cmd_match(args) -> tuple[str, dict]:
    from .matcher import find_configuration, match_summary

    g = _load(args.graph)
    if args.config is not None:
        matches = find_configuration(g, args.config)
        payload = {
            "config": args.config,
            "matches": [_match_dict(m) for m in matches],
            "count": len(matches),
        }
    else:
        counts, first = match_summary(g)
        payload = {
            "first_reducible": None if first is None else _match_dict(first),
            "counts": counts,
        }
    return "info", payload


def _cmd_discharge(args) -> tuple[str, dict]:
    from .discharging import edge_level_audit, final_audit

    g = _load(args.graph)
    audit = final_audit(g)
    negatives = []
    for n in audit.negatives:
        if n.kind == "edge":  # str(n.ident), without the slower tuple repr
            i, (u, v) = n.ident
            ident = f"({i}, ({u}, {v}))"
        else:
            ident = str(n.ident)
        negatives.append({"kind": n.kind, "id": ident, "twelfths": n.charge})
    state = audit.state
    names: dict = {}  # element key -> str(key), shared by the report's ledgers
    payload: dict = {
        "vertex_charge_twelfths": _charge_map(state.vertex_charge),
        "face_charge_twelfths": _charge_map(state.face_charge),
        "total_twelfths": state.total(),
        "negatives": negatives,
        "reconciliation_ok": audit.reconciliation_ok,
    }
    if args.face is not None:
        face_audit = edge_level_audit(g, args.face)
        payload["face_audit"] = {
            "face": face_audit.face,
            "length": face_audit.length,
            "residual_twelfths": face_audit.residual,
            "edge_final_twelfths": {
                f"{u}-{v}": c for (u, v), c in sorted(face_audit.edge_final.items())
            },
            "sink_received_twelfths": _charge_map(face_audit.sink_received),
        }
        if args.ledger:
            payload["face_audit"]["transfers"] = _transfer_list(
                face_audit.transfers, names
            )
    if args.ledger:
        payload["transfers"] = _transfer_list(state.log, names)
    return "info" if audit.reconciliation_ok else "fail", payload


def _cmd_enumerate(args) -> tuple[str, dict]:
    from .corpus import enumerate_class

    members = {
        f"class_v{g.vertex_count}_{i:04d}.graph": g
        for i, g in enumerate(enumerate_class(args.n))
    }
    _write_graphs(args.out, members)
    return "info", {"count": len(members), "files": list(members)}


def _cmd_gen(args) -> tuple[str, dict]:
    from .corpus import random_class_member

    g = random_class_member(args.seed, args.n)
    return "info", {"graph": to_file_dict(g), "in_class": class_membership(g).in_class}


def _cmd_examples(args) -> tuple[str, dict]:
    from .corpus import named_examples

    examples = named_examples()
    payload = {
        ng.name: {"graph": to_file_dict(ng.graph), "provenance": ng.provenance}
        for ng in examples
    }
    if args.out:
        _write_graphs(args.out, {f"{ng.name}.graph": ng.graph for ng in examples})
    return "info", payload


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every run."""
    parser = _Parser(
        prog="planecharge",
        description="plane-graph configuration checking, choosability, and"
        " exact discharging audits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="basic structure and class membership")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("square", help="distance-at-most-2 square of the graph")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_square)

    p = sub.add_parser("color", help="color from explicit per-vertex lists")
    p.add_argument("graph")
    p.add_argument("--lists", required=True, help='JSON like "[[1,2],[1,3]]"')
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("choosable", help="exact k-choosability with witness")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(func=_cmd_choosable)

    p = sub.add_parser("verify-lemma", help="verify one catalog entry")
    p.add_argument("id", choices=CATALOG_ORDER)
    p.set_defaults(func=_cmd_verify_lemma)

    p = sub.add_parser("verify-catalog", help=f"verify all {len(CATALOG_ORDER)} catalog entries")
    p.add_argument("--report", default=None, help="also write the report here")
    p.set_defaults(func=_cmd_verify_catalog)

    p = sub.add_parser("match", help="find configurations in a graph")
    p.add_argument("graph")
    p.add_argument("--config", default=None, choices=list(CATALOG_ORDER))
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("discharge", help="charge rules and per-face audits")
    p.add_argument("graph")
    p.add_argument("--face", type=int, default=None)
    p.add_argument("--ledger", action="store_true")
    p.set_defaults(func=_cmd_discharge)

    p = sub.add_parser("enumerate", help="write all class members up to n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("gen", help="seeded random lattice class member")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("examples", help="the named example graphs")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_examples)

    return parser


def _report(args: argparse.Namespace, outcome: str, payload: dict) -> RunReport:
    """The report of the parsed command ``args``: its inputs are the parsed
    arguments, defaults included."""
    inputs = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    return RunReport(args.command, inputs, outcome, payload)


def run(argv: Sequence[str]) -> RunReport:
    """Parse and execute one command; raises CliInputError on bad input,
    which includes every GraphError the command raises."""
    args = _build_parser().parse_args(argv)
    try:
        outcome, payload = args.func(args)
    except GraphError as exc:
        raise CliInputError(str(exc))
    return _report(args, outcome, payload)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        report = run(sys.argv[1:] if argv is None else argv)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(report.to_json(), flush=True)
    except BrokenPipeError:
        # The reader stopped early (as `| head` does).  Point stdout at
        # devnull so the interpreter's last flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
