import argparse
import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planecharge import cli as cli_module
from planecharge import reducibility
from planecharge.catalog import CATALOG_ORDER
from planecharge.choosability import MAX_CHOOSABILITY_VERTICES
from planecharge.cli import (
    REPORT_SCHEMA,
    CliInputError,
    _build_parser,
    _dumps,
    main,
    run,
)
from planecharge.corpus import enumerate_class, named_examples, random_class_member
from planecharge.discharging import BIG_FACE, final_audit
from planecharge.plane_graph import dump_graph_file, load_graph_file, to_file_dict


@pytest.fixture(scope="module")
def graph_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("graphs")
    for ng in named_examples():
        dump_graph_file(ng.graph, str(d / f"{ng.name}.graph"))
    return d


def test_inspect(graph_dir):
    report = run(["inspect", str(graph_dir / "q3.graph")])
    assert report.outcome == "info"
    assert report.exit_code == 0
    assert report.payload["class"]["in_class"] is True
    assert report.payload["faces"] == 6


def test_inspect_missing_file(capsys):
    assert main(["inspect", "missing.graph"]) == 2
    assert "missing.graph" in capsys.readouterr().err


def assert_one_error_line(capsys, argv):
    """main exits 2 with empty stdout and one stderr line starting error:."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    return lines[0]


def test_bad_flag_exits_2(graph_dir, capsys):
    line = assert_one_error_line(
        capsys, ["inspect", str(graph_dir / "q3.graph"), "--bogus"]
    )
    assert "--bogus" in line


def test_unknown_command_exits_2(capsys):
    assert "frobnicate" in assert_one_error_line(capsys, ["frobnicate"])


@pytest.mark.parametrize(
    "argv",
    [
        ["match", "{k2}", "--config", "bogus"],
        ["color", "{k2}"],
        ["choosable", "{k2}", "-k", "x"],
        ["verify-lemma", "bogus"],
        [],
    ],
    ids=["bad-choice", "missing-option", "bad-int", "bad-id", "no-command"],
)
def test_usage_errors_print_one_line(tmp_path, capsys, argv):
    k2 = tmp_path / "k2.graph"
    k2.write_text('{"n": 2, "rot": [[1], [0]]}')
    assert_one_error_line(capsys, [a.format(k2=k2) for a in argv])


def test_square_command(graph_dir):
    report = run(["square", str(graph_dir / "sharpness9.graph")])
    assert report.payload["square"]["n"] == 9
    assert len(report.payload["square"]["edges"]) == 36  # complete on 9


def test_color_command(graph_dir):
    path = str(graph_dir / "c6.graph")
    good = run(["color", path, "--lists", "[[0,1],[0,1],[0,1],[0,1],[0,1],[0,1]]"])
    assert good.payload["colorable"] is True
    with pytest.raises(CliInputError):
        run(["color", path, "--lists", "[[0,1],[0,1]]"])


@pytest.mark.parametrize(
    "lists",
    [
        '["ab","cd","ab","cd","ab",{"x":1}]',
        '[[0,1],[0,1],[0,1],[0,1],[0,1],"01"]',
        '[[0,1],[0,1],[0,1],[0,1],[0,1],{"0":1,"1":1}]',
    ],
)
def test_color_rejects_lists_that_are_not_arrays(graph_dir, capsys, lists):
    assert main(["color", str(graph_dir / "c6.graph"), "--lists", lists]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: bad --lists value: ")


def test_color_accepts_colors_of_any_json_kind(graph_dir):
    lists = '[["a","b"],[true,1.5],[null,"b"],[1,2],[1,2],[1,2]]'
    text = run(["color", str(graph_dir / "c6.graph"), "--lists", lists]).to_json()
    coloring = '"a",\n      true,\n      null,\n      1,\n      2,\n      1\n'
    assert '"coloring": [\n      ' + coloring + "    ]" in text


def test_choosable_negative_answer_still_exits_0(graph_dir):
    report = run(["choosable", str(graph_dir / "k24.graph"), "-k", "2"])
    assert report.outcome == "info"
    assert report.exit_code == 0
    assert report.payload["choosable"] is False
    assert report.payload["bad_assignment"] is not None


def test_verify_lemma(graph_dir):
    report = run(["verify-lemma", "no23v"])
    assert report.outcome == "pass"
    assert report.payload["f"] in ({"0": 6, "1": 3}, {"1": 6, "0": 3}) or set(
        report.payload["f"].values()
    ) == {6, 3}
    with pytest.raises(CliInputError):
        run(["verify-lemma", "nope"])


def test_verify_lemma_equals_catalog_entry():
    catalog_report = run(["verify-catalog"])
    entries = catalog_report.payload["entries"]
    assert [e["id"] for e in entries] == list(CATALOG_ORDER)
    for entry in entries:
        report = run(["verify-lemma", entry["id"]])
        assert report.payload == entry
        assert report.outcome == ("pass" if entry["passed"] else "fail")


def test_verify_lemma_verifies_only_what_it_reports(monkeypatch):
    """A reducible entry verifies itself alone; no333f verifies only the two
    reducible entries its cases cite."""
    calls = []
    real = reducibility.verify_reduction

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(reducibility, "verify_reduction", counted)
    for config_id, expected in (("no1v", 1), ("no333f", 2), ("no34f", 1), ("conn", 0)):
        calls.clear()
        assert run(["verify-lemma", config_id]).outcome == "pass"
        assert len(calls) == expected, config_id
    calls.clear()
    run(["verify-catalog"])
    assert len(calls) == 16


def test_verify_catalog(tmp_path):
    out = tmp_path / "report.json"
    report = run(["verify-catalog", "--report", str(out)])
    assert report.outcome == "pass"
    assert report.exit_code == 0
    assert report.payload["passed"] == 19
    assert report.payload["failed"] == 0
    assert out.read_text() == report.to_json() + "\n"


def test_match_command(graph_dir):
    report = run(["match", str(graph_dir / "q3.graph"), "--config", "no33v"])
    assert report.payload["count"] == 12
    full = run(["match", str(graph_dir / "q3.graph")])
    assert full.payload["first_reducible"]["config"] == "no33v"
    assert full.payload["counts"]["no33v"] == 12


def test_discharge_command(graph_dir):
    report = run(["discharge", str(graph_dir / "c6.graph"), "--face", "0", "--ledger"])
    assert report.outcome == "info"
    assert report.payload["total_twelfths"] == -96
    assert report.payload["reconciliation_ok"] is True
    assert report.payload["face_audit"]["residual_twelfths"] == 0
    assert all(v == -8 for v in report.payload["face_audit"]["edge_final_twelfths"].values())
    assert report.payload["transfers"]
    with pytest.raises(CliInputError):
        run(["discharge", str(graph_dir / "q3.graph"), "--face", "0"])


def test_discharge_face_outside_range_exits_2(graph_dir, capsys):
    path = str(graph_dir / "c6.graph")
    for face in (-1, load_graph_file(path).face_count):
        assert main(["discharge", path, "--face", str(face)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no face with index {face}\n"


@pytest.mark.parametrize(
    "graph",
    [
        {"n": 3, "rot": [[True, 2], [0, 2], [1, 0]]},
        {"n": 2, "rot": [[1], [False]]},
        {"n": True, "rot": [[]]},
    ],
)
def test_bool_vertex_ids_exit_2(tmp_path, capsys, graph):
    path = tmp_path / "bool.graph"
    path.write_text(json.dumps(graph))
    assert main(["square", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: bad graph file ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("graph", [{"n": 0, "rot": []}, {"n": 1, "rot": [[]]}])
def test_discharge_edgeless_graph_exits_2(tmp_path, capsys, graph):
    path = tmp_path / "edgeless.graph"
    path.write_text(json.dumps(graph))
    assert main(["discharge", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: charge accounting needs at least one edge\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-catalog", "--report", "{missing}/report.json"],
        ["enumerate", "--n", "3", "--out", "{file}"],
        ["examples", "--out", "{file}"],
    ],
)
def test_unwritable_output_path_exits_2(tmp_path, capsys, argv):
    file = tmp_path / "taken"
    file.write_text("")
    paths = {"missing": str(tmp_path / "missing"), "file": str(file)}
    argv = [a.format(**paths) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: cannot write {argv[-1]!r}: ")


_C6_LISTS = "[[0,1],[0,1],[0,1],[0,1],[0,1],[0,1]]"

# One argv per command and the exact inputs its report must carry: the
# parsed arguments, defaults included.
_ENVELOPES = [
    (["inspect", "c6.graph"], {"graph": "c6.graph"}),
    (["square", "c6.graph"], {"graph": "c6.graph"}),
    (["color", "c6.graph", "--lists", _C6_LISTS], {"graph": "c6.graph", "lists": _C6_LISTS}),
    (["choosable", "c6.graph", "-k", "2"], {"graph": "c6.graph", "k": 2}),
    (["verify-lemma", "no333f"], {"id": "no333f"}),
    (["verify-catalog"], {"report": None}),
    (["match", "c6.graph"], {"graph": "c6.graph", "config": None}),
    (["discharge", "c6.graph"], {"graph": "c6.graph", "face": None, "ledger": False}),
    (["enumerate", "--n", "3", "--out", "members"], {"n": 3, "out": "members"}),
    (["gen", "--seed", "7", "--n", "12"], {"seed": 7, "n": 12}),
    (["examples"], {"out": None}),
]


def test_envelope_table_covers_every_command():
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert [argv[0] for argv, _ in _ENVELOPES] == list(sub.choices)


@pytest.mark.parametrize("argv, inputs", _ENVELOPES, ids=[a[0] for a, _ in _ENVELOPES])
def test_report_inputs_are_the_parsed_arguments(graph_dir, tmp_path, monkeypatch, argv, inputs):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c6.graph").write_text((graph_dir / "c6.graph").read_text())
    report = run(argv)
    assert report.command == argv[0]
    assert report.inputs == inputs


@pytest.mark.parametrize(
    "argv, named",
    [
        (["enumerate", "--n", "1", "--out", "{out}"], "size 1 "),
        (["enumerate", "--n", "9", "--out", "{out}"], "size 9 "),
        (["gen", "--seed", "1", "--n", "1"], "n=1 "),
        (["choosable", "{c6}", "-k", "13"], "k=13 "),
    ],
)
def test_range_errors_exit_2(graph_dir, tmp_path, capsys, argv, named):
    out = tmp_path / "out"
    paths = {"out": str(out), "c6": str(graph_dir / "c6.graph")}
    line = assert_one_error_line(capsys, [a.format(**paths) for a in argv])
    assert named in line
    assert not out.exists()


def test_parser_is_reused_without_leaking_state(graph_dir):
    path = str(graph_dir / "c6.graph")
    first = run(["discharge", path, "--face", "0", "--ledger"])
    assert first.inputs == {"graph": path, "face": 0, "ledger": True}
    second = run(["discharge", path])
    assert second.inputs == {"graph": path, "face": None, "ledger": False}
    assert "face_audit" not in second.payload
    assert "transfers" not in second.payload
    with pytest.raises(CliInputError):
        run(["discharge", path, "--face", "x"])
    assert run(["inspect", path]).payload["vertices"] == 6
    assert _build_parser() is _build_parser()


def test_enumerate_command(tmp_path):
    out = tmp_path / "members"
    report = run(["enumerate", "--n", "4", "--out", str(out)])
    assert report.payload["count"] == 9
    files = sorted(os.listdir(out))
    assert len(files) == 9
    g = load_graph_file(str(out / files[0]))
    assert g.vertex_count >= 2


def test_gen_command():
    report = run(["gen", "--seed", "7", "--n", "12"])
    assert report.payload["in_class"] is True
    assert report.payload["graph"]["n"] == 12
    again = run(["gen", "--seed", "7", "--n", "12"])
    assert again.payload == report.payload


def test_examples_report_digest():
    """The named examples are stated as rotation literals; their report must
    keep every byte."""
    text = run(["examples"]).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ff0b0ecc0c43f14be19063266ee43add8edb833bef3deccef17d81e2a1a4add0"
    )


# The SHA-256 of each named example's inspect report, read from "<name>.graph".
INSPECT_DIGESTS = {
    "sharpness9": "c65ece45b8f843497cb51186c46e62566718edcf6daac1e275cb40939da9e8d5",
    "k24": "2de674095d083326f23d6476e7aec9419a56a9af78362b8ca908868a7ff95426",
    "c6": "b33c2a450dff5c6d3cabab17d078d3c236037fe9b097b649fb886cf22ff9d2e1",
    "q3": "5b350adca5d27df9b6d1d2a6558ba27be73aa236f29eed61d5ae2f4f0cb34ee5",
    "grid3x3": "192105eaa495080e1148816c8ad42c373f6b34747184599c31c031217d9fc9e2",
    "hexprism": "75ce126b88a6fb5079f574189f2346f4931fa1f9016e44528d07ed1aedcbe913",
}


def test_inspect_reports_digest(tmp_path, monkeypatch, class_members_7):
    """Each named example's inspect report, and those of every class member
    up to 7 vertices in enumeration order, keep every byte, the class
    flags included."""
    monkeypatch.chdir(tmp_path)  # relative paths keep the reports free of temp dirs
    digests = {}
    for ng in named_examples():
        dump_graph_file(ng.graph, f"{ng.name}.graph")
        text = run(["inspect", f"{ng.name}.graph"]).to_json()
        digests[ng.name] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == INSPECT_DIGESTS
    texts = []
    for k, g in enumerate(class_members_7):
        name = f"m{k:03d}.graph"
        dump_graph_file(g, name)
        texts.append(run(["inspect", name]).to_json())
    assert len(texts) == 151
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
        "27699a2376c4e71cd3a596b4c333adfcb828eb5b69f9addb38e541635f6b5c47"
    )


def test_verify_reports_digest():
    """The verify-catalog report and every entry's verify-lemma report, in
    catalog order, keep every byte."""
    texts = [run(["verify-catalog"]).to_json()]
    texts += [run(["verify-lemma", c]).to_json() for c in CATALOG_ORDER]
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
        "44ad583101dc9bc7b2e254277274ac5c551aa601f92568873c28e1c2f2948f70"
    )


def test_negative_ids_read_as_str_of_ident(tmp_path):
    """The discharge report writes each negative element's id as str() of
    its ident: a vertex id, a face index or (face, (u, v))."""
    hosts = [ng.graph for ng in named_examples()]
    hosts += [random_class_member(seed, 20 + 3 * seed) for seed in range(50)]
    kinds = set()
    for k, g in enumerate(hosts):
        path = str(tmp_path / f"h{k}.graph")
        dump_graph_file(g, path)
        written = [rec["id"] for rec in run(["discharge", path]).payload["negatives"]]
        negatives = final_audit(g).negatives
        assert written == [str(n.ident) for n in negatives]
        kinds.update(n.kind for n in negatives)
    assert kinds == {"vertex", "face", "edge"}


def test_discharge_reports_digest(tmp_path, monkeypatch, class_members_7):
    """Every size-7 class member's ledger report, and the face ledger of each
    of its 6+-faces, keep every byte.  Together these fire all nine rules,
    including R3, R4, SubR1 and SubR2, which no triangle-free lattice does."""
    monkeypatch.chdir(tmp_path)  # relative paths keep the reports free of temp dirs
    texts = []
    rules = set()
    for k, g in enumerate(class_members_7):
        name = f"m{k:03d}.graph"
        dump_graph_file(g, name)
        reports = [run(["discharge", name, "--ledger"])]
        reports += [
            run(["discharge", name, "--face", str(i), "--ledger"])
            for i in range(g.face_count)
            if g.face_length(i) >= BIG_FACE
        ]
        for r in reports:
            texts.append(r.to_json())
            rules.update(t["rule"] for t in r.payload["transfers"])
            rules.update(t["rule"] for t in r.payload.get("face_audit", {}).get("transfers", ()))
    assert len(class_members_7) == 151
    assert len(texts) == 308
    assert rules == {"R1", "R2", "R3", "R4", "SubR1", "SubR2", "SubR3", "SubR4", "SubR5"}
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
        "271865e7a6e9020c680b221fab70a296c3ca0c56b359ae1a3f0058c36dcefb43"
    )


def test_reports_byte_identical(graph_dir):
    a = run(["match", str(graph_dir / "grid3x3.graph")]).to_json()
    b = run(["match", str(graph_dir / "grid3x3.graph")]).to_json()
    assert a == b
    c = run(["verify-catalog"]).to_json()
    d = run(["verify-catalog"]).to_json()
    assert c == d


def _stdlib_json(report):
    body = {
        "schema": REPORT_SCHEMA,
        "command": report.command,
        "inputs": report.inputs,
        "outcome": report.outcome,
        "exit_code": report.exit_code,
        "payload": report.payload,
    }
    return json.dumps(body, sort_keys=True, indent=2)


def test_every_command_report_equals_json_dumps(graph_dir, tmp_path):
    argvs = [
        ["verify-catalog"],
        ["verify-lemma", "no3v3f_3f"],
        ["examples"],
        ["gen", "--seed", "7", "--n", "30"],
        ["enumerate", "--n", "4", "--out", str(tmp_path)],
    ]
    for ng in named_examples():
        g = ng.graph
        path = str(graph_dir / f"{ng.name}.graph")
        lists = json.dumps([["a", True, None, 1.5, 2]] * g.vertex_count)
        argvs += [
            ["inspect", path],
            ["square", path],
            ["color", path, "--lists", lists],
            ["match", path],
            ["match", path, "--config", "no33v"],
            ["discharge", path, "--ledger"],
        ]
        if g.vertex_count <= MAX_CHOOSABILITY_VERTICES:
            argvs.append(["choosable", path, "-k", "2"])
        for i in range(g.face_count):
            if g.face_length(i) >= BIG_FACE:
                argvs.append(["discharge", path, "--face", str(i), "--ledger"])
    # A lattice host whose ledgers hold hundreds of records, not tens.
    lattice = str(tmp_path / "lattice.graph")
    dump_graph_file(random_class_member(1, 200), lattice)
    argvs += [["match", lattice], ["discharge", lattice, "--ledger"]]
    for argv in argvs:
        report = run(argv)
        assert report.to_json() == _stdlib_json(report), argv


_chars = st.sampled_from('a"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600') | st.characters()
_text = st.text(_chars, max_size=6)
_scalars = (
    st.none()
    | st.booleans()
    | st.sampled_from([0, 1, -1])
    | st.integers()
    | st.integers(max_value=-(2**70))
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | _text
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(_text, inner, max_size=4),
    max_leaves=20,
)
# Lists of flat records, the shape _dumps encodes in bulk: keys and values
# that hold the separators, braces, template fields and NUL the bulk path
# splices on, empty records among full ones, and a nested value among
# scalar ones.
_record_text = st.text(st.sampled_from('}{,\n" :\u2028a%s\x00'), max_size=5)
_records = st.lists(
    st.dictionaries(_record_text, _scalars | _record_text, min_size=1, max_size=4)
    | st.just({})
    | st.dictionaries(
        _record_text,
        st.lists(_scalars, max_size=2) | st.dictionaries(_record_text, _scalars, max_size=2),
        min_size=1,
        max_size=2,
    ),
    min_size=1,
    max_size=5,
)


_dumps_inputs = (
    _values | _records | _records.map(tuple) | st.dictionaries(_text, _records, max_size=3)
)


@settings(max_examples=400, deadline=None)
@given(_dumps_inputs)
@example([{"a": "},\n      {"}, {"b": 1}])
@example([{"x": True}, {"x": 1}, {"x": float("nan")}])
@example([{"a": 1}, {}, {"a": 2}])
@example(({"a": 1}, {"b": [1, 2]}))
@example({"k": [{"a": "\u2028", '"': None}], "j": [{"z": -0.0}, {"y": "}{"}]})
@example([{"%s": "%s"}, {"%s": "%%"}])
@example([{"a": 1, "b": 2}, {"a": 1, "c": 2}])
@example([{"a": 1}, {"a": 1, "b": 2}])
@example([{"k": "\x00"}, {"k": 0}])
@example([{"k": 1}])
@example(({"a": 1, "b": "%"}, {"a": None, "b": "\x00s"}))
def test_dumps_equals_json_dumps(value):
    assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2)


@settings(max_examples=200, deadline=None)
@given(_dumps_inputs)
@example([{"a": 1, "b": "%s"}, {"a": 2, "b": "\x00"}])
def test_dumps_without_the_c_encoder_equals_json_dumps(value):
    with mock.patch.object(cli_module, "c_make_encoder", None):
        assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2)


# Flat lists and dicts of scalars, each written by one encoder call, at
# the indents at which a report nests them.
_flat = (
    st.lists(_scalars, min_size=1, max_size=8)
    | st.lists(_scalars, min_size=1, max_size=8).map(tuple)
    | st.dictionaries(_text, _scalars, min_size=1, max_size=8)
)


@settings(max_examples=300, deadline=None)
@given(
    _flat | st.dictionaries(_text, _flat, max_size=3) | st.lists(_flat, max_size=3),
    st.sampled_from([0, 2, 4, 6]),
)
@example([float("nan"), float("inf"), float("-inf"), True, False, None, 0, -1.5], 2)
@example(["\n", "\u00e9", "\x00\x1f", "\u2028", "\U0001f600", '"', "\\"], 4)
@example({"\x00\n": 1, "\u00e9": -0.0, "b": "}{", '"': None, "a": float("nan")}, 6)
def test_flat_dumps_equals_json_dumps_at_every_indent(value, indent):
    newline = "\n" + " " * indent
    expected = json.dumps(value, sort_keys=True, indent=2).replace("\n", newline)
    assert _dumps(value, newline) == expected


def test_flat_values_take_one_encoder_call(monkeypatch):
    calls = []
    real = cli_module._encoder

    def counting(separator):
        calls.append(separator)
        return real(separator)

    monkeypatch.setattr(cli_module, "_encoder", counting)
    charges = {str(v): -12 * (v % 3) for v in range(50)}
    ledger = [
        {"kind": "edge", "id": f"({i}, ({i}, {i + 1}))", "twelfths": -(i % 5)} for i in range(1000)
    ]
    for value in (charges, list(range(50)), ledger):
        calls.clear()
        assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2)
        assert len(calls) == 1


def test_report_schema_field(graph_dir):
    report = run(["inspect", str(graph_dir / "c6.graph")])
    body = json.loads(report.to_json())
    assert body["schema"] == "planecharge-report/1"
    assert body["exit_code"] == 0


def test_main_prints_json(graph_dir, capsys):
    code = main(["inspect", str(graph_dir / "c6.graph")])
    assert code == 0
    body = json.loads(capsys.readouterr().out)
    assert body["command"] == "inspect"


def test_reports_identical_across_processes(graph_dir):
    import subprocess
    import sys

    cmd = [
        sys.executable,
        "-m",
        "planecharge.cli",
        "match",
        str(graph_dir / "hexprism.graph"),
    ]
    first = subprocess.run(cmd, capture_output=True, text=True, check=True)
    second = subprocess.run(cmd, capture_output=True, text=True, check=True)
    assert first.stdout == second.stdout


def test_closed_pipe_exits_quietly(graph_dir):
    """A reader that closes stdout before the report is written (as `| head`
    does) gets no traceback: stderr stays empty and the verdict's code
    stands."""
    import subprocess
    import sys

    for argv in (["square", str(graph_dir / "q3.graph")], ["verify-catalog"]):
        with subprocess.Popen(
            [sys.executable, "-m", "planecharge.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            proc.stdout.close()  # the read end is gone before anything is written
            stderr = proc.stderr.read()
            assert proc.wait() == 0
        assert stderr == b""


# -- fuzzing every command that reads a graph file ------------------------------

_DEEP = "[" * 50_000 + "]" * 50_000
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 7)
    | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
_ids = st.integers(-1, 6) | st.booleans() | st.text(max_size=2) | _json_values
_rotations = st.lists(st.lists(st.integers(0, 5), max_size=4), min_size=1, max_size=6)


@st.composite
def _simple_graphs(draw):
    """Valid graph files: a random simple graph on at most 6 vertices with
    every rotation shuffled, so most are not plane maps."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=9)) if pairs else set()
    rot = [[] for _ in range(n)]
    for u, v in sorted(edges):
        rot[u].append(v)
        rot[v].append(u)
    return {"n": n, "rot": [draw(st.permutations(nbrs)) for nbrs in rot]}


_valid_texts = (
    st.sampled_from(list(enumerate_class(5))).map(to_file_dict)
    | _simple_graphs()
).map(json.dumps)
_malformed_texts = (
    _rotations.map(lambda rot: json.dumps({"n": len(rot), "rot": rot}))
    | st.fixed_dictionaries(
        {
            "n": st.integers(-1, 6) | _json_values,
            "rot": st.lists(st.lists(_ids, max_size=4) | _json_values, max_size=6)
            | _json_values,
        }
    ).map(json.dumps)
    | _json_values.map(json.dumps)
    | st.text(max_size=20)
    | st.just(_DEEP)
)
_graph_texts = st.booleans().flatmap(
    lambda valid: _valid_texts if valid else _malformed_texts
)
_list_texts = (
    st.lists(st.lists(st.integers(0, 3) | st.text(max_size=1), max_size=3), max_size=5)
    .map(json.dumps)
    | _json_values.map(json.dumps)
    | st.text(max_size=12)
    | st.just(_DEEP)
)
_GRAPH_COMMANDS = {
    "inspect": st.just([]),
    "square": st.just([]),
    "color": _list_texts.map(lambda text: [f"--lists={text}"]),
    "choosable": st.integers(-1, 3).map(lambda k: [f"-k={k}"]),
    "match": st.sampled_from([[], ["--config", "no1v"], ["--config", "no33v"]]),
    "discharge": st.sampled_from(
        [[], ["--ledger"], ["--face", "0"], ["--face", "1", "--ledger"]]
    ),
}


def _assert_error_line_or_report(path, command, text, extra):
    """Run one command on a graph file holding ``text``: either one `error:`
    line, exit code 2 and an empty stdout, or a report with exit code 0 or 1
    and an empty stderr.  An exception escaping ``main`` is a traceback."""
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, str(path), *extra])
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
    else:
        assert code in (0, 1) and err == ""
        body = json.loads(out)
        assert body["command"] == command
        assert body["exit_code"] == code


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.graph"


@pytest.mark.parametrize("command", sorted(_GRAPH_COMMANDS))
@pytest.mark.parametrize(
    "text",
    [
        '{"n": 2, "rot": [1, 0]}',
        '{"n": 2, "rot": [null, null]}',
        '{"n": 0, "rot": []}',
        '{"n": 1, "rot": [[]]}',
        '{"n": 4, "rot": [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]}',
        '{"n": 2, "rot": [["a\\nb"], [0]]}',
        _DEEP,
    ],
    ids=["int-rows", "null-rows", "n0", "n1", "k4-torus", "newline-id", "deep"],
)
def test_graph_file_edge_cases_exit_2_or_report(fuzz_path, command, text):
    required = {"color": ["--lists=[[1]]"], "choosable": ["-k=2"]}
    _assert_error_line_or_report(fuzz_path, command, text, required.get(command, []))


def test_deeply_nested_lists_exit_2(fuzz_path):
    text = '{"n": 1, "rot": [[]]}'
    _assert_error_line_or_report(fuzz_path, "color", text, [f"--lists={_DEEP}"])


@pytest.mark.parametrize("command", sorted(_GRAPH_COMMANDS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_graph_input_exits_2_or_reports(fuzz_path, command, data):
    text, extra = data.draw(_graph_texts), data.draw(_GRAPH_COMMANDS[command])
    _assert_error_line_or_report(fuzz_path, command, text, extra)
