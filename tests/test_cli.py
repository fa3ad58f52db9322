import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecharge.choosability import MAX_CHOOSABILITY_VERTICES
from planecharge.cli import (
    REPORT_SCHEMA,
    CliInputError,
    _build_parser,
    _dumps,
    main,
    run,
)
from planecharge.plane_graph import dump_graph_file, load_graph_file
from planecharge.corpus import named_examples


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


def test_bad_flag_exits_2(graph_dir):
    with pytest.raises(SystemExit) as err:
        run(["inspect", str(graph_dir / "q3.graph"), "--bogus"])
    assert err.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        run(["frobnicate"])
    assert err.value.code == 2


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


def test_verify_catalog(tmp_path):
    out = tmp_path / "report.json"
    report = run(["verify-catalog", "--report", str(out)])
    assert report.outcome == "pass"
    assert report.exit_code == 0
    assert report.payload["passed"] == 19
    assert report.payload["failed"] == 0
    on_disk = json.loads(out.read_text())
    assert on_disk["outcome"] == "pass"


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


def test_parser_is_reused_without_leaking_state(graph_dir):
    path = str(graph_dir / "c6.graph")
    first = run(["discharge", path, "--face", "0", "--ledger"])
    assert first.inputs == {"graph": path, "face": 0, "ledger": True}
    second = run(["discharge", path])
    assert second.inputs == {"graph": path, "face": None, "ledger": False}
    assert "face_audit" not in second.payload
    assert "transfers" not in second.payload
    with pytest.raises(SystemExit) as err:
        run(["discharge", path, "--face", "x"])
    assert err.value.code == 2
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
            if g.face_length(i) >= 6:
                argvs.append(["discharge", path, "--face", str(i), "--ledger"])
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


@settings(max_examples=400, deadline=None)
@given(_values)
def test_dumps_equals_json_dumps(value):
    assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2)


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
