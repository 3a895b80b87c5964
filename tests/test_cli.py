import io
import json
import random
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path

import pytest

from zonocube import apply_flip, bruhat, cli, find_flips, order_of
from zonocube.cli import COMMANDS, _run, build_parser, main
from zonocube.cubillage import MAX_EXTREME_WORK, Cubillage, CubillageError, standard, validate

README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden" / "readme_cli.txt"
ORDER_GOLDEN = GOLDEN.with_name("order_cli.txt")
STANDARDIZE_GOLDEN = GOLDEN.with_name("standardize_cli.txt")
MEMBRANE_GOLDEN = GOLDEN.with_name("membrane_cli.txt")
POSET_GOLDEN = GOLDEN.with_name("poset_cli.txt")
RELABEL_GOLDEN = GOLDEN.with_name("relabel_cli.txt")
EXTEND_GOLDEN = GOLDEN.with_name("extend_cli.txt")


def run_cli(args, stdin=None):
    """(exit code, stdout, stderr) of the command run in process, as
    run_inprocess gives them, with a SystemExit read as its exit code."""
    code, out, err = run_inprocess(args, stdin or "")
    return (code[1] if isinstance(code, tuple) else code), out, err


def run_module(args, stdin=None):
    """(exit code, stdout, stderr) of python -m zonocube.cli in a subprocess."""
    proc = subprocess.run(
        [sys.executable, "-m", "zonocube.cli", *args],
        input=stdin, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("args,stdin,code,out,err", [
    pytest.param(["validate", "-"], standard(range(1, 4), 2).to_json(), 0, "ok\n", "",
                 id="exit-0-from-stdin"),
    pytest.param(["validate", "-"], standard((2, 5, 9, 11), 2).to_json(), 0, "ok\n", "",
                 id="validate-noncontiguous-colors"),
    pytest.param(["spectra", "-"], standard((2, 5, 9, 11), 2).to_json(), 0,
                 '{"n": 11, "sets": [[], [2], [2, 5], [2, 5, 9], [2, 5, 9, 11], [5], [5, 9], '
                 '[5, 9, 11], [9], [9, 11], [11]]}\n', "", id="spectra-noncontiguous-colors"),
    pytest.param(["weak-sep", "-n", "24", "-k", "3"], None, 1, "",
                 "error: n = 24 exceeds the cap 10 for searches over all subsets of [n]\n",
                 id="exit-1"),
    pytest.param(["extend", "-n", "2", "-d", "4", "--sets", "[[1]]"], None, 2, "",
                 "bad input: need n >= d >= 1, got (2,4)\n", id="exit-2"),
])
def test_module_entry_point(args, stdin, code, out, err):
    assert run_module(args, stdin) == (code, out, err)


def test_standard_command():
    code, out, _ = run_cli(["standard", "-n", "3", "-d", "2"])
    assert code == 0
    assert json.loads(out) == {
        "colors": [1, 2, 3], "d": 2,
        "cubes": [{"root": [], "type": [1, 2]},
                  {"root": [2], "type": [1, 3]},
                  {"root": [], "type": [2, 3]}]}


def test_enumerate_count():
    code, out, _ = run_cli(["enumerate", "-n", "4", "-d", "2", "--count"])
    assert code == 0 and out.strip() == "8"


def test_enumerate_count_builds_no_cubillage(monkeypatch):
    built = []
    fill = Cubillage._fill
    monkeypatch.setattr(Cubillage, "_fill", lambda q, *args: built.append(q) or fill(q, *args))
    assert run_inprocess(["enumerate", "-n", "6", "-d", "2", "--count"], "") == (0, "908\n", "")
    assert built == []


def test_enumerate_streams_without_building_a_cubillage(monkeypatch):
    want = json.dumps([q._data() for q in bruhat.enumerate_cubillages(6, 2)]) + "\n"
    built = []
    fill = Cubillage._fill
    monkeypatch.setattr(Cubillage, "_fill", lambda q, *args: built.append(q) or fill(q, *args))
    code, out, err = run_inprocess(["enumerate", "-n", "6", "-d", "2"], "")
    # the outputs are compared as a bool: a diff of megabytes of JSON takes minutes
    assert (code, out == want, err) == (0, True, "")
    assert built == []


@pytest.mark.parametrize("n,d", [(4, 2), (6, 2), (5, 3), (7, 4), (8, 5)])
def test_enumerate_writes_the_json_of_enumerate_cubillages(n, d, tmp_path):
    want = json.dumps([q._data() for q in bruhat.enumerate_cubillages(n, d)]) + "\n"
    args = ["enumerate", "-n", str(n), "-d", str(d)]
    code, out, err = run_inprocess(args, "")
    assert (code, out == want, err) == (0, True, "")
    path = tmp_path / "out.json"
    assert run_inprocess(args + ["-o", str(path)], "") == (0, "", "")
    same = path.read_text(encoding="utf-8") == out
    assert same


def test_enumerate_refuses_before_the_first_byte(tmp_path):
    args = ["enumerate", "-n", "5", "-d", "2", "--max-states", "10"]
    assert run_inprocess(args, "") == (1, "", "error: state count passed the cap 10\n")
    path = tmp_path / "out.json"
    assert run_inprocess(args + ["-o", str(path)], "") == (
        1, "", "error: state count passed the cap 10\n")
    assert not path.exists()
    for n, d, code, err in ((12, 6, 1, "error: C(12,6) = 924 exceeds the cap 70\n"),
                            (2, 3, 2, "bad input: need n >= d >= 1, got (2,3)\n")):
        assert run_inprocess(["enumerate", "-n", str(n), "-d", str(d)], "") == (code, "", err)


def test_extend_certificate():
    code, out, _ = run_cli([
        "extend", "-n", "6", "-d", "4",
        "--sets", "[[2,4,6],[2,3,5],[1,3,6]]", "--certify"])
    assert code == 0
    report = json.loads(out)
    assert report["maximal_sizes"] == [55]
    assert report["bound"] == 57
    assert not report["completable"]


def test_extend_rejects_dimension_below_one():
    code, out, err = run_cli(["extend", "-n", "6", "-d", "0", "--sets", "[]"])
    assert code == 2 and not out and err.startswith("bad input")


def test_extend_rejects_fewer_colors_than_the_dimension():
    code, out, err = run_cli(["extend", "-n", "2", "-d", "4", "--sets", "[[1]]"])
    assert code == 2 and not out and err.strip() == "bad input: need n >= d >= 1, got (2,4)"


def test_reconstructions_reject_fewer_colors_than_the_dimension():
    for args in (["from-consistent", "--sets", "[]", "-n", "1", "-d", "2"],
                 ["from-spectra", "--sets", "[[1],[1,2],[2],[]]", "-n", "2", "-d", "5"]):
        code, out, err = run_cli(args)
        assert code == 2 and not out and err.startswith("bad input: need n >= d >= 1")


def test_non_integer_dimension_is_bad_input():
    _, cubillage, _ = run_cli(["standard", "-n", "2", "-d", "1"])
    for d in (True, "1", 1.0, None):
        data = json.loads(cubillage)
        data["d"] = d
        code, out, err = run_cli(["validate", "-"], stdin=json.dumps(data))
        assert code == 2 and not out and err.startswith("bad input: d must be an integer")


def test_extend_rejects_members_outside_the_colors():
    for n, sets in (("4", "[[9]]"), ("0", "[[1]]")):
        code, out, err = run_cli(["extend", "-n", n, "-d", "2", "--sets", sets])
        assert code == 2 and not out and err.startswith("bad input")


def test_from_consistent_rejects_members_outside_the_colors():
    code, out, err = run_cli(["from-consistent", "--sets", "[[1,9]]", "-n", "4", "-d", "2"])
    assert code == 2 and not out
    assert err.strip() == "bad input: member sets [(1, 9)] leave the colors 1..4"


def run_inprocess(args, stdin, run=main):
    """(exit code, stdout, stderr) of run(args) on stdin; when it raises
    SystemExit, ("SystemExit", its code) stands for the exit code."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = run(list(args))
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def root_perturbed_standard(n, d, typ, color):
    """standard(n, d) with color toggled in the root of one type, as JSON."""
    data = json.loads(standard(range(1, n + 1), d).to_json())
    for cube in data["cubes"]:
        if tuple(cube["type"]) == typ:
            cube["root"] = sorted(set(cube["root"]) ^ {color})
    return json.dumps(data)


# every command that reads a cubillage, with the arguments it needs besides the input
READERS = [["spectra"], ["reduce", "--color", "1"], ["contract", "--color", "1"],
           ["expand", "--color", "{new}"], ["flips"], ["flip", "--parent", "{parent}"],
           ["standardize"], ["membranes"], ["garland"], ["inversions"], ["order"],
           ["order", "--dot"], ["sec"], ["render-svg"]]
BAD_CUBILLAGES = [
    pytest.param('{"colors":[1,2],"d":1,"cubes":[{"root":[],"type":[1]}]}',
                 {"new": "3", "parent": "[1,2]"}, id="Z2_1-missing-type"),
    pytest.param(root_perturbed_standard(6, 3, (1, 2, 3), 6),
                 {"new": "7", "parent": "[1,2,3,4]"}, id="Z6_3-one-root"),
]


@pytest.mark.parametrize("text,fill", BAD_CUBILLAGES)
@pytest.mark.parametrize("command", READERS, ids=" ".join)
def test_every_reader_certifies_its_cubillage(command, text, fill):
    diagnostic = validate(Cubillage.from_json(text))
    assert diagnostic is not None
    args = [command[0], "-", *(arg.format(**fill) for arg in command[1:])]
    assert run_inprocess(args, text) == (1, "", f"error: {diagnostic}\n")
    # validate itself reads without the certificate and prints the diagnostic as before
    assert run_inprocess(["validate", "-"], text) == (1, "", diagnostic + "\n")


def test_weak_sep_scale_guard_exits_one():
    code, out, err = run_cli(["weak-sep", "-n", "24", "-k", "3"])
    assert code == 1 and not out and err.startswith("error: n = 24 exceeds the cap 10")


def test_extend_scale_guard_exits_one():
    for mode in ([], ["--certify"]):
        code, out, err = run_cli(["extend", "-n", "11", "-d", "3", "--sets", "[]", *mode])
        assert code == 1 and not out and err.startswith("error: n = 11 exceeds the cap 10")


def test_standard_scale_guard_exits_one():
    # the cap is on C(n,d)*n, the work of the root walks, not on the cube
    # count: Z(100000,1) and Z(447,2) have fewer than 100,000 cubes
    for cmd in ("standard", "antistandard"):
        for n, d, work in ((40, 20, 5513861152800), (100000, 1, 10**10), (447, 2, 44557407)):
            assert run_inprocess([cmd, "-n", str(n), "-d", str(d)], "") == (
                1, "", f"error: C({n},{d})*{n} = {work} exceeds the cap 2000000\n")
    # the largest Z(n,d) with n < 20, Z(19,9), stays under the cap
    assert comb(19, 9) * 19 <= MAX_EXTREME_WORK


def test_max_states_below_one_is_bad_input():
    for cmd in ("enumerate", "poset", "sec-surjectivity"):
        for cap in ("0", "-1"):
            code, out, err = run_cli([cmd, "-n", "2", "-d", "2", "--max-states", cap])
            assert code == 2 and not out and err.startswith("bad input")
    code, _, err = run_cli(["enumerate", "-n", "5", "-d", "2", "--max-states", "10"])
    assert code == 1 and err.strip() == "error: state count passed the cap 10"


def test_state_cap_at_the_count_of_b_6_2():
    assert run_cli(["enumerate", "-n", "6", "-d", "2", "--count", "--max-states", "908"]) == (
        0, "908\n", "")
    assert run_cli(["enumerate", "-n", "6", "-d", "2", "--count", "--max-states", "907"]) == (
        1, "", "error: state count passed the cap 907\n")


def test_validate_ok_and_exit_codes():
    _, cubillage, _ = run_cli(["standard", "-n", "3", "-d", "2"])
    code, out, _ = run_cli(["validate", "-"], stdin=cubillage)
    assert code == 0 and out.strip() == "ok"
    # tampering: break a root
    data = json.loads(cubillage)
    data["cubes"][1]["root"] = []
    code, _, err = run_cli(["validate", "-"], stdin=json.dumps(data))
    assert code == 1 and err.strip()
    # malformed input
    code, _, err = run_cli(["validate", "-"], stdin="{nope")
    assert code == 2
    data["colors"] = [1, 1]
    code, out, err = run_cli(["validate", "-"], stdin=json.dumps(data))
    assert code == 2 and not out and err.startswith("bad input: duplicate colors")
    # unknown flag
    code, _, _ = run_cli(["enumerate", "-n", "4", "-d", "2", "--frobnicate"])
    assert code == 2


def test_pipeline_reduce_expand_flip():
    _, cubillage, _ = run_cli(["standard", "-n", "4", "-d", "2"])
    code, reduced, _ = run_cli(["reduce", "-", "--color", "4"], stdin=cubillage)
    assert code == 0
    payload = json.loads(reduced)
    assert len(payload["seam"]) == 3
    code, expanded, _ = run_cli(
        ["expand", "-", "--color", "4", "--sets", json.dumps(payload["below"])],
        stdin=json.dumps(payload["cubillage"]))
    assert code == 0
    assert json.loads(expanded) == json.loads(cubillage)

    code, flips, _ = run_cli(["flips", "-"], stdin=cubillage)
    parents = [f["parent"] for f in json.loads(flips)]
    assert [1, 2, 3] in parents
    code, flipped, _ = run_cli(["flip", "-", "--parent", "[1,2,3]"], stdin=cubillage)
    assert code == 0
    code, back, _ = run_cli(["flip", "-", "--parent", "[1,2,3]"], stdin=flipped)
    assert json.loads(back) == json.loads(cubillage)


def test_spectra_and_from_spectra_roundtrip():
    _, cubillage, _ = run_cli(["antistandard", "-n", "4", "-d", "2"])
    code, spectra, _ = run_cli(["spectra", "-"], stdin=cubillage)
    assert code == 0
    code, rebuilt, _ = run_cli(["from-spectra", "-", "-d", "2"], stdin=spectra)
    assert code == 0
    assert json.loads(rebuilt) == json.loads(cubillage)


def test_order_and_from_order_roundtrip():
    _, cubillage, _ = run_cli(["standard", "-n", "4", "-d", "2"])
    code, order, _ = run_cli(["order", "-"], stdin=cubillage)
    assert code == 0
    code, rebuilt, _ = run_cli(["from-order", "-"], stdin=order)
    assert code == 0
    assert json.loads(rebuilt) == json.loads(cubillage)
    code, dot, _ = run_cli(["order", "-", "--dot"], stdin=cubillage)
    assert dot.startswith("digraph natural_order {")


def test_inversions_and_from_consistent():
    _, cubillage, _ = run_cli(["antistandard", "-n", "4", "-d", "2"])
    code, inv, _ = run_cli(["inversions", "-"], stdin=cubillage)
    assert code == 0
    system = json.loads(inv)
    assert len(system["sets"]) == 4
    code, out, _ = run_cli(["from-consistent", "-n", "4", "-d", "3",
                            "--sets", json.dumps(system["sets"])])
    assert code == 0
    witness = json.loads(out)
    assert sorted(map(tuple, witness["stack"])) == sorted(map(tuple, system["sets"]))


def test_standardize_and_membranes_and_garland():
    _, cubillage, _ = run_cli(["antistandard", "-n", "4", "-d", "2"])
    code, seq, _ = run_cli(["standardize", "-"], stdin=cubillage)
    assert code == 0
    entries = json.loads(seq)
    _, std, _ = run_cli(["standard", "-n", "4", "-d", "2"])
    assert entries[-1] == json.loads(std)

    code, membranes, _ = run_cli(["membranes", "-"], stdin=cubillage)
    assert json.loads(membranes)["count"] == len(json.loads(membranes)["membranes"])

    _, cub43, _ = run_cli(["standard", "-n", "4", "-d", "3"])
    code, g, _ = run_cli(["garland", "-"], stdin=cub43)
    assert code == 0
    mapping = {tuple(a): tuple(b) for a, b in json.loads(g)["map"]}
    assert mapping[(2,)] == (1, 2, 4)


def test_contract_command():
    _, cubillage, _ = run_cli(["standard", "-n", "3", "-d", "2"])
    code, out, _ = run_cli(["contract", "-", "--color", "3"], stdin=cubillage)
    assert code == 0
    assert json.loads(out)["d"] == 1


def test_sec_and_surjectivity():
    _, cubillage, _ = run_cli(["standard", "-n", "5", "-d", "3"])
    code, tri, _ = run_cli(["sec", "-"], stdin=cubillage)
    assert code == 0
    assert json.loads(tri) == {"n": 5, "d": 3,
                               "simplices": [[1, 2, 3], [1, 3, 4], [1, 4, 5]]}
    code, rep, _ = run_cli(["sec-surjectivity", "-n", "5", "-d", "3"])
    assert json.loads(rep)["surjective"]


def test_poset_command():
    code, out, _ = run_cli(["poset", "-n", "4", "-d", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 8 and payload["graded"]
    code, dot, _ = run_cli(["poset", "-n", "4", "-d", "2", "--dot"])
    assert dot.startswith("digraph bruhat {")


def test_check_separated_and_weak_sep():
    code, out, _ = run_cli(["check-separated", "-d", "4",
                            "--sets", "[[2,4,6],[2,3,5],[1,3,6]]"])
    assert code == 0 and json.loads(out)["pairwise_separated"]
    code, out, _ = run_cli(["check-separated", "-r", "3",
                            "--sets", "[[1,3,5],[2,4,6]]"])
    assert not json.loads(out)["pairwise_separated"]
    code, out, _ = run_cli(["weak-sep", "-n", "5", "-k", "3"])
    assert json.loads(out)["meets_bound"]
    code, out, _ = run_cli(["weak-sep", "-k", "3",
                            "--sets", "[[2,5],[1,3,5,6],[1,2,4,6]]"])
    assert json.loads(out)["pairwise_weakly_separated"]


def test_a_huge_color_is_answered():
    # a set is coded by position in the union of the sets, not by value
    code, out, _ = run_cli(["check-separated", "--sets", "[[1],[1000000000000]]", "-r", "1"])
    assert (code, out) == (0, '{"r": 1, "pairwise_separated": true, "violations": []}\n')
    code, out, _ = run_cli(["weak-sep", "-k", "1", "--sets", "[[1,3],[2,1000000000000]]"])
    assert (code, json.loads(out)) == (0, {
        "k": 1, "pairwise_weakly_separated": False,
        "violations": [{"x": [1, 3], "y": [2, 1000000000000]}]})


def test_render_svg_and_embed(tmp_path):
    _, cubillage, _ = run_cli(["standard", "-n", "3", "-d", "2"])
    target = tmp_path / "tiling.svg"
    code, _, _ = run_cli(["render-svg", "-", "--labels", "--arrows",
                          "--size", "500x400", "-o", str(target)],
                         stdin=cubillage)
    assert code == 0
    body = target.read_text()
    assert body.count("<polygon") == 3 and 'width="500"' in body

    code, out, _ = run_cli(["embed", "-n", "3", "-d", "2", "--sets", "[[1,3]]"])
    assert code == 0
    _, anti, _ = run_cli(["antistandard", "-n", "3", "-d", "2"])
    assert json.loads(out) == json.loads(anti)


def test_byte_determinism():
    runs = {run_cli(["enumerate", "-n", "4", "-d", "2"])[1] for _ in range(2)}
    assert len(runs) == 1
    runs = {run_cli(["poset", "-n", "4", "-d", "2", "--dot"])[1] for _ in range(2)}
    assert len(runs) == 1


def test_main_entrypoint_inprocess(capsys):
    assert main(["standard", "-n", "2", "-d", "2"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["cubes"] == [{"root": [], "type": [1, 2]}]


def full_parser_main(argv):
    """main parsing every call with the full parser of all commands."""
    return _run(build_parser().parse_args(argv))


Z22 = standard(range(1, 3), 2).to_json()
Z42 = standard(range(1, 5), 2).to_json()
Z53 = standard(range(1, 6), 3).to_json()
# one successful call per command, with its stdin
PARITY_CALLS = [
    (["standard", "-n", "4", "-d", "2"], ""), (["antistandard", "-n", "4", "-d", "2"], ""),
    (["validate", "-"], Z42), (["spectra"], Z42), (["reduce", "-", "--color", "4"], Z42),
    (["expand", "-", "--color", "5"], Z42), (["contract", "-", "--color", "1"], Z42),
    (["flips", "-"], Z42), (["flip", "-", "--parent", "[1,2,3]"], Z42),
    (["standardize", "-"], Z42), (["membranes", "-"], Z42), (["garland", "-"], Z42),
    (["inversions", "-"], Z42), (["order", "-", "--dot"], Z42),
    (["from-spectra", "--sets", "[[],[1],[1,2]]"], ""),
    (["from-consistent", "--sets", "[[1,2]]", "-n", "3", "-d", "2"], ""),
    (["from-order", "-"], order_of(standard(range(1, 5), 2)).to_json()),
    (["enumerate", "-n", "4", "-d", "2", "--cou"], ""), (["poset", "-n", "4", "-d", "2"], ""),
    (["sec", "-"], Z53), (["sec-surjectivity", "-n", "5", "-d", "3"], ""),
    (["check-separated", "-d", "2", "--sets", "[[1,3],[2]]"], ""),
    (["extend", "-n", "4", "-d", "2", "--sets", "[[1,3]]"], ""),
    (["weak-sep", "-n", "4", "-k", "1"], ""), (["render-svg", "-", "--labels"], Z42),
    (["embed", "--sets", "[[1,3]]", "-n", "3", "-d", "2"], ""),
]
PARITY_ERRORS = [
    [], ["-h"], ["--help"], ["bogus"], ["sta"], ["valid", "-"], ["--", "flips", "-"], ["-x"],
    ["validate", "-", "--bogus"], ["flips", "--bogus"], ["flips", "-", "--bogus", "-h"],
    ["flip", "-"], ["standard", "-n", "3"], ["enumerate", "-n", "x", "-d", "2"],
    ["validate", "-", "extra"], ["validate", "--", "-", "extra"], ["weak-sep", "-n", "3"],
    *([name, "-h"] for name in COMMANDS),
]


def test_parity_calls_cover_every_command():
    assert [argv[0] for argv, _ in PARITY_CALLS] == list(COMMANDS)


@pytest.mark.parametrize("argv,stdin", [
    pytest.param(argv, stdin, id=" ".join(argv) or "(no arguments)")
    for argv, stdin in PARITY_CALLS + [(argv, Z42) for argv in PARITY_ERRORS]])
def test_per_command_parse_matches_the_full_parser(argv, stdin, monkeypatch):
    # help text is wrapped to COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    assert run_inprocess(argv, stdin) == run_inprocess(argv, stdin, full_parser_main)


def test_parsers_run_the_handler_the_module_holds_now(monkeypatch):
    # the benchmark's tracer replaces cmd_* in the module to time them
    monkeypatch.setattr(cli, "cmd_flips", lambda args: 7)
    assert main(["flips", "-"]) == 7
    assert build_parser().parse_args(["flips"]).fn is cli.cmd_flips


def test_emitted_json_is_parse_emit_fixed_point():
    from zonocube.colors import SetSystem
    from zonocube.cubillage import Cubillage
    from zonocube.systems import AdmissibleOrder

    _, cubillage, _ = run_cli(["standard", "-n", "4", "-d", "2"])
    assert Cubillage.from_json(cubillage).to_json() + "\n" == cubillage
    _, spectra, _ = run_cli(["spectra", "-"], stdin=cubillage)
    assert SetSystem.from_json(spectra).to_json() + "\n" == spectra
    _, order, _ = run_cli(["order", "-"], stdin=cubillage)
    assert AdmissibleOrder.from_json(order).to_json() + "\n" == order


def readme_commands():
    """The pipelines of the README's CLI block, comments dropped, except the
    render-svg one, which writes a file."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    lines = (line.split("#", 1)[0].strip() for line in block.splitlines())
    return [line for line in lines if line.startswith("zonocube ") and "render-svg" not in line]


def readme_transcript():
    """Each README command as "$ command" and its stdout, every pipeline
    stage run in process on the previous stage's output."""
    parts = []
    for command in readme_commands():
        out = ""
        for stage in command.split(" | "):
            stdin, sys.stdin = sys.stdin, io.StringIO(out)
            try:
                with redirect_stdout(io.StringIO()) as buf:
                    assert main(shlex.split(stage)[1:]) == 0, stage
            finally:
                sys.stdin = stdin
            out = buf.getvalue()
        parts.append(f"$ {command}\n{out}")
    return "".join(parts)


def test_readme_commands_match_golden_output():
    # tests/golden/readme_cli.txt was written by readme_transcript(); a change
    # to what any README command prints shows up here
    assert readme_transcript() == GOLDEN.read_text(encoding="utf-8")


def raising_walk_json(n, d, steps, seed):
    """The cubillage at the end of a seeded walk of raising flips from standard(n, d)."""
    rng = random.Random(seed)
    q = standard(range(1, n + 1), d)
    for _ in range(steps):
        q = apply_flip(q, rng.choice([p for p, way in find_flips(q) if way == "raising"]))
    return q.to_json() + "\n"


def run_stdout(argv, stdin):
    code, out, err = run_inprocess(argv, stdin)
    assert (code, err) == (0, ""), argv
    return out


def order_transcript():
    """order -, order - --dot and from-order - on two fixed cubillages, each
    input given first, then each command and its stdout."""
    inputs = [("raising walk at Z(6,3), 12 steps, seed 6", raising_walk_json(6, 3, 12, 6)),
              ("zonocube antistandard -n 5 -d 2",
               run_stdout(["antistandard", "-n", "5", "-d", "2"], ""))]
    parts = []
    for label, cubillage in inputs:
        order = run_stdout(["order", "-"], cubillage)
        dot = run_stdout(["order", "-", "--dot"], cubillage)
        rebuilt = run_stdout(["from-order", "-"], order)
        assert rebuilt == cubillage
        parts.append(f"# {label}\n{cubillage}$ zonocube order -\n{order}"
                     f"$ zonocube order - --dot\n{dot}$ zonocube order - | zonocube from-order -\n"
                     f"{rebuilt}")
    return "".join(parts)


def test_order_commands_match_golden_output():
    # tests/golden/order_cli.txt was written by order_transcript()
    assert order_transcript() == ORDER_GOLDEN.read_text(encoding="utf-8")


def standardize_transcript():
    """standardize - on a seeded raising walk at Z(6,3) and on the
    antistandard cubillage of Z(6,3), each input given first, then the
    command and its stdout."""
    inputs = [("raising walk at Z(6,3), 12 steps, seed 6", raising_walk_json(6, 3, 12, 6)),
              ("zonocube antistandard -n 6 -d 3",
               run_stdout(["antistandard", "-n", "6", "-d", "3"], ""))]
    return "".join(f"# {label}\n{cubillage}$ zonocube standardize -\n"
                   f"{run_stdout(['standardize', '-'], cubillage)}"
                   for label, cubillage in inputs)


def test_standardize_command_matches_golden_output():
    # tests/golden/standardize_cli.txt was written by standardize_transcript()
    assert standardize_transcript() == STANDARDIZE_GOLDEN.read_text(encoding="utf-8")


def membrane_transcript():
    """membranes -, expand - (over the full stack and over one stack),
    from-consistent (on the inversion system and on that stack), order -,
    order - --dot and, at d = 2, render-svg - --arrows --sets on three fixed
    cubillages; each input given first, then each command and its stdout.
    The one stack is the middle one that membranes - lists."""
    inputs = [("raising walk at Z(6,3), 12 steps, seed 6", raising_walk_json(6, 3, 12, 6)),
              ("zonocube antistandard -n 5 -d 2",
               run_stdout(["antistandard", "-n", "5", "-d", "2"], "")),
              ("raising walk at Z(4,1), 3 steps, seed 4", raising_walk_json(4, 1, 3, 4))]
    parts = []
    for label, cubillage in inputs:
        data = json.loads(cubillage)
        n, d = str(len(data["colors"])), data["d"]
        found = json.loads(run_stdout(["membranes", "-"], cubillage))
        stack = json.dumps(found["membranes"][found["count"] // 2]["stack"])
        inverted = run_stdout(["inversions", "-"], cubillage)
        calls = [("membranes -", cubillage),
                 (f"expand - --color {int(n) + 1}", cubillage),
                 (f"expand - --color {int(n) + 1} --sets '{stack}'", cubillage),
                 (f"from-consistent --sets '{stack}' -n {n} -d {d}", ""),
                 ("order -", cubillage), ("order - --dot", cubillage)]
        if d == 2:
            calls.append((f"render-svg - --arrows --sets '{stack}'", cubillage))
        parts.append(f"# {label}\n{cubillage}")
        parts += [f"$ zonocube {call}\n{run_stdout(shlex.split(call), stdin)}"
                  for call, stdin in calls]
        parts.append(f"$ zonocube inversions - | zonocube from-consistent - -n {n} -d {d + 1}\n"
                     f"{run_stdout(['from-consistent', '-', '-n', n, '-d', str(d + 1)], inverted)}")
    return "".join(parts)


def test_membrane_commands_match_golden_output():
    # tests/golden/membrane_cli.txt was written by membrane_transcript()
    assert membrane_transcript() == MEMBRANE_GOLDEN.read_text(encoding="utf-8")


def poset_transcript():
    """poset -n 6 -d 2 (JSON) and poset -n 5 -d 3 --dot, each command and
    its stdout; both pin the (rank, canonical key) index order."""
    calls = ["poset -n 6 -d 2", "poset -n 5 -d 3 --dot"]
    return "".join(f"$ zonocube {call}\n{run_stdout(shlex.split(call), '')}" for call in calls)


def test_poset_commands_match_golden_output():
    # tests/golden/poset_cli.txt was written by poset_transcript() before the
    # poset moved onto masks; it pins the index order of elements and covers
    assert poset_transcript() == POSET_GOLDEN.read_text(encoding="utf-8")


def relabel_transcript():
    """enumerate -n 4 -d 2, then a cubillage on the non-contiguous colors
    1, 2, 4, 5, 6 (standard -n 6 -d 2, flipped at [1,2,3] and [1,2,4], with
    color 3 reduced away) run through every command that maps colors to
    their positions and back; each command with its exit code, stdout and
    stderr."""
    def call(command, stdin=""):
        code, out, err = run_inprocess(shlex.split(command), stdin)
        return out, f"$ zonocube {command}\n[exit {code}]\n{out}{err}"

    parts = [call("enumerate -n 4 -d 2")[1]]
    out = ""
    for stage in ("standard -n 6 -d 2", "flip - --parent [1,2,3]", "flip - --parent [1,2,4]",
                  "reduce - --color 3"):
        out, part = call(stage, out)
        parts.append(part)
    reduced = json.dumps(json.loads(out)["cubillage"]) + "\n"
    for command in ("validate -", "flips -", "flip - --parent [1,2,5]", "inversions -",
                    "spectra -", "standardize -", "membranes -", "garland -", "order - --dot",
                    "order -", "expand - --color 7"):
        parts.append(call(command, reduced)[1])
    return "".join(parts)


def test_relabelling_commands_match_golden_output():
    # tests/golden/relabel_cli.txt was written by relabel_transcript() before
    # the color relabelling moved into masks
    assert relabel_transcript() == RELABEL_GOLDEN.read_text(encoding="utf-8")



def extend_transcript():
    """extend on the lift of the Z(6,4) clock triple to (7,4) with the sets
    [1,2,3,5,7], [1,3,4,7], [1,3,6,7], without and with --certify; each
    command and its stdout.  The certify run lists 34 maximal completions of
    sizes 93, 95, 97 and 99, 26 of them of size 99, so it pins their order
    within a size."""
    sets = "[[1,2,3,5,7],[1,3,4,7],[1,3,6,7]]"
    calls = [f"extend -n 7 -d 4 --sets '{sets}'", f"extend -n 7 -d 4 --sets '{sets}' --certify"]
    return "".join(f"$ zonocube {call}\n{run_stdout(shlex.split(call), '')}" for call in calls)


def test_extend_commands_match_golden_output():
    # tests/golden/extend_cli.txt was written by extend_transcript() before
    # the separation searches moved onto bitmask codes
    assert extend_transcript() == EXTEND_GOLDEN.read_text(encoding="utf-8")

Z21_FLOAT_ROOT = ('{"colors": [1, 2], "d": 1, "cubes": [{"root": [], "type": [1]}, '
                  '{"root": [1.0], "type": [2]}]}')
Z21_FLOAT_COLORS = '{"colors": [1.5, 2], "d": 1, "cubes": []}'
Z21_BOOL_COLORS = ('{"colors": [true, 2], "d": 1, "cubes": [{"root": [], "type": [true]}, '
                   '{"root": [true], "type": [2]}]}')
Z32_REPEATED_TYPE = json.dumps({"colors": [1, 2, 3], "d": 2, "cubes": [
    {"root": [], "type": [1, 2]}, {"root": [3], "type": [1, 2]}, {"root": [], "type": [2, 3]}]})
Z3_NON_CONTIGUOUS = json.dumps({"colors": [1, 2, 4], "d": 2, "cubes": [
    {"root": [], "type": [1, 2]}, {"root": [2], "type": [1, 4]}, {"root": [], "type": [2, 4]}]})
# the spectra of a cubillage of Z(4,2) with the member [4] listed twice
REPEATED_SPECTRA = ("[[], [1], [1, 2], [1, 2, 3], [1, 2, 3, 4], [2], [2, 3], [2, 3, 4], "
                    "[3], [3, 4], [4], [4]]")
# the spectra of standard Z(4,2) with the member [] swapped for [1, 3]: the
# mask read from it is consistent, so the spectrum compare refuses it
SWAPPED_SPECTRA = json.dumps({"n": 4, "sets": [
    [1], [1, 2], [1, 2, 3], [1, 2, 3, 4], [1, 3], [2], [2, 3], [2, 3, 4], [3], [3, 4], [4]]})
# malformed input for every command: (argv, stdin, exit code, part of the message)
MALFORMED = [
    (["standard", "-n", "100000", "-d", "1"], "", 1, "exceeds the cap"),
    (["standard", "-n", "2", "-d", "3"], "", 2, ""),
    (["antistandard", "-n", "447", "-d", "2"], "", 1, "exceeds the cap"),
    (["validate", "-"], Z21_FLOAT_ROOT, 2, "integers"),
    (["validate", "-"], Z21_FLOAT_COLORS, 2, "integers"),
    (["validate", "-"], Z21_BOOL_COLORS, 2, "integers"),
    (["validate", "-"], "{", 2, ""),
    (["validate", "-"], "[1]", 2, ""),
    (["validate", "-"], "null", 2, ""),
    (["validate", "-"], Z32_REPEATED_TYPE, 2, "bad input: duplicate cube type (1, 2)"),
    (["spectra", "-"], Z21_FLOAT_ROOT, 2, "integers"),
    (["spectra", "-"], Z21_BOOL_COLORS, 2, "integers"),
    (["reduce", "-", "--color", "9"], Z42, 2, ""),
    (["reduce", "-", "--color", "1"], Z22, 2, "fewer colors than d"),
    (["expand", "-", "--color", "2"], Z42, 2, ""),
    (["expand", "-", "--color", "5", "--sets", "[[1.5, 2]]"], Z42, 2, "integers"),
    (["expand", "-", "--color", "5", "--sets", "5"], Z42, 2, ""),
    (["contract", "-", "--color", "9"], Z42, 2, ""),
    # both diagnostics name the first clash in the order of the projected table
    (["contract", "-", "--color", "2"], Z42, 1, "error: contracting color 2 gives no tiling: "
     "facet Facet(root=(), type=()) claimed twice on the same side by (1,) and (3,)\n"),
    (["contract", "-", "--color", "3"], Z53, 1, "error: contracting color 3 gives no tiling: "
     "facet Facet(root=(), type=(1,)) claimed twice on the same side by (1, 2) and (1, 4)\n"),
    (["flips", "-"], '{"colors": [1, 2], "d": 1, "cubes": [5]}', 2, ""),
    (["flip", "-", "--parent", "[1, 2]"], Z42, 2, ""),
    (["flip", "-", "--parent", "[1.5, 2, 3]"], Z42, 2, "integers"),
    (["flip", "-", "--parent", "\"abc\""], Z42, 2, ""),
    # a parent find_flips does not list, and one with a color outside the input's
    (["flip", "-", "--parent", "[1, 2, 4]"], Z42, 2, "parent (1, 2, 4) is not flippable"),
    (["flip", "-", "--parent", "[1, 2, 5]"], Z42, 2, "parent (1, 2, 5) is not flippable"),
    (["standardize", "-"], '{"colors": [1, 2], "d": 1.0, "cubes": []}', 2, ""),
    (["membranes", "-"], '{"colors": [1, 2], "d": 0, "cubes": []}', 2, ""),
    (["garland", "-"], '{"colors": "ab", "d": 1, "cubes": []}', 2, ""),
    (["inversions", "-"], '{"colors": [1, 2], "d": 1}', 2, ""),
    (["order", "-"], Z3_NON_CONTIGUOUS, 2, "contiguous"),
    (["order", "-", "--dot"], "{}", 2, ""),
    (["from-spectra", "--sets", "[[], [1.5]]"], "", 2, "integers"),
    (["from-spectra", "--sets", "{}"], "", 2, ""),
    (["from-spectra", "--sets", "[[], [1], [1, 2]]", "-d", "0"], "", 2, ""),
    (["from-spectra", "--sets", "[[], [1], [1, 2]]", "-n", "0"], "", 2,
     "size 3 is not C(0,<=d) for any d"),
    (["from-spectra", "--sets", "[[], [1], [300000]]"], "", 2,
     "size 3 is not C(300000,<=d) for any d"),
    (["from-spectra", "--sets", "[[], [1], [30000000]]"], "", 2,
     "size 3 is not C(30000000,<=d) for any d"),
    (["from-spectra", "--sets", "[[], [1], [30000000]]", "-d", "1"], "", 2,
     "system size is not C(n,<=d)"),
    (["from-spectra", "--sets", "[[], [1], [1000000000000]]", "-n", "2"], "", 2,
     "(1,) and (1000000000000,) are not 0-separated"),
    (["from-spectra", "--sets", "[[], [1], [1, 1000000000000]]", "-n", "2"], "", 1,
     "spectra leave the color universe"),
    # a repeated member is refused inline as SetSystem refuses it in a file
    (["from-spectra", "--sets", REPEATED_SPECTRA, "-d", "2"], "", 2,
     "bad input: duplicate member sets"),
    (["from-spectra", "-", "-d", "2"], f'{{"n": 4, "sets": {REPEATED_SPECTRA}}}', 2,
     "bad input: duplicate member sets"),
    (["from-spectra", "-"], SWAPPED_SPECTRA, 2,
     "bad input: (1, 3) and (2,) are not 1-separated"),
    (["from-consistent", "--sets", "[[1, 2]]", "-n", "3", "-d", "5"], "", 2, ""),
    (["from-consistent", "--sets", "[[true]]", "-n", "2", "-d", "1"], "", 2, "integers"),
    (["from-consistent", "--sets", "[[1]]", "-n", "3", "-d", "2"], "", 2,
     "members must be 2-subsets"),
    (["from-order", "-"], '{"n": 3, "d": 2, "relations": [[[1, 2], [1, 3]], [[1, 3], [1, 2]]]}',
     2, "cycle"),
    (["from-order", "-"], '{"n": 2.5, "d": 1, "relations": []}', 2, ""),
    (["from-order", "-"], '{"n": true, "d": 1, "relations": []}', 2, "n must be an integer"),
    (["from-order", "-"], '{"n": 2, "d": 1.5, "relations": [[[1], [2]]]}', 2,
     "d must be an integer"),
    (["from-order", "-"], '{"n": 2, "d": true, "relations": [[[1], [2]]]}', 2,
     "d must be an integer"),
    (["from-order", "-"], '{"n": 2, "d": "1", "relations": [[[1], [2]]]}', 2,
     "d must be an integer"),
    (["from-order", "-"], '{"n": 3, "d": 2, "relations": [[[1, 2], [1, 4]]]}', 2,
     "relation (1, 2) < (1, 4) leaves the grassmannian"),
    (["from-order", "-"], '{"n": 3, "d": 2, "relations": [[[1], [1, 2]]]}', 2,
     "relation (1,) < (1, 2) leaves the grassmannian"),
    # the endpoint [2, 1] is canonicalized before the numbering table is read
    (["from-order", "-"], '{"n": 3, "d": 2, "relations": [[[2, 1], [1, 3]]]}', 2,
     "packet of (1, 2, 3) is not a lex or antilex chain"),
    (["enumerate", "-n", "2", "-d", "3"], "", 2, ""),
    (["enumerate", "-n", "12", "-d", "6"], "", 1, "exceeds the cap"),
    (["poset", "-n", "2", "-d", "0"], "", 2, ""),
    (["sec", "-", "--t-params", "x"], Z42, 2, ""),
    (["sec", "-", "--t-params", "1/0,2,3,4"], Z42, 2, "zero denominator"),
    (["sec-surjectivity", "-n", "3", "-d", "5"], "", 2, ""),
    (["sec-surjectivity", "-n", "12", "-d", "6"], "", 1, "exceeds the cap"),
    (["sec-surjectivity", "-n", "6", "-d", "2", "--max-states", "20"], "", 1,
     "state count passed the cap 20"),
    (["check-separated", "--sets", "[[1], [2]]"], "", 2, "check-separated needs -d or -r"),
    (["check-separated", "--sets", "[[1.5]]", "-d", "2"], "", 2, "integers"),
    (["check-separated", "-r", "-1", "--sets", "[[1], [2]]"], "", 2, "r must be >= 0"),
    (["check-separated", "-", "-d", "2"], '{"n": 4.5, "sets": [[1]]}', 2, "n must be an integer"),
    (["extend", "-n", "4", "-d", "2", "--sets", "[[1.5]]"], "", 2, "integers"),
    (["extend", "-", "-n", "4", "-d", "2"], '{"n": true, "sets": [[1]]}', 2,
     "n must be an integer"),
    (["extend", "-n", "4", "-d", "2", "--sets", "[[true]]"], "", 2, "integers"),
    (["extend", "-n", "4", "-d", "2", "--sets", "[[1, 3], [3, 1]]"], "", 2,
     "bad input: duplicate member sets"),
    (["weak-sep", "-n", "4", "-k", "2"], "", 2, ""),
    (["weak-sep", "-k", "1"], "", 2, ""),
    (["weak-sep", "-n", "0", "-k", "1"], "", 2, "n must be an integer >= 1"),
    (["weak-sep", "-n", "-2", "-k", "1"], "", 2, "n must be an integer >= 1"),
    (["weak-sep", "-k", "1", "--sets", "[[1.5], [2]]"], "", 2, "integers"),
    (["weak-sep", "-k", "2", "--sets", "[[1]]"], "", 2, "odd k"),
    (["render-svg", "-", "--size", "1x2x3"], Z42, 2, ""),
    (["render-svg", "-", "--sets", "[[9]]"], Z42, 2, ""),
    (["render-svg", "-", "--t-params", "1/0,2,3,4"], Z42, 2, "zero denominator"),
    (["render-svg", "-", "--size", "0x0"], Z42, 2, "margins"),
    (["embed", "--sets", "[[1]]", "-n", "4", "-d", "5"], "", 2, "need n >= d >= 1"),
    (["embed", "--sets", "[[1], [2]]", "-n", "4", "-d", "2"], "", 2, ""),
    (["embed", "--sets", "[[0]]", "-n", "4", "-d", "2"], "", 2, ""),
    (["embed", "--sets", "[[1]]", "-n", "40", "-d", "20"], "", 1, "exceeds the cap"),
]


def test_memory_error_exits_one_with_one_line(monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_membranes", exhausted)
    code, out, err = run_inprocess(["membranes", "-"], Z42)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def test_sec_surjectivity_refuses_a_slice_outside_the_flip_search(monkeypatch):
    search = bruhat._triangulations
    monkeypatch.setattr(bruhat, "_triangulations", lambda *args: set(sorted(search(*args))[1:]))
    with pytest.raises(CubillageError, match="missing from the flip search"):
        bruhat.sec_surjectivity_experiment(6, 3)
    code, out, err = run_inprocess(["sec-surjectivity", "-n", "6", "-d", "3"], "")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def test_malformed_calls_cover_every_command():
    assert {argv[0] for argv, *_ in MALFORMED} == set(COMMANDS)


@pytest.mark.parametrize("argv,stdin,code,message", [
    pytest.param(*row, id=" ".join(row[0])) for row in MALFORMED])
def test_malformed_input_exits_with_a_message(argv, stdin, code, message):
    # exit 1 for a diagnostic or a scale guard, 2 for malformed input; one
    # line on stderr, no traceback, nothing on stdout
    got_code, out, err = run_inprocess(argv, stdin)
    assert (got_code, out) == (code, "")
    assert message in err and err.count("\n") == 1 and "Traceback" not in err
