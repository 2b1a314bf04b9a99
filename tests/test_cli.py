"""The command-line surface: outputs, formats, and exit codes."""

import json
import os
import subprocess
import sys
import time
from math import factorial

import pytest

import posetlie
from posetlie.cli import build_parser, main

POSET_FILE = """\
poset v1
elements: a b c d
relations: a<b a<c b<d c<d
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_info_text(capsys):
    code, out = run(capsys, "info", "--family", "crown:3")
    assert code == 0
    assert "size: 6" in out
    assert "length: 1" in out


def test_info_json(capsys):
    code, out = run(capsys, "info", "--family", "example:6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 6
    assert data["min"] == ["1"]
    assert data["chain_classes"] == 2


def test_file_input(tmp_path, capsys):
    path = tmp_path / "diamond.poset"
    path.write_text(POSET_FILE)
    code, out = run(capsys, "chains", "--file", str(path))
    assert code == 0
    assert "a < b < d" in out
    assert "a < c < d" in out


def test_classes_json_deterministic(capsys):
    code, first = run(capsys, "classes", "--family", "example:6", "--format", "json")
    assert code == 0
    code, second = run(capsys, "classes", "--family", "example:6", "--format", "json")
    assert first == second
    data = json.loads(first)
    assert data["classes"][0]["support"] == ["1", "2", "4", "5"]


def test_aut(capsys):
    code, out = run(capsys, "aut", "--family", "chain:2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 2
    assert {m["kind"] for m in data["maps"]} == {"iso", "anti"}


def test_enumerate_groups(capsys):
    code, out = run(capsys, "enumerate", "am", "--family", "crown:2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["structure"]["order"] == 8
    assert len(data["elements"]) == 8


@pytest.mark.parametrize(
    "group, selector, count",
    [
        pytest.param("m", "fence:8", 5040, id="m"),
        pytest.param("p", "fence:8", 2, id="p"),
        # two chunks of elements
        pytest.param("am", "crown:4", 1152, id="am-crown:4"),
        # |B| = 10: pair indices of two digits
        pytest.param("p", "kmn:2x5", 240, id="p-kmn:2x5"),
    ],
)
def test_enumerate_json_streams_the_one_document(capsys, group, selector, count):
    # fence:8 has 7! = 5040 monotone bijections, several chunks of
    # elements; the streamed output is the sorted-key dump of the whole
    # report, each element as EdgeBijection.to_json gives it, byte for byte
    from posetlie import enumerate_AM, enumerate_M, enumerate_P, verify_group
    from posetlie.families import from_selector

    code, out = run(capsys, "enumerate", group, "--family", selector, "--format", "json")
    assert code == 0
    poset = from_selector(selector)
    if group == "m":
        elements = list(enumerate_M(poset))
        structure = {"order": len(elements)}
    else:
        listing = enumerate_AM(poset) if group == "am" else enumerate_P(poset)
        found = verify_group(listing)
        elements, structure = found.elements, found.to_json()
    expected = {
        "group": group,
        "structure": structure,
        "elements": [t.to_json(poset) for t in elements],
    }
    assert out == json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n"
    assert len(expected["elements"]) == count


def test_enumerate_m_text_counts_without_listing(capsys):
    # 9! elements: the text output reports the order without listing them
    code, out = run(capsys, "enumerate", "m", "--family", "fence:10")
    assert code == 0
    assert out == "order: 362880\n"


def test_orders_past_the_index_size_are_exact(capsys):
    # fence:22 is a tree of 21 pairs: |M| = |AM| = 21!, above sys.maxsize,
    # where len() stops
    code, out = run(capsys, "decide", "--family", "fence:22", "--bound", "40", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert (data["am_order"], data["p_order"]) == (factorial(21), 2)
    assert data["all_proper"] is False
    code, out = run(capsys, "enumerate", "m", "--family", "fence:22", "--bound", "40")
    assert code == 0
    assert out == "order: 51090942171709440000\n"


@pytest.mark.parametrize(
    "selector, am_order, p_order, all_proper",
    [
        ("kmn:6x6", 1036800, 1036800, True),
        ("crown:9", 2 * factorial(9) ** 2, 36, False),
        ("fence:21", factorial(20), 2, False),
        ("fence:25", factorial(24), 2, False),
        ("crown:11", 2 * factorial(11) ** 2, 44, False),
    ],
)
def test_frontier_posets_decide_in_seconds(capsys, selector, am_order, p_order, all_proper):
    # P's tower is built by leaf searches, never by listing P: kmn:6x6 has
    # |P| = 1036800, and crowns and fences hide their few poset maps from a
    # search that places elements away from those already placed
    start = time.perf_counter()
    argv = ["decide", "--family", selector, "--bound", "40", "--format", "json"]
    code, out = run(capsys, *argv)
    elapsed = time.perf_counter() - start
    assert code == 0
    data = json.loads(out)
    assert data["am_order"] == am_order and data["p_order"] == p_order
    assert data["all_proper"] is all_proper
    assert elapsed < 10.0


@pytest.mark.parametrize("selector, order", [("crown:11", 44), ("fence:21", 2)])
def test_frontier_posets_aut_in_seconds(capsys, selector, order):
    # most elements of a crown or fence share (|below|, |above|): only a
    # search that places each element next to a placed one finds the few
    # maps without backtracking through the rest
    start = time.perf_counter()
    code, out = run(capsys, "aut", "--family", selector, "--format", "json")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out)["order"] == order
    assert elapsed < 10.0


def test_closed_output_pipe_exits_141_silently():
    # aut kmn:5x5 writes 28800 lines, far past a pipe's buffer, so the CLI
    # is still writing when the reader closes after one line
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(posetlie.__file__)))
    with subprocess.Popen(
        [sys.executable, "-m", "posetlie.cli", "aut", "--family", "kmn:5x5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.readline() == b"order: 28800\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""


def test_decide_crown3(capsys):
    code, out = run(capsys, "decide", "--family", "crown:3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["all_proper"] is False
    assert data["am_order"] == 72 and data["p_order"] == 12
    assert data["counterexample"]


def test_decide_text_mentions_witness(capsys):
    code, out = run(capsys, "decide", "--family", "crown:3")
    assert code == 0
    assert "all_proper: False" in out
    assert "witness" in out


def test_verify_block(capsys):
    code, out = run(capsys, "verify", "example6")
    assert code == 0
    assert "PASS example6_supports" in out
    assert "0 failed" in out


def test_verify_all_green(capsys):
    code, out = run(capsys, "verify", "all")
    assert code == 0
    assert "0 failed" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("spec", ["q", "fp:3"])
def test_verify_reports_its_field(capsys, spec):
    # a saved report says which field it checked, in JSON and in text
    code, out = run(capsys, "verify", "algebra", "--field", spec, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["field"] == spec
    assert sorted(data) == ["checks", "failed", "field", "passed"]
    code, out = run(capsys, "verify", "algebra", "--field", spec)
    assert code == 0
    lines = out.splitlines()
    assert lines[-2:] == ["field: %s" % spec, "%d passed, 0 failed" % data["passed"]]
    assert all(line.startswith("PASS ") for line in lines[:-2])


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nonsense"]) == 2


def test_bad_selector_is_usage_error(capsys):
    assert main(["info", "--family", "moon:1"]) == 2


def test_missing_source_is_usage_error(capsys):
    assert main(["info"]) == 2


@pytest.mark.parametrize(
    "command", [["info"], ["decide"], ["enumerate", "am"]], ids=" ".join
)
def test_family_and_file_together_are_usage_error(capsys, command):
    # the file is not read: argparse refuses the pair before any handler runs
    with pytest.raises(SystemExit) as exit_info:
        main(command + ["--family", "crown:3", "--file", "/nonexistent"])
    assert exit_info.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["fp:6", "fp:100000000000000000039"])
def test_bad_field_is_usage_error(capsys, spec):
    # a modulus of 2^31 or more is refused before any trial division
    assert main(["verify", "algebra", "--field", spec]) == 2


def test_bound_exceeded_exit_code(capsys):
    # |B| = 10 is past the default bound of 9
    assert main(["enumerate", "m", "--family", "crown:5"]) == 3
    capsys.readouterr()
    assert main(["enumerate", "am", "--family", "crown:3", "--bound", "5"]) == 3
    assert capsys.readouterr() == ("", "error: |B| = 6 exceeds the enumeration bound 5\n")
    # raising the bound lets the tower be built
    code, out = run(capsys, "enumerate", "am", "--family", "crown:4", "--bound", "8")
    assert code == 0
    assert out.startswith("order: 1152\n")


def test_bound_is_checked_before_any_search(capsys, monkeypatch):
    from posetlie import bijections, chains

    def unreachable(poset):
        raise AssertionError("searched past the bound")

    for module, name in (
        (bijections, "enumerate_M"), (bijections, "enumerate_AM"), (chains, "decide_all_proper"),
    ):
        monkeypatch.setattr(module, name, unreachable)
    for argv in (
        ["enumerate", "m", "--family", "crown:5"],
        ["enumerate", "am", "--family", "crown:5", "--bound", "9"],
        ["decide", "--family", "crown:5"],
        ["decide", "--family", "crown:2", "--bound", "0"],
    ):
        assert main(argv) == 3


def test_bound_does_not_apply_to_enumerate_p(capsys):
    # P is listed from the poset symmetries, never bounded
    assert main(["enumerate", "p", "--family", "crown:5", "--bound", "3"]) == 2
    assert capsys.readouterr() == ("", "error: --bound does not apply to enumerate p\n")
    code, out = run(capsys, "enumerate", "p", "--family", "crown:5")
    assert code == 0
    assert out.startswith("order: 20\n")


def test_bad_file_reports_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.poset"
    path.write_text("poset v1\nelements: a b\nrelations: a<b b<a\n")
    assert main(["info", "--file", str(path)]) == 1  # cycle: a domain error

    path2 = tmp_path / "missing_header.poset"
    path2.write_text("elements: a\nrelations:\n")
    assert main(["info", "--file", str(path2)]) == 2

    # unreadable files are usage errors too, reported without a traceback
    not_utf8 = tmp_path / "utf16.poset"
    not_utf8.write_bytes(b"\xff\xfep\x00o\x00")
    capsys.readouterr()
    for bad in (tmp_path / "missing.poset", tmp_path, not_utf8):
        assert main(["info", "--file", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("spec", ["fp:2", "fp:7", "fp:2147483647"])
def test_prime_field_flag_accepted(capsys, spec):
    code, out = run(
        capsys, "verify", "algebra", "--field", spec, "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0


@pytest.mark.parametrize(
    "flags",
    [["--bound", "-1"], ["--bound", "x"]],
    ids=["bound-negative", "bound-not-integer"],
)
def test_invalid_integer_flags_are_usage_errors(capsys, flags):
    with pytest.raises(SystemExit) as exit_info:
        main(["decide", "--family", "crown:3"] + flags)
    assert exit_info.value.code == 2
    assert "error: argument" in capsys.readouterr().err


def test_smallest_valid_integer_flags_are_accepted(capsys):
    assert main(["decide", "--family", "crown:2", "--bound", "0"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "--family", "crown:3", "--jobs", "2"],
        ["info", "--family", "crown:3", "--field", "q"],
        ["verify", "all", "--bound", "3"],
    ],
    ids=["decide-jobs", "info-field", "verify-bound"],
)
def test_flags_a_subcommand_does_not_read_are_unrecognized(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err


def run_in_process(capsys, argv):
    """main's exit code, or argparse's SystemExit code, and its output."""
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    out, err = capsys.readouterr()
    return code, out, err


def test_repeated_main_calls_behave_like_fresh_processes(capsys, monkeypatch):
    # main builds its parser once per process: a usage error or --help on
    # one call leaves nothing that changes a later call's output
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(posetlie.__file__)))
    first = ["decide", "--family", "example:6", "--format", "json"]
    calls = [
        (first, 0),
        (["decide", "--bound", "-1"], 2),
        (["decide", "--family", "crown:3", "--file", "/nonexistent"], 2),
        (["--help"], 0),
        (["decide", "--family", "moon:1"], 2),
        (["enumerate", "am", "--family", "crown:3", "--bound", "5"], 3),
        (first, 0),
    ]
    fresh = {}
    for argv, code in calls:
        key = tuple(argv)
        if key not in fresh:
            proc = subprocess.run(
                [sys.executable, "-m", "posetlie.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            fresh[key] = (proc.returncode, proc.stdout, proc.stderr)
        assert fresh[key][0] == code
        assert run_in_process(capsys, argv) == fresh[key]


def test_help_width_follows_columns_on_every_call(capsys, monkeypatch):
    texts = []
    for columns in ("40", "200", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, err = run_in_process(capsys, ["--help"])
        assert (code, err) == (0, "")
        assert out == build_parser().format_help()
        texts.append(out)
    assert texts[0] != texts[1] and texts[0] == texts[2]


def test_build_parser_returns_a_parser_main_does_not_share(capsys):
    assert run(capsys, "info", "--family", "chain:2")[0] == 0  # main's parser is built
    parser = build_parser()
    assert parser is not build_parser()
    parser.add_argument("--jobs")
    assert parser.parse_args(["--jobs", "2", "info"]).jobs == "2"
    # main's parser has no --jobs, so it reads "2" as the command
    code, out, err = run_in_process(capsys, ["--jobs", "2", "info", "--family", "chain:2"])
    assert (code, out) == (2, "")
    assert "invalid choice: '2'" in err
