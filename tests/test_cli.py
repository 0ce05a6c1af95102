"""Command-line surface: exit codes, JSON schema stability, SVG output."""

import itertools
import json
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

from markov_torus import cli as cli_module
from markov_torus import construct as construct_module
from markov_torus import partition, walk
from markov_torus.cli import (
    CELL_CAP_ENV,
    DEFAULT_ENUM_CAP,
    ENUM_CAP_ENV,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_REJECT,
    WALK_WORD_BUDGET,
    CliError,
    RunConfig,
    main,
    parse_digits,
    parse_matrix,
    parse_rationals,
)
from markov_torus.coding import CodingContext
from markov_torus.construct import build_markov_construction
from markov_torus.sft import count_periodic
from markov_torus.torus import Mat2Z, count_periodic_points, is_hyperbolic
from markov_torus.walk import WordVisitor, count_words, walk_words

GOLDEN = Path(__file__).parent / "golden"
FIB = "1 1 1 0"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# -- exit statuses -------------------------------------------------------------


def test_analyze_hyperbolic_exit_zero(capsys):
    code, out, _ = run(capsys, "analyze", "--matrix", FIB)
    assert code == EXIT_OK
    assert "hyperbolic" in out
    assert "1/2 + 1/2*sqrt(5)" in out


def test_analyze_shear_rejected(capsys):
    # analyze answers on stdout: the rejection and its reason are the report
    code, out, _ = run(capsys, "analyze", "--matrix", "1 1 0 1")
    assert code == EXIT_REJECT
    assert "rejected" in out


def test_analyze_nonunimodular_rejected(capsys):
    code, out, _ = run(capsys, "analyze", "--matrix", "2 0 0 2")
    assert code == EXIT_REJECT
    assert "rejected" in out


def test_analyze_rejection_json_report(capsys):
    code, payload, _ = run_json(capsys, "analyze", "--matrix", "1 1 0 1", "--json")
    assert code == EXIT_REJECT
    assert payload["schema"] == 1
    assert payload["hyperbolic"] is False
    assert payload["reason"]


def test_non_hyperbolic_rejected_everywhere(capsys):
    for command in ("construct", "verify", "encode", "decode", "periodic",
                    "render"):
        extra = []
        if command == "encode":
            extra = ["--point", "1/3 1/7"]
        if command == "decode":
            extra = ["--word", "0,0"]
        code, _, err = run(capsys, command, "--matrix", "0 1 1 0", *extra)
        assert code == EXIT_REJECT, command
        assert "rejected" in err, command


def test_verify_all_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--matrix", FIB, "--depth", "3")
    assert code == EXIT_OK
    assert "FAIL" not in out
    for name in ("counts", "areas_base", "areas_refined", "interiors_disjoint",
                 "boundaries_base", "boundaries_refined", "nfold_base",
                 "nfold_refined", "generator_decay"):
        assert name in out


SMALL_HYPERBOLIC = [
    " ".join(map(str, entries))
    for entries in itertools.product(range(-2, 3), repeat=4)
    if is_hyperbolic(Mat2Z(*entries))
]


def test_small_matrix_sweep_is_complete():
    assert len(SMALL_HYPERBOLIC) == 40


@pytest.mark.parametrize("matrix", SMALL_HYPERBOLIC)
def test_verify_sweep_small_matrices(capsys, matrix):
    """Every hyperbolic matrix with entries in [-2, 2] passes the whole
    verify battery at depth 4."""
    code, payload, _ = run_json(capsys, "verify", "--matrix", matrix,
                                "--depth", "4", "--json")
    assert code == EXIT_OK
    assert payload["all_ok"] is True
    assert all(check["ok"] for check in payload["checks"])

def test_verify_negative_control_fails(capsys):
    code, out, _ = run(capsys, "verify", "--matrix", FIB, "--inject-break")
    assert code == EXIT_FAIL
    assert "FAIL" in out
    assert "witness" in out


def test_verify_json_shape(capsys):
    code, payload, _ = run_json(capsys, "verify", "--matrix", "2 1 1 1",
                                "--depth", "3", "--json")
    assert code == EXIT_OK
    assert payload["schema"] == 1
    assert payload["all_ok"] is True
    assert all(check["ok"] for check in payload["checks"])


@pytest.mark.parametrize("verifier, error, name", [
    ("verify_translate_disjoint", partition.InvariantError, "interiors_disjoint"),
    ("verify_boundary_alignment", ValueError, "boundaries_base"),
])
def test_an_aborted_check_fails_only_its_own_line(capsys, monkeypatch, verifier,
                                                  error, name):
    """A verifier that raises on the base partition turns that check's line
    into "verifier aborted", and every other line reads as in a clean run."""
    argv = ("verify", "--matrix", FIB, "--depth", "3", "--json")
    _, clean, _ = run_json(capsys, *argv)
    original = getattr(cli_module, verifier)

    def abort_on_base(part):
        if part.n == 2:
            raise error("planted failure")
        return original(part)

    monkeypatch.setattr(cli_module, verifier, abort_on_base)
    code, payload, _ = run_json(capsys, *argv)
    assert code == EXIT_FAIL and payload["all_ok"] is False
    assert [c["name"] for c in payload["checks"]] == [c["name"] for c in clean["checks"]]
    for got, want in zip(payload["checks"], clean["checks"]):
        if got["name"] == name:
            assert got == {"name": name, "ok": False,
                           "detail": "verifier aborted: planted failure"}
        else:
            assert got == want


# -- golden files: JSON output is byte-stable ----------------------------------


@pytest.mark.parametrize("name, argv", [
    ("analyze_fibonacci", ("analyze", "--matrix", FIB, "--json")),
    ("construct_fibonacci", ("construct", "--matrix", FIB, "--json")),
    ("verify_fibonacci", ("verify", "--matrix", FIB, "--depth", "3", "--json")),
    # MINUS_MINUS: the shift undercounts the torus at odd n
    ("periodic_minus_2_3_1_2",
     ("periodic", "--matrix", "-2 -3 -1 -2", "--depth", "8", "--json")),
    # MINUS_MINUS: the centre, diameter and decay bound taken in integers
    ("decode_minus_2_3_1_2",
     ("decode", "--matrix", "-2 -3 -1 -2", "--word", "0,2,7,3,0,0,2,5,0@-4", "--json")),
    # MINUS_MINUS: a boundary point's codings, stepped from one located iterate
    ("encode_minus_2_3_1_2_origin",
     ("encode", "--matrix", "-2 -3 -1 -2", "--point", "0 0", "--depth", "3", "--json")),
])
def test_golden_json(capsys, name, argv):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    golden = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert out == golden


@pytest.mark.parametrize("name, matrix", [
    ("verify_break_fibonacci", FIB),
    ("verify_break_minus_2_3_1_2", "-2 -3 -1 -2"),
])
def test_golden_inject_break(capsys, name, matrix):
    """The negative control fails every check it should, with the same
    messages: which check aborts, the first empty cylinder, the first
    clipped window cell."""
    code, out, _ = run(capsys, "verify", "--matrix", matrix, "--depth", "5",
                       "--inject-break", "--json")
    assert code == EXIT_FAIL
    golden = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert out == golden


def test_construct_json_schema(capsys):
    code, payload, _ = run_json(capsys, "construct", "--matrix", FIB, "--json")
    assert code == EXIT_OK
    assert payload["schema"] == 1
    assert sorted(payload) == sorted([
        "schema", "matrix", "C", "P", "epsilon", "case", "rho",
        "corner_points", "cells", "graph_2node", "graph_Nstar",
        "verifier_results",
    ])
    assert payload["graph_2node"] == {
        "size": 2, "entries": [1, 1, 1, 0], "labels": ["I", "II"],
    }
    assert payload["graph_Nstar"]["size"] == 3
    assert [c["label"] for c in payload["cells"]] == [
        "I,I@-1", "I,II@-1", "II,I@-1",
    ]
    names = [p["name"] for p in payload["corner_points"]]
    assert len(names) == 17 and "c'" in names and "d_star" in names
    for point in payload["corner_points"]:
        for coord in ("u", "w", "x", "y"):
            value = point[coord]
            assert set(value) == {"exact", "decimal"}
            whole, _, places = value["decimal"].partition(".")
            assert len(places) == 12 and whole.lstrip("-").isdigit()
    assert payload["verifier_results"]["build_cross_checks"] is True


# -- SVG -----------------------------------------------------------------------


def test_construct_svg_file(tmp_path, capsys):
    target = tmp_path / "fib.svg"
    code, _, _ = run(capsys, "construct", "--matrix", FIB,
                     "--svg", str(target))
    assert code == EXIT_OK
    text = target.read_text(encoding="utf-8")
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    code, _, _ = run(capsys, "construct", "--matrix", FIB,
                     "--svg", str(target))
    assert target.read_text(encoding="utf-8") == text  # deterministic


def test_render_stdout_is_construct_figure(tmp_path, capsys):
    target = tmp_path / "fig.svg"
    run(capsys, "construct", "--matrix", FIB, "--svg", str(target))
    code, out, _ = run(capsys, "render", "--matrix", FIB)
    assert code == EXIT_OK
    assert out == target.read_text(encoding="utf-8")


def test_svg_contents(capsys):
    _, out, _ = run(capsys, "render", "--matrix", "2 3 1 2")
    ET.fromstring(out)
    assert "<polygon" in out and "<circle" in out and "<text" in out
    # the corner points keep their names (o/a coincide in untranslated cases)
    assert ">o=a</text>" in out or ">o</text>" in out
    assert "clip-path" in out


def test_render_translated_case_handles_points_outside_unit_square(capsys):
    # negated matrices flip the contracting sign: corner points such as c'
    # slide off the unit square and the figure must still be drawable
    _, out, _ = run(capsys, "render", "--matrix", "-1 -1 -1 0", "--depth", "0")
    ET.fromstring(out)
    assert ">c'</text>" in out


def test_render_depth_cap(capsys, monkeypatch):
    over = str(DEFAULT_ENUM_CAP + 1)
    code, _, err = run(capsys, "render", "--matrix", FIB, "--depth", over)
    assert code == EXIT_FAIL
    assert ENUM_CAP_ENV in err
    monkeypatch.setenv(ENUM_CAP_ENV, str(DEFAULT_ENUM_CAP + 1))
    code, out, _ = run(capsys, "render", "--matrix", FIB, "--depth", over)
    assert code == EXIT_OK
    ET.fromstring(out)


def test_render_refuses_a_figure_over_the_word_budget(capsys, monkeypatch, tmp_path):
    """The depth-k figure of 1 1 1 0 has 1ᵀ·P^k·1 cells, 5 at depth 2 and 8 at
    depth 3: counted before any cell is built, and refused over the budget
    with exit 1 and no figure."""
    monkeypatch.setattr("markov_torus.cli.WALK_WORD_BUDGET", 5)
    code, out, _ = run(capsys, "render", "--matrix", FIB, "--depth", "2")
    assert code == EXIT_OK
    assert "5 cells at depth 2" in out

    def no_walk(*args):
        raise AssertionError("the word tree was walked")

    monkeypatch.setattr(walk, "walk_words", no_walk)
    svg = tmp_path / "out.svg"
    code, out, err = run(capsys, "render", "--matrix", FIB, "--depth", "3", "--svg", str(svg))
    assert code == EXIT_FAIL and out == "" and not svg.exists()
    assert "8 cells, over the budget of 5" in err and "use a lower --depth" in err


@pytest.mark.parametrize("command", ["construct", "render"])
def test_unwritable_svg_path_fails_cleanly(capsys, tmp_path, command):
    target = tmp_path / "missing" / "x.svg"
    code, out, err = run(capsys, command, "--matrix", FIB, "--svg", str(target))
    assert code == EXIT_FAIL and out == ""
    assert err.startswith(f"error: cannot write the figure to {target}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_render_svg_path_gets_the_stdout_figure(capsys, tmp_path):
    code, figure, _ = run(capsys, "render", "--matrix", FIB, "--depth", "2")
    assert code == EXIT_OK and "5 cells at depth 2" in figure
    svg = tmp_path / "out.svg"
    code, out, _ = run(capsys, "render", "--matrix", FIB, "--depth", "2", "--svg", str(svg))
    assert code == EXIT_OK and out == f"figure written to {svg}\n"
    assert svg.read_text(encoding="utf-8") == figure


def test_bad_enum_cap_env(capsys, monkeypatch):
    monkeypatch.setenv(ENUM_CAP_ENV, "zero")
    code, _, err = run(capsys, "render", "--matrix", FIB)
    assert code == EXIT_FAIL and ENUM_CAP_ENV in err
    monkeypatch.setenv(ENUM_CAP_ENV, "0")
    code, _, err = run(capsys, "render", "--matrix", FIB)
    assert code == EXIT_FAIL and ENUM_CAP_ENV in err


# N* = 17 cells
SEVENTEEN = "15 1 1 0"


@pytest.mark.parametrize("argv", [
    ("construct",), ("verify", "--depth", "1"), ("periodic", "--depth", "1"),
    ("render", "--depth", "0"), ("encode", "--point", "1/3 1/7", "--depth", "1"),
    ("decode", "--word", "0,1@0"),
], ids=lambda argv: argv[0])
def test_cell_cap_refuses_before_building(capsys, monkeypatch, argv):
    """Over the cap, every building command exits 1 at once, naming the
    variable, and no overlap table is built."""
    def no_table(*args):
        raise AssertionError("an overlap table was built")

    for module in (partition, walk):
        monkeypatch.setattr(module, "int_overlaps", no_table)
    monkeypatch.setenv(CELL_CAP_ENV, "16")
    code, out, err = run(capsys, argv[0], "--matrix", SEVENTEEN, *argv[1:])
    assert code == EXIT_FAIL and out == ""
    assert CELL_CAP_ENV in err and "N* = 17" in err and "Traceback" not in err


def test_cell_cap_admits_its_own_size(capsys, monkeypatch):
    monkeypatch.setenv(CELL_CAP_ENV, "17")
    code, out, _ = run(capsys, "construct", "--matrix", SEVENTEEN)
    assert code == EXIT_OK and "17" in out


def test_bad_cell_cap_env(capsys, monkeypatch):
    for raw in ("many", "0"):
        monkeypatch.setenv(CELL_CAP_ENV, raw)
        code, _, err = run(capsys, "construct", "--matrix", FIB)
        assert code == EXIT_FAIL and CELL_CAP_ENV in err


def test_cell_cap_keeps_rejections_of_bad_matrices(capsys, monkeypatch):
    monkeypatch.setenv(CELL_CAP_ENV, "1")
    code, _, err = run(capsys, "construct", "--matrix", "1 1 0 1")
    assert code == EXIT_REJECT and CELL_CAP_ENV not in err


@pytest.mark.parametrize("argv", [
    ("construct",), ("verify", "--depth", "1"), ("periodic", "--depth", "1"),
    ("render", "--depth", "0"), ("encode", "--point", "1/3 1/7", "--depth", "1"),
    ("decode", "--word", "0,1@0"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("matrix, distinct", [(FIB, 1), ("-1 -1 -1 0", 2), ("1 2 1 1", 2)])
def test_one_reduction_per_command(capsys, monkeypatch, argv, matrix, distinct):
    """A building command reduces its matrix once, for the cell cap and the
    build alike, and takes each matrix's eigen-data once: the input's, and
    the model's where it differs (-1 -1 -1 0 reduces to -(1 1 1 0); 1 2 1 1
    is nonnegative but its slope is oriented by an axis swap)."""
    reductions, eigens = [], []
    reduce, check = construct_module.conjugate_nonnegative, construct_module.hyperbolic_check

    def counted(matrix):
        reductions.append(matrix)
        return reduce(matrix)

    monkeypatch.setattr(construct_module, "conjugate_nonnegative", counted)
    monkeypatch.setattr(construct_module, "hyperbolic_check",
                        lambda matrix: eigens.append(matrix) or check(matrix))
    code, _, _ = run(capsys, argv[0], "--matrix", matrix, *argv[1:])
    assert code == EXIT_OK
    assert len(reductions) == 1
    assert len(eigens) == len(set(eigens)) == distinct


# -- encode / decode -----------------------------------------------------------


def test_encode_matches_library(capsys):
    code, payload, _ = run_json(capsys, "encode", "--matrix", FIB,
                                "--point", "1/3 1/7", "--depth", "5", "--json")
    assert code == EXIT_OK
    ctx = CodingContext.from_matrix(Mat2Z(1, 1, 1, 0))
    word = ctx.encode((Fraction(1, 3), Fraction(1, 7)), 5)
    assert payload["ambiguous"] is False
    assert payload["word"] == str(word)
    assert payload["preimages"] == {
        "count": 1, "words": [str(word)], "truncated": False,
    }


def test_encode_origin_ambiguous(capsys):
    code, payload, _ = run_json(capsys, "encode", "--matrix", FIB,
                                "--point", "0 0", "--depth", "3", "--json")
    assert code == EXIT_OK
    assert payload["ambiguous"] is True
    assert payload["candidates"]
    assert payload["preimages"]["count"] == 3
    assert len(payload["preimages"]["words"]) == 3


def test_encode_max_words_truncation(capsys):
    code, payload, _ = run_json(capsys, "encode", "--matrix", FIB,
                                "--point", "0 0", "--depth", "3",
                                "--max-words", "2", "--json")
    assert code == EXIT_OK
    assert payload["preimages"]["count"] == 3
    assert payload["preimages"]["truncated"] is True
    assert payload["preimages"]["words"] == []


def test_encode_needs_point(capsys):
    code, _, err = run(capsys, "encode", "--matrix", FIB)
    assert code == EXIT_FAIL and "--point" in err


def test_decode_membership(capsys):
    ctx = CodingContext.from_matrix(Mat2Z(1, 1, 1, 0))
    word = ctx.encode((Fraction(1, 3), Fraction(1, 7)), 4)
    code, payload, _ = run_json(capsys, "decode", "--matrix", FIB,
                                "--word", str(word),
                                "--point", "1/3 1/7", "--json")
    assert code == EXIT_OK
    assert payload["contains_point"] is True
    assert set(payload["center"]) == {"x", "y"}
    assert float(payload["diam"]) <= float(payload["diameter_bound"]) + 1e-15


def test_decode_inadmissible_word(capsys):
    # refined cells of the Fibonacci model: 0 = (I,I), 2 = (II,I); 0 -> 2
    # needs the image cell of 0 to equal the containing cell of 2, which fails
    code, _, err = run(capsys, "decode", "--matrix", FIB, "--word", "0,2")
    assert code == EXIT_FAIL
    assert "not admissible" in err


@pytest.mark.parametrize("word", ["0@-1000", "0,1@-100000", "0@-1000000"])
def test_decode_refuses_a_far_off_window(capsys, monkeypatch, word):
    # moving such a cylinder to time 0 overflows a float or the int-to-str
    # limit, the last after half a minute; the cap refuses it before decoding
    def never(self, word):
        raise AssertionError(f"decode({word}) was called")

    monkeypatch.setattr(CodingContext, "decode", never)
    started = time.perf_counter()
    code, out, err = run(capsys, "decode", "--matrix", FIB, "--word", word)
    assert time.perf_counter() - started < 5
    assert code == EXIT_FAIL and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and ENUM_CAP_ENV in err


@pytest.mark.parametrize("word,cap", [("0@-1000", 2000), ("0@-12000", 20000)])
@pytest.mark.parametrize("as_json", [False, True])
def test_decode_too_large_to_print_fails_cleanly(capsys, monkeypatch, word,
                                                 cap, as_json):
    # with the cap raised the cylinder decodes, but its diameter overflows a
    # float (0@-1000) or its exact numbers pass Python's int-to-str digit
    # limit (0@-12000)
    monkeypatch.setenv(ENUM_CAP_ENV, str(cap))
    argv = ["decode", "--matrix", FIB, "--word", word] + ["--json"] * as_json
    code, out, err = run(capsys, *argv)
    assert code == EXIT_FAIL and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and word in err


def test_decode_window_cap_counts_steps_from_time_zero(capsys, monkeypatch):
    # the nearest time of 0,1,2@-10 is -8: within the default cap
    code, _, _ = run(capsys, "decode", "--matrix", FIB, "--word", "0,1,2@-10")
    assert code == EXIT_OK
    code, _, err = run(capsys, "decode", "--matrix", FIB, "--word", "0@9")
    assert code == EXIT_FAIL and "9 steps" in err
    monkeypatch.setenv(ENUM_CAP_ENV, "9")
    code, _, _ = run(capsys, "decode", "--matrix", FIB, "--word", "0@9")
    assert code == EXIT_OK


@pytest.mark.parametrize("argv", [
    ("analyze",), ("construct",), ("verify",), ("encode", "--point", "1/3 1/7"),
    ("decode", "--word", "0"), ("periodic",), ("render",),
], ids=lambda argv: argv[0])
def test_empty_matrix_is_a_parse_error(capsys, argv):
    code, out, err = run(capsys, argv[0], "--matrix", "", *argv[1:])
    assert code == EXIT_FAIL and out == ""
    assert "--matrix needs four integers" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, code", [
    (("verify", "--matrix", FIB), EXIT_OK),
    (("encode", "--matrix", FIB, "--point", "1/3 1/7"), EXIT_OK),
    (("render", "--matrix", FIB), EXIT_OK),
    (("periodic", "--matrix", FIB), EXIT_FAIL),
    (("multmap", "--point", "1/3"), EXIT_FAIL),
], ids=lambda value: value[0] if isinstance(value, tuple) else None)
def test_depth_zero_per_command(capsys, argv, code):
    """As the README states: ``verify``, ``encode`` and ``render`` run at
    depth 0; ``periodic`` and ``multmap`` refuse it with one error line."""
    got, out, err = run(capsys, *argv, "--depth", "0")
    assert got == code
    if code == EXIT_OK:
        assert out and err == ""
    else:
        assert out == "" and err.startswith("error: --depth must be >= 1") and err.count("\n") == 1


@pytest.mark.parametrize("argv, count", [
    (("decode", "--matrix", FIB, "--word", "0"), 2),
    (("encode", "--matrix", FIB), 2),
    (("multmap",), 1),
], ids=lambda value: value[0] if isinstance(value, tuple) else None)
def test_empty_point_is_a_parse_error(capsys, argv, count):
    """An empty --point is parsed like any other, not dropped: decode would
    otherwise skip its membership test and exit 0."""
    code, out, err = run(capsys, *argv, "--point", "")
    assert code == EXIT_FAIL and out == ""
    assert f"--point needs {count} rational number(s)" in err


def test_decode_word_parse_error(capsys):
    code, _, err = run(capsys, "decode", "--matrix", FIB, "--word", "sideways")
    assert code == EXIT_FAIL
    assert "cannot parse" in err


# -- periodic ------------------------------------------------------------------


def test_periodic_counts_match_library(capsys):
    code, payload, _ = run_json(capsys, "periodic", "--matrix", "2 1 1 1",
                                "--depth", "5", "--json")
    assert code == EXIT_OK
    mat = Mat2Z(2, 1, 1, 1)
    construction = build_markov_construction(mat)
    for row in payload["rows"]:
        n = row["n"]
        assert row["torus"] == count_periodic_points(mat, n)
        assert row["sft_2node"] == count_periodic(construction.graph, n)
        assert row["sft_refined"] == count_periodic(construction.refined_graph, n)


LADDER = ("1 1 1 0", "-1 -1 -1 0", "2 1 1 1", "0 1 1 3", "-2 -3 -1 -2", "3 2 1 1",
          "5 2 2 1", "10 1 1 0", "15 1 1 0")


@pytest.mark.parametrize("text", LADDER)
def test_periodic_recurrences_match_matrix_powers(capsys, text):
    """The counts carried by the trace recurrences equal those of matrix
    powers, tr(P^n) of the 2-node graph and |det(A^n - I)|, for n <= 40."""
    code, payload, _ = run_json(capsys, "periodic", "--matrix", text, "--depth", "40", "--json")
    assert code == EXIT_OK
    mat = Mat2Z(*map(int, text.split()))
    construction = build_markov_construction(mat)
    assert [row["n"] for row in payload["rows"]] == list(range(1, 41))
    for row in payload["rows"]:
        n = row["n"]
        assert row["torus"] == count_periodic_points(mat, n)
        assert row["sft_2node"] == row["sft_refined"] == count_periodic(construction.graph, n)


@pytest.mark.parametrize("form", [(), ("--json",)], ids=["text", "json"])
def test_periodic_refuses_counts_it_cannot_print(capsys, form):
    """At n = 25000 the counts of 1 1 1 0 have about 5,200 digits, over
    Python's default limit on int-to-string conversion: refused before any
    row is counted, with nothing on stdout."""
    start = time.perf_counter()
    code, out, err = run(capsys, "periodic", "--matrix", FIB,
                         "--depth", "25000", *form)
    assert time.perf_counter() - start < 20
    assert code == EXIT_FAIL
    assert out == ""
    assert "--depth 25000" in err
    assert "use a lower --depth" in err


# -- multmap -------------------------------------------------------------------


def test_multmap_two_expansions(capsys):
    code, payload, _ = run_json(capsys, "multmap", "--point", "1/2",
                                "--depth", "6", "--json")
    assert code == EXIT_OK
    assert payload["ambiguous"] is True
    assert payload["expansions"] == [[0, 1, 1, 1, 1, 1], [1, 0, 0, 0, 0, 0]]


def test_multmap_encode_third(capsys):
    code, payload, _ = run_json(capsys, "multmap", "--point", "1/3",
                                "--depth", "8", "--json")
    assert code == EXIT_OK
    assert payload["digits"] == [0, 1] * 4
    assert payload["partial_sum"]["exact"] == "85/256"


def test_multmap_decode_interval(capsys):
    code, payload, _ = run_json(capsys, "multmap", "--word", "1,0,0", "--json")
    assert code == EXIT_OK
    assert payload["value"]["exact"] == "1/2"
    assert payload["width"] == "1/8"
    assert payload["interval"] == ["1/2", "5/8"]


def test_multmap_argument_validation(capsys):
    code, _, err = run(capsys, "multmap", "--point", "1/2", "--base", "1")
    assert code == EXIT_FAIL
    code, _, err = run(capsys, "multmap", "--word", "5,0", "--base", "2")
    assert code == EXIT_FAIL and "out of range" in err
    code, _, err = run(capsys, "multmap")
    assert code == EXIT_FAIL and "exactly one" in err
    code, _, err = run(capsys, "multmap", "--point", "1/2", "--word", "1")
    assert code == EXIT_FAIL and "exactly one" in err


def test_multmap_refuses_a_depth_below_one(capsys):
    code, out, err = run(capsys, "multmap", "--point", "1/3", "--depth", "0")
    assert (code, out) == (EXIT_FAIL, "")
    assert err == "error: --depth must be >= 1 for multmap\n"


_LONG_WORD = ",".join(["1"] * 15000)


@pytest.mark.parametrize("argv, fix", [
    (("--point", "1/3", "--depth", "15000"), "use a lower --depth"),
    (("--point", "1/3", "--depth", "60000"), "use a lower --depth"),
    (("--word", _LONG_WORD), "use a shorter --word"),
], ids=["point", "point-60000", "word"])
@pytest.mark.parametrize("json_out", [False, True], ids=["text", "json"])
def test_multmap_refuses_values_over_the_digit_limit(capsys, argv, fix, json_out):
    """A partial sum or cylinder too long for ``str`` is one error line that
    names the interpreter's limit, in text and in JSON, not a traceback."""
    code, out, err = run(capsys, "multmap", *argv, *(["--json"] if json_out else []))
    assert (code, out) == (EXIT_FAIL, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"than the {sys.get_int_max_str_digits()} this interpreter prints" in err
    assert err.rstrip().endswith(fix)


# -- parsing and config invariants ---------------------------------------------


def test_parse_matrix_forms():
    assert parse_matrix("1 1 1 0") == Mat2Z(1, 1, 1, 0)
    assert parse_matrix("1,1,1,0") == Mat2Z(1, 1, 1, 0)
    assert parse_matrix("-2, 3, 1, -2") == Mat2Z(-2, 3, 1, -2)
    with pytest.raises(CliError):
        parse_matrix("1 2 3")
    with pytest.raises(CliError):
        parse_matrix("1 2 3 x")


def test_parse_rationals():
    assert parse_rationals("1/3 -2/5", 2) == (Fraction(1, 3), Fraction(-2, 5))
    assert parse_rationals("4", 1) == (Fraction(4),)
    with pytest.raises(CliError):
        parse_rationals("1/3", 2)
    with pytest.raises(CliError):
        parse_rationals("1/0 0", 2)


def test_parse_digits():
    assert parse_digits("1,0,1", 2) == (1, 0, 1)
    with pytest.raises(CliError):
        parse_digits("", 2)
    with pytest.raises(CliError):
        parse_digits("a,b", 2)
    with pytest.raises(CliError):
        parse_digits("2", 2)


def test_runconfig_depth_invariants():
    RunConfig(command="verify", depth=DEFAULT_ENUM_CAP)
    with pytest.raises(CliError):
        RunConfig(command="verify", depth=DEFAULT_ENUM_CAP + 1)
    RunConfig(command="verify", depth=DEFAULT_ENUM_CAP + 1,
              enum_cap=DEFAULT_ENUM_CAP + 1)
    # non-enumerating commands are not capped
    RunConfig(command="multmap", depth=50)
    with pytest.raises(CliError):
        RunConfig(command="encode", depth=-1)
    with pytest.raises(CliError):
        RunConfig(command="encode", max_words=0)


# -- end-to-end module invocation ----------------------------------------------


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "markov_torus", "analyze", "--matrix", FIB],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "hyperbolic" in proc.stdout


def test_python_dash_m_rejection_status():
    proc = subprocess.run(
        [sys.executable, "-m", "markov_torus", "analyze", "--matrix", "1 0 0 1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2


def test_verify_refuses_a_walk_over_the_word_budget(capsys):
    """40 1 1 0 at depth 3 needs 110,613,410 refined words: refused before
    any walk starts, with the count and a way out."""
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--matrix", "40 1 1 0", "--depth", "3")
    assert time.perf_counter() - start < 20
    assert code == EXIT_FAIL
    assert out == ""
    assert "110,613,410 words" in err
    assert f"budget of {WALK_WORD_BUDGET:,}" in err
    assert "lower --depth" in err


@pytest.mark.parametrize("matrix, depth", [("200 1 1 0", "1"), ("100 1 1 0", "0")])
def test_verify_refusal_offers_no_depth_when_none_fits(capsys, matrix, depth):
    """Every depth walks both word trees to length 3, which here already
    exceeds the budget: one error line, and no lower depth offered."""
    code, out, err = run(capsys, "verify", "--matrix", matrix, "--depth", depth)
    assert code == EXIT_FAIL
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "no --depth fits" in err
    assert "lower --depth" not in err


class _Words(WordVisitor):
    def __init__(self, max_len):
        self.max_len = max_len
        self.words = 0

    def visit(self, word, pieces):
        self.words += 1


@pytest.mark.parametrize("matrix", [FIB, "-1 -1 -1 0", "2 1 1 1", "-2 -3 -1 -2"])
def test_word_count_is_what_the_walk_visits(matrix):
    mc = build_markov_construction(parse_matrix(matrix))
    for part in (mc.base.partition, mc.refined):
        for max_len in range(0, 6):
            words = _Words(max_len)
            walk_words(part, [words])
            assert count_words(part, max_len) == words.words
