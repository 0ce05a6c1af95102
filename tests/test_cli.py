"""Command-line surface: exit codes, JSON schema stability, SVG output."""

import itertools
import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

from markov_torus.cli import (
    DEFAULT_ENUM_CAP,
    ENUM_CAP_ENV,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_REJECT,
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


# -- golden files: JSON output is byte-stable ----------------------------------


@pytest.mark.parametrize("name, argv", [
    ("analyze_fibonacci", ("analyze", "--matrix", FIB, "--json")),
    ("construct_fibonacci", ("construct", "--matrix", FIB, "--json")),
    ("verify_fibonacci", ("verify", "--matrix", FIB, "--depth", "3", "--json")),
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


def test_bad_enum_cap_env(capsys, monkeypatch):
    monkeypatch.setenv(ENUM_CAP_ENV, "zero")
    code, _, err = run(capsys, "render", "--matrix", FIB)
    assert code == EXIT_FAIL and ENUM_CAP_ENV in err
    monkeypatch.setenv(ENUM_CAP_ENV, "0")
    code, _, err = run(capsys, "render", "--matrix", FIB)
    assert code == EXIT_FAIL and ENUM_CAP_ENV in err


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
