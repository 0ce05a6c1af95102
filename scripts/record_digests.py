#!/usr/bin/env python3
"""Record the exit codes and output digests of a fixed CLI battery.

    PYTHONPATH=src python3 scripts/record_digests.py

Runs every command of ``BATTERY`` in-process through ``cli.main`` and writes,
per run, its exit code and the SHA-256 of its stdout and of its stderr to
``tests/golden/digests.json``; ``tests/test_digests.py`` runs the battery
again and compares.  Run it only at a commit whose outputs are the
reference: a change that only restructures the code must leave every digest
as it is, and one that changes an output on purpose lists each digest it
moves.  Takes a few seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from markov_torus import cli

DIGESTS = Path(__file__).resolve().parents[1] / "tests" / "golden" / "digests.json"

# the benchmark's ladder, N* 3 to 17 over all four sign cases, then N* 42 and
# 202, a model reached by a longer reduction, and a matrix over d = 12; each
# with the word its encode run gives for the point below, which decode reads
POINT = "1/3 1/7"
MATRICES = {
    "1 1 1 0": "0,0,0,0,1@-2",
    "-1 -1 -1 0": "0,0,1,2,0@-2",
    "2 1 1 1": "3,0,2,3,1@-2",
    "0 1 1 3": "2,2,1,2,0@-2",
    "-2 -3 -1 -2": "7,3,0,0,2@-2",
    "3 2 1 1": "1,1,0,1,0@-2",
    "5 2 2 1": "4,4,4,0,2@-2",
    "10 1 1 0": "9,0,7,6,4@-2",
    "15 1 1 0": "9,11,12,9,12@-2",
    "40 1 1 0": "24,14,33,26,20@-2",
    "200 1 1 0": "47,46,170,133,37@-2",
    "8 1 17 2": "19,5,6,1,4@-2",
    "-2 3 1 -2": "2,2,4,5,2@-2",
}

MULTMAP = (
    ["--point", "1/3"],
    ["--point", "3/8"],  # a base-2 rational: both expansions
    ["--point", "2/7", "--base", "3", "--depth", "12"],
    ["--word", "1,0,1"],
    ["--word", "2,0,1,1", "--base", "3"],
)


def _battery() -> list[list[str]]:
    runs = []
    for matrix, word in MATRICES.items():
        m = ["--matrix", matrix]
        for argv in (["analyze", *m], ["construct", *m],
                     ["verify", *m, "--depth", "1"],
                     ["verify", *m, "--depth", "1", "--inject-break"],
                     ["encode", *m, "--point", POINT, "--depth", "2"],
                     ["encode", *m, "--point", "0 0", "--depth", "2"],
                     ["decode", *m, "--word", word, "--point", POINT],
                     ["periodic", *m, "--depth", "12"]):
            runs += [argv, argv + ["--json"]]
    runs += [["render", "--matrix", matrix] for matrix in ("1 1 1 0", "-2 3 1 -2")]
    runs += [["multmap", *form, *json_out] for form in MULTMAP for json_out in ([], ["--json"])]
    return runs


BATTERY = _battery()


def key(argv: list[str]) -> str:
    return " ".join(argv)


def run(argv: list[str]) -> dict:
    """One in-process ``cli.main`` run: its exit code and the SHA-256 of its
    stdout and stderr.  The depth and cell caps are the defaults."""
    out, err = io.StringIO(), io.StringIO()
    saved = {name: os.environ.pop(name, None) for name in (cli.ENUM_CAP_ENV, cli.CELL_CAP_ENV)}
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.environ.update({name: value for name, value in saved.items() if value is not None})
    return {"exit": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def main() -> None:
    digests = {key(argv): run(argv) for argv in BATTERY}
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"{len(digests)} runs written to {DIGESTS}")


if __name__ == "__main__":
    main()
