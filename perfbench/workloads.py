"""The benchmark's fixed inputs and the canonical text of each output.

Matrices are fixed, not seeded: the reduction to a nonnegative model
depends on how A is written, so a random conjugate C*A*C^-1 of one matrix
lands on a different model and N* (conjugates of ``10 1 1 0`` reduce to N*
of 12, 21, 28 or 29; of ``0 1 1 3`` to 5 or 7).  A seeded matrix would make
the work of a run depend on the seed.  Only the coding points are seeded.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

GOLDENS = Path(__file__).with_name("goldens.json")

# N* from 3 to 17, all four sign cases
LADDER = (
    "1 1 1 0", "-1 -1 -1 0", "2 1 1 1", "0 1 1 3", "-2 -3 -1 -2",
    "3 2 1 1", "5 2 2 1", "10 1 1 0", "15 1 1 0",
)

# (matrix, depth) for `markov-torus verify --json`
VERIFY = (
    ("1 1 1 0", 8), ("-1 -1 -1 0", 8), ("2 1 1 1", 6), ("0 1 1 3", 5),
    ("-2 -3 -1 -2", 5),
)

CODING_MATRIX = "1 1 1 0"
# Half-window of each round-trip.  A round-trip costs 2*depth+1 `locate`
# calls; at depth 6 one run of the benchmark fits the 100 round-trips that
# put ten samples beyond p90 (depth 12 would take about a minute).
CODING_DEPTH = 6
# Seeded points are drawn from this recorded pool, so every encoded word has
# a golden digest whatever the seed.
POOL_SIZE = 1024
POOL_SEED = 8128


def matrix_args(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split())


def verify_argv(matrix: str, depth: int, inject_break: bool = False) -> list[str]:
    argv = ["verify", "--matrix", matrix, "--depth", str(depth), "--json"]
    return argv + ["--inject-break"] if inject_break else argv


def verify_key(matrix: str, depth: int) -> str:
    return f"{matrix}@{depth}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def report_text(report: dict) -> str:
    """Canonical text of a ``construction_report``."""
    return json.dumps(report, sort_keys=True)


def draw_point(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A rational point with denominators at most 10,000, drawn as
    acceptance criterion 08 draws them."""
    den_x, den_y = rng.randint(1, 10_000), rng.randint(1, 10_000)
    return (Fraction(rng.randrange(den_x), den_x),
            Fraction(rng.randrange(den_y), den_y))


def pool_points() -> list[tuple[Fraction, Fraction]]:
    rng = random.Random(POOL_SEED)
    return [draw_point(rng) for _ in range(POOL_SIZE)]


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as handle:
        return json.load(handle)
