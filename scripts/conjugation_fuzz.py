#!/usr/bin/env python3
"""Fuzz the unimodular reduction on random GL(2, Z) words.

Draws random products of elementary shears (optionally composed with the
axis swap and a global sign), runs the reduction to a nonnegative oriented
model on each hyperbolic result, re-verifies the defining identity
``C A C^-1 = eps * P`` exactly, and checks that trace and determinant
survive up to the sign ``eps``.  Prints running statistics and the
hardest instances found: largest conjugator entries and largest model
matrix entries, which gauge how large the continued-fraction basis and the
reduced model grow.  Exits nonzero on any reduction that fails to verify.

Example:

    python3 scripts/conjugation_fuzz.py --count 500 --word-length 8 --seed 7
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter

from markov_torus import (
    Mat2Z,
    NotHyperbolicError,
    conjugate_nonnegative,
    hyperbolic_check,
)


def random_unimodular(rng: random.Random, word_length: int, shear_max: int) -> Mat2Z:
    """A product of alternating lower/upper shears, optionally swapped and
    negated: these words cover GL(2, Z)."""
    matrix = Mat2Z.identity()
    lower = rng.random() < 0.5
    for _ in range(word_length):
        k = rng.randint(1, shear_max) * rng.choice((1, -1))
        matrix = matrix @ (Mat2Z(1, 0, k, 1) if lower else Mat2Z(1, k, 0, 1))
        lower = not lower
    if rng.random() < 0.5:
        matrix = matrix @ Mat2Z.swap()
    if rng.random() < 0.5:
        matrix = -matrix
    return matrix


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], allow_abbrev=False
    )
    parser.add_argument("--count", type=int, default=200,
                        help="how many random matrices to draw (default 200)")
    parser.add_argument("--word-length", type=int, default=6,
                        help="number of shear factors per word (default 6)")
    parser.add_argument("--shear-max", type=int, default=4,
                        help="largest shear amount per factor (default 4)")
    parser.add_argument("--seed", type=int, default=20260814,
                        help="RNG seed (default 20260814)")
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    eps_counts: Counter[int] = Counter()
    swap_count = 0
    non_hyperbolic = 0
    seen: set[Mat2Z] = set()
    worst_conj: tuple[int, Mat2Z] | None = None
    worst_model: tuple[int, Mat2Z] | None = None

    for _ in range(args.count):
        matrix = random_unimodular(rng, args.word_length, args.shear_max)
        try:
            eig = hyperbolic_check(matrix)
        except NotHyperbolicError:
            non_hyperbolic += 1
            continue
        result = conjugate_nonnegative(matrix)
        result.verify()  # exact re-check of the defining identity

        # spectrum transport: conjugation preserves det; trace flips with eps
        assert result.model.det() == matrix.det()
        assert result.epsilon * result.model.trace() == matrix.trace()
        model_eig = hyperbolic_check(result.model)
        assert model_eig.lam * result.epsilon in (eig.lam, eig.mu)

        seen.add(matrix)
        eps_counts[result.epsilon] += 1
        swap_count += result.swapped
        if worst_conj is None or result.conjugator.scale() > worst_conj[0]:
            worst_conj = (result.conjugator.scale(), matrix)
        if worst_model is None or result.model.scale() > worst_model[0]:
            worst_model = (result.model.scale(), matrix)

    checked = sum(eps_counts.values())
    print(f"checked {checked} hyperbolic matrices "
          f"({len(seen)} distinct, {non_hyperbolic} non-hyperbolic skipped)")
    print(f"eps = +1 for {eps_counts[1]}, eps = -1 for {eps_counts[-1]}; "
          f"axis swap composed in {swap_count} times")
    if worst_conj is not None:
        print(f"largest conjugator entry {worst_conj[0]} at {worst_conj[1]}")
    if worst_model is not None:
        print(f"largest model entry {worst_model[0]} at {worst_model[1]}")
    print("all reductions verified exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
