#!/usr/bin/env python3
"""Survey the construction over all small hyperbolic matrices.

Enumerates every GL(2, Z) matrix with entries bounded by ``--max-entry``,
keeps the hyperbolic ones, runs the full pipeline on each, and tabulates
the outcome: sign case, reduction data, refined cell count N*, expanding
eigenvalue, and (with ``--verify``) the exact verifier battery.  The last
lines summarise how the cell counts and sign cases are distributed.

Examples:

    python3 scripts/survey_suite.py
    python3 scripts/survey_suite.py --max-entry 3 --verify --nfold-max 4
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from collections import Counter

from markov_torus import (
    InvariantError,
    Mat2Z,
    NotAutomorphismError,
    NotHyperbolicError,
    build_markov_construction,
    perron_data,
    verify_boundary_alignment,
    verify_generator_decay,
    verify_nfold_range,
)


def iter_unimodular(max_entry: int):
    span = range(-max_entry, max_entry + 1)
    for a, b, c, d in itertools.product(span, repeat=4):
        if a * d - b * c in (1, -1):
            yield Mat2Z(a, b, c, d)


def survey_one(matrix: Mat2Z, verify: bool, nfold_max: int) -> dict:
    t0 = time.perf_counter()
    construction = build_markov_construction(matrix)
    built = time.perf_counter() - t0
    part = construction.refined
    row = {
        "matrix": str(matrix),
        "det": matrix.det(),
        "case": construction.base.sign_case.name,
        "eps": construction.conjugation.epsilon,
        "swapped": construction.conjugation.swapped,
        "conj_scale": construction.conjugation.conjugator.scale(),
        "n_star": part.n,
        "lam": f"{float(part.lam_act):+.6f}",
        "radius": perron_data(construction.graph).spectral_radius,
        "build_s": built,
    }
    if verify:
        alignment = verify_boundary_alignment(part)
        nfold = verify_nfold_range(part, 1, nfold_max)
        decay = verify_generator_decay(part, depth=4)
        row["verified"] = (
            not alignment
            and all(report.ok for report in nfold.values())
            and all(r.ok for r in decay)
        )
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], allow_abbrev=False
    )
    parser.add_argument("--max-entry", type=int, default=2,
                        help="entry bound for the matrix sweep (default 2)")
    parser.add_argument("--verify", action="store_true",
                        help="run the exact verifier battery on each refinement")
    parser.add_argument("--nfold-max", type=int, default=4,
                        help="longest word length for the cylinder check (default 4)")
    parser.add_argument("--limit", type=int, default=None,
                        help="stop after this many hyperbolic matrices")
    args = parser.parse_args(argv)

    header = (f"{'matrix':>22}  det  {'case':<11} eps  {'N*':>3}  "
              f"{'lambda':>10}  {'radius':>10}  {'build':>7}"
              + ("  verified" if args.verify else ""))
    print(header)
    print("-" * len(header))

    cases: Counter[str] = Counter()
    counts: Counter[int] = Counter()
    rejected = 0
    surveyed = 0
    all_ok = True
    for matrix in iter_unimodular(args.max_entry):
        try:
            row = survey_one(matrix, args.verify, args.nfold_max)
        except (NotHyperbolicError, NotAutomorphismError):
            rejected += 1
            continue
        except InvariantError as exc:   # a finding, not a crash: report and go on
            print(f"{str(matrix):>22}  INVARIANT VIOLATED: {exc}")
            all_ok = False
            continue
        surveyed += 1
        cases[row["case"]] += 1
        counts[row["n_star"]] += 1
        line = (f"{row['matrix']:>22}  {row['det']:+d}  {row['case']:<11} "
                f"{row['eps']:+d}  {row['n_star']:>3}  {row['lam']:>10}  "
                f"{row['radius']:>10.6f}  {row['build_s']:>6.2f}s")
        if args.verify:
            ok = row["verified"]
            all_ok = all_ok and ok
            line += f"  {'ok' if ok else 'FAILED'}"
        print(line)
        if args.limit is not None and surveyed >= args.limit:
            break

    print()
    print(f"surveyed {surveyed} hyperbolic matrices "
          f"({rejected} non-hyperbolic rejected)")
    print("sign cases: " + ", ".join(
        f"{name}={count}" for name, count in sorted(cases.items())))
    print("refined cell counts: " + ", ".join(
        f"N*={n}: {count}" for n, count in sorted(counts.items())))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
