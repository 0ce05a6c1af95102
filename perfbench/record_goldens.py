"""Record the output digests that the benchmark's gate compares against.

    python3 perfbench/record_goldens.py

Run it only at a commit whose outputs are the reference: the goldens pin the
certificates, and a change that makes the program faster must not move them.
Takes a few minutes, most of it encoding the coding pool.
"""

from __future__ import annotations

import json

import bench as B
import run
import workloads as W


def main() -> None:
    run.import_package_from_src()
    _, ladder = B.setup("construct-ladder", None, 0)
    goldens: dict = {"ladder": {}, "verify": {}}
    for matrix in W.LADDER:
        result = ladder.run(matrix)
        if result.error:
            raise SystemExit(result.error)
        goldens["ladder"][matrix] = {"digest": result.digest, **{
            k: result.record[k] for k in ("model", "case", "nstar")}}
        print("ladder", matrix, result.record, flush=True)

    battery = B.Battery(ladder.pkg, None, 0)
    for item in W.VERIFY:
        result = battery.run(item)
        if result.error:
            raise SystemExit(result.error)
        goldens["verify"][W.verify_key(*item)] = {"digest": result.digest, **{
            k: result.record[k] for k in ("exit", "words", "cells")}}
        print("verify", item, result.record, flush=True)

    coding = B.Coding(ladder.pkg, None, 0)
    digests = []
    for point in coding.points:
        word = coding.ctx.encode(point, W.CODING_DEPTH)
        ambiguous = isinstance(word, ladder.pkg.coding.BoundaryAmbiguity)
        digests.append(W.digest("ambiguous" if ambiguous else str(word)))
    goldens["coding"] = {
        "matrix": W.CODING_MATRIX, "depth": W.CODING_DEPTH,
        "pool_seed": W.POOL_SEED, "digests": digests,
    }
    print("coding", len(digests), "points,",
          digests.count(W.digest("ambiguous")), "ambiguous")
    W.GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
