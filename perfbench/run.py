"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload construct-ladder --seed 1 \
        --seconds 40 --trace 0

Runs from the root of a checkout and imports ``markov_torus`` from its
``src``.  With ``--trace 0`` the last line of stdout is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run.  The per-item work record of the run is written to
``perfbench/runs/``.  Exit status is 0 when the run completed, whether or not
its outputs passed the gate (``correct`` says that), and 1 when it could not
run at all.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench as B
import tracing
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
SETUP_PROBES = 2  # fresh processes that repeat the set-up, besides this one
HARD_STOP_S = 150.0  # stop starting passes, whatever else is pending


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(B.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time the set-up and print it (internal)")
    return parser.parse_args(argv)


def import_package_from_src() -> None:
    """Put the checkout's ``src`` first on the path and make sure the
    package really comes from there."""
    sys.path.insert(0, str(SRC))
    import markov_torus
    origin = Path(markov_torus.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"markov_torus imported from {origin}, not {SRC}")


def probe_setup(workload: str, seed: int) -> float:
    """Set-up reference seconds of a fresh process, which pays every
    first-call cost."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_ref_s"]


def run_pass(wl, items, tracer: tracing.Tracer | None = None
             ) -> list[B.ItemResult]:
    results = []
    for item in items:
        before = tracer.counted("walk.strips_out") if tracer else 0
        result = wl.run(item)
        if tracer:
            result.record["strips"] = tracer.counted("walk.strips_out") - before
        results.append(result)
    return results


def pass_seconds(results: list[B.ItemResult]) -> float:
    """A pass's seconds at nominal host speed."""
    return sum(r.ref_s for r in results)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(wl, seconds: float) -> tuple[list[list[B.ItemResult]], float]:
    """Whole passes until the next one would end after ``seconds`` and the
    workload has its minimum number of samples.  Also returns the peak
    memory after the first pass: later passes add allocator noise that
    depends on how many passes fit, not on the program."""
    start = time.perf_counter()
    passes: list[list[B.ItemResult]] = []
    rss = None
    while True:
        passes.append(run_pass(wl, wl.next_pass()))
        rss = rss or peak_rss_mb()
        elapsed = time.perf_counter() - start
        samples = sum(len(p) for p in passes)
        if elapsed > HARD_STOP_S:
            break
        if (elapsed + elapsed / len(passes) > seconds
                and samples >= wl.min_samples):
            break
    return passes, rss


def measure_traced(wl, seconds: float):
    """Pairs of passes over the same items, untraced then traced, until the
    next pair would end after ``seconds``."""
    tracer = tracing.Tracer()
    start = time.perf_counter()
    plain: list[list[B.ItemResult]] = []
    traced: list[list[B.ItemResult]] = []
    while True:
        items = wl.next_pass()
        plain.append(run_pass(wl, items))
        tracer.install(wl.pkg)
        try:
            traced.append(run_pass(wl, items, tracer))
        finally:
            tracer.uninstall()
        elapsed = time.perf_counter() - start
        if elapsed > HARD_STOP_S or elapsed + elapsed / len(plain) > seconds:
            break
    return tracer, plain, traced


def end_to_end(wl, passes, setups: list[float], rss: float
               ) -> tuple[dict, dict]:
    """The BENCHMARK.json end-to-end metrics, and the workload's own named
    figures that are printed beside them."""
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(pass_seconds(p) for p in passes), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    named = {
        "pass_raw_s": (statistics.median(
            sum(r.seconds for r in p) for p in passes), "s"),
        "host_scale": (statistics.median(
            r.scale for p in passes for r in p), "ratio"),
    }
    if isinstance(wl, B.Ladder):
        named["largest_build_s"] = (statistics.median(
            r.ref_s for p in passes for r in p if r.key == W.LADDER[-1]), "s")
    if isinstance(wl, B.Coding):
        samples = [r.ref_s * 1000 for p in passes for r in p]
        named["roundtrip_p50_ms"] = (statistics.median(samples), "ms")
        named["roundtrip_p90_ms"] = (B.percentile(samples, 0.9), "ms")
        named["roundtrips"] = (len(samples), "count")
        named["ambiguous_redraws"] = (
            sum(r.record.get("redraws", 0) for p in passes for r in p), "count")
    return metrics, named


def unit_of(layer_metric: str) -> str:
    if layer_metric.endswith("_s"):
        return "s"
    return "ratio" if layer_metric.endswith(("_ratio", "_share")) else "count"


def print_items(results: list[B.ItemResult]) -> None:
    print(f"  {'item':<22} {'model':<10} {'case':<11} {'N*':>3} "
          f"{'words':>6} {'cells':>6} {'strips':>7} {'seconds':>8} "
          f"{'ref_s':>8}")
    for r in results:
        rec = r.record
        strips = rec.get("strips")
        print(f"  {r.key:<22} {rec.get('model') or '-':<10} "
              f"{rec.get('case') or '-':<11} {rec.get('nstar') or '-':>3} "
              f"{rec.get('words', '-'):>6} {rec.get('cells', '-'):>6} "
              f"{'-' if strips is None else strips:>7} {r.seconds:>8.3f} "
              f"{r.ref_s:>8.3f}")


def traced_run(wl, seconds: float):
    """Per-layer metrics from pairs of plain and traced passes."""
    tracer, plain, passes = measure_traced(wl, seconds)
    traced_s = sum(map(pass_seconds, passes))
    overhead = traced_s / sum(map(pass_seconds, plain))
    wall_s = sum(r.seconds for p in passes for r in p)
    layers = tracing.layer_metrics(tracer, len(passes), overhead,
                                   wall_s / traced_s)
    layers["coding.ambiguous_redraws"] = sum(
        r.record.get("redraws", 0) for p in passes for r in p) / len(passes)
    metrics = {k: {"value": v, "unit": unit_of(k)}
               for k, v in sorted(layers.items())}
    extra = {
        "spans": {name: {"calls": c, "total_s": t, "self_s": s}
                  for name, (c, t, s) in sorted(tracer.spans.items())},
        "callers": [[p, n, c] for (p, n), c in tracer.edges.items()],
    }
    return passes, [r for p in plain + passes for r in p], metrics, {}, extra


def plain_run(wl, seconds: float, setups: list[float]):
    """End-to-end metrics, plus the workload's own named figures."""
    passes, rss = measure(wl, seconds)
    metrics, named = end_to_end(wl, passes, setups, rss)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    named = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
    return passes, [r for p in passes for r in p], metrics, named, {}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package_from_src()
        goldens = W.load_goldens()
    except (ImportError, OSError) as exc:
        print(f"cannot run the benchmark here: {exc}", file=sys.stderr)
        return 1
    with B.sampling():
        clock, wl = B.setup(args.workload, goldens, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": clock.seconds, "setup_ref_s": clock.ref_s}))
        return 0
    setups = [clock.ref_s]
    if not args.trace:
        setups += [probe_setup(args.workload, args.seed)
                   for _ in range(SETUP_PROBES)]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}")
    with B.sampling():
        if args.trace:
            passes, items, metrics, named, extra = traced_run(wl, args.seconds)
        else:
            passes, items, metrics, named, extra = plain_run(
                wl, args.seconds, setups)
        items += wl.control(args.seed)
    failures = [r.error for r in items if r.error]
    for error in failures[:10]:
        print(f"FAILED {error}", file=sys.stderr)
    named["error_ratio"] = {"value": len(failures) / len(items), "unit": "ratio"}

    print_items(passes[0] if not isinstance(wl, B.Coding) else passes[0][:3])
    print(f"  passes {len(passes)} (reference seconds): "
          + ", ".join(f"{pass_seconds(p):.3f}" for p in passes))
    print("  set-ups (reference seconds): "
          + ", ".join(f"{s:.3f}" for s in setups))
    for name, m in {**metrics, **named}.items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")

    RUNS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "setups_ref_s": setups,
        "metrics": {**metrics, **named},
        "items": [{"item": r.key, "seconds": r.seconds, "ref_s": r.ref_s,
                   "error": r.error, **r.record} for r in items],
        **extra,
    }
    out = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": not failures,
        "attempted": len(items),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
