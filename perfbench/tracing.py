"""Spans and counters around the package's public functions, installed from
outside the package.

A :class:`Tracer` wraps module attributes and class methods in place and puts
them back on :meth:`Tracer.uninstall`.  A function is wrapped once under each
name a module imports it by (``coding.locate`` and ``partition.locate`` are
separate spans), because a call resolves through the caller's module globals.

Spans nest in one thread, so a span's self time is its duration minus the
summed durations of its direct children.  Counters are attributed to the
innermost open span, which is how ``partition.lattice.points_scanned`` counts
the ``EigenFrame.lattice_frame`` calls made inside a lattice scan.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Callable

# Functions wrapped in spans, listed per calling module under the name that
# module calls them by; for ``partition`` these are its internal calls.
SPANNED = {
    "partition": (
        "lattice_in_frame_box", "translate_overlaps", "advance_strips",
        "pullback_strips", "transition_graph",
    ),
    "construct": (
        "conjugate_nonnegative", "build_base_partition", "transition_graph",
        "count_intersections", "refine", "verify_areas",
        "build_markov_construction",
    ),
    "coding": (
        "build_markov_construction", "advance_strips", "cylinder_components",
        "lattice_in_frame_box", "locate",
    ),
    "cli": (
        "build_markov_construction", "count_intersections",
        "refinement_cells_depth", "verify_areas", "verify_boundary_alignment",
        "verify_generator_decay", "verify_nfold_range",
        "verify_translate_disjoint", "main",
    ),
}

# (module, class, method, span name)
SPANNED_METHODS = (
    ("coding", "CodingContext", "encode", "coding.encode"),
    ("coding", "CodingContext", "decode", "coding.decode"),
    ("coding", "DecodeResult", "contains", "coding.contains"),
)

# (module, class, method, counter name); counted, not timed: these run
# millions of times and a span each would swamp what it measures
COUNTED_METHODS = (
    ("exact", "QuadReal", "__add__", "exact.add"),
    ("exact", "QuadReal", "__radd__", "exact.add"),
    ("exact", "QuadReal", "__mul__", "exact.mul"),
    ("exact", "QuadReal", "__rmul__", "exact.mul"),
    ("exact", "QuadReal", "sign", "exact.sign"),
    ("exact", "QuadReal", "floor", "exact.floor"),
    ("exact", "QuadReal", "inverse", "exact.inverse"),
    ("torus", "EigenFrame", "lattice_frame", "torus.lattice_frame"),
)


class Tracer:
    """Aggregated spans and counters for one traced stretch of work.

    ``spans[name]`` is ``[calls, total_s, self_s]``; ``edges[(parent, name)]``
    counts calls per caller span (``parent`` is None at top level);
    ``counts[(name, parent)]`` holds counters by innermost open span.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, start, child_s]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.edges: Counter = Counter()
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def enter(self, name: str) -> None:
        parent = self.stack[-1][0] if self.stack else None
        self.edges[parent, name] += 1
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self.stack.pop()
        elapsed = self.clock() - start
        agg = self.spans[name]
        agg[0] += 1
        agg[1] += elapsed
        agg[2] += elapsed - child
        if self.stack:
            self.stack[-1][2] += elapsed

    def count(self, key: str, n: int = 1) -> None:
        parent = self.stack[-1][0] if self.stack else None
        self.counts[key, parent] += n

    def span(self, name: str, fn: Callable,
             observe: Callable[["Tracer", tuple, object], None] | None = None
             ) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if observe is not None:
                observe(self, args, result)
            return result
        return wrapper

    def counter(self, key: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else None
            self.counts[key, parent] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, package) -> None:
        """Wrap every layer boundary of ``package`` (the imported
        ``markov_torus``); :meth:`uninstall` restores the originals."""
        mods = {name: getattr(package, name) for name in
                ("exact", "torus", "partition", "construct", "coding", "cli")}
        for mod_name, funcs in SPANNED.items():
            mod = mods[mod_name]
            for func in funcs:
                name = f"{mod_name}.{func}"
                if func == "transition_graph" and mod_name == "construct":
                    self._patch(mod, func, _staged_graph(self, getattr(mod, func)))
                    continue
                observe = _OBSERVERS.get(func)
                self._patch(mod, func, self.span(name, getattr(mod, func), observe))
        for mod_name, cls_name, meth, name in SPANNED_METHODS:
            cls = getattr(mods[mod_name], cls_name)
            self._patch(cls, meth, self.span(name, cls.__dict__[meth]))
        for mod_name, cls_name, meth, key in COUNTED_METHODS:
            cls = getattr(mods[mod_name], cls_name)
            self._patch(cls, meth, self.counter(key, cls.__dict__[meth]))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading ----------------------------------------------------------------

    def total(self, *names: str) -> float:
        return sum(self.spans[n][1] for n in names if n in self.spans)

    def self_time(self, *names: str) -> float:
        return sum(self.spans[n][2] for n in names if n in self.spans)

    def calls(self, *names: str) -> int:
        return sum(self.spans[n][0] for n in names if n in self.spans)

    def counted(self, key: str, parents: tuple[str, ...] | None = None) -> int:
        """What was counted inside any span, or inside the given spans.
        Work outside every span is the benchmark's own checking."""
        return sum(n for (k, parent), n in self.counts.items()
                   if k == key and parent is not None
                   and (parents is None or parent in parents))


def _staged_graph(tracer: Tracer, fn: Callable) -> Callable:
    """``construct.transition_graph`` runs twice per build: on the two-cell
    partition (the base graph) and on the refinement (the geometric
    recheck).  Give the two stages their own span names."""
    base = tracer.span("construct.transition_graph[base]", fn)
    recheck = tracer.span("construct.transition_graph[recheck]", fn)

    @functools.wraps(fn)
    def wrapper(part, *args, **kwargs):
        return (base if part.n == 2 else recheck)(part, *args, **kwargs)
    return wrapper


def _observe_scan(tracer: Tracer, args, result) -> None:
    tracer.count("lattice.hits", len(result))


def _observe_locate(tracer: Tracer, args, result) -> None:
    if type(result).__name__ == "BoundaryHit":
        tracer.count("lattice.locate_boundary")


def _observe_step(tracer: Tracer, args, result) -> None:
    tracer.count("walk.strips_in", len(args[1]))
    tracer.count("walk.strips_out", len(result))
    if not result:
        tracer.count("walk.dead")


def _observe_nfold(tracer: Tracer, args, result) -> None:
    tracer.count("verify.words", sum(r.words_checked for r in result.values()))


def _observe_cells(tracer: Tracer, args, result) -> None:
    tracer.count("verify.cells", len(result))


_OBSERVERS = {
    "lattice_in_frame_box": _observe_scan,
    "locate": _observe_locate,
    "advance_strips": _observe_step,
    "pullback_strips": _observe_step,
    "verify_nfold_range": _observe_nfold,
    "refinement_cells_depth": _observe_cells,
}


def _named(tracer: Tracer, func: str) -> tuple[str, ...]:
    return tuple(n for n in tracer.spans if n.split(".", 1)[1] == func)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, overhead_ratio: float,
                  host_scale: float = 1.0) -> dict:
    """Per-layer metrics, per traced pass: work counts, busy and self times,
    and useful-to-attempted ratios, keyed by the names in BENCHMARK.json.
    Times are divided by ``host_scale``, the traced passes' wall seconds over
    their reference seconds, so that they read in reference seconds too."""
    t = tracer
    scans = _named(t, "lattice_in_frame_box")
    locates = _named(t, "locate")
    steps = _named(t, "advance_strips") + _named(t, "pullback_strips")
    builds = _named(t, "build_markov_construction")
    points = t.counted("torus.lattice_frame", scans)
    hits = t.counted("lattice.hits")
    n_steps = t.calls(*steps)
    n_locate = t.calls(*locates)
    build_s = t.total(*builds)
    recheck_s = t.total("construct.transition_graph[recheck]")
    encode_s = t.total("coding.encode")
    decode_s = t.total("coding.decode")
    contains_s = t.total("coding.contains")
    raw = {
        "exact.add_calls": t.counted("exact.add"),
        "exact.mul_calls": t.counted("exact.mul"),
        "exact.sign_calls": t.counted("exact.sign"),
        "exact.floor_calls": t.counted("exact.floor"),
        "exact.inverse_calls": t.counted("exact.inverse"),
        "torus.lattice_frame_calls": t.counted("torus.lattice_frame"),
        "partition.lattice.scans": t.calls(*scans),
        "partition.lattice.points_scanned": points,
        "partition.lattice.hits": hits,
        "partition.lattice.self_s": t.self_time(*scans),
        "partition.lattice.overlaps_self_s":
            t.self_time(*_named(t, "translate_overlaps")),
        "partition.lattice.locate_calls": n_locate,
        "partition.lattice.locate_s": t.total(*locates),
        "partition.walk.steps": n_steps,
        "partition.walk.strips_in": t.counted("walk.strips_in"),
        "partition.walk.strips_out": t.counted("walk.strips_out"),
        "partition.walk.self_s": t.self_time(*steps),
        "partition.verify.nfold_s": t.total(*_named(t, "verify_nfold_range")),
        "partition.verify.cells_depth_s":
            t.total(*_named(t, "refinement_cells_depth")),
        "partition.verify.decay_s": t.total(*_named(t, "verify_generator_decay")),
        "partition.verify.boundary_s":
            t.total(*_named(t, "verify_boundary_alignment")),
        "partition.verify.disjoint_s":
            t.total(*_named(t, "verify_translate_disjoint")),
        "partition.verify.words": t.counted("verify.words"),
        "partition.verify.cells": t.counted("verify.cells"),
        "construct.conjugate_s": t.total("construct.conjugate_nonnegative"),
        "construct.base_partition_s": t.total("construct.build_base_partition"),
        "construct.base_graph_s": t.total("construct.transition_graph[base]"),
        "construct.count_s": t.total("construct.count_intersections"),
        "construct.refine_s": t.total("construct.refine"),
        "construct.recheck_s": recheck_s,
        "construct.build_s": build_s,
        "coding.encode_s": encode_s,
        "coding.decode_s": decode_s,
        "coding.contains_s": contains_s,
        "cli.self_s": t.self_time("cli.main"),
    }
    out = {k: v / passes / (host_scale if k.endswith("_s") else 1)
           for k, v in raw.items()}
    out.update({
        "partition.lattice.hit_ratio": _ratio(hits, points),
        "partition.lattice.locate_boundary_ratio":
            _ratio(t.counted("lattice.locate_boundary"), n_locate),
        "partition.walk.dead_ratio": _ratio(t.counted("walk.dead"), n_steps),
        "construct.recheck_share": _ratio(recheck_s, build_s),
        "coding.encode_share": _ratio(encode_s, encode_s + decode_s + contains_s),
        "trace.overhead_ratio": overhead_ratio,
    })
    return out
