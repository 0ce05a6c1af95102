"""The three workloads, the output gate and the statistics of a run.

Each workload object is built by :func:`setup`, then hands out passes of
items (:meth:`next_pass`) and runs one item at a time (:meth:`run`).  Only
the calls into the package are timed; checking the output against the
goldens happens after the clock stops.  An item whose output differs from
its golden digest, that raises, or that exits with an unexpected code is a
failed item.  Times are also kept in reference seconds, wall-clock seconds
divided by how slowly the host ran meanwhile (:class:`HostClock`).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
import re
import signal
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction

import workloads as W

MIN_BEYOND = 10  # samples that must lie beyond a reported percentile
SAMPLE_EVERY_S = 0.040  # wall seconds between two host-speed samples
REF_SAMPLE_S = 0.0010  # nominal seconds of one host-speed sample

# (perf_counter when taken, its host_sample seconds, its whole cost)
_SAMPLES: list[tuple[float, float, float]] = []
_sampling = False  # a sample is being taken; a signal arriving now skips


def host_sample() -> float:
    """Seconds for a fixed slice of stdlib rational arithmetic, the kind of
    work the package does.  No change to the package can make it faster or
    slower, so it measures only how fast the host runs Python just now."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(1, i) * Fraction(i % 7 + 1, 3)
    return time.perf_counter() - start


def _take_sample(signum=None, frame=None) -> None:
    global _sampling
    if _sampling:
        return
    _sampling = True
    start = time.perf_counter()
    seconds = host_sample()
    end = time.perf_counter()
    _SAMPLES.append((end, seconds, end - start))
    _sampling = False


@contextlib.contextmanager
def sampling():
    """Take a host-speed sample every ``SAMPLE_EVERY_S`` wall seconds, from
    SIGALRM, while the block runs.  The signal interrupts the package's own
    work, so a long item is sampled all through, not only at its ends."""
    previous = signal.signal(signal.SIGALRM, _take_sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class HostClock:
    """Times a stretch of work in wall-clock and in reference seconds.

    A host-speed sample is taken at each end; inside :func:`sampling` more
    are taken through the stretch.  The samples' own cost is taken out of
    ``seconds``.  ``scale`` is the mean sample over ``REF_SAMPLE_S``, how much
    slower than nominal the host ran meanwhile, and ``ref_s`` is
    ``seconds / scale``.  Clocks may nest.
    """

    def __enter__(self) -> "HostClock":
        _take_sample()
        self._first = len(_SAMPLES) - 1
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        _take_sample()
        taken = _SAMPLES[self._first:]
        self.seconds = end - self._start - sum(
            cost for at, _, cost in taken[1:-1] if at <= end)
        self.scale = statistics.mean(s for _, s, _ in taken) / REF_SAMPLE_S

    @property
    def ref_s(self) -> float:
        return self.seconds / self.scale


def beyond(n: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank q-quantile of n samples."""
    return n - math.ceil(q * n)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank q-quantile; raises unless at least MIN_BEYOND samples
    lie beyond it, so a tail figure is never read off too few samples."""
    n = len(samples)
    if n == 0 or beyond(n, q) < MIN_BEYOND:
        raise ValueError(
            f"{n} samples leave {beyond(n, q) if n else 0} beyond the "
            f"{q:g} quantile; need {MIN_BEYOND}")
    return sorted(samples)[math.ceil(q * n) - 1]


@dataclass
class ItemResult:
    """One item: its own seconds, the digest of its output, and the per-item
    work record.  ``error`` is None when the output passed the gate.
    ``scale`` is the host's slowness during the item (see :class:`HostClock`)
    and ``ref_s`` its seconds at nominal host speed."""

    key: str
    seconds: float
    digest: str | None
    error: str | None = None
    record: dict = field(default_factory=dict)
    scale: float = 1.0

    @property
    def ref_s(self) -> float:
        return self.seconds / self.scale


def gate(golden: dict | None, result: ItemResult) -> ItemResult:
    """Compare the result's digest against the golden one (None: recording)."""
    if golden is None or result.error is not None:
        return result
    if result.digest != golden.get("digest"):
        result.error = (f"{result.key}: output digest {result.digest} differs "
                        f"from golden {golden.get('digest')}")
    return result


def _timed(key: str, clock: HostClock, digest: str | None, **kw) -> ItemResult:
    return ItemResult(key, clock.seconds, digest, scale=clock.scale, **kw)


def _failed(key: str, clock: HostClock, exc: Exception) -> ItemResult:
    return _timed(key, clock, None, error=f"{key}: {type(exc).__name__}: {exc}")


class _Workload:
    """What the three workloads share by default."""

    min_samples = 1  # timed items a run needs at least

    def control(self, seed: int) -> list[ItemResult]:
        """Negative-control items, run after the timed passes."""
        return []


class Ladder(_Workload):
    """`build_markov_construction` on the fixed matrix ladder."""

    name = "construct-ladder"

    def __init__(self, pkg, goldens: dict | None, seed: int):
        self.pkg = pkg
        self.goldens = goldens["ladder"] if goldens else None

    def warm_up(self) -> None:
        self.run(W.LADDER[0], check=False)

    def next_pass(self) -> list:
        return list(W.LADDER)

    def run(self, item: str, check: bool = True) -> ItemResult:
        construct, render = self.pkg.construct, self.pkg.render
        clock = HostClock()
        try:
            with clock:
                built = construct.build_markov_construction(
                    self.pkg.torus.Mat2Z(*W.matrix_args(item)))
            text = W.report_text(render.construction_report(built))
        except Exception as exc:  # a failed item is data, the run goes on
            return _failed(item, clock, exc)
        p = built.model
        record = {
            "model": f"{p.a} {p.b} {p.c} {p.d}",
            "case": built.base.sign_case.name,
            "nstar": built.refined.n,
            "words": 0,
            "cells": built.refined.n,
        }
        result = _timed(item, clock, W.digest(text), record=record)
        return gate(self.goldens.get(item) if check and self.goldens else None,
                    result)


_WORDS_RE = re.compile(r"(\d+) (?:admissible )?words")
_CELLS_RE = re.compile(r"(\d+) cells, total area")
_NSTAR_RE = re.compile(r"N\* (\d+) vs")


class Battery(_Workload):
    """`markov-torus verify --json` run in-process, stdout captured."""

    name = "verify-battery"

    def __init__(self, pkg, goldens: dict | None, seed: int):
        self.pkg = pkg
        self.goldens = goldens["verify"] if goldens else None
        self.models = goldens["ladder"] if goldens else {}

    def warm_up(self) -> None:
        self.run((W.VERIFY[0][0], 2), check=False)

    def next_pass(self) -> list:
        return list(W.VERIFY)

    def _call(self, argv: list[str], clock: HostClock) -> tuple[int, str]:
        buf = io.StringIO()
        with clock, contextlib.redirect_stdout(buf):
            code = self.pkg.cli.main(argv)
        return code, buf.getvalue()

    def run(self, item: tuple[str, int], check: bool = True) -> ItemResult:
        key = W.verify_key(*item)
        clock = HostClock()
        try:
            code, out = self._call(W.verify_argv(*item), clock)
            payload = json.loads(out)
        except Exception as exc:  # a failed item is data, the run goes on
            return _failed(key, clock, exc)
        details = " ".join(c["detail"] for c in payload["checks"])
        nstar = _NSTAR_RE.search(details)
        info = self.models.get(item[0], {})
        record = {
            "model": info.get("model"),
            "case": info.get("case"),
            "nstar": int(nstar.group(1)) if nstar else None,
            "words": sum(int(n) for n in _WORDS_RE.findall(details)),
            "cells": sum(int(n) for n in _CELLS_RE.findall(details)),
            "exit": code,
        }
        result = _timed(key, clock, W.digest(f"exit {code}\n{out}"),
                        record=record)
        if code != 0 or not payload.get("all_ok"):
            result.error = f"{key}: exit {code}, all_ok {payload.get('all_ok')}"
        return gate(self.goldens.get(key) if check and self.goldens else None,
                    result)

    def control(self, seed: int) -> list[ItemResult]:
        """Negative control: one battery item, chosen by the seed so that
        ten seeds cover every item, re-run with ``--inject-break``.  It must
        exit 1 with ``all_ok`` false; anything else is a failed item."""
        matrix, depth = W.VERIFY[seed % len(W.VERIFY)]
        key = W.verify_key(matrix, depth) + "+inject-break"
        clock = HostClock()
        try:
            code, out = self._call(
                W.verify_argv(matrix, depth, inject_break=True), clock)
            all_ok = json.loads(out).get("all_ok")
        except Exception as exc:  # a failed item is data, the run goes on
            return [_failed(key, clock, exc)]
        result = _timed(key, clock, None, record={"exit": code})
        if code != 1 or all_ok is not False:
            result.error = (f"{key}: negative control passed (exit {code}, "
                            f"all_ok {all_ok})")
        return [result]


class Coding(_Workload):
    """encode -> decode -> contains round-trips of seeded rational points."""

    name = "coding-roundtrip"
    per_pass = 10
    min_samples = 100  # ten beyond p90

    def __init__(self, pkg, goldens: dict | None, seed: int):
        self.pkg = pkg
        self.goldens = goldens["coding"]["digests"] if goldens else None
        self.points = W.pool_points()
        self.rng = random.Random(seed)
        self.order: list[int] = []
        if goldens and (goldens["coding"]["depth"], goldens["coding"]["pool_seed"]
                        ) != (W.CODING_DEPTH, W.POOL_SEED):
            raise ValueError("goldens were recorded for another coding pool")
        self.ctx = pkg.coding.CodingContext.from_matrix(
            pkg.torus.Mat2Z(*W.matrix_args(W.CODING_MATRIX)))
        p = self.ctx.construction.model
        self.info = {"model": f"{p.a} {p.b} {p.c} {p.d}",
                     "case": self.ctx.construction.base.sign_case.name,
                     "nstar": self.ctx.n_cells, "words": 1, "cells": 1}

    def warm_up(self) -> None:
        # fills the refinement's backward step table that decode reads
        self.run(0, check=False)

    def _draw(self) -> int:
        if not self.order:
            self.order = list(range(len(self.points)))
            self.rng.shuffle(self.order)
        return self.order.pop()

    def next_pass(self) -> list:
        return [self._draw() for _ in range(self.per_pass)]

    def run(self, item: int, check: bool = True) -> ItemResult:
        coding = self.pkg.coding
        redraws = 0
        while True:
            point = self.points[item]
            key = f"{point[0]} {point[1]}"
            golden = self.goldens[item] if check and self.goldens else None
            clock = HostClock()
            try:
                with clock:
                    word = self.ctx.encode(point, W.CODING_DEPTH)
                    ambiguous = isinstance(word, coding.BoundaryAmbiguity)
                    if not ambiguous:
                        res = self.ctx.decode(word)
                        model_point = self.ctx.to_model(point)
                        inside = res.contains(model_point)
                if ambiguous:
                    # measure-zero event: redraw and count it
                    redraws += 1
                    if golden not in (None, W.digest("ambiguous")):
                        return _timed(key, clock, None, error=(
                            f"{key}: encode is ambiguous, golden is a word"))
                    item = self._draw()
                    continue
                gap_sq = coding.torus_dist_sq(res.center, model_point)
            except Exception as exc:  # a failed item is data, the run goes on
                return _failed(key, clock, exc)
            result = _timed(key, clock, W.digest(str(word)),
                            record={**self.info, "word": str(word),
                                    "redraws": redraws})
            if not inside:
                result.error = f"{key}: decode({word}) does not contain the point"
            elif (gap_sq - res.diameter_bound_sq).sign() > 0:
                result.error = f"{key}: centre gap exceeds the decay bound"
            return gate(None if golden is None else {"digest": golden}, result)


WORKLOADS = {cls.name: cls for cls in (Ladder, Battery, Coding)}


def load_package():
    """``markov_torus`` with its CLI module loaded.  Workloads call through
    the package's module attributes at call time, so the wrappers that a
    tracer installs are seen."""
    importlib.import_module("markov_torus.cli")
    return importlib.import_module("markov_torus")


def setup(workload: str, goldens: dict | None, seed: int):
    """Import the package, build the workload's state and warm it up.
    Returns the clock that timed it and the workload object."""
    with HostClock() as clock:
        pkg = load_package()
        wl = WORKLOADS[workload](pkg, goldens, seed)
        wl.warm_up()
    return clock, wl
