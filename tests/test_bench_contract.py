"""Every name the benchmark's tracer wraps still exists where it looks for
it, so a refactor that drops one fails here and not only under
``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("mod_name, func", [
    (mod_name, func)
    for mod_name, funcs in tracing.SPANNED.items() for func in funcs
])
def test_spanned_function_exists(mod_name, func):
    module = importlib.import_module(f"markov_torus.{mod_name}")
    assert callable(getattr(module, func, None)), f"{mod_name}.{func}"


@pytest.mark.parametrize("mod_name, cls_name, meth",
                         [entry[:3] for entry in tracing.SPANNED_METHODS
                          + tracing.COUNTED_METHODS])
def test_wrapped_method_is_defined_on_its_class(mod_name, cls_name, meth):
    # the tracer patches cls.__dict__[meth], so an inherited method will not do
    cls = getattr(importlib.import_module(f"markov_torus.{mod_name}"), cls_name)
    assert callable(cls.__dict__.get(meth)), f"{cls_name}.{meth}"


def test_a_build_scans_through_the_traced_names(monkeypatch):
    """The tracer counts ``partition.lattice.hits`` as what
    ``partition.lattice_in_frame_box`` returns and ``points_scanned`` as the
    ``EigenFrame.lattice_frame`` calls made inside it, and its gate wants
    points_scanned >= hits > 0 on a build: a fresh build of 1 1 1 0 must
    scan through that name and decode each hit there."""
    from markov_torus import partition
    from markov_torus.construct import build_markov_construction
    from markov_torus.torus import EigenFrame, Mat2Z

    scan, decode = partition.lattice_in_frame_box, EigenFrame.lattice_frame
    counts = {"open": 0, "scans": 0, "hits": 0, "points": 0}

    def counted_scan(*args):
        counts["scans"] += 1
        counts["open"] += 1
        try:
            hits = scan(*args)
        finally:
            counts["open"] -= 1
        counts["hits"] += len(hits)
        return hits

    def counted_decode(frame, m, n):
        counts["points"] += counts["open"] > 0
        return decode(frame, m, n)

    monkeypatch.setattr(partition, "lattice_in_frame_box", counted_scan)
    monkeypatch.setattr(EigenFrame, "lattice_frame", counted_decode)
    build_markov_construction(Mat2Z(1, 1, 1, 0))
    assert counts["scans"] > 0
    assert counts["points"] >= counts["hits"] > 0


def test_a_decode_pulls_back_through_the_traced_name(monkeypatch):
    """``partition.walk.*`` on coding-roundtrip counts the calls of
    ``partition.pullback_strips``: a decode on 1 1 1 0 must pull its
    cylinder back through that name, one call per symbol after the first."""
    from markov_torus import partition
    from markov_torus.coding import CodingContext, SymbolicWord
    from markov_torus.torus import Mat2Z

    ctx = CodingContext.from_matrix(Mat2Z(1, 1, 1, 0))
    word = ctx.encode((Fraction(1, 3), Fraction(1, 7)), 2)
    assert isinstance(word, SymbolicWord)
    pullback, steps = partition.pullback_strips, []

    def counted(*args):
        steps.append(args)
        return pullback(*args)

    monkeypatch.setattr(partition, "pullback_strips", counted)
    ctx.decode(word)
    assert len(steps) == len(word.symbols) - 1 > 0


def test_the_disjointness_check_scans_through_the_traced_name(monkeypatch):
    """``partition.lattice.scans`` on verify-battery counts the scans of
    ``verify_translate_disjoint``, one per cell: they must run through
    ``partition.lattice_in_frame_box``, wherever the check is defined."""
    from markov_torus import partition
    from markov_torus.construct import build_markov_construction
    from markov_torus.torus import Mat2Z
    from markov_torus.walk import verify_translate_disjoint

    part = build_markov_construction(Mat2Z(1, 1, 1, 0)).refined
    scan, scans = partition.lattice_in_frame_box, []

    def counted(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(partition, "lattice_in_frame_box", counted)
    assert verify_translate_disjoint(part) == []
    assert len(scans) == part.n
