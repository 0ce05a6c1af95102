"""Coding by stepping the forward table against the per-iterate coding it
replaced (kept verbatim in ``oracles``): ``locate`` from the cover list,
``encode`` words and boundary ambiguities, and ``preimage_report`` counts
and words, on one ladder matrix per sign case and ``40 1 1 0``, at drawn
rational points, lattice points, points on cell edges and field-valued
points, inside and outside the unit square."""

import dataclasses
import json
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from markov_torus import coding, partition
from markov_torus.cli import _break_partition, main
from markov_torus.coding import BoundaryAmbiguity, CodingContext, SymbolicWord
from markov_torus.construct import SignCase
from markov_torus.partition import InvariantError, TorusPartition, locate, transition_graph
from markov_torus.torus import Mat2Z

# one ladder matrix per sign case, and a wide refinement (N* = 42)
MATRICES = {
    SignCase.PLUS_MINUS.name: Mat2Z(1, 1, 1, 0),
    SignCase.MINUS_PLUS.name: Mat2Z(-1, -1, -1, 0),
    SignCase.PLUS_PLUS.name: Mat2Z(2, 1, 1, 1),
    SignCase.MINUS_MINUS.name: Mat2Z(-2, -3, -1, -2),
    "40 1 1 0": Mat2Z(40, 1, 1, 0),
}


@cache
def context(name: str) -> CodingContext:
    return CodingContext.from_matrix(MATRICES[name])


def outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except InvariantError as exc:
        return type(exc).__name__, str(exc)


# -- drawn model-torus points ---------------------------------------------------------

_FRACTION = st.fractions(min_value=0, max_value=1, max_denominator=60)
_OFFSET = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
_EDGES = ("u_lo", "u_hi", "w_lo", "w_hi")

# (kind, cell, edge, s, t, lattice offset); cell indices wrap around N*
_POINT = st.tuples(
    st.sampled_from(["rational", "lattice", "edge", "corner", "field"]),
    st.integers(0, 63), st.sampled_from(_EDGES), _FRACTION, _FRACTION, _OFFSET,
)


def model_point(ctx: CodingContext, drawn):
    """A plane point on the model torus: rational, a lattice point, on an
    edge or at a corner of a cell's box, or a field-valued point inside a
    box, each moved by a lattice offset (so often outside [0, 1)^2)."""
    kind, cell, edge, s, t, (m, n) = drawn
    box = ctx.part.boxes[cell % ctx.part.n]
    if kind == "rational":
        return (s * 3 - 1 + m, t * 3 - 1 + n)
    if kind == "lattice":
        return (Fraction(m), Fraction(n))
    u = box.u_lo + box.u_dim * s
    w = box.w_lo + box.w_dim * t
    if kind == "edge":
        u, w = (getattr(box, edge), w) if edge[0] == "u" else (u, getattr(box, edge))
    elif kind == "corner":
        u, w = box.corners_frame()[_EDGES.index(edge)]
    x, y = ctx.frame.to_plane(u, w)
    return (x + m, y + n)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(MATRICES)), _POINT)
def test_locate_matches_per_cell_scans(name, drawn):
    ctx = context(name)
    point = model_point(ctx, drawn)
    assert locate(ctx.part, point) == oracles.locate(ctx.part, point)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(list(MATRICES)), _POINT, st.integers(0, 6))
def test_encode_matches_per_iterate_locate(name, drawn, depth):
    ctx = context(name)
    point = ctx.from_model(model_point(ctx, drawn))
    got = ctx.encode(point, depth)
    assert got == oracles.encode(ctx, point, depth)
    if isinstance(got, BoundaryAmbiguity):  # compare every field, exactly
        assert len(got.candidates) >= 2


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(MATRICES)), _POINT, st.integers(0, 3))
def test_preimage_report_matches_recursive_walk(name, drawn, depth):
    ctx = context(name)
    point = ctx.from_model(model_point(ctx, drawn))
    got = ctx.preimage_report(point, depth, max_words=64)
    want = oracles.preimage_report(ctx, point, depth, max_words=64)
    assert (got.count, got.words, got.truncated) == \
        (want.count, want.words, want.truncated)


@pytest.mark.parametrize("name", list(MATRICES))
def test_boundary_reached_by_stepping_matches_oracle(name):
    """Points on a contracting (constant-u) edge at time 0 stay on the
    boundary forwards but not backwards: the first iterate is interior, the
    step test finds no open component at a later iterate, and the fallback
    ``locate`` names the candidates exactly as the per-iterate coding did."""
    ctx = context(name)
    later = 0
    for box in ctx.part.boxes[:8]:
        for u in (box.u_lo, box.u_hi):
            for t in (Fraction(1, 3), Fraction(5, 7)):
                y = ctx.frame.to_plane(u, box.w_lo + box.w_dim * t)
                point = ctx.from_model(y)
                got = ctx.encode(point, 3)
                assert got == oracles.encode(ctx, point, 3)
                assert isinstance(got, BoundaryAmbiguity)
                later += got.time > -3
    assert later


# -- broken partitions ----------------------------------------------------------------


def _with_refined(ctx: CodingContext, part: TorusPartition) -> CodingContext:
    return CodingContext(dataclasses.replace(
        ctx.construction, refined=part, refined_graph=transition_graph(part)))


def _points(count: int):
    return [(Fraction(3 * k + 1, 101), Fraction(7 * k + 2, 103)) for k in range(count)]


@pytest.mark.parametrize("name", list(MATRICES)[:4])
def test_two_cells_at_a_later_iterate_raise(name):
    """A refinement with one cell listed twice: wherever the per-iterate
    coding finds the overlap, stepping must find two open components and
    raise too, not keep the first."""
    ctx = context(name)
    part = ctx.part
    doubled = _with_refined(ctx, TorusPartition(
        part.frame, part.acting, part.lam_act, part.mu_act,
        part.boxes + part.boxes[:1], part.labels + ("again",)))
    later = 0
    for point in _points(20):
        want = outcome(lambda: oracles.encode(doubled, point, 6))
        got = outcome(lambda: doubled.encode(point, 6))
        if isinstance(want, SymbolicWord):
            assert got == want
        else:
            assert got[0] == want[0] == "InvariantError"
            later += "two cells" in got[1]
    assert later


@pytest.mark.parametrize("name", list(MATRICES)[:4])
def test_gap_in_the_partition_matches_oracle(name):
    """``cli._break_partition`` shrinks cell 0: an orbit that enters the gap
    falls back to ``locate``, which reports the escape as before."""
    ctx = context(name)
    broken = _with_refined(ctx, _break_partition(ctx.part))
    for point in _points(30):
        assert outcome(lambda: broken.encode(point, 6)) == \
            outcome(lambda: oracles.encode(broken, point, 6))


# -- work -----------------------------------------------------------------------------


def test_interior_encode_scans_no_lattice(monkeypatch):
    """Once the cover list and the step tables exist, encoding a point whose
    window avoids every boundary locates one iterate and scans nothing."""
    ctx = CodingContext.from_matrix(MATRICES["40 1 1 0"])
    ctx.encode((Fraction(1, 3), Fraction(2, 5)), 6)  # builds the cover list
    scans, locates = [], []
    scan, find = partition.lattice_in_frame_box, coding.locate

    def counted_scan(*args):
        scans.append(args)
        return scan(*args)

    def counted_locate(*args):
        locates.append(args)
        return find(*args)

    monkeypatch.setattr(partition, "lattice_in_frame_box", counted_scan)
    monkeypatch.setattr(coding, "lattice_in_frame_box", counted_scan)
    monkeypatch.setattr(coding, "locate", counted_locate)
    word = ctx.encode((Fraction(5, 17), Fraction(2, 13)), 20)
    assert isinstance(word, SymbolicWord) and len(word) == 41
    assert scans == []
    assert len(locates) == 1


def test_encode_depth_500_from_the_command_line(capsys):
    code = main(["encode", "--matrix", "1 1 1 0", "--point", "1/7 2/7",
                 "--depth", "500", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(payload["word"].split("@")[0].split(",")) == 1001
    assert payload["preimages"]["count"] == 1
