"""Coding by stepping the forward table against the per-iterate coding it
replaced (kept verbatim in ``oracles``): ``locate`` from the cover list,
``encode`` words and boundary ambiguities, ``preimage_report`` counts and
words, and ``DecodeResult.contains``, on one ladder matrix per sign case and
``40 1 1 0``, at drawn rational points, lattice points, points on cell edges
and field-valued points, inside and outside the unit square.  Coding on
integer points in the strip basis is also checked against the field-element
coding it replaced (``oracles.quad_*``), on the real and the broken forms."""

import dataclasses
import json
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from markov_torus import basis, coding, exact, partition, torus
from markov_torus.cli import _break_partition, main
from markov_torus.coding import BoundaryAmbiguity, CodingContext, DecodeResult, SymbolicWord
from markov_torus.construct import SignCase
from markov_torus.partition import TorusPartition, locate
from markov_torus.torus import InvariantError, Mat2Z

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


def _corners_and_midpoints(ctx: CodingContext):
    """The corners and edge midpoints of every cell's box, carried from the
    model torus to the input matrix's."""
    points = []
    for box in ctx.part.boxes:
        mid_u, mid_w = (box.u_lo + box.u_hi) / 2, (box.w_lo + box.w_hi) / 2
        frame_points = list(box.corners_frame()) + [
            (box.u_lo, mid_w), (box.u_hi, mid_w), (mid_u, box.w_lo), (mid_u, box.w_hi)]
        points += [ctx.from_model(ctx.frame.to_plane(u, w)) for u, w in frame_points]
    return points


@pytest.mark.parametrize("name", [*list(MATRICES)[:4], "10 1 1 0"])
def test_preimage_report_at_cell_boundaries_matches_oracle(name):
    """Cell corners and edge midpoints have several codings, each carried by
    its own lattice representative: stepping every representative of every
    candidate cell finds the words that the per-iterate walk finds."""
    ctx = context(name) if name in MATRICES else CodingContext.from_matrix(Mat2Z(10, 1, 1, 0))
    several = 0
    for point in _corners_and_midpoints(ctx):
        for depth in (1, 2, 3):
            got = ctx.preimage_report(point, depth, max_words=64)
            want = oracles.preimage_report(ctx, point, depth, max_words=64)
            assert (got.count, got.words, got.truncated) == \
                (want.count, want.words, want.truncated), (point, depth)
            several += got.count > 1
    assert several


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


# -- cylinder membership --------------------------------------------------------------


def _cylinder_points(ctx: CodingContext, rect):
    """Corners and edge midpoints (field-valued) of a decoded cylinder."""
    mid_u, mid_w = (rect.u_lo + rect.u_hi) / 2, (rect.w_lo + rect.w_hi) / 2
    frame_points = list(rect.corners_frame()) + [
        (rect.u_lo, mid_w), (rect.u_hi, mid_w), (mid_u, rect.w_lo), (mid_u, rect.w_hi)]
    return [ctx.frame.to_plane(u, w) for u, w in frame_points]


@pytest.mark.parametrize("name", list(MATRICES)[:4])
def test_contains_matches_lattice_scan(name):
    """``DecodeResult.contains`` reads the cover list of the word's first
    cell; the scan it replaced (kept verbatim in ``oracles``) decides every
    rational point, cylinder corner and edge point, and lattice-shifted
    copies of each, for words at negative, zero and positive offsets."""
    ctx = context(name)
    words = [ctx.encode(p, 2) for p in _points(12)]
    symbols = [w.symbols for w in words if isinstance(w, SymbolicWord)][:3]
    results = [ctx.decode(SymbolicWord(s, offset))
               for s in symbols for offset in (-2, -4, 0, 1)]
    verdicts = set()
    for res, other in zip(results, results[1:] + results[:1]):
        base = (_cylinder_points(ctx, res.rect) + _cylinder_points(ctx, other.rect)[:4]
                + [res.center] + _points(4))
        for x, y in base:
            for m, n in ((0, 0), (1, -1), (-2, 3)):
                point = (x + m, y + n)
                for closed in (True, False):
                    got = res.contains(point, closed=closed)
                    assert got == oracles._rect_contains_torus(
                        ctx.frame, res.rect, point, closed=closed)
                    verdicts.add((closed, got))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


# -- broken partitions ----------------------------------------------------------------


def _with_refined(ctx: CodingContext, part: TorusPartition) -> CodingContext:
    return CodingContext(dataclasses.replace(ctx.construction, refined=part))


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


@pytest.mark.parametrize("name", list(MATRICES)[:4])
def test_preimage_report_on_broken_refinements_matches_oracle(name):
    """On the dented and the doubled refinement, a stepped representative
    that no closed row holds (a gap) or that lies inside two cells (an
    overlap) raises wherever the per-iterate walk's ``locate`` raises; every
    other report is the walk's.  The overlap is a box test: a point of an
    edge midpoint's orbit can lie on two rows' image boundaries and inside
    both cells."""
    ctx = context(name)
    part = ctx.part
    forms = [_with_refined(ctx, _break_partition(part)),
             _with_refined(ctx, TorusPartition(
                 part.frame, part.acting, part.lam_act, part.mu_act,
                 part.boxes + part.boxes[:1], part.labels + ("again",)))]
    raised = 0
    for broken in forms:
        for point in _points(20) + _corners_and_midpoints(ctx):
            for depth in (1, 2, 3):
                want = outcome(lambda: oracles.preimage_report(broken, point, depth, 64))
                got = outcome(lambda: broken.preimage_report(point, depth, 64))
                if isinstance(want, tuple):
                    assert isinstance(got, tuple) and got[0] == want[0] == "InvariantError"
                    raised += 1
                else:
                    assert (got.count, got.words, got.truncated) == \
                        (want.count, want.words, want.truncated), (point, depth)
    assert raised


# -- integer points against the field-element coding ---------------------------------


@cache
def broken_context(name: str) -> CodingContext:
    return _with_refined(context(name), _break_partition(context(name).part))


def either(call):
    """What a call returns, or the type and message of the InvariantError or
    ValueError it raises."""
    try:
        return call()
    except (InvariantError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(MATRICES)), st.booleans(), _POINT, st.integers(0, 5))
def test_integer_coding_matches_field_coding(name, broken, drawn, depth):
    """``locate``, ``encode``, ``decode`` (at the encoded offset and two
    others, so that both scale directions and a negative decay exponent
    occur) and ``contains`` (open and closed, at the point, lattice copies
    of it, the centre and the corners) give exactly what the field-element
    coding gave, errors and their messages included."""
    ctx = broken_context(name) if broken else context(name)
    point = model_point(ctx, drawn)
    assert either(lambda: locate(ctx.part, point)) == \
        either(lambda: oracles.quad_locate(ctx.part, point))
    x = ctx.from_model(point)
    word = either(lambda: ctx.encode(x, depth))
    assert word == either(lambda: oracles.quad_encode(ctx, x, depth))
    if not isinstance(word, SymbolicWord):
        return
    for offset in (word.offset, 0, 2):
        shifted = SymbolicWord(word.symbols, offset)
        res = either(lambda: ctx.decode(shifted))
        assert res == either(lambda: oracles.quad_decode(ctx, shifted))
        if not isinstance(res, DecodeResult):
            continue
        corners = [ctx.frame.to_plane(u, w) for u, w in res.rect.corners_frame()]
        for px, py in [point, res.center, *corners]:
            for m, n in ((0, 0), (2, -1)):
                for closed in (True, False):
                    assert res.contains((px + m, py + n), closed) == \
                        oracles.quad_contains(res, (px + m, py + n), closed)


@pytest.mark.parametrize("name", list(MATRICES))
def test_boundary_points_keep_their_types(name):
    """A boundary iterate is reported as the field-element coding reported
    it: fractions for a rational point, field elements for a field point."""
    ctx = context(name)
    box = ctx.part.boxes[0]
    for y in [(Fraction(0), Fraction(0)),
              ctx.frame.to_plane(box.u_lo, box.w_lo + box.w_dim / 3)]:
        point = ctx.from_model(y)
        got, want = ctx.encode(point, 2), oracles.quad_encode(ctx, point, 2)
        assert isinstance(got, BoundaryAmbiguity) and got == want
        assert [type(c) for c in got.point] == [type(c) for c in want.point]


# -- work -----------------------------------------------------------------------------


def test_interior_encode_builds_no_field_element_per_iterate(monkeypatch):
    """Once the tables exist, an interior encode at depth 20 makes no more
    ``exact.reduced_surd`` calls, which every field element but the simplest
    goes through, than one at depth 5."""
    ctx = context("40 1 1 0")
    point = (Fraction(5, 17), Fraction(2, 13))
    ctx.encode(point, 20)  # builds the cover list and the entry lists
    calls = []
    reduced = exact.reduced_surd

    def counted(*args):
        calls.append(args)
        return reduced(*args)

    counts = []
    for depth in (5, 20):
        for module in (exact, basis, torus):
            monkeypatch.setattr(module, "reduced_surd", counted)
        calls.clear()
        assert isinstance(ctx.encode(point, depth), SymbolicWord)
        counts.append(len(calls))
        monkeypatch.undo()
    assert counts[1] <= counts[0]



# QuadReal's arithmetic, floor and comparisons, as class attributes
_FIELD_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__abs__", "inverse",
              "floor", "sign", "_cmp")


@pytest.mark.parametrize("name", [SignCase.PLUS_MINUS.name, "40 1 1 0"])
def test_warm_decode_and_contains_make_no_field_arithmetic(monkeypatch, name):
    """Once the tables exist, ``decode`` (at three offsets, so both scale
    directions and a negative decay exponent occur) and ``contains`` build
    field elements only for the result's fields: no ``QuadReal``
    arithmetic, floor or comparison runs."""
    ctx = context(name)
    x = (Fraction(5, 17), Fraction(2, 13))
    word, model = ctx.encode(x, 4), ctx.to_model(x)
    words = [SymbolicWord(word.symbols, offset) for offset in (word.offset, 0, 2)]
    for w in words:
        ctx.decode(w).contains(model)
    calls = []

    def counted(name, method):
        def call(*args):
            calls.append(name)
            return method(*args)
        return call

    for op in _FIELD_OPS:
        if op in vars(exact.QuadReal):
            monkeypatch.setattr(exact.QuadReal, op, counted(op, vars(exact.QuadReal)[op]))
    results = [ctx.decode(w) for w in words]
    inside = [res.contains(model, closed) for res in results for closed in (True, False)]
    monkeypatch.undo()
    assert calls == []
    assert inside[:2] == [True, True]


@pytest.mark.parametrize("name", list(MATRICES))
def test_decay_bound_failure_matches_the_field_decode(name):
    """With a partition's squared diameter set below every cell's, the
    integer decode raises the field decode's error, message included, for
    each one-symbol word and for an encoded word at three offsets."""
    ctx = CodingContext.from_matrix(MATRICES[name])  # a fresh partition
    part = ctx.part
    pairs = partition.strip_basis(part)
    smallest = min((pairs.diam_sq(*basis.widths(s)) for s in pairs.boxes), key=pairs.order())
    assert pairs.diam_sq_value(smallest) == min(oracles.rect_diam_sq(box, ctx.frame)
                                                for box in part.boxes)
    # below the smallest cell's: times mu^2
    object.__setattr__(part, "_diam_pair", pairs.mul(smallest, pairs.unit(False, 2)))
    word = ctx.encode((Fraction(5, 17), Fraction(2, 13)), 1)
    words = [SymbolicWord((i,), 0) for i in range(part.n)]
    words += [SymbolicWord(word.symbols, offset) for offset in (word.offset, 0, 2)]
    failed = 0
    for w in words:
        got = either(lambda: ctx.decode(w))
        assert got == either(lambda: oracles.quad_decode(ctx, w))
        failed += got == ("InvariantError", f"cylinder of {w} exceeds its decay bound")
    assert failed >= part.n


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


def test_preimage_report_locates_once_and_steps_no_strip(monkeypatch):
    """The origin has three codings on ``40 1 1 0``: the report locates its
    first iterate only and steps the point, never a cylinder strip."""
    ctx = CodingContext.from_matrix(MATRICES["40 1 1 0"])
    ctx.preimage_report((Fraction(0), Fraction(0)), 2)  # builds the tables
    locates, find = [], coding.locate

    def counted_locate(*args):
        locates.append(args)
        return find(*args)

    def no_strip_step(*args):
        raise AssertionError("a cylinder strip was stepped")

    monkeypatch.setattr(coding, "locate", counted_locate)
    for module in (coding, partition):
        monkeypatch.setattr(module, "advance_strips", no_strip_step)
    report = ctx.preimage_report((Fraction(0), Fraction(0)), 20)
    assert report.count == 3
    assert len(locates) == 1


def test_encode_depth_500_from_the_command_line(capsys):
    code = main(["encode", "--matrix", "1 1 1 0", "--point", "1/7 2/7",
                 "--depth", "500", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(payload["word"].split("@")[0].split(",")) == 1001
    assert payload["preimages"]["count"] == 1


@pytest.mark.parametrize("name", list(MATRICES)[:4])
def test_closed_translates_match_the_field_scan(name):
    """The translates where two decoded cylinders' closures meet, as the
    hits of one scan on the partition's strip basis, equal the field scan's
    that tests each hit's closed boxes: every pair of cylinders of the
    admissible words of length 2, at offsets 0 and -1."""
    ctx = context(name)
    succ = partition.step_successors(ctx.part)
    rects = [ctx.decode(SymbolicWord((i, j), offset)).rect
             for i in range(ctx.part.n) for j in succ[i] for offset in (0, -1)]
    for a in rects:
        for b in rects:
            assert partition.closed_translate_meets(ctx.part, a, b) == \
                oracles.closed_translate_meets(ctx.frame, a, b)
