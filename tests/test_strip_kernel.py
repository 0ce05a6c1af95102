"""The one strip-step kernel behind ``advance_strips`` and ``pullback_strips``
against the scale-translate-intersect steps it replaced (kept verbatim in
``oracles``): the same boxes, in the same order, down to the integers of
every bound, for every cell pair of the base, refined and negative-control
partitions of one ladder matrix per sign case; whole boxes, pieces that
touch a clip box along an edge, and drawn sub-boxes.  Then metamorphic
steps: the same boxes acting by A^2 step like two A steps, and acting by
A^-1 they have the transposed graph."""

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from markov_torus.cli import _break_partition
from markov_torus.construct import SignCase, build_markov_construction
from markov_torus.partition import (
    EigenRect,
    TorusPartition,
    _step_table,
    advance_strips,
    pullback_strips,
    transition_graph,
)
from markov_torus.torus import Mat2Z

# one ladder matrix per sign case
MATRICES = {
    SignCase.PLUS_MINUS: Mat2Z(1, 1, 1, 0),
    SignCase.MINUS_PLUS: Mat2Z(-1, -1, -1, 0),
    SignCase.PLUS_PLUS: Mat2Z(2, 1, 1, 1),
    SignCase.MINUS_MINUS: Mat2Z(-2, -3, -1, -2),
}
FORMS = ("base", "refined", "base-broken", "refined-broken")


@cache
def construction(matrix: Mat2Z):
    return build_markov_construction(matrix)


@cache
def form(matrix: Mat2Z, tag: str) -> TorusPartition:
    built = construction(matrix)
    part = built.refined if tag.startswith("refined") else built.base.partition
    return _break_partition(part) if tag.endswith("broken") else part


def exact(boxes):
    """Every bound of every box as its integers, in order."""
    return [tuple((x.a, x.b, x.q, x.d) for x in (b.u_lo, b.u_hi, b.w_lo, b.w_hi))
            for b in boxes]


def clips(part: TorusPartition, cur: int, to: int, forward: bool):
    """The boxes inside box(cur) that a step from cur to ``to`` keeps:
    phi^-1(comp - shift) forward, the component itself backward."""
    table = _step_table(part)
    if forward:
        return [part.phi_inv_box(comp.translate(-du, -dw))
                for _, (du, dw), comp in table.get((cur, to), ())]
    return [comp for _, _, comp in table.get((to, cur), ())]


def touching(box: EigenRect, clip: EigenRect):
    """The clip and the parts of ``box`` beside it, each sharing one of the
    clip's ends exactly; an open step must not keep a shared end alone."""
    out = [clip]
    for lo, hi in ((box.u_lo, clip.u_lo), (clip.u_hi, box.u_hi)):
        if lo < hi:
            out.append(EigenRect(lo, hi, box.w_lo, box.w_hi))
    for lo, hi in ((box.w_lo, clip.w_lo), (clip.w_hi, box.w_hi)):
        if lo < hi:
            out.append(EigenRect(box.u_lo, box.u_hi, lo, hi))
    return out


def assert_steps_match(part: TorusPartition, pieces, cur: int, tag):
    for to in range(part.n):
        assert exact(advance_strips(part, pieces, cur, to)) == \
            exact(oracles.advance_strips(part, pieces, cur, to)), (tag, cur, to)
        assert exact(pullback_strips(part, pieces, cur, to)) == \
            exact(oracles.pullback_strips(part, pieces, cur, to)), (tag, cur, to)


@pytest.mark.parametrize("case", list(MATRICES), ids=lambda c: c.name)
def test_steps_match_the_old_steps(case):
    """Every cell pair in both directions, from the whole box, from each clip
    box and from the pieces touching it, one at a time and all at once."""
    for tag in FORMS:
        part = form(MATRICES[case], tag)
        for cur, box in enumerate(part.boxes):
            pieces = [box]
            for to in range(part.n):
                for forward in (True, False):
                    for clip in clips(part, cur, to, forward):
                        pieces += touching(box, clip)
            for piece in pieces:
                assert_steps_match(part, [piece], cur, (tag, piece))
            assert_steps_match(part, pieces, cur, tag)


@st.composite
def sub_box(draw, box: EigenRect, ends):
    """A sub-box of ``box`` whose ends are drawn fractions of its extents or,
    now and then, ends of a clip box inside it."""
    def interval(lo, hi, snaps):
        cuts = sorted(draw(st.lists(
            st.fractions(0, 1, max_denominator=12), min_size=2, max_size=2,
            unique=True)))
        a, b = (lo + (hi - lo) * t for t in cuts)
        inside = [x for x in snaps if lo <= x <= hi]
        if inside and draw(st.booleans()):
            x = draw(st.sampled_from(inside))
            a, b = (a, x) if a < x else (x, b) if x < b else (a, b)
        return a, b

    u_lo, u_hi = interval(box.u_lo, box.u_hi,
                          [x for clip in ends for x in (clip.u_lo, clip.u_hi)])
    w_lo, w_hi = interval(box.w_lo, box.w_hi,
                          [x for clip in ends for x in (clip.w_lo, clip.w_hi)])
    return EigenRect(u_lo, u_hi, w_lo, w_hi)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(list(MATRICES)), st.sampled_from(FORMS), st.data())
def test_drawn_pieces_step_like_the_old_steps(case, tag, data):
    part = form(MATRICES[case], tag)
    cur = data.draw(st.integers(0, part.n - 1))
    box = part.boxes[cur]
    ends = [clip for to in range(part.n) for forward in (True, False)
            for clip in clips(part, cur, to, forward)]
    pieces = data.draw(st.lists(sub_box(box, ends), min_size=1, max_size=3))
    assert_steps_match(part, pieces, cur, tag)


# -- metamorphic steps -------------------------------------------------------------

LADDER = [Mat2Z(1, 1, 1, 0), Mat2Z(2, 1, 1, 1), Mat2Z(-2, -3, -1, -2),
          Mat2Z(0, 1, 1, 3), Mat2Z(-1, -1, -1, 0), Mat2Z(3, 2, 1, 1)]


def squared(part: TorusPartition) -> TorusPartition:
    """The same boxes, acting by A^2."""
    return TorusPartition.build(part.frame, part.acting @ part.acting,
                                part.boxes, part.labels)


def composition_failures(part: TorusPartition) -> list[tuple[str, int, int]]:
    """The pairs (i, k) where one A^2 step of a whole box differs, as a set
    of boxes, from two A steps through every middle cell j."""
    twice = squared(part)
    bad = []
    for i, box_i in enumerate(part.boxes):
        for k, box_k in enumerate(part.boxes):
            forward = [box for j in range(part.n) for box in advance_strips(
                part, advance_strips(part, [box_i], i, j), j, k)]
            if sorted(exact(advance_strips(twice, [box_i], i, k))) != \
                    sorted(exact(forward)):
                bad.append(("forward", i, k))
            backward = [box for j in range(part.n) for box in pullback_strips(
                part, pullback_strips(part, [box_k], k, j), j, i)]
            if sorted(exact(pullback_strips(twice, [box_k], k, i))) != \
                    sorted(exact(backward)):
                bad.append(("backward", i, k))
    return bad


@pytest.mark.parametrize("matrix", LADDER, ids=lambda m: f"{m.a} {m.b} {m.c} {m.d}")
def test_markov_partition_is_markov_for_a_squared_and_a_inverse(matrix):
    built = construction(matrix)
    for tag, part in (("base", built.base.partition), ("refined", built.refined)):
        g = transition_graph(part).matrix
        n = part.n
        g_sq = tuple(tuple(sum(g[i][j] * g[j][k] for j in range(n))
                           for k in range(n)) for i in range(n))
        assert transition_graph(squared(part)).matrix == g_sq, tag
        assert composition_failures(part) == [], tag
        inverse = TorusPartition(part.frame, part.acting.inverse(),
                                 part.lam_act.inverse(), part.mu_act.inverse(),
                                 part.boxes, part.labels)
        assert transition_graph(inverse).matrix == tuple(zip(*g)), tag


@pytest.mark.parametrize("matrix", LADDER, ids=lambda m: f"{m.a} {m.b} {m.c} {m.d}")
def test_broken_partitions_fail_composition(matrix):
    """Negative control: a dented cell breaks the Markov property, and two
    A steps then differ from one A^2 step somewhere."""
    built = construction(matrix)
    for tag, part in (("base", built.base.partition), ("refined", built.refined)):
        assert composition_failures(_break_partition(part)), tag
