"""The boundary check joined by lattice class against the pairwise solves it
replaced (kept verbatim in ``oracles``): the same witnesses in the same
order, kind, cell, edge coordinate and gap point, on the ladder's base and
refined partitions and their negative-control forms, on ``40 1 1 0``, and on
partitions with one edge dented or shifted along its line and across the
lattice."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from markov_torus.basis import EigenRect
from markov_torus.cli import _break_partition
from markov_torus.construct import build_markov_construction
from markov_torus.exact import QuadReal
from markov_torus.partition import TorusPartition
from markov_torus.torus import Mat2Z
from markov_torus.walk import _cover_gap, _merged, verify_boundary_alignment

LADDER = ("1 1 1 0", "-1 -1 -1 0", "2 1 1 1", "0 1 1 3", "-2 -3 -1 -2",
          "3 2 1 1", "5 2 2 1", "10 1 1 0", "15 1 1 0")


@cache
def construction(text):
    return build_markov_construction(Mat2Z(*map(int, text.split())))


def _ints(witnesses):
    """Every witness with its coordinates as their integers (a, b, q, d)."""
    return [(w.kind, w.cell, *((x.a, x.b, x.q, x.d) for x in (w.edge_coord, w.gap_at)))
            for w in witnesses]


def assert_same_witnesses(part, tag):
    got = verify_boundary_alignment(part)
    assert _ints(got) == _ints(oracles.verify_boundary_alignment(part)), tag
    return got


@pytest.mark.parametrize("text", LADDER + ("40 1 1 0",))
def test_witnesses_match_pairwise_solves(text):
    built = construction(text)
    for tag, part in (("base", built.base.partition), ("refined", built.refined)):
        assert assert_same_witnesses(part, tag) == [], tag
        # the dent uncovers images, so the comparison covers witnesses too
        assert assert_same_witnesses(_break_partition(part), tag + "-broken"), tag


# (cell, edge, lattice point, move in eighths of the edge's cell dimension):
# the edge moves along its axis by that lattice point's coordinate plus the
# fraction, so it may leave its line's class, stay in it with other integer
# parts, or dent its cell
_MOVE = st.tuples(st.integers(0, 10 ** 6), st.sampled_from(["u_lo", "u_hi", "w_lo", "w_hi"]),
                  st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-8, 8))


def _moved(part, move):
    index, edge, q, eighths = move
    cell = index % part.n
    box = part.boxes[cell]
    qu, qw = part.frame.lattice_frame(*q)
    if edge.startswith("u"):
        step = qu + box.u_dim * Fraction(eighths, 8)
    else:
        step = qw + box.w_dim * Fraction(eighths, 8)
    bounds = {"u_lo": box.u_lo, "u_hi": box.u_hi, "w_lo": box.w_lo, "w_hi": box.w_hi}
    bounds[edge] = bounds[edge] + step
    if bounds["u_lo"] >= bounds["u_hi"] or bounds["w_lo"] >= bounds["w_hi"]:
        return None
    boxes = list(part.boxes)
    boxes[cell] = EigenRect(bounds["u_lo"], bounds["u_hi"], bounds["w_lo"], bounds["w_hi"])
    return TorusPartition(part.frame, part.acting, part.lam_act, part.mu_act,
                          tuple(boxes), part.labels)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(LADDER[:5]), st.booleans(), st.lists(_MOVE, min_size=1, max_size=2))
def test_moved_edges_match_pairwise_solves(text, refined, moves):
    built = construction(text)
    part = built.refined if refined else built.base.partition
    for move in moves:
        moved = _moved(part, move)
        if moved is not None:
            part = moved
    assert_same_witnesses(part, (text, refined, moves))


_END = st.integers(-12, 12).map(lambda k: QuadReal(Fraction(k, 4)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_END, _END), max_size=8), _END, _END)
def test_merged_cover_gap_matches_the_walk(ends, lo, hi):
    """One bisect into the merged intervals gives the walk's gap, on pieces
    that overlap, touch, nest and repeat."""
    pieces = [(a, b) if a <= b else (b, a) for a, b in ends]
    if not lo < hi:
        lo, hi = hi, lo + 1
    assert _cover_gap(lo, hi, _merged(pieces)) == oracles._cover_gap(lo, hi, pieces)
