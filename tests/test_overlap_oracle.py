"""The per-mover overlap sweep against the per-pair scans it replaced (kept
verbatim in ``oracles``): the same entries in the same order for every cell
pair, on the base and refined partitions of all four sign cases, their
negative-control forms and drawn boxes, and the same transition graphs,
refinements, disjointness witnesses and backward steps built on them."""

from dataclasses import replace
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from markov_torus import partition
from markov_torus.cli import _break_partition
from markov_torus.coding import CodingContext, SymbolicWord
from markov_torus.construct import (
    SignCase,
    build_base_partition,
    build_markov_construction,
    conjugate_nonnegative,
)
from markov_torus.partition import (
    EigenRect,
    InvariantError,
    TorusPartition,
    _step_successors,
    overlap_table,
    pullback_strips,
    refine,
    strip_of,
    strip_rect,
    transition_graph,
    translate_overlaps,
    verify_translate_disjoint,
)
from markov_torus.torus import Mat2Z
from oracles import _step_table

# one ladder matrix per sign case
MATRICES = {
    SignCase.PLUS_MINUS: Mat2Z(1, 1, 1, 0),
    SignCase.MINUS_PLUS: Mat2Z(-1, -1, -1, 0),
    SignCase.PLUS_PLUS: Mat2Z(2, 1, 1, 1),
    SignCase.MINUS_MINUS: Mat2Z(-2, -3, -1, -2),
}


@pytest.fixture(scope="module", params=list(MATRICES), ids=lambda c: c.name)
def construction(request):
    return build_markov_construction(MATRICES[request.param])


@cache
def base_partition(case):
    """The two-cell partition, built without deriving any overlap table."""
    conj = conjugate_nonnegative(MATRICES[case])
    return build_base_partition(conj.model, conj.epsilon).partition


def partitions(construction):
    """(tag, partition) for the base, the refinement and their broken forms."""
    base, refined = construction.base.partition, construction.refined
    return [("base", base), ("refined", refined),
            ("base-broken", _break_partition(base)),
            ("refined-broken", _break_partition(refined))]


def pair_table(frame, targets, movers):
    """The oracle's entries for every (mover i, target j) pair that overlaps."""
    table = {}
    for i, mover in enumerate(movers):
        for j, target in enumerate(targets):
            entries = oracles.pair_translate_overlaps(frame, target, mover)
            if entries:
                table[i, j] = entries
    return table


def outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except InvariantError as exc:
        return type(exc).__name__, str(exc)


def test_step_tables_match_pair_scans(construction):
    """The forward table is the pair scans of the forward images, and reading
    it backwards gives the pair scans of the inverse images: the same pieces,
    in the same order where each pair has at most one (refined partitions)."""
    for tag, part in partitions(construction):
        movers = [part.phi_box(box) for box in part.boxes]
        expected = pair_table(part.frame, part.boxes, movers)
        assert overlap_table(part.frame, part.boxes, movers) == expected, tag
        assert _step_table(part) == expected, tag
        for cur, box in enumerate(part.boxes):
            img = oracles.phi_inv_box(part, box)
            for prv, target in enumerate(part.boxes):
                want = [comp for _, _, comp in
                        oracles.pair_translate_overlaps(part.frame, target, img)]
                got = [strip_rect(part, strip) for strip in
                       pullback_strips(part, [strip_of(part, box)], cur, prv)]
                if tag.startswith("refined"):
                    assert _ints(got) == _ints(want), (tag, cur, prv)
                else:
                    assert _ints(sorted(got, key=_corner)) == \
                        _ints(sorted(want, key=_corner)), (tag, cur, prv)


def _corner(box):
    return box.w_lo, box.u_lo


def _ints(boxes):
    """Every bound of every box as its integers (a, b, q, d), in order."""
    return [tuple((x.a, x.b, x.q, x.d) for x in (b.u_lo, b.u_hi, b.w_lo, b.w_hi))
            for b in boxes]


def test_cell_against_cell_matches_pair_scans(construction):
    for tag, part in partitions(construction):
        got = overlap_table(part.frame, part.boxes, part.boxes)
        assert got == pair_table(part.frame, part.boxes, part.boxes), tag


def test_graph_refinement_and_disjointness_match_pair_scans(construction):
    for tag, part in partitions(construction):
        assert transition_graph(part).matrix == \
            oracles.pair_transition_graph(part).matrix, tag
        assert refine(part) == oracles.pair_refine(part), tag
        assert verify_translate_disjoint(part) == \
            oracles.pair_verify_translate_disjoint(part), tag


def test_translate_overlaps_is_the_one_pair_table(construction):
    part = construction.refined
    for mover in part.boxes[:3]:
        img = part.phi_box(mover)
        for target in part.boxes:
            assert translate_overlaps(part.frame, target, img) == \
                oracles.pair_translate_overlaps(part.frame, target, img)


# -- drawn boxes -------------------------------------------------------------------

_SCALE = st.sampled_from([Fraction(1, 16), Fraction(1, 3), Fraction(1), Fraction(5, 2)])
# heights up to 128-fold apart, so that a target far below the moved box can
# still reach it and the tallest-target margin decides
_HEIGHT = st.sampled_from([Fraction(1, 32), Fraction(1, 4), Fraction(1), Fraction(4)])
_LATTICE = st.tuples(st.integers(-2, 2), st.integers(-2, 2))

_BOX = st.tuples(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),       # corner, in 1/4 steps
    _SCALE, _HEIGHT,
)
# (source box, edge, lattice translate, slide along the edge in 1/4 steps):
# a box that touches the source along an edge modulo the lattice
_TOUCH = st.tuples(st.integers(0, 5), st.sampled_from(["u", "w"]), _LATTICE,
                   st.integers(-3, 3))


def _drawn_boxes(part, boxes, touches):
    unit_u, unit_w = part.boxes[0].u_dim, part.boxes[0].w_dim
    out = []
    for (cu, cw), ku, kw in boxes:
        u_lo, w_lo = unit_u * Fraction(cu, 4), unit_w * Fraction(cw, 4)
        out.append(EigenRect(u_lo, u_lo + unit_u * ku, w_lo, w_lo + unit_w * kw))
    for src, edge, q, slide in touches:
        box = out[src % len(out)]
        qu, qw = part.frame.lattice_frame(*q)
        if edge == "u":  # meets box + q along its right edge
            u_lo = box.u_hi + qu
            w_lo = box.w_lo + qw + box.w_dim * Fraction(slide, 4)
            out.append(EigenRect(u_lo, u_lo + box.u_dim, w_lo, w_lo + box.w_dim * 2))
        else:  # meets box + q along its top edge
            u_lo = box.u_lo + qu + box.u_dim * Fraction(slide, 4)
            w_lo = box.w_hi + qw
            out.append(EigenRect(u_lo, u_lo + box.u_dim / 2, w_lo, w_lo + box.w_dim))
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(MATRICES)), st.lists(_BOX, min_size=1, max_size=5),
       st.lists(_TOUCH, max_size=3), st.booleans())
def test_drawn_boxes_match_pair_scans(case, boxes, touches, stepped):
    """Drawn targets of very different heights, boxes touching others along
    an edge modulo the lattice, and movers that are the targets themselves
    or (``stepped``) their forward and inverse images."""
    part = base_partition(case)
    targets = _drawn_boxes(part, boxes, touches)
    movers = list(targets)
    if stepped:
        movers += [part.phi_box(b) for b in targets]
        movers += [oracles.phi_inv_box(part, b) for b in targets]
    assert overlap_table(part.frame, targets, movers) == \
        pair_table(part.frame, targets, movers)
    drawn = TorusPartition(part.frame, part.acting, part.lam_act, part.mu_act,
                           tuple(targets), tuple(str(k) for k in range(len(targets))))
    assert verify_translate_disjoint(drawn) == \
        oracles.pair_verify_translate_disjoint(drawn)
    assert outcome(lambda: transition_graph(drawn).matrix) == \
        outcome(lambda: oracles.pair_transition_graph(drawn).matrix)
    assert outcome(lambda: refine(drawn)) == outcome(lambda: oracles.pair_refine(drawn))


# -- table reuse -------------------------------------------------------------------


@pytest.mark.parametrize("case", list(MATRICES), ids=lambda c: c.name)
def test_refined_forward_table_is_built_by_the_constructor(case, monkeypatch):
    """The constructor's geometric recheck derives the refined partition's
    step table, so the walks of ``verify`` and decode scan nothing more.
    The recheck scans through ``lattice_in_frame_box``: a fresh copy of the
    partition scans there once per cell."""
    built = build_markov_construction(MATRICES[case])
    scans = []
    scan = partition.lattice_in_frame_box

    def counted(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(partition, "lattice_in_frame_box", counted)
    _step_table(built.refined)
    assert scans == []
    ctx = CodingContext(built)
    succ = _step_successors(built.refined)
    for i, row in enumerate(succ):
        for j in row:
            for k in succ[j]:
                ctx.decode(SymbolicWord((i, j, k), -1))
    assert scans == []
    transition_graph(_copy(built.refined))
    assert len(scans) == built.refined.n


def _copy(part, acting=None, power=1):
    """The partition's boxes in a new partition, with nothing cached; with
    ``acting``, the same boxes acting by that power of the map."""
    return TorusPartition(part.frame, acting or part.acting, part.lam_act ** power,
                          part.mu_act ** power, part.boxes, part.labels)


@pytest.mark.parametrize("case", list(MATRICES), ids=lambda c: c.name)
def test_build_leaves_the_refined_table_undecoded(case):
    """The recheck reads the integer table's counts only, and ``refine``
    decodes components one by one: after a build the refined partition
    holds no decoded step table, and decoding the integer table gives the
    pair scans' entries."""
    built = build_markov_construction(MATRICES[case])
    part = built.refined
    assert "_forward_table" not in part.__dict__
    movers = [part.phi_box(box) for box in part.boxes]
    assert _step_table(part) == pair_table(part.frame, part.boxes, movers)


LADDER = ("1 1 1 0", "-1 -1 -1 0", "2 1 1 1", "0 1 1 3", "-2 -3 -1 -2",
          "3 2 1 1", "5 2 2 1", "10 1 1 0", "15 1 1 0")


@pytest.mark.parametrize("text", LADDER)
def test_boxes_acting_by_the_square_match_pair_scans(text):
    """The ladder's base and refined boxes acting by A^2: the images span
    more than one lattice cell, so a mover meets the targets along several
    translates.  The integer table's entries decode to the pair scans', its
    counts are the pair scans' graph, and its successor lists that graph's
    support."""
    built = build_markov_construction(Mat2Z(*map(int, text.split())))
    for tag, part in (("base", built.base.partition), ("refined", built.refined)):
        square = _copy(part, part.acting @ part.acting, 2)
        movers = [square.phi_box(box) for box in square.boxes]
        expected = pair_table(square.frame, square.boxes, movers)
        translates = {(i, q) for (i, _), entries in expected.items()
                      for q, _, _ in entries}
        assert len(translates) > len(movers), tag
        basis = partition._strip_basis(square)
        ints = partition._int_overlaps(square.frame, basis, basis.boxes,
                                       list(map(basis.strip, movers)))
        assert partition._decoded(basis, ints) == expected, tag
        graph = oracles.pair_transition_graph(square).matrix
        assert transition_graph(square).matrix == graph, tag
        assert _step_successors(square) == \
            [[j for j, count in enumerate(row) if count] for row in graph], tag
        assert _step_table(square) == expected, tag


@pytest.mark.parametrize("bound", range(4), ids=["u_lo", "u_hi", "w_lo", "w_hi"])
def test_a_lone_denominator_enters_the_grid(bound):
    """One bound of one box carries a prime that no other value's
    denominator has: the basis modulus must still take it in, whichever
    bound it is, for a table's own basis (as targets, as movers and as
    their images) and for the basis of a partition of those boxes."""
    part = base_partition(SignCase.PLUS_PLUS)
    box = part.boxes[0]
    bounds = [box.u_lo, box.u_hi, box.w_lo, box.w_hi]
    step = (box.u_dim, box.w_dim)[bound // 2] * Fraction(1, 7919)
    bounds[bound] += step if bound % 2 else -step
    targets = [EigenRect(*bounds), *part.boxes[1:]]
    for movers in (targets, [part.phi_box(b) for b in targets]):
        assert overlap_table(part.frame, targets, movers) == \
            pair_table(part.frame, targets, movers)
    dented = replace(part, boxes=tuple(targets))
    assert partition._strip_basis(dented).modulus % 7919 == 0
    assert verify_translate_disjoint(dented) == \
        oracles.pair_verify_translate_disjoint(dented)
    assert outcome(lambda: transition_graph(dented).matrix) == \
        outcome(lambda: oracles.pair_transition_graph(dented).matrix)


def test_scan_recheck_refuses_a_hit_outside_the_box(monkeypatch):
    """Column bounds one too wide on each side give hits outside the box:
    the scan's re-check refuses them, in a single scan and in an overlap
    table."""
    part = base_partition(SignCase.PLUS_MINUS)
    basis = partition._strip_basis(part)
    floor = partition.floor_surd
    monkeypatch.setattr(partition, "floor_surd", lambda *args: floor(*args) + 1)
    with pytest.raises(InvariantError, match="lies outside the box"):
        partition.lattice_in_frame_box(part.frame, basis, basis.boxes[0])
    with pytest.raises(InvariantError, match="lies outside the box"):
        overlap_table(part.frame, part.boxes, part.boxes)
