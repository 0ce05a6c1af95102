"""The one strip-step kernel behind ``advance_strips`` and ``pullback_strips``
against the scale-translate-intersect steps it replaced (kept verbatim in
``oracles``): the same boxes, in the same order, down to the integers of
every bound once decoded, for every cell pair of the base, refined and
negative-control partitions of one ladder matrix per sign case; whole
boxes, pieces that touch a clip box along an edge, drawn sub-boxes, and
drawn pieces spanning a whole side of their cell.  Wherever it is compared,
the walk's node step, ``advance_node``, gives strip for strip what one
``advance_strips`` per successor gives.  The entry lists built from the
integer step rows match the builder over the decoded table, one list per
row, refuse a clip outside its cell, and on a Markov partition let no step
compare anything.
The integer strip basis round-trips every box and refuses bounds outside its
module, and a walk on it builds no field element.  Then metamorphic steps:
the same boxes acting by A^2 step like two A steps, and acting by A^-1 they
have the transposed graph."""

import math
from dataclasses import replace
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from markov_torus import basis as basis_module
from markov_torus import exact as exact_module
from markov_torus import partition as partition_module
from markov_torus.basis import EigenRect, StripBasis
from markov_torus.cli import _break_partition
from markov_torus.construct import SignCase, build_markov_construction
from markov_torus.exact import QuadReal
from markov_torus.partition import (
    TorusPartition,
    _strip_entries,
    advance_node,
    advance_strips,
    cylinder_components,
    pullback_strips,
    step_rows,
    strip_basis,
    strip_rect,
    transition_graph,
)
from markov_torus.torus import InvariantError, Mat2Z
from markov_torus.walk import CellAreaSum, NfoldCount, refinement_cells_depth, walk_words
from oracles import _step_table

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


def ints(x: QuadReal):
    return x.a, x.b, x.q, x.d


def exact(boxes):
    """Every bound of every box as its integers, in order."""
    return [tuple(ints(x) for x in (b.u_lo, b.u_hi, b.w_lo, b.w_hi)) for b in boxes]


def clips(part: TorusPartition, cur: int, to: int, forward: bool):
    """The boxes inside box(cur) that a step from cur to ``to`` keeps:
    phi^-1(comp - shift) forward, the component itself backward."""
    table = _step_table(part)
    if forward:
        return [oracles.phi_inv_box(part, comp.translate(-du, -dw))
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


def advance(part: TorusPartition, boxes, cur: int, to: int):
    """``advance_strips`` on boxes: encoded, stepped and decoded."""
    strips = advance_strips(part, [strip_basis(part).strip(box) for box in boxes], cur, to)
    return [strip_rect(part, strip) for strip in strips]


def pullback(part: TorusPartition, boxes, cur: int, to: int):
    """``pullback_strips`` on boxes: encoded, stepped and decoded."""
    strips = pullback_strips(part, [strip_basis(part).strip(box) for box in boxes], cur, to)
    return [strip_rect(part, strip) for strip in strips]


def assert_steps_match(part: TorusPartition, pieces, cur: int, tag):
    strips = [strip_basis(part).strip(box) for box in pieces]
    assert advance_node(part, strips, cur) == [
        advance_strips(part, strips, cur, to)
        for to in partition_module.step_successors(part)[cur]], (tag, cur)
    for to in range(part.n):
        assert exact(advance(part, pieces, cur, to)) == \
            exact(oracles.advance_strips(part, pieces, cur, to)), (tag, cur, to)
        assert exact(pullback(part, pieces, cur, to)) == \
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
def sub_box(draw, box: EigenRect, ends, mu_abs: QuadReal):
    """A sub-box of ``box`` whose ends lie in the strip module or, now and
    then, are ends of a clip box inside it.  An end is lo + m*|mu|^k*(hi - lo)
    with 0 <= m <= |lam|^k: |mu|^k is in Z[lam], so the end is in the
    module whenever lo and hi are, and it lies in [lo, hi] as |lam*mu| = 1."""
    def interval(lo, hi, snaps):
        k = draw(st.integers(0, 4))
        step = (hi - lo) * mu_abs ** k
        top = (1 / mu_abs ** k).floor()
        cuts = sorted(draw(st.lists(st.integers(0, top), min_size=2, max_size=2,
                                    unique=True)))
        a, b = (lo + step * m for m in cuts)
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
    pieces = data.draw(st.lists(sub_box(box, ends, abs(part.mu_act)),
                                min_size=1, max_size=3))
    assert_steps_match(part, pieces, cur, tag)


@pytest.mark.parametrize("whole_u, whole_w",
                         [(True, False), (False, True), (True, True), (False, False)],
                         ids=["whole-u", "whole-w", "whole-both", "whole-neither"])
@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(list(MATRICES)), tag=st.sampled_from(FORMS), data=st.data())
def test_pieces_with_whole_sides_step_like_the_old_steps(whole_u, whole_w, case, tag, data):
    """Pieces that span box(cur)'s whole u side, its whole w side, both or
    neither: the sides that take the kernel's shortcuts, against the old
    steps on every form, in both directions."""
    part = form(MATRICES[case], tag)
    cur = data.draw(st.integers(0, part.n - 1))
    box = part.boxes[cur]
    ends = [clip for to in range(part.n) for forward in (True, False)
            for clip in clips(part, cur, to, forward)]
    drawn = data.draw(sub_box(box, ends, abs(part.mu_act)))
    u = (box.u_lo, box.u_hi) if whole_u else (drawn.u_lo, drawn.u_hi)
    w = (box.w_lo, box.w_hi) if whole_w else (drawn.w_lo, drawn.w_hi)
    assert_steps_match(part, [EigenRect(*u, *w)], cur, tag)


def test_entry_lists_match_the_decoded_builder():
    """The entry lists built from the integer step rows hold, tuple for
    tuple, the clips and shifts that the builder over the decoded table
    held, one list per step row (backward, one per row and ``to``) and one
    row per entry; each row leads with its output index (forward, its
    ``to`` among the successors), each
    clip's flags say whether its sides are box(cur)'s, and its image is the
    other direction's clip of the same table entry."""
    parts = [(case.name, tag, form(matrix, tag))
             for case, matrix in MATRICES.items() for tag in FORMS]
    parts += [("40 1 1 0", tag, form(Mat2Z(40, 1, 1, 0), tag)) for tag in FORMS]
    for name, tag, part in parts:
        new = {forward: _strip_entries(part, forward) for forward in (True, False)}
        old = {forward: oracles.strip_entries(part, forward) for forward in (True, False)}
        boxes, table = strip_basis(part).boxes, step_rows(part)
        succ = partition_module.step_successors(part)
        for forward in (True, False):
            lists, sides, *rest, keys = new[forward]
            old_entries, *old_rest = old[forward]
            assert rest == old_rest, (name, tag, forward)
            assert keys == succ
            assert sides == [(box[:4], box[4:]) for box in boxes]
            grouped: dict = {}
            for i, (entries, rows) in enumerate(zip(table, lists, strict=True)):
                if not forward:  # one list per ``to``, ascending
                    assert list(rows) == succ[i], (name, tag)
                    rows = [row for to in rows for row in rows[to]]
                for (to, *_), row in zip(entries, rows, strict=True):
                    assert row[0] == (succ[i].index(to) if forward else 0)
                    grouped.setdefault((i, to) if forward else (to, i), []).append(row)
            assert sorted(grouped) == sorted(old_entries), (name, tag, forward)
            for (cur, to), rows in grouped.items():
                assert [(*clip_u, *clip_w, *shift) for _, clip_u, clip_w, *shift, _, _, _, _
                        in rows] == old_entries[cur, to], (name, tag, forward)
                back = old[not forward][0][to, cur]
                for (_, clip_u, clip_w, *_, whole_u, whole_w, img_u, img_w), other \
                        in zip(rows, back, strict=True):
                    assert (whole_u, whole_w) == (clip_u == boxes[cur][:4],
                                                  clip_w == boxes[cur][4:])
                    assert img_u + img_w == other[:8]


ROW_MATRICES = [*MATRICES.values(), Mat2Z(0, 1, 1, 3), Mat2Z(3, 2, 1, 1), Mat2Z(5, 2, 2, 1),
                Mat2Z(10, 1, 1, 0), Mat2Z(15, 1, 1, 0), Mat2Z(40, 1, 1, 0)]


@pytest.mark.parametrize("matrix", ROW_MATRICES, ids=lambda m: f"{m.a} {m.b} {m.c} {m.d}")
def test_step_rows_keep_the_order_their_readers_rely_on(matrix):
    """The graph, the successors, the refinement and the steps read the
    rows in place: each row ascends in ``to`` and, within one ``to``, in
    the lattice order of a scan, and a refinement's rows, read off its
    parent's, are those of the scan of a parentless copy, in order.  The
    graph counts each row's ``to``, the successors are its distinct
    ``to``, and refine's cells come one per entry, row by row."""
    for tag in FORMS:
        part = form(matrix, tag)
        rows = step_rows(part)
        assert rows == step_rows(replace(part)), tag
        for row in rows:
            keys = [(to, q) for to, q, _, _ in row]
            assert keys == sorted(set(keys)), tag
        assert transition_graph(part).matrix == tuple(
            tuple(sum(entry[0] == j for entry in row) for j in range(part.n)) for row in rows)
        assert partition_module.step_successors(part) == [
            sorted({to for to, *_ in row}) for row in rows], tag
        assert [cell.symbols for cell in partition_module.refine(part)] == [
            (i, to) for i, row in enumerate(rows) for to, *_ in row], tag


def admissible_words(part: TorusPartition, length: int):
    graph = transition_graph(part).matrix
    words = [(i,) for i in range(part.n)]
    for _ in range(length - 1):
        words = [word + (j,) for word in words for j in range(part.n)
                 if graph[word[-1]][j]]
    return words


@pytest.mark.parametrize("matrix", [*MATRICES.values(), Mat2Z(0, 1, 1, 3),
                                    Mat2Z(3, 2, 1, 1)],
                         ids=lambda m: f"{m.a} {m.b} {m.c} {m.d}")
def test_markov_steps_compare_nothing(matrix, monkeypatch):
    """On a Markov partition every side of every step takes a shortcut: a
    forward walk to length 5 and the backward steps of every cylinder of
    length 4 make no sign test.  The dented forms do make some, in both
    directions, so the count sees the general clip."""
    calls = []
    sign = basis_module.sign_surd

    def counting(*args):
        calls.append(args)
        return sign(*args)

    for tag in FORMS:
        part = form(matrix, tag)
        words = admissible_words(part, 4)
        _strip_entries(part, True)
        _strip_entries(part, False)
        monkeypatch.setattr(basis_module, "sign_surd", counting)
        walk_words(part, [NfoldCount(1, 5)])
        forward, calls[:] = len(calls), []
        for word in words:
            cylinder_components(part, word)
        backward, calls[:] = len(calls), []
        monkeypatch.undo()
        if tag.endswith("broken"):
            assert forward > 0 and backward > 0, tag
        else:
            assert (forward, backward) == (0, 0), tag


def test_entry_lists_refuse_a_clip_outside_its_cell(monkeypatch):
    """The shortcuts rest on every clip lying in box(cur): a forward clip
    moved by phi where phi^-1 belongs leaves it, and building the list
    says so."""
    part = replace(form(MATRICES[SignCase.PLUS_MINUS], "refined"))
    factor = StripBasis.factor
    monkeypatch.setattr(StripBasis, "factor",
                        lambda self, forward, along_u: factor(self, True, along_u))
    with pytest.raises(InvariantError, match="leaves box"):
        _strip_entries(part, True)


def test_change_of_basis_refuses_values_outside_the_module():
    """Values enter the strip basis only from the same field and only where
    they lie in its module: every bound goes to its pair and back, and
    1/(7Q) and an element of another field are refused."""
    part = form(MATRICES[SignCase.PLUS_MINUS], "refined")
    basis = strip_basis(part)
    for box in part.boxes:
        for x in (box.u_lo, box.u_hi, box.w_lo, box.w_hi):
            assert basis.value(*basis.pair(x)) == x
    finer = QuadReal(Fraction(1, 7 * basis.modulus))  # not (X + Y*lam)/Q
    big_x, big_y, den = basis.over(finer)
    assert basis.value(big_x, big_y, den) == finer
    with pytest.raises(InvariantError, match="outside the strip module"):
        basis.pair(finer)
    with pytest.raises(InvariantError, match="outside the strip module"):
        basis.pair(QuadReal(0, 1, 12))  # sqrt(12) is not in Q(sqrt(5))


# -- the strip basis ---------------------------------------------------------------


@pytest.mark.parametrize("case", list(MATRICES), ids=lambda c: c.name)
def test_strip_basis_round_trips_every_box_and_clip(case):
    for tag in FORMS:
        part = form(MATRICES[case], tag)
        boxes = list(part.boxes) + [
            clip for cur in range(part.n) for to in range(part.n)
            for forward in (True, False) for clip in clips(part, cur, to, forward)]
        assert exact(strip_rect(part, strip_basis(part).strip(box)) for box in boxes) == \
            exact(boxes), tag


def test_strip_basis_denominators():
    """The module denominator Q is the lcm of |b|*q over the bounds and the
    lattice generators, lam being (a + b*sqrt(d))/q: d = 12 for -2 -3 -1 -2,
    and its dented base partition needs 32 times the real one's Q."""
    matrix = MATRICES[SignCase.MINUS_MINUS]
    real, broken = form(matrix, "base"), form(matrix, "base-broken")
    assert strip_basis(real).d == 12
    assert (strip_basis(real).modulus, strip_basis(broken).modulus) == (36, 1152)
    for part in (real, broken):
        basis = strip_basis(part)
        lam = QuadReal(Fraction(basis.a, basis.q), Fraction(basis.b, basis.q), basis.d)
        assert lam == part.lam_act
        assert part.mu_act == basis.t - lam and lam * part.mu_act == basis.delta


def test_strip_of_refuses_bounds_outside_the_module():
    part = form(MATRICES[SignCase.PLUS_MINUS], "refined")
    box = part.boxes[0]
    modulus = strip_basis(part).modulus
    finer = box.u_lo + Fraction(1, 7 * modulus)  # 1/(7Q) is not (X + Y*lam)/Q
    assert finer < box.u_hi
    with pytest.raises(InvariantError, match="outside the strip module"):
        strip_basis(part).strip(EigenRect(finer, box.u_hi, box.w_lo, box.w_hi))
    # a box of -2 -3 -1 -2 has bounds in Q(sqrt(12)), not in Q(sqrt(5))
    other = form(MATRICES[SignCase.MINUS_MINUS], "base").boxes[0]
    with pytest.raises(InvariantError, match="outside the strip module"):
        strip_basis(part).strip(other)


def test_strip_basis_checks_the_acting_eigenvalues():
    part = form(MATRICES[SignCase.PLUS_MINUS], "refined")
    wrong = TorusPartition(part.frame, part.acting, part.lam_act, -part.mu_act,
                           part.boxes, part.labels)
    with pytest.raises(InvariantError, match="do not solve"):
        strip_basis(wrong).strip(part.boxes[0])


def test_base_walk_builds_no_field_element(monkeypatch):
    """Once the basis and the entry lists exist, a whole base walk of
    -2 -3 -1 -2 to depth 5 (the ``verify`` visitors) builds no QuadReal and
    takes no gcd: every step is integer pairs."""
    part = construction(MATRICES[SignCase.MINUS_MINUS]).base.partition
    _strip_entries(part, True)
    made, gcds = [], []
    make, gcd = exact_module._make, math.gcd
    monkeypatch.setattr(exact_module, "_make",
                        lambda *args: made.append(args) or make(*args))
    monkeypatch.setattr(math, "gcd", lambda *args: gcds.append(args) or gcd(*args))
    visitors = [NfoldCount(3, 5), *(CellAreaSum(part, k) for k in range(2, 6))]
    walk_words(part, visitors)
    assert (len(made), len(gcds)) == (0, 0)
    monkeypatch.undo()
    assert [v.result()[0] for v in visitors[1:]] == [30, 112, 418, 1560]


@pytest.mark.parametrize("case", list(MATRICES), ids=lambda c: c.name)
def test_cell_area_sums_match_decoded_cells(case):
    """The integer area sums equal the areas of the decoded cells, also on
    the broken forms, where they are not 1."""
    for tag in FORMS:
        part = form(MATRICES[case], tag)
        for depth in (1, 2, 3):
            sums = CellAreaSum(part, depth)
            walk_words(part, [sums])
            cells = refinement_cells_depth(part, depth)
            total = QuadReal(0)
            for cell in cells:
                total = total + cell.rect.area(part.frame)
            cells_got, area = sums.result()
            assert (cells_got, ints(area)) == (len(cells), ints(total)), (tag, depth)


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
            forward = [box for j in range(part.n) for box in advance(
                part, advance(part, [box_i], i, j), j, k)]
            if sorted(exact(advance(twice, [box_i], i, k))) != \
                    sorted(exact(forward)):
                bad.append(("forward", i, k))
            backward = [box for j in range(part.n) for box in pullback(
                part, pullback(part, [box_k], k, j), j, i)]
            if sorted(exact(pullback(twice, [box_k], k, i))) != \
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
        twice = squared(part)
        assert transition_graph(twice).matrix == g_sq, tag
        assert composition_failures(part) == [], tag
        inverse = TorusPartition(part.frame, part.acting.inverse(),
                                 part.lam_act.inverse(), part.mu_act.inverse(),
                                 part.boxes, part.labels)
        assert transition_graph(inverse).matrix == tuple(zip(*g)), tag
        # both build a strip basis and step as the old steps do
        for other in (twice, inverse):
            for cur, box in enumerate(other.boxes):
                assert_steps_match(other, [box], cur, tag)


@pytest.mark.parametrize("matrix", LADDER, ids=lambda m: f"{m.a} {m.b} {m.c} {m.d}")
def test_broken_partitions_fail_composition(matrix):
    """Negative control: a dented cell breaks the Markov property, and two
    A steps then differ from one A^2 step somewhere."""
    built = construction(matrix)
    for tag, part in (("base", built.base.partition), ("refined", built.refined)):
        assert composition_failures(_break_partition(part)), tag
