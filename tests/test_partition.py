"""Partition machinery exercised on real two-cell constructions."""

import dataclasses
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_torus import partition
from markov_torus.basis import EigenRect, StripBasis
from markov_torus.construct import build_markov_construction
from markov_torus.exact import QuadReal
from markov_torus.partition import (
    BoundaryHit,
    CellHit,
    lattice_in_frame_box,
    locate,
    partition_diam_sq,
    refine,
    refined_partition,
    transition_graph,
)
from markov_torus.torus import EigenFrame, InvariantError, Mat2Z, hyperbolic_check
from markov_torus.walk import (
    CellAreaSum,
    NfoldCount,
    verify_areas,
    verify_boundary_alignment,
    verify_generator_decay,
    verify_nfold_range,
    verify_translate_disjoint,
    walk_words,
)
from oracles import brute_lattice_in_frame_box, composition_graph, intersect, translate

FIB = Mat2Z(1, 1, 1, 0)          # negative contracting eigenvalue
FIB_SQ = Mat2Z(2, 1, 1, 1)       # both eigenvalues positive
SUITE = [FIB, FIB_SQ, -FIB, -FIB_SQ, Mat2Z(3, 2, 1, 1), Mat2Z(2, 3, 1, 2)]


@pytest.fixture(scope="module", params=range(len(SUITE)), ids=lambda i: str(SUITE[i]))
def construction(request):
    return build_markov_construction(SUITE[request.param])


def test_locate_classifies_rational_grid(construction):
    part = construction.base.partition
    interior = 0
    boundary = 0
    for i in range(7):
        for j in range(7):
            hit = locate(part, (Fraction(i, 7), Fraction(j, 7)))
            if isinstance(hit, CellHit):
                interior += 1
            else:
                assert isinstance(hit, BoundaryHit)
                assert hit.candidates
                boundary += 1
    assert interior + boundary == 49
    assert interior > 0


def test_origin_is_a_boundary_point(construction):
    hit = locate(construction.base.partition, (Fraction(0), Fraction(0)))
    assert isinstance(hit, BoundaryHit)
    assert len(hit.candidates) >= 2


def test_cells_disjoint_and_full_measure(construction):
    for part in (construction.base.partition, construction.refined):
        assert verify_translate_disjoint(part) == []
        assert verify_areas(part) == 1


def test_boundary_alignment_holds(construction):
    for part in (construction.base.partition, construction.refined):
        assert verify_boundary_alignment(part) == []


def test_verifiers_detect_breakage(construction):
    part = construction.base.partition
    # slide one cell a little along the contracting direction: areas are
    # unchanged, so disjointness or boundary-edge coverage must now fail
    nudged = translate(part.boxes[0], QuadReal(0), part.boxes[0].w_dim / 64)
    broken = part.__class__(
        part.frame, part.acting, part.lam_act, part.mu_act,
        (nudged,) + part.boxes[1:], part.labels,
    )
    assert verify_areas(broken) == 1
    assert (
        verify_translate_disjoint(broken) != []
        or verify_boundary_alignment(broken) != []
    )


def test_self_overlapping_cell_fails_the_step_table():
    # box 0 of the Fibonacci base partition doubled in u and tripled in w
    # overlaps its own lattice translates, so its image meets one cell in
    # overlapping strips: building the forward step table refuses it, and
    # with it every reader of the transitions
    part = build_markov_construction(FIB).base.partition
    box = part.boxes[0]
    grown = EigenRect(box.u_lo, box.u_lo + 2 * box.u_dim,
                      box.w_lo, box.w_lo + 3 * box.w_dim)

    def fresh():  # a new partition each time, so no table is cached yet
        return part.__class__(part.frame, part.acting, part.lam_act, part.mu_act,
                              (grown,) + part.boxes[1:], part.labels)

    message = "image strips overlap inside one cell"
    for read in (transition_graph, refine):
        with pytest.raises(InvariantError, match=message):
            read(fresh())
    visitors = [NfoldCount(1, 2), CellAreaSum(part, 1)]
    walk_words(fresh(), visitors)
    for visitor in visitors:
        with pytest.raises(InvariantError, match=message):
            visitor.result()


@pytest.mark.parametrize("c_w, overlaps", [((3, 4), True), ((10, 12), False)])
def test_step_table_sweep_meets_entries_apart_in_w_order(monkeypatch, c_w, overlaps):
    # three crafted components of one pair, in w order a, b, c: b sits apart
    # along u from both, so only a and c, not neighbours, can overlap; with c
    # starting where a ends, the open boxes only touch
    part = build_markov_construction(FIB).base.partition
    part = part.__class__(part.frame, part.acting, part.lam_act, part.mu_act,
                          part.boxes, part.labels)  # nothing cached on it yet

    def strip(u, w):
        return (u[0], 0, u[1], 0, w[0], 0, w[1], 0)

    comps = [strip((1, 3), c_w), strip((5, 6), (1, 2)), strip((0, 2), (0, 10))]
    table = {(0, 0): [((k, 0), (0, 0, 0, 0), comp) for k, comp in enumerate(comps)]}
    monkeypatch.setattr(partition, "int_overlaps", lambda *args: table)
    if overlaps:
        with pytest.raises(InvariantError, match="image strips overlap inside one cell"):
            transition_graph(part)
    else:
        assert transition_graph(part).matrix[0][0] == 3


def test_generator_decay_catches_an_off_formula_contracting_width():
    # a refined cell raised by 1/64 of its height keeps its u side, so the
    # window cells that end in it are clipped only along w
    for matrix in (FIB, FIB_SQ, Mat2Z(0, 1, 1, 3), Mat2Z(-2, -3, -1, -2), -FIB):
        part = build_markov_construction(matrix).refined
        box = part.boxes[0]
        dented = EigenRect(box.u_lo, box.u_hi, box.w_lo + box.w_dim / 64, box.w_hi)
        part = part.__class__(part.frame, part.acting, part.lam_act, part.mu_act,
                              (dented,) + part.boxes[1:], part.labels)
        with pytest.raises(InvariantError, match="contracting dimension .* off-formula"):
            verify_generator_decay(part, 2)


def test_image_strips_traverse_their_containers(construction):
    part = construction.base.partition
    mu_abs = abs(part.mu_act)
    for cell in refine(part):
        i, j = cell.symbols
        box = part.boxes[j]
        assert cell.rect.u_lo == box.u_lo and cell.rect.u_hi == box.u_hi
        assert cell.rect.w_dim == mu_abs * part.boxes[i].w_dim


def test_refined_cells_sit_inside_their_containers(construction):
    part = construction.base.partition
    for cell in construction.cells:
        box = part.boxes[cell.symbols[1]]
        assert intersect(cell.rect, box) == cell.rect


def test_refined_labels_are_words(construction):
    pattern = re.compile(r"^(I|II),(I|II)@-1(#\d+)?$")
    labels = construction.refined.labels
    assert len(set(labels)) == len(labels)
    for label in labels:
        assert pattern.match(label), label


def test_admissible_words_have_nonempty_cylinders(construction):
    part = construction.base.partition
    reports = verify_nfold_range(part, 2, 5)
    for n, report in reports.items():
        assert report.ok, (n, report.failures)
        assert report.words_checked > 0
    refined_reports = verify_nfold_range(construction.refined, 2, 4)
    for report in refined_reports.values():
        assert report.ok


def test_generator_decay_bound_holds(construction):
    # the |mu|^n bound is a theorem for the refinement, whose cells all have
    # contracting dimension |mu| * (a base contracting dimension); the base
    # partition itself can violate it at small depth through mixed endpoints
    part = construction.refined
    rows = verify_generator_decay(part, 5)
    mu_sq = abs(part.mu_act) ** 2
    assert rows[0].measured_sq == partition_diam_sq(part)
    for prev, row in zip(rows, rows[1:]):
        assert row.ok
        assert row.bound_sq == prev.bound_sq * mu_sq
    for prev, row in zip(rows[1:], rows[2:]):
        assert row.measured_sq < prev.measured_sq
    assert rows[1].enumerated and rows[2].enumerated and not rows[3].enumerated


def test_refinement_of_refinement_shrinks(construction):
    part = construction.base.partition
    once = refined_partition(part)
    twice = refined_partition(once)
    assert partition_diam_sq(twice) < partition_diam_sq(once) <= partition_diam_sq(part)
    assert verify_translate_disjoint(twice) == []
    assert verify_areas(twice) == 1


def test_degenerate_box_rejected():
    zero = QuadReal(0)
    one = QuadReal(1)
    with pytest.raises(InvariantError):
        EigenRect(one, zero, zero, one)


LADDER = [FIB, -FIB, FIB_SQ, Mat2Z(0, 1, 1, 3), Mat2Z(-2, -3, -1, -2),
          Mat2Z(3, 2, 1, 1), Mat2Z(5, 2, 2, 1), Mat2Z(10, 1, 1, 0),
          Mat2Z(15, 1, 1, 0)]

# Plane points with integer x: a box edge through one makes that column's
# n-bound rational, and with integer y the edge passes through a lattice point.
_ANCHOR = st.tuples(
    st.integers(-8, 8).map(Fraction),
    st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 1, 2, 3, 7])),
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(LADDER), st.lists(_ANCHOR, min_size=4, max_size=4),
       st.booleans(), st.booleans())
def test_lattice_scan_matches_bounding_box_oracle(mat, anchors, flat, corner):
    """The column scan returns the bounding-box scan's points, order
    included, on boxes whose edges run through lattice points (``corner``
    makes one a box corner) and on boxes with u_lo == u_hi (``flat``), each
    with its own frame coordinates, decoded and as pairs of a basis over
    the box's bounds."""
    frame = EigenFrame.from_eigen(hyperbolic_check(mat))
    if corner:
        anchors[2] = anchors[0]
    us = sorted(frame.to_frame(p)[0] for p in anchors[:2])
    ws = sorted(frame.to_frame(p)[1] for p in anchors[2:])
    if flat:
        us[1] = us[0]
    box = (us[0], us[1], ws[0], ws[1])
    basis = StripBasis.build(frame, mat, frame.eig.lam, frame.eig.mu, box)
    hits = lattice_in_frame_box(frame, basis, sum(map(basis.pair, box), ()))
    assert [q for q, _, _ in hits] == brute_lattice_in_frame_box(frame, *box)
    for q, coords, pairs in hits:
        assert coords == frame.lattice_frame(*q)
        assert (basis.value(*pairs[:2]), basis.value(*pairs[2:])) == coords


# -- the refined step table, read off the parent's ---------------------------


def _scanned(part):
    """The step rows by lattice scan: those of a copy with no parent."""
    copy = dataclasses.replace(part)
    assert "_parent" not in copy.__dict__
    return partition.step_rows(copy)


@pytest.mark.parametrize("matrix", LADDER + [Mat2Z(40, 1, 1, 0), Mat2Z(8, 1, 17, 2)], ids=str)
def test_refined_step_table_is_the_scans(matrix):
    refined = build_markov_construction(matrix).refined
    assert refined.__dict__["_parent"] is not None
    assert partition.step_rows(refined) == _scanned(refined)


@pytest.mark.parametrize("matrix", [FIB, -FIB_SQ, Mat2Z(-2, -3, -1, -2)], ids=str)
def test_refinement_of_a_refinement_steps_as_scanned(matrix):
    twice = refined_partition(build_markov_construction(matrix).refined)
    assert partition.step_rows(twice) == _scanned(twice)


@pytest.mark.parametrize("matrix", LADDER, ids=str)
def test_refined_partition_shares_its_parents_basis(matrix):
    """The shared basis is the one its own boxes would build."""
    mc = build_markov_construction(matrix)
    refined, base = mc.refined, mc.base.partition
    shared = partition.strip_basis(refined)
    assert shared == dataclasses.replace(partition.strip_basis(base), boxes=shared.boxes)
    built = StripBasis.build(refined.frame, refined.acting, refined.lam_act,
                             refined.mu_act, partition._bounds(refined.boxes))
    assert dataclasses.replace(built, boxes=tuple(map(built.strip, refined.boxes))) == shared


def test_refined_step_table_makes_no_lattice_scan(monkeypatch):
    base = build_markov_construction(Mat2Z(5, 2, 2, 1)).base.partition
    partition.step_rows(base)
    refined = refined_partition(base)  # new, so its table is not built yet
    scanned = _scanned(refined)

    def scan(self, strip):
        raise AssertionError("a lattice scan")

    monkeypatch.setattr(StripBasis, "scan", scan)
    assert partition.step_rows(refined) == scanned
    with pytest.raises(AssertionError, match="a lattice scan"):
        _scanned(refined)


@pytest.mark.parametrize("matrix", LADDER, ids=str)
def test_the_build_reads_the_refined_graph_without_step_rows(matrix):
    """The build checks T·S on the factored rows: neither the rows, nor the
    N* x N* graph, nor the successor lists are built until read."""
    mc = build_markov_construction(matrix)
    refined = mc.refined
    assert "_factored" in refined.__dict__
    for unbuilt in ("_step_rows", "_transition_graph", "_successors"):
        assert unbuilt not in refined.__dict__
    assert mc.refined_graph.matrix == composition_graph(mc.cells).matrix


@pytest.mark.parametrize("matrix", [FIB, -FIB_SQ, Mat2Z(5, 2, 2, 1)], ids=str)
def test_refined_step_rows_intersect_no_boxes(monkeypatch, matrix):
    """The rows are assembled, not met: no ``meet`` runs for them."""
    base = build_markov_construction(matrix).base.partition
    refined = refined_partition(base)
    scanned = _scanned(refined)

    def meet(basis, s, t):
        raise AssertionError("an intersection")

    monkeypatch.setattr(partition, "meet", meet)
    assert partition.step_rows(refined) == scanned


@pytest.mark.parametrize("matrix", [FIB, FIB_SQ, Mat2Z(5, 2, 2, 1)], ids=str)
def test_a_refined_cell_outside_its_box_fails_the_nesting_check(matrix):
    """One refined cell's w side moved up by its base box's height, so it
    lies above the box: of the three checks, only nesting reads the refined
    cells' own bounds."""
    base = build_markov_construction(matrix).base.partition
    refined = refined_partition(base)
    basis, k = partition.strip_basis(refined), refined.n - 1
    j = refine(base)[k].symbols[1]
    top = partition.strip_basis(base).boxes[j]
    hx, hy = top[6] - top[4], top[7] - top[5]
    box = basis.boxes[k]
    moved = box[:4] + (box[4] + hx, box[5] + hy, box[6] + hx, box[7] + hy)
    refined.__dict__["_strip_basis"] = dataclasses.replace(
        basis, boxes=basis.boxes[:k] + (moved,))
    with pytest.raises(InvariantError, match=f"refined cell {k} is not nested in box\\({j}\\)"):
        transition_graph(refined)


def _with_parent_table(matrix, edit):
    """A fresh refined partition of ``matrix`` whose parent's cached step
    rows have been edited by ``edit(rows, basis)`` after the refinement."""
    base = build_markov_construction(matrix).base.partition
    refined = refined_partition(base)
    rows = [list(row) for row in partition.step_rows(base)]
    edit(rows, partition.strip_basis(base))
    base.__dict__["_step_rows"] = rows
    return refined


@pytest.mark.parametrize("matrix", [FIB, FIB_SQ, Mat2Z(5, 2, 2, 1)], ids=str)
def test_a_missing_parent_entry_fails_the_area_sum(matrix):
    """Every derived component is real, so only the areas see the gap."""
    def drop(rows, basis):
        last = max(k for k, entry in enumerate(rows[0]) if entry[0] == 0)
        del rows[0][last]

    refined = _with_parent_table(matrix, drop)
    with pytest.raises(InvariantError, match="steps of parent cell 0 miss part of its area"):
        partition.step_rows(refined)


@pytest.mark.parametrize("matrix", [FIB, FIB_SQ, Mat2Z(5, 2, 2, 1)], ids=str)
def test_a_shifted_parent_entry_fails_the_nonempty_test(matrix):
    """An entry moved by the lattice generator (1, 0): its component no
    longer has phi(box 0)'s w side plus the shift."""
    def shift(rows, basis):
        to, (m, n), (su0, su1, sw0, sw1), comp = rows[0][0]
        assert to == 0
        u10x, u10y, _, _, w10x, w10y, _, _ = basis.lattice
        rows[0][0] = (to, (m + 1, n), (su0 + u10x, su1 + u10y, sw0 + w10x, sw1 + w10y), comp)

    refined = _with_parent_table(matrix, shift)
    with pytest.raises(InvariantError, match=r"parent step \(0, 0\) at \(.*\) does not cross box\(0\)"):
        partition.step_rows(refined)
