"""Partition machinery exercised on real two-cell constructions."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_torus.construct import build_markov_construction
from markov_torus.exact import QuadReal
from markov_torus.partition import (
    BoundaryHit,
    CellAreaSum,
    CellHit,
    EigenRect,
    InvariantError,
    NfoldCount,
    lattice_in_frame_box,
    locate,
    partition_diam_sq,
    refine,
    refined_partition,
    transition_graph,
    verify_areas,
    verify_boundary_alignment,
    verify_generator_decay,
    verify_nfold_range,
    verify_translate_disjoint,
    walk_words,
)
from markov_torus.torus import EigenFrame, Mat2Z, hyperbolic_check
from oracles import brute_lattice_in_frame_box, intersect

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
    nudged = part.boxes[0].translate(QuadReal(0), part.boxes[0].w_dim / 64)
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
    with its own frame coordinates."""
    frame = EigenFrame.from_eigen(hyperbolic_check(mat))
    if corner:
        anchors[2] = anchors[0]
    us = sorted(frame.to_frame(p)[0] for p in anchors[:2])
    ws = sorted(frame.to_frame(p)[1] for p in anchors[2:])
    if flat:
        us[1] = us[0]
    box = (us[0], us[1], ws[0], ws[1])
    hits = lattice_in_frame_box(frame, *box)
    assert [q for q, _ in hits] == brute_lattice_in_frame_box(frame, *box)
    for q, coords in hits:
        assert coords == frame.lattice_frame(*q)
