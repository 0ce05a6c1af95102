"""Symbolic coding: itineraries, cylinder decoding, preimage structure."""

import random
from fractions import Fraction

import pytest

from markov_torus.coding import (
    BoundaryAmbiguity,
    CodingContext,
    SymbolicWord,
    torus_dist_sq,
)
from markov_torus.exact import QuadReal
from markov_torus.partition import partition_diam_sq
from markov_torus.torus import InvariantError, Mat2Z
from oracles import _closure_cells, _rect_contains_torus, closed_translate_meets

FIB = Mat2Z(1, 1, 1, 0)

SUITE = [
    FIB,
    Mat2Z(2, 3, 1, 2),
    -Mat2Z(2, 1, 1, 1),
]


@pytest.fixture(scope="module", params=SUITE, ids=str)
def ctx(request):
    return CodingContext.from_matrix(request.param)


def rational_points(seed, count, max_den=9973):
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        den = rng.randrange(2, max_den)
        pts.append((Fraction(rng.randrange(den), den),
                    Fraction(rng.randrange(den), den)))
    return pts


# -- word syntax ----------------------------------------------------------------


def test_word_text_roundtrip():
    for text, symbols, offset in [
        ("0,2,1@-1", (0, 2, 1), -1),
        ("5@3", (5,), 3),
        ("1,0", (1, 0), 0),
        (" 2 , 4 @ -2 ", (2, 4), -2),
    ]:
        word = SymbolicWord.parse(text)
        assert word.symbols == symbols and word.offset == offset
        assert SymbolicWord.parse(str(word)) == word


def test_word_parse_rejects_garbage():
    for text in ["", "@1", "1,@2", "a,b", "1 2", "1,2@@3"]:
        with pytest.raises(ValueError):
            SymbolicWord.parse(text)
    with pytest.raises(ValueError):
        SymbolicWord((), 0)


def test_word_times_window():
    word = SymbolicWord((3, 1, 4, 1), -2)
    assert list(word.times) == [-2, -1, 0, 1]
    assert len(word) == 4


# -- conjugation transport -------------------------------------------------------


def test_model_transport_roundtrips_and_intertwines(ctx):
    matrix = ctx.construction.original
    acting = ctx.part.acting
    for p in rational_points(11, 12):
        y = ctx.to_model(p)
        assert ctx.from_model(y) == p
        # h(phi_A(x)) == phi_model(h(x))
        px = tuple(c % 1 for c in matrix.act(p))
        assert ctx.to_model(px) == tuple(c % 1 for c in acting.act(y))


def test_model_orbit_is_exact_orbit(ctx):
    y0 = ctx.to_model((Fraction(5, 17), Fraction(2, 13)))
    orbit = ctx.model_orbit(y0, -4, 4)
    acting = ctx.part.acting
    assert orbit[0] == y0
    for k in range(-4, 4):
        assert orbit[k + 1] == tuple(c % 1 for c in acting.act(orbit[k]))


# -- encode ----------------------------------------------------------------------


def test_encode_matches_membership_and_is_admissible(ctx):
    graph = ctx.construction.refined_graph.matrix
    for p in rational_points(23, 8):
        word = ctx.encode(p, 5)
        assert isinstance(word, SymbolicWord)
        assert word.offset == -5 and len(word) == 11
        orbit = ctx.model_orbit(ctx.to_model(p), -5, 5)
        for k, s in zip(word.times, word.symbols):
            cell = ctx.part.boxes[s]
            assert _rect_contains_torus(ctx.frame, cell, orbit[k], closed=False)
        for a, b in zip(word.symbols, word.symbols[1:]):
            assert graph[a][b] == 1


def test_encode_checks_its_edges_on_the_successor_lists():
    """The itinerary's edges are checked against the successor lists, with
    no N* x N* graph built; an edge missing there is a non-edge."""
    fresh = CodingContext.from_matrix(FIB)
    point = rational_points(23, 1)[0]
    word = fresh.encode(point, 3)
    part = fresh.part
    assert "_transition_graph" not in part.__dict__
    a, b = word.symbols[:2]
    part.__dict__["_successors"] = [[m for m in row if (k, m) != (a, b)]
                                    for k, row in enumerate(part.__dict__["_successors"])]
    with pytest.raises(InvariantError, match=f"uses a non-edge {a}->{b}"):
        fresh.encode(point, 3)


def test_encode_reports_boundary_points_as_ambiguity(ctx):
    result = ctx.encode((Fraction(0), Fraction(0)), 2)
    assert isinstance(result, BoundaryAmbiguity)
    assert len(result.candidates) >= 2
    assert "boundary" in str(result)
    # the candidates really are the closure cells of the reported point
    assert result.candidates == _closure_cells(ctx, result.point)


def test_encode_reads_rows_off_the_step_table():
    """Encode and the preimage report step through rows read off the step
    table itself: on a fresh construction neither builds the strip entry
    lists, which hold a clip and an image for every table entry."""
    ctx = CodingContext.from_matrix(Mat2Z(10, 1, 1, 0))
    assert isinstance(ctx.encode((Fraction(1, 3), Fraction(1, 7)), 6), SymbolicWord)
    assert ctx.preimage_report((Fraction(0), Fraction(0)), 3, max_words=64).count > 1
    assert "_forward_strips" not in ctx.part.__dict__


def test_encode_validates_depth(ctx):
    with pytest.raises(ValueError):
        ctx.encode((Fraction(1, 3), Fraction(1, 7)), -1)


# -- decode ----------------------------------------------------------------------


def test_decode_roundtrip_contains_point_within_bound(ctx):
    depth = 8
    d_sq = partition_diam_sq(ctx.part)
    bound_sq = d_sq * abs(ctx.part.mu_act) ** (2 * depth)
    for p in rational_points(37, 6):
        word = ctx.encode(p, depth)
        res = ctx.decode(word)
        y = ctx.to_model(p)
        assert res.contains(y)
        assert res.contains(y, closed=False)
        assert res.diameter_bound_sq == bound_sq
        assert res.diam_sq <= bound_sq
        assert torus_dist_sq(res.center, y) <= bound_sq
        assert res.diam <= res.diameter_bound


def test_decode_window_dimensions_follow_endpoint_formula(ctx):
    mu = abs(ctx.part.mu_act)
    for p in rational_points(41, 3):
        for depth in (0, 1, 3):
            word = ctx.encode(p, depth)
            res = ctx.decode(word)
            first, last = word.symbols[0], word.symbols[-1]
            assert res.rect.u_dim == ctx.part.boxes[last].u_dim * mu ** depth
            assert res.rect.w_dim == ctx.part.boxes[first].w_dim * mu ** depth


def test_decode_depth_zero_is_the_cell(ctx):
    p = rational_points(43, 1)[0]
    word = ctx.encode(p, 0)
    res = ctx.decode(word)
    assert res.rect == ctx.part.boxes[word.symbols[0]]
    assert res.anchored == res.rect


def test_decode_anchored_vs_time_zero_rect(ctx):
    p = rational_points(47, 1)[0]
    word = ctx.encode(p, 2)
    res = ctx.decode(word)
    shift = -word.offset
    assert res.rect == res.anchored.scaled(
        ctx.part.lam_act ** shift, ctx.part.mu_act ** shift
    )


def test_decode_rejects_bad_words(ctx):
    with pytest.raises(ValueError):
        ctx.decode(SymbolicWord((0, ctx.n_cells), 0))
    # a self-loop that is not an edge somewhere in the graph
    graph = ctx.construction.refined_graph.matrix
    non_edge = next(
        (i, j)
        for i in range(ctx.n_cells)
        for j in range(ctx.n_cells)
        if graph[i][j] == 0
    )
    with pytest.raises(ValueError):
        ctx.decode(SymbolicWord(non_edge, 0))


# -- preimage structure ------------------------------------------------------------


def test_interior_points_have_one_coding(ctx):
    depth = ctx.resolving_depth()
    for p in rational_points(53, 5):
        rep = ctx.preimage_report(p, depth)
        assert rep.count == 1 and not rep.truncated
        assert rep.words == (ctx.encode(p, depth),)


def test_origin_has_multiple_but_bounded_codings(ctx):
    origin = (Fraction(0), Fraction(0))
    depth = ctx.resolving_depth()
    rep = ctx.preimage_report(origin, depth, max_words=ctx.n_cells ** 2)
    assert 1 < rep.count <= ctx.n_cells ** 2
    y = ctx.to_model(origin)
    for word in rep.words:
        assert ctx.decode(word).contains(y)


def test_origin_codings_stable_in_depth(ctx):
    origin = (Fraction(0), Fraction(0))
    counts = [
        ctx.preimage_report(origin, depth, max_words=64).count
        for depth in (2, 3, 4)
    ]
    assert counts[0] == counts[1] == counts[2]


def test_preimage_truncation_flag():
    ctx = CodingContext.from_matrix(FIB)
    rep = ctx.preimage_report((Fraction(0), Fraction(0)), 2, max_words=1)
    assert rep.truncated and rep.words == () and rep.count > 1


# -- resolving depth ---------------------------------------------------------------


def test_resolving_depth_is_tight(ctx):
    n = ctx.resolving_depth()
    d_sq = partition_diam_sq(ctx.part)
    mu_sq = ctx.part.mu_act ** 2
    half = ctx.frame.eig.expansive_constant / 2
    assert d_sq * mu_sq ** n < half * half
    if n > 0:
        assert d_sq * mu_sq ** (n - 1) >= half * half


# -- diamonds ----------------------------------------------------------------------


def test_identical_words_have_no_diamond(ctx):
    p = rational_points(59, 1)[0]
    word = ctx.encode(p, 3)
    assert ctx.has_diamond(word, word) is False


def test_diamond_requires_matching_window(ctx):
    with pytest.raises(ValueError):
        ctx.has_diamond(SymbolicWord((0, 0), 0), SymbolicWord((0, 0, 0), 0))
    with pytest.raises(ValueError):
        ctx.has_diamond(SymbolicWord((0, 0), 0), SymbolicWord((0, 0), -1))


def test_distant_cylinders_show_no_diamond():
    # same endpoints, different middle, but the middle difference pushes the
    # cylinders apart: on the Fibonacci refinement the only length-3 pattern
    # a,x,b vs a,y,b needs x != y with edges a->x->b and a->y->b; cells 0->0->0
    # and 0->1->... only 1->2 continues, so compare 0,0,0 with itself shifted
    ctx = CodingContext.from_matrix(FIB)
    w1 = SymbolicWord((1, 2, 1), -1)
    w2 = SymbolicWord((1, 2, 0), -1)  # agree at start only: no bracket
    assert ctx.has_diamond(w1, w2) is False


def test_origin_coding_pairs_diamond_status_is_recorded(ctx):
    # the origin's several codings form admissible word pairs; the diamond
    # test must run and return a boolean on each pair (its truth depends on
    # the symbol pattern, so it is recorded rather than asserted)
    origin = (Fraction(0), Fraction(0))
    rep = ctx.preimage_report(origin, 3, max_words=ctx.n_cells ** 2)
    values = set()
    for i in range(len(rep.words)):
        for j in range(i + 1, len(rep.words)):
            values.add(ctx.has_diamond(rep.words[i], rep.words[j]))
    assert values <= {True, False}


def test_diamond_runs_the_closure_test_against_the_oracle():
    # the words agree at both ends and differ strictly between, so the
    # answer is the closure test's, here that the closures never meet
    ctx = CodingContext.from_matrix(FIB)
    for first, second in [((0, 0, 0, 0), (0, 1, 2, 0)), ((2, 0, 0, 1), (2, 1, 2, 1))]:
        first, second = SymbolicWord(first, -1), SymbolicWord(second, -1)
        meets = closed_translate_meets(ctx.frame, ctx.decode(first).rect,
                                       ctx.decode(second).rect)
        assert meets == [] and ctx.has_diamond(first, second) is False


# -- asymmetric windows ---------------------------------------------------------------


def test_decode_bound_uses_the_shallower_side(ctx):
    p = rational_points(61, 1)[0]
    word = ctx.encode(p, 4)
    assert isinstance(word, SymbolicWord)
    # drop the last symbol: forward depth 3, backward depth 4
    clipped = SymbolicWord(word.symbols[:-1], word.offset)
    res = ctx.decode(clipped)
    d_sq = partition_diam_sq(ctx.part)
    assert res.diameter_bound_sq == d_sq * abs(ctx.part.mu_act) ** 6
    assert res.diam_sq <= res.diameter_bound_sq


def test_decode_forward_only_word_is_a_vertical_strip(ctx):
    p = rational_points(67, 1)[0]
    word = ctx.encode(p, 3)
    future = SymbolicWord(word.symbols[3:], 0)  # times 0..3
    res = ctx.decode(future)
    first = ctx.part.boxes[future.symbols[0]]
    # constraints in the future cut only the expanding direction
    assert res.rect.w_dim == first.w_dim
    assert res.rect.u_dim < first.u_dim


def test_decode_diameter_takes_the_absolute_axis_product():
    # on 3 2 1 1 the frame's eigenvectors meet at an obtuse angle
    # (v_lam.v_mu < 0), so the longer diagonal needs |v_lam.v_mu|
    ctx = CodingContext.from_matrix(Mat2Z(3, 2, 1, 1))
    words = [SymbolicWord.parse("0,2,4@-1")]
    words += [ctx.encode(p, 3) for p in rational_points(71, 4)]
    for word in words:
        res = ctx.decode(word)
        assert res.diam_sq == res.rect.diam_sq(ctx.frame)


# -- exact torus distance -----------------------------------------------------------


def test_torus_distance_wraps():
    a = (Fraction(9, 10), Fraction(0))
    b = (Fraction(1, 10), Fraction(0))
    assert torus_dist_sq(a, b) == QuadReal(Fraction(1, 25))
    assert torus_dist_sq(a, a) == QuadReal(0)
    c = (QuadReal(Fraction(1, 2)), QuadReal(Fraction(1, 2)))
    assert torus_dist_sq(c, (Fraction(0), Fraction(0))) == QuadReal(Fraction(1, 2))
