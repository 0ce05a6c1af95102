"""The construction pipeline: conjugation, base partition, counts."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from markov_torus import construct
from markov_torus.construct import (
    BaseConstruction,
    ConjugationResult,
    InvariantError,
    SignCase,
    build_base_partition,
    build_markov_construction,
    conjugate_nonnegative,
    count_intersections,
)
from markov_torus.exact import QuadReal
from markov_torus.partition import (
    RefinementCell,
    TorusPartition,
    refined_partition,
    transition_graph,
)
from markov_torus.render import construction_report
from markov_torus.sft import (
    char_poly,
    count_blocks,
    count_periodic,
    perron_data,
)
from markov_torus.torus import (
    Mat2Z,
    NotHyperbolicError,
    apply_auto,
    hyperbolic_check,
    is_hyperbolic,
)

from oracles import brute_conjugator, composition_graph
from test_torus import random_hyperbolic

FIB = Mat2Z(1, 1, 1, 0)
E = Mat2Z.swap()

SUITE = [
    FIB,
    Mat2Z(2, 1, 1, 1),
    Mat2Z(1, 2, 1, 1),
    Mat2Z(2, 3, 1, 2),
    Mat2Z(3, 2, 1, 1),
    Mat2Z(1, 1, 1, 2),
]
SUITE = SUITE + [-m for m in SUITE]


def test_nonnegative_input_conjugates_trivially():
    res = conjugate_nonnegative(FIB)
    assert res.conjugator == Mat2Z.identity()
    assert res.model == FIB
    assert res.epsilon == 1
    assert not res.swapped


def test_negated_input_flips_epsilon():
    res = conjugate_nonnegative(-FIB)
    assert res.conjugator == Mat2Z.identity()
    assert res.model == FIB
    assert res.epsilon == -1


def test_slope_orientation_composes_an_axis_swap():
    res = conjugate_nonnegative(Mat2Z(1, 2, 1, 1))
    assert res.swapped
    assert res.conjugator == E
    assert res.model == Mat2Z(1, 1, 2, 1)
    res2 = conjugate_nonnegative(Mat2Z(1, 1, 1, 2))
    assert res2.model == Mat2Z(2, 1, 1, 1)


def test_reduction_carries_the_models_eigen_data():
    """The reduction keeps the oriented model's eigen-data, also after an
    axis swap; verify re-derives it when it belongs to another matrix, and
    the build refuses eigen-data or a reduction of another matrix."""
    for matrix in (Mat2Z(1, 1, 1, 0), Mat2Z(1, 2, 1, 1), Mat2Z(-2, -3, -1, -2)):
        res = conjugate_nonnegative(matrix)
        assert res.eig == hyperbolic_check(res.model)
    res = conjugate_nonnegative(Mat2Z(1, 2, 1, 1))
    unoriented = hyperbolic_check(Mat2Z(1, 2, 1, 1))  # expanding slope above 1
    replace(res, eig=unoriented).verify()
    replace(res, eig=None).verify()
    with pytest.raises(ValueError, match="eigen-data of"):
        build_base_partition(res.model, res.epsilon, unoriented)
    with pytest.raises(ValueError, match="reduction of"):
        build_markov_construction(Mat2Z(2, 1, 1, 1), res)
    built = build_markov_construction(Mat2Z(1, 2, 1, 1), res)
    assert built.conjugation is res
    assert construction_report(built) == construction_report(
        build_markov_construction(Mat2Z(1, 2, 1, 1)))


@pytest.mark.parametrize(
    "matrix", [Mat2Z(3, -1, -2, 1), Mat2Z(0, 1, 1, -1), Mat2Z(-4, 9, 1, -2)]
)
def test_mixed_sign_input_needs_a_real_conjugation(matrix):
    res = conjugate_nonnegative(matrix)
    res.verify()
    assert res.conjugator not in (Mat2Z.identity(), E)
    assert res.model.det() == matrix.det()
    assert res.epsilon * res.model.trace() == matrix.trace()
    # independent exhaustive search agrees that a solution exists and that
    # spectra match (conjugation preserves trace and determinant)
    oracle = brute_conjugator(matrix.rows(), bound=5)
    assert oracle is not None
    _, oracle_model, oracle_eps = oracle
    assert oracle_eps * (oracle_model[0][0] + oracle_model[1][1]) == matrix.trace()
    assert all(entry >= 0 for row in oracle_model for entry in row)


# the reduction each basis gives, pinned: the forward preperiod product
# wins on the first, the reversed one on the second, and the identity on the
# third, where the forward product fails
PINNED_REDUCTIONS = [
    (Mat2Z(-1, 1, 1, 0), Mat2Z(-1, -1, 1, 2), Mat2Z(1, 1, 1, 0), -1, True),
    (Mat2Z(0, -1, -1, 1), Mat2Z(2, -3, 1, -2), Mat2Z(1, 1, 1, 0), 1, True),
    (Mat2Z(-1, -1, -2, -1), Mat2Z.identity(), Mat2Z(1, 1, 2, 1), -1, False),
]


@pytest.mark.parametrize("matrix,conjugator,model,epsilon,swapped",
                         PINNED_REDUCTIONS, ids=str)
def test_reduction_is_pinned(matrix, conjugator, model, epsilon, swapped):
    res = conjugate_nonnegative(matrix)
    assert (res.conjugator, res.model, res.epsilon, res.swapped) == (
        conjugator, model, epsilon, swapped)


def test_every_small_hyperbolic_matrix_reduces():
    """Exhaustive over entries in [-9, 9]: every reduction verifies."""
    count = 0
    for entries in itertools.product(range(-9, 10), repeat=4):
        matrix = Mat2Z(*entries)
        if is_hyperbolic(matrix):
            conjugate_nonnegative(matrix).verify()
            count += 1
    assert count == 1336


def test_epsilon_is_the_sign_of_the_expanding_eigenvalue():
    for matrix in SUITE + [Mat2Z(3, -1, -2, 1), Mat2Z(0, 1, 1, -1)]:
        res = conjugate_nonnegative(matrix)
        assert res.epsilon == hyperbolic_check(matrix).lam.sign()


def test_conjugation_intertwines_the_torus_maps():
    rng = random.Random(7)
    for matrix in SUITE + [Mat2Z(3, -1, -2, 1)]:
        res = conjugate_nonnegative(matrix)
        acting = res.model if res.epsilon == 1 else -res.model
        inv = res.conjugator.inverse()
        for _ in range(8):
            point = (Fraction(rng.randrange(97), 97), Fraction(rng.randrange(97), 97))
            left = apply_auto(inv, apply_auto(matrix, point))
            right = apply_auto(acting, apply_auto(inv, point))
            assert left == right


SIGN_CASES = {
    Mat2Z(2, 1, 1, 1): SignCase.PLUS_PLUS,     # det +1, expanding > 0
    FIB: SignCase.PLUS_MINUS,                  # det -1, expanding > 0
    -FIB: SignCase.MINUS_PLUS,                 # det -1, expanding < 0
    -Mat2Z(2, 1, 1, 1): SignCase.MINUS_MINUS,  # det +1, expanding < 0
}


@pytest.mark.parametrize("matrix,expected", SIGN_CASES.items(), ids=str)
def test_sign_cases(matrix, expected):
    mc = build_markov_construction(matrix)
    assert mc.base.sign_case is expected
    assert mc.base.sign_case.translated == (expected.value[1] < 0)


@pytest.mark.parametrize("matrix", SIGN_CASES, ids=str)
def test_refined_perron_radius_is_the_expanding_eigenvalue(matrix):
    """The exact bisection lands on the float nearest |lambda| itself."""
    mc = build_markov_construction(matrix)
    lam = abs(hyperbolic_check(matrix).lam)
    assert perron_data(mc.refined_graph).spectral_radius == float(lam)


def test_slide_is_zero_without_contracting_reflection():
    mc = build_markov_construction(Mat2Z(2, 1, 1, 1))
    assert mc.base.rho == 0
    a = mc.base.corner("a")
    o = mc.base.corner("o")
    assert (a.u, a.w, a.x, a.y) == (o.u, o.w, o.x, o.y)


def test_slide_boundary_case_is_exact():
    # the slide of the golden-mean construction lands exactly on the first
    # contracting lattice level: the inclusive comparison must accept it
    mc = build_markov_construction(FIB)
    assert mc.base.rho == mc.base.partition.frame.w10
    b = mc.base.corner("b")
    assert (b.u, b.w) == (QuadReal(0), QuadReal(0))  # b slides onto the origin


def test_slide_value_is_rational_for_the_squared_golden_map():
    mc = build_markov_construction(-Mat2Z(2, 1, 1, 1))
    assert mc.base.rho == QuadReal(Fraction(1, 5))


def test_slide_fixes_contracting_boundary():
    for matrix in (FIB, -Mat2Z(2, 1, 1, 1), Mat2Z(1, 2, 1, 1), -Mat2Z(2, 3, 1, 2)):
        mc = build_markov_construction(matrix)
        base = mc.base
        if not base.sign_case.translated:
            continue
        d_bar = base.corner("d_bar")
        a = base.corner("a")
        image = mc.acting.act((d_bar.x, d_bar.y))
        assert image == (a.x, a.y)


def test_corner_points_are_consistent():
    for matrix in SUITE:
        base = build_markov_construction(matrix).base
        frame = base.partition.frame
        names = [c.name for c in base.corners]
        assert len(names) == 17 and len(set(names)) == 17
        for c in base.corners:
            assert (c.x, c.y) == frame.to_plane(c.u, c.w)
        assert (base.corner("o'''").x, base.corner("o'''").y) == (QuadReal(0), QuadReal(1))
        assert base.corner("c_bar").w == base.corner("b'").w == base.rho
        # cell I is the box a c d' b', cell II is c' d' b'' a''
        box1, box2 = base.partition.boxes
        assert (base.corner("a").u, base.corner("a").w) == (box1.u_lo, box1.w_hi)
        assert (base.corner("d'").u, base.corner("d'").w) == (box1.u_hi, box1.w_lo)
        assert (base.corner("c'").u, base.corner("c'").w) == (box2.u_lo, box2.w_hi)
        assert (base.corner("b''").u, base.corner("b''").w) == (box2.u_hi, box2.w_lo)


@pytest.mark.parametrize("matrix", SUITE + [Mat2Z(40, 1, 1, 0)], ids=str)
def test_transition_counts_match_model(matrix):
    """With T[k][a] = 1 when cell k's second symbol is a and S[a][l] = 1
    when cell l's first symbol is a: S·T is the model matrix, and T·S (the
    oracle's composition graph) is the geometric refined graph."""
    mc = build_markov_construction(matrix)
    assert mc.graph.matrix == mc.model.rows()
    assert count_intersections(mc.base).matrix == mc.model.rows()
    assert mc.refined.n == sum(sum(row) for row in mc.model.rows())
    t = [[int(cell.symbols[1] == a) for a in (0, 1)] for cell in mc.cells]
    s = [[int(cell.symbols[0] == a) for cell in mc.cells] for a in (0, 1)]
    for a, b in itertools.product((0, 1), repeat=2):
        st = sum(s[a][l] * t[l][b] for l in range(len(mc.cells)))
        assert st == mc.model.rows()[a][b]
    assert mc.refined_graph.is_zero_one()
    assert mc.refined_graph.matrix == composition_graph(mc.cells).matrix
    assert transition_graph(mc.refined).matrix == mc.refined_graph.matrix


def test_build_refuses_cells_whose_words_miss_the_model(monkeypatch):
    """Swapping the symbols of the one (0, 1) cell of 1 1 1 0 keeps N* but
    breaks S·T == P.  The real refine makes one cell per counted step-table
    entry, so the build has no S·T recount: the swapped cells fail the
    composition rule instead, the geometric graph no longer being T·S."""
    real_refine = construct.refine

    def swapped(part):
        return [RefinementCell((1, 0), cell.offset, cell.rect)
                if cell.symbols == (0, 1) else cell
                for cell in real_refine(part)]

    monkeypatch.setattr(construct, "refine", swapped)
    with pytest.raises(InvariantError, match="composition rule"):
        build_markov_construction(FIB)


def test_build_refuses_a_geometric_graph_off_the_composition_rule(monkeypatch):
    """Swapping the first and last refined boxes, labels kept, permutes the
    geometric graph: still 0/1, but no longer T·S."""
    real_refined_partition = construct.refined_partition

    def swapped(part):
        refined = real_refined_partition(part)
        boxes = list(refined.boxes)
        boxes[0], boxes[-1] = boxes[-1], boxes[0]
        return TorusPartition.build(refined.frame, refined.acting, boxes,
                                    refined.labels)

    monkeypatch.setattr(construct, "refined_partition", swapped)
    with pytest.raises(InvariantError, match="composition rule"):
        build_markov_construction(FIB)


def test_build_refuses_a_refined_graph_with_parallel_edges(monkeypatch):
    """One entry of a factored row listed twice: two edges from each cell
    of that row to one cell keep the support of T·S but not the 0/1 graph.
    Each of the two distinct rows is checked."""
    real_factored = construct.factored

    def doubled(part, row):
        rows, row_of = real_factored(part)
        rows = list(rows)
        rows[row] = rows[row][:1] + rows[row]
        return rows, row_of

    for row in (0, 1):
        monkeypatch.setattr(construct, "factored", lambda part, row=row: doubled(part, row))
        with pytest.raises(InvariantError, match="composition rule"):
            build_markov_construction(FIB)


@pytest.mark.parametrize("matrix", SUITE, ids=str)
def test_refined_graph_counts_blocks_like_the_model(matrix):
    mc = build_markov_construction(matrix)
    p = mc.model
    for n in range(1, 6):
        power = (p ** n).rows()
        assert count_blocks(mc.refined_graph, n) == sum(sum(r) for r in power)
        assert count_periodic(mc.refined_graph, n) == power[0][0] + power[1][1]


def test_full_pipeline_on_random_matrices():
    rng = random.Random(20260814)
    for _ in range(25):
        matrix = random_hyperbolic(rng, max_entry=20)
        mc = build_markov_construction(matrix)
        mc.conjugation.verify()
        assert mc.graph.matrix == mc.model.rows()
        assert mc.refined.n == sum(sum(row) for row in mc.model.rows())


def test_geometric_recheck_runs_above_64_cells():
    """N* = 65: the refined graph is still re-derived geometrically."""
    mc = build_markov_construction(Mat2Z(63, 1, 1, 0))
    assert mc.refined.n == 65
    report = construction_report(mc)
    assert report["verifier_results"]["refined_geometry_checked"] is True

LADDER = [FIB, -FIB, Mat2Z(2, 1, 1, 1), Mat2Z(0, 1, 1, 3), Mat2Z(-2, -3, -1, -2),
          Mat2Z(3, 2, 1, 1), Mat2Z(5, 2, 2, 1), Mat2Z(10, 1, 1, 0),
          Mat2Z(15, 1, 1, 0)]


@pytest.mark.parametrize("matrix", LADDER, ids=str)
def test_refined_partition_is_the_constructed_refinement(matrix):
    mc = build_markov_construction(matrix)
    rebuilt = refined_partition(mc.base.partition)
    assert rebuilt.boxes == mc.refined.boxes
    assert rebuilt.labels == mc.refined.labels
    assert len(set(rebuilt.labels)) == rebuilt.n
    # the parent's eigen-data, checked once by its build, is taken over
    assert all(getattr(rebuilt, name) is getattr(mc.base.partition, name)
               for name in ("frame", "acting", "lam_act", "mu_act"))


@pytest.mark.parametrize("matrix", LADDER + [Mat2Z(40, 1, 1, 0)], ids=str)
def test_corners_are_derived_when_first_read(matrix):
    """No check reads the labelled vertices, so the build leaves them out;
    the first read derives them from the frame and the slide, and keeps
    them."""
    base = build_markov_construction(matrix).base
    assert "corners" not in base.__dict__
    corners = base.corners
    assert [c.name for c in corners] == list(construct._CORNER_NAMES)
    assert corners == construct._corner_points(base.partition.frame, base.rho)
    assert base.corners is corners


def random_unimodular(rng: random.Random) -> Mat2Z:
    """A short product of shears, optionally composed with the axis swap."""
    c = Mat2Z.identity()
    lower = rng.random() < 0.5
    for _ in range(3):
        k = rng.randint(1, 2) * rng.choice((1, -1))
        c = c @ (Mat2Z(1, 0, k, 1) if lower else Mat2Z(1, k, 0, 1))
        lower = not lower
    return c @ E if rng.random() < 0.5 else c


@pytest.mark.parametrize("matrix", LADDER, ids=str)
def test_conjugates_keep_trace_determinant_and_refined_char_poly(matrix):
    """A and C A C^-1 need not reduce to the same model or N* (10 1 1 0 and
    its conjugate 8 1 17 2 give N* 12 and 28), but for every conjugate the
    model keeps |trace| and determinant, N* is the sum of the model's
    entries, and the refined graph, the edge graph of the model's
    multigraph, has char poly x^(N*-2) (x^2 - tr P x + det P)."""
    rng = random.Random(f"conjugate {matrix}")
    for _ in range(2):
        c = random_unimodular(rng)
        mc = build_markov_construction(c @ matrix @ c.inverse())
        p = mc.model
        assert p.trace() == abs(matrix.trace())
        assert p.det() == matrix.det()
        n_star = mc.refined.n
        assert n_star == p.a + p.b + p.c + p.d
        expected = (1, -p.trace(), p.det()) + (0,) * (n_star - 2)
        assert char_poly(mc.refined_graph) == expected


def test_a_conjugate_can_reduce_to_another_model():
    """10 1 1 0 and its conjugate 8 1 17 2 are the same torus map up to a
    change of basis, yet their partitions have 12 and 28 cells."""
    a, b = Mat2Z(10, 1, 1, 0), Mat2Z(8, 1, 17, 2)
    c = Mat2Z(1, 0, 2, 1)
    assert c @ a @ c.inverse() == b
    assert build_markov_construction(a).refined.n == 12
    mc = build_markov_construction(b)
    assert mc.model == b
    assert mc.refined.n == 28


def test_rejects_non_hyperbolic_input():
    for matrix in (Mat2Z(1, 1, 0, 1), Mat2Z(0, -1, 1, 0), Mat2Z(1, 0, 0, 1)):
        with pytest.raises(NotHyperbolicError):
            build_markov_construction(matrix)


def test_base_partition_input_validation():
    with pytest.raises(ValueError):
        build_base_partition(Mat2Z(3, -1, -2, 1), 1)  # negative entry
    with pytest.raises(ValueError):
        build_base_partition(FIB, 2)  # bad sign
    with pytest.raises(ValueError):
        build_base_partition(Mat2Z(1, 2, 1, 1), 1)  # slope not in (0, 1)
