"""Acceptance gate: the eleven defining claims, one pass/fail line each.

Every test prints ``[criterion NN] PASS/FAIL  <elapsed>  <label>`` and fails
loudly if the claim or its runtime budget is violated.  All checks are exact
unless a tolerance is stated in the claim itself.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from markov_torus.coding import BoundaryAmbiguity, CodingContext
from markov_torus.construct import (
    build_base_partition,
    build_markov_construction,
    conjugate_nonnegative,
    count_intersections,
)
from markov_torus.exact import QuadReal
from markov_torus.multmap import ExpansionAmbiguity, MultiplicationSystem
from markov_torus.partition import (
    TorusPartition,
    partition_diam_sq,
    refine,
    transition_graph,
)
from markov_torus.sft import (
    TransitionGraph,
    char_poly,
    count_blocks,
    count_periodic,
    higher_block_graph,
    perron_data,
)
from markov_torus.torus import Mat2Z, hyperbolic_check
from markov_torus.walk import (
    refinement_cells_depth,
    verify_areas,
    verify_boundary_alignment,
    verify_generator_decay,
    verify_nfold_range,
)

from oracles import rect_area

SUITE = [
    Mat2Z(1, 1, 1, 0),
    Mat2Z(2, 1, 1, 1),
    Mat2Z(1, 2, 1, 1),
    Mat2Z(2, 3, 1, 2),
    Mat2Z(3, 2, 1, 1),
    Mat2Z(1, 1, 1, 2),
]
SUITE_WITH_NEGATIONS = SUITE + [Mat2Z(-m.a, -m.b, -m.c, -m.d) for m in SUITE]

FIB = Mat2Z(1, 1, 1, 0)


@contextmanager
def criterion(num: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[criterion {num:>2}] FAIL  {elapsed:7.2f}s  {label}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"[criterion {num:>2}] FAIL  {elapsed:7.2f}s  {label} "
              f"(over budget {budget:g}s)")
        raise AssertionError(
            f"criterion {num} runtime {elapsed:.2f}s >= budget {budget:g}s")
    print(f"[criterion {num:>2}] PASS  {elapsed:7.2f}s  {label}")


@pytest.fixture(scope="module")
def constructions():
    return {mat: build_markov_construction(mat) for mat in SUITE_WITH_NEGATIONS}


def test_criterion_01_fibonacci_golden():
    with criterion(1, "Fibonacci: N*=3, graph [[1,1],[1,0]], merge restores "
                      "the 2-cell partition", budget=1.0):
        construction = build_markov_construction(FIB)
        assert construction.refined.n == 3
        assert [list(r) for r in construction.graph.matrix] == [[1, 1], [1, 0]]
        base = construction.base.partition
        # the refined cells living inside R_I are those whose containing
        # (time-0) symbol is I; merging them must reproduce R_I exactly
        inside = sorted(
            (cell.rect for cell in construction.cells if cell.symbols[1] == 0),
            key=lambda r: r.w_lo,
        )
        assert len(inside) == 2
        box = base.boxes[0]
        assert inside[0].u_lo == box.u_lo and inside[0].u_hi == box.u_hi
        assert inside[1].u_lo == box.u_lo and inside[1].u_hi == box.u_hi
        assert inside[0].w_lo == box.w_lo
        assert inside[0].w_hi == inside[1].w_lo
        assert inside[1].w_hi == box.w_hi
        # and the remaining cell is all of R_II
        others = [c.rect for c in construction.cells if c.symbols[1] == 1]
        assert len(others) == 1 and others[0] == base.boxes[1]
        # the merged two-cell partition is the Fibonacci-graph Markov
        # partition: recount its transition multiplicities geometrically
        merged = TorusPartition.build(
            base.frame, base.acting, (box, base.boxes[1]), ("I", "II"))
        assert [list(r) for r in transition_graph(merged).matrix] == \
            [[1, 1], [1, 0]]


def test_criterion_02_entry_count_theorem():
    with criterion(2, "intersection counts = model entries, N* = p+q+r+s, "
                      "suite and negations", budget=10.0):
        for mat in SUITE_WITH_NEGATIONS:
            conj = conjugate_nonnegative(mat)
            base = build_base_partition(conj.model, conj.epsilon)
            graph = count_intersections(base)
            model = conj.model
            assert [list(r) for r in graph.matrix] == [
                [model.a, model.b], [model.c, model.d]], mat
            n_star = len(refine(base.partition))
            assert n_star == model.a + model.b + model.c + model.d, mat


def _random_unimodular(rng: random.Random, limit: int = 50) -> Mat2Z:
    """Random hyperbolic element of GL(2, Z) with entries within the limit,
    built as a product of elementary shears and an optional axis swap."""
    while True:
        mat = Mat2Z(1, 0, 0, 1)
        lower = rng.random() < 0.5
        for _ in range(rng.randint(2, 8)):
            k = rng.randint(1, 3) * rng.choice((1, -1))
            shear = Mat2Z(1, 0, k, 1) if lower else Mat2Z(1, k, 0, 1)
            lower = not lower
            grown = mat @ shear
            if max(abs(e) for e in (grown.a, grown.b, grown.c, grown.d)) > limit:
                break
            mat = grown
        if rng.random() < 0.5:
            mat = mat @ Mat2Z(0, 1, 1, 0)
        if rng.random() < 0.5:
            mat = Mat2Z(-mat.a, -mat.b, -mat.c, -mat.d)
        try:
            hyperbolic_check(mat)
        except ValueError:
            continue
        return mat


def test_criterion_03_conjugation_identity():
    with criterion(3, "C A C^-1 = eps P exactly with P >= 0, trace/det "
                      "preserved, 100 random matrices", budget=30.0):
        rng = random.Random(20260814)
        seen = set()
        for _ in range(100):
            mat = _random_unimodular(rng)
            seen.add((mat.a, mat.b, mat.c, mat.d))
            res = conjugate_nonnegative(mat)
            model, conjugator, eps = res.model, res.conjugator, res.epsilon
            assert eps in (1, -1)
            assert abs(conjugator.det()) == 1
            scaled = Mat2Z(eps * model.a, eps * model.b,
                           eps * model.c, eps * model.d)
            assert conjugator @ mat @ (conjugator ** -1) == scaled
            assert min(model.a, model.b, model.c, model.d) >= 0
            assert mat.trace() == eps * model.trace()
            assert mat.det() == model.det()
        assert len(seen) >= 50  # the sample genuinely varies


def test_criterion_04_boundary_property(constructions):
    with criterion(4, "image-boundary alignment holds exactly on base and "
                      "refined partitions, suite and negations"):
        for mat, construction in constructions.items():
            assert verify_boundary_alignment(construction.base.partition) == [], mat
            assert verify_boundary_alignment(construction.refined) == [], mat


def test_criterion_05_fundamental_region_exactness(constructions):
    with criterion(5, "cell areas sum to exactly 1 at construction and at "
                      "every refinement depth to 4"):
        one = QuadReal(1)
        for mat, construction in constructions.items():
            base = construction.base.partition
            assert verify_areas(base) == one, mat
            assert verify_areas(construction.refined) == one, mat
            for depth in range(1, 5):
                cells = refinement_cells_depth(base, depth)
                total = QuadReal(0)
                for cell in cells:
                    total = total + rect_area(cell.rect, base.frame)
                assert total == one, (mat, depth)


def test_criterion_06_markov_nfold_property(constructions):
    with criterion(6, "every admissible word of length 3..6 has a nonempty "
                      "cylinder, suite and negations", budget=60.0):
        total_words = 0
        for mat, construction in constructions.items():
            for part in (construction.base.partition, construction.refined):
                reports = verify_nfold_range(part, 3, 6)
                for report in reports.values():
                    assert report.failures == (), (mat, report.length)
                    total_words += report.words_checked
        assert total_words > 10_000  # the sweep really enumerated words


def test_criterion_07_generator_decay(constructions):
    with criterion(7, "window diameters <= d(R*) |mu|^n on the refinement, "
                      "edge ratio exactly |mu|, n <= 10"):
        for mat, construction in constructions.items():
            refined = construction.refined
            mu_sq = refined.mu_act * refined.mu_act
            rows = verify_generator_decay(refined, 10)
            assert all(row.ok for row in rows), mat
            d_sq = partition_diam_sq(refined)
            for row in rows:
                assert row.bound_sq == d_sq * mu_sq ** row.depth, mat
            # once every cell pair is reachable the maximal window cell
            # shrinks by exactly |mu| per step (squared: mu^2)
            graph = transition_graph(refined)
            saturated = next(
                n for n in range(1, 11)
                if all(x > 0 for r in graph.power(2 * n) for x in r)
            )
            assert saturated <= 3, mat
            for row, nxt in zip(rows[saturated:], rows[saturated + 1:]):
                assert nxt.measured_sq == mu_sq * row.measured_sq, mat


def test_criterion_08_coding_round_trip():
    with criterion(8, "decode(encode(p,20)) contains p within d(R*)|mu|^20, "
                      "multiplicity 1 at the resolving depth, origin in "
                      "(1, (N*)^2]"):
        ctx = CodingContext.from_matrix(FIB)
        rng = random.Random(8128)
        points = []
        ambiguous = 0
        while len(points) < 200:
            den_x, den_y = rng.randint(1, 10_000), rng.randint(1, 10_000)
            point = (Fraction(rng.randrange(den_x), den_x),
                     Fraction(rng.randrange(den_y), den_y))
            word = ctx.encode(point, 20)
            if isinstance(word, BoundaryAmbiguity):
                ambiguous += 1  # measure-zero event: redraw, keep honest count
                assert ambiguous < 20
                continue
            points.append((point, word))
        from markov_torus.coding import torus_dist_sq
        for point, word in points:
            res = ctx.decode(word)
            model_point = ctx.to_model(point)
            assert res.contains(model_point)
            gap_sq = torus_dist_sq(res.center, model_point)
            assert (gap_sq - res.diameter_bound_sq).sign() <= 0
        depth = ctx.resolving_depth()
        for point, _ in points[:20]:
            report = ctx.preimage_report(point, depth)
            assert report.count == 1, point
        n_star = ctx.part.n
        origin_report = ctx.preimage_report((Fraction(0), Fraction(0)), depth)
        assert 1 < origin_report.count <= n_star * n_star


def _brute_periodic(graph: TransitionGraph, n: int) -> int:
    count = 0
    nodes = range(graph.n)
    def extend(path):
        nonlocal count
        if len(path) == n:
            count += graph.matrix[path[-1]][path[0]] > 0
            return
        for nxt in nodes:
            if graph.matrix[path[-1]][nxt] > 0:
                extend(path + [nxt])
    for start in nodes:
        extend([start])
    return count


def test_criterion_09_sft_toolkit():
    with criterion(9, "Fibonacci block counts 2,3,5,8,13; 2-block graph "
                      "consistent; periodic counts match brute force"):
        fib_graph = TransitionGraph([[1, 1], [1, 0]])
        assert [count_blocks(fib_graph, n) for n in range(1, 6)] == \
            [2, 3, 5, 8, 13]
        higher, blocks = higher_block_graph(fib_graph)
        assert len(blocks) == count_blocks(fib_graph, 2)
        for n in range(1, 6):
            assert count_blocks(higher, n) == count_blocks(fib_graph, n + 1)
        rng = random.Random(6174)
        graphs = 0
        while graphs < 3:
            size = rng.randint(2, 4)
            rows = [[rng.randint(0, 1) for _ in range(size)]
                    for _ in range(size)]
            if not any(any(row) for row in rows):
                continue
            graph = TransitionGraph(rows)
            for n in range(1, 7):
                assert count_periodic(graph, n) == _brute_periodic(graph, n)
            graphs += 1


def test_criterion_10_multiplication_map_baseline():
    with criterion(10, "base-n circle maps: semiconjugacy, nesting, onto, "
                       "preimage bounds, two-expansion points, naive-decode "
                       "regression, depth 24, n = 2, 3, 10"):
        depth = 24
        for base in (2, 3, 10):
            system = MultiplicationSystem(base)
            rng = random.Random(1000 + base)
            # (i) semiconjugacy f(pi(s)) = pi(shift s), exactly, finite form
            for _ in range(40):
                word = tuple(rng.randrange(base) for _ in range(depth))
                value = system.digit_value(word)
                assert system.apply(value) == system.digit_value(word[1:])
            # (ii) continuity: share a prefix of length L => within n^-L
            for _ in range(40):
                cut = rng.randint(1, depth - 1)
                prefix = tuple(rng.randrange(base) for _ in range(cut))
                tail_a = tuple(rng.randrange(base) for _ in range(depth - cut))
                tail_b = tuple(rng.randrange(base) for _ in range(depth - cut))
                va = system.digit_value(prefix + tail_a)
                vb = system.digit_value(prefix + tail_b)
                assert abs(va - vb) <= Fraction(1, base ** cut)
            # (iii) onto: every sampled point lies in a decoded cylinder
            # (iv)+(v) two expansions exactly at base-n rationals, otherwise
            # one; the map f itself is exactly n-to-one
            for _ in range(60):
                x = Fraction(rng.randrange(1, 10_000), rng.randint(1, 10_000)) % 1
                expansions = system.expansions(x, depth)
                assert expansions
                for word in expansions:
                    lo, hi = system.decode(word)
                    assert lo <= x <= hi or (x == 0 and hi == 1)
                assert len(expansions) == (2 if system.is_adic(x) else 1)
                fibers = system.preimages(x)
                assert len(set(fibers)) == base
                assert all(system.apply(y) == x for y in fibers)
            # forced ambiguity with both truncated expansions listed
            probe = Fraction(1, base ** 3)
            result = system.encode(probe, depth)
            assert isinstance(result, ExpansionAmbiguity)
            low, high = sorted(system.expansions(probe, depth))
            assert sorted(result.expansions) == [low, high]
            assert high[3:] == (0,) * (depth - 3)
            assert low[3:] == (base - 1,) * (depth - 3)
            # regression: intersecting per-iterate closures keeps the fixed
            # point's backward orbit, so that reading of the decode stays
            # ill-defined while the proper nested decode pins one interval;
            # the witness word is (n-1), 0, 0, ... whose first closed cell
            # touches the fixed point 1 ~ 0
            word = (base - 1,) + (0,) * (depth - 1)
            naive = system.naive_decode(word)
            assert system.naive_contains(word, Fraction(base - 1, base))
            assert system.naive_contains(word, Fraction(0))
            assert system.naive_contains(word, Fraction(1))
            spread = max(hi for _, hi in naive) - min(lo for lo, _ in naive)
            assert spread >= Fraction(1, 2)
            lo, hi = system.decode(word)
            assert lo == Fraction(base - 1, base)
            assert hi - lo == Fraction(1, base ** depth)
            assert not (lo <= Fraction(1) <= hi)


def test_criterion_11_spectrum_match(constructions):
    with criterion(11, "char poly of the 2-node graph equals P's; Perron "
                       "radius of the N*-graph within 1e-10 of lambda"):
        for mat, construction in constructions.items():
            model = construction.model
            graph_poly = char_poly(construction.graph)
            model_poly = char_poly(TransitionGraph(
                [[model.a, model.b], [model.c, model.d]]))
            assert graph_poly == model_poly, mat
            assert graph_poly == (1, -model.trace(), model.det()), mat
            lam = abs(hyperbolic_check(mat).lam)
            radius = perron_data(construction.refined_graph).spectral_radius
            assert abs(radius - float(lam)) <= 1e-10, mat
