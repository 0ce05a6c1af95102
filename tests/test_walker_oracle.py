"""The single iterative word-tree walker against the recursive walkers it
replaced (kept verbatim in ``oracles``): same refinement cells in the same
order, equal n-fold reports, equal decay rows and the same first window
error, on constructions from all four sign cases and on their broken
negative-control partitions."""

import pytest

import oracles
from markov_torus.cli import _break_partition
from markov_torus.construct import SignCase, build_markov_construction
from markov_torus.partition import (
    CellAreaSum,
    InvariantError,
    NfoldCount,
    WindowCheck,
    WordVisitor,
    refinement_cells_depth,
    transition_graph,
    verify_generator_decay,
    verify_nfold_range,
    walk_words,
)
from markov_torus.torus import Mat2Z

# one ladder matrix per sign case
MATRICES = {
    SignCase.PLUS_MINUS: Mat2Z(1, 1, 1, 0),
    SignCase.MINUS_PLUS: Mat2Z(-1, -1, -1, 0),
    SignCase.PLUS_PLUS: Mat2Z(2, 1, 1, 1),
    SignCase.MINUS_MINUS: Mat2Z(-2, -3, -1, -2),
}


@pytest.fixture(scope="module", params=list(MATRICES), ids=lambda c: c.name)
def construction(request):
    built = build_markov_construction(MATRICES[request.param])
    assert built.base.sign_case is request.param
    return built


def partitions(construction):
    """(tag, partition) for the base, the refinement and their broken forms."""
    base, refined = construction.base.partition, construction.refined
    return [("base", base), ("refined", refined),
            ("base-broken", _break_partition(base)),
            ("refined-broken", _break_partition(refined))]


def outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except (InvariantError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def test_refinement_cells_match_recursive_walk(construction):
    for tag, part in partitions(construction):
        top = 4 if part.n == 2 else 2
        for depth in range(1, top + 1):
            new = refinement_cells_depth(part, depth)
            assert new == oracles.refinement_cells_depth(part, depth), (tag, depth)


def test_nfold_reports_match_recursive_walk(construction):
    for tag, part in partitions(construction):
        top = 6  # the broken MINUS_MINUS refinement has empty cylinders of length 5
        new = outcome(lambda: verify_nfold_range(part, 1, top))
        assert new == outcome(lambda: oracles.verify_nfold_range(part, 1, top)), tag
        new = outcome(lambda: verify_nfold_range(part, 3, top))
        assert new == outcome(lambda: oracles.verify_nfold_range(part, 3, top)), tag


def test_decay_rows_and_window_errors_match(construction):
    for tag, part in partitions(construction):
        for depth, up_to in ((4, 2), (1, 2), (3, 1), (2, 0)):
            new = outcome(lambda: verify_generator_decay(part, depth, up_to))
            old = outcome(lambda: oracles.verify_generator_decay(part, depth, up_to))
            assert new == old, (tag, depth, up_to)


def test_first_window_error_matches_per_n_walks(construction):
    """One walk to length 2*up_to+1 reports what the old per-n walks
    reported first: the smallest failing n, its first word in DFS order."""
    for tag, part in partitions(construction):
        graph = transition_graph(part)
        succ = [[j for j in range(part.n) if graph.matrix[i][j] > 0]
                for i in range(part.n)]
        mu_abs, lam_abs = abs(part.mu_act), abs(part.lam_act)

        def per_n():
            for n in (1, 2):
                oracles._check_window_dims(part, succ, n, mu_abs, lam_abs)

        windows = WindowCheck(part, 2)
        walk_words(part, [windows])
        assert outcome(windows.result) == outcome(per_n), tag


def test_broken_partitions_fail_somewhere(construction):
    """The comparisons above cover failures, not just passes."""
    refined = _break_partition(construction.refined)
    assert outcome(lambda: verify_generator_decay(refined, 2))[0] == "InvariantError"
    if construction.base.sign_case is SignCase.MINUS_MINUS:
        reports = verify_nfold_range(refined, 1, 6)
        assert reports[5].failures[0] == (0, 1, 2, 5, 0)
        assert reports[6].failures


class _Boom(WordVisitor):
    max_len = 2

    def visit(self, word, pieces):
        if len(word) == 2:
            raise InvariantError("boom")


def test_failing_visitor_stops_only_itself(construction):
    part = construction.refined
    boom, counter = _Boom(), NfoldCount(1, 3)
    walk_words(part, [boom, counter])
    with pytest.raises(InvariantError, match="boom"):
        boom.result()
    assert counter.result() == oracles.verify_nfold_range(part, 1, 3)


def test_walk_error_reaches_every_visitor(construction):
    part = construction.base.partition
    visitors = [CellAreaSum(part, 2), WindowCheck(part, 1)]
    walk_words(part, visitors, succ=[[0]])  # no row for cell 1
    for visitor in visitors:
        with pytest.raises(IndexError):
            visitor.result()


def test_walk_rejects_a_graph_it_does_not_follow(construction):
    part = construction.base.partition
    counter = NfoldCount(1, 2)
    walk_words(part, [counter], succ=[[0], [0]])
    with pytest.raises(InvariantError, match="does not follow"):
        counter.result()
