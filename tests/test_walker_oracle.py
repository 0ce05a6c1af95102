"""The single iterative word-tree walker against the recursive walkers it
replaced (kept verbatim in ``oracles``): same refinement cells in the same
order, equal n-fold reports, equal decay rows and the same first window
error, on constructions from all four sign cases and on their broken
negative-control partitions; visitors of several depths beside a failing
one, each fed exactly its words in preorder with the strips of single
steps, and one node step per word with children and strips; and the
walker's forward cylinder steps against the backward ones of
``cylinder_components``."""

from collections import Counter

import pytest

import oracles
from markov_torus import partition
from markov_torus.cli import _break_partition
from markov_torus.construct import SignCase, build_markov_construction
from markov_torus.partition import (
    CellAreaSum,
    InvariantError,
    NfoldCount,
    WindowCheck,
    WordVisitor,
    count_words,
    cylinder_components,
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


def walked_windows(part, up_to):
    windows = WindowCheck(part, up_to)
    walk_words(part, [windows])
    return windows


def test_decay_rows_and_window_errors_match(construction):
    for tag, part in partitions(construction):
        for depth, up_to in ((4, 2), (1, 2), (3, 1), (2, 0)):
            new = outcome(lambda: verify_generator_decay(
                part, depth, walked_windows(part, min(depth, up_to))))
            old = outcome(lambda: oracles.verify_generator_decay(part, depth, up_to))
            assert new == old, (tag, depth, up_to)


LADDER = ("1 1 1 0", "-1 -1 -1 0", "2 1 1 1", "0 1 1 3", "-2 -3 -1 -2",
          "3 2 1 1", "5 2 2 1", "10 1 1 0", "15 1 1 0")


def _decay_ints(rows):
    return [(row.depth, row.enumerated,
             *((x.a, x.b, x.q, x.d) for x in (row.bound_sq, row.measured_sq)))
            for row in rows]


@pytest.mark.parametrize("text", LADDER)
def test_decay_rows_match_per_row_diameters(text):
    """One diameter per first symbol, at its widest reachable last symbol
    and scaled by mu^(2n), gives the integers of the rows that computed
    every reachable pair's diameter at every depth, for each depth 0..8.
    The broken forms fail the window check, so they enumerate nothing; the
    others share one window walk to length 3 (length 5 on N* 17 takes
    seconds and adds nothing to the diameters)."""
    built = build_markov_construction(Mat2Z(*map(int, text.split())))
    for tag, part in partitions(built):
        top = 0 if tag.endswith("broken") else 1
        walks = [WindowCheck(part, up_to) for up_to in range(top + 1)]
        walk_words(part, walks)
        for depth in range(9):
            windows = walks[min(depth, top)]
            rows = verify_generator_decay(part, depth, windows)
            assert _decay_ints(rows) == _decay_ints(
                oracles.verify_generator_decay_per_row(part, depth, top, windows)
            ), (text, tag, depth)


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


class _Words(WordVisitor):
    """Every word it is fed, with its strips, in the order fed."""

    def __init__(self, max_len):
        self.max_len = max_len
        self.seen = []

    def visit(self, word, pieces):
        self.seen.append((tuple(word), list(pieces)))


class _BoomAt(WordVisitor):
    """Fails at its first word of length ``at``; counts the words it got."""

    def __init__(self, max_len, at):
        self.max_len, self.at = max_len, at
        self.visits = 0

    def visit(self, word, pieces):
        self.visits += 1
        if len(word) == self.at:
            raise InvariantError("boom")


def _preorder(part, max_len):
    """The words of at most ``max_len`` symbols, in preorder, each with its
    strips stepped one ``advance_strips`` call per word from its parent's:
    the walk before nodes were stepped at once."""
    succ = partition._step_successors(part)
    out = []

    def go(word, pieces):
        out.append((tuple(word), pieces))
        if len(word) < max_len:
            for nxt in succ[word[-1]]:
                go(word + [nxt],
                   partition.advance_strips(part, pieces, word[-1], nxt) if pieces else [])

    for sym, box in enumerate(partition._strip_basis(part).boxes):
        go([sym], [box])
    return out


@pytest.mark.parametrize("fail_len", [1, 5])
def test_leaves_visited_in_place_reach_every_visitor(construction, fail_len):
    """Visitors wanting 2, 3 and 4 symbols share a walk with one that wants
    5 and fails at its first word of length ``fail_len``: the first word
    (the deepest visitor goes before any step) or the first leaf visited in
    place.  Each survivor sees exactly its count_words words, in preorder,
    with the strips of single steps; the failed one gets no word after
    the one it failed at."""
    for tag, part in partitions(construction):
        words = [_Words(n) for n in (2, 3, 4)]
        boom = _BoomAt(5, fail_len)
        walk_words(part, [words[0], boom, *words[1:]])
        with pytest.raises(InvariantError, match="boom"):
            boom.result()
        lengths = [len(word) for word, _ in _preorder(part, 5)]
        assert boom.visits == lengths.index(fail_len) + 1, tag
        for visitor in words:
            assert len(visitor.seen) == count_words(part, visitor.max_len), tag
            assert visitor.seen == _preorder(part, visitor.max_len), (tag, visitor.max_len)


def test_walk_steps_each_inner_node_once(construction, monkeypatch):
    """One node step per word that has children to visit and strips to
    step: none for the leaves at the deepest wanted length, none for an
    empty cylinder (the broken MINUS_MINUS refinement has some of length
    5)."""
    for tag, part in partitions(construction):
        steps = []
        step = partition.advance_node

        def counted(part, strips, cur):
            steps.append(cur)
            return step(part, strips, cur)

        monkeypatch.setattr(partition, "advance_node", counted)
        walk_words(part, [NfoldCount(1, 6)])
        monkeypatch.undo()
        inner = [word for word, pieces in _preorder(part, 6) if len(word) < 6 and pieces]
        assert steps == [word[-1] for word in inner], tag


def test_walk_error_reaches_every_visitor(construction, monkeypatch):
    part = construction.base.partition
    steps = []
    step = partition.advance_node

    def failing(*args):  # the second step of the walk fails
        steps.append(args)
        if len(steps) == 2:
            raise InvariantError("step failed")
        return step(*args)

    monkeypatch.setattr(partition, "advance_node", failing)
    visitors = [CellAreaSum(part, 2), WindowCheck(part, 1)]
    walk_words(part, visitors)
    assert len(steps) == 2
    for visitor in visitors:
        with pytest.raises(InvariantError, match="step failed"):
            visitor.result()


def test_forward_and_backward_tracking_agree(construction):
    """For every word of length 2..4 the walker reaches, phi^k of each piece
    of its cylinder (pulled back to time 0 through the step table) has the
    dimensions of one of the walker's pieces (stepped forward to time k):
    the same multiset of (u_dim, w_dim), several pieces or none included."""
    for tag, part in partitions(construction):
        lam_abs, mu_abs = abs(part.lam_act), abs(part.mu_act)
        forward = {}
        for k in (1, 2, 3):
            forward.update({word: Counter() for word in _words(part, k + 1)})
            for cell in refinement_cells_depth(part, k):
                forward[cell.symbols][cell.rect.u_dim, cell.rect.w_dim] += 1
        for word, dims in forward.items():
            k = len(word) - 1
            scale_u, scale_w = lam_abs ** k, mu_abs ** k
            back = Counter((piece.u_dim * scale_u, piece.w_dim * scale_w)
                           for piece in cylinder_components(part, word))
            assert back == dims, (tag, word)


def _words(part, length):
    """The words of one length that the walker visits, with or without
    pieces."""
    succ = partition._step_successors(part)
    words = [(i,) for i in range(part.n)]
    for _ in range(length - 1):
        words = [word + (j,) for word in words for j in succ[word[-1]]]
    return words
