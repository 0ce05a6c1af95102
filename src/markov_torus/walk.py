"""The word tree of a partition, and the verifiers.

Everything that enumerates words goes through one iterative walker,
:func:`walk_words`, which steps each word's strips to all of its children at
once with :func:`advance_node` and hands each word, with its strips, to
several :class:`WordVisitor` objects at once: ``refinement_cells_depth``,
``verify_nfold_range`` and the window check of ``verify_generator_decay``.
Verifiers, each described where it is defined: ``verify_translate_disjoint``
and ``verify_areas`` (the cells embed disjointly and their closures cover
the torus), ``verify_boundary_alignment`` (the Markov boundary condition),
``verify_nfold_range`` (admissible words have nonempty cylinders) and
``verify_generator_decay`` (symmetric refinements shrink like |mu|^n).
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Sequence

from .basis import Strip, parallelogram_diam_sq, side_image
from .exact import QuadReal
from .partition import (
    RefinementCell,
    TorusPartition,
    advance_node,
    int_overlaps,
    partition_diam_sq,
    step_successors,
    strip_basis,
)
from .torus import InvariantError


class WordVisitor:
    """One consumer of a :func:`walk_words` traversal.

    ``max_len`` is the longest word it wants.  ``visit(word, strips)`` runs
    once per word of length at most ``max_len``, in walk order; ``word`` is
    the walker's buffer, valid only during the call, and ``strips`` are the
    word's cylinder pieces as strips (:func:`strip_rect` decodes them).
    ``result()`` returns what the visitor found, or re-raises the exception
    that stopped it."""

    max_len = 0
    error: Exception | None = None

    def visit(self, word: list[int], strips: list[Strip]) -> None:
        raise NotImplementedError

    def result(self):
        if self.error is not None:
            raise self.error
        return self._value()

    def _value(self):
        return None


def count_words(part: TorusPartition, max_len: int) -> int:
    """Exact number of words :func:`walk_words` visits when its deepest
    visitor wants ``max_len``: the paths of at most ``max_len`` symbols in
    the transition graph's support, counted by integer vector steps without
    walking them."""
    if max_len < 1:
        return 0
    succ = step_successors(part)
    paths = [1] * part.n  # per last symbol, the words of the current length
    total = part.n
    for _ in range(max_len - 1):
        step = [0] * part.n
        for i, count in enumerate(paths):
            for j in succ[i]:
                step[j] += count
        paths = step
        total += sum(paths)
    return total


def walk_words(part: TorusPartition, visitors: Sequence[WordVisitor]) -> None:
    """Feed every visitor the admissible words of the partition's word tree.

    One preorder depth-first walk, with an explicit stack, over the words
    s_0 ... s_k whose steps follow :func:`step_successors`, as deep as the
    deepest visitor still running.  Each word reaches every visitor that
    wants its length with its strips: the components of phi^k of its
    cylinder, anchored in box(s_k).  A word's children get theirs from one
    :func:`advance_node` step of its strips; children at the deepest wanted
    length are visited there, in order, and never stacked.  Words of each
    length arrive in lexicographic order; an empty cylinder's descendants
    are visited with no strips and cost no step.  The visitors wanting each
    length are listed once, and again only when one fails.

    An exception raised by a visitor is kept on its ``error`` and stops that
    visitor alone; one raised by the walk itself is kept on every visitor
    still running.
    """
    live = list(visitors)
    try:
        succ = step_successors(part)
        wanting = _wanting(live)
        word: list[int] = []
        boxes = strip_basis(part).boxes
        stack = [(0, sym, [boxes[sym]]) for sym in reversed(range(part.n))]
        while stack and wanting:
            depth, sym, pieces = stack.pop()
            if depth >= len(wanting):
                continue
            del word[depth:]
            word.append(sym)
            if _visit(wanting[depth], word, pieces):
                live = [v for v in live if v.error is None]
                wanting = _wanting(live)
            if depth + 1 >= len(wanting):
                continue
            nexts = succ[sym]
            kids = advance_node(part, pieces, sym) if pieces else [[] for _ in nexts]
            if depth + 2 < len(wanting):
                stack.extend(zip(itertools.repeat(depth + 1), reversed(nexts), reversed(kids)))
                continue
            word.append(sym)  # the leaves' slot
            for nxt, pieces in zip(nexts, kids):  # leaves, visited in place
                word[-1] = nxt
                if _visit(wanting[depth + 1], word, pieces):
                    live = [v for v in live if v.error is None]
                    wanting = _wanting(live)
                    if depth + 1 >= len(wanting):
                        break
    except Exception as exc:
        for v in live:
            v.error = exc


def _wanting(visitors: Sequence[WordVisitor]) -> list[list[WordVisitor]]:
    """Per word depth (length - 1), the visitors that want words of it."""
    limit = max((v.max_len for v in visitors), default=0)
    return [[v for v in visitors if depth < v.max_len] for depth in range(limit)]


def _visit(visitors: list[WordVisitor], word: list[int], pieces: list[Strip]) -> bool:
    """Hand one word to the visitors; whether one of them failed, its
    exception kept on its ``error``."""
    failed = False
    for v in visitors:
        try:
            v.visit(word, pieces)
        except Exception as exc:
            v.error = exc
            failed = True
    return failed


def refinement_cells_depth(part: TorusPartition, depth: int
                           ) -> list[RefinementCell]:
    """Cells of the depth-fold refinement by forward images: components of
    the intersections of phi^(depth-k) R_{s_k} over words s of length
    depth + 1, anchored in the box of the last symbol (offset -depth).

    ``depth == 1`` reproduces :func:`refine` up to ordering.  Cells come in
    the order :func:`walk_words` reaches them: by word, lexicographically."""
    cells = _DepthCells(part, depth)
    walk_words(part, [cells])
    return cells.result()


class _DepthCells(WordVisitor):
    """The cells of :func:`refinement_cells_depth`, in walk order."""

    def __init__(self, part: TorusPartition, depth: int):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.basis = strip_basis(part)
        self.depth = depth
        self.max_len = depth + 1
        self.cells: list[RefinementCell] = []

    def visit(self, word, strips):
        if len(word) == self.max_len:
            symbols = tuple(word)
            rect = self.basis.rect
            self.cells.extend(RefinementCell(symbols, -self.depth, rect(strip))
                              for strip in strips)

    def _value(self) -> list[RefinementCell]:
        return self.cells


class CellAreaSum(WordVisitor):
    """Number and exact total area of the cells of the depth-fold refinement
    (those of :func:`refinement_cells_depth`), summed as the walk reaches
    them; ``result()`` is ``(cells, area)``.  The strips' width products are
    summed in Z[lam] over the modulus squared and decoded once."""

    def __init__(self, part: TorusPartition, depth: int):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.frame = part.frame
        self.basis = strip_basis(part)
        self.max_len = depth + 1
        self.cells = 0
        self.sum = (0, 0)

    def visit(self, word, strips):
        if len(word) == self.max_len and strips:
            t, delta = self.basis.t, self.basis.delta
            big_a, big_b = self.sum
            for ulx, uly, uhx, uhy, wlx, wly, whx, why in strips:
                ux, uy, wx, wy = uhx - ulx, uhy - uly, whx - wlx, why - wly
                # lam^2 = t*lam - delta
                big_a += ux * wx - delta * uy * wy
                big_b += ux * wy + uy * wx + t * uy * wy
            self.cells += len(strips)
            self.sum = (big_a, big_b)

    def _value(self) -> tuple[int, QuadReal]:
        dims = self.basis.value(*self.sum) / self.basis.modulus
        return self.cells, dims * abs(self.frame.det)


# -- verifiers -----------------------------------------------------------------------


def verify_translate_disjoint(part: TorusPartition) -> list[tuple[int, int, tuple[int, int]]]:
    """Overlap witnesses (i, j, q) where cell i meets cell j + q on the torus;
    empty means the cells are pairwise disjoint and each embeds."""
    basis = strip_basis(part)
    table = int_overlaps(part.frame, basis, basis.boxes, basis.boxes)
    bad = []
    for i in range(part.n):
        for j in range(i, part.n):
            for q, _, _ in table.get((j, i), ()):
                if i == j and q == (0, 0):
                    continue
                bad.append((i, j, q))
    return bad


def verify_areas(part: TorusPartition) -> QuadReal:
    """Exact total area of the cells; equals 1 for a genuine partition."""
    total = QuadReal(0)
    for box in part.boxes:
        total = total + box.area(part.frame)
    return total


@dataclass(frozen=True)
class AlignmentWitness:
    kind: str  # "contracting-edge" or "expanding-edge"
    cell: int
    edge_coord: QuadReal
    gap_at: QuadReal


def _merged(pieces: list[tuple[QuadReal, QuadReal]]
            ) -> tuple[list[QuadReal], list[QuadReal]]:
    """The union of closed pieces as disjoint closed intervals, ascending,
    their starts and ends in two lists; touching pieces merge."""
    starts: list[QuadReal] = []
    ends: list[QuadReal] = []
    for lo, hi in sorted(pieces):
        if ends and lo <= ends[-1]:
            if hi > ends[-1]:
                ends[-1] = hi
        else:
            starts.append(lo)
            ends.append(hi)
    return starts, ends


def _cover_gap(lo: QuadReal, hi: QuadReal,
               cover: tuple[list[QuadReal], list[QuadReal]]) -> QuadReal | None:
    """First point of [lo, hi] that the :func:`_merged` intervals leave
    uncovered, or None: lo itself when no interval holds it, else the end of
    the one that does, when that falls short of hi."""
    starts, ends = cover
    k = bisect.bisect_right(starts, lo) - 1
    if k < 0 or ends[k] < lo:
        return lo
    return ends[k] if ends[k] < hi else None


def _lattice_class(x: tuple[int, int], gens: tuple[int, int, int, int]
                   ) -> tuple[tuple[int, int], tuple[int, int]]:
    """``((r, s), (m, n))`` with x = (m + r/det)*c10 + (n + s/det)*c01 and
    0 <= r/det, s/det < 1, for a pair x and one frame axis's generator
    pairs ``gens`` = (*c10, *c01), by Cramer's rule over (1, lam).  Lines
    differ by a lattice point exactly when their keys (r, s) agree, and
    then by the difference of their (m, n)."""
    (x0, x1), (ax, ay, bx, by) = x, gens
    det = ax * by - bx * ay
    if det == 0:
        raise InvariantError("a lattice point lies on an eigenline")
    m, r = divmod(x0 * by - x1 * bx, det)
    n, s = divmod(ax * x1 - ay * x0, det)
    return (r, s), (m, n)


def _edge_gaps(part: TorusPartition, along_u: bool) -> list[AlignmentWitness]:
    """Witnesses for the constant-u edges (``along_u``) or the constant-w
    edges, two per cell, whose image, forward by (lam, mu) or backward by
    (1/mu, 1/lam), the edges do not cover modulo the lattice, in the pairs
    of the partition's :class:`StripBasis`.  Spans are listed per
    :func:`_lattice_class` of their line, moved back by its integer part,
    and merged once, under ``basis.order()``, into disjoint intervals that
    each image bisects."""
    basis = strip_basis(part)
    kind = "contracting-edge" if along_u else "expanding-edge"
    at, across = (0, 4) if along_u else (4, 0)  # the axes' offsets in strips and lattice
    gens, (s10x, s10y, s01x, s01y) = basis.lattice[at:at + 4], basis.lattice[across:across + 4]
    flip = (part.mu_act if along_u else part.lam_act).sign() < 0
    m00, m01, m10, m11 = basis.factor(along_u, along_u)
    factor, key = basis.factor(along_u, not along_u), basis.order()

    def moved(x0: int, x1: int, side: tuple[int, int, int, int]):
        cls, (m, n) = _lattice_class((x0, x1), gens)
        sx, sy = m * s10x + n * s01x, m * s10y + n * s01y
        return cls, sx, sy, key((side[0] - sx, side[1] - sy)), key((side[2] - sx, side[3] - sy))

    edges = [(box[k:k + 2], box[across:across + 4]) for box in basis.boxes for k in (at, at + 2)]
    classes: dict[tuple[int, int], list] = {}
    for x, side in edges:
        cls, _, _, lo, hi = moved(*x, side)
        classes.setdefault(cls, []).append((lo, hi))
    covers = {cls: _merged(pieces) for cls, pieces in classes.items()}
    witnesses = []
    for k, ((x0, x1), side) in enumerate(edges):
        cls, sx, sy, lo, hi = moved(m00 * x0 + m01 * x1, m10 * x0 + m11 * x1,
                                    side_image(side, factor, 0, 0, flip))
        gap = _cover_gap(lo, hi, covers.get(cls, ([], [])))
        if gap is not None:
            gx, gy = gap.obj
            witnesses.append(AlignmentWitness(kind, k // 2, basis.value(x0, x1),
                                              basis.value(gx + sx, gy + sy)))
    return witnesses


def verify_boundary_alignment(part: TorusPartition) -> list[AlignmentWitness]:
    """The Markov boundary condition, exactly.

    Constant-u edges of cells form the contracting boundary; the map takes a
    constant-u line to a constant-u line, and the image segment must be
    covered by boundary segments on that line (modulo lattice).  Dually, the
    inverse map must send constant-w edges into the expanding boundary.
    Returns witnesses for every uncovered image segment.
    """
    return _edge_gaps(part, True) + _edge_gaps(part, False)


@dataclass(frozen=True)
class NfoldReport:
    length: int
    words_checked: int
    failures: tuple[tuple[int, ...], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


class NfoldCount(WordVisitor):
    """Admissible words with length in [min_len, max_len], counted per
    length, and those with an empty cylinder; ``result()`` is the
    :class:`NfoldReport` per length."""

    def __init__(self, min_len: int, max_len: int):
        if min_len < 1 or max_len < min_len:
            raise ValueError("need 1 <= min_len <= max_len")
        self.min_len = min_len
        self.max_len = max_len
        self.checked = {n: 0 for n in range(min_len, max_len + 1)}
        self.failures: dict[int, list[tuple[int, ...]]] = {
            n: [] for n in range(min_len, max_len + 1)
        }

    def visit(self, word, pieces):
        n = len(word)
        if n >= self.min_len:
            self.checked[n] += 1
            if not pieces:
                self.failures[n].append(tuple(word))

    def _value(self) -> dict[int, NfoldReport]:
        return {n: NfoldReport(n, self.checked[n], tuple(self.failures[n]))
                for n in self.checked}


def verify_nfold_range(part: TorusPartition, min_len: int, max_len: int
                       ) -> dict[int, NfoldReport]:
    """Every admissible word with length in [min_len, max_len] has a nonempty
    cylinder, checked in one traversal of the word tree.

    Words run over the geometric transition graph (an edge wherever the image
    of one cell meets another); cylinders are tracked as exact boxes, so the
    check is a proof, not a sample.
    """
    counter = NfoldCount(min_len, max_len)
    walk_words(part, [counter])
    return counter.result()


@dataclass(frozen=True)
class DecayRow:
    depth: int
    bound_sq: QuadReal      # d(R)^2 mu^(2n): the claimed bound, exact
    measured_sq: QuadReal   # largest cell diameter of the symmetric refinement
    enumerated: bool        # True when cells were enumerated, not derived

    @property
    def ok(self) -> bool:
        return (self.measured_sq - self.bound_sq).sign() <= 0

    @property
    def measured(self) -> float:
        return float(self.measured_sq) ** 0.5


class WindowCheck(WordVisitor):
    """The enumerated half of :func:`verify_generator_decay`: for each
    n = 1..up_to, every strip of every word of length 2n+1 -- phi^(2n) of a
    window cell, anchored in box(last) -- must have the expanding dimension
    of box(last) and the contracting dimension of box(first) times
    |mu|^(2n), exactly.  ``result()`` raises :class:`InvariantError` for the
    first failing word, in walk order, of the smallest failing n."""

    def __init__(self, part: TorusPartition, up_to: int):
        self.up_to = up_to
        self.max_len = 2 * up_to + 1
        # the expected widths as StripBasis pairs: per box its u width, and
        # per word length 2n+1 its w width times mu^(2n), one integer matrix
        # step per factor mu
        basis = strip_basis(part)
        self.u_dims = [(uhx - ulx, uhy - uly) for ulx, uly, uhx, uhy, *_ in basis.boxes]
        m00, m01, m10, m11 = basis.factor(True, False)
        widths = [(whx - wlx, why - wly) for *_, wlx, wly, whx, why in basis.boxes]
        # word length -> per first symbol
        self.w_dims: dict[int, list[tuple[int, int]]] = {}
        for n in range(1, up_to + 1):
            for _ in range(2):
                widths = [(m00 * x + m01 * y, m10 * x + m11 * y) for x, y in widths]
            self.w_dims[2 * n + 1] = widths
        self.failure: tuple[int, str] | None = None  # (word length, message)

    def visit(self, word, strips):
        length = len(word)
        w_dims = self.w_dims.get(length)
        if w_dims is None or (self.failure and self.failure[0] <= length):
            return
        (ux, uy), (wx, wy) = self.u_dims[word[-1]], w_dims[word[0]]
        for ulx, uly, uhx, uhy, wlx, wly, whx, why in strips:
            if uhx - ulx != ux or uhy - uly != uy:
                message = f"expanding dimension of window cell for {word} clipped"
            elif whx - wlx != wx or why - wly != wy:
                message = f"contracting dimension of window cell for {word} off-formula"
            else:
                continue
            self.failure = (length, message)
            return

    def _value(self) -> None:
        if self.failure is not None:
            raise InvariantError(self.failure[1])


def verify_generator_decay(part: TorusPartition, depth: int,
                           windows: WindowCheck | None = None) -> list[DecayRow]:
    """Diameters of symmetric refinements W_n = join of phi^-k R, |k| <= n.

    For n <= ``windows.up_to`` the cells are enumerated exactly and their
    dimensions checked against the endpoint formula (expanding dimension
    |mu|^n * u(last symbol), contracting |mu|^n * w(first symbol)); beyond
    that the formula gives the exact maximum over endpoint pairs reachable
    in 2n steps.  The diameter grows with the expanding dimension, so one
    diameter per first symbol, at its widest reachable last symbol, is
    enough.  ``windows`` is a :class:`WindowCheck` of ``part`` that a walk
    has already fed; without it, one walk checks n <= min(depth, 2).

    bound_sq is the squared claimed bound d(R)^2 * |mu|^(2n).  A window cell
    mixes the expanding dimension of its last symbol with the contracting
    dimension of its first, so measured_sq can exceed bound_sq where the
    widest mixed pair beats every single cell (the two-box base partition,
    for some matrices at small n).  On the canonical refinement every mixed
    pair is dominated by an actual cell, so ok holds at every depth; a False
    ok is a finding about the partition, not an arithmetic error.
    """
    succ = step_successors(part)
    if windows is None:
        windows = WindowCheck(part, max(0, min(depth, 2)))
        walk_words(part, [windows])
    windows.result()
    frame, boxes = part.frame, part.boxes
    mu_abs = abs(part.mu_act)
    d_sq = partition_diam_sq(part)
    two_steps = [{k for j in row for k in succ[j]} for row in succ]
    reach = [{i} for i in range(part.n)]  # endpoints reachable in 2n steps
    # at a fixed w_dim the diameter grows with u_dim, so per first symbol
    # only the widest reachable last symbol can give the maximum
    widest = sorted(range(part.n), key=lambda j: boxes[j].u_dim, reverse=True)
    # diam_sq(u*m, w*m) = m^2 * diam_sq(u, w): one diameter per endpoint pair
    pair_sq: dict[tuple[int, int], QuadReal] = {}
    mu_n = QuadReal(1)
    rows = []
    for n in range(0, depth + 1):
        if n:
            reach = [set().union(*(two_steps[k] for k in row)) for row in reach]
            mu_n = mu_n * mu_abs
        cands = []
        for i, ends in enumerate(reach):
            j = next((j for j in widest if j in ends), None)
            if j is None:
                continue
            cand = pair_sq.get((i, j))
            if cand is None:
                cand = pair_sq[i, j] = parallelogram_diam_sq(
                    frame, boxes[j].u_dim, boxes[i].w_dim)
            cands.append(cand)
        if not cands:
            raise InvariantError("no endpoint pair is reachable")
        mu_sq = mu_n * mu_n
        rows.append(DecayRow(n, d_sq * mu_sq, mu_sq * max(cands),
                             0 < n <= windows.up_to))
    return rows
