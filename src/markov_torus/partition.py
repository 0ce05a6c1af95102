"""Partitions of the torus into eigen-aligned open parallelograms.

A cell is an open box in the (expanding, contracting) frame coordinates of a
hyperbolic matrix; its plane image is a parallelogram spanned by the
eigenvectors.  A :class:`TorusPartition` bundles the frame, the acting matrix
(diagonal in frame coordinates), and one plane representative box per cell;
the torus cell is the image of the box under the quotient map.

Everything here is exact.  Lattice-translate searches reduce to enumerating
the integer points of a frame-coordinate box, a parallelogram in the plane.
The scan runs column by column: the lattice point (m, n) is the plane point
itself, so m runs over the integers in the box's x-extent, and for each m the
admissible n form one interval whose ends are exact integer floors.  The cost
is one step per column plus one per lattice point found.

All-pairs overlaps come from :func:`overlap_table`: one scan per moving cell,
over the translates that bring it into the hull of all target cells, each
hit tested against the targets whose contracting interval can meet it.  The
forward and inverse step tables of a partition are such tables, cached on the
partition; the transition graph, the refinement and the cylinder walks all
read the forward one, so a partition's overlaps are scanned once.
Point location scans nothing either: :func:`locate` tests the boxes of a
cover list, also cached on the partition, of every (cell, translate) whose
closed box can meet the unit square.

Verifiers:

* ``verify_translate_disjoint`` -- distinct plane representatives of cells
  never overlap modulo the lattice, so the cells embed in the torus and are
  pairwise disjoint there;
* ``verify_areas`` -- total cell area is exactly 1, so with disjointness the
  closures cover the torus;
* ``verify_boundary_alignment`` -- the map carries the union of contracting
  ("vertical", constant-u) boundary edges into itself, and the inverse map
  does the same for expanding ("horizontal", constant-w) edges: the defining
  boundary condition for a Markov partition, checked by exact 1-D interval
  coverage on each image line modulo the lattice;
* ``verify_nfold`` -- every word admissible for the transition graph has a
  nonempty cylinder cell, by exact box intersection;
* ``verify_generator_decay`` -- symmetric refinements shrink like |mu|^n, by
  exact dimension bookkeeping cross-checked against enumerated cells.

Everything that enumerates words goes through one iterative walker,
:func:`walk_words`: a preorder walk of the word tree with an explicit stack
that steps cylinder strips with :func:`advance_strips` and hands each word
to several :class:`WordVisitor` objects at once, so one walk of a
partition's word tree serves every check that needs it.
``refinement_cells_depth``, ``verify_nfold_range`` and the window check of
``verify_generator_decay`` are visitors over it.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .exact import QuadReal, floor_surd
from .sft import TransitionGraph
from .torus import EigenFrame, InvariantError, Mat2Z


@dataclass(frozen=True)
class EigenRect:
    """Open box (u_lo, u_hi) x (w_lo, w_hi) in frame coordinates."""

    u_lo: QuadReal
    u_hi: QuadReal
    w_lo: QuadReal
    w_hi: QuadReal

    def __post_init__(self):
        if not (self.u_lo < self.u_hi and self.w_lo < self.w_hi):
            raise InvariantError("degenerate frame box")

    @property
    def u_dim(self) -> QuadReal:
        return self.u_hi - self.u_lo

    @property
    def w_dim(self) -> QuadReal:
        return self.w_hi - self.w_lo

    def translate(self, du: QuadReal, dw: QuadReal) -> "EigenRect":
        return EigenRect(self.u_lo + du, self.u_hi + du, self.w_lo + dw, self.w_hi + dw)

    def scaled(self, ku: QuadReal, kw: QuadReal) -> "EigenRect":
        """Image under the diagonal map (u, w) -> (ku*u, kw*w); negative
        factors flip the interval order."""
        ua, ub = self.u_lo * ku, self.u_hi * ku
        wa, wb = self.w_lo * kw, self.w_hi * kw
        if ua > ub:
            ua, ub = ub, ua
        if wa > wb:
            wa, wb = wb, wa
        return EigenRect(ua, ub, wa, wb)

    def intersect(self, other: "EigenRect") -> "EigenRect | None":
        u_lo = max(self.u_lo, other.u_lo)
        u_hi = min(self.u_hi, other.u_hi)
        w_lo = max(self.w_lo, other.w_lo)
        w_hi = min(self.w_hi, other.w_hi)
        if u_lo < u_hi and w_lo < w_hi:
            return EigenRect(u_lo, u_hi, w_lo, w_hi)
        return None

    def meets_closed(self, other: "EigenRect") -> bool:
        return (
            max(self.u_lo, other.u_lo) <= min(self.u_hi, other.u_hi)
            and max(self.w_lo, other.w_lo) <= min(self.w_hi, other.w_hi)
        )

    def contains_frame(self, u: QuadReal, w: QuadReal, closed: bool = False) -> bool:
        if closed:
            return self.u_lo <= u <= self.u_hi and self.w_lo <= w <= self.w_hi
        return self.u_lo < u < self.u_hi and self.w_lo < w < self.w_hi

    def corners_frame(self):
        return (
            (self.u_lo, self.w_lo),
            (self.u_hi, self.w_lo),
            (self.u_hi, self.w_hi),
            (self.u_lo, self.w_hi),
        )

    def corners_plane(self, frame: EigenFrame):
        return tuple(frame.to_plane(u, w) for u, w in self.corners_frame())

    def area(self, frame: EigenFrame) -> QuadReal:
        return self.u_dim * self.w_dim * abs(frame.det)

    def diam_sq(self, frame: EigenFrame) -> QuadReal:
        """Exact squared diameter of the plane parallelogram image."""
        return parallelogram_diam_sq(frame, self.u_dim, self.w_dim)


def parallelogram_diam_sq(frame: EigenFrame, u_dim: QuadReal, w_dim: QuadReal) -> QuadReal:
    """Squared diameter of a box with the given frame dimensions: the longer
    of the two diagonals a*v_lam +- b*v_mu, decided exactly."""
    vl, vm = frame.eig.v_lam, frame.eig.v_mu
    ax, ay = vl[0] * u_dim, vl[1] * u_dim
    bx, by = vm[0] * w_dim, vm[1] * w_dim
    d1 = (ax + bx) ** 2 + (ay + by) ** 2
    d2 = (ax - bx) ** 2 + (ay - by) ** 2
    return max(d1, d2)


@dataclass(frozen=True)
class TorusPartition:
    """Eigen-aligned box partition together with the acting matrix.

    ``lam_act``/``mu_act`` are the (signed) eigenvalues of ``acting`` on the
    frame directions, so the map is (u, w) -> (lam_act*u, mu_act*w) in frame
    coordinates plus a lattice identification.
    """

    frame: EigenFrame
    acting: Mat2Z
    lam_act: QuadReal
    mu_act: QuadReal
    boxes: tuple[EigenRect, ...]
    labels: tuple[str, ...]

    @classmethod
    def build(cls, frame: EigenFrame, acting: Mat2Z,
              boxes: Iterable[EigenRect], labels: Iterable[str]) -> "TorusPartition":
        boxes = tuple(boxes)
        labels = tuple(labels)
        if len(boxes) != len(labels) or not boxes:
            raise ValueError("need one label per cell and at least one cell")
        vl = frame.eig.v_lam
        img = acting.act(vl)
        lam_act = img[0] / vl[0]
        if img[1] != lam_act * vl[1]:
            raise ValueError("acting matrix does not preserve the expanding line")
        vm = frame.eig.v_mu
        img_m = acting.act(vm)
        mu_act = img_m[0] / vm[0]
        if img_m[1] != mu_act * vm[1]:
            raise ValueError("acting matrix does not preserve the contracting line")
        if (abs(lam_act) - 1).sign() <= 0 or (1 - abs(mu_act)).sign() <= 0:
            raise ValueError("acting matrix is not expanding/contracting on the frame")
        return cls(frame, acting, lam_act, mu_act, boxes, labels)

    @property
    def n(self) -> int:
        return len(self.boxes)

    def phi_box(self, box: EigenRect) -> EigenRect:
        return box.scaled(self.lam_act, self.mu_act)

    def phi_inv_box(self, box: EigenRect) -> EigenRect:
        return box.scaled(*_cached(
            self, "_inverse_act", lambda: (self.lam_act.inverse(), self.mu_act.inverse())
        ))


def _cached(part: TorusPartition, name: str, compute, *args):
    """``compute(*args)``, kept on the partition under ``name`` after the
    first call: the partition is immutable, so what is derived from it is
    too."""
    value = part.__dict__.get(name)
    if value is None:
        value = compute(*args)
        object.__setattr__(part, name, value)
    return value


# -- lattice enumeration -------------------------------------------------------


def lattice_in_frame_box(frame: EigenFrame, u_lo: QuadReal, u_hi: QuadReal,
                         w_lo: QuadReal, w_hi: QuadReal
                         ) -> list[tuple[tuple[int, int], tuple[QuadReal, QuadReal]]]:
    """All lattice points whose frame coordinates lie in the closed box, in
    ascending (m, n) order, each as ``((m, n), (qu, qw))`` with its frame
    coordinates.

    Column by column: m runs over the integers in the box's plane x-extent,
    and each closed constraint bounds n by an affine form (bound - c10*m) / c01
    in m, c being the u- or w-coordinate of the lattice generators.  The forms
    are brought to integers (a + b*sqrt(D)) / q once per scan, so each
    column's n-interval ends are exact integer floors.  Every hit is
    re-checked against the box, and its frame coordinates are returned with
    it so that callers need not recompute them.
    """
    # x = u*vl0 + w*vm0 is monotone in u and in w, so two corners bound it
    vl0, vm0 = frame.eig.v_lam[0], frame.eig.v_mu[0]
    u_left, u_right = (u_lo, u_hi) if vl0.sign() > 0 else (u_hi, u_lo)
    w_left, w_right = (w_lo, w_hi) if vm0.sign() > 0 else (w_hi, w_lo)
    x_min = u_left * vl0 + w_left * vm0
    x_max = u_right * vl0 + w_right * vm0
    lows, highs = [], []
    for c10, c01, lo, hi in ((frame.u10, frame.u01, u_lo, u_hi),
                             (frame.w10, frame.w01, w_lo, w_hi)):
        inv = c01.inverse()
        slope = -c10 * inv
        lo_form, hi_form = _column_form(lo * inv, slope), _column_form(hi * inv, slope)
        if c01.sign() < 0:
            lo_form, hi_form = hi_form, lo_form
        lows.append(lo_form)
        highs.append(hi_form)
    d = frame.eig.disc
    hits = []
    for m in range(-((-x_min).floor()), x_max.floor() + 1):
        n_lo = max(-floor_surd(-a0 - a1 * m, -b0 - b1 * m, q, d)
                   for a0, a1, b0, b1, q in lows)
        n_hi = min(floor_surd(a0 + a1 * m, b0 + b1 * m, q, d)
                   for a0, a1, b0, b1, q in highs)
        for n in range(n_lo, n_hi + 1):
            qu, qw = frame.lattice_frame(m, n)
            if not (u_lo <= qu <= u_hi and w_lo <= qw <= w_hi):
                raise InvariantError(f"column scan hit {(m, n)} lies outside the box")
            hits.append(((m, n), (qu, qw)))
    return hits


def _column_form(const: QuadReal, slope: QuadReal) -> tuple[int, int, int, int, int]:
    """Integers (a0, a1, b0, b1, q), q > 0, with const + slope*m equal to
    ((a0 + a1*m) + (b0 + b1*m)*sqrt(D)) / q for every integer m."""
    q = math.lcm(const.q, slope.q)
    kc, ks = q // const.q, q // slope.q
    return (const.a * kc, slope.a * ks, const.b * kc, slope.b * ks, q)


Overlap = tuple[tuple[int, int], tuple[QuadReal, QuadReal], EigenRect]


def overlap_table(frame: EigenFrame, targets: Sequence[EigenRect],
                  movers: Sequence[EigenRect]) -> dict[tuple[int, int], list[Overlap]]:
    """Per pair (i, j) whose boxes overlap modulo the lattice, the
    :func:`translate_overlaps` entries of target j and mover i, in the same
    ascending lattice order; pairs without overlap are absent.

    One lattice scan per mover, over the translates that bring it into the
    frame-coordinate hull of all targets.  Each hit is tested only against
    the targets whose w-interval can meet the moved box: with the targets
    sorted by ``w_lo``, those with ``moved.w_lo - tallest < w_lo < moved.w_hi``,
    ``tallest`` being the largest target ``w_dim``.  The exact intersection
    decides.
    """
    order = sorted(range(len(targets)), key=lambda j: targets[j].w_lo)
    lows = [targets[j].w_lo for j in order]
    tallest = max(box.w_dim for box in targets)
    u_lo = min(box.u_lo for box in targets)
    u_hi = max(box.u_hi for box in targets)
    w_lo, w_hi = lows[0], max(box.w_hi for box in targets)
    table: dict[tuple[int, int], list[Overlap]] = {}
    for i, mover in enumerate(movers):
        for q, shift in lattice_in_frame_box(
            frame, u_lo - mover.u_hi, u_hi - mover.u_lo,
            w_lo - mover.w_hi, w_hi - mover.w_lo,
        ):
            moved = mover.translate(*shift)
            first = bisect.bisect_right(lows, moved.w_lo - tallest)
            for j in order[first:bisect.bisect_left(lows, moved.w_hi)]:
                inter = targets[j].intersect(moved)
                if inter is not None:
                    table.setdefault((i, j), []).append((q, shift, inter))
    return table


def translate_overlaps(frame: EigenFrame, target: EigenRect, moving: EigenRect
                       ) -> list[Overlap]:
    """Lattice translates q with target meeting (moving + q) in an open set,
    each as ``(q, (du, dw), overlap)`` with the frame coordinates of q and
    the (nonempty) open intersection: the one-pair :func:`overlap_table`."""
    return overlap_table(frame, [target], [moving]).get((0, 0), [])


def closed_translate_meets(frame: EigenFrame, a: EigenRect, b: EigenRect
                           ) -> list[tuple[int, int]]:
    """Lattice translates q where the closures of a and b + q intersect."""
    out = []
    for q, (du, dw) in lattice_in_frame_box(
        frame,
        a.u_lo - b.u_hi,
        a.u_hi - b.u_lo,
        a.w_lo - b.w_hi,
        a.w_hi - b.w_lo,
    ):
        if a.meets_closed(b.translate(du, dw)):
            out.append(q)
    return out


# -- membership ------------------------------------------------------------------


@dataclass(frozen=True)
class CellHit:
    """Point lies in cell ``index``; its plane representative in the stored
    box is point + translate."""

    index: int
    translate: tuple[int, int]


@dataclass(frozen=True)
class BoundaryHit:
    """Point lies on the boundary; candidates are the closures containing it."""

    candidates: tuple[CellHit, ...]


def _cover_list(part: TorusPartition
                ) -> list[tuple[int, tuple[int, int], EigenRect]]:
    """Every (cell, translate q, box - q) whose closed box, moved back by q,
    can meet the closed unit square: the only places a point of [0, 1)^2
    can lie, in ascending cell and then lattice order.  Cached on the
    partition.

    One lattice scan per cell over the translates that bring the square's
    frame hull into the box's, kept when the box and the moved square also
    meet along the plane axes, x and y.  Those four directions are the edge
    normals of the two parallelograms, so the test is exact."""

    def build():
        frame = part.frame
        corners = [frame.lattice_frame(m, n) for m in (0, 1) for n in (0, 1)]
        su_lo, su_hi = min(u for u, _ in corners), max(u for u, _ in corners)
        sw_lo, sw_hi = min(w for _, w in corners), max(w for _, w in corners)
        cover = []
        for i, box in enumerate(part.boxes):
            xs, ys = zip(*box.corners_plane(frame))
            x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
            for (m, n), (qu, qw) in lattice_in_frame_box(
                frame, box.u_lo - su_hi, box.u_hi - su_lo,
                box.w_lo - sw_hi, box.w_hi - sw_lo,
            ):
                if x_lo <= m + 1 and m <= x_hi and y_lo <= n + 1 and n <= y_hi:
                    cover.append((i, (m, n), box.translate(-qu, -qw)))
        return cover

    return _cached(part, "_cover", build)


def _floor(value) -> int:
    return value.floor() if isinstance(value, QuadReal) else math.floor(value)


def locate(part: TorusPartition, point) -> CellHit | BoundaryHit:
    """Exact cell membership for a plane point (rational or field-valued).

    No lattice scan: the point is reduced into [0, 1)^2 and tested against
    the boxes of the partition's cover list, whose translates are then
    shifted back by the floor, so they apply to the point as given."""
    fx, fy = _floor(point[0]), _floor(point[1])
    pu, pw = part.frame.to_frame((point[0] - fx, point[1] - fy))
    interior: list[CellHit] = []
    boundary: list[CellHit] = []
    for i, (m, n), moved in _cover_list(part):
        if moved.contains_frame(pu, pw, closed=True):
            hit = CellHit(i, (m - fx, n - fy))
            (interior if moved.contains_frame(pu, pw) else boundary).append(hit)
    if len(interior) > 1 or (interior and boundary):
        raise InvariantError(f"cells overlap at {point}: {interior} {boundary}")
    if interior:
        return interior[0]
    if boundary:
        return BoundaryHit(tuple(sorted(boundary, key=lambda h: (h.index, h.translate))))
    raise InvariantError(f"point {point} escaped the partition")


# -- refinement --------------------------------------------------------------------


@dataclass(frozen=True)
class RefinementCell:
    """Connected component of an intersection of map-iterates of cells.

    ``symbols[k]`` is the cell index for iterate ``offset + k``: the cell is a
    component of the intersection over k of phi^-(offset+k) R_{symbols[k]},
    and ``rect`` is its plane representative anchored in the box of the symbol
    at iterate 0.
    """

    symbols: tuple[int, ...]
    offset: int
    rect: EigenRect


def image_components(part: TorusPartition, source: int, container: int
                     ) -> list[tuple[tuple[int, int], EigenRect]]:
    """Components of phi(R_source) meeting R_container, with their translates,
    anchored in the container's stored box and ordered by contracting coordinate."""
    comps = [(q, comp) for q, _, comp
             in _step_table(part, False).get((source, container), ())]
    comps.sort(key=lambda item: (item[1].w_lo, item[1].u_lo))
    for (_, a), (_, b) in itertools.combinations(comps, 2):
        if a.intersect(b) is not None:
            raise InvariantError("image strips overlap inside one cell")
    return comps


def transition_graph(part: TorusPartition) -> TransitionGraph:
    """Geometric transition multiplicities: entry (i, j) counts the components
    of phi(R_i) intersected with R_j on the torus.  Cached on the partition,
    so the constructor and every verifier share one derivation."""
    n = part.n
    return _cached(part, "_transition_graph", lambda: TransitionGraph(
        [[len(image_components(part, i, j)) for j in range(n)] for i in range(n)]
    ))


def refine(part: TorusPartition) -> list[RefinementCell]:
    """Cells of the common refinement of the partition and its image.

    Each returned cell is a component of phi(R_i) meet R_j with word (i, j) at
    offset -1, anchored in R_j's box.  Cells are grouped by (i, j) in
    lexicographic order and within a group by contracting coordinate, which
    is deterministic.  Cached on the partition; each call gets a new list.
    """

    def build():
        cells = []
        for i in range(part.n):
            for j in range(part.n):
                for _, comp in image_components(part, i, j):
                    cells.append(RefinementCell(symbols=(i, j), offset=-1, rect=comp))
        return tuple(cells)

    return list(_cached(part, "_refinement", build))


def refinement_cells_depth(part: TorusPartition, depth: int
                           ) -> list[RefinementCell]:
    """Cells of the depth-fold refinement by forward images: components of
    the intersections of phi^(depth-k) R_{s_k} over words s of length
    depth + 1, anchored in the box of the last symbol (offset -depth).

    ``depth == 1`` reproduces :func:`refine` up to ordering.  Cells come in
    the order :func:`walk_words` reaches them: by word, lexicographically."""
    cells = _DepthCells(depth)
    walk_words(part, [cells])
    return cells.result()


def refined_partition(part: TorusPartition) -> TorusPartition:
    """The refinement as a partition in its own right, in :func:`refine`
    order.  A cell's label is its word ``i,j@-1`` in the labels of ``part``,
    plus ``#k`` for the k-th of several components of one word."""
    cells = refine(part)
    labels = []
    for (i, j), group in itertools.groupby(cells, key=lambda cell: cell.symbols):
        word = f"{part.labels[i]},{part.labels[j]}@-1"
        count = len(list(group))
        labels += [word] if count == 1 else [f"{word}#{k}" for k in range(count)]
    return TorusPartition.build(part.frame, part.acting,
                                (cell.rect for cell in cells), labels)


def _step_table(part: TorusPartition, inverse: bool
                ) -> dict[tuple[int, int], list[Overlap]]:
    """Per cell pair (cur, tgt) where the stepped box of cur meets the box of
    tgt modulo the lattice: the :func:`translate_overlaps` entries
    ``(q, (du, dw), comp)`` of the one pair, all from one :func:`overlap_table`.

    Cached on the partition.  For any piece inside box(cur), the lattice
    translates of its stepped image that meet box(tgt) are among the tabulated
    ones, and each overlap equals (stepped piece + shift) intersected with the
    tabulated component; one table lookup therefore replaces the per-step
    lattice scan when tracking cylinders along a word.  The forward table is
    also where :func:`image_components` reads the transitions, so the graph
    the constructor derives and the walks of the verifiers share one table.
    """
    return _cached(part, _STEP_TABLES[inverse], _build_step_table, part, inverse)


_STEP_TABLES = {False: "_forward_table", True: "_inverse_table"}


def _build_step_table(part: TorusPartition, inverse: bool
                      ) -> dict[tuple[int, int], list[Overlap]]:
    step = part.phi_inv_box if inverse else part.phi_box
    return overlap_table(part.frame, part.boxes, [step(b) for b in part.boxes])


def advance_strips(part: TorusPartition, pieces: Sequence[EigenRect], cur: int,
                   nxt: int) -> list[EigenRect]:
    """One forward step of cylinder tracking: components of phi(piece) meeting
    box(nxt), anchored there.  Pieces must lie inside box(cur)."""
    entries = _step_table(part, False).get((cur, nxt), ())
    out = []
    for piece in pieces:
        img = part.phi_box(piece)
        for _, (du, dw), comp in entries:
            hit = comp.intersect(img.translate(du, dw))
            if hit is not None:
                out.append(hit)
    return out


def pullback_strips(part: TorusPartition, pieces: Sequence[EigenRect], cur: int,
                    prv: int) -> list[EigenRect]:
    """One backward step: components of phi^-1(piece) meeting box(prv),
    anchored there.  Pieces must lie inside box(cur)."""
    entries = _step_table(part, True).get((cur, prv), ())
    out = []
    for piece in pieces:
        img = part.phi_inv_box(piece)
        for _, (du, dw), comp in entries:
            hit = comp.intersect(img.translate(du, dw))
            if hit is not None:
                out.append(hit)
    return out


def cylinder_components(part: TorusPartition, word: Sequence[int]) -> list[EigenRect]:
    """All components of the cylinder set for ``word`` at offset 0, i.e. of
    the intersection over k of phi^-k R_{word[k]}, anchored in box(word[0])."""
    if not word:
        raise ValueError("empty word")
    cur = word[-1]
    pieces = [part.boxes[cur]]
    for sym in reversed(word[:-1]):
        pieces = pullback_strips(part, pieces, cur, sym)
        cur = sym
    return pieces


# -- the word tree -------------------------------------------------------------------


class WordVisitor:
    """One consumer of a :func:`walk_words` traversal.

    ``max_len`` is the longest word it wants.  ``start(part, succ)`` runs
    once before the walk, ``visit(word, pieces)`` once per word of length at
    most ``max_len``, in walk order; ``word`` is the walker's buffer, valid
    only during the call.  ``result()`` returns what the visitor found, or
    re-raises the exception that stopped it.
    """

    max_len = 0
    error: Exception | None = None

    def start(self, part: TorusPartition, succ: list[list[int]]) -> None:
        pass

    def visit(self, word: list[int], pieces: list[EigenRect]) -> None:
        raise NotImplementedError

    def result(self):
        if self.error is not None:
            raise self.error
        return self._value()

    def _value(self):
        return None


def _support(graph: TransitionGraph) -> list[list[int]]:
    """Per node, its successors in ascending order."""
    return [[j for j, mult in enumerate(row) if mult] for row in graph.matrix]


def _step_successors(part: TorusPartition) -> list[list[int]]:
    """Per cell, the cells its image meets, ascending: the support of
    :func:`transition_graph`, read off the step table (both list the cell
    pairs whose image and box overlap modulo the lattice)."""
    table = _step_table(part, False)
    return [[j for j in range(part.n) if (i, j) in table] for i in range(part.n)]


def count_words(part: TorusPartition, max_len: int) -> int:
    """Exact number of words :func:`walk_words` visits on its default
    successors when its deepest visitor wants ``max_len``: the paths of
    at most ``max_len`` symbols in the transition graph's support, counted
    by integer vector steps without walking them."""
    if max_len < 1:
        return 0
    succ = _step_successors(part)
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


def walk_words(part: TorusPartition, visitors: Sequence[WordVisitor],
               succ: Sequence[Sequence[int]] | None = None) -> None:
    """Feed every visitor the admissible words of the partition's word tree.

    One preorder depth-first walk, with an explicit stack, over the words
    s_0 ... s_k whose steps follow ``succ`` (default: the support of the
    transition graph), as deep as the deepest visitor still running.
    Each word reaches every visitor that wants its length together with its
    pieces: the components of phi^k of its cylinder, anchored in box(s_k),
    one :func:`advance_strips` step from its parent's.  Children come in
    ``succ`` order, ascending by default, so the words of each length
    arrive in lexicographic order; an empty cylinder's descendants are
    visited with no pieces and cost no step.

    An exception raised by a visitor is kept on its ``error`` and stops that
    visitor alone; one raised by the walk itself is kept on every visitor
    still running.
    """
    live = list(visitors)
    try:
        if succ is None:
            succ = _step_successors(part)
        succ = [list(row) for row in succ]
        for v in live:
            try:
                v.start(part, succ)
            except Exception as exc:
                v.error = exc
        live = [v for v in live if v.error is None]
        step = advance_strips
        boxes = part.boxes
        word: list[int] = []
        stack = [(0, sym, None) for sym in reversed(range(part.n))]
        while live and stack:
            depth, sym, parent = stack.pop()
            limit = max(v.max_len for v in live)
            if depth >= limit:
                continue
            del word[depth:]
            if parent is None:
                pieces = [boxes[sym]]
            else:
                pieces = step(part, parent, word[-1], sym) if parent else []
            word.append(sym)
            for v in live:
                if depth < v.max_len:
                    try:
                        v.visit(word, pieces)
                    except Exception as exc:
                        v.error = exc
            live = [v for v in live if v.error is None]
            if depth + 1 < limit:
                stack.extend((depth + 1, nxt, pieces) for nxt in reversed(succ[sym]))
    except Exception as exc:
        for v in live:
            v.error = exc


class _DepthCells(WordVisitor):
    """The cells of :func:`refinement_cells_depth`, in walk order."""

    def __init__(self, depth: int):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.depth = depth
        self.max_len = depth + 1
        self.cells: list[RefinementCell] = []

    def visit(self, word, pieces):
        if len(word) == self.max_len:
            symbols = tuple(word)
            self.cells.extend(RefinementCell(symbols, -self.depth, piece)
                              for piece in pieces)

    def _value(self) -> list[RefinementCell]:
        return self.cells


class CellAreaSum(WordVisitor):
    """Number and exact total area of the cells of the depth-fold refinement
    (those of :func:`refinement_cells_depth`), summed as the walk reaches
    them; ``result()`` is ``(cells, area)``."""

    def __init__(self, part: TorusPartition, depth: int):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.frame = part.frame
        self.max_len = depth + 1
        self.cells = 0
        self.area = QuadReal(0)

    def visit(self, word, pieces):
        if len(word) == self.max_len:
            for piece in pieces:
                self.cells += 1
                self.area = self.area + piece.area(self.frame)

    def _value(self) -> tuple[int, QuadReal]:
        return self.cells, self.area


# -- verifiers -----------------------------------------------------------------------


def verify_translate_disjoint(part: TorusPartition) -> list[tuple[int, int, tuple[int, int]]]:
    """Overlap witnesses (i, j, q) where cell i meets cell j + q on the torus;
    empty means the cells are pairwise disjoint and each embeds."""
    table = overlap_table(part.frame, part.boxes, part.boxes)
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


def _cover_gap(lo: QuadReal, hi: QuadReal, pieces: list[tuple[QuadReal, QuadReal]]
               ) -> QuadReal | None:
    """First uncovered point of [lo, hi] under the closed pieces, or None."""
    cur = lo
    for p_lo, p_hi in sorted(pieces, key=lambda p: (p[0], p[1])):
        if p_lo > cur:
            return cur
        cur = max(cur, p_hi)
        if cur >= hi:
            return None
    return cur if cur < hi else None


def verify_boundary_alignment(part: TorusPartition) -> list[AlignmentWitness]:
    """The Markov boundary condition, exactly.

    Constant-u edges of cells form the contracting boundary; the map takes a
    constant-u line to a constant-u line, and the image segment must be
    covered by boundary segments on that line (modulo lattice).  Dually, the
    inverse map must send constant-w edges into the expanding boundary.
    Returns witnesses for every uncovered image segment.
    """
    frame = part.frame
    lam, mu = part.lam_act, part.mu_act
    v_edges = []
    h_edges = []
    for box in part.boxes:
        v_edges += [(box.u_lo, box.w_lo, box.w_hi), (box.u_hi, box.w_lo, box.w_hi)]
        h_edges += [(box.w_lo, box.u_lo, box.u_hi), (box.w_hi, box.u_lo, box.u_hi)]
    witnesses = []
    for cell, (u, w_lo, w_hi) in zip(
        (i for i in range(part.n) for _ in (0, 1)), v_edges
    ):
        u_img = lam * u
        a, b = sorted((w_lo * mu, w_hi * mu))
        pieces = []
        for u2, w2_lo, w2_hi in v_edges:
            q = frame.lattice_shift(du=u_img - u2)
            if q is not None:
                wq = frame.lattice_frame(*q)[1]
                pieces.append((w2_lo + wq, w2_hi + wq))
        gap = _cover_gap(a, b, pieces)
        if gap is not None:
            witnesses.append(AlignmentWitness("contracting-edge", cell, u, gap))
    for cell, (w, u_lo, u_hi) in zip(
        (i for i in range(part.n) for _ in (0, 1)), h_edges
    ):
        w_img = w / mu
        a, b = sorted((u_lo / lam, u_hi / lam))
        pieces = []
        for w2, u2_lo, u2_hi in h_edges:
            q = frame.lattice_shift(dw=w_img - w2)
            if q is not None:
                uq = frame.lattice_frame(*q)[0]
                pieces.append((u2_lo + uq, u2_hi + uq))
        gap = _cover_gap(a, b, pieces)
        if gap is not None:
            witnesses.append(AlignmentWitness("expanding-edge", cell, w, gap))
    return witnesses


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
    :class:`NfoldReport` per length.  The walk must follow ``graph``
    (default: the partition's transition graph)."""

    def __init__(self, min_len: int, max_len: int,
                 graph: TransitionGraph | None = None):
        if min_len < 1 or max_len < min_len:
            raise ValueError("need 1 <= min_len <= max_len")
        self.min_len = min_len
        self.max_len = max_len
        self.graph = graph
        self.checked = {n: 0 for n in range(min_len, max_len + 1)}
        self.failures: dict[int, list[tuple[int, ...]]] = {
            n: [] for n in range(min_len, max_len + 1)
        }

    def start(self, part, succ):
        graph = self.graph if self.graph is not None else transition_graph(part)
        if _support(graph) != succ:
            raise InvariantError("the walk does not follow the transition graph")

    def visit(self, word, pieces):
        n = len(word)
        if n >= self.min_len:
            self.checked[n] += 1
            if not pieces:
                self.failures[n].append(tuple(word))

    def _value(self) -> dict[int, NfoldReport]:
        return {n: NfoldReport(n, self.checked[n], tuple(self.failures[n]))
                for n in self.checked}


def verify_nfold_range(part: TorusPartition, min_len: int, max_len: int,
                       graph: TransitionGraph | None = None) -> dict[int, NfoldReport]:
    """Every admissible word with length in [min_len, max_len] has a nonempty
    cylinder, checked in one traversal of the word tree.

    Words run over the geometric transition graph (an edge wherever the image
    of one cell meets another); cylinders are tracked as exact boxes, so the
    check is a proof, not a sample.
    """
    counter = NfoldCount(min_len, max_len, graph)
    walk_words(part, [counter], None if graph is None else _support(graph))
    return counter.result()


def verify_nfold(part: TorusPartition, length: int,
                 graph: TransitionGraph | None = None) -> NfoldReport:
    """Single-length form of :func:`verify_nfold_range`."""
    return verify_nfold_range(part, length, length, graph)[length]


def partition_diam_sq(part: TorusPartition) -> QuadReal:
    """Exact squared diameter of the partition (largest cell diameter),
    cached on the partition."""
    return _cached(part, "_diam_sq",
                   lambda: max(box.diam_sq(part.frame) for box in part.boxes))


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
        self.u_dims = [box.u_dim for box in part.boxes]
        mu_sq = part.mu_act * part.mu_act
        scale = QuadReal(1)
        self.w_dims: dict[int, list[QuadReal]] = {}  # word length -> per first symbol
        for n in range(1, up_to + 1):
            scale = scale * mu_sq
            self.w_dims[2 * n + 1] = [box.w_dim * scale for box in part.boxes]
        self.failure: tuple[int, str] | None = None  # (word length, message)

    def visit(self, word, pieces):
        length = len(word)
        w_dims = self.w_dims.get(length)
        if w_dims is None or (self.failure and self.failure[0] <= length):
            return
        u_dim, w_dim = self.u_dims[word[-1]], w_dims[word[0]]
        for piece in pieces:
            if piece.u_dim != u_dim:
                message = f"expanding dimension of window cell for {word} clipped"
            elif piece.w_dim != w_dim:
                message = f"contracting dimension of window cell for {word} off-formula"
            else:
                continue
            self.failure = (length, message)
            return

    def _value(self) -> None:
        if self.failure is not None:
            raise InvariantError(self.failure[1])


def verify_generator_decay(part: TorusPartition, depth: int,
                           enumerate_up_to: int = 2,
                           windows: WindowCheck | None = None) -> list[DecayRow]:
    """Diameters of symmetric refinements W_n = join of phi^-k R, |k| <= n.

    For n <= enumerate_up_to the cells are enumerated exactly and their
    dimensions are asserted to match the endpoint formula (expanding dimension
    |mu|^n * u(last symbol), contracting |mu|^n * w(first symbol)); beyond
    that the formula itself gives the exact maximum over endpoint pairs
    reachable in 2n steps of the transition graph.  All enumerated n are
    checked in one walk of the words of length 2*enumerate_up_to + 1;
    ``windows`` passes a :class:`WindowCheck` that a shared walk of ``part``
    has already fed, in place of that walk.

    bound_sq is the squared claimed bound d(R)^2 * |mu|^(2n).  A window cell
    mixes the expanding dimension of its last symbol with the contracting
    dimension of its first, so measured_sq can exceed bound_sq on a partition
    whose widest mixed pair beats every single cell (the two-box base
    partition does this for some matrices at small n).  On the canonical
    refinement every mixed pair is dominated by the dimensions of an actual
    cell, so there ok holds at every depth; a False ok is a finding about the
    partition, not an arithmetic error.
    """
    succ = _support(transition_graph(part))
    up_to = max(0, min(depth, enumerate_up_to))
    if windows is None:
        windows = WindowCheck(part, up_to)
        walk_words(part, [windows], succ)
    elif windows.up_to != up_to:
        raise ValueError(f"the window check covers n <= {windows.up_to}, "
                         f"not n <= {up_to}")
    windows.result()
    frame = part.frame
    mu_abs = abs(part.mu_act)
    d_sq = partition_diam_sq(part)
    two_steps = [{k for j in row for k in succ[j]} for row in succ]
    reach = [{i} for i in range(part.n)]  # endpoints reachable in 2n steps
    mu_n = QuadReal(1)
    rows = []
    for n in range(0, depth + 1):
        if n:
            reach = [set().union(*(two_steps[k] for k in row)) for row in reach]
            mu_n = mu_n * mu_abs
        u_dims = [box.u_dim * mu_n for box in part.boxes]
        w_dims = [box.w_dim * mu_n for box in part.boxes]
        cands = [parallelogram_diam_sq(frame, u_dims[j], w_dims[i])
                 for i in range(part.n) for j in reach[i]]
        if not cands:
            raise InvariantError("no endpoint pair is reachable")
        rows.append(DecayRow(n, d_sq * (mu_n * mu_n), max(cands),
                             0 < n <= enumerate_up_to))
    return rows
