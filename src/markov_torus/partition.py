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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
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
        return box.scaled(self.lam_act.inverse(), self.mu_act.inverse())

    def relabel(self, labels: Iterable[str]) -> "TorusPartition":
        return TorusPartition.build(self.frame, self.acting, self.boxes, labels)


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


def translate_overlaps(frame: EigenFrame, target: EigenRect, moving: EigenRect
                       ) -> list[tuple[tuple[int, int], EigenRect]]:
    """Lattice translates q with target meeting (moving + q) in an open set,
    together with the (nonempty) open intersections."""
    out = []
    for q, (du, dw) in lattice_in_frame_box(
        frame,
        target.u_lo - moving.u_hi,
        target.u_hi - moving.u_lo,
        target.w_lo - moving.w_hi,
        target.w_hi - moving.w_lo,
    ):
        inter = target.intersect(moving.translate(du, dw))
        if inter is not None:
            out.append((q, inter))
    return out


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


def locate(part: TorusPartition, point) -> CellHit | BoundaryHit:
    """Exact cell membership for a plane point (rational or field-valued)."""
    pu, pw = part.frame.to_frame(point)
    interior: list[CellHit] = []
    boundary: list[CellHit] = []
    for i, box in enumerate(part.boxes):
        for q, (qu, qw) in lattice_in_frame_box(
            part.frame, box.u_lo - pu, box.u_hi - pu, box.w_lo - pw, box.w_hi - pw
        ):
            if box.contains_frame(pu + qu, pw + qw):
                interior.append(CellHit(i, q))
            elif box.contains_frame(pu + qu, pw + qw, closed=True):
                boundary.append(CellHit(i, q))
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
    img = part.phi_box(part.boxes[source])
    comps = translate_overlaps(part.frame, part.boxes[container], img)
    comps.sort(key=lambda item: (item[1].w_lo, item[1].u_lo))
    for (_, a), (_, b) in itertools.combinations(comps, 2):
        if a.intersect(b) is not None:
            raise InvariantError("image strips overlap inside one cell")
    return comps


def transition_graph(part: TorusPartition) -> TransitionGraph:
    """Geometric transition multiplicities: entry (i, j) counts the components
    of phi(R_i) intersected with R_j on the torus.  Cached on the partition,
    so the constructor and every verifier share one derivation."""
    graph = getattr(part, "_transition_graph", None)
    if graph is None:
        n = part.n
        graph = TransitionGraph(
            [[len(image_components(part, i, j)) for j in range(n)] for i in range(n)]
        )
        object.__setattr__(part, "_transition_graph", graph)
    return graph


def refine(part: TorusPartition) -> list[RefinementCell]:
    """Cells of the common refinement of the partition and its image.

    Each returned cell is a component of phi(R_i) meet R_j with word (i, j) at
    offset -1, anchored in R_j's box.  Cells are grouped by (i, j) in
    lexicographic order and within a group by contracting coordinate, which
    is deterministic.
    """
    cells = []
    for i in range(part.n):
        for j in range(part.n):
            for _, comp in image_components(part, i, j):
                cells.append(RefinementCell(symbols=(i, j), offset=-1, rect=comp))
    return cells


def refinement_cells_depth(part: TorusPartition, depth: int
                           ) -> list[RefinementCell]:
    """Cells of the depth-fold refinement by forward images: components of
    the intersections of phi^(depth-k) R_{s_k} over words s of length
    depth + 1, anchored in the box of the last symbol (offset -depth).

    ``depth == 1`` reproduces :func:`refine` up to ordering.  The word tree
    is walked once, so dead branches are pruned as soon as a partial
    intersection is empty."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    cells: list[RefinementCell] = []

    def walk(word: list[int], pieces: list[EigenRect]):
        if len(word) == depth + 1:
            for piece in pieces:
                cells.append(
                    RefinementCell(symbols=tuple(word), offset=-depth, rect=piece)
                )
            return
        for nxt in range(part.n):
            advanced = advance_strips(part, pieces, word[-1], nxt)
            if advanced:
                walk(word + [nxt], advanced)

    for start in range(part.n):
        walk([start], [part.boxes[start]])
    return cells


def refined_partition(part: TorusPartition) -> TorusPartition:
    """The refinement as a partition in its own right, labels recording words."""
    cells = refine(part)
    boxes = [c.rect for c in cells]
    labels = [
        f"{part.labels[c.symbols[0]]},{part.labels[c.symbols[1]]}@-1" for c in cells
    ]
    return TorusPartition.build(part.frame, part.acting, boxes, labels)


def _step_table(part: TorusPartition, inverse: bool
                ) -> dict[tuple[int, int], tuple[tuple[QuadReal, QuadReal, EigenRect], ...]]:
    """Per cell pair (cur, tgt): the frame-coordinate lattice shifts (du, dw)
    and the components of the stepped box of cur inside the box of tgt.

    Cached on the partition.  For any piece inside box(cur), the lattice
    translates of its stepped image that meet box(tgt) are among the tabulated
    ones, and each overlap equals (stepped piece + shift) intersected with the
    tabulated component; one table lookup therefore replaces the per-step
    lattice scan when tracking cylinders along a word.  Entries keep the
    ascending lattice order of :func:`translate_overlaps`.
    """
    caches = getattr(part, "_step_tables", None)
    if caches is None:
        caches = {}
        object.__setattr__(part, "_step_tables", caches)
    table = caches.get(inverse)
    if table is None:
        step = part.phi_inv_box if inverse else part.phi_box
        table = {}
        for cur in range(part.n):
            stepped = step(part.boxes[cur])
            for tgt in range(part.n):
                entries = tuple(
                    (*part.frame.lattice_frame(*q), comp)
                    for q, comp in translate_overlaps(
                        part.frame, part.boxes[tgt], stepped
                    )
                )
                if entries:
                    table[cur, tgt] = entries
        caches[inverse] = table
    return table


def advance_strips(part: TorusPartition, pieces: Sequence[EigenRect], cur: int,
                   nxt: int) -> list[EigenRect]:
    """One forward step of cylinder tracking: components of phi(piece) meeting
    box(nxt), anchored there.  Pieces must lie inside box(cur)."""
    entries = _step_table(part, False).get((cur, nxt), ())
    out = []
    for piece in pieces:
        img = part.phi_box(piece)
        for du, dw, comp in entries:
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
        for du, dw, comp in entries:
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


# -- verifiers -----------------------------------------------------------------------


def verify_translate_disjoint(part: TorusPartition) -> list[tuple[int, int, tuple[int, int]]]:
    """Overlap witnesses (i, j, q) where cell i meets cell j + q on the torus;
    empty means the cells are pairwise disjoint and each embeds."""
    bad = []
    for i in range(part.n):
        for j in range(i, part.n):
            for q, _ in translate_overlaps(part.frame, part.boxes[i], part.boxes[j]):
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


def verify_nfold_range(part: TorusPartition, min_len: int, max_len: int,
                       graph: TransitionGraph | None = None) -> dict[int, NfoldReport]:
    """Every admissible word with length in [min_len, max_len] has a nonempty
    cylinder, checked in one traversal of the word tree.

    Words run over the geometric transition graph (an edge wherever the image
    of one cell meets another); cylinders are tracked as exact boxes, so the
    check is a proof, not a sample.
    """
    if min_len < 1 or max_len < min_len:
        raise ValueError("need 1 <= min_len <= max_len")
    if graph is None:
        graph = transition_graph(part)
    succ = [
        [j for j in range(part.n) if graph.matrix[i][j] > 0] for i in range(part.n)
    ]
    checked = {n: 0 for n in range(min_len, max_len + 1)}
    failures: dict[int, list[tuple[int, ...]]] = {
        n: [] for n in range(min_len, max_len + 1)
    }

    def dfs(word: list[int], pieces: list[EigenRect]):
        if len(word) >= min_len:
            checked[len(word)] += 1
            if not pieces:
                failures[len(word)].append(tuple(word))
        if len(word) == max_len:
            return
        for nxt in succ[word[-1]]:
            dfs(word + [nxt], advance_strips(part, pieces, word[-1], nxt))

    for start in range(part.n):
        dfs([start], [part.boxes[start]])
    return {
        n: NfoldReport(n, checked[n], tuple(failures[n]))
        for n in range(min_len, max_len + 1)
    }


def verify_nfold(part: TorusPartition, length: int,
                 graph: TransitionGraph | None = None) -> NfoldReport:
    """Single-length form of :func:`verify_nfold_range`."""
    return verify_nfold_range(part, length, length, graph)[length]


def partition_diam_sq(part: TorusPartition) -> QuadReal:
    """Exact squared diameter of the partition (largest cell diameter)."""
    return max(box.diam_sq(part.frame) for box in part.boxes)


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


def verify_generator_decay(part: TorusPartition, depth: int,
                           enumerate_up_to: int = 2) -> list[DecayRow]:
    """Diameters of symmetric refinements W_n = join of phi^-k R, |k| <= n.

    For n <= enumerate_up_to the cells are enumerated exactly and their
    dimensions are asserted to match the endpoint formula (expanding dimension
    |mu|^n * u(last symbol), contracting |mu|^n * w(first symbol)); beyond
    that the formula itself gives the exact maximum over endpoint pairs
    reachable in 2n steps of the transition graph.

    bound_sq is the squared claimed bound d(R)^2 * |mu|^(2n).  A window cell
    mixes the expanding dimension of its last symbol with the contracting
    dimension of its first, so measured_sq can exceed bound_sq on a partition
    whose widest mixed pair beats every single cell (the two-box base
    partition does this for some matrices at small n).  On the canonical
    refinement every mixed pair is dominated by the dimensions of an actual
    cell, so there ok holds at every depth; a False ok is a finding about the
    partition, not an arithmetic error.
    """
    graph = transition_graph(part)
    frame = part.frame
    mu_abs = abs(part.mu_act)
    lam_abs = abs(part.lam_act)
    d_sq = partition_diam_sq(part)
    succ = [
        [j for j in range(part.n) if graph.matrix[i][j] > 0] for i in range(part.n)
    ]
    rows = []
    for n in range(0, depth + 1):
        bound_sq = d_sq * mu_abs ** (2 * n)
        reach = graph.power(2 * n)
        measured = None
        for i in range(part.n):
            for j in range(part.n):
                if reach[i][j] == 0:
                    continue
                cand = parallelogram_diam_sq(
                    frame,
                    part.boxes[j].u_dim * mu_abs ** n,
                    part.boxes[i].w_dim * mu_abs ** n,
                )
                if measured is None or cand > measured:
                    measured = cand
        if measured is None:
            raise InvariantError("no endpoint pair is reachable")
        enumerated = 0 < n <= enumerate_up_to
        if enumerated:
            _check_window_dims(part, succ, n, mu_abs, lam_abs)
        rows.append(DecayRow(n, bound_sq, measured, enumerated))
    return rows


def _check_window_dims(part: TorusPartition, succ, n: int,
                       mu_abs: QuadReal, lam_abs: QuadReal) -> None:
    """Enumerate all words of length 2n+1 and assert each tracked cylinder
    strip has the exact endpoint-formula dimensions."""

    def dfs(word: list[int], pieces: list[EigenRect]):
        if len(word) == 2 * n + 1:
            first, last = word[0], word[-1]
            for piece in pieces:
                # piece = phi^(2n)(cylinder), anchored in box(last)
                if piece.u_dim != part.boxes[last].u_dim:
                    raise InvariantError(
                        f"expanding dimension of window cell for {word} clipped"
                    )
                if piece.w_dim != part.boxes[first].w_dim * mu_abs ** (2 * n):
                    raise InvariantError(
                        f"contracting dimension of window cell for {word} off-formula"
                    )
            return
        for nxt in succ[word[-1]]:
            dfs(word + [nxt], advance_strips(part, pieces, word[-1], nxt))

    for start in range(part.n):
        dfs([start], [part.boxes[start]])
