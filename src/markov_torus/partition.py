"""Partitions of the torus into eigen-aligned open parallelograms.

A cell is an open box in the (expanding, contracting) frame coordinates of a
hyperbolic matrix; its plane image is a parallelogram spanned by the
eigenvectors.  A :class:`TorusPartition` bundles the frame, the acting matrix
(diagonal in frame coordinates), and one plane representative box per cell;
the torus cell is the image of the box under the quotient map.

Everything here is exact, and the hot paths run on integers in one
per-partition :class:`StripBasis`: pairs (X, Y) = (X + Y*lam) / Q over the
module (1/Q)*Z[lam], Q taking in every box bound and the lattice
generators' frame coordinates, where multiplying by lam, mu or their
inverses is a fixed integer matrix and a comparison is the sign of one
pair.  A lattice scan runs column by column over the box's plane x-extent,
c*(u + w), each column's n-interval having exact integer floors for ends.
All-pairs overlaps (:func:`_int_overlaps`) take one scan per moving cell and
decode entries into boxes only where a caller reads one.  The step table,
cached on strips, is the only source of transitions in both directions
(graph, refinement, successor lists, cylinder steps).  A partition's is such
a table for the forward images of its cells, overlap-checked once; but the
refinement's is read off its parent's with no scan, R v phi^-1 R being
Markov when R is, each entry checked nonempty and each cell's areas summed.

A cylinder piece is a strip of eight integers, stepped over entry lists
read off the step table once per direction by one kernel,
:func:`_apply_rows`: a single step (:func:`advance_strips`,
:func:`pullback_strips`) applies the rows of one cell pair, and a walk's
node step (:func:`advance_node`) the forward rows of every successor at
once, grouped per cell.  Pieces and entry boxes lie in the cell being
stepped, so on an axis where either spans the cell's whole side the clip
is the other's side: on a Markov partition no step compares a bound, and
only a partition that breaks it (a dented cell) reaches the sign tests.
A point is a :class:`ModPoint`, its coordinates over one denominator k;
the acting matrix moves its numerators, and its frame pairs over Q*k are
a fixed integer map of them.  :func:`locate` moves those pairs by the
entries of a cover, cached on the partition, of every (cell, translate)
whose closed box can meet the unit square, found by one bisection over
their w lows (:func:`_first_above`, the overlap scan's and the overlap
sweep's too), and tests them against the cell's strip.

Verifiers:

* ``verify_translate_disjoint`` -- distinct plane representatives of cells
  never overlap modulo the lattice, so the cells embed in the torus and are
  pairwise disjoint there;
* ``verify_areas`` -- total cell area is exactly 1, so with disjointness the
  closures cover the torus;
* ``verify_boundary_alignment`` -- the map carries the union of contracting
  ("vertical", constant-u) boundary edges into itself, and the inverse map
  does the same for expanding ("horizontal", constant-w) edges, checked by
  exact 1-D interval coverage on each image line, joined by the class of
  the line modulo the lattice, by one integer solve (:func:`_lattice_class`);
* ``verify_nfold_range`` -- every word admissible for the transition graph,
  with length in a range, has a nonempty cylinder, by exact strip stepping;
* ``verify_generator_decay`` -- symmetric refinements shrink like |mu|^n, by
  exact dimension bookkeeping cross-checked against enumerated cells.

Everything that enumerates words goes through one iterative walker,
:func:`walk_words`, which steps each word's strips to all of its children at
once with :func:`advance_node` and hands each word, with its strips, to
several :class:`WordVisitor` objects at once: ``refinement_cells_depth``,
``verify_nfold_range`` and the window check of ``verify_generator_decay``.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .exact import QuadReal, _reduced, _sign, floor_surd
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
    of the two diagonals a +- b, a = u_dim*v_lam and b = w_dim*v_mu, whose
    square is |a|^2 + |b|^2 + 2*|a.b|, decided exactly."""
    vl, vm = frame.eig.v_lam, frame.eig.v_mu
    ax, ay = vl[0] * u_dim, vl[1] * u_dim
    bx, by = vm[0] * w_dim, vm[1] * w_dim
    return ax * ax + ay * ay + bx * bx + by * by + 2 * abs(ax * bx + ay * by)


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


def _cached(part, name: str, compute, *args):
    """``compute(*args)``, kept on the partition (or frame) under ``name``
    after the first call: the object is immutable, so what is derived from
    it is too."""
    value = part.__dict__.get(name)
    if value is None:
        value = compute(*args)
        object.__setattr__(part, name, value)
    return value


# -- lattice enumeration -------------------------------------------------------


def lattice_in_frame_box(frame: EigenFrame, basis: StripBasis, strip: Strip
                         ) -> list[tuple[tuple[int, int], tuple[QuadReal, QuadReal],
                                         tuple[int, int, int, int]]]:
    """All lattice points whose frame coordinates lie in the closed box of a
    strip of ``basis``, in ascending (m, n) order, each as
    ``((m, n), (qu, qw), (u0, u1, w0, w1))``: its frame coordinates, also as
    pairs of the basis.  One :meth:`StripBasis.scan`; every lattice scan of
    the package, the overlap tables' included, runs through here."""
    return [(q, frame.lattice_frame(*q), pairs) for q, pairs in basis.scan(strip)]


def _minus(a: Strip, b: Strip) -> Strip:
    """The box of the translates v for which b + v meets the closed box of
    a: a's lower ends minus b's upper ends, and a's upper minus b's lower."""
    return (a[0] - b[2], a[1] - b[3], a[2] - b[0], a[3] - b[1],
            a[4] - b[6], a[5] - b[7], a[6] - b[4], a[7] - b[5])


def _bounds(boxes: Iterable[EigenRect]) -> Iterable[QuadReal]:
    """Every bound of the boxes, for a basis modulus to take in."""
    return (x for box in boxes for x in (box.u_lo, box.u_hi, box.w_lo, box.w_hi))


Overlap = tuple[tuple[int, int], tuple[QuadReal, QuadReal], EigenRect]


def overlap_table(frame: EigenFrame, targets: Sequence[EigenRect],
                  movers: Sequence[EigenRect]) -> dict[tuple[int, int], list[Overlap]]:
    """Per pair (i, j) whose boxes overlap modulo the lattice, the
    :func:`translate_overlaps` entries of target j and mover i, in the same
    ascending lattice order; pairs without overlap are absent.  The entries
    of :func:`_int_overlaps` over a basis of the frame's own eigenvalue that
    takes in every bound, decoded."""
    eig = frame.eig
    basis = StripBasis.build(frame, eig.matrix, eig.lam, eig.mu,
                             _bounds(itertools.chain(targets, movers)))
    return _decoded(basis, _int_overlaps(frame, basis, list(map(basis.strip, targets)),
                                         list(map(basis.strip, movers))))


def _int_overlaps(frame: EigenFrame, basis: StripBasis, targets: Sequence[Strip],
                  movers: Sequence[Strip]) -> dict[tuple[int, int], list]:
    """:func:`overlap_table` on strips of one basis: per overlapping pair
    (i, j), entries ``((m, n), (du0, du1, dw0, dw1), overlap)`` with the
    frame pairs of (m, n) and the intersection as a strip.

    One lattice scan per mover, over the translates that bring it into the
    frame-coordinate hull of all targets.  Each hit is tested, by its open
    intersection, only against the targets sorted by ``w_lo`` with
    ``moved.w_lo - tallest < w_lo < moved.w_hi``, ``tallest`` being the
    largest target ``w_dim``: integer sums and sign tests of pairs.
    """
    q, a, b, d, key = basis.q, basis.a, basis.b, basis.d, basis.order()
    order = sorted(range(len(targets)), key=lambda j: key(targets[j][4:6]))
    lows = [targets[j][4:6] for j in order]
    tx, ty = max(((t[6] - t[4], t[7] - t[5]) for t in targets), key=key)
    hull = (*min((t[:2] for t in targets), key=key), *max((t[2:4] for t in targets), key=key),
            *lows[0], *max((t[6:] for t in targets), key=key))
    table: dict[tuple[int, int], list] = {}
    for i, mover in enumerate(movers):
        mulx, muly, muhx, muhy, mwlx, mwly, mwhx, mwhy = mover
        for hit, _, shift in lattice_in_frame_box(frame, basis, _minus(hull, mover)):
            dux, duy, dwx, dwy = shift
            moved = (mulx + dux, muly + duy, muhx + dux, muhy + duy,
                     mwlx + dwx, mwly + dwy, mwhx + dwx, mwhy + dwy)
            wlx, wly, whx, why = moved[4:]
            for k in range(_first_above(basis, lows, wlx - tx, wly - ty), len(lows)):
                x, y = lows[k][0] - whx, lows[k][1] - why
                if _sign(x * q + y * a, y * b, d) >= 0:  # basis.sign(x, y), inlined
                    break
                comp = _meet(basis, moved, targets[order[k]])
                if comp is not None:
                    table.setdefault((i, order[k]), []).append((hit, shift, comp))
    return table


def _first_above(basis: StripBasis, lows: list[tuple[int, int]], x: int, y: int,
                 k: int = 1) -> int:
    """:func:`bisect.bisect_right` of the pair (x, y) / k in ascending pairs:
    the first index whose pair exceeds it, one sign test per step."""
    q, a, b, d = basis.q, basis.a, basis.b, basis.d
    lo, hi = 0, len(lows)
    while lo < hi:
        mid = (lo + hi) // 2
        dx, dy = k * lows[mid][0] - x, k * lows[mid][1] - y
        if _sign(dx * q + dy * a, dy * b, d) > 0:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _decoded(basis: StripBasis, table: dict[tuple[int, int], list]
             ) -> dict[tuple[int, int], list[Overlap]]:
    """The entries of an integer table as ``(q, (du, dw), overlap)``, every
    value decoded into canonical form."""
    value, rect = basis.value, basis.rect
    return {pair: [(q, (value(*shift[:2]), value(*shift[2:])), rect(comp))
                   for q, shift, comp in entries]
            for pair, entries in table.items()}


def translate_overlaps(frame: EigenFrame, target: EigenRect, moving: EigenRect
                       ) -> list[Overlap]:
    """Lattice translates q with target meeting (moving + q) in an open set,
    each as ``(q, (du, dw), overlap)`` with the frame coordinates of q and
    the (nonempty) open intersection: the one-pair :func:`overlap_table`."""
    return overlap_table(frame, [target], [moving]).get((0, 0), [])


def closed_translate_meets(part: TorusPartition, a: EigenRect, b: EigenRect
                           ) -> list[tuple[int, int]]:
    """Lattice translates q where the closures of a and b + q intersect,
    for boxes in the partition's :class:`StripBasis`: the hits of one scan,
    since closed intervals meet exactly when each starts below the other's
    end."""
    basis = _strip_basis(part)
    return [q for q, _, _ in lattice_in_frame_box(
        part.frame, basis, _minus(basis.strip(a), basis.strip(b)))]


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


def _cover(part: TorusPartition):
    """``(cover, lows, entries, tallest)``, cached on the partition.
    ``cover`` holds per cell every translate q, as ``(q, frame pairs of q)``
    in the partition's :class:`StripBasis`, such that the cell's closed box
    moved back by q can meet the closed unit square, in ascending lattice
    order: where a point of [0, 1)^2 can lie in that cell.  ``entries`` are
    the same translates as ``(position, cell, q, pairs)``, ``position``
    counting through ``cover`` cell by cell, sorted by the w low of the
    cell's box moved back by q (``lows``, pairs); ``tallest`` is the largest
    box height.  A point with w coordinate w can lie only in the entries
    whose low is at most w and at least w - tallest.

    One lattice scan per cell over the translates that bring the square's
    frame hull into the box's, kept when the two also meet along the plane
    axes: with u and w, the edge normals of both, so the test is exact."""

    def build():
        frame, basis = part.frame, _strip_basis(part)
        key = basis.order()
        corners = [basis.frame(ModPoint(m, 0, n, 0, 1, False)) for m in (0, 1) for n in (0, 1)]
        us = sorted((c[:2] for c in corners), key=key)
        ws = sorted((c[2:] for c in corners), key=key)
        square = (*us[0], *us[-1], *ws[0], *ws[-1])
        cover, entries, lows = [], [], []
        for i, (box, strip) in enumerate(zip(part.boxes, basis.boxes)):
            xs, ys = zip(*box.corners_plane(frame))
            x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
            cover.append([
                ((m, n), pairs)
                for (m, n), _, pairs in lattice_in_frame_box(frame, basis, _minus(strip, square))
                if x_lo <= m + 1 and m <= x_hi and y_lo <= n + 1 and n <= y_hi
            ])
            for q, pairs in cover[-1]:
                entries.append((len(entries), i, q, pairs))
                lows.append((strip[4] - pairs[2], strip[5] - pairs[3]))
        order = sorted(range(len(entries)), key=lambda e: key(lows[e]))
        tallest = max(((s[6] - s[4], s[7] - s[5]) for s in basis.boxes), key=key)
        return cover, [lows[e] for e in order], [entries[e] for e in order], tallest

    return _cached(part, "_cover", build)


def locate(part: TorusPartition, point) -> CellHit | BoundaryHit:
    """Exact cell membership for a plane point, rational or field-valued, or
    its :class:`ModPoint`: no lattice scan and no field element.  The point,
    reduced into [0, 1)^2, is moved by the translates of the cover whose
    cell's w side can hold it (:func:`_cover`'s index: one bisection, then
    a walk down the lows) and its frame pairs tested against the cell's
    strip, in the cover's order; the translates are then shifted back
    by the floor, so they apply to the point as given."""
    basis = _strip_basis(part)
    mod = point if isinstance(point, ModPoint) else basis.point(point)
    mod, fx, fy = basis.reduce(mod)
    (u0, u1, w0, w1), k = basis.frame(mod), mod.k
    _, lows, entries, (tx, ty) = _cover(part)
    sign, candidates = basis.sign, []
    for e in range(_first_above(basis, lows, w0, w1, k) - 1, -1, -1):
        lx, ly = lows[e]
        if sign(k * (lx + tx) - w0, k * (ly + ty) - w1) < 0:
            break
        candidates.append(entries[e])
    interior: list[CellHit] = []
    boundary: list[CellHit] = []
    for _, i, (m, n), (qu0, qu1, qw0, qw1) in sorted(candidates):
        place = basis.place((u0 + k * qu0, u1 + k * qu1, w0 + k * qw0, w1 + k * qw1),
                            k, basis.boxes[i])
        if place >= 0:
            (interior if place else boundary).append(CellHit(i, (m - fx, n - fy)))
    if interior and len(interior) + len(boundary) == 1:
        return interior[0]
    if isinstance(point, ModPoint):
        point = basis.values(point)
    if interior:
        raise InvariantError(f"cells overlap at {point}: {interior} {boundary}")
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


def transition_graph(part: TorusPartition) -> TransitionGraph:
    """Geometric transition multiplicities: entry (i, j) counts the components
    of phi(R_i) meeting R_j on the torus, the step table's entries for (i, j)
    (:func:`_step_ints`: scanned, or a refinement's read off its parent's),
    counted without decoding them.  Cached on the partition."""
    n = part.n

    def build():
        table = _step_ints(part)
        return TransitionGraph([[len(table.get((i, j), ())) for j in range(n)]
                                for i in range(n)])

    return _cached(part, "_transition_graph", build)


def refine(part: TorusPartition) -> list[RefinementCell]:
    """Cells of the common refinement of the partition and its image.

    Each returned cell is a component of phi(R_i) meet R_j, an entry of the
    forward step table (:func:`_step_ints`, each component decoded once),
    with word (i, j) at offset -1, anchored in R_j's box.  Cells are grouped
    by (i, j) in lexicographic order and within a group by contracting
    coordinate, compared as pairs, which is deterministic.  Cached on the
    partition, with the components' strips; each call gets a new list.
    """
    return list(_refinement(part)[0])


def _refinement(part: TorusPartition) -> tuple[tuple[RefinementCell, ...], tuple[Strip, ...]]:
    """:func:`refine`'s cells and their strips, in its order, cached."""

    def build():
        basis, cells, strips = _strip_basis(part), [], []
        key = basis.order()
        for pair, entries in sorted(_step_ints(part).items()):
            comps = sorted((comp for _, _, comp in entries),
                           key=lambda comp: (key(comp[4:6]), key(comp[:2])))
            cells += [RefinementCell(symbols=pair, offset=-1, rect=basis.rect(comp))
                      for comp in comps]
            strips += comps
        return tuple(cells), tuple(strips)

    return _cached(part, "_refinement", build)


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


def refined_partition(part: TorusPartition) -> TorusPartition:
    """The refinement as a partition in its own right, in :func:`refine`
    order.  A cell's label is its word ``i,j@-1`` in the labels of ``part``,
    plus ``#k`` for the k-th of several components of one word.  It records
    ``part`` as its parent (:func:`_step_ints`) and shares its
    :class:`StripBasis`, with the components' strips as boxes."""
    cells, strips = _refinement(part)
    labels = []
    for (i, j), group in itertools.groupby(cells, key=lambda cell: cell.symbols):
        word = f"{part.labels[i]},{part.labels[j]}@-1"
        count = len(list(group))
        labels += [word] if count == 1 else [f"{word}#{k}" for k in range(count)]
    refined = TorusPartition.build(part.frame, part.acting,
                                   (cell.rect for cell in cells), labels)
    refined.__dict__.update(_parent=part, _strip_basis=replace(_strip_basis(part), boxes=strips))
    return refined


def _step_ints(part: TorusPartition) -> dict[tuple[int, int], list]:
    """The forward step table on strips, cached on the partition: per pair
    (cur, nxt), entries ``(q, shift pairs, component strip)``.  For any
    piece inside box(cur), the lattice translates of its image that meet
    box(nxt) are among the tabulated ones; read backwards, each entry is a
    component of phi^-1(box nxt) meeting box(cur), so the table serves both
    step directions (:func:`_strip_entries`).  A refined partition's table
    is read off its parent's (:func:`_derived_step_ints`); any other's is
    one :func:`_int_overlaps` of the cells' forward images, mapped by the
    forward factor matrices, against the cells, in lattice order, and raises
    :class:`InvariantError` when two entries of one pair overlap, found by a
    sweep in w order: the stepped cell then overlaps its own translate."""

    def build():
        basis = _strip_basis(part)
        fu, fw = basis.factor(True, True), basis.factor(True, False)
        flip_u, flip_w = part.lam_act.sign() < 0, part.mu_act.sign() < 0
        images = [_side_image(box[:4], fu, 0, 0, flip_u) + _side_image(box[4:], fw, 0, 0, flip_w)
                  for box in basis.boxes]
        if "_parent" in part.__dict__:
            return _derived_step_ints(part.__dict__["_parent"], basis, images)
        table, key = _int_overlaps(part.frame, basis, basis.boxes, images), basis.order()
        for entries in table.values():
            if len(entries) == 1:  # every pair of a 0/1 table
                continue
            comps = sorted((comp for _, _, comp in entries), key=lambda comp: key(comp[4:6]))
            lows = [comp[4:6] for comp in comps]
            for n, a in enumerate(comps):
                later = comps[n + 1:_first_above(basis, lows, *a[6:])]  # w lows to a's w high
                if any(_meet(basis, a, b) for b in later):
                    raise InvariantError("image strips overlap inside one cell")
        return table

    return _cached(part, "_step_ints", build)


def _derived_step_ints(parent: TorusPartition, basis: StripBasis, images: list[Strip]
                       ) -> dict[tuple[int, int], list]:
    """The step table of the refinement of ``parent``, given its basis and
    its boxes' forward images, with no lattice scan: refined cell k in box j
    steps where box j does.  Each parent entry (j, b, v, shift, comp) is a
    refined cell m, and (k, m) gets one entry (v, shift, (phi(k) + shift)
    meet box(m)).  Raises :class:`InvariantError` unless every component is
    nonempty and, per k, their areas (pairs, :meth:`StripBasis.mul`) sum to
    area(k) = area(phi k): with the parent's boxes tiling the torus, no
    entry is missing."""
    cells, boxes = _refinement(parent)[0], basis.boxes
    cell_of = {(cell.symbols, box): m for m, (cell, box) in enumerate(zip(cells, boxes))}
    rows = [[] for _ in range(parent.n)]
    for (j, b), entries in _step_ints(parent).items():
        rows[j] += [(cell_of[(j, b), comp], q, shift) for q, shift, comp in entries]
    mul, table = basis.mul, {}
    for k, (cell, box, image) in enumerate(zip(cells, boxes, images)):
        ulx, uly, uhx, uhy, wlx, wly, whx, why = image
        left = mul((box[2] - box[0], box[3] - box[1]), (box[6] - box[4], box[7] - box[5]))
        for m, q, shift in rows[cell.symbols[1]]:
            sux, suy, swx, swy = shift
            comp = _meet(basis, (ulx + sux, uly + suy, uhx + sux, uhy + suy,
                                 wlx + swx, wly + swy, whx + swx, why + swy), boxes[m])
            if comp is None:
                raise InvariantError(f"refined cell {k} steps to an empty component of cell {m}")
            area = mul((comp[2] - comp[0], comp[3] - comp[1]),
                       (comp[6] - comp[4], comp[7] - comp[5]))
            left = (left[0] - area[0], left[1] - area[1])
            table[k, m] = [(q, shift, comp)]
        if left != (0, 0):
            raise InvariantError(f"refined cell {k}'s step components miss part of its area")
    return table


def _meet(basis: StripBasis, s: Strip, t: Strip) -> Strip | None:
    """The open intersection of the boxes of two strips, None when empty:
    along each axis the larger low and the smaller high, if below it."""
    q, a, b, d = basis.q, basis.a, basis.b, basis.d
    meet = ()
    for k in (0, 4):
        (lx, ly, hx, hy), (tlx, tly, thx, thy) = s[k:k + 4], t[k:k + 4]
        # below, a pair (x, y) has the sign of (x*q + y*a) + y*b*sqrt(d)
        x, y = tlx - lx, tly - ly
        if _sign(x * q + y * a, y * b, d) > 0:
            lx, ly = tlx, tly
        x, y = hx - thx, hy - thy
        if _sign(x * q + y * a, y * b, d) > 0:
            hx, hy = thx, thy
        x, y = hx - lx, hy - ly
        if _sign(x * q + y * a, y * b, d) <= 0:
            return None
        meet += (lx, ly, hx, hy)
    return meet


Strip = tuple[int, int, int, int, int, int, int, int]


class ModPoint(NamedTuple):
    """The plane point ((x0 + x1*lam) / k, (y0 + y1*lam) / k) of a
    :class:`StripBasis`, k > 0 chosen per point; matrices act on the
    numerators.  ``field`` records whether it came as field elements."""

    x0: int
    x1: int
    y0: int
    y1: int
    k: int
    field: bool

    def act(self, mat: Mat2Z) -> "ModPoint":
        """The row action point -> point * mat, on the numerators."""
        x0, x1, y0, y1, k, field = self
        a, b, c, d = mat.a, mat.b, mat.c, mat.d
        return ModPoint(x0 * a + y0 * c, x1 * a + y1 * c,
                        x0 * b + y0 * d, x1 * b + y1 * d, k, field)

    def moved(self, m: int, n: int) -> "ModPoint":
        """The point plus the lattice point (m, n)."""
        x0, x1, y0, y1, k, field = self
        return ModPoint(x0 + m * k, x1, y0 + n * k, y1, k, field)


@dataclass(frozen=True)
class StripBasis:
    """Integer coordinates for the strip bounds of one partition, or of the
    boxes of one overlap table (:meth:`build`).

    With t and delta the trace and determinant of the acting matrix, lam
    solves lam^2 = t*lam - delta and mu = t - lam.  ``lam`` is
    (a + b*sqrt(d)) / q.  Every bound x of a strip is the integer pair
    (X, Y) with x = (X + Y*lam) / Q, Q being the lcm of |b|*q over the box
    bounds and the lattice generators' frame coordinates.  Multiplying by
    lam, mu or their inverses maps these pairs through fixed integer
    matrices, so strips step in integers and are decoded only where read.
    ``boxes`` holds the partition's boxes as strips.

    ``frame_map`` is the fixed 4x4 integer matrix that takes a
    :class:`ModPoint`'s numerators over k to its frame pairs over Q*k:
    u = x*u10 + y*u01 and w = x*w10 + y*w01, with the generators' pairs
    ``lattice`` = (u10, u01, w10, w01).  ``columns`` holds what
    :meth:`scan` bounds its columns by.
    """

    t: int
    delta: int
    a: int
    b: int
    q: int
    d: int
    modulus: int
    boxes: tuple[Strip, ...]
    frame_map: tuple[int, ...]
    lattice: tuple[int, ...]
    columns: tuple

    @classmethod
    def build(cls, frame: EigenFrame, acting: Mat2Z, lam: QuadReal, mu: QuadReal,
              values: Iterable[QuadReal]) -> StripBasis:
        """The basis of ``lam`` and ``mu``, the eigenvalues of ``acting`` on
        ``frame``'s directions, whose Q takes in ``values`` and the lattice
        generators' frame coordinates; with no ``boxes``.  Raises
        :class:`InvariantError` unless lam^2 = t*lam - delta and
        mu = t - lam."""
        t, delta = acting.trace(), acting.det()
        if lam * lam != lam * t - delta or mu != t - lam:
            raise InvariantError("the acting eigenvalues do not solve "
                                 "x^2 = t*x - delta with lam + mu = t")
        gens = (frame.u10, frame.u01, frame.w10, frame.w01)
        modulus = 1
        for x in itertools.chain(values, gens):
            modulus = math.lcm(modulus, abs(lam.b) * x.q)
        basis = cls(t, delta, lam.a, lam.b, lam.q, lam.d, modulus, (), (), (), ())
        u10, u01, w10, w01 = map(basis.pair, gens)
        frame_map = ()
        for c10, c01 in ((u10, u01), (w10, w01)):
            e, f = basis.times(c10), basis.times(c01)
            frame_map += (e[0], e[1], f[0], f[1], e[2], e[3], f[2], f[3])
        q, a, b = lam.q, lam.a, lam.b
        # x = c*(u + w), as v_lam[0] == v_mu[0] == c, the frame matrix's c
        c = frame.eig.matrix.c
        columns = [(c * q, c * a, c * b, modulus * q, c > 0)]
        for (c10x, c10y), (p, r) in ((u10, u01), (w10, w01)):
            # (x - m*c10) / c01 is (x - m*c10)*(p + r*mu) / norm, with
            # norm = (p + r*lam)*(p + r*mu); in sqrt(d) and over |norm|*q, the
            # numerator of x = (X, Y) is X*(kxa, kxb) + Y*(kya, kyb), and m
            # adds m*(ma, mb)
            s, norm = p + r * t, p * p + p * r * t + r * r * delta
            sg = 1 if norm > 0 else -1
            kxa, kya, kxb, kyb = sg * (s * q - r * a), sg * (r * delta * q + p * a), \
                -sg * r * b, sg * p * b
            columns.append((kxa, kya, kxb, kyb, -(c10x * kxa + c10y * kya),
                            -(c10x * kxb + c10y * kyb), abs(norm) * q, basis.sign(p, r) < 0))
        return replace(basis, frame_map=frame_map, lattice=(*u10, *u01, *w10, *w01),
                       columns=tuple(columns))

    def pair(self, x: QuadReal) -> tuple[int, int]:
        """The pair (X, Y) of x: :meth:`over`'s numerators brought to Q;
        :class:`InvariantError` for x outside the module."""
        big_x, big_y, den = self.over(x)
        big_x, rem_x = divmod(big_x * self.modulus, den)
        big_y, rem_y = divmod(big_y * self.modulus, den)
        if rem_x or rem_y:
            raise InvariantError(f"{x} lies outside the strip module")
        return big_x, big_y

    def over(self, x: QuadReal) -> tuple[int, int, int]:
        """(X, Y, N) with x = (X + Y*lam) / N and N > 0, for any x of the
        field: sqrt(d) is (q*lam - a) / b, so X = x.a*b - x.b*a, Y = x.b*q
        and N = x.q*b, signs flipped for a negative b."""
        if x.d not in (0, self.d):
            raise InvariantError(f"{x} lies outside the strip module")
        big_x, big_y, den = x.a * self.b - x.b * self.a, x.b * self.q, x.q * self.b
        return (big_x, big_y, den) if den > 0 else (-big_x, -big_y, -den)

    def value(self, big_x: int, big_y: int, den: int = 0) -> QuadReal:
        """The element (X + Y*lam) / den (default Q), in canonical form."""
        return _reduced(big_x * self.q + big_y * self.a, big_y * self.b,
                        (den or self.modulus) * self.q, self.d)

    def strip(self, box: EigenRect) -> Strip:
        pair = self.pair
        return (*pair(box.u_lo), *pair(box.u_hi), *pair(box.w_lo), *pair(box.w_hi))

    def rect(self, strip: Strip) -> EigenRect:
        value = self.value
        return _rect(value(strip[0], strip[1]), value(strip[2], strip[3]),
                     value(strip[4], strip[5]), value(strip[6], strip[7]))

    def unit(self, along_u: bool, n: int) -> tuple[int, int]:
        """The pair over 1 of lam^n (``along_u``) or mu^n, by squaring the
        unit, the first column of its factor matrix."""
        e, power, n = self.factor(n >= 0, along_u)[::2], (1, 0), abs(n)
        while n:
            m00, m01, m10, m11 = self.times(e)
            if n & 1:
                power = (m00 * power[0] + m01 * power[1], m10 * power[0] + m11 * power[1])
            e, n = (m00 * e[0] + m01 * e[1], m10 * e[0] + m11 * e[1]), n >> 1
        return power

    def factor(self, forward: bool, along_u: bool) -> tuple[int, int, int, int]:
        """(m00, m01, m10, m11) with (X, Y) -> (m00*X + m01*Y, m10*X + m11*Y)
        multiplying by lam and mu forward, by 1/lam and 1/mu backward
        (1/lam = delta*mu and 1/mu = delta*lam, as lam*mu = delta)."""
        t, dl = self.t, self.delta
        if forward:
            return (0, -dl, 1, t) if along_u else (t, dl, -1, 0)
        return (dl * t, 1, -dl, 0) if along_u else (0, -1, dl, dl * t)

    def times(self, e: tuple[int, int]) -> tuple[int, int, int, int]:
        """The integer matrix of multiplication by the element of pair e,
        as lam^2 = t*lam - delta."""
        e0, e1 = e
        return e0, -self.delta * e1, e1, e0 + self.t * e1

    def mul(self, e: tuple[int, int], f: tuple[int, int]) -> tuple[int, int]:
        """The pair of the product of the elements of pairs e and f, over
        the product of their denominators: :meth:`times` of e applied to f."""
        (e0, e1), (f0, f1) = e, f
        return e0 * f0 - self.delta * e1 * f1, e1 * f0 + (e0 + self.t * e1) * f1

    def floor(self, big_x: int, big_y: int, den: int) -> int:
        """floor((X + Y*lam) / den), as floor(((X*q + Y*a) + Y*b*sqrt(d))
        / (den*q))."""
        return floor_surd(big_x * self.q + big_y * self.a, big_y * self.b, den * self.q,
                          self.d)

    def sign(self, big_x: int, big_y: int) -> int:
        """The sign of (X + Y*lam): that of its multiple by q, which is
        (X*q + Y*a) + Y*b*sqrt(d)."""
        return _sign(big_x * self.q + big_y * self.a, big_y * self.b, self.d)

    def order(self):
        """A sort key, ``key=basis.order()``, ordering pairs by value."""
        sign = self.sign
        return functools.cmp_to_key(lambda x, y: sign(x[0] - y[0], x[1] - y[1]))

    def scan(self, strip: Strip) -> list[tuple[tuple[int, int], tuple[int, int, int, int]]]:
        """The lattice points (m, n) whose frame coordinates lie in the
        closed box of a strip, in ascending (m, n) order, each with its
        frame pairs (u0, u1, w0, w1).

        Column by column: m runs over the integers of the box's plane
        x-extent, c*(u + w) at two corners, and each closed constraint
        bounds n by (bound - m*c10) / c01, c being the u- or w-coordinate of
        the lattice generators: a pair affine in m over an integer, once
        multiplied by the conjugate of c01, so each column's n-interval ends
        are exact floors of (A + B*sqrt(d)) / N.  Every hit is re-checked
        against the box."""
        q, a, b, d = self.q, self.a, self.b, self.d
        ulx, uly, uhx, uhy, wlx, wly, whx, why = strip
        (cq, ca, cb, xq, c_pos), *n_forms = self.columns
        lo, hi = (ulx + wlx, uly + wly), (uhx + whx, uhy + why)
        (lo_x, lo_y), (hi_x, hi_y) = (lo, hi) if c_pos else (hi, lo)
        m_lo = -floor_surd(-(lo_x * cq + lo_y * ca), -lo_y * cb, xq, d)
        m_hi = floor_surd(hi_x * cq + hi_y * ca, hi_y * cb, xq, d)
        ends = []  # per axis: the lower n-bound negated, and the upper
        for (kxa, kya, kxb, kyb, ma, mb, den, flip), (lx, ly, hx, hy) in zip(
                n_forms, (strip[:4], strip[4:])):
            if flip:
                lx, ly, hx, hy = hx, hy, lx, ly
            ends.append(((-lx * kxa - ly * kya, -ma, -lx * kxb - ly * kyb, -mb, den),
                         (hx * kxa + hy * kya, ma, hx * kxb + hy * kyb, mb, den)))
        ((ua0, ua1, ub0, ub1, u_den), (va0, va1, vb0, vb1, _)), \
            ((wa0, wa1, wb0, wb1, w_den), (xa0, xa1, xb0, xb1, _)) = ends
        u10x, u10y, u01x, u01y, w10x, w10y, w01x, w01y = self.lattice
        hits = []
        for m in range(m_lo, m_hi + 1):
            # ceilings of the lower bounds, as minus the floors of minus them
            n_lo = -min(floor_surd(ua0 + ua1 * m, ub0 + ub1 * m, u_den, d),
                        floor_surd(wa0 + wa1 * m, wb0 + wb1 * m, w_den, d))
            n_hi = min(floor_surd(va0 + va1 * m, vb0 + vb1 * m, u_den, d),
                       floor_surd(xa0 + xa1 * m, xb0 + xb1 * m, w_den, d))
            ux, uy = m * u10x + n_lo * u01x, m * u10y + n_lo * u01y
            wx, wy = m * w10x + n_lo * w01x, m * w10y + n_lo * w01y
            for n in range(n_lo, n_hi + 1):
                # self.sign of each bound's distance to the hit, inlined
                x0, y0, x1, y1 = ux - ulx, uy - uly, uhx - ux, uhy - uy
                x2, y2, x3, y3 = wx - wlx, wy - wly, whx - wx, why - wy
                if (_sign(x0 * q + y0 * a, y0 * b, d) < 0 or _sign(x1 * q + y1 * a, y1 * b, d) < 0
                        or _sign(x2 * q + y2 * a, y2 * b, d) < 0
                        or _sign(x3 * q + y3 * a, y3 * b, d) < 0):
                    raise InvariantError(f"column scan hit {(m, n)} lies outside the box")
                hits.append(((m, n), (ux, uy, wx, wy)))
                ux, uy, wx, wy = ux + u01x, uy + u01y, wx + w01x, wy + w01y
        return hits

    def inside(self, side: tuple[int, int, int, int],
               whole: tuple[int, int, int, int]) -> bool:
        """Whether the side (lo, hi), two pairs, is a nonempty interval
        inside the side ``whole``: whole_lo <= lo < hi <= whole_hi."""
        (lo_x, lo_y, hi_x, hi_y), (w_lo_x, w_lo_y, w_hi_x, w_hi_y) = side, whole
        sign = self.sign
        return (sign(lo_x - w_lo_x, lo_y - w_lo_y) >= 0
                and sign(hi_x - lo_x, hi_y - lo_y) > 0
                and sign(w_hi_x - hi_x, w_hi_y - hi_y) >= 0)

    def point(self, point) -> ModPoint:
        """The :class:`ModPoint` of a point of rationals or field elements."""
        field, parts = False, []
        for c in point:
            if isinstance(c, QuadReal):
                field = True
                parts.append(self.over(c))
            else:
                parts.append((c.numerator, 0, c.denominator))
        (xa, xb, xn), (ya, yb, yn) = parts
        k = math.lcm(xn, yn)
        return ModPoint(xa * (k // xn), xb * (k // xn), ya * (k // yn), yb * (k // yn),
                        k, field)

    def values(self, point: ModPoint) -> tuple:
        """A point's coordinates, as field elements or fractions as it came."""
        x0, x1, y0, y1, k, field = point
        if field:
            return self.value(x0, x1, k), self.value(y0, y1, k)
        return Fraction(x0, k), Fraction(y0, k)

    def reduce(self, point: ModPoint) -> tuple[ModPoint, int, int]:
        """The point reduced into [0, 1)^2, and the floors taken off."""
        x0, x1, y0, y1, k, field = point
        fx, fy = self.floor(x0, x1, k), self.floor(y0, y1, k)
        return ModPoint(x0 - fx * k, x1, y0 - fy * k, y1, k, field), fx, fy

    def frame(self, point: ModPoint) -> tuple[int, int, int, int]:
        """The frame pairs (u0, u1, w0, w1) of a point, over Q*k."""
        f, (x0, x1, y0, y1) = self.frame_map, point[:4]
        return tuple(f[r] * x0 + f[r + 1] * x1 + f[r + 2] * y0 + f[r + 3] * y1
                     for r in (0, 4, 8, 12))

    def place(self, at: tuple[int, int, int, int], k: int, strip: Strip) -> int:
        """Where the frame point of pairs ``at`` over Q*k lies against the
        closed box of a strip: -1 outside, 0 on its boundary, 1 inside."""
        u0, u1, w0, w1 = at
        ula, ulb, uha, uhb, wla, wlb, wha, whb = strip
        q, a, b, d = self.q, self.a, self.b, self.d
        lowest = 1
        for x, y in ((u0 - k * ula, u1 - k * ulb), (k * uha - u0, k * uhb - u1),
                     (w0 - k * wla, w1 - k * wlb), (k * wha - w0, k * whb - w1)):
            side = _sign(x * q + y * a, y * b, d)  # self.sign(x, y), inlined
            if side < 0:
                return -1
            lowest *= side
        return lowest


def _strip_basis(part: TorusPartition) -> StripBasis:
    """The partition's :class:`StripBasis`, over its boxes' bounds, built on
    the first table or strip step and cached on the partition."""

    def build():
        basis = StripBasis.build(part.frame, part.acting, part.lam_act, part.mu_act,
                                 _bounds(part.boxes))
        return replace(basis, boxes=tuple(map(basis.strip, part.boxes)))

    return _cached(part, "_strip_basis", build)


def strip_of(part: TorusPartition, box: EigenRect) -> Strip:
    """The strip of a box: its bounds u_lo, u_hi, w_lo, w_hi as integer
    pairs of the partition's :class:`StripBasis`.  Raises
    :class:`InvariantError` for a bound outside the basis's module."""
    return _strip_basis(part).strip(box)


def strip_rect(part: TorusPartition, strip: Strip) -> EigenRect:
    """The box of a strip, every bound in canonical form."""
    return _strip_basis(part).rect(strip)


def advance_strips(part: TorusPartition, strips: Sequence[Strip], cur: int,
                   nxt: int) -> list[Strip]:
    """One forward step of cylinder tracking: components of phi(strip)
    meeting box(nxt), anchored there.  Strips must lie inside box(cur).  One
    :func:`_apply_rows` pass with the forward entry list of (cur, nxt)."""
    steps = part.__dict__.get("_forward_strips") or _strip_entries(part, True)
    out: list[Strip] = []
    _apply_rows(steps, strips, cur, steps[0].get((cur, nxt), ()), [out])
    return out


def pullback_strips(part: TorusPartition, strips: Sequence[Strip], cur: int,
                    prv: int) -> list[Strip]:
    """One backward step: components of phi^-1(strip) meeting box(prv),
    anchored there.  Strips must lie inside box(cur).  One
    :func:`_apply_rows` pass with the backward entry list of (cur, prv),
    which reads the forward step table's entries for (prv, cur) backwards;
    the strips come out in the table's lattice order."""
    steps = part.__dict__.get("_backward_strips") or _strip_entries(part, False)
    out: list[Strip] = []
    _apply_rows(steps, strips, cur, steps[0].get((cur, prv), ()), [out])
    return out


def advance_node(part: TorusPartition, strips: Sequence[Strip], cur: int
                 ) -> list[list[Strip]]:
    """Every forward step of a word-tree node at once: per successor nxt of
    cur, in :func:`_step_successors` order, ``advance_strips(part, strips,
    cur, nxt)``.  One :func:`_apply_rows` pass over the strips with the
    rows of every successor, read off the forward entry lists grouped per
    cell (:func:`_strip_entries`), so each strip's sides are scaled once."""
    steps = part.__dict__.get("_forward_strips") or _strip_entries(part, True)
    count, rows = steps[7][cur]
    outs: list[list[Strip]] = [[] for _ in range(count)]
    _apply_rows(steps, strips, cur, rows, outs)
    return outs


def _side_image(side: tuple[int, int, int, int], factor: tuple[int, int, int, int],
                sx: int, sy: int, flip: bool) -> tuple[int, int, int, int]:
    """The image of the side (lo, hi), two pairs, under x -> x*k + s, k's
    integer matrix being ``factor``; ``flip`` marks a negative k, whose
    image runs from the image of hi."""
    m00, m01, m10, m11 = factor
    lo_x, lo_y, hi_x, hi_y = side
    lo = (m00 * lo_x + m01 * lo_y + sx, m10 * lo_x + m11 * lo_y + sy)
    hi = (m00 * hi_x + m01 * hi_y + sx, m10 * hi_x + m11 * hi_y + sy)
    return (*hi, *lo) if flip else (*lo, *hi)


def _strip_entries(part: TorusPartition, forward: bool):
    """``(entries, sides, fu, fw, flip_u, flip_w, basis, nodes)`` for one
    direction of strip steps, read off the step table's strips
    (:func:`_step_ints`) on the first step and cached on the partition.

    ``entries[(cur, to)]`` holds one row per table entry, in order: 0 (the
    index of its output list in :func:`_apply_rows`), a clip box inside box(cur) as its u side and w side (two pairs each), a
    shift (su, sw) as two pairs, whether the clip's sides are box(cur)'s
    whole sides, and the clip's image as its u side and w side.  A hit x
    maps to x*k + s per coordinate, k's integer matrix being ``fu`` or
    ``fw`` and ``flip_*`` marking a negative k; ``sides[c]`` holds box(c)'s
    u side and w side.  Forward,
    the clip is phi^-1(comp - shift), whose image is comp, with factors
    (lam, mu) and the table's shift; backward, the clip is comp, whose
    image is phi^-1(comp - shift), with factors (1/lam, 1/mu) and shift
    -phi^-1(shift).  Raises :class:`InvariantError` when a clip leaves
    box(cur) or has an empty side: the kernel's shortcuts assume neither
    happens.

    ``nodes[cur]``, forward only (None backward), is ``(count, rows)`` for
    :func:`advance_node`: the rows of every (cur, to) in one list, ``to``
    running over the count successors of :func:`_step_successors`, each
    row led by the index of its ``to`` there instead of 0."""

    def build():
        basis = _strip_basis(part)
        back_u, back_w = basis.factor(False, True), basis.factor(False, False)
        flip_u, flip_w = part.lam_act.sign() < 0, part.mu_act.sign() < 0
        sides = [(box[:4], box[4:]) for box in basis.boxes]
        entries = {}
        for (i, j), overlaps in _step_ints(part).items():
            cur = i if forward else j
            box_u, box_w = sides[cur]
            rows = entries[(i, j) if forward else (j, i)] = []
            for _, (sux, suy, swx, swy), comp in overlaps:
                comp_u, comp_w = comp[:4], comp[4:]
                # -phi^-1(shift), so that phi^-1(x - shift) = x/k + back
                m00, m01, m10, m11 = back_u
                bux, buy = -(m00 * sux + m01 * suy), -(m10 * sux + m11 * suy)
                m00, m01, m10, m11 = back_w
                bwx, bwy = -(m00 * swx + m01 * swy), -(m10 * swx + m11 * swy)
                pre_u = _side_image(comp_u, back_u, bux, buy, flip_u)
                pre_w = _side_image(comp_w, back_w, bwx, bwy, flip_w)
                if forward:
                    clip_u, clip_w, img_u, img_w = pre_u, pre_w, comp_u, comp_w
                    shift = (sux, suy, swx, swy)
                else:
                    clip_u, clip_w, img_u, img_w = comp_u, comp_w, pre_u, pre_w
                    shift = (bux, buy, bwx, bwy)
                if not (basis.inside(clip_u, box_u) and basis.inside(clip_w, box_w)):
                    raise InvariantError(f"a clip of the step {(i, j)} leaves "
                                         f"box({cur}) or has an empty side")
                rows.append((0, clip_u, clip_w, *shift, clip_u == box_u,
                             clip_w == box_w, img_u, img_w))
        nodes = None
        if forward:
            nodes = [(len(succ), [(k, *row[1:]) for k, to in enumerate(succ)
                                  for row in entries[cur, to]])
                     for cur, succ in enumerate(_step_successors(part))]
        return (entries, sides, basis.factor(forward, True),
                basis.factor(forward, False), flip_u, flip_w, basis, nodes)

    return _cached(part, "_forward_strips" if forward else "_backward_strips", build)


def _apply_rows(steps, strips: Sequence[Strip], cur: int, rows, outs) -> None:
    """The strip-step kernel: each strip, against each row, is clipped to
    the row's box and only a nonempty hit is mapped, onto ``outs[k]``, k
    leading the row.

    Strips must lie inside box(cur), as a box or a strip that a step to cur
    returned does; so does every clip, with both sides nonempty
    (:func:`_strip_entries` checks).  So on an axis where either side is
    box(cur)'s whole side, clipping compares nothing: a whole strip side
    leaves the clip's side, whose image the row holds, and a whole clip
    side leaves the strip's side, which is only mapped.  Other sides go
    through :func:`_clip_side`; on a Markov partition none does (forward,
    every strip spans box(cur)'s u side and every clip its w side, and
    backward the reverse).  A step builds no field element."""
    _, sides, fu, fw, flip_u, flip_w, basis, _ = steps
    box_u, box_w = sides[cur]
    for strip in strips:
        u_side, w_side = strip[:4], strip[4:]
        whole_u, whole_w = u_side == box_u, w_side == box_w
        # a side that may pass through, times k: each row adds its shift
        if not whole_u:
            ku = _side_image(u_side, fu, 0, 0, flip_u)
        if not whole_w:
            kw = _side_image(w_side, fw, 0, 0, flip_w)
        for (k, clip_u, clip_w, sux, suy, swx, swy, clip_whole_u, clip_whole_w,
             img_u, img_w) in rows:
            if whole_u:
                u = img_u
            elif clip_whole_u:
                u = (ku[0] + sux, ku[1] + suy, ku[2] + sux, ku[3] + suy)
            else:
                u = _clip_side(basis, u_side, clip_u, fu, sux, suy, flip_u)
                if u is None:
                    continue
            if whole_w:
                w = img_w
            elif clip_whole_w:
                w = (kw[0] + swx, kw[1] + swy, kw[2] + swx, kw[3] + swy)
            else:
                w = _clip_side(basis, w_side, clip_w, fw, swx, swy, flip_w)
                if w is None:
                    continue
            outs[k].append(u + w)


def _clip_side(basis: StripBasis, side, clip, factor, sx: int, sy: int, flip: bool):
    """The general clip of one axis: the image under x -> x*k + s of the
    side (lo, hi) met with the clip's side, or None where they do not
    overlap; three sign tests."""
    sign = basis.sign
    lo_x, lo_y, hi_x, hi_y = side
    clo_x, clo_y, chi_x, chi_y = clip
    if sign(clo_x - lo_x, clo_y - lo_y) > 0:
        lo_x, lo_y = clo_x, clo_y
    if sign(hi_x - chi_x, hi_y - chi_y) > 0:
        hi_x, hi_y = chi_x, chi_y
    if sign(hi_x - lo_x, hi_y - lo_y) <= 0:
        return None
    return _side_image((lo_x, lo_y, hi_x, hi_y), factor, sx, sy, flip)


def _rect(u_lo: QuadReal, u_hi: QuadReal, w_lo: QuadReal, w_hi: QuadReal
          ) -> EigenRect:
    """A box from bounds known to be ordered, skipping the public
    constructor's check, as :func:`exact._make` does for elements."""
    rect = object.__new__(EigenRect)
    rect.__dict__.update(u_lo=u_lo, u_hi=u_hi, w_lo=w_lo, w_hi=w_hi)
    return rect


def cylinder_components(part: TorusPartition, word: Sequence[int]) -> list[EigenRect]:
    """All components of the cylinder set for ``word`` at offset 0, i.e. of
    the intersection over k of phi^-k R_{word[k]}, anchored in box(word[0]):
    the :func:`cylinder_strips`, decoded."""
    return [strip_rect(part, strip) for strip in cylinder_strips(part, word)]


def cylinder_strips(part: TorusPartition, word: Sequence[int]) -> list[Strip]:
    """The components of :func:`cylinder_components` as strips: box(last
    symbol) pulled back along the word."""
    if not word:
        raise ValueError("empty word")
    cur = word[-1]
    strips = [_strip_basis(part).boxes[cur]]
    for sym in reversed(word[:-1]):
        strips = pullback_strips(part, strips, cur, sym)
        cur = sym
    return strips


# -- the word tree -------------------------------------------------------------------


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


def _step_successors(part: TorusPartition) -> list[list[int]]:
    """Per cell, the cells its image meets, ascending: the support of
    :func:`transition_graph`, read off the integer step table.  Cached on
    the partition; callers must not change the lists."""

    def build():
        succ: list[list[int]] = [[] for _ in range(part.n)]
        for i, j in sorted(_step_ints(part)):
            succ[i].append(j)
        return succ

    return _cached(part, "_successors", build)


def count_words(part: TorusPartition, max_len: int) -> int:
    """Exact number of words :func:`walk_words` visits when its deepest
    visitor wants ``max_len``: the paths of at most ``max_len`` symbols in
    the transition graph's support, counted by integer vector steps without
    walking them."""
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


def walk_words(part: TorusPartition, visitors: Sequence[WordVisitor]) -> None:
    """Feed every visitor the admissible words of the partition's word tree.

    One preorder depth-first walk, with an explicit stack, over the words
    s_0 ... s_k whose steps follow :func:`_step_successors`, as deep as the
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
        succ = _step_successors(part)
        wanting = _wanting(live)
        word: list[int] = []
        boxes = _strip_basis(part).boxes
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


class _DepthCells(WordVisitor):
    """The cells of :func:`refinement_cells_depth`, in walk order."""

    def __init__(self, part: TorusPartition, depth: int):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.basis = _strip_basis(part)
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
        self.basis = _strip_basis(part)
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
    basis = _strip_basis(part)
    table = _int_overlaps(part.frame, basis, basis.boxes, basis.boxes)
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
    basis = _strip_basis(part)
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
                                    _side_image(side, factor, 0, 0, flip))
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
        # the expected widths as StripBasis pairs: per box its u width, and
        # per word length 2n+1 its w width times mu^(2n), one integer matrix
        # step per factor mu
        basis = _strip_basis(part)
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
                           enumerate_up_to: int = 2,
                           windows: WindowCheck | None = None) -> list[DecayRow]:
    """Diameters of symmetric refinements W_n = join of phi^-k R, |k| <= n.

    For n <= enumerate_up_to the cells are enumerated exactly and their
    dimensions checked against the endpoint formula (expanding dimension
    |mu|^n * u(last symbol), contracting |mu|^n * w(first symbol)); beyond
    that the formula gives the exact maximum over endpoint pairs reachable
    in 2n steps.  The diameter grows with the expanding dimension, so one
    diameter per first symbol, at its widest reachable last symbol, is
    enough.  The enumerated n are checked in one walk of the words of length
    2*enumerate_up_to + 1, or by ``windows``, a :class:`WindowCheck` that a
    shared walk of ``part`` has already fed.

    bound_sq is the squared claimed bound d(R)^2 * |mu|^(2n).  A window cell
    mixes the expanding dimension of its last symbol with the contracting
    dimension of its first, so measured_sq can exceed bound_sq where the
    widest mixed pair beats every single cell (the two-box base partition,
    for some matrices at small n).  On the canonical refinement every mixed
    pair is dominated by an actual cell, so ok holds at every depth; a False
    ok is a finding about the partition, not an arithmetic error.
    """
    succ = _step_successors(part)
    up_to = max(0, min(depth, enumerate_up_to))
    if windows is None:
        windows = WindowCheck(part, up_to)
        walk_words(part, [windows])
    elif windows.up_to != up_to:
        raise ValueError(f"the window check covers n <= {windows.up_to}, "
                         f"not n <= {up_to}")
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
                             0 < n <= enumerate_up_to))
    return rows
