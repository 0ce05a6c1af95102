"""Partitions of the torus into eigen-aligned boxes, and their step table.

A :class:`TorusPartition` bundles the frame, the acting matrix (diagonal in
frame coordinates), and one plane representative box per cell; the torus
cell is the image of the box under the quotient map.  All-pairs overlaps
(:func:`int_overlaps`) take one lattice scan per moving cell and decode
entries into boxes only where a caller reads one.  The step table,
:func:`step_rows`, one row of strip entries per cell, is the only source of
transitions in both directions.  A partition's rows scan its cells' forward
images, overlap-checked once; a refinement's are its parent's rows in
factored form, R v phi^-1 R being Markov when R is, checked in O(N*).

A cylinder piece is a strip, stepped over entry lists read off the rows
once per direction by one kernel, :func:`_apply_rows`: a walk's node step
(:func:`advance_node`) applies a cell's forward rows for every successor at
once, and a backward step (:func:`pullback_strips`) the backward rows of
one cell pair.  Pieces and entry boxes lie in the cell being stepped, so on
an axis where either spans the cell's whole side the clip is the other's
side: on a Markov partition no step compares a bound, and only a partition
that breaks it (a dented cell) reaches the sign tests.  :func:`locate`
moves a point's frame pairs by the entries of a cover, cached on the
partition, of every (cell, translate) whose closed box can meet the unit
square, found by one bisection over their w lows (:func:`first_above`), and
tests them against the cell's strip.  The benchmark's tracer wraps the scan,
the strip steps and the graph by name here, so they and their callers stay.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Iterable, Sequence

from .basis import EigenRect, ModPoint, Strip, StripBasis, first_above, meet, side_image
from .exact import QuadReal, sign_surd
from .sft import TransitionGraph
from .torus import EigenFrame, InvariantError, Mat2Z


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


def cached(part, name: str, compute, *args):
    """``compute(*args)``, kept on the partition (or frame) under ``name``
    after the first call: the object is immutable, so what is derived from
    it is too."""
    value = part.__dict__.get(name)
    if value is None:
        value = compute(*args)
        object.__setattr__(part, name, value)
    return value


def strip_basis(part: TorusPartition) -> StripBasis:
    """The partition's :class:`StripBasis`, over its boxes' bounds, built on
    the first table or strip step and cached on the partition."""

    def build():
        basis = StripBasis.build(part.frame, part.acting, part.lam_act, part.mu_act,
                                 _bounds(part.boxes))
        return replace(basis, boxes=tuple(map(basis.strip, part.boxes)))

    return cached(part, "_strip_basis", build)


def strip_rect(part: TorusPartition, strip: Strip) -> EigenRect:
    """The box of a strip, every bound in canonical form."""
    return strip_basis(part).rect(strip)


def _bounds(boxes: Iterable[EigenRect]) -> Iterable[QuadReal]:
    """Every bound of the boxes, for a basis modulus to take in."""
    return (x for box in boxes for x in (box.u_lo, box.u_hi, box.w_lo, box.w_hi))


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


Overlap = tuple[tuple[int, int], tuple[QuadReal, QuadReal], EigenRect]


def overlap_table(frame: EigenFrame, targets: Sequence[EigenRect],
                  movers: Sequence[EigenRect]) -> dict[tuple[int, int], list[Overlap]]:
    """Per pair (i, j) whose boxes overlap modulo the lattice, the
    :func:`translate_overlaps` entries of target j and mover i, in the same
    ascending lattice order; pairs without overlap are absent.  The entries
    of :func:`int_overlaps` over a basis of the frame's own eigenvalue that
    takes in every bound, decoded."""
    eig = frame.eig
    basis = StripBasis.build(frame, eig.matrix, eig.lam, eig.mu,
                             _bounds(itertools.chain(targets, movers)))
    return _decoded(basis, int_overlaps(frame, basis, list(map(basis.strip, targets)),
                                        list(map(basis.strip, movers))))


def int_overlaps(frame: EigenFrame, basis: StripBasis, targets: Sequence[Strip],
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
            for k in range(first_above(basis, lows, wlx - tx, wly - ty), len(lows)):
                x, y = lows[k][0] - whx, lows[k][1] - why
                if sign_surd(x * q + y * a, y * b, d) >= 0:  # basis.sign(x, y), inlined
                    break
                comp = meet(basis, moved, targets[order[k]])
                if comp is not None:
                    table.setdefault((i, order[k]), []).append((hit, shift, comp))
    return table


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
    basis = strip_basis(part)
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


def cover(part: TorusPartition):
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
        frame, basis = part.frame, strip_basis(part)
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

    return cached(part, "_cover", build)


def locate(part: TorusPartition, point) -> CellHit | BoundaryHit:
    """Exact cell membership for a plane point, rational or field-valued, or
    its :class:`ModPoint`: no lattice scan and no field element.  The point,
    reduced into [0, 1)^2, is moved by the translates of the cover whose
    cell's w side can hold it (:func:`cover`'s index: one bisection, then
    a walk down the lows) and its frame pairs tested against the cell's
    strip, in the cover's order; the translates are then shifted back
    by the floor, so they apply to the point as given."""
    basis = strip_basis(part)
    mod = point if isinstance(point, ModPoint) else basis.point(point)
    mod, fx, fy = basis.reduce(mod)
    (u0, u1, w0, w1), k = basis.frame(mod), mod.k
    _, lows, entries, (tx, ty) = cover(part)
    sign, candidates = basis.sign, []
    for e in range(first_above(basis, lows, w0, w1, k) - 1, -1, -1):
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
    of phi(R_i) meeting R_j on the torus, the entries of row i of
    :func:`step_rows` that step to j, read off :func:`factored`; cached."""

    def build():
        rows, row_of = factored(part)
        matrix = [[0] * part.n for _ in rows]
        for counts, row in zip(matrix, rows):
            for entry in row:
                counts[entry[0]] += 1
        return TransitionGraph([matrix[r] for r in row_of])

    return cached(part, "_transition_graph", build)


def refine(part: TorusPartition) -> list[RefinementCell]:
    """Cells of the common refinement of the partition and its image: per
    entry of the forward step table (:func:`step_rows`), its component of
    phi(R_i) meet R_j, decoded once, with word (i, j) at offset -1, anchored
    in R_j's box.  Grouped by (i, j) lexicographically and within a group by
    contracting coordinate, compared as pairs, which is deterministic.
    Cached on the partition, with the strips; each call gets a new list."""
    return list(_refinement(part)[0])


def _refinement(part: TorusPartition) -> tuple[tuple[RefinementCell, ...], tuple[Strip, ...]]:
    """:func:`refine`'s cells and their strips, in its order, cached."""

    def build():
        basis, cells, strips = strip_basis(part), [], []
        key = basis.order()
        for i, row in enumerate(step_rows(part)):
            for j, entries in itertools.groupby(row, key=_to):
                comps = sorted((entry[3] for entry in entries),
                               key=lambda comp: (key(comp[4:6]), key(comp[:2])))
                cells += [RefinementCell(symbols=(i, j), offset=-1, rect=basis.rect(comp))
                          for comp in comps]
                strips += comps
        return tuple(cells), tuple(strips)

    return cached(part, "_refinement", build)


def refined_partition(part: TorusPartition) -> TorusPartition:
    """The refinement as a partition in its own right, in :func:`refine`
    order.  A cell's label is its word ``i,j@-1`` in the labels of ``part``,
    plus ``#k`` for the k-th of several components of one word.  It records
    ``part`` as its parent, whose rows factor its own (:func:`step_rows`),
    and shares its :class:`StripBasis`, with the components' strips as boxes."""
    cells, strips = _refinement(part)
    labels = []
    for (i, j), group in itertools.groupby(cells, key=lambda cell: cell.symbols):
        word = f"{part.labels[i]},{part.labels[j]}@-1"
        count = len(list(group))
        labels += [word] if count == 1 else [f"{word}#{k}" for k in range(count)]
    refined = TorusPartition.build(part.frame, part.acting,
                                   (cell.rect for cell in cells), labels)
    refined.__dict__.update(_parent=part, _strip_basis=replace(strip_basis(part), boxes=strips))
    return refined


def step_rows(part: TorusPartition) -> list[list[tuple]]:
    """The forward step table on strips, cached (callers must not change
    it): per cell cur, a row of entries ``(to, q, shift pairs, component
    strip)``, ascending in ``to`` and within one ``to`` in lattice order.
    For any piece inside box(cur), the lattice translates of its image that
    meet box(to) are among the tabulated ones; read backwards, each entry is
    a component of phi^-1(box to) meeting box(cur), so the rows serve both
    step directions (:func:`_strip_entries`).  A partition with no parent
    scans: one :func:`int_overlaps` of the cells' forward images against
    the cells, raising :class:`InvariantError` when two entries of one
    (cur, to) overlap, found by a sweep in w order: the stepped cell then
    overlaps its own translate.

    A refined cell k in box j steps where box j does: per entry (b, v,
    shift) of parent row j, whose component is refined cell m, it gets (m,
    v, shift, box(m)'s u side x (phi(k)'s w side + shift)), with no scan
    (:func:`factored`).  That is the meet of phi(k) + shift and box(m),
    nonempty, when the parent component, the meet of phi(box j) + shift
    and box(b), has box(b)'s u side and phi(box j)'s w side plus the shift
    (crossing) and k has box(j)'s u side and a w side in box(j)'s
    (nesting).  If row j's areas sum to area(box j), crossing makes its
    u(box b) sum to |lam|*u(box j), and k's areas to area(k), |lam*mu|
    being 1: with the parent's boxes tiling the torus, none is missing."""

    def build():
        basis = strip_basis(part)
        fu, fw = basis.factor(True, True), basis.factor(True, False)
        flip_u, flip_w = part.lam_act.sign() < 0, part.mu_act.sign() < 0
        images = [side_image(box[:4], fu, 0, 0, flip_u) + side_image(box[4:], fw, 0, 0, flip_w)
                  for box in basis.boxes]
        if "_parent" in part.__dict__:
            (steps, seconds), boxes = factored(part), basis.boxes
            return [[(m, q, s, boxes[m][:4] + (w[4] + s[2], w[5] + s[3], w[6] + s[2], w[7] + s[3]))
                     for m, q, s in steps[j]] for j, w in zip(seconds, images)]
        table, key = int_overlaps(part.frame, basis, basis.boxes, images), basis.order()
        rows: list[list[tuple]] = [[] for _ in range(part.n)]
        for (i, j), entries in sorted(table.items()):
            rows[i] += [(j, q, shift, comp) for q, shift, comp in entries]
            if len(entries) == 1:  # every pair of a 0/1 table
                continue
            comps = sorted((comp for _, _, comp in entries), key=lambda comp: key(comp[4:6]))
            lows = [comp[4:6] for comp in comps]
            for n, a in enumerate(comps):
                later = comps[n + 1:first_above(basis, lows, *a[6:])]  # w lows to a's w high
                if any(meet(basis, a, b) for b in later):
                    raise InvariantError("image strips overlap inside one cell")
        return rows

    return cached(part, "_step_rows", build)


def factored(part: TorusPartition) -> tuple[list[list[tuple]], Sequence[int]]:
    """``(rows, row_of)``: the distinct step rows, entries led by their
    ``to``, and per cell its row's index.  With no parent, the rows are
    :func:`step_rows`.  A refined partition's are its parent's, entries
    ``(m, v, shift)`` ascending in the refined cell m, and a cell's is its
    second symbol's: cached, and checked as :func:`step_rows` states."""
    if "_parent" not in part.__dict__:
        return step_rows(part), range(part.n)

    def build():
        parent, basis = part.__dict__["_parent"], strip_basis(part)
        cells, boxes, parents = _refinement(parent)[0], basis.boxes, strip_basis(parent).boxes
        fw, flip_w, mul = basis.factor(True, False), part.mu_act.sign() < 0, basis.mul
        seconds = [cell.symbols[1] for cell in cells]
        for k, (j, box) in enumerate(zip(seconds, boxes)):
            if box[:4] != parents[j][:4] or not basis.inside(box[4:], parents[j][4:]):
                raise InvariantError(f"refined cell {k} is not nested in box({j})")
        cell_of = {(cell.symbols, box): m for m, (cell, box) in enumerate(zip(cells, boxes))}
        steps = []
        for j, (box, row) in enumerate(zip(parents, step_rows(parent))):
            wlx, wly, whx, why = side_image(box[4:], fw, 0, 0, flip_w)
            left = mul((box[2] - box[0], box[3] - box[1]), (box[6] - box[4], box[7] - box[5]))
            for b, q, (_, _, swx, swy), comp in row:
                if comp != parents[b][:4] + (wlx + swx, wly + swy, whx + swx, why + swy):
                    raise InvariantError(f"parent step {(j, b)} at {q} does not cross box({b})")
                area = mul((comp[2] - comp[0], comp[3] - comp[1]),
                           (comp[6] - comp[4], comp[7] - comp[5]))
                left = (left[0] - area[0], left[1] - area[1])
            if left != (0, 0):
                raise InvariantError(f"the steps of parent cell {j} miss part of its area")
            steps.append(sorted((cell_of[(j, b), comp], q, shift) for b, q, shift, comp in row))
        return steps, seconds

    return cached(part, "_factored", build)


_to = itemgetter(0)  # the cell a step-table entry steps to


def step_successors(part: TorusPartition) -> list[list[int]]:
    """Per cell, the cells its image meets, ascending: the support of
    :func:`transition_graph`, read off :func:`factored`.  Cached; callers
    must not change the lists, which cells of one row share."""

    def build():
        rows, row_of = factored(part)
        succ = [sorted(set(map(_to, row))) for row in rows]
        return [succ[r] for r in row_of]

    return cached(part, "_successors", build)


def forward_step(part: TorusPartition):
    """``step(cur, pairs, k)``: the entries of row cur of :func:`step_rows`,
    in its order, whose component (the closed image of a forward row) holds
    the frame pairs ``pairs`` (over Q*k, in box(cur)) stepped by the forward
    factor matrices, each as (the entry's ``to``, the stepped pairs plus the
    entry's shift, 0 on the image's boundary or 1 inside).  Built once, with
    the rows, the factor matrices and ``place`` bound, and cached on the
    partition."""

    def build():
        basis, rows = strip_basis(part), step_rows(part)
        (a, b, c, d), (e, f, g, h) = basis.factor(True, True), basis.factor(True, False)
        place = basis.place

        def step(cur: int, pairs: tuple[int, int, int, int], k: int) -> list[tuple]:
            u0, u1, w0, w1 = pairs
            u0, u1, w0, w1 = a * u0 + b * u1, c * u0 + d * u1, e * w0 + f * w1, g * w0 + h * w1
            hits = []
            for j, _, (su0, su1, sw0, sw1), img in rows[cur]:
                at = (u0 + k * su0, u1 + k * su1, w0 + k * sw0, w1 + k * sw1)
                side = place(at, k, img)
                if side >= 0:
                    hits.append((j, at, side))
            return hits

        return step

    return cached(part, "_forward_step", build)


def advance_strips(part: TorusPartition, strips: Sequence[Strip], cur: int,
                   nxt: int) -> list[Strip]:
    """One forward step of cylinder tracking: components of phi(strip)
    meeting box(nxt), anchored there.  Strips must lie inside box(cur).  The
    list of nxt that :func:`advance_node` gives, empty when nxt is no
    successor of cur."""
    succ = step_successors(part)[cur]
    return advance_node(part, strips, cur)[succ.index(nxt)] if nxt in succ else []


def pullback_strips(part: TorusPartition, strips: Sequence[Strip], cur: int,
                    prv: int) -> list[Strip]:
    """One backward step: components of phi^-1(strip) meeting box(prv),
    anchored there.  Strips must lie inside box(cur).  One
    :func:`_apply_rows` pass with the backward rows of the entries of row
    prv of :func:`step_rows` that step to cur; the strips come out in the
    table's lattice order."""
    steps = part.__dict__.get("_backward_strips") or _strip_entries(part, False)
    out: list[Strip] = []
    _apply_rows(steps, strips, cur, steps[0][prv].get(cur, ()), [out])
    return out


def advance_node(part: TorusPartition, strips: Sequence[Strip], cur: int
                 ) -> list[list[Strip]]:
    """Every forward step of a word-tree node at once: per successor nxt of
    cur, in :func:`step_successors` order, the components of phi(strip)
    meeting box(nxt).  One :func:`_apply_rows` pass over the strips with the
    forward rows of cell cur (:func:`_strip_entries`), so each strip's
    sides are scaled once."""
    steps = part.__dict__.get("_forward_strips") or _strip_entries(part, True)
    outs: list[list[Strip]] = [[] for _ in steps[7][cur]]
    _apply_rows(steps, strips, cur, steps[0][cur], outs)
    return outs


def _strip_entries(part: TorusPartition, forward: bool):
    """``(rows, sides, fu, fw, flip_u, flip_w, basis, succ)`` for one
    direction of strip steps, read off :func:`step_rows` on the first step
    and cached on the partition.

    ``rows[i]`` holds one row per entry of step row i, in order (backward,
    keyed by the entry's ``to``, in one list per ``to``): its output index
    in :func:`_apply_rows`, a clip box inside box(cur) as its u side
    and w side (two pairs each), a shift (su, sw) as two pairs, whether the
    clip's sides are box(cur)'s whole sides, and the clip's image as its u
    side and w side.  A hit x maps to x*k + s per coordinate, k's integer
    matrix being ``fu`` or ``fw`` and ``flip_*`` marking a negative k;
    ``sides[c]`` holds box(c)'s u side and w side.  Forward, cur is i, the
    clip is phi^-1(comp - shift), whose image is comp, with factors
    (lam, mu) and the table's shift, and the index is that of the entry's
    ``to`` in ``succ[i]``, i's successors.  Backward, cur is the entry's
    ``to``, the clip is comp, whose image is phi^-1(comp - shift), with
    factors (1/lam, 1/mu) and shift -phi^-1(shift), and the index is 0.
    Raises :class:`InvariantError` when a clip leaves box(cur) or has an
    empty side: the kernel's shortcuts assume neither happens."""

    def build():
        basis, table, succ = strip_basis(part), step_rows(part), step_successors(part)
        back_u, back_w = basis.factor(False, True), basis.factor(False, False)
        flip_u, flip_w = part.lam_act.sign() < 0, part.mu_act.sign() < 0
        sides = [(box[:4], box[4:]) for box in basis.boxes]
        rows = []
        for i, entries in enumerate(table):
            lead = {to: k if forward else 0 for k, to in enumerate(succ[i])}
            rows.append([] if forward else {})
            for to, _, (sux, suy, swx, swy), comp in entries:
                cur = i if forward else to
                box_u, box_w = sides[cur]
                comp_u, comp_w = comp[:4], comp[4:]
                # -phi^-1(shift), so that phi^-1(x - shift) = x/k + back
                m00, m01, m10, m11 = back_u
                bux, buy = -(m00 * sux + m01 * suy), -(m10 * sux + m11 * suy)
                m00, m01, m10, m11 = back_w
                bwx, bwy = -(m00 * swx + m01 * swy), -(m10 * swx + m11 * swy)
                pre_u = side_image(comp_u, back_u, bux, buy, flip_u)
                pre_w = side_image(comp_w, back_w, bwx, bwy, flip_w)
                if forward:
                    clip_u, clip_w, img_u, img_w = pre_u, pre_w, comp_u, comp_w
                    shift = (sux, suy, swx, swy)
                else:
                    clip_u, clip_w, img_u, img_w = comp_u, comp_w, pre_u, pre_w
                    shift = (bux, buy, bwx, bwy)
                if not (basis.inside(clip_u, box_u) and basis.inside(clip_w, box_w)):
                    raise InvariantError(f"a clip of the step {(i, to)} leaves "
                                         f"box({cur}) or has an empty side")
                out = rows[-1] if forward else rows[-1].setdefault(to, [])
                out.append((lead[to], clip_u, clip_w, *shift, clip_u == box_u, clip_w == box_w,
                            img_u, img_w))
        return (rows, sides, basis.factor(forward, True), basis.factor(forward, False),
                flip_u, flip_w, basis, succ)

    return cached(part, "_forward_strips" if forward else "_backward_strips", build)


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
            ku = side_image(u_side, fu, 0, 0, flip_u)
        if not whole_w:
            kw = side_image(w_side, fw, 0, 0, flip_w)
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
    return side_image((lo_x, lo_y, hi_x, hi_y), factor, sx, sy, flip)


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
    strips = [strip_basis(part).boxes[cur]]
    for sym in reversed(word[:-1]):
        strips = pullback_strips(part, strips, cur, sym)
        cur = sym
    return strips


def partition_diam_sq(part: TorusPartition) -> QuadReal:
    """Exact squared diameter of the partition (largest cell diameter),
    cached on the partition."""
    return cached(part, "_diam_sq",
                  lambda: max(box.diam_sq(part.frame) for box in part.boxes))


