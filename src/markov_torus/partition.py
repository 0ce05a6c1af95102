"""Partitions of the torus into eigen-aligned open parallelograms.

A cell is an open box in the (expanding, contracting) frame coordinates of a
hyperbolic matrix; its plane image is a parallelogram spanned by the
eigenvectors.  A :class:`TorusPartition` bundles the frame, the acting matrix
(diagonal in frame coordinates), and one plane representative box per cell;
the torus cell is the image of the box under the quotient map.

Everything here is exact, and the hot paths run on integers over one common
denominator.  Lattice scans and overlap tables use a :class:`_Grid`, whose
values are pairs (A, B) = (A + B*sqrt(D)) / Q: a scan runs column by column
over the box's plane x-extent, each column's n-interval having exact integer
floors for ends.  All-pairs overlaps (:func:`_int_overlaps`) take one scan
per moving cell and decode entries into boxes only where a caller reads one.
The step table of a partition is such a table, for the forward images of its
cells, cached in integers and overlap-checked once: the only source of
transitions in both directions (graph, refinement, successor lists, cylinder
steps), so a partition's overlaps are scanned once.

Cylinders and points live in a per-partition :class:`StripBasis`: pairs
(X, Y) = (X + Y*lam) / Q over the module (1/Q)*Z[lam], where multiplying by
lam, mu or their inverses is a fixed integer matrix.  A piece is a strip of
eight integers, stepped by one kernel, :func:`_step_strips`, over entry
lists derived from the step table once per direction.  Pieces and entry
boxes lie in the cell being stepped, so on an axis where either spans the
cell's whole side the clip is the other's side: on a Markov partition no
step compares a bound, and only a partition that breaks it (a dented cell)
reaches the sign tests.  A point is a :class:`ModPoint`, its coordinates
over one denominator k; the acting matrix moves its numerators, and its
frame pairs over Q*k are a fixed integer map of them.  :func:`locate` moves
those pairs by each entry of a cover list, cached on the partition, of every
(cell, translate) whose closed box can meet the unit square, and tests them
against the cell's strip.

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
  the line modulo the lattice (:func:`lattice_coords`);
* ``verify_nfold_range`` -- every word admissible for the transition graph,
  with length in a range, has a nonempty cylinder, by exact strip stepping;
* ``verify_generator_decay`` -- symmetric refinements shrink like |mu|^n, by
  exact dimension bookkeeping cross-checked against enumerated cells.

Everything that enumerates words goes through one iterative walker,
:func:`walk_words`, which steps strips with :func:`advance_strips` and hands
each word, with its strips, to several :class:`WordVisitor` objects at once:
``refinement_cells_depth``, ``verify_nfold_range`` and the window check of
``verify_generator_decay``.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .exact import QuadReal, _reduced, _sign, floor_surd
from .sft import TransitionGraph
from .torus import EigenFrame, InvariantError, Mat2Z, lattice_coords


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

    def meets_closed(self, other: "EigenRect") -> bool:
        return (
            max(self.u_lo, other.u_lo) <= min(self.u_hi, other.u_hi)
            and max(self.w_lo, other.w_lo) <= min(self.w_hi, other.w_hi)
        )

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

# a box's bounds u_lo, u_hi, w_lo, w_hi as integer pairs of a _Grid
Box = tuple[int, int, int, int, int, int, int, int]


def _frame_forms(frame: EigenFrame):
    """What every :class:`_Grid` of a frame starts from, cached on the
    frame: the lcm of the generators' denominators; vl0 and vm0 over their
    common denominator V, with their signs (x = u*vl0 + w*vm0 is monotone in
    u and w, so two corners bound it); and per frame coordinate c, the
    n-bound (bound - c10*m) / c01 as bound*inv + slope*m, the bounds swapped
    for a negative c01."""

    def build():
        gens_q = math.lcm(frame.u10.q, frame.u01.q, frame.w10.q, frame.w01.q)
        vl0, vm0 = frame.eig.v_lam[0], frame.eig.v_mu[0]
        v = math.lcm(vl0.q, vm0.q)
        x_form = (vl0.a * (v // vl0.q), vl0.b * (v // vl0.q),
                  vm0.a * (v // vm0.q), vm0.b * (v // vm0.q), v,
                  vl0.sign() > 0, vm0.sign() > 0)
        n_forms = []
        for c10, c01 in ((frame.u10, frame.u01), (frame.w10, frame.w01)):
            inv = c01.inverse()
            n_forms.append((inv, -c10 * inv, c01.sign() < 0))
        return gens_q, x_form, n_forms

    return _cached(frame, "_grid_forms", build)


class _Grid:
    """Lattice scans in integers, over one common denominator.

    Q is the lcm of the denominators of the values the grid is made for and
    of the lattice generators' frame coordinates.  Each such value, and each
    sum of them (a lattice point's frame coordinates m*U10 + n*U01
    included), is the integer pair (A, B) of (A + B*sqrt(D)) / Q: x < y is
    one ``_sign`` of the difference, and a value is decoded where read.
    """

    def __init__(self, frame: EigenFrame, values: Iterable[QuadReal]):
        d = frame.eig.disc
        gens_q, x_form, n_forms = _frame_forms(frame)
        q = gens_q
        for x in values:
            if x.d not in (0, d):
                raise ValueError(f"mixed radicands {x.d} and {d}")
            q = math.lcm(q, x.q)
        self.d, self.q = d, q
        self.u10, self.u01, self.w10, self.w01 = map(
            self.pair, (frame.u10, frame.u01, frame.w10, frame.w01))
        la, lb, ma, mb, v, l_pos, m_pos = x_form
        self.x_form = (la, lb, ma, mb, q * v, l_pos, m_pos)
        # for a bound (A, B), bound*inv + slope*m is
        # ((A*p + B*r + a1*m) + (A*s + B*p + b1*m)*sqrt(D)) / L
        self.n_forms = []
        for inv, slope, flip in n_forms:
            den = math.lcm(q * inv.q, slope.q)
            k = den // (q * inv.q)
            ks = den // slope.q
            self.n_forms.append((inv.a * k, inv.b * d * k, inv.b * k,
                                 slope.a * ks, slope.b * ks, den, flip))

    def pair(self, x: QuadReal) -> tuple[int, int]:
        """The pair (A, B) of x; :class:`InvariantError` for x off the
        common denominator."""
        k, rem = divmod(self.q, x.q)
        if rem:
            raise InvariantError(f"{x} lies off the grid's denominator {self.q}")
        return x.a * k, x.b * k

    def value(self, a: int, b: int) -> QuadReal:
        """The element (a + b*sqrt(D)) / Q, in canonical form."""
        return _reduced(a, b, self.q, self.d)

    def box(self, box: EigenRect) -> Box:
        pair = self.pair
        return (*pair(box.u_lo), *pair(box.u_hi), *pair(box.w_lo), *pair(box.w_hi))

    def scan(self, ula: int, ulb: int, uha: int, uhb: int,
             wla: int, wlb: int, wha: int, whb: int) -> list[tuple[int, int]]:
        """The lattice points (m, n) whose frame coordinates lie in the
        closed box with these bounds, in ascending (m, n) order.

        Column by column: m runs over the integers in the box's plane
        x-extent, and each closed constraint bounds n by an affine form
        (bound - c10*m) / c01 in m, c being the u- or w-coordinate of the
        lattice generators, so each column's n-interval ends are exact
        integer floors.  Every hit is re-checked against the box."""
        d, sign = self.d, _sign
        la, lb, ma, mb, xq, l_pos, m_pos = self.x_form
        u_ends, w_ends = ((ula, ulb), (uha, uhb)), ((wla, wlb), (wha, whb))
        (uxa, uxb), (uya, uyb) = u_ends if l_pos else u_ends[::-1]
        (wxa, wxb), (wya, wyb) = w_ends if m_pos else w_ends[::-1]
        m_lo = -floor_surd(-(uxa * la + uxb * lb * d + wxa * ma + wxb * mb * d),
                           -(uxa * lb + uxb * la + wxa * mb + wxb * ma), xq, d)
        m_hi = floor_surd(uya * la + uyb * lb * d + wya * ma + wyb * mb * d,
                          uya * lb + uyb * la + wya * mb + wyb * ma, xq, d)
        lows, highs = [], []
        for (p, r, s, a1, b1, den, flip), (lo_a, lo_b, hi_a, hi_b) in zip(
                self.n_forms, ((ula, ulb, uha, uhb), (wla, wlb, wha, whb))):
            lo = (lo_a * p + lo_b * r, a1, lo_a * s + lo_b * p, b1, den)
            hi = (hi_a * p + hi_b * r, a1, hi_a * s + hi_b * p, b1, den)
            lows.append(hi if flip else lo)
            highs.append(lo if flip else hi)
        (u10a, u10b), (u01a, u01b) = self.u10, self.u01
        (w10a, w10b), (w01a, w01b) = self.w10, self.w01
        hits = []
        for m in range(m_lo, m_hi + 1):
            n_lo = max(-floor_surd(-a0 - a1 * m, -b0 - b1 * m, den, d)
                       for a0, a1, b0, b1, den in lows)
            n_hi = min(floor_surd(a0 + a1 * m, b0 + b1 * m, den, d)
                       for a0, a1, b0, b1, den in highs)
            ua, ub = m * u10a + n_lo * u01a, m * u10b + n_lo * u01b
            wa, wb = m * w10a + n_lo * w01a, m * w10b + n_lo * w01b
            for n in range(n_lo, n_hi + 1):
                if (sign(ua - ula, ub - ulb, d) < 0 or sign(uha - ua, uhb - ub, d) < 0
                        or sign(wa - wla, wb - wlb, d) < 0
                        or sign(wha - wa, whb - wb, d) < 0):
                    raise InvariantError(f"column scan hit {(m, n)} lies outside the box")
                hits.append((m, n))
                ua, ub, wa, wb = ua + u01a, ub + u01b, wa + w01a, wb + w01b
        return hits


def lattice_in_frame_box(frame: EigenFrame, u_lo: QuadReal, u_hi: QuadReal,
                         w_lo: QuadReal, w_hi: QuadReal
                         ) -> list[tuple[tuple[int, int], tuple[QuadReal, QuadReal]]]:
    """All lattice points whose frame coordinates lie in the closed box, in
    ascending (m, n) order, each as ``((m, n), (qu, qw))`` with its frame
    coordinates, so that callers need not recompute them: one
    :meth:`_Grid.scan` over the box's bounds.  Every lattice scan of the
    package, the overlap tables' included, runs through here."""
    grid = _Grid(frame, (u_lo, u_hi, w_lo, w_hi))
    pair = grid.pair
    return [((m, n), frame.lattice_frame(m, n))
            for m, n in grid.scan(*pair(u_lo), *pair(u_hi), *pair(w_lo), *pair(w_hi))]


Overlap = tuple[tuple[int, int], tuple[QuadReal, QuadReal], EigenRect]
# an overlap in integers: ((m, n), (dua, dub, dwa, dwb), box), the frame
# coordinates of (m, n) and the bounds of the intersection as pairs of a _Grid
IntOverlap = tuple[tuple[int, int], tuple[int, int, int, int], Box]


def overlap_table(frame: EigenFrame, targets: Sequence[EigenRect],
                  movers: Sequence[EigenRect]) -> dict[tuple[int, int], list[Overlap]]:
    """Per pair (i, j) whose boxes overlap modulo the lattice, the
    :func:`translate_overlaps` entries of target j and mover i, in the same
    ascending lattice order; pairs without overlap are absent.  The entries
    of :func:`_int_overlaps`, decoded."""
    return _decoded(*_int_overlaps(frame, targets, movers))


def _int_overlaps(frame: EigenFrame, targets: Sequence[EigenRect],
                  movers: Sequence[EigenRect]
                  ) -> tuple[_Grid, dict[tuple[int, int], list[IntOverlap]]]:
    """:func:`overlap_table` in integers: one :class:`_Grid` for every bound
    of the targets and movers, and per overlapping pair (i, j) its entries
    as :data:`IntOverlap`.

    One lattice scan per mover, over the translates that bring it into the
    frame-coordinate hull of all targets.  Each hit is tested, by its open
    intersection, only against the targets sorted by ``w_lo`` with
    ``moved.w_lo - tallest < w_lo < moved.w_hi``, ``tallest`` being the
    largest target ``w_dim``: integer sums and sign tests of pairs.
    """
    grid = _Grid(frame, (x for box in itertools.chain(targets, movers)
                         for x in (box.u_lo, box.u_hi, box.w_lo, box.w_hi)))
    d, sign, pair = grid.d, _sign, grid.pair
    boxes = [grid.box(box) for box in targets]
    order = sorted(range(len(targets)), key=lambda j: targets[j].w_lo)
    lows = [boxes[j][4:6] for j in order]
    ta, tb = pair(max(box.w_dim for box in targets))
    u_lo = min(box.u_lo for box in targets)
    u_hi = max(box.u_hi for box in targets)
    w_lo, w_hi = targets[order[0]].w_lo, max(box.w_hi for box in targets)
    (u10a, u10b), (u01a, u01b) = grid.u10, grid.u01
    (w10a, w10b), (w01a, w01b) = grid.w10, grid.w01
    table: dict[tuple[int, int], list[IntOverlap]] = {}
    for i, mover in enumerate(movers):
        mula, mulb, muha, muhb, mwla, mwlb, mwha, mwhb = grid.box(mover)
        for (m, n), _ in lattice_in_frame_box(
                frame, u_lo - mover.u_hi, u_hi - mover.u_lo,
                w_lo - mover.w_hi, w_hi - mover.w_lo):
            dua, dub = m * u10a + n * u01a, m * u10b + n * u01b
            dwa, dwb = m * w10a + n * w01a, m * w10b + n * w01b
            ula, ulb, uha, uhb = mula + dua, mulb + dub, muha + dua, muhb + dub
            wla, wlb, wha, whb = mwla + dwa, mwlb + dwb, mwha + dwa, mwhb + dwb
            for k in range(_first_above(lows, wla - ta, wlb - tb, d), len(lows)):
                bwla, bwlb = lows[k]
                if sign(bwla - wha, bwlb - whb, d) >= 0:
                    break
                j = order[k]
                bula, bulb, buha, buhb, _, _, bwha, bwhb = boxes[j]
                lo = (bula, bulb) if sign(bula - ula, bulb - ulb, d) > 0 else (ula, ulb)
                hi = (buha, buhb) if sign(uha - buha, uhb - buhb, d) > 0 else (uha, uhb)
                if sign(hi[0] - lo[0], hi[1] - lo[1], d) <= 0:
                    continue
                wlo = (bwla, bwlb) if sign(bwla - wla, bwlb - wlb, d) > 0 else (wla, wlb)
                whi = (bwha, bwhb) if sign(wha - bwha, whb - bwhb, d) > 0 else (wha, whb)
                if sign(whi[0] - wlo[0], whi[1] - wlo[1], d) <= 0:
                    continue
                table.setdefault((i, j), []).append(
                    ((m, n), (dua, dub, dwa, dwb), (*lo, *hi, *wlo, *whi)))
    return grid, table


def _first_above(lows: list[tuple[int, int]], a: int, b: int, d: int) -> int:
    """:func:`bisect.bisect_right` of the value (a, b) in ascending pairs:
    the first index whose pair exceeds it, one sign test per step."""
    lo, hi = 0, len(lows)
    while lo < hi:
        mid = (lo + hi) // 2
        la, lb = lows[mid]
        if _sign(la - a, lb - b, d) > 0:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _decoded(grid: _Grid, table: dict[tuple[int, int], list[IntOverlap]]
             ) -> dict[tuple[int, int], list[Overlap]]:
    """The entries of an integer table as ``(q, (du, dw), overlap)``, every
    value decoded into canonical form."""
    value = grid.value
    return {pair: [(q, (value(dua, dub), value(dwa, dwb)),
                    _rect(value(ula, ulb), value(uha, uhb), value(wla, wlb), value(wha, whb)))
                   for q, (dua, dub, dwa, dwb), (ula, ulb, uha, uhb, wla, wlb, wha, whb)
                   in entries]
            for pair, entries in table.items()}


def _boxes_meet(a: Box, b: Box, d: int) -> bool:
    """Whether two open boxes of one grid overlap: along both axes, each
    starts below the other's end."""
    return all(_sign(a[k + 2] - b[k], a[k + 3] - b[k + 1], d) > 0
               and _sign(b[k + 2] - a[k], b[k + 3] - a[k + 1], d) > 0
               for k in (0, 4))


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
                ) -> list[list[tuple[tuple[int, int], tuple[int, int, int, int]]]]:
    """Per cell, every translate q, with its frame pairs in the partition's
    :class:`StripBasis`, such that the cell's closed box moved back by q can
    meet the closed unit square, in ascending lattice order: where a point
    of [0, 1)^2 can lie in that cell.  Cached on the partition.

    One lattice scan per cell over the translates that bring the square's
    frame hull into the box's, kept when the two also meet along the plane
    axes: with u and w, the edge normals of both, so the test is exact."""

    def build():
        frame, basis = part.frame, _strip_basis(part)
        corners = [frame.lattice_frame(m, n) for m in (0, 1) for n in (0, 1)]
        su_lo, su_hi = min(u for u, _ in corners), max(u for u, _ in corners)
        sw_lo, sw_hi = min(w for _, w in corners), max(w for _, w in corners)
        cover = []
        for box in part.boxes:
            xs, ys = zip(*box.corners_plane(frame))
            x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
            cover.append([
                ((m, n), basis.frame(ModPoint(m, 0, n, 0, 1, False)))
                for (m, n), _ in lattice_in_frame_box(
                    frame, box.u_lo - su_hi, box.u_hi - su_lo,
                    box.w_lo - sw_hi, box.w_hi - sw_lo,
                )
                if x_lo <= m + 1 and m <= x_hi and y_lo <= n + 1 and n <= y_hi
            ])
        return cover

    return _cached(part, "_cover", build)


def locate(part: TorusPartition, point) -> CellHit | BoundaryHit:
    """Exact cell membership for a plane point, rational or field-valued, or
    its :class:`ModPoint`: no lattice scan and no field element.  The point,
    reduced into [0, 1)^2, is moved by each translate of the cover list and
    its frame pairs tested against the cell's strip; the translates are then
    shifted back by the floor, so they apply to the point as given."""
    basis = _strip_basis(part)
    mod = point if isinstance(point, ModPoint) else basis.point(point)
    mod, fx, fy = basis.reduce(mod)
    (u0, u1, w0, w1), k = basis.frame(mod), mod.k
    interior: list[CellHit] = []
    boundary: list[CellHit] = []
    for i, entries in enumerate(_cover_list(part)):
        for (m, n), (qu0, qu1, qw0, qw1) in entries:
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
    of phi(R_i) intersected with R_j on the torus, the entries of the forward
    step table for (i, j), counted without decoding them.  Cached on the
    partition."""
    n = part.n

    def build():
        table = _step_ints(part)[1]
        return TransitionGraph([[len(table.get((i, j), ())) for j in range(n)]
                                for i in range(n)])

    return _cached(part, "_transition_graph", build)


def refine(part: TorusPartition) -> list[RefinementCell]:
    """Cells of the common refinement of the partition and its image.

    Each returned cell is a component of phi(R_i) meet R_j, an entry of the
    forward step table, with word (i, j) at offset -1, anchored in R_j's box.
    Cells are grouped by (i, j) in lexicographic order and within a group by
    contracting coordinate, which is deterministic.  Cached on the partition;
    each call gets a new list.
    """

    def build():
        cells = []
        for pair, entries in sorted(_step_table(part).items()):
            comps = sorted((comp for _, _, comp in entries),
                           key=lambda comp: (comp.w_lo, comp.u_lo))
            cells += [RefinementCell(symbols=pair, offset=-1, rect=comp)
                      for comp in comps]
        return tuple(cells)

    return list(_cached(part, "_refinement", build))


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
    plus ``#k`` for the k-th of several components of one word."""
    cells = refine(part)
    labels = []
    for (i, j), group in itertools.groupby(cells, key=lambda cell: cell.symbols):
        word = f"{part.labels[i]},{part.labels[j]}@-1"
        count = len(list(group))
        labels += [word] if count == 1 else [f"{word}#{k}" for k in range(count)]
    return TorusPartition.build(part.frame, part.acting,
                                (cell.rect for cell in cells), labels)


def _step_table(part: TorusPartition) -> dict[tuple[int, int], list[Overlap]]:
    """Per cell pair (cur, nxt) where phi(box cur) meets box(nxt) modulo the
    lattice: the :func:`translate_overlaps` entries ``(q, (du, dw), comp)``
    of the one pair, in lattice order: :func:`_step_ints`, decoded on the
    first read and cached on the partition, for :func:`refine`.

    For any piece inside box(cur), the lattice translates of its image that
    meet box(nxt) are among the tabulated ones, and each overlap equals
    (phi(piece) + shift) intersected with the tabulated component.  Read
    backwards, each entry is a component of phi^-1(box nxt) meeting box(cur),
    so the table serves both step directions (:func:`_strip_entries`)."""
    return _cached(part, "_forward_table", lambda: _decoded(*_step_ints(part)))


def _step_ints(part: TorusPartition
               ) -> tuple[_Grid, dict[tuple[int, int], list[IntOverlap]]]:
    """The forward step table in integers, one :func:`_int_overlaps` of the
    cells' forward images against the cells, cached on the partition.
    Raises :class:`InvariantError` when two entries of one pair overlap: the
    stepped cell then overlaps its own lattice translate."""

    def build():
        grid, table = _int_overlaps(part.frame, part.boxes,
                                    [part.phi_box(b) for b in part.boxes])
        for entries in table.values():
            for (_, _, a), (_, _, b) in itertools.combinations(entries, 2):
                if _boxes_meet(a, b, grid.d):
                    raise InvariantError("image strips overlap inside one cell")
        return grid, table

    return _cached(part, "_step_ints", build)


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
    """Integer coordinates for the strip bounds of one partition.

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
    u = x*u10 + y*u01 and w = x*w10 + y*w01, with the generators' pairs.
    """

    t: int
    delta: int
    a: int
    b: int
    q: int
    d: int
    modulus: int
    boxes: tuple[Strip, ...]
    frame_map: tuple[int, ...] = ()

    def pair(self, x: QuadReal) -> tuple[int, int]:
        """The pair (X, Y) of x; :class:`InvariantError` for x outside
        the module."""
        if x.d not in (0, self.d):
            raise InvariantError(f"{x} lies outside the strip module")
        return self.pair_of(x.a, x.b, x.q)

    def pair_of(self, a: int, b: int, q: int) -> tuple[int, int]:
        """The pair (X, Y) of (a + b*sqrt(d)) / q, in lowest terms or not.
        sqrt(d) is (self.q*lam - self.a) / self.b, so X and Y are
        (a*self.b - b*self.a)*Q / (q*self.b) and b*self.q*Q / (q*self.b);
        :class:`InvariantError` where they are not integers."""
        scale = q * self.b
        big_x, rem_x = divmod((a * self.b - b * self.a) * self.modulus, scale)
        big_y, rem_y = divmod(b * self.q * self.modulus, scale)
        if rem_x or rem_y:
            raise InvariantError(
                f"{_reduced(a, b, q, self.d)} lies outside the strip module")
        return big_x, big_y

    def over(self, x: QuadReal) -> tuple[int, int, int]:
        """(X, Y, N) with x = (X + Y*lam) / N and N > 0, for any x of the
        field: :meth:`pair_of`'s numerators over their own denominator."""
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

    def sign(self, big_x: int, big_y: int) -> int:
        """The sign of (X + Y*lam): that of its multiple by q, which is
        (X*q + Y*a) + Y*b*sqrt(d)."""
        return _sign(big_x * self.q + big_y * self.a, big_y * self.b, self.d)

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
        """The point reduced into [0, 1)^2, and the floors taken off: each
        coordinate's is floor(((X*q + Y*a) + Y*b*sqrt(d)) / (k*q))."""
        x0, x1, y0, y1, k, field = point
        fx, fy = (floor_surd(big_x * self.q + big_y * self.a, big_y * self.b, k * self.q,
                             self.d) for big_x, big_y in ((x0, x1), (y0, y1)))
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
    """The partition's :class:`StripBasis`, built on the first strip step
    and cached on the partition."""

    def build():
        acting, lam = part.acting, part.lam_act
        t, delta = acting.trace(), acting.det()
        if lam * lam != lam * t - delta or part.mu_act != t - lam:
            raise InvariantError("the acting eigenvalues do not solve "
                                 "x^2 = t*x - delta with lam + mu = t")
        frame = part.frame
        modulus = 1
        for x in itertools.chain(
                (x for box in part.boxes
                 for x in (box.u_lo, box.u_hi, box.w_lo, box.w_hi)),
                (frame.u10, frame.u01, frame.w10, frame.w01)):
            modulus = math.lcm(modulus, abs(lam.b) * x.q)
        basis = StripBasis(t, delta, lam.a, lam.b, lam.q, lam.d, modulus, ())
        frame_map = ()
        for c10, c01 in ((frame.u10, frame.u01), (frame.w10, frame.w01)):
            e, f = basis.times(basis.pair(c10)), basis.times(basis.pair(c01))
            frame_map += (e[0], e[1], f[0], f[1], e[2], e[3], f[2], f[3])
        return replace(basis, boxes=tuple(basis.strip(box) for box in part.boxes),
                       frame_map=frame_map)

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
    :func:`_step_strips` pass over the forward entry lists."""
    steps = part.__dict__.get("_forward_strips") or _strip_entries(part, True)
    return _step_strips(steps, strips, cur, nxt)


def pullback_strips(part: TorusPartition, strips: Sequence[Strip], cur: int,
                    prv: int) -> list[Strip]:
    """One backward step: components of phi^-1(strip) meeting box(prv),
    anchored there.  Strips must lie inside box(cur).  One
    :func:`_step_strips` pass over the backward entry lists, which read the
    forward step table's entries for (prv, cur) backwards; the strips come
    out in the table's lattice order."""
    steps = part.__dict__.get("_backward_strips") or _strip_entries(part, False)
    return _step_strips(steps, strips, cur, prv)


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
    """``(entries, sides, fu, fw, flip_u, flip_w, basis)`` for one direction
    of strip steps, derived from the integer step table
    (:func:`_step_ints`) on the first step and cached on the partition.

    ``entries[(cur, to)]`` holds one row per table entry, in order: a
    clip box inside box(cur) as its u side and w side (two pairs each), a
    shift (su, sw) as two pairs, whether the clip's sides are box(cur)'s
    whole sides, and the clip's image as its u side and w side.  A hit x
    maps to x*k + s per coordinate, k's integer matrix being ``fu`` or
    ``fw`` and ``flip_*`` marking a negative k; ``sides[c]`` holds box(c)'s
    u side and w side.  Forward,
    the clip is phi^-1(comp - shift), whose image is comp, with factors
    (lam, mu) and the table's shift; backward, the clip is comp, whose
    image is phi^-1(comp - shift), with factors (1/lam, 1/mu) and shift
    -phi^-1(shift).  Raises :class:`InvariantError` for a table over
    another radicand or a value outside the basis's module, and when a
    clip leaves box(cur) or has an empty side: the kernel's shortcuts
    assume neither happens."""

    def build():
        basis = _strip_basis(part)
        grid, table = _step_ints(part)
        if grid.d != basis.d:
            raise InvariantError(f"the step table's radicand {grid.d} is not "
                                 f"the strip basis's {basis.d}")

        def pair(a: int, b: int) -> tuple[int, int]:
            return basis.pair_of(a, b, grid.q)

        back_u, back_w = basis.factor(False, True), basis.factor(False, False)
        flip_u, flip_w = part.lam_act.sign() < 0, part.mu_act.sign() < 0
        sides = [(box[:4], box[4:]) for box in basis.boxes]
        entries = {}
        for (i, j), overlaps in table.items():
            cur = i if forward else j
            box_u, box_w = sides[cur]
            rows = entries[(i, j) if forward else (j, i)] = []
            for _, (dua, dub, dwa, dwb), (ula, ulb, uha, uhb, wla, wlb, wha, whb) in overlaps:
                comp_u = (*pair(ula, ulb), *pair(uha, uhb))
                comp_w = (*pair(wla, wlb), *pair(wha, whb))
                sux, suy = pair(dua, dub)
                swx, swy = pair(dwa, dwb)
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
                rows.append((clip_u, clip_w, *shift, clip_u == box_u,
                             clip_w == box_w, img_u, img_w))
        return (entries, sides, basis.factor(forward, True),
                basis.factor(forward, False), flip_u, flip_w, basis)

    return _cached(part, "_forward_strips" if forward else "_backward_strips", build)


def _step_strips(steps, strips: Sequence[Strip], cur: int, to: int) -> list[Strip]:
    """The strip-step kernel: each strip, against each entry of (cur, to),
    is clipped to the entry's box and only a nonempty hit is mapped.

    Strips must lie inside box(cur), as a box or a strip that a step to cur
    returned does; so does every clip, with both sides nonempty
    (:func:`_strip_entries` checks).  So on an axis where either side is
    box(cur)'s whole side, clipping compares nothing: a whole strip side
    leaves the clip's side, whose image the row holds, and a whole clip
    side leaves the strip's side, which is only mapped.  Other sides go
    through :func:`_clip_side`; on a Markov partition none does (forward,
    every strip spans box(cur)'s u side and every clip its w side, and
    backward the reverse).  A step builds no field element."""
    entries, sides, fu, fw, flip_u, flip_w, basis = steps
    rows = entries.get((cur, to))
    if not rows:
        return []
    box_u, box_w = sides[cur]
    out = []
    for strip in strips:
        u_side, w_side = strip[:4], strip[4:]
        whole_u, whole_w = u_side == box_u, w_side == box_w
        # a side that may pass through, times k: each row adds its shift
        if not whole_u:
            ku = _side_image(u_side, fu, 0, 0, flip_u)
        if not whole_w:
            kw = _side_image(w_side, fw, 0, 0, flip_w)
        for (clip_u, clip_w, sux, suy, swx, swy, clip_whole_u, clip_whole_w,
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
            out.append(u + w)
    return out


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
        for i, j in sorted(_step_ints(part)[1]):
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
    cylinder, anchored in box(s_k), one :func:`advance_strips` step from its
    parent's.  Words of each length arrive in lexicographic order; an empty
    cylinder's descendants are visited with no strips and cost no step.

    An exception raised by a visitor is kept on its ``error`` and stops that
    visitor alone; one raised by the walk itself is kept on every visitor
    still running.
    """
    live = list(visitors)
    try:
        succ = _step_successors(part)
        step = advance_strips
        boxes = _strip_basis(part).boxes
        word: list[int] = []
        stack = [(0, sym, None) for sym in reversed(range(part.n))]
        limit = max((v.max_len for v in live), default=0)
        while live and stack:
            depth, sym, parent = stack.pop()
            if depth >= limit:
                continue
            del word[depth:]
            if parent is None:
                pieces = [boxes[sym]]
            else:
                pieces = step(part, parent, word[-1], sym) if parent else []
            word.append(sym)
            failed = False
            for v in live:
                if depth < v.max_len:
                    try:
                        v.visit(word, pieces)
                    except Exception as exc:
                        v.error = exc
                        failed = True
            if failed:
                live = [v for v in live if v.error is None]
                limit = max((v.max_len for v in live), default=0)
            if depth + 1 < limit:
                stack.extend((depth + 1, nxt, pieces) for nxt in reversed(succ[sym]))
    except Exception as exc:
        for v in live:
            v.error = exc


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
    table = _int_overlaps(part.frame, part.boxes, part.boxes)[1]
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


def _edge_gaps(kind: str, edges: list[tuple[QuadReal, QuadReal, QuadReal]],
               line: tuple[QuadReal, QuadReal], span: tuple[QuadReal, QuadReal],
               line_factor: QuadReal, span_factor: QuadReal) -> list[AlignmentWitness]:
    """Witnesses for the edges (x, lo, hi), two per cell, whose image
    (line_factor*x, span_factor*[lo, hi]) the edges do not cover modulo the
    lattice.  ``line`` and ``span`` hold the generators' frame coordinates
    along and across the edges.  Lines x and y differ by a lattice point
    exactly when the :func:`lattice_coords` of x and y agree mod 1, so spans
    are listed per class, moved back by their integer part, and merged once
    into disjoint intervals that each image bisects."""
    def split(x: QuadReal) -> tuple[tuple[Fraction, Fraction], QuadReal]:
        s, t = lattice_coords(x, *line)
        m, n = math.floor(s), math.floor(t)
        return (s - m, t - n), span[0] * m + span[1] * n

    classes: dict[tuple[Fraction, Fraction], list[tuple[QuadReal, QuadReal]]] = {}
    for x, lo, hi in edges:
        key, shift = split(x)
        classes.setdefault(key, []).append((lo - shift, hi - shift))
    covers = {key: _merged(pieces) for key, pieces in classes.items()}
    witnesses = []
    for k, (x, lo, hi) in enumerate(edges):
        key, shift = split(line_factor * x)
        a, b = sorted((lo * span_factor, hi * span_factor))
        gap = _cover_gap(a - shift, b - shift, covers.get(key, ([], [])))
        if gap is not None:
            witnesses.append(AlignmentWitness(kind, k // 2, x, gap + shift))
    return witnesses


def verify_boundary_alignment(part: TorusPartition) -> list[AlignmentWitness]:
    """The Markov boundary condition, exactly.

    Constant-u edges of cells form the contracting boundary; the map takes a
    constant-u line to a constant-u line, and the image segment must be
    covered by boundary segments on that line (modulo lattice).  Dually, the
    inverse map must send constant-w edges into the expanding boundary.
    Returns witnesses for every uncovered image segment.
    """
    frame, boxes = part.frame, part.boxes
    v_edges = [(u, b.w_lo, b.w_hi) for b in boxes for u in (b.u_lo, b.u_hi)]
    h_edges = [(w, b.u_lo, b.u_hi) for b in boxes for w in (b.w_lo, b.w_hi)]
    u_gen, w_gen = (frame.u10, frame.u01), (frame.w10, frame.w01)
    return (_edge_gaps("contracting-edge", v_edges, u_gen, w_gen, part.lam_act, part.mu_act)
            + _edge_gaps("expanding-edge", h_edges, w_gen, u_gen,
                         part.mu_act.inverse(), part.lam_act.inverse()))


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
