"""Symbolic coding of orbits against the refinement cells.

``encode`` turns a rational point into its itinerary word, ``decode`` turns a
word back into the exact cylinder box it names (with center and diameter
bound), and ``preimage_report`` counts every admissible word whose closed
cylinder contains a point.  All arithmetic is exact; itineraries are computed
on the conjugated model torus, where the partition boxes live, and points are
carried across by the (unimodular, hence exact) conjugation.

A point enters the partition's strip basis once, as a ``ModPoint``:
matrices act on its integer numerators, its frame pairs meet strips in
integers, and field elements are built only for what a caller reads.
``encode`` and ``preimage_report`` locate only the first iterate of their
window and then step the point, the Markov property at work: if x lies in
R_i + q, its image lies in one tabulated component of row i, so the next
symbols are the rows whose image box holds the stepped frame pairs
(lam*u, mu*w) plus the row's shift (:func:`partition.forward_step`, cached
per partition).  ``encode`` takes the one open hit; none means the
iterate lies on a component's closure, and ``locate`` names the candidate
cells (an iterate it finds inside a cell is a gap in the table, raised).
``preimage_report`` follows every closed hit of every representative,
which finds the closed cylinders holding the point.  Neither ``locate``
nor :meth:`DecodeResult.contains` scans a lattice: they test the
translates of the partition's cover, per cell or bisected by w low.
``decode`` takes the centre, the squared diameter and the decay check in
integer pairs too, its diameters being :meth:`StripBasis.diam_sq`.  The
powers of the acting matrix that a window or a word's offset needs are
cached on the partition per exponent.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .basis import EigenRect, ModPoint, Strip, side_image, widths
from .construct import ConjugationResult, MarkovConstruction, build_markov_construction
from .exact import QuadReal
from .partition import (
    BoundaryHit,
    CellHit,
    TorusPartition,
    cached,
    closed_translate_meets,
    cover,
    cylinder_strips,
    forward_step,
    # not called here, but perfbench/tracing.py wraps them under this module
    advance_strips,  # noqa: F401
    cylinder_components,  # noqa: F401
    lattice_in_frame_box,  # noqa: F401
    locate,
    partition_diam_pair,
    partition_diam_sq,
    step_successors,
    strip_basis,
)
from .torus import EigenFrame, InvariantError, Mat2Z

__all__ = [
    "BoundaryAmbiguity",
    "SymbolicWord",
    "DecodeResult",
    "PreimageReport",
    "CodingContext",
    "torus_dist_sq",
]


def _cells(hits) -> tuple[int, ...]:
    """The cells of some :class:`CellHit` values, ascending and once each."""
    return tuple(sorted({h.index for h in hits}))


@dataclass(frozen=True)
class BoundaryAmbiguity:
    """Returned by :meth:`CodingContext.encode` when an orbit point lands on
    a cell boundary, so the itinerary is not unique.  ``time`` is the first
    such iterate, ``point`` the exact model-torus point there, and
    ``candidates`` the indices of every cell whose closure contains it.
    Ambiguity is a value, not an error: boundary points genuinely carry
    several histories."""

    time: int
    point: tuple
    candidates: tuple[int, ...]

    def __str__(self) -> str:
        return (
            f"iterate {self.time} lies on the boundary of cells "
            f"{','.join(str(c) for c in self.candidates)}"
        )


_WORD_RE = re.compile(
    r"^\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*(?:@\s*(-?\d+)\s*)?$"
)


@dataclass(frozen=True)
class SymbolicWord:
    """A finite word of cell indices; ``symbols[k]`` constrains iterate
    ``offset + k``."""

    symbols: tuple[int, ...]
    offset: int = 0

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("empty word")

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def times(self) -> range:
        return range(self.offset, self.offset + len(self.symbols))

    def __str__(self) -> str:
        return ",".join(str(s) for s in self.symbols) + f"@{self.offset}"

    @classmethod
    def parse(cls, text: str) -> "SymbolicWord":
        m = _WORD_RE.match(text)
        if m is None:
            raise ValueError(
                f"cannot parse word {text!r}; expected e.g. '0,2,1@-1'"
            )
        symbols = tuple(int(s) for s in m.group(1).split(","))
        offset = int(m.group(2)) if m.group(2) is not None else 0
        return cls(symbols, offset)


@dataclass(frozen=True)
class DecodeResult:
    """The exact cylinder set named by a word.

    ``partition`` is the refinement whose cells the word names.
    ``anchored`` is the plane representative of the cylinder as seen at the
    word's first time (a sub-box of the first symbol's cell); ``rect`` is the
    time-zero representative, i.e. the set of points whose iterate at
    ``word.offset + k`` lies in cell ``word.symbols[k]`` for every k.
    ``center`` is the exact plane center of ``rect`` reduced into [0, 1)^2.

    ``diameter_bound_sq`` is the squared a-priori bound
    d(partition)^2 * mu^(2 * min(forward depth, backward depth)); the exact
    squared diameter ``diam_sq`` never exceeds it (checked on construction).
    Both stay squared: a diameter generally leaves the quadratic field.
    ``anchored_strip`` is ``anchored`` as a strip, which ``contains`` tests.
    """

    word: SymbolicWord
    partition: TorusPartition
    anchored: EigenRect
    rect: EigenRect
    center: tuple[QuadReal, QuadReal]
    diam_sq: QuadReal
    diameter_bound_sq: QuadReal
    anchored_strip: Strip = field(repr=False)

    @property
    def diam(self) -> float:
        return math.sqrt(float(self.diam_sq))

    @property
    def diameter_bound(self) -> float:
        return math.sqrt(float(self.diameter_bound_sq))

    def contains(self, point, closed: bool = True) -> bool:
        """Exact membership of a model-torus point in the cylinder: the
        point is in ``rect`` + q exactly when its iterate at ``word.offset``
        is in ``anchored`` + A^offset q, inside the first symbol's cell: so
        at one of that cell's cover translates."""
        part = self.partition
        basis = strip_basis(part)
        y = basis.reduce(basis.point(point).act(_acting_power(part, self.word.offset)))[0]
        (u0, u1, w0, w1), k = basis.frame(y), y.k
        for _, (qu0, qu1, qw0, qw1) in cover(part)[0][self.word.symbols[0]]:
            place = basis.place((u0 + k * qu0, u1 + k * qu1, w0 + k * qw0, w1 + k * qw1),
                                k, self.anchored_strip)
            if place > 0 or (closed and place == 0):
                return True
        return False


@dataclass(frozen=True)
class PreimageReport:
    """Admissible words of a fixed window whose closed cylinders contain a
    point.  ``count`` is exact; ``words`` lists them unless there are more
    than the enumeration cap, in which case ``truncated`` is set."""

    depth: int
    count: int
    words: tuple[SymbolicWord, ...]
    truncated: bool


@dataclass(frozen=True)
class CodingContext:
    """Encode/decode against the refinement cells of one construction."""

    construction: MarkovConstruction

    @classmethod
    def from_matrix(cls, matrix: Mat2Z, conj: ConjugationResult | None = None
                    ) -> "CodingContext":
        """The context of ``matrix``'s construction; ``conj``, its reduction
        when already made, is reused."""
        return cls(build_markov_construction(matrix, conj))

    @property
    def part(self) -> TorusPartition:
        return self.construction.refined

    @property
    def frame(self) -> EigenFrame:
        return self.part.frame

    @property
    def n_cells(self) -> int:
        return self.part.n

    # -- conjugation transport ---------------------------------------------

    @cached_property
    def _from_input(self) -> Mat2Z:
        return self.construction.conjugation.conjugator.inverse()

    def _carried(self, point, mat: Mat2Z) -> ModPoint:
        """A plane point times ``mat``, reduced mod 1, in the strip basis."""
        basis = strip_basis(self.part)
        return basis.reduce(basis.point(point).act(mat))[0]

    def to_model(self, point) -> tuple:
        """Carry a point of the input matrix's torus to the model torus."""
        return strip_basis(self.part).values(self._carried(point, self._from_input))

    def from_model(self, point) -> tuple:
        """Carry a model-torus point back to the input matrix's torus."""
        return strip_basis(self.part).values(
            self._carried(point, self.construction.conjugation.conjugator))

    # -- orbits ---------------------------------------------------------------

    def model_orbit(self, point_model, lo: int, hi: int) -> dict:
        """Exact iterates of the model map for times lo..hi inclusive."""
        if lo > hi:
            raise ValueError("empty time window")
        values, acting = strip_basis(self.part).values, self.part.acting
        return {t: values(self._carried(point_model, acting ** t)) for t in range(lo, hi + 1)}

    # -- encoding ------------------------------------------------------------

    def encode(self, point, depth: int) -> SymbolicWord | BoundaryAmbiguity:
        """Itinerary of ``point`` (input-matrix torus) for iterates
        -depth..depth, or a :class:`BoundaryAmbiguity` describing the first
        iterate that lies on a cell boundary (no single word is canonical
        there).

        Only iterate -depth is located.  Each later iterate takes the one
        row of :func:`forward_step` whose open image holds the stepped
        point; two raise :class:`InvariantError` (cells overlap), none hands
        the iterate to :func:`locate`, and a cell it finds is a table gap,
        raised the same way."""
        if depth < 0:
            raise ValueError("depth must be >= 0")
        part = self.part
        basis = strip_basis(part)
        start = self._carried(point, self._from_input @ _acting_power(part, -depth))
        hit = locate(part, start)
        if isinstance(hit, BoundaryHit):
            return BoundaryAmbiguity(-depth, basis.values(start), _cells(hit.candidates))
        cur, k = hit.index, start.k
        pairs, symbols, step = basis.frame(start.moved(*hit.translate)), [cur], forward_step(part)
        for time in range(1 - depth, depth + 1):
            nxt = None
            for j, at, side in step(cur, pairs, k):
                if side > 0:
                    if nxt is not None:
                        raise InvariantError(f"iterate {time} lies in two cells, {nxt} and {j}")
                    nxt, stepped = j, at
            if nxt is None:
                # on a component's closure: name the candidates (an open hit is a table gap)
                y = basis.reduce(start.act(_acting_power(part, time + depth)))[0]
                hit = locate(part, y)
                if isinstance(hit, CellHit):
                    raise InvariantError(f"iterate {time} lies in cell {hit.index}, which "
                                         f"no step of cell {cur} reaches")
                return BoundaryAmbiguity(time, basis.values(y), _cells(hit.candidates))
            cur, pairs = nxt, stepped
            symbols.append(cur)
        word = SymbolicWord(tuple(symbols), -depth)
        succ = step_successors(part)
        for a, b in zip(symbols, symbols[1:]):
            if b not in succ[a]:
                raise InvariantError(f"itinerary {word} uses a non-edge {a}->{b}")
        return word

    # -- decoding ------------------------------------------------------------

    def decode(self, word: SymbolicWord) -> DecodeResult:
        """Exact cylinder box named by ``word``.

        All in the partition's strip basis: the cylinder's strip is scaled
        to time zero by integer factor-matrix powers; its centre, reduced
        mod 1 by an integer floor, is an integer pair over the basis's
        plane forms, its squared diameter is :meth:`StripBasis.diam_sq`,
        and the decay bound d(partition)^2 * mu^(2h) is checked against it
        by one sign test.  Field elements are built only for the result's
        fields.  Raises ``ValueError`` if the word leaves the symbol range
        or its cylinder is empty (the word is not admissible)."""
        part = self.part
        for s in word.symbols:
            if not 0 <= s < part.n:
                raise ValueError(f"symbol {s} out of range 0..{part.n - 1}")
        strips = cylinder_strips(part, word.symbols)
        if not strips:
            raise ValueError(f"word {word} names an empty cylinder")
        if len(strips) > 1:
            raise InvariantError(f"cylinder of {word} is not connected on the refinement")
        basis = strip_basis(part)
        strip, shift = strips[0], -word.offset  # first constrained time to zero
        lam, mu = basis.unit(True, shift), basis.unit(False, shift)
        rect = (side_image(strip[:4], basis.times(lam), 0, 0, basis.sign(*lam) < 0)
                + side_image(strip[4:], basis.times(mu), 0, 0, basis.sign(*mu) < 0))
        # the centre: the frame midpoint, over 2*Q, mapped to the plane by
        # v_lam and v_mu, over 2*Q*den, and reduced mod 1
        cu, cw = (rect[0] + rect[2], rect[1] + rect[3]), (rect[4] + rect[6], rect[5] + rect[7])
        center_den, center = 2 * basis.modulus * basis.den, []
        for vl, vm in basis.plane:
            (x0, y0), (x1, y1) = basis.mul(cu, vl), basis.mul(cw, vm)
            cx, cy = x0 + x1, y0 + y1
            cx -= basis.floor(cx, cy, center_den) * center_den
            center.append(basis.value(cx, cy, center_den))
        dx, dy = basis.diam_sq(*widths(rect))
        # a-priori decay bound from the shallower side of the window; for any
        # admissible word the mixed endpoint dimensions are dominated by the
        # dimensions of an actual cell, so the bound holds exactly
        half_depth = min(word.offset + len(word) - 1, -word.offset)
        ex, ey = basis.mul(basis.unit(False, 2 * half_depth), partition_diam_pair(part))
        if basis.sign(ex - dx, ey - dy) < 0:
            raise InvariantError(f"cylinder of {word} exceeds its decay bound")
        return DecodeResult(
            word=word,
            partition=part,
            anchored=basis.rect(strip),
            rect=basis.rect(rect),
            center=tuple(center),
            diam_sq=basis.diam_sq_value((dx, dy)),
            diameter_bound_sq=basis.diam_sq_value((ex, ey)),
            anchored_strip=strip,
        )

    # -- preimage structure of the factor map ---------------------------------

    def preimage_report(self, point, depth: int, max_words: int = 8
                        ) -> PreimageReport:
        """All admissible words for the window -depth..depth that code
        ``point`` (input-matrix torus): the point lies in the closure of the
        word's (connected, nonempty) cylinder.

        Only iterate -depth is located; its representatives in its
        candidate cells' closed boxes start the words.  A word's
        representatives are stepped (:func:`forward_step`), and each row
        whose closed image holds one extends the word, with the stepped
        pairs as its representatives.  On a Markov partition every
        admissible cylinder is a nonempty open box, so its closure is the
        intersection of the closed boxes along the word: the words reached
        are those of the closed cylinders holding the point.  A stepped
        representative in no closed row (a gap), or inside the boxes of two
        successors (an overlap), raises :class:`InvariantError`."""
        if depth < 0:
            raise ValueError("depth must be >= 0")
        part = self.part
        basis = strip_basis(part)
        start = self._carried(point, self._from_input @ _acting_power(part, -depth))
        hit = locate(part, start)
        starts: dict[int, list] = {}
        for h in (hit,) if isinstance(hit, CellHit) else hit.candidates:
            starts.setdefault(h.index, []).append(basis.frame(start.moved(*h.translate)))
        step, place, boxes, k = forward_step(part), basis.place, basis.boxes, start.k
        found: list[SymbolicWord] = []
        stack = [((i,), starts[i]) for i in sorted(starts, reverse=True)]
        while stack:
            word, reps = stack.pop()
            if len(word) == 2 * depth + 1:
                found.append(SymbolicWord(word, -depth))
                continue
            time, nxt = len(word) - depth, {}
            for pairs in reps:
                hits = step(word[-1], pairs, k)
                if not hits:
                    raise InvariantError(f"iterate {time} escaped the partition")
                inside = [j for j, at, _ in hits if place(at, k, boxes[j]) > 0]
                if len(inside) > 1:
                    raise InvariantError(f"iterate {time} lies in two cells, "
                                         f"{inside[0]} and {inside[1]}")
                for j, at, _ in hits:
                    nxt.setdefault(j, []).append(at)
            stack.extend((word + (j,), nxt[j]) for j in sorted(nxt, reverse=True))
        truncated = len(found) > max_words
        return PreimageReport(depth, len(found), () if truncated else tuple(found), truncated)

    def has_diamond(self, first: SymbolicWord, second: SymbolicWord) -> bool:
        """Whether two words exhibit the diamond pattern: they agree at some
        earlier and some later index, disagree strictly in between, and their
        cylinder closures meet on the torus (so at finite depth they could
        code a common point along two symbol routes)."""
        if first.offset != second.offset or len(first) != len(second):
            raise ValueError("words must share offset and length")
        agree = [i for i, (a, b) in enumerate(zip(first.symbols, second.symbols))
                 if a == b]
        if not agree:
            return False
        k, m = agree[0], agree[-1]
        if not any(first.symbols[l] != second.symbols[l] for l in range(k + 1, m)):
            return False
        r1 = self.decode(first).rect
        r2 = self.decode(second).rect
        return bool(closed_translate_meets(self.part, r1, r2))

    # -- resolution depth -----------------------------------------------------

    def resolving_depth(self) -> int:
        """Smallest half-window depth at which every cylinder's diameter drops
        below half the expansive constant, so a window of that depth pins the
        coded point to within the constant."""
        half_const = self.frame.eig.expansive_constant / 2
        target = half_const * half_const
        d_sq = partition_diam_sq(self.part)
        mu_sq = self.part.mu_act ** 2
        bound = d_sq
        depth = 0
        while bound >= target:
            bound = bound * mu_sq
            depth += 1
            if depth > 4096:
                raise InvariantError("diameter bound failed to contract")
        return depth


def _acting_power(part: TorusPartition, n: int) -> Mat2Z:
    """``part.acting ** n``, cached on the partition per exponent: callers
    ask for few (a window's depth, a word's offset, the iterates of a
    window)."""
    powers = cached(part, "_powers", dict)
    power = powers.get(n)
    if power is None:
        power = powers[n] = part.acting ** n
    return power


def torus_dist_sq(a, b) -> QuadReal:
    """Exact squared distance between two plane points on the torus (minimum
    over lattice translates, which separates per coordinate)."""

    def coord(da) -> QuadReal:
        if not isinstance(da, QuadReal):
            da = QuadReal(Fraction(da))
        near = (da + Fraction(1, 2)).floor()
        return min(
            (da - shift) ** 2 for shift in (near - 1, near, near + 1)
        )

    return coord(a[0] - b[0]) + coord(a[1] - b[1])
