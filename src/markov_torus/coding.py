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
``encode`` locates only the first iterate of its window and then follows
the forward strip entries, the Markov property at work: if x lies in
R_i + q, its image lies in exactly one tabulated component of row i, so the
next symbol is the one row whose open image box holds the stepped frame
pairs (lam*u, mu*w) plus the row's shift.  No hit means the iterate lies on
a component's closure, and ``locate`` names the candidate cells.  Neither
``locate`` nor :meth:`DecodeResult.contains` scans a lattice: they test the
translates of the partition's cover list.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .construct import MarkovConstruction, build_markov_construction
from .exact import QuadReal
from .partition import (
    BoundaryHit,
    CellHit,
    EigenRect,
    InvariantError,
    ModPoint,
    Strip,
    TorusPartition,
    _cover_list,
    _side_image,
    _step_successors,
    _strip_basis,
    _strip_entries,
    advance_strips,
    closed_translate_meets,
    cylinder_strips,
    # not called here, but perfbench/tracing.py wraps them under this module
    cylinder_components,  # noqa: F401
    lattice_in_frame_box,  # noqa: F401
    locate,
    partition_diam_sq,
)
from .torus import EigenFrame, Mat2Z

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
        basis = _strip_basis(part)
        y = basis.reduce(basis.point(point).act(part.acting ** self.word.offset))[0]
        (u0, u1, w0, w1), k = basis.frame(y), y.k
        for _, (qu0, qu1, qw0, qw1) in _cover_list(part)[self.word.symbols[0]]:
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
    def from_matrix(cls, matrix: Mat2Z) -> "CodingContext":
        return cls(build_markov_construction(matrix))

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
        basis = _strip_basis(self.part)
        return basis.reduce(basis.point(point).act(mat))[0]

    def to_model(self, point) -> tuple:
        """Carry a point of the input matrix's torus to the model torus."""
        return _strip_basis(self.part).values(self._carried(point, self._from_input))

    def from_model(self, point) -> tuple:
        """Carry a model-torus point back to the input matrix's torus."""
        return _strip_basis(self.part).values(
            self._carried(point, self.construction.conjugation.conjugator))

    # -- orbits ---------------------------------------------------------------

    def model_orbit(self, point_model, lo: int, hi: int) -> dict:
        """Exact iterates of the model map for times lo..hi inclusive."""
        if lo > hi:
            raise ValueError("empty time window")
        values, acting = _strip_basis(self.part).values, self.part.acting
        return {t: values(self._carried(point_model, acting ** t)) for t in range(lo, hi + 1)}

    # -- encoding ------------------------------------------------------------

    def encode(self, point, depth: int) -> SymbolicWord | BoundaryAmbiguity:
        """Itinerary of ``point`` (input-matrix torus) for iterates
        -depth..depth, or a :class:`BoundaryAmbiguity` describing the first
        iterate that lies on a cell boundary (no single word is canonical
        there).

        Only iterate -depth is located.  Each later iterate steps the frame
        pairs of the previous one's representative by the forward factor
        matrices and takes the one forward strip row whose open image box
        holds them plus its shift; two raise :class:`InvariantError` (cells
        overlap), none hands the iterate to :func:`locate`."""
        if depth < 0:
            raise ValueError("depth must be >= 0")
        part = self.part
        basis = _strip_basis(part)
        start = self._carried(point, self._from_input @ part.acting ** -depth)
        hit = locate(part, start)
        if isinstance(hit, BoundaryHit):
            return BoundaryAmbiguity(-depth, basis.values(start), _cells(hit.candidates))
        cur, k = hit.index, start.k
        u0, u1, w0, w1 = basis.frame(start.moved(*hit.translate))
        symbols = [cur]
        entries, succ = _strip_entries(part, True)[0], _step_successors(part)
        (a, b, c, d), (e, f, g, h) = basis.factor(True, True), basis.factor(True, False)
        place = basis.place
        for time in range(1 - depth, depth + 1):
            u0, u1, w0, w1 = a * u0 + b * u1, c * u0 + d * u1, e * w0 + f * w1, g * w0 + h * w1
            nxt = None
            for j in succ[cur]:
                for _, _, su0, su1, sw0, sw1, _, _, img_u, img_w in entries[cur, j]:
                    at = (u0 + k * su0, u1 + k * su1, w0 + k * sw0, w1 + k * sw1)
                    if place(at, k, img_u + img_w) > 0:
                        if nxt is not None:
                            raise InvariantError(f"iterate {time} lies in two cells, "
                                                 f"{nxt} and {j}")
                        nxt, stepped = j, at
            if nxt is None:
                # on a component's closure: name the candidates exactly
                y = basis.reduce(start.act(part.acting ** (time + depth)))[0]
                hit = locate(part, y)
                if isinstance(hit, BoundaryHit):
                    return BoundaryAmbiguity(time, basis.values(y), _cells(hit.candidates))
                cur = hit.index
                u0, u1, w0, w1 = basis.frame(y.moved(*hit.translate))
            else:
                cur = nxt
                u0, u1, w0, w1 = stepped
            symbols.append(cur)
        word = SymbolicWord(tuple(symbols), -depth)
        matrix = self.construction.refined_graph.matrix
        for a, b in zip(symbols, symbols[1:]):
            if matrix[a][b] == 0:
                raise InvariantError(
                    f"itinerary {word} uses a non-edge {a}->{b}"
                )
        return word

    # -- decoding ------------------------------------------------------------

    def decode(self, word: SymbolicWord) -> DecodeResult:
        """Exact cylinder box named by ``word``.

        The cylinder's strip is scaled to time zero, and the decay bound
        d(partition)^2 * mu^(2h) taken, by integer factor-matrix powers.
        Raises ``ValueError`` if the word leaves the symbol range or its
        cylinder is empty (the word is not admissible)."""
        part = self.part
        for s in word.symbols:
            if not 0 <= s < part.n:
                raise ValueError(f"symbol {s} out of range 0..{part.n - 1}")
        strips = cylinder_strips(part, word.symbols)
        if not strips:
            raise ValueError(f"word {word} names an empty cylinder")
        if len(strips) > 1:
            raise InvariantError(f"cylinder of {word} is not connected on the refinement")
        basis = _strip_basis(part)
        strip, shift = strips[0], -word.offset  # first constrained time to zero
        lam, mu = basis.unit(True, shift), basis.unit(False, shift)
        rect = (_side_image(strip[:4], basis.times(lam), 0, 0, basis.sign(*lam) < 0)
                + _side_image(strip[4:], basis.times(mu), 0, 0, basis.sign(*mu) < 0))
        box = basis.rect(rect)
        cx, cy = self.frame.to_plane((box.u_lo + box.u_hi) / 2, (box.w_lo + box.w_hi) / 2)
        diam_sq = box.diam_sq(self.frame)
        # a-priori decay bound from the shallower side of the window; for any
        # admissible word the mixed endpoint dimensions are dominated by the
        # dimensions of an actual cell, so the bound holds exactly
        half_depth = min(word.offset + len(word) - 1, -word.offset)
        bound_sq = partition_diam_sq(part) * basis.value(*basis.unit(False, 2 * half_depth), 1)
        if (bound_sq - diam_sq).sign() < 0:
            raise InvariantError(f"cylinder of {word} exceeds its decay bound")
        return DecodeResult(
            word=word,
            partition=part,
            anchored=basis.rect(strip),
            rect=box,
            center=(cx - cx.floor(), cy - cy.floor()),
            diam_sq=diam_sq,
            diameter_bound_sq=bound_sq,
            anchored_strip=strip,
        )

    # -- preimage structure of the factor map ---------------------------------

    def preimage_report(self, point, depth: int, max_words: int = 8
                        ) -> PreimageReport:
        """All admissible words for the window -depth..depth that code
        ``point`` (input-matrix torus): the point lies in the closure of the
        word's (connected, nonempty) cylinder.

        Membership is tested against the partial cylinder at every step, not
        per iterate against cell closures, which would let different times
        pick different lattice representatives and overcount.  A point whose
        window avoids all cell boundaries has the single itinerary; on
        boundaries several words code it."""
        if depth < 0:
            raise ValueError("depth must be >= 0")
        part = self.part
        basis = _strip_basis(part)
        start = self._carried(point, self._from_input @ part.acting ** -depth)
        length = 2 * depth + 1
        closures: dict[int, list] = {}

        def closure(pos: int) -> list[tuple[int, list]]:
            # per cell j ascending, the frame pairs of every representative
            # of the orbit point at position pos in box(j)'s closure; a
            # closed cylinder piece inside box(j) can only hold one of these
            if pos not in closures:
                y = basis.reduce(start.act(part.acting ** pos))[0]
                hit = locate(part, y)
                reps: dict[int, list] = {}
                for h in (hit,) if isinstance(hit, CellHit) else hit.candidates:
                    reps.setdefault(h.index, []).append(basis.frame(y.moved(*h.translate)))
                closures[pos] = sorted(reps.items())
            return closures[pos]

        # preorder DFS with an explicit stack: each entry extends ``word``,
        # whose strip is the phi^(len(word)-1)-advanced partial cylinder
        # anchored in box(word[-1]), by symbol j
        found: list[SymbolicWord] = []
        boxes, k = basis.boxes, start.k
        stack = [((), boxes[i], i, None) for i, _ in reversed(closure(0))]
        while stack:
            word, strip, j, reps = stack.pop()
            if word:
                comps = advance_strips(part, [strip], word[-1], j)
                if not comps:
                    continue
                if len(comps) > 1:
                    raise InvariantError(
                        "cylinder split into several components on the refinement"
                    )
                strip = comps[0]
                if not any(basis.place(at, k, strip) >= 0 for at in reps):
                    continue
            word += (j,)
            if len(word) == length:
                found.append(SymbolicWord(word, -depth))
            else:
                stack.extend((word, strip, k, pts)
                             for k, pts in reversed(closure(len(word))))
        count = len(found)
        truncated = count > max_words
        return PreimageReport(
            depth, count, tuple() if truncated else tuple(found), truncated
        )

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
        return bool(closed_translate_meets(self.frame, r1, r2))

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
