"""Symbolic coding of orbits against the refinement cells.

``encode`` turns a rational point into its itinerary word, ``decode`` turns a
word back into the exact cylinder box it names (with center and diameter
bound), and ``preimage_report`` counts every admissible word whose closed
cylinder contains a point.  All arithmetic is exact; itineraries are computed
on the conjugated model torus, where the partition boxes live, and points are
carried across by the (unimodular, hence exact) conjugation.

``encode`` locates only the first iterate of its window.  From there it
follows the forward step table, which is the Markov property at work: if x
lies in R_i + q, its image lies in exactly one tabulated component of row i,
so each next symbol is the one component whose open box holds the stepped
frame coordinates (u, w) -> (lam*u, mu*w), shifted by that component's
translate.  No hit means the iterate lies on a component's closure, and
``locate`` on the exact plane iterate then names the candidate cells.
``locate`` itself scans no lattice: it tests the boxes of the partition's
precomputed cover list (:func:`partition._cover_list`).  Neither does
:meth:`DecodeResult.contains`: it steps the point to the word's first time,
where the cylinder sits inside the first symbol's cell, and tests that
cell's entries of the cover list.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .construct import MarkovConstruction, build_markov_construction
from .exact import QuadReal
from .partition import (
    BoundaryHit,
    CellHit,
    EigenRect,
    InvariantError,
    TorusPartition,
    _cover_list,
    _floor,
    _step_successors,
    _step_table,
    advance_strips,
    closed_translate_meets,
    cylinder_components,
    # not called here, but perfbench/tracing.py wraps it under this module
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


def _mod1(value):
    """Reduce an exact coordinate (Fraction or QuadReal) into [0, 1)."""
    return value - _floor(value)


def _point_mod1(point):
    x, y = point
    return (_mod1(x), _mod1(y))


def _cells(hits) -> tuple[int, ...]:
    """The cells of some :class:`CellHit` values, ascending and once each."""
    return tuple(sorted({h.index for h in hits}))


def _frame_of(frame: EigenFrame, point, translate) -> tuple[QuadReal, QuadReal]:
    """Frame coordinates of the plane point ``point`` + ``translate``."""
    pu, pw = frame.to_frame(point)
    qu, qw = frame.lattice_frame(*translate)
    return pu + qu, pw + qw


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
    The bound itself is kept squared because the diameter is a square root
    that generally leaves the quadratic field.
    """

    word: SymbolicWord
    partition: TorusPartition
    anchored: EigenRect
    rect: EigenRect
    center: tuple[QuadReal, QuadReal]
    diam_sq: QuadReal
    diameter_bound_sq: QuadReal

    @property
    def diam(self) -> float:
        return math.sqrt(float(self.diam_sq))

    @property
    def diameter_bound(self) -> float:
        return math.sqrt(float(self.diameter_bound_sq))

    def contains(self, point, closed: bool = True) -> bool:
        """Exact membership of a model-torus point in the cylinder: the
        point is in ``rect`` + q exactly when its iterate at ``word.offset``
        is in ``anchored`` + A^offset q, inside the first symbol's cell."""
        part, first = self.partition, self.word.symbols[0]
        y = _point_mod1((part.acting ** self.word.offset).act(point))
        yu, yw = part.frame.to_frame(y)
        for i, (m, n), moved in _cover_list(part):
            if i == first and moved.contains_frame(yu, yw, closed=True):
                qu, qw = part.frame.lattice_frame(m, n)
                if self.anchored.contains_frame(yu + qu, yw + qw, closed=closed):
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

    def to_model(self, point) -> tuple:
        """Carry a point of the input matrix's torus to the model torus."""
        return _point_mod1(self._from_input.act(point))

    def from_model(self, point) -> tuple:
        """Carry a model-torus point back to the input matrix's torus."""
        return _point_mod1(self.construction.conjugation.conjugator.act(point))

    # -- orbits ---------------------------------------------------------------

    def model_orbit(self, point_model, lo: int, hi: int) -> dict:
        """Exact iterates of the model map for times lo..hi inclusive."""
        if lo > hi:
            raise ValueError("empty time window")
        acting = self.part.acting
        backward = acting.inverse()
        orbit = {0: _point_mod1(point_model)}
        y = orbit[0]
        for k in range(1, hi + 1):
            y = _point_mod1(acting.act(y))
            orbit[k] = y
        y = orbit[0]
        for k in range(-1, lo - 1, -1):
            y = _point_mod1(backward.act(y))
            orbit[k] = y
        return {k: orbit[k] for k in range(lo, hi + 1)}

    def _closure_hits(self, y) -> tuple[CellHit, ...]:
        """Every (cell, translate) whose closed box holds ``y`` + translate:
        the :func:`locate` hits of the model-torus point ``y``."""
        hit = locate(self.part, y)
        return (hit,) if isinstance(hit, CellHit) else hit.candidates

    def _closure_cells(self, y) -> tuple[int, ...]:
        """Cells whose closure contains the model-torus point ``y``."""
        return _cells(self._closure_hits(y))

    @cached_property
    def _forward_rows(self) -> list[list[tuple[int, tuple, EigenRect]]]:
        """Per cell i, every entry of row i of the forward step table as
        ``(j, (du, dw), piece)``: the component of phi(box i) + (du, dw)
        meeting box j, moved back by (du, dw) into phi(box i).  A stepped
        point (u, w) lies in the component exactly when it lies in the
        piece, so the test needs no addition."""
        table = _step_table(self.part, False)
        return [[(j, shift, comp.translate(-shift[0], -shift[1]))
                 for j in row for _, shift, comp in table[i, j]]
                for i, row in enumerate(_step_successors(self.part))]

    # -- encoding ------------------------------------------------------------

    def encode(self, point, depth: int) -> SymbolicWord | BoundaryAmbiguity:
        """Itinerary of ``point`` (input-matrix torus) for iterates
        -depth..depth, or a :class:`BoundaryAmbiguity` describing the first
        iterate that lies on a cell boundary (no single word is canonical
        there).

        Only iterate -depth is located.  Each later iterate steps the frame
        coordinates of the previous one's representative and takes the one
        component of the forward step table's row that holds them; two
        raise :class:`InvariantError` (cells overlap), none hands the exact
        plane iterate to :func:`locate`, which finds the boundary."""
        if depth < 0:
            raise ValueError("depth must be >= 0")
        part, frame = self.part, self.frame
        start = _point_mod1((part.acting ** -depth).act(self.to_model(point)))
        hit = locate(part, start)
        if isinstance(hit, BoundaryHit):
            return BoundaryAmbiguity(-depth, start, _cells(hit.candidates))
        u, w = _frame_of(frame, start, hit.translate)
        cur = hit.index
        symbols = [cur]
        rows = self._forward_rows
        lam, mu = part.lam_act, part.mu_act
        for k in range(1 - depth, depth + 1):
            u, w = u * lam, w * mu
            nxt = None
            for j, step, piece in rows[cur]:
                if piece.contains_frame(u, w):
                    if nxt is not None:
                        raise InvariantError(
                            f"iterate {k} lies in two cells, {nxt} and {j}"
                        )
                    nxt, shift = j, step
            if nxt is None:
                # on a component's closure: name the candidates exactly
                y = _point_mod1((part.acting ** (k + depth)).act(start))
                hit = locate(part, y)
                if isinstance(hit, BoundaryHit):
                    return BoundaryAmbiguity(k, y, _cells(hit.candidates))
                cur = hit.index
                u, w = _frame_of(frame, y, hit.translate)
            else:
                cur = nxt
                u, w = u + shift[0], w + shift[1]
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

        Raises ``ValueError`` if the word leaves the symbol range or its
        cylinder is empty (the word is not admissible)."""
        for s in word.symbols:
            if not 0 <= s < self.part.n:
                raise ValueError(f"symbol {s} out of range 0..{self.part.n - 1}")
        pieces = cylinder_components(self.part, word.symbols)
        if not pieces:
            raise ValueError(f"word {word} names an empty cylinder")
        if len(pieces) > 1:
            raise InvariantError(
                f"cylinder of {word} is not connected on the refinement"
            )
        anchored = pieces[0]
        shift = -word.offset  # move the first constrained time to time zero
        rect = anchored.scaled(
            self.part.lam_act ** shift, self.part.mu_act ** shift
        )
        cu = (rect.u_lo + rect.u_hi) / 2
        cw = (rect.w_lo + rect.w_hi) / 2
        cx, cy = self.frame.to_plane(cu, cw)
        diam_sq = rect.diam_sq(self.frame)
        # a-priori decay bound from the shallower side of the window; for any
        # admissible word the mixed endpoint dimensions are dominated by the
        # dimensions of an actual cell, so the bound holds exactly
        half_depth = min(word.offset + len(word) - 1, -word.offset)
        bound_sq = partition_diam_sq(self.part) * (
            self.part.mu_act ** 2
        ) ** half_depth
        if (bound_sq - diam_sq).sign() < 0:
            raise InvariantError(
                f"cylinder of {word} exceeds its decay bound"
            )
        return DecodeResult(
            word=word,
            partition=self.part,
            anchored=anchored,
            rect=rect,
            center=(_mod1(cx), _mod1(cy)),
            diam_sq=diam_sq,
            diameter_bound_sq=bound_sq,
        )

    # -- preimage structure of the factor map ---------------------------------

    def preimage_report(self, point, depth: int, max_words: int = 8
                        ) -> PreimageReport:
        """All admissible words for the window -depth..depth that code
        ``point`` (input-matrix torus): the point lies in the closure of the
        word's (connected, nonempty) cylinder.

        Membership is tested geometrically against the partial cylinder at
        every step, not per-iterate against cell closures: the latter would
        let different times pick different lattice representatives and
        overcount.  For a point whose orbit window avoids all cell boundaries
        the answer is the single itinerary; on boundaries several words code
        the point."""
        if depth < 0:
            raise ValueError("depth must be >= 0")
        orbit = self.model_orbit(self.to_model(point), -depth, depth)
        length = 2 * depth + 1
        part, frame = self.part, self.frame
        closures: dict[int, list] = {}

        def closure(pos: int) -> list[tuple[int, list]]:
            # per cell j ascending, the frame coordinates of every
            # representative of the orbit point at position pos in box(j)'s
            # closure; a closed cylinder piece inside box(j) can only hold
            # one of these
            if pos not in closures:
                y = orbit[pos - depth]
                reps: dict[int, list] = {}
                for hit in self._closure_hits(y):
                    reps.setdefault(hit.index, []).append(
                        _frame_of(frame, y, hit.translate))
                closures[pos] = sorted(reps.items())
            return closures[pos]

        # preorder DFS with an explicit stack: each entry extends ``word``,
        # whose piece is the phi^(len(word)-1)-advanced partial cylinder
        # anchored in box(word[-1]), by symbol j
        found: list[SymbolicWord] = []
        stack = [((), part.boxes[i], i, None) for i, _ in reversed(closure(0))]
        while stack:
            word, piece, j, reps = stack.pop()
            if word:
                comps = advance_strips(part, [piece], word[-1], j)
                if not comps:
                    continue
                if len(comps) > 1:
                    raise InvariantError(
                        "cylinder split into several components on the refinement"
                    )
                piece = comps[0]
                if not any(piece.contains_frame(u, w, closed=True) for u, w in reps):
                    continue
            word += (j,)
            if len(word) == length:
                found.append(SymbolicWord(word, -depth))
            else:
                stack.extend((word, piece, k, pts)
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
