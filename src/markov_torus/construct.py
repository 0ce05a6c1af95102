"""End-to-end construction of the two-cell Markov partition of a hyperbolic
torus automorphism.

The pipeline has three stages, each exact and each re-verified after the
fact:

1. ``conjugate_nonnegative`` -- a unimodular change of basis taking the
   defining matrix to ``epsilon * model`` with ``model`` entrywise
   nonnegative and oriented so its expanding slope lies in (0, 1).  The
   basis comes from the continued fraction of the expanding slope: the
   steps ``(0 1; 1 t)`` over its preperiod carry the slope to its purely
   periodic (reduced) tail, where the matrix is a sign times the
   nonnegative period product.  The identity is tried first, then that
   product forward and reversed; an axis swap orients the slope.  The
   change of basis is an automorphism of the torus, so every later result
   transports back to the original matrix.
2. ``build_base_partition`` -- in the eigenframe of the model matrix, two
   open parallelograms whose closures tile the torus.  When the contracting
   eigenvalue of the acting matrix is negative the cells are slid along the
   contracting line by an exact amount ``rho`` chosen so the contracting
   boundary still maps into itself.  The labelled vertices (o, a, b, ...)
   are derived when first read, for reports and figures: no check reads
   them, since the Markov property is one of the boxes.
3. ``build_markov_construction`` -- the refinement of the partition by its
   image, whose cells are in bijection with the edges of the transition
   graph; the geometric transition multiplicities are asserted to equal the
   model matrix, by two independent counts, and the refined graph to be
   T·S (S·T the model) on its rows per base cell, never as an N*×N* matrix.

Independent count: ``count_intersections`` counts integer translates of the
coordinate axes crossed by each image strip (shifted by the slide vector),
which never inspects cell intersections, yet must reproduce the matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from .basis import EigenRect
from .exact import QuadReal, cf_expand
from .partition import (
    RefinementCell,
    TorusPartition,
    factored,
    refine,
    refined_partition,
    transition_graph,
)
from .sft import TransitionGraph
from .torus import EigenData, EigenFrame, InvariantError, Mat2Z, hyperbolic_check
from .walk import verify_areas

_E = Mat2Z.swap()


# -- stage 1: reduction to a nonnegative model ---------------------------------


@dataclass(frozen=True)
class ConjugationResult:
    """Unimodular reduction ``conjugator @ original @ conjugator^-1 ==
    epsilon * model`` with ``model`` nonnegative and oriented (expanding
    slope strictly between 0 and 1).  ``eig`` is the model's eigen-data,
    computed once with the reduction and read by :meth:`verify` and
    :func:`build_base_partition`."""

    original: Mat2Z
    conjugator: Mat2Z
    model: Mat2Z
    epsilon: int
    swapped: bool  # an axis swap was composed in to orient the slope
    eig: EigenData | None = field(default=None, compare=False, repr=False)

    def verify(self) -> None:
        """Re-check every defining property, exactly; the slope on ``eig``
        when it is the model's, else on a new :func:`hyperbolic_check`."""
        if abs(self.conjugator.det()) != 1:
            raise InvariantError("conjugator is not unimodular")
        lhs = self.conjugator @ self.original @ self.conjugator.inverse()
        rhs = self.model if self.epsilon == 1 else -self.model
        if lhs != rhs:
            raise InvariantError("conjugation identity fails")
        if not self.model.is_nonnegative():
            raise InvariantError("model matrix has a negative entry")
        eig = self.eig
        if eig is None or eig.matrix != self.model:
            eig = hyperbolic_check(self.model)
        if eig.slope_lam.sign() <= 0 or (eig.slope_lam - 1).sign() >= 0:
            raise InvariantError("model expanding slope is not in (0, 1)")
        # forced for an oriented nonnegative hyperbolic matrix
        if self.model.a < 1 or self.model.b < 1 or self.model.c < 1:
            raise InvariantError("model matrix is not irreducible")


def _reducing_bases(eig) -> Iterator[Mat2Z]:
    """The identity, then the products of the continued-fraction steps
    ``(0 1; 1 t)`` over the expanding slope's preperiod, forward and
    reversed (see stage 1 above).  The fraction is expanded only once the
    identity has failed."""
    yield Mat2Z.identity()
    fwd = rev = Mat2Z.identity()
    for t in cf_expand(eig.slope_lam).preperiod:
        step = Mat2Z(0, 1, 1, t)
        fwd = fwd @ step
        rev = step @ rev
    yield fwd
    yield rev


def conjugate_nonnegative(matrix: Mat2Z) -> ConjugationResult:
    """Reduce a hyperbolic matrix to ``epsilon * model`` by a unimodular
    conjugation, with ``model`` nonnegative and its expanding slope in
    (0, 1).  Raises ``NotHyperbolicError``/``NotAutomorphismError`` for bad
    input and ``InvariantError`` if no candidate basis works (which the
    reduction theory of the expanding slope rules out)."""
    eig = hyperbolic_check(matrix)
    for cand in _reducing_bases(eig):
        conj = cand @ matrix @ cand.inverse()
        if conj.is_nonnegative():
            epsilon, model = 1, conj
        elif (-conj).is_nonnegative():
            epsilon, model = -1, -conj
        else:
            continue
        return _orient(matrix, cand, model, epsilon, eig if model == matrix else None)
    raise InvariantError(f"no nonnegative conjugate found for {matrix}")


def _orient(matrix: Mat2Z, conjugator: Mat2Z, model: Mat2Z, epsilon: int,
            eig: EigenData | None) -> ConjugationResult:
    """The reduction to ``model``, oriented; ``eig`` is the model's
    eigen-data when already known."""
    eig = eig or hyperbolic_check(model)
    swapped = False
    if (eig.slope_lam - 1).sign() > 0:
        conjugator = _E @ conjugator
        model = _E @ model @ _E
        swapped = True
        eig = hyperbolic_check(model)
    result = ConjugationResult(matrix, conjugator, model, epsilon, swapped, eig)
    result.verify()
    return result


# -- stage 2: the two-cell partition ----------------------------------------------


class SignCase(enum.Enum):
    """Signs of the acting matrix's (expanding, contracting) eigenvalues.

    The geometry only branches on the contracting sign: a negative
    contracting eigenvalue reverses the contracting boundary segment, and the
    partition must be slid along the contracting line to compensate.
    """

    PLUS_PLUS = (1, 1)
    PLUS_MINUS = (1, -1)
    MINUS_PLUS = (-1, 1)
    MINUS_MINUS = (-1, -1)

    @classmethod
    def of(cls, lam_act: QuadReal, mu_act: QuadReal) -> "SignCase":
        return cls((lam_act.sign(), mu_act.sign()))

    @property
    def translated(self) -> bool:
        return self.value[1] < 0


@dataclass(frozen=True)
class CornerPoint:
    """A named vertex of the construction, in frame and plane coordinates."""

    name: str
    u: QuadReal
    w: QuadReal
    x: QuadReal
    y: QuadReal


@dataclass(frozen=True)
class BaseConstruction:
    """The two-cell partition together with its defining data.  The
    labelled vertices, ``corners``, are derived from the frame and ``rho``
    when first read, for reports and figures, and then kept."""

    partition: TorusPartition
    sign_case: SignCase
    rho: QuadReal  # contracting slide; zero unless sign_case.translated

    @cached_property
    def corners(self) -> tuple[CornerPoint, ...]:
        return _corner_points(self.partition.frame, self.rho)

    def corner(self, name: str) -> CornerPoint:
        for point in self.corners:
            if point.name == name:
                return point
        raise KeyError(name)


_CORNER_NAMES = (
    "o", "o'", "o''", "o'''",
    "a", "a'", "a''", "a'''",
    "b", "b'", "b''",
    "c", "c'", "c_bar",
    "d_bar", "d'", "d_star",
)


def _corner_points(frame: EigenFrame, t: QuadReal) -> tuple[CornerPoint, ...]:
    """The labelled vertices of the construction.

    The ``o`` family are the unit-square lattice points.  The rest are
    intersections of eigen-directions through lattice points, all slid by
    ``t`` along the contracting direction (``t`` is zero in the untranslated
    cases, where the ``a`` family coincides with the ``o`` family).
    """
    zero = QuadReal(0)
    u10, w10, u01, w01 = frame.u10, frame.w10, frame.u01, frame.w01
    u11, w11 = u10 + u01, w10 + w01
    spots = {
        "o": (zero, zero), "o'": (u10, w10), "o''": (u11, w11), "o'''": (u01, w01),
        "a": (zero, t), "a'": (u10, w10 + t),
        "a''": (u11, w11 + t), "a'''": (u01, w01 + t),
        "b": (zero, t - w10), "b'": (u10, t), "b''": (u11, w01 + t),
        "c": (zero, w01 + t), "c'": (u10, w11 + t), "c_bar": (-u01, t),
        "d_bar": (zero, w01 - w10 + t), "d'": (u10, w01 + t),
        "d_star": (u10 - u01, t),
    }
    points = []
    for name in _CORNER_NAMES:
        u, w = spots[name]
        x, y = frame.to_plane(u, w)
        points.append(CornerPoint(name, u, w, x, y))
    return tuple(points)


def build_base_partition(model: Mat2Z, epsilon: int,
                         eig: EigenData | None = None) -> BaseConstruction:
    """The two-cell partition for the map defined by ``epsilon * model``.

    ``model`` must be nonnegative, hyperbolic and oriented (expanding slope
    in (0, 1)); ``eig``, its eigen-data, is computed unless given.  Cell I
    is the open parallelogram with frame box (0, u10) x (w01, 0), cell II
    is (u10, u11) x (w01, w11); when the acting contracting eigenvalue is
    negative both are slid by ``rho`` along the contracting direction,
    ``rho`` being pinned by requiring the image of the contracting boundary
    segment to end exactly at the slid origin."""
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    if not model.is_nonnegative():
        raise ValueError(f"model matrix {model} has a negative entry")
    if eig is None:
        eig = hyperbolic_check(model)
    elif eig.matrix != model:
        raise ValueError(f"eigen-data of {eig.matrix}, not of the model {model}")
    if eig.slope_lam.sign() <= 0 or (eig.slope_lam - 1).sign() >= 0:
        raise ValueError("model expanding slope must lie strictly in (0, 1)")
    frame = EigenFrame.from_eigen(eig)
    acting = model if epsilon == 1 else -model

    zero = QuadReal(0)
    u10, w10, u01, w01 = frame.u10, frame.w10, frame.u01, frame.w01
    u11, w11 = u10 + u01, w10 + w01
    for value, positive in ((u10, True), (w10, True), (u01, True),
                            (w01, False), (w11, False)):
        if (value.sign() > 0) != positive:
            raise InvariantError("frame coordinate signs violate orientation")

    lam_act = eig.lam * epsilon
    mu_act = eig.mu * epsilon
    sign_case = SignCase.of(lam_act, mu_act)
    if sign_case.translated:
        rho = (w01 - w10) * mu_act / (1 - mu_act)
        # the slide exists strictly above the expanding line ...
        if rho.sign() <= 0:
            raise InvariantError("contracting slide must be positive")
        # ... and cannot pass the first contracting lattice level: otherwise
        # a lattice point would sit between parallel eigen-lines closer than
        # the contraction allows.
        if (rho - w10).sign() > 0:
            raise InvariantError("contracting slide escapes the unit cell")
        # defining property of the slide: the slid point d_bar maps exactly
        # onto the slid origin a (both on the contracting line u = 0)
        if mu_act * (w01 - w10 + rho) != rho:
            raise InvariantError("slide does not fix the contracting boundary")
    else:
        rho = zero

    box1 = EigenRect(zero, u10, w01 + rho, rho)
    box2 = EigenRect(u10, u11, w01 + rho, w11 + rho)
    part = TorusPartition.build(frame, acting, (box1, box2), ("I", "II"))
    total = verify_areas(part)
    if total != 1:
        raise InvariantError(f"cell areas sum to {total}, not 1")
    return BaseConstruction(part, sign_case, rho)


# -- independent transition count ---------------------------------------------------


def _strict_integers_between(lo: QuadReal, hi: QuadReal, shift: QuadReal
                             ) -> tuple[int, int]:
    """Integer range [k_min, k_max] with lo < k + shift < hi (empty when
    k_min > k_max)."""
    k_min = (lo - shift).floor() + 1
    k_max = -((-(hi - shift)).floor()) - 1
    return k_min, k_max


def count_intersections(base: BaseConstruction) -> TransitionGraph:
    """Transition multiplicities counted by axis crossings, no intersections.

    The image of cell i is a long strip along the expanding line.  Crossing a
    vertical lattice line (slid by the slide vector) hands the strip to the
    next translate of cell I, crossing a horizontal one to the next translate
    of cell II; so the number of slid vertical (resp. horizontal) integer
    lines meeting the open strip is the (i, I) (resp. (i, II)) transition
    multiplicity.  Crossings are also asserted to stay in the half-family
    dictated by the sign of the expanding eigenvalue."""
    part = base.partition
    frame = part.frame
    lam_sign = part.lam_act.sign()
    vm = frame.eig.v_mu
    xi = base.rho * vm[0]
    eta = base.rho * vm[1]
    rows = []
    for i, box in enumerate(part.boxes):
        strip = part.phi_box(box)
        corners = strip.corners_plane(frame)
        xs = [pt[0] for pt in corners]
        ys = [pt[1] for pt in corners]
        x_min, x_max = _strict_integers_between(min(xs), max(xs), xi)
        y_min, y_max = _strict_integers_between(min(ys), max(ys), eta)
        x_count = max(0, x_max - x_min + 1)
        y_count = max(0, y_max - y_min + 1)
        if lam_sign > 0:
            family_ok = (x_count == 0 or x_min >= 0) and (y_count == 0 or y_min >= 1)
        else:
            family_ok = (x_count == 0 or x_max <= -1) and (y_count == 0 or y_max <= 0)
        if not family_ok:
            raise InvariantError(
                f"strip {i} crosses lattice lines outside the expected family: "
                f"x in [{x_min}, {x_max}], y in [{y_min}, {y_max}]"
            )
        rows.append([x_count, y_count])
    return TransitionGraph(rows)


# -- stage 3: refinement and cross-checks ------------------------------------------


@dataclass(frozen=True)
class MarkovConstruction:
    """Everything the construction produces, cross-checked on creation."""

    original: Mat2Z
    conjugation: ConjugationResult
    base: BaseConstruction
    cells: tuple[RefinementCell, ...]
    refined: TorusPartition
    graph: TransitionGraph          # two-cell multiplicities == model matrix

    @property
    def refined_graph(self) -> TransitionGraph:
        """The geometric 0/1 graph on cells, == T·S, built when read."""
        return transition_graph(self.refined)

    @property
    def model(self) -> Mat2Z:
        return self.conjugation.model

    @property
    def acting(self) -> Mat2Z:
        return self.base.partition.acting


def build_markov_construction(matrix: Mat2Z, conj: ConjugationResult | None = None
                              ) -> MarkovConstruction:
    """Run the full pipeline for ``matrix`` and cross-check every stage;
    ``conj``, the matrix's :func:`conjugate_nonnegative`, is computed unless
    given.

    Raises ``NotAutomorphismError``/``NotHyperbolicError`` on bad input and
    ``InvariantError`` if any internal consistency check fails."""
    if conj is None:
        conj = conjugate_nonnegative(matrix)
    elif conj.original != matrix:
        raise ValueError(f"the reduction of {conj.original}, not of {matrix}")
    base = build_base_partition(conj.model, conj.epsilon, conj.eig)
    part = base.partition

    graph = transition_graph(part)
    if graph.matrix != conj.model.rows():
        raise InvariantError(
            f"geometric transition multiplicities {graph.matrix} differ from "
            f"the model matrix {conj.model}"
        )
    counted = count_intersections(base)
    if counted.matrix != graph.matrix:
        raise InvariantError(
            f"axis-crossing counts {counted.matrix} differ from component "
            f"counts {graph.matrix}"
        )

    # T and S, the cells' second and first symbols as 0/1 matrices.  S·T
    # counts the cells per word (i, j); refine makes one cell per step-table
    # entry of (i, j), which the graph counts, so S·T == P is the graph == P
    # check above.  T·S is the composition rule: each distinct row (one per
    # second symbol) steps once to each cell starting with that symbol
    cells = tuple(refine(part))
    refined = refined_partition(part)
    starting = [[l for l, cell in enumerate(cells) if cell.symbols[0] == a]
                for a in (0, 1)]
    rows, row_of = factored(refined)
    if any([entry[0] for entry in rows[r]] != starting[b]
           for r, b in {(r, cell.symbols[1]) for r, cell in zip(row_of, cells)}):
        raise InvariantError(
            "geometric refined transitions differ from the composition rule"
        )
    return MarkovConstruction(matrix, conj, base, cells, refined, graph)
