"""Independent brute-force oracles used across the test suite.

Everything here is deliberately naive: direct enumeration, float linear
algebra, exhaustive search.  The point is to check the package's exact fast
paths against implementations that share no code with them.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Sequence

import numpy as np

from markov_torus.basis import EigenRect, parallelogram_diam_sq
from markov_torus.coding import (
    BoundaryAmbiguity,
    DecodeResult,
    PreimageReport,
    SymbolicWord,
)
from markov_torus.exact import QuadReal, floor_surd, reduced_surd, sign_surd
from markov_torus.partition import (
    BoundaryHit,
    CellHit,
    RefinementCell,
    TorusPartition,
    _decoded,
    cached,
    cylinder_components,
    partition_diam_sq,
    step_rows,
    step_successors,
    strip_basis,
    transition_graph,
)
from markov_torus.sft import TransitionGraph
from markov_torus.torus import EigenFrame, InvariantError
from markov_torus.walk import (
    AlignmentWitness,
    DecayRow,
    NfoldReport,
    WindowCheck,
    walk_words,
)


def brute_count_blocks(matrix, n: int) -> int:
    """Admissible n-blocks by direct enumeration (path multiplicity)."""
    size = len(matrix)
    if n == 1:
        return size
    total = 0
    for word in itertools.product(range(size), repeat=n):
        weight = 1
        for a, b in zip(word, word[1:]):
            weight *= matrix[a][b]
            if weight == 0:
                break
        total += weight
    return total


def brute_count_periodic(matrix, n: int) -> int:
    """Closed paths of length n by direct enumeration."""
    size = len(matrix)
    total = 0
    for word in itertools.product(range(size), repeat=n):
        weight = 1
        cyc = word + (word[0],)
        for a, b in zip(cyc, cyc[1:]):
            weight *= matrix[a][b]
            if weight == 0:
                break
        total += weight
    return total


def float_eigen(mat) -> tuple[float, float]:
    """(expanding, contracting) eigenvalues of a 2x2 integer matrix."""
    eigs = np.linalg.eigvals(np.array(mat, dtype=float))
    lam = max(eigs, key=abs)
    mu = min(eigs, key=abs)
    return float(lam.real), float(mu.real)


def numpy_spectral_radius(matrix) -> float:
    """Largest eigenvalue modulus of a square matrix, from numpy's solver
    (how ``perron_data`` found the radius before it bisected exactly)."""
    eigs = np.linalg.eigvals(np.array(matrix, dtype=float))
    return float(max(abs(e) for e in eigs))


def brute_conjugator(a_mat, bound: int = 6):
    """Exhaustive GL(2,Z) search for C with C A C^-1 = eps * P, P >= 0.

    Returns (C, P, eps) as nested tuples or None.  Entries of C range over
    [-bound, bound]; only determinant +-1 candidates are tried.
    """
    (a, b), (c, d) = a_mat
    for c00, c01, c10, c11 in itertools.product(range(-bound, bound + 1), repeat=4):
        det = c00 * c11 - c01 * c10
        if det not in (1, -1):
            continue
        # C A C^-1 with C^-1 = adj(C)/det
        m00 = c00 * a + c01 * c
        m01 = c00 * b + c01 * d
        m10 = c10 * a + c11 * c
        m11 = c10 * b + c11 * d
        p00 = (m00 * c11 - m01 * c10) * det
        p01 = (-m00 * c01 + m01 * c00) * det
        p10 = (m10 * c11 - m11 * c10) * det
        p11 = (-m10 * c01 + m11 * c00) * det
        for eps in (1, -1):
            q = (eps * p00, eps * p01, eps * p10, eps * p11)
            if all(x >= 0 for x in q):
                return ((c00, c01), (c10, c11)), ((q[0], q[1]), (q[2], q[3])), eps
    return None


def shoelace_area(corners) -> float:
    """Float polygon area from an ordered corner list of float pairs."""
    area = 0.0
    for (x0, y0), (x1, y1) in zip(corners, corners[1:] + corners[:1]):
        area += x0 * y1 - x1 * y0
    return abs(area) / 2


def brute_torus_periodic(a_mat, n: int) -> int:
    """Fixed points of the n-th power of the torus map by grid search.

    Solutions of x (A^n - I) = 0 mod 1 all live on the (1/m)-grid where
    m = |det(A^n - I)|, so scanning that grid is exhaustive.
    """
    m = np.array(a_mat, dtype=object)
    power = np.linalg.matrix_power(m, n)
    diff = power - np.eye(2, dtype=object)
    det = int(abs(diff[0, 0] * diff[1, 1] - diff[0, 1] * diff[1, 0]))
    if det == 0:
        raise ValueError("matrix power has eigenvalue 1; not hyperbolic")
    count = 0
    for i in range(det):
        for j in range(det):
            x = Fraction(i, det)
            y = Fraction(j, det)
            u = x * diff[0, 0] + y * diff[1, 0]
            v = x * diff[0, 1] + y * diff[1, 1]
            if u.denominator == 1 and v.denominator == 1:
                count += 1
    return count


def brute_lattice_in_frame_box(frame, u_lo, u_hi, w_lo, w_hi):
    """All lattice points whose frame coordinates lie in the closed box.

    The box maps to a plane parallelogram; integer points inside it lie in
    its bounding rectangle, which is scanned exactly.
    """
    corners = [
        frame.to_plane(u, w)
        for u, w in ((u_lo, w_lo), (u_hi, w_lo), (u_hi, w_hi), (u_lo, w_hi))
    ]
    xs = [p[0] for p in corners]
    ys = [p[1] for p in corners]
    x_min = min(xs).floor()
    x_max = -((-max(xs)).floor())
    y_min = min(ys).floor()
    y_max = -((-max(ys)).floor())
    hits = []
    for m in range(x_min - 1, x_max + 2):
        for n in range(y_min - 1, y_max + 2):
            qu, qw = frame.lattice_frame(m, n)
            if u_lo <= qu <= u_hi and w_lo <= qw <= w_hi:
                hits.append((m, n))
    return hits


# -- the column scan over a per-scan grid ----------------------------------------

# The package's lattice scan before it ran on the partition's strip basis:
# every scan brought its own bounds and the generators' frame coordinates to
# one common denominator, a ``_Grid`` of pairs (A + B*sqrt(D)) / Q.  Kept
# verbatim (the scan renamed) so that the oracles' scans share no code with
# the package's; with ``closed_translate_meets`` as it was on that scan,
# testing each hit's closed boxes in the field.


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

    return cached(frame, "_grid_forms", build)


class _Grid:
    """Lattice scans in integers, over one common denominator.

    Q is the lcm of the denominators of the values the grid is made for and
    of the lattice generators' frame coordinates.  Each such value, and each
    sum of them (a lattice point's frame coordinates m*U10 + n*U01
    included), is the integer pair (A, B) of (A + B*sqrt(D)) / Q: x < y is
    one ``sign_surd`` of the difference, and a value is decoded where read.
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
        return reduced_surd(a, b, self.q, self.d)

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
        d, sign = self.d, sign_surd
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


def grid_lattice_in_frame_box(frame: EigenFrame, u_lo: QuadReal, u_hi: QuadReal,
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


def closed_translate_meets(frame, a, b):
    """Lattice translates q where the closures of a and b + q intersect."""
    out = []
    for q, (du, dw) in grid_lattice_in_frame_box(
        frame,
        a.u_lo - b.u_hi,
        a.u_hi - b.u_lo,
        a.w_lo - b.w_hi,
        a.w_hi - b.w_lo,
    ):
        if meets_closed(a, translate(b, du, dw)):
            out.append(q)
    return out


def meets_closed(self, other):
    """``EigenRect.meets_closed``, as a function."""
    return (
        max(self.u_lo, other.u_lo) <= min(self.u_hi, other.u_hi)
        and max(self.w_lo, other.w_lo) <= min(self.w_hi, other.w_hi)
    )


# -- characteristic polynomial -------------------------------------------------

# ``sft.char_poly`` before it reduced to Hessenberg form, kept verbatim (only
# renamed): the Faddeev-LeVerrier recursion, O(n^4) rational operations.


def faddeev_char_poly(graph: TransitionGraph) -> tuple[int, ...]:
    """Integer coefficients of det(xI - A), leading coefficient first,
    via the Faddeev-LeVerrier recursion run over exact rationals."""
    n = graph.n
    a = [[Fraction(x) for x in row] for row in graph.matrix]
    m = [[Fraction(0)] * n for _ in range(n)]
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{k-1} I
        m = [
            [sum(a[i][t] * m[t][j] for t in range(n)) + (coeffs[-1] if i == j else 0)
             for j in range(n)]
            for i in range(n)
        ]
        trace_am = sum(sum(a[i][t] * m[t][i] for t in range(n)) for i in range(n))
        coeffs.append(-trace_am / k)
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise InvariantError(f"integer matrix gave coefficient {c}")
        out.append(int(c))
    return tuple(out)


# -- the composition rule --------------------------------------------------------

# The refined graph as the build once materialized it, kept verbatim: T·S as a
# full N* x N* matrix, where the build now compares the geometric graph's
# successor rows with T·S without forming it.


def composition_graph(cells: Sequence[RefinementCell]) -> TransitionGraph:
    """The purely combinatorial transition rule on refinement cells: cell k
    (a component of phi R_i meet R_j) can precede cell l exactly when l's
    image cell index equals k's containing cell index."""
    rows = [
        [1 if cells[k].symbols[1] == cells[l].symbols[0] else 0
         for l in range(len(cells))]
        for k in range(len(cells))
    ]
    return TransitionGraph(rows)


# -- per-pair overlap scans ------------------------------------------------------

# The package's all-pairs overlaps before they came from one sweep per moving
# cell: one lattice scan per ordered cell pair, kept verbatim (only renamed),
# with the graph, refinement and disjointness results built on it.


def pair_translate_overlaps(frame, target, moving):
    """Lattice translates q with target meeting (moving + q) in an open set,
    each as ``(q, (du, dw), overlap)`` with the frame coordinates of q and
    the (nonempty) open intersection."""
    out = []
    for q, shift in grid_lattice_in_frame_box(
        frame,
        target.u_lo - moving.u_hi,
        target.u_hi - moving.u_lo,
        target.w_lo - moving.w_hi,
        target.w_hi - moving.w_lo,
    ):
        inter = intersect(target, translate(moving, *shift))
        if inter is not None:
            out.append((q, shift, inter))
    return out


def pair_image_components(part, source, container):
    """Components of phi(R_source) meeting R_container, scanned for the pair."""
    img = part.phi_box(part.boxes[source])
    comps = [(q, comp) for q, _, comp
             in pair_translate_overlaps(part.frame, part.boxes[container], img)]
    comps.sort(key=lambda item: (item[1].w_lo, item[1].u_lo))
    for (_, a), (_, b) in itertools.combinations(comps, 2):
        if intersect(a, b) is not None:
            raise InvariantError("image strips overlap inside one cell")
    return comps


def pair_transition_graph(part):
    n = part.n
    return TransitionGraph(
        [[len(pair_image_components(part, i, j)) for j in range(n)] for i in range(n)]
    )


def pair_refine(part):
    cells = []
    for i in range(part.n):
        for j in range(part.n):
            for _, comp in pair_image_components(part, i, j):
                cells.append(RefinementCell(symbols=(i, j), offset=-1, rect=comp))
    return cells


def pair_verify_translate_disjoint(part):
    bad = []
    for i in range(part.n):
        for j in range(i, part.n):
            for q, _, _ in pair_translate_overlaps(part.frame, part.boxes[i], part.boxes[j]):
                if i == j and q == (0, 0):
                    continue
                bad.append((i, j, q))
    return bad


# -- Fraction-backed quadratic field ---------------------------------------------

# The package's QuadReal before it moved to integer storage, kept verbatim
# (only renamed) as the reference for the differential field test.

_PARSE_RE = re.compile(
    r"^\s*(?P<rat>-?\d+(?:/\d+)?)"
    r"(?:\s*(?P<sign>[+-])\s*(?P<irr>\d+(?:/\d+)?)\*sqrt\((?P<d>\d+)\))?\s*$"
)

_RationalLike = int | Fraction


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


@total_ordering
class FractionQuadReal:
    """An element ``rat + irr*sqrt(d)`` of a real quadratic field.

    ``d`` must be a non-square positive integer whenever ``irr != 0``; a pure
    rational may carry ``d == 0`` and mixes with any radicand.  Elements with
    different radicands compare by value (``sqrt(8) == 2*sqrt(2)``) but refuse
    arithmetic, since the sum would leave both fields.
    """

    __slots__ = ("rat", "irr", "d")

    def __init__(self, rat: _RationalLike, irr: _RationalLike = 0, d: int = 0):
        rat = Fraction(rat)
        irr = Fraction(irr)
        if irr == 0:
            d = 0
        else:
            if d <= 0 or _is_square(d):
                raise ValueError(f"radicand must be a positive non-square, got {d}")
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "irr", irr)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("FractionQuadReal is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def of(cls, value: "FractionQuadReal | _RationalLike") -> "FractionQuadReal":
        if isinstance(value, FractionQuadReal):
            return value
        return cls(Fraction(value))

    @classmethod
    def sqrt_of(cls, d: int) -> "FractionQuadReal":
        """sqrt(d) as a field element."""
        return cls(0, 1, d)

    @classmethod
    def parse(cls, text: str) -> "FractionQuadReal":
        """Inverse of :meth:`exact_str`; also accepts a bare rational."""
        m = _PARSE_RE.match(text)
        if not m:
            raise ValueError(f"cannot parse quadratic-field element: {text!r}")
        rat = Fraction(m.group("rat"))
        if m.group("irr") is None:
            return cls(rat)
        irr = Fraction(m.group("irr"))
        if m.group("sign") == "-":
            irr = -irr
        return cls(rat, irr, int(m.group("d")))

    # -- field structure -------------------------------------------------------

    def _joint(self, other: "FractionQuadReal") -> int:
        """Radicand valid for both operands, or raise on a genuine mix."""
        if self.d == 0:
            return other.d
        if other.d == 0 or other.d == self.d:
            return self.d
        raise ValueError(f"mixed radicands {self.d} and {other.d}")

    def _coerce(self, other) -> "FractionQuadReal | None":
        if isinstance(other, FractionQuadReal):
            return other
        if isinstance(other, (int, Fraction)):
            return FractionQuadReal(other)
        return None

    def __add__(self, other) -> "FractionQuadReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._joint(o)
        return FractionQuadReal(self.rat + o.rat, self.irr + o.irr, d if self.irr + o.irr else 0)

    __radd__ = __add__

    def __neg__(self) -> "FractionQuadReal":
        return FractionQuadReal(-self.rat, -self.irr, self.d)

    def __sub__(self, other) -> "FractionQuadReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "FractionQuadReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "FractionQuadReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._joint(o)
        rat = self.rat * o.rat + self.irr * o.irr * d
        irr = self.rat * o.irr + self.irr * o.rat
        return FractionQuadReal(rat, irr, d if irr else 0)

    __rmul__ = __mul__

    def inverse(self) -> "FractionQuadReal":
        if self.rat == 0 and self.irr == 0:
            raise ZeroDivisionError("FractionQuadReal division by zero")
        norm = self.rat * self.rat - self.irr * self.irr * self.d
        # norm == 0 would force sqrt(d) rational; impossible for non-square d
        return FractionQuadReal(self.rat / norm, -self.irr / norm, self.d)

    def __truediv__(self, other) -> "FractionQuadReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> "FractionQuadReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> "FractionQuadReal":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = FractionQuadReal(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "FractionQuadReal":
        """Galois conjugate rat - irr*sqrt(d)."""
        return FractionQuadReal(self.rat, -self.irr, self.d)

    # -- exact predicates ------------------------------------------------------

    def sign(self) -> int:
        """-1, 0 or +1, decided exactly."""
        if self.irr == 0:
            return -1 if self.rat < 0 else (0 if self.rat == 0 else 1)
        if self.rat == 0:
            return 1 if self.irr > 0 else -1
        if self.rat > 0 and self.irr > 0:
            return 1
        if self.rat < 0 and self.irr < 0:
            return -1
        # opposite signs: compare rat^2 against irr^2 * d
        lhs = self.rat * self.rat
        rhs = self.irr * self.irr * self.d
        if lhs == rhs:  # would make sqrt(d) rational
            raise ArithmeticError("non-square radicand produced a zero norm")
        if self.rat > 0:  # rat > 0 > irr
            return 1 if lhs > rhs else -1
        return 1 if rhs > lhs else -1

    def _value_key(self):
        return (self.rat, 1 if self.irr > 0 else (-1 if self.irr < 0 else 0),
                self.irr * self.irr * self.d)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._value_key() == o._value_key()

    def __hash__(self) -> int:
        return hash(self._value_key())

    def __lt__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __abs__(self) -> "FractionQuadReal":
        return -self if self.sign() < 0 else self

    def __bool__(self) -> bool:
        return self.rat != 0 or self.irr != 0

    def is_rational(self) -> bool:
        return self.irr == 0

    def as_fraction(self) -> Fraction:
        if self.irr != 0:
            raise ValueError("not a rational value")
        return self.rat

    def floor(self) -> int:
        """Exact floor, in closed form over a common denominator."""
        rat, irr = self.rat, self.irr
        q = math.lcm(rat.denominator, irr.denominator)
        return floor_surd(rat.numerator * (q // rat.denominator),
                          irr.numerator * (q // irr.denominator), q, self.d)

    # -- rendering -------------------------------------------------------------

    def __float__(self) -> float:
        if self.irr == 0:
            return float(self.rat)
        # evaluate through a guarded rational approximation of sqrt(d): the
        # naive float sum cancels catastrophically when rat and irr*sqrt(d)
        # are huge and nearly opposite (routine for deep cylinder bounds)
        k = 40 + len(str(abs(self.rat.numerator))) + len(str(abs(self.irr.numerator)))
        root = Fraction(math.isqrt(self.d * 10 ** (2 * k)), 10 ** k)
        return float(self.rat + self.irr * root)

    def decimal(self, places: int = 12) -> str:
        """Correctly rounded fixed-point decimal string.

        The sqrt(d) approximation carries enough guard digits that the
        rounded digit is exact for irrational values; rational values are
        rounded half-to-even on the (rare) exact tie.
        """
        if self.irr == 0:
            approx = self.rat
        else:
            k = places + 12 + len(str(abs(self.irr.numerator)))
            root = Fraction(math.isqrt(self.d * 10 ** (2 * k)), 10 ** k)
            approx = self.rat + self.irr * root
        scaled = approx * 10 ** places
        n = round(scaled)
        sign = "-" if n < 0 else ""
        n = abs(n)
        whole, frac = divmod(n, 10 ** places)
        return f"{sign}{whole}.{frac:0{places}d}"

    def exact_str(self) -> str:
        """Canonical text form ``a/b + c/d*sqrt(D)`` (or bare rational)."""
        if self.irr == 0:
            return str(self.rat)
        if self.irr > 0:
            return f"{self.rat} + {self.irr}*sqrt({self.d})"
        return f"{self.rat} - {-self.irr}*sqrt({self.d})"

    def __repr__(self) -> str:
        return f"FractionQuadReal({self.exact_str()})"


# -- strip steps ----------------------------------------------------------------


def _step_table(part: TorusPartition) -> dict:
    """The forward step table per cell pair (cur, to), every entry decoded,
    ``(q, (du, dw), comp)``: the rows of :func:`partition.step_rows` grouped
    by pair and decoded through the partition's strip basis, cached on the
    partition (the oracle steps read it per step)."""

    def build():
        table: dict = {}
        for cur, row in enumerate(step_rows(part)):
            for to, *entry in row:
                table.setdefault((cur, to), []).append(entry)
        return _decoded(strip_basis(part), table)

    return cached(part, "_forward_table", build)


# The forward and backward cylinder steps before they became one clip-then-map
# kernel, kept verbatim: scale the whole piece, translate it per table entry
# and intersect.  The old walkers below step with them too.


def advance_strips(part: TorusPartition, pieces: Sequence[EigenRect], cur: int,
                   nxt: int) -> list[EigenRect]:
    """One forward step of cylinder tracking: components of phi(piece) meeting
    box(nxt), anchored there.  Pieces must lie inside box(cur)."""
    entries = _step_table(part).get((cur, nxt), ())
    out = []
    for piece in pieces:
        img = part.phi_box(piece)
        for _, (du, dw), comp in entries:
            hit = intersect(comp, translate(img, du, dw))
            if hit is not None:
                out.append(hit)
    return out


def pullback_strips(part: TorusPartition, pieces: Sequence[EigenRect], cur: int,
                    prv: int) -> list[EigenRect]:
    """One backward step: components of phi^-1(piece) meeting box(prv),
    anchored there.  Pieces must lie inside box(cur).

    Reads the forward step table's entries for (prv, cur): each component
    comp = box(cur) meet (phi(box prv) + shift) holds the part of a piece
    that comes from box(prv), and moving that part back by the shift and
    applying phi^-1 lands it in box(prv).  The pieces come out in the
    table's lattice order."""
    entries = _step_table(part).get((prv, cur), ())
    out = []
    for piece in pieces:
        for _, (du, dw), comp in entries:
            hit = intersect(comp, piece)
            if hit is not None:
                out.append(phi_inv_box(part, EigenRect(
                    hit.u_lo - du, hit.u_hi - du, hit.w_lo - dw, hit.w_hi - dw)))
    return out


# -- strip entry lists ------------------------------------------------------------

# The per-direction entry lists of the strip kernel before they were built
# from the integer step table: the decoded table, each entry re-encoded
# through QuadReal.  Kept verbatim apart from the name and the cache, which
# would clash with the package's.


def strip_entries(part: TorusPartition, forward: bool):
    """``(entries, fu, fw, flip_u, flip_w, basis)`` for one direction of
    strip steps, derived from the forward step table.  ``entries[(cur, to)]``
    holds, per table entry in order, the strip of a clip box inside box(cur)
    and a shift (su, sw) as two pairs: a hit x maps to x*k + s per
    coordinate, k's integer matrix being ``fu`` or ``fw`` and ``flip_*``
    marking a negative k.  Forward, the clip is phi^-1(comp - shift), the
    factors are (lam, mu) and the shift is the table's; backward, the clip
    is comp, the factors are (1/lam, 1/mu) and the shift is
    -phi^-1(shift)."""
    basis = strip_basis(part)
    pair = basis.pair
    lam, mu = part.lam_act, part.mu_act
    if not forward:
        lam, mu = lam.inverse(), mu.inverse()
    entries = {}
    for (i, j), overlaps in _step_table(part).items():
        rows = entries[(i, j) if forward else (j, i)] = []
        for _, (du, dw), comp in overlaps:
            if forward:
                clip, su, sw = phi_inv_box(part, translate(comp, -du, -dw)), du, dw
            else:
                clip, su, sw = comp, -du * lam, -dw * mu
            rows.append((*basis.strip(clip), *pair(su), *pair(sw)))
    return (entries, basis.factor(forward, True), basis.factor(forward, False),
            lam.sign() < 0, mu.sign() < 0, basis)


# -- recursive word-tree walkers -------------------------------------------------

# The package's three word-tree walkers before they were merged into one
# iterative walker, kept verbatim as the reference for the walker test, with
# the generator-decay verifier that called the window check once per n.


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


# -- decay rows with one diameter per row and pair ------------------------------

# The generator-decay verifier before it kept one diameter per endpoint pair
# and scaled it by mu^(2n), kept verbatim: it computes the diameter of every
# reachable pair again at every depth.


def verify_generator_decay_per_row(part: TorusPartition, depth: int,
                                   enumerate_up_to: int = 2,
                                   windows: WindowCheck | None = None
                                   ) -> list[DecayRow]:
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
    succ = step_successors(part)
    up_to = max(0, min(depth, enumerate_up_to))
    if windows is None:
        windows = WindowCheck(part, up_to)
        walk_words(part, [windows])
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


# -- per-iterate coding -------------------------------------------------------------

# Cell membership by one lattice scan per cell, the encoder that located every
# iterate of the orbit that way, and the recursive preimage enumeration, as
# they were before encode stepped the forward table and membership read a
# precomputed cover list; kept verbatim (methods as functions of the coding
# context) as the reference for the coding oracle test.


def locate(part: TorusPartition, point) -> CellHit | BoundaryHit:
    """Exact cell membership for a plane point (rational or field-valued)."""
    pu, pw = part.frame.to_frame(point)
    interior: list[CellHit] = []
    boundary: list[CellHit] = []
    for i, box in enumerate(part.boxes):
        for q, (qu, qw) in grid_lattice_in_frame_box(
            part.frame, box.u_lo - pu, box.u_hi - pu, box.w_lo - pw, box.w_hi - pw
        ):
            if contains_frame(box, pu + qu, pw + qw):
                interior.append(CellHit(i, q))
            elif contains_frame(box, pu + qu, pw + qw, closed=True):
                boundary.append(CellHit(i, q))
    if len(interior) > 1 or (interior and boundary):
        raise InvariantError(f"cells overlap at {point}: {interior} {boundary}")
    if interior:
        return interior[0]
    if boundary:
        return BoundaryHit(tuple(sorted(boundary, key=lambda h: (h.index, h.translate))))
    raise InvariantError(f"point {point} escaped the partition")


def _rect_contains_torus(frame: EigenFrame, rect: EigenRect, point,
                         closed: bool = True) -> bool:
    """Exact membership of a torus point in a frame box, testing every
    lattice representative that could land inside."""
    pu, pw = frame.to_frame(point)
    for _, (qu, qw) in grid_lattice_in_frame_box(
        frame,
        rect.u_lo - pu, rect.u_hi - pu, rect.w_lo - pw, rect.w_hi - pw,
    ):
        if contains_frame(rect, pu + qu, pw + qw, closed=closed):
            return True
    return False


def _closure_cells(self, y) -> tuple[int, ...]:
    """Cells whose closure contains the model-torus point ``y``."""
    hit = locate(self.part, y)
    if isinstance(hit, CellHit):
        return (hit.index,)
    return tuple(sorted({h.index for h in hit.candidates}))


def encode(self, point, depth: int) -> SymbolicWord | BoundaryAmbiguity:
    """Itinerary of ``point`` (input-matrix torus) for iterates
    -depth..depth, or a :class:`BoundaryAmbiguity` describing the first
    iterate that lies on a cell boundary (no single word is canonical
    there)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    orbit = self.model_orbit(self.to_model(point), -depth, depth)
    symbols = []
    for k in range(-depth, depth + 1):
        hit = locate(self.part, orbit[k])
        if isinstance(hit, BoundaryHit):
            return BoundaryAmbiguity(
                k, orbit[k], tuple(sorted({h.index for h in hit.candidates}))
            )
        symbols.append(hit.index)
    word = SymbolicWord(tuple(symbols), -depth)
    matrix = self.construction.refined_graph.matrix
    for a, b in zip(symbols, symbols[1:]):
        if matrix[a][b] == 0:
            raise InvariantError(
                f"itinerary {word} uses a non-edge {a}->{b}"
            )
    return word


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
    times = list(range(-depth, depth + 1))
    part = self.part
    found: list[SymbolicWord] = []

    def extend(prefix: list[int], piece: EigenRect, pos: int):
        # piece: the phi^(pos-1)-advanced partial cylinder, anchored in
        # the box of prefix[-1]; the orbit point at times[pos-1] lies in
        # its closure.
        if pos == len(times):
            found.append(SymbolicWord(tuple(prefix), -depth))
            return
        y = orbit[times[pos]]
        for j in _closure_cells(self, y):
            comps = advance_strips(part, [piece], prefix[-1], j)
            if not comps:
                continue
            if len(comps) > 1:
                raise InvariantError(
                    "cylinder split into several components on the refinement"
                )
            if _rect_contains_torus(self.frame, comps[0], y, closed=True):
                extend(prefix + [j], comps[0], pos + 1)

    start = orbit[times[0]]
    for i in _closure_cells(self, start):
        extend([i], part.boxes[i], 1)
    count = len(found)
    truncated = count > max_words
    return PreimageReport(
        depth, count, tuple() if truncated else tuple(found), truncated
    )


# -- step-table coding in field elements -----------------------------------------

# The coding path before points were carried in the strip basis: the cover
# list as boxes, ``locate`` testing them in field elements, the encoder that
# stepped frame coordinates against the decoded forward rows, and decode
# and membership as they were; kept verbatim (methods as functions, the
# caches under names of their own) as the reference for the coding oracle
# test.  ``quad_decode`` also fills in the anchored strip, a field the
# result has gained since.


def _floor(value) -> int:
    return value.floor() if isinstance(value, QuadReal) else math.floor(value)


def _mod1(value):
    """Reduce an exact coordinate (Fraction or QuadReal) into [0, 1)."""
    return value - _floor(value)


def _point_mod1(point):
    x, y = point
    return (_mod1(x), _mod1(y))


def _frame_of(frame: EigenFrame, point, translate) -> tuple[QuadReal, QuadReal]:
    """Frame coordinates of the plane point ``point`` + ``translate``."""
    pu, pw = frame.to_frame(point)
    qu, qw = frame.lattice_frame(*translate)
    return pu + qu, pw + qw


def cover_list(part: TorusPartition
               ) -> list[list[tuple[tuple[int, int], EigenRect]]]:
    """Per cell, every (translate q, box - q) whose closed box, moved back
    by q, can meet the closed unit square: the only places a point of
    [0, 1)^2 can lie in that cell, in ascending lattice order.  Cached on
    the partition."""

    def build():
        frame = part.frame
        corners = [frame.lattice_frame(m, n) for m in (0, 1) for n in (0, 1)]
        su_lo, su_hi = min(u for u, _ in corners), max(u for u, _ in corners)
        sw_lo, sw_hi = min(w for _, w in corners), max(w for _, w in corners)
        cover = []
        for box in part.boxes:
            xs, ys = zip(*box.corners_plane(frame))
            x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
            cover.append([
                ((m, n), translate(box, -qu, -qw))
                for (m, n), (qu, qw) in grid_lattice_in_frame_box(
                    frame, box.u_lo - su_hi, box.u_hi - su_lo,
                    box.w_lo - sw_hi, box.w_hi - sw_lo,
                )
                if x_lo <= m + 1 and m <= x_hi and y_lo <= n + 1 and n <= y_hi
            ])
        return cover

    return cached(part, "_quad_cover", build)


def quad_locate(part: TorusPartition, point) -> CellHit | BoundaryHit:
    """Exact cell membership for a plane point (rational or field-valued).

    No lattice scan: the point is reduced into [0, 1)^2 and tested against
    the boxes of the partition's cover list, whose translates are then
    shifted back by the floor, so they apply to the point as given."""
    fx, fy = _floor(point[0]), _floor(point[1])
    pu, pw = part.frame.to_frame((point[0] - fx, point[1] - fy))
    interior: list[CellHit] = []
    boundary: list[CellHit] = []
    for i, entries in enumerate(cover_list(part)):
        for (m, n), moved in entries:
            if contains_frame(moved, pu, pw, closed=True):
                hit = CellHit(i, (m - fx, n - fy))
                (interior if contains_frame(moved, pu, pw) else boundary).append(hit)
    if len(interior) > 1 or (interior and boundary):
        raise InvariantError(f"cells overlap at {point}: {interior} {boundary}")
    if interior:
        return interior[0]
    if boundary:
        return BoundaryHit(tuple(sorted(boundary, key=lambda h: (h.index, h.translate))))
    raise InvariantError(f"point {point} escaped the partition")


def forward_rows(self) -> list[list[tuple[int, tuple, EigenRect]]]:
    """Per cell i, every entry of row i of the forward step table as
    ``(j, (du, dw), piece)``: the component of phi(box i) + (du, dw)
    meeting box j, moved back by (du, dw) into phi(box i).  A stepped
    point (u, w) lies in the component exactly when it lies in the
    piece, so the test needs no addition."""

    def build():
        table = _step_table(self.part)
        return [[(j, shift, translate(comp, -shift[0], -shift[1]))
                 for j in row for _, shift, comp in table[i, j]]
                for i, row in enumerate(step_successors(self.part))]

    return cached(self.part, "_quad_forward_rows", build)


def quad_encode(self, point, depth: int) -> SymbolicWord | BoundaryAmbiguity:
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
    hit = quad_locate(part, start)
    if isinstance(hit, BoundaryHit):
        return BoundaryAmbiguity(-depth, start, _cells(hit.candidates))
    u, w = _frame_of(frame, start, hit.translate)
    cur = hit.index
    symbols = [cur]
    rows = forward_rows(self)
    lam, mu = part.lam_act, part.mu_act
    for k in range(1 - depth, depth + 1):
        u, w = u * lam, w * mu
        nxt = None
        for j, step, piece in rows[cur]:
            if contains_frame(piece, u, w):
                if nxt is not None:
                    raise InvariantError(
                        f"iterate {k} lies in two cells, {nxt} and {j}"
                    )
                nxt, shift = j, step
        if nxt is None:
            # on a component's closure: name the candidates exactly
            y = _point_mod1((part.acting ** (k + depth)).act(start))
            hit = quad_locate(part, y)
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


def _cells(hits) -> tuple[int, ...]:
    """The cells of some :class:`CellHit` values, ascending and once each."""
    return tuple(sorted({h.index for h in hits}))


def quad_decode(self, word: SymbolicWord) -> DecodeResult:
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
        anchored_strip=strip_basis(self.part).strip(anchored),
    )


def quad_contains(self, point, closed: bool = True) -> bool:
    """Exact membership of a model-torus point in the cylinder: the
    point is in ``rect`` + q exactly when its iterate at ``word.offset``
    is in ``anchored`` + A^offset q, inside the first symbol's cell."""
    part, first = self.partition, self.word.symbols[0]
    y = _point_mod1((part.acting ** self.word.offset).act(point))
    yu, yw = part.frame.to_frame(y)
    for (m, n), moved in cover_list(part)[first]:
        if contains_frame(moved, yu, yw, closed=True):
            qu, qw = part.frame.lattice_frame(m, n)
            if contains_frame(self.anchored, yu + qu, yw + qw, closed=closed):
                return True
    return False


def intersect(a: EigenRect, b: EigenRect) -> EigenRect | None:
    """The open intersection of two boxes, or None where it is empty: the
    box's method before the strip kernel left it without a caller in the
    package."""
    u_lo, u_hi = max(a.u_lo, b.u_lo), min(a.u_hi, b.u_hi)
    w_lo, w_hi = max(a.w_lo, b.w_lo), min(a.w_hi, b.w_hi)
    if u_lo < u_hi and w_lo < w_hi:
        return EigenRect(u_lo, u_hi, w_lo, w_hi)
    return None


def translate(rect: EigenRect, du: QuadReal, dw: QuadReal) -> EigenRect:
    """The box moved by (du, dw) in frame coordinates: the box's method
    before the package stopped moving boxes (it moves integer strips)."""
    return EigenRect(rect.u_lo + du, rect.u_hi + du, rect.w_lo + dw, rect.w_hi + dw)


def contains_frame(rect: EigenRect, u: QuadReal, w: QuadReal, closed: bool = False) -> bool:
    """Whether the frame point (u, w) lies in the open box, or in the closed
    one: the box's method before membership moved to integer strips."""
    if closed:
        return rect.u_lo <= u <= rect.u_hi and rect.w_lo <= w <= rect.w_hi
    return rect.u_lo < u < rect.u_hi and rect.w_lo < w < rect.w_hi


def phi_inv_box(part: TorusPartition, box: EigenRect) -> EigenRect:
    """The box's image under phi^-1, as the partition's method computed it
    before the strip entry lists left it without a caller in the package."""
    return box.scaled(part.lam_act.inverse(), part.mu_act.inverse())


# -- pairwise boundary coverage ---------------------------------------------------


def lattice_shift(frame: EigenFrame, du: QuadReal | None = None,
                  dw: QuadReal | None = None) -> tuple[int, int] | None:
    """The unique lattice point with frame coordinates (du, dw), if any.

    Either coordinate may be left out: m * c10 + n * c01 = value for one
    coordinate c is two rational equations over the basis (1, sqrt(D)),
    so it alone determines the lattice point or rules it out; the other
    coordinate, when given, is then checked.  The rational system is
    nonsingular because the eigenlines contain no nonzero lattice points.
    """
    if du is None:
        value, c10, c01 = dw, frame.w10, frame.w01
    else:
        value, c10, c01 = du, frame.u10, frame.u01
    # Cramer's rule on the integer parts (a + b*sqrt(D)) / q
    det = c10.a * c01.b - c01.a * c10.b
    if det == 0:
        raise InvariantError("a lattice point lies on an eigenline")
    den = value.q * det
    m, m_rem = divmod((value.a * c01.b - value.b * c01.a) * c10.q, den)
    n, n_rem = divmod((c10.a * value.b - c10.b * value.a) * c01.q, den)
    if m_rem or n_rem:
        return None
    if du is not None and dw is not None and frame.lattice_frame(m, n)[1] != dw:
        return None
    return (m, n)


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
    """The Markov boundary condition, one lattice solve per pair of edges:
    8*N^2 solves (the method ``frame.lattice_shift`` became
    :func:`lattice_shift` above, unchanged)."""
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
            q = lattice_shift(frame, du=u_img - u2)
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
            q = lattice_shift(frame, dw=w_img - w2)
            if q is not None:
                uq = frame.lattice_frame(*q)[0]
                pieces.append((u2_lo + uq, u2_hi + uq))
        gap = _cover_gap(a, b, pieces)
        if gap is not None:
            witnesses.append(AlignmentWitness("expanding-edge", cell, w, gap))
    return witnesses
