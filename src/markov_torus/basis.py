"""Exact strip arithmetic: eigen-aligned boxes as integers of one basis.

A cell is an open box (:class:`EigenRect`) in the (expanding, contracting)
frame coordinates of a hyperbolic matrix; its plane image is a parallelogram
spanned by the eigenvectors.  The hot paths run on integers in one
:class:`StripBasis`: pairs (X, Y) = (X + Y*lam) / Q over the module
(1/Q)*Z[lam], Q taking in every box bound and the lattice generators' frame
coordinates, where multiplying by lam, mu or their inverses is a fixed
integer matrix and a comparison is the sign of one pair.  A lattice scan
runs column by column over the box's plane x-extent, c*(u + w), each
column's n-interval having exact integer floors for ends.  A point is a
:class:`ModPoint`, its coordinates over one denominator k; the acting
matrix moves its numerators, and its frame pairs over Q*k are a fixed
integer map of them.  Nothing here knows about partitions.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, NamedTuple

from .exact import QuadReal, floor_surd, reduced_surd, sign_surd
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


def _rect(u_lo: QuadReal, u_hi: QuadReal, w_lo: QuadReal, w_hi: QuadReal
          ) -> EigenRect:
    """A box from bounds known to be ordered, skipping the public
    constructor's check, as :func:`exact._make` does for elements."""
    rect = object.__new__(EigenRect)
    rect.__dict__.update(u_lo=u_lo, u_hi=u_hi, w_lo=w_lo, w_hi=w_hi)
    return rect


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
        return reduced_surd(big_x * self.q + big_y * self.a, big_y * self.b,
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
        return sign_surd(big_x * self.q + big_y * self.a, big_y * self.b, self.d)

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
                if (sign_surd(x0 * q + y0 * a, y0 * b, d) < 0
                        or sign_surd(x1 * q + y1 * a, y1 * b, d) < 0
                        or sign_surd(x2 * q + y2 * a, y2 * b, d) < 0
                        or sign_surd(x3 * q + y3 * a, y3 * b, d) < 0):
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
            side = sign_surd(x * q + y * a, y * b, d)  # self.sign(x, y), inlined
            if side < 0:
                return -1
            lowest *= side
        return lowest


def first_above(basis: StripBasis, lows: list[tuple[int, int]], x: int, y: int,
                k: int = 1) -> int:
    """:func:`bisect.bisect_right` of the pair (x, y) / k in ascending pairs:
    the first index whose pair exceeds it, one sign test per step."""
    q, a, b, d = basis.q, basis.a, basis.b, basis.d
    lo, hi = 0, len(lows)
    while lo < hi:
        mid = (lo + hi) // 2
        dx, dy = k * lows[mid][0] - x, k * lows[mid][1] - y
        if sign_surd(dx * q + dy * a, dy * b, d) > 0:
            hi = mid
        else:
            lo = mid + 1
    return lo


def meet(basis: StripBasis, s: Strip, t: Strip) -> Strip | None:
    """The open intersection of the boxes of two strips, None when empty:
    along each axis the larger low and the smaller high, if below it."""
    q, a, b, d = basis.q, basis.a, basis.b, basis.d
    sides = ()
    for k in (0, 4):
        (lx, ly, hx, hy), (tlx, tly, thx, thy) = s[k:k + 4], t[k:k + 4]
        # below, a pair (x, y) has the sign of (x*q + y*a) + y*b*sqrt(d)
        x, y = tlx - lx, tly - ly
        if sign_surd(x * q + y * a, y * b, d) > 0:
            lx, ly = tlx, tly
        x, y = hx - thx, hy - thy
        if sign_surd(x * q + y * a, y * b, d) > 0:
            hx, hy = thx, thy
        x, y = hx - lx, hy - ly
        if sign_surd(x * q + y * a, y * b, d) <= 0:
            return None
        sides += (lx, ly, hx, hy)
    return sides


def side_image(side: tuple[int, int, int, int], factor: tuple[int, int, int, int],
               sx: int, sy: int, flip: bool) -> tuple[int, int, int, int]:
    """The image of the side (lo, hi), two pairs, under x -> x*k + s, k's
    integer matrix being ``factor``; ``flip`` marks a negative k, whose
    image runs from the image of hi."""
    m00, m01, m10, m11 = factor
    lo_x, lo_y, hi_x, hi_y = side
    lo = (m00 * lo_x + m01 * lo_y + sx, m10 * lo_x + m11 * lo_y + sy)
    hi = (m00 * hi_x + m01 * hi_y + sx, m10 * hi_x + m11 * hi_y + sy)
    return (*hi, *lo) if flip else (*lo, *hi)

