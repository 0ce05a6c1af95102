"""Hyperbolic automorphisms of the 2-torus and their exact eigen-geometry.

Matrices act on *row* vectors: x |-> x A, so the torus map is
phi(x, y) = ({a x + c y}, {b x + d y}) for A = ((a, b), (c, d)).  A matrix in
GL(2, Z) is hyperbolic iff no eigenvalue lies on the unit circle, which for
determinant +1 means |trace| >= 3 and for determinant -1 means trace != 0.

Eigenvalues live in Q(sqrt(D)) with D = trace^2 - 4 det (never a perfect
square in the hyperbolic cases, and kept unreduced so the eigenvalues have
half-integer coordinates).  The expanding eigenvector is v_lam = (c, lam - a),
legitimate because c = 0 would force integer unit eigenvalues.

:class:`EigenFrame` converts between plane coordinates and coordinates along
(v_lam, v_mu).  Since the eigenline slopes are irrational, either frame
coordinate of the lattice generators is a basis of Q(sqrt(D)) over Q, so a
value of that coordinate belongs to at most one lattice point; the partition
module's strip basis solves for it in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exact import QuadReal, reduced_surd

RationalPoint = tuple[Fraction, Fraction]
PlanePoint = tuple[QuadReal, QuadReal]


class NotAutomorphismError(ValueError):
    """Determinant is not +-1, so the matrix does not act invertibly on Z^2."""


class NotHyperbolicError(ValueError):
    """An eigenvalue sits on the unit circle; no expanding/contracting split."""


class InvariantError(RuntimeError):
    """A geometric invariant the construction guarantees was violated."""


@dataclass(frozen=True)
class Mat2Z:
    """Immutable 2x2 integer matrix ((a, b), (c, d)) acting on row vectors."""

    a: int
    b: int
    c: int
    d: int

    @classmethod
    def identity(cls) -> "Mat2Z":
        return cls(1, 0, 0, 1)

    @classmethod
    def swap(cls) -> "Mat2Z":
        """The coordinate swap (x, y) -> (y, x)."""
        return cls(0, 1, 1, 0)

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d

    def is_nonnegative(self) -> bool:
        return self.a >= 0 and self.b >= 0 and self.c >= 0 and self.d >= 0

    def __matmul__(self, other: "Mat2Z") -> "Mat2Z":
        return Mat2Z(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "Mat2Z":
        return Mat2Z(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "Mat2Z":
        det = self.det()
        if det not in (1, -1):
            raise NotAutomorphismError(f"determinant {det} is not a unit")
        return Mat2Z(self.d * det, -self.b * det, -self.c * det, self.a * det)

    def __pow__(self, e: int) -> "Mat2Z":
        base = self if e >= 0 else self.inverse()
        e = abs(e)
        result = Mat2Z.identity()
        while e:
            if e & 1:
                result = result @ base
            base = base @ base
            e >>= 1
        return result

    def act(self, point):
        """Row-vector action (x, y) -> (x a + y c, x b + y d), exact."""
        x, y = point
        return (x * self.a + y * self.c, x * self.b + y * self.d)

    def scale(self) -> int:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def __str__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


@dataclass(frozen=True)
class EigenData:
    """Exact spectral data of a hyperbolic matrix."""

    matrix: Mat2Z
    disc: int
    lam: QuadReal
    mu: QuadReal
    v_lam: PlanePoint
    v_mu: PlanePoint
    slope_lam: QuadReal
    slope_mu: QuadReal
    expansive_constant: QuadReal  # |mu| / 8, an expansive constant for the map


def hyperbolic_check(mat: Mat2Z) -> EigenData:
    """Validate hyperbolicity and return exact eigen-data.

    Raises :class:`NotAutomorphismError` for |det| != 1 and
    :class:`NotHyperbolicError` when an eigenvalue has modulus 1.
    """
    det = mat.det()
    if det not in (1, -1):
        raise NotAutomorphismError(f"determinant {det} is not +-1")
    t = mat.trace()
    if det == 1 and abs(t) < 3:
        raise NotHyperbolicError(f"determinant +1 needs |trace| >= 3, got {t}")
    if det == -1 and t == 0:
        raise NotHyperbolicError("determinant -1 with trace 0 has eigenvalues +-1")
    disc = t * t - 4 * det
    half = Fraction(1, 2)
    # pick the branch with |lam| > 1: the root moving away from zero with t
    sign = 1 if t > 0 else -1
    lam = QuadReal(Fraction(t, 2), sign * half, disc)
    mu = QuadReal(Fraction(t, 2), -sign * half, disc)
    if (abs(lam) - 1).sign() <= 0 or (1 - abs(mu)).sign() <= 0:
        raise InvariantError("eigenvalues do not split into |lam| > 1 > |mu|")
    if mat.c == 0:
        # triangular with unit diagonal would have passed the trace test only
        # by having |a| = |d| = 1; unreachable for hyperbolic input
        raise NotHyperbolicError("triangular matrix has integer unit eigenvalues")
    c = QuadReal(mat.c)
    v_lam = (c, lam - mat.a)
    v_mu = (c, mu - mat.a)
    slope_lam = (lam - mat.a) / mat.c
    slope_mu = (mu - mat.a) / mat.c
    if slope_lam.irr == 0 or slope_mu.irr == 0:
        raise InvariantError("an eigenline has rational slope")
    return EigenData(
        matrix=mat,
        disc=disc,
        lam=lam,
        mu=mu,
        v_lam=v_lam,
        v_mu=v_mu,
        slope_lam=slope_lam,
        slope_mu=slope_mu,
        expansive_constant=abs(mu) / 8,
    )


def is_hyperbolic(mat: Mat2Z) -> bool:
    try:
        hyperbolic_check(mat)
        return True
    except ValueError:
        return False


def apply_auto(mat: Mat2Z, point: RationalPoint) -> RationalPoint:
    """The torus map on an exact rational point: row action reduced mod 1."""
    x, y = mat.act((Fraction(point[0]), Fraction(point[1])))
    return (x % 1, y % 1)


def count_periodic_points(mat: Mat2Z, n: int) -> int:
    """|det(A^n - I)|: the number of points fixed by the n-th iterate."""
    if n < 1:
        raise ValueError("period must be >= 1")
    hyperbolic_check(mat)
    power = mat ** n
    diff = Mat2Z(power.a - 1, power.b, power.c, power.d - 1)
    det = diff.det()
    if det == 0:
        raise InvariantError(f"A^{n} has eigenvalue 1")
    return abs(det)


@dataclass(frozen=True)
class EigenFrame:
    """Coordinates along (v_lam, v_mu): point = u * v_lam + w * v_mu.

    ``u`` is the expanding coordinate, ``w`` the contracting one.  The frame
    determinant is -c * sqrt(D), nonzero, so conversions are exact field
    arithmetic.  ``u10/w10`` and ``u01/w01`` are the frame coordinates of the
    lattice generators (1,0) and (0,1); because the eigenline slopes are
    irrational, (m, n) -> u and (m, n) -> w are each injective on the lattice
    and invertible by rational linear algebra.  The lattice point (m, n) is
    the plane point (m, n) itself.
    """

    eig: EigenData
    det: QuadReal
    u10: QuadReal
    w10: QuadReal
    u01: QuadReal
    w01: QuadReal

    @classmethod
    def from_eigen(cls, eig: EigenData) -> "EigenFrame":
        vl, vm = eig.v_lam, eig.v_mu
        det = vl[0] * vm[1] - vl[1] * vm[0]
        if det.sign() == 0:
            raise InvariantError("eigenvectors are parallel")
        u10, w10 = _solve(vl, vm, det, (QuadReal(1), QuadReal(0)))
        u01, w01 = _solve(vl, vm, det, (QuadReal(0), QuadReal(1)))
        return cls(eig, det, u10, w10, u01, w01)

    def to_frame(self, point) -> tuple[QuadReal, QuadReal]:
        p = (QuadReal.of(point[0]), QuadReal.of(point[1]))
        return _solve(self.eig.v_lam, self.eig.v_mu, self.det, p)

    def to_plane(self, u: QuadReal, w: QuadReal) -> PlanePoint:
        """The plane point u*v_lam + w*v_mu, one reduction per coordinate:
        each is a single numerator over u.q*w.q*q, cross-multiplied from
        :attr:`_plane_ints`.  ``u`` and ``w`` are rational or in the frame's
        field."""
        d = self.eig.disc
        if (u.b and u.d != d) or (w.b and w.d != d):
            raise ValueError(f"frame coordinates outside Q(sqrt({d}))")
        ua, ub, uq, wa, wb, wq = u.a, u.b, u.q, w.a, w.b, w.q
        return tuple(
            reduced_surd((ua * a1 + ub * b1 * d) * wq + (wa * a2 + wb * b2 * d) * uq,
                         (ua * b1 + ub * a1) * wq + (wa * b2 + wb * a2) * uq,
                         uq * wq * q, d)
            for a1, b1, a2, b2, q in self._plane_ints)

    def lattice_frame(self, m: int, n: int) -> tuple[QuadReal, QuadReal]:
        (ua, ub, ua1, ub1, uq), (wa, wb, wa1, wb1, wq) = self._generator_ints
        d = self.eig.disc
        return (reduced_surd(ua * m + ua1 * n, ub * m + ub1 * n, uq, d),
                reduced_surd(wa * m + wa1 * n, wb * m + wb1 * n, wq, d))

    @cached_property
    def _generator_ints(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per frame coordinate c, c10 and c01 over one denominator
        (:func:`_over_one_q`), so that c10*m + c01*n is reduced once."""
        return _over_one_q(((self.u10, self.u01), (self.w10, self.w01)))

    @cached_property
    def _plane_ints(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per plane coordinate k, v_lam[k] and v_mu[k] over one denominator
        (:func:`_over_one_q`), so that u*v_lam[k] + w*v_mu[k] is reduced
        once."""
        return _over_one_q(zip(self.eig.v_lam, self.eig.v_mu))


def _over_one_q(pairs) -> tuple[tuple[int, ...], ...]:
    """Per pair (x1, x2) of field elements, (a1, b1, a2, b2, q) with
    x1 = (a1 + b1*sqrt(D)) / q and x2 = (a2 + b2*sqrt(D)) / q."""
    out = []
    for x1, x2 in pairs:
        q = math.lcm(x1.q, x2.q)
        k1, k2 = q // x1.q, q // x2.q
        out.append((x1.a * k1, x1.b * k1, x2.a * k2, x2.b * k2, q))
    return tuple(out)


def _solve(vl: PlanePoint, vm: PlanePoint, det: QuadReal, p: PlanePoint):
    """(u, w) with u*vl + w*vm = p, by Cramer's rule."""
    u = (p[0] * vm[1] - p[1] * vm[0]) / det
    w = (vl[0] * p[1] - vl[1] * p[0]) / det
    return (u, w)
