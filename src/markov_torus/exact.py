"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

Numbers are stored as ``rat + irr*sqrt(d)`` with :class:`fractions.Fraction`
components and a fixed non-square radicand ``d >= 0``.  ``d == 0`` marks a
plain rational, which combines freely with any radicand.  Every predicate the
rest of the package relies on -- sign, comparison, floor, equality -- is
decided by integer arithmetic only; floats appear in ``__float__`` and in
decimal rendering, never in control flow.

The continued-fraction expander works directly on field elements: an element
in lowest terms *is* the classical surd state (P + sqrt(N))/Q, so detecting a
repeated element detects a repeated state, which gives the minimal period.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Iterator

_RationalLike = int | Fraction

_PARSE_RE = re.compile(
    r"^\s*(?P<rat>-?\d+(?:/\d+)?)"
    r"(?:\s*(?P<sign>[+-])\s*(?P<irr>\d+(?:/\d+)?)\*sqrt\((?P<d>\d+)\))?\s*$"
)


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def floor_surd(a: int, b: int, q: int, d: int) -> int:
    """floor((a + b*sqrt(d)) / q) for integers with q > 0 and d a non-square
    whenever b != 0.

    b*sqrt(d) is +-sqrt(b*b*d), which is irrational, so its floor is
    isqrt(b*b*d) for b > 0 and -isqrt(b*b*d) - 1 for b < 0; and
    floor(x / q) == floor(x) // q for a positive integer q.
    """
    if b > 0:
        return (a + math.isqrt(b * b * d)) // q
    if b < 0:
        return (a - math.isqrt(b * b * d) - 1) // q
    return a // q


@total_ordering
class QuadReal:
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
        raise AttributeError("QuadReal is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def of(cls, value: "QuadReal | _RationalLike") -> "QuadReal":
        if isinstance(value, QuadReal):
            return value
        return cls(Fraction(value))

    @classmethod
    def sqrt_of(cls, d: int) -> "QuadReal":
        """sqrt(d) as a field element."""
        return cls(0, 1, d)

    @classmethod
    def parse(cls, text: str) -> "QuadReal":
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

    def _joint(self, other: "QuadReal") -> int:
        """Radicand valid for both operands, or raise on a genuine mix."""
        if self.d == 0:
            return other.d
        if other.d == 0 or other.d == self.d:
            return self.d
        raise ValueError(f"mixed radicands {self.d} and {other.d}")

    def _coerce(self, other) -> "QuadReal | None":
        if isinstance(other, QuadReal):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadReal(other)
        return None

    def __add__(self, other) -> "QuadReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._joint(o)
        return QuadReal(self.rat + o.rat, self.irr + o.irr, d if self.irr + o.irr else 0)

    __radd__ = __add__

    def __neg__(self) -> "QuadReal":
        return QuadReal(-self.rat, -self.irr, self.d)

    def __sub__(self, other) -> "QuadReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "QuadReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "QuadReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._joint(o)
        rat = self.rat * o.rat + self.irr * o.irr * d
        irr = self.rat * o.irr + self.irr * o.rat
        return QuadReal(rat, irr, d if irr else 0)

    __rmul__ = __mul__

    def inverse(self) -> "QuadReal":
        if self.rat == 0 and self.irr == 0:
            raise ZeroDivisionError("QuadReal division by zero")
        norm = self.rat * self.rat - self.irr * self.irr * self.d
        # norm == 0 would force sqrt(d) rational; impossible for non-square d
        return QuadReal(self.rat / norm, -self.irr / norm, self.d)

    def __truediv__(self, other) -> "QuadReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> "QuadReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> "QuadReal":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = QuadReal(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "QuadReal":
        """Galois conjugate rat - irr*sqrt(d)."""
        return QuadReal(self.rat, -self.irr, self.d)

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

    def __abs__(self) -> "QuadReal":
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
        return f"QuadReal({self.exact_str()})"


@dataclass(frozen=True)
class ContinuedFraction:
    """Eventually periodic continued fraction ``[preperiod; period repeating]``.

    Invariants: the period is nonempty and minimal, and the last preperiod
    element differs from the last period element (otherwise the tail of the
    preperiod would belong to the cycle).
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def terms(self, n: int) -> Iterator[int]:
        """First ``n`` partial quotients."""
        for i in range(n):
            if i < len(self.preperiod):
                yield self.preperiod[i]
            else:
                yield self.period[(i - len(self.preperiod)) % len(self.period)]

    def convergents(self, n: int) -> list[tuple[int, int]]:
        """First ``n`` convergents as (numerator, denominator) pairs."""
        ps: list[tuple[int, int]] = []
        p_prev, p_prev2 = 1, 0
        q_prev, q_prev2 = 0, 1
        for a in self.terms(n):
            p = a * p_prev + p_prev2
            q = a * q_prev + q_prev2
            ps.append((p, q))
            p_prev2, p_prev = p_prev, p
            q_prev2, q_prev = q_prev, q
        return ps


_CF_STATE_CAP = 10 ** 6


def cf_expand(x: QuadReal) -> ContinuedFraction:
    """Continued fraction of a quadratic irrational, with exact periodicity.

    The iteration x_{k+1} = 1/(x_k - floor(x_k)) is run on field elements;
    Lagrange's theorem guarantees the sequence of states repeats, and the
    first repeated state starts the minimal period.  Rational input has a
    finite expansion, hence no period, and is rejected.
    """
    if x.irr == 0:
        raise ValueError("rational input has no periodic continued fraction")
    terms: list[int] = []
    seen: dict[QuadReal, int] = {}
    cur = x
    while cur not in seen:
        if len(terms) > _CF_STATE_CAP:  # pragma: no cover - safety net
            raise RuntimeError("continued-fraction state space exceeded cap")
        seen[cur] = len(terms)
        a = cur.floor()
        terms.append(a)
        cur = (cur - a).inverse()
    start = seen[cur]
    pre, per = terms[:start], terms[start:]
    while pre and pre[-1] == per[-1]:
        pre.pop()
        per = [per[-1]] + per[:-1]
    return ContinuedFraction(tuple(pre), tuple(per))
