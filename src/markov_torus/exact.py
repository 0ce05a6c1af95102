"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

An element is stored as four integers ``(a, b, q, d)`` meaning
``(a + b*sqrt(d)) / q``, always in canonical form: ``q > 0``,
``gcd(a, b, q) == 1``, and ``d == 0`` exactly when ``b == 0``.  ``d`` is a
fixed non-square radicand; ``d == 0`` marks a plain rational, which combines
freely with any radicand.  Sums and products take one gcd each, and every
predicate the rest of the package relies on -- sign, comparison, floor,
equality -- is decided by integer arithmetic on these numerators without
building an intermediate element; floats appear in ``__float__`` and in
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


def sign_surd(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d), for d a non-square whenever b != 0."""
    if a >= 0 and b >= 0:
        return 1 if a or b else 0
    if a <= 0 and b <= 0:
        return -1
    # opposite signs: compare a^2 against b^2 * d
    lhs = a * a
    rhs = b * b * d
    if lhs == rhs:  # would make sqrt(d) rational
        raise ArithmeticError("non-square radicand produced a zero norm")
    if a > 0:  # a > 0 > b
        return 1 if lhs > rhs else -1
    return 1 if rhs > lhs else -1


def _joint(d1: int, d2: int) -> int:
    """Radicand valid for both operands, or raise on a genuine mix."""
    if d1 == d2 or not d2:
        return d1
    if not d1:
        return d2
    raise ValueError(f"mixed radicands {d1} and {d2}")


class QuadReal:
    """An element ``(a + b*sqrt(d)) / q`` of a real quadratic field.

    The four integers are read-only attributes in canonical form (see the
    module docstring); ``rat`` and ``irr`` give the rational and irrational
    parts ``a/q`` and ``b/q`` as fractions.  ``d`` must be a non-square
    positive integer whenever ``b != 0``; a pure rational carries ``d == 0``
    and mixes with any radicand.  Elements with different radicands compare
    by value (``sqrt(8) == 2*sqrt(2)``) but refuse arithmetic, since the sum
    would leave both fields.
    """

    __slots__ = ("a", "b", "q", "d")

    def __init__(self, rat: _RationalLike, irr: _RationalLike = 0, d: int = 0):
        if type(rat) is int and type(irr) is int:
            a, b, q = rat, irr, 1
        else:
            rat = Fraction(rat)
            irr = Fraction(irr)
            q = math.lcm(rat.denominator, irr.denominator)
            a = rat.numerator * (q // rat.denominator)
            b = irr.numerator * (q // irr.denominator)
        if b == 0:
            d = 0
        elif d <= 0 or _is_square(d):
            raise ValueError(f"radicand must be a positive non-square, got {d}")
        _set_a(self, a)
        _set_b(self, b)
        _set_q(self, q)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadReal is immutable")

    @property
    def rat(self) -> Fraction:
        """The rational part a/q."""
        return Fraction(self.a, self.q)

    @property
    def irr(self) -> Fraction:
        """The coefficient b/q of sqrt(d)."""
        return Fraction(self.b, self.q)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def of(cls, value: "QuadReal | _RationalLike") -> "QuadReal":
        if isinstance(value, QuadReal):
            return value
        return cls(Fraction(value))

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
    #
    # Each operation coerces an int or Fraction operand (anything else is
    # NotImplemented) and works on the integers.  Int operands take a short
    # cut: adding one leaves gcd(a, b, q) == 1, so it needs no gcd at all.

    def __add__(self, other) -> "QuadReal":
        if type(other) is not QuadReal:
            if type(other) is int:
                return _make(self.a + other * self.q, self.b, self.q, self.d)
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d = _joint(self.d, other.d)
        q1, q2 = self.q, other.q
        if q1 == q2:
            return reduced_surd(self.a + other.a, self.b + other.b, q1, d)
        return reduced_surd(self.a * q2 + other.a * q1, self.b * q2 + other.b * q1,
                            q1 * q2, d)

    __radd__ = __add__

    def __neg__(self) -> "QuadReal":
        return _make(-self.a, -self.b, self.q, self.d)

    def __sub__(self, other) -> "QuadReal":
        if type(other) is not QuadReal:
            if type(other) is int:
                return _make(self.a - other * self.q, self.b, self.q, self.d)
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d = _joint(self.d, other.d)
        q1, q2 = self.q, other.q
        if q1 == q2:
            return reduced_surd(self.a - other.a, self.b - other.b, q1, d)
        return reduced_surd(self.a * q2 - other.a * q1, self.b * q2 - other.b * q1,
                            q1 * q2, d)

    def __rsub__(self, other) -> "QuadReal":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "QuadReal":
        if type(other) is not QuadReal:
            if type(other) is int:
                if other == 0:
                    return _make(0, 0, 1, 0)
                # gcd(a, b, q) == 1, so gcd(a*k, b*k, q) == gcd(k, q)
                g = math.gcd(other, self.q)
                k = other // g
                return _make(self.a * k, self.b * k, self.q // g, self.d)
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d = _joint(self.d, other.d)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return reduced_surd(a1 * a2 + b1 * b2 * d, a1 * b2 + b1 * a2,
                            self.q * other.q, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadReal":
        a, b, q = self.a, self.b, self.q
        if a == 0 and b == 0:
            raise ZeroDivisionError("QuadReal division by zero")
        # q / (a + b*sqrt(d)) == q*(a - b*sqrt(d)) / norm; norm == 0 would
        # force sqrt(d) rational, impossible for non-square d
        norm = a * a - b * b * self.d
        if norm < 0:
            norm, q = -norm, -q
        return reduced_surd(q * a, -q * b, norm, self.d)

    def __truediv__(self, other) -> "QuadReal":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> "QuadReal":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> "QuadReal":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = _make(1, 0, 1, 0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "QuadReal":
        """Galois conjugate (a - b*sqrt(d)) / q."""
        return _make(self.a, -self.b, self.q, self.d)

    # -- exact predicates ------------------------------------------------------

    def sign(self) -> int:
        """-1, 0 or +1, decided exactly."""
        return sign_surd(self.a, self.b, self.d)

    def _value_key(self):
        b, q = self.b, self.q
        return (Fraction(self.a, q), 1 if b > 0 else (-1 if b < 0 else 0),
                Fraction(b * b * self.d, q * q))

    def __eq__(self, other) -> bool:
        if type(other) is not QuadReal:
            if type(other) is int:
                return self.b == 0 and self.q == 1 and self.a == other
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if self.d == other.d:  # canonical form: equal value, equal integers
            return self.a == other.a and self.b == other.b and self.q == other.q
        if not (self.d and other.d):  # one rational, one irrational
            return False
        return self._value_key() == other._value_key()

    def __hash__(self) -> int:
        return hash(self._value_key())

    def _cmp(self, other):
        """Sign of self - other, or NotImplemented for a foreign operand.

        The sign of the cross-multiplied numerator: the denominators are
        positive, so no difference element is built."""
        if type(other) is not QuadReal:
            if type(other) is int:
                return sign_surd(self.a - other * self.q, self.b, self.d)
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d = _joint(self.d, other.d)
        q1, q2 = self.q, other.q
        if q1 == q2:
            return sign_surd(self.a - other.a, self.b - other.b, d)
        return sign_surd(self.a * q2 - other.a * q1, self.b * q2 - other.b * q1, d)

    def __lt__(self, other) -> bool:
        c = self._cmp(other)
        return c if c is NotImplemented else c < 0

    def __le__(self, other) -> bool:
        c = self._cmp(other)
        return c if c is NotImplemented else c <= 0

    def __gt__(self, other) -> bool:
        c = self._cmp(other)
        return c if c is NotImplemented else c > 0

    def __ge__(self, other) -> bool:
        c = self._cmp(other)
        return c if c is NotImplemented else c >= 0

    def __abs__(self) -> "QuadReal":
        return -self if sign_surd(self.a, self.b, self.d) < 0 else self

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError("not a rational value")
        return Fraction(self.a, self.q)

    def floor(self) -> int:
        """Exact floor, in closed form."""
        return floor_surd(self.a, self.b, self.q, self.d)

    # -- rendering -------------------------------------------------------------

    def __float__(self) -> float:
        rat, irr = self.rat, self.irr
        if irr == 0:
            return float(rat)
        # evaluate through a guarded rational approximation of sqrt(d): the
        # naive float sum cancels catastrophically when rat and irr*sqrt(d)
        # are huge and nearly opposite (routine for deep cylinder bounds)
        k = 40 + len(str(abs(rat.numerator))) + len(str(abs(irr.numerator)))
        root = Fraction(math.isqrt(self.d * 10 ** (2 * k)), 10 ** k)
        return float(rat + irr * root)

    def decimal(self, places: int = 12) -> str:
        """Correctly rounded fixed-point decimal string.

        The sqrt(d) approximation carries enough guard digits that the
        rounded digit is exact for irrational values; rational values are
        rounded half-to-even on the (rare) exact tie.
        """
        rat, irr = self.rat, self.irr
        if irr == 0:
            approx = rat
        else:
            k = places + 12 + len(str(abs(irr.numerator)))
            root = Fraction(math.isqrt(self.d * 10 ** (2 * k)), 10 ** k)
            approx = rat + irr * root
        scaled = approx * 10 ** places
        n = round(scaled)
        sign = "-" if n < 0 else ""
        n = abs(n)
        whole, frac = divmod(n, 10 ** places)
        return f"{sign}{whole}.{frac:0{places}d}"

    def exact_str(self) -> str:
        """Canonical text form ``a/b + c/d*sqrt(D)`` (or bare rational)."""
        rat, irr = self.rat, self.irr
        if irr == 0:
            return str(rat)
        if irr > 0:
            return f"{rat} + {irr}*sqrt({self.d})"
        return f"{rat} - {-irr}*sqrt({self.d})"

    def __repr__(self) -> str:
        return f"QuadReal({self.exact_str()})"


_set_a, _set_b, _set_q, _set_d = (QuadReal.__dict__[name].__set__
                                  for name in QuadReal.__slots__)
_new = object.__new__


def _make(a: int, b: int, q: int, d: int) -> QuadReal:
    """An element from integers already in canonical form.  Internal results
    skip the public constructor's checks: their radicand was validated on an
    operand."""
    x = _new(QuadReal)
    _set_a(x, a)
    _set_b(x, b)
    _set_q(x, q)
    _set_d(x, d)
    return x


def reduced_surd(a: int, b: int, q: int, d: int) -> QuadReal:
    """(a + b*sqrt(d)) / q for q > 0, brought to canonical form."""
    g = math.gcd(a, b, q)
    if g != 1:
        a //= g
        b //= g
        q //= g
    return _make(a, b, q, d if b else 0)


def _coerce(value) -> QuadReal | None:
    if isinstance(value, QuadReal):
        return value
    if isinstance(value, int):
        return _make(int(value), 0, 1, 0)
    if isinstance(value, Fraction):
        return _make(value.numerator, 0, value.denominator, 0)
    return None


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
    first repeated state starts the minimal period after the shortest
    preperiod (equal last quotients would make an earlier state repeat).
    Rational input has a finite expansion, hence no period, and is rejected.
    """
    if x.b == 0:
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
    return ContinuedFraction(tuple(terms[:start]), tuple(terms[start:]))
