"""Multiplication-by-n circle maps and their base-n symbolic representation.

The warm-up system: f(x) = {n x} on the circle, coded against the open
intervals R_k = (k/n, (k+1)/n).  The factor map sends a digit sequence to
sum s_k / n^(k+1); this module provides the exact finite-depth versions of
that map, its cylinder decoding, and the deliberately *wrong* per-iterate
decoding whose failure motivates taking closures only after intersecting.
All arithmetic is over Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "ExpansionAmbiguity",
    "MultiplicationSystem",
    "IntervalSet",
]


@dataclass(frozen=True)
class ExpansionAmbiguity:
    """Returned by :meth:`MultiplicationSystem.encode` when an iterate lands
    on an interval endpoint: the point has exactly two expansions, both
    listed (as depth-truncations).  ``time`` is the first digit index where
    the endpoint ``point`` is reached."""

    time: int
    point: Fraction
    expansions: tuple[tuple[int, ...], ...]

    def __str__(self) -> str:
        return (
            f"digit {self.time} hits the endpoint {self.point}; "
            f"both expansions listed"
        )


# -- exact circle interval sets ----------------------------------------------------


IntervalSet = tuple[tuple[Fraction, Fraction], ...]
"""Finite unions of closed intervals inside [0, 1], sorted and disjoint;
degenerate intervals (single points) are allowed.  Sets are kept symmetric
under the identification 0 ~ 1: if one seam point belongs, so does the
other."""


def _normalize(intervals: Iterable[tuple[Fraction, Fraction]]) -> IntervalSet:
    items = sorted((lo, hi) for lo, hi in intervals if lo <= hi)
    merged: list[list[Fraction]] = []
    for lo, hi in items:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    out = [(lo, hi) for lo, hi in merged]
    # seam symmetry: the circle identifies 0 with 1
    zero = Fraction(0)
    one = Fraction(1)
    has_zero = any(lo == zero for lo, _ in out)
    has_one = any(hi == one for _, hi in out)
    if has_zero and not has_one:
        out.append((one, one))
    if has_one and not has_zero:
        out.insert(0, (zero, zero))
    return tuple(out)


def _intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    pieces = []
    for alo, ahi in a:
        for blo, bhi in b:
            lo, hi = max(alo, blo), min(ahi, bhi)
            if lo <= hi:
                pieces.append((lo, hi))
    return _normalize(pieces)


def _contains(s: IntervalSet, x: Fraction) -> bool:
    return any(lo <= x <= hi for lo, hi in s)


@dataclass(frozen=True)
class MultiplicationSystem:
    """f(x) = {base * x} on the circle with the n open coding intervals."""

    base: int

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be at least 2")

    # -- the map -------------------------------------------------------------

    @property
    def intervals(self) -> IntervalSet:
        n = self.base
        return tuple((Fraction(k, n), Fraction(k + 1, n)) for k in range(n))

    def apply(self, x: Fraction) -> Fraction:
        return (x * self.base) % 1

    def preimages(self, x: Fraction) -> tuple[Fraction, ...]:
        x = x % 1
        return tuple((x + m) / self.base for m in range(self.base))

    def is_adic(self, x: Fraction) -> bool:
        """True when x is a base-n rational {k / n^m}, the points with two
        expansions."""
        x = x % 1
        den = x.denominator
        n = self.base
        while den > 1:
            g = 1
            for p in range(2, n + 1):
                if n % p == 0 and den % p == 0:
                    g = p
                    break
            if g == 1:
                return False
            while den % g == 0:
                den //= g
        return True

    # -- the factor map on finite words ---------------------------------------

    def digit_value(self, word: Sequence[int]) -> Fraction:
        """Exact value of the digit word extended by zeros: sum of
        word[k] / base^(k+1), one fraction with its numerator built by halves."""
        self._check_word(word)

        def num(d):  # the digits d as one base-n integer
            h = len(d) // 2
            return num(d[:h]) * self.base ** (len(d) - h) + num(d[h:]) if h else d[0]

        return Fraction(num(word), self.base ** len(word))

    def encode(self, x: Fraction, depth: int
               ) -> tuple[int, ...] | ExpansionAmbiguity:
        """First ``depth`` digits of the unique expansion of x, or an
        :class:`ExpansionAmbiguity` listing both expansions when an iterate
        hits an endpoint (exactly the base-n rationals)."""
        if depth < 1:
            raise ValueError("depth must be >= 1")
        y = x % 1
        digits = []
        for k in range(depth):
            scaled = y * self.base
            digit = scaled.numerator // scaled.denominator
            if scaled == digit:
                return ExpansionAmbiguity(k, y, self.expansions(x, depth))
            digits.append(digit)
            y = scaled - digit
        return tuple(digits)

    def expansions(self, x: Fraction, depth: int) -> tuple[tuple[int, ...], ...]:
        """Every depth-``depth`` word whose closed cylinder contains {x}.

        Exactly two when x lies on the depth-level grid {k / n^depth}: there
        the terminating expansion and the one trailing in base-1 digits have
        already split.  A deeper base-n rational splits only at its own adic
        level, so both truncations coincide and one word is returned, as for
        every non-adic point."""
        if depth < 1:
            raise ValueError("depth must be >= 1")
        x = x % 1
        scaled = x * self.base ** depth
        floor = scaled.numerator // scaled.denominator
        total = self.base ** depth
        indices = {floor % total}
        if scaled == floor:
            indices.add((floor - 1) % total)
        return tuple(sorted(self._digits(j, depth) for j in indices))

    def _digits(self, index: int, depth: int) -> tuple[int, ...]:
        digits = []
        for _ in range(depth):
            index, d = divmod(index, self.base)
            digits.append(d)
        return tuple(reversed(digits))

    # -- decoding ------------------------------------------------------------

    def _check_word(self, word: Sequence[int]) -> None:
        if not word:
            raise ValueError("empty word")
        for d in word:
            if not 0 <= d < self.base:
                raise ValueError(f"digit {d} out of range 0..{self.base - 1}")

    def decode(self, word: Sequence[int]) -> tuple[Fraction, Fraction]:
        """The closed cylinder named by the word: the closure of
        R_{s_0} meet f^-1 R_{s_1} meet ... , taken *after* intersecting.
        This is the interval [v, v + base^-depth] at v = digit_value(word)."""
        self._check_word(word)
        lo = self.digit_value(word)
        return (lo, lo + Fraction(1, self.base ** len(word)))

    def naive_decode(self, word: Sequence[int]) -> IntervalSet:
        """The per-iterate-closure set: intersection over k of
        f^-k(closure R_{s_k}).

        This is what one gets by closing each constraint *before*
        intersecting; it strictly contains :meth:`decode` whenever an orbit of
        an endpoint shadows the word (the fixed seam point 0 ~ 1 does this for
        every word), which is why it does not define a factor map."""
        self._check_word(word)
        n = self.base
        closed = [
            _normalize([(Fraction(k, n), Fraction(k + 1, n))]) for k in range(n)
        ]
        # fold from the tail: T_k = closure(R_{s_k}) meet f^-1(T_{k+1});
        # pulling back keeps the interval count small, while expanding
        # f^-k(R_{s_k}) directly would produce base^k pieces
        current = closed[word[-1]]
        for digit in reversed(word[:-1]):
            pulled = _normalize(
                ((lo + m) / n, (hi + m) / n)
                for lo, hi in current
                for m in range(n)
            )
            current = _intersect(closed[digit], pulled)
        return current

    def naive_contains(self, word: Sequence[int], x: Fraction) -> bool:
        return _contains(self.naive_decode(word), x % 1)
