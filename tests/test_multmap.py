"""Base-n circle multiplication: digits, cylinders, and the closure pitfall."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_torus.multmap import (
    ExpansionAmbiguity,
    MultiplicationSystem,
    _contains,
)

BASES = [2, 3, 10]


@pytest.fixture(params=BASES, ids=lambda n: f"base{n}")
def system(request):
    return MultiplicationSystem(request.param)


def random_rationals(seed, count, max_den=10**6):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        den = rng.randrange(2, max_den)
        out.append(Fraction(rng.randrange(den), den))
    return out


def test_rejects_degenerate_base():
    with pytest.raises(ValueError):
        MultiplicationSystem(1)


def test_intervals_tile_the_circle(system):
    n = system.base
    ivals = system.intervals
    assert len(ivals) == n
    assert ivals[0][0] == 0 and ivals[-1][1] == 1
    for (_, hi), (lo, _) in zip(ivals, ivals[1:]):
        assert hi == lo


def test_interval_endpoints(system):
    n = system.base
    for k, (lo, hi) in enumerate(system.intervals):
        assert lo == Fraction(k, n) and hi == Fraction(k + 1, n)


def test_preimages_are_exactly_the_fiber(system):
    for x in random_rationals(5, 10):
        pres = system.preimages(x)
        assert len(set(pres)) == system.base
        for y in pres:
            assert system.apply(y) == x % 1


# -- property (i): the map intertwines with the shift ------------------------------


def test_shift_compatibility_exhaustive_short(system):
    n = system.base
    depth = 4
    for index in range(n**depth):
        word = system._digits(index, depth)
        assert system.apply(system.digit_value(word)) == system.digit_value(word[1:])


def test_shift_compatibility_depth_24(system):
    rng = random.Random(77)
    for _ in range(25):
        word = tuple(rng.randrange(system.base) for _ in range(24))
        assert system.apply(system.digit_value(word)) == system.digit_value(word[1:])


@pytest.mark.parametrize("length", [1, 2, 32, 33, 64, 65, 100, 1000])
def test_digit_value_equals_the_per_digit_sum(system, length):
    """The numerator built by halves is the sum of word[k] / base^(k+1)."""
    rng = random.Random(length)
    for _ in range(5):
        word = tuple(rng.randrange(system.base) for _ in range(length))
        total = sum((Fraction(d, system.base ** (k + 1)) for k, d in enumerate(word)),
                    Fraction(0))
        assert system.digit_value(word) == total


# -- property (ii): cylinders nest and shrink geometrically --------------------------


def test_cylinders_nest_with_exact_diameter(system):
    rng = random.Random(99)
    word = tuple(rng.randrange(system.base) for _ in range(24))
    boxes = [system.decode(word[:k]) for k in range(1, 25)]
    for k, (lo, hi) in enumerate(boxes, start=1):
        assert hi - lo == Fraction(1, system.base**k)
    for (olo, ohi), (ilo, ihi) in zip(boxes, boxes[1:]):
        assert olo <= ilo and ihi <= ohi


def test_agreeing_prefixes_pin_points_together(system):
    # two points with the same first k digits differ by at most base^-k
    x, y = Fraction(5, 17), Fraction(6, 17)
    k = 0
    wx, wy = system.encode(x, 24), system.encode(y, 24)
    while k < 24 and wx[k] == wy[k]:
        k += 1
    assert abs(x - y) <= Fraction(1, system.base ** k)


# -- property (iii): every point is coded ---------------------------------------------


def test_every_point_has_an_expansion_whose_cylinder_contains_it(system):
    pts = random_rationals(11, 15) + [
        Fraction(0),
        Fraction(1, system.base**4),
        Fraction(3, system.base**2),
    ]
    for x in pts:
        words = system.expansions(x, 24)
        assert words
        for word in words:
            lo, hi = system.decode(word)
            x0 = x % 1
            assert lo <= x0 <= hi or (x0 == 0 and hi == 1)


# -- properties (iv) and (v): preimage count is 2 at base-n rationals, else 1 ---------


def test_preimage_count_bound_and_uniqueness(system):
    for x in random_rationals(13, 15):
        words = system.expansions(x, 24)
        assert len(words) == (2 if system.is_adic(x) else 1)
        assert len(words) <= 2
    # forced two-expansion points
    n = system.base
    for x in [Fraction(0), Fraction(1, n), Fraction(1, n**3), Fraction(n - 1, n**2)]:
        words = system.expansions(x, 24)
        assert len(words) == 2 and words[0] != words[1]


def test_two_expansions_values_pin_the_point(system):
    n = system.base
    x = Fraction(1, n**3)
    a, b = system.expansions(x, 24)
    va, vb = system.digit_value(a), system.digit_value(b)
    # the trailing-(n-1) word undershoots by exactly one ulp at depth 24
    assert sorted([va, vb]) == [x - Fraction(1, n**24), x]
    assert a[3:] == (n - 1,) * 21 or b[3:] == (n - 1,) * 21


def test_zero_has_the_two_constant_expansions(system):
    n = system.base
    words = system.expansions(Fraction(0), 8)
    assert words == ((0,) * 8, (n - 1,) * 8)


def test_encode_returns_ambiguity_on_base_n_rationals(system):
    n = system.base
    result = system.encode(Fraction(1, n**2), 10)
    assert isinstance(result, ExpansionAmbiguity)
    # 1/n^2 maps to the endpoint 1/n after one step
    assert result.time == 1 and result.point == Fraction(1, n)
    assert result.expansions == system.expansions(Fraction(1, n**2), 10)
    assert len(result.expansions) == 2
    zero = system.encode(Fraction(0), 3)
    assert isinstance(zero, ExpansionAmbiguity)
    assert zero.expansions == ((0, 0, 0), (n - 1, n - 1, n - 1))


def test_encode_matches_expansions_for_generic_points(system):
    for x in random_rationals(17, 10):
        if system.is_adic(x):
            continue
        assert system.expansions(x, 24) == (system.encode(x, 24),)


def _encode_per_digit(system, x, depth):
    """Encode as it was written before it stepped one integer numerator:
    one Fraction per digit."""
    y, digits = x % 1, []
    for k in range(depth):
        scaled = y * system.base
        digit = scaled.numerator // scaled.denominator
        if scaled == digit:
            return ExpansionAmbiguity(k, y, system.expansions(x, depth))
        digits.append(digit)
        y = scaled - digit
    return tuple(digits)


@pytest.mark.parametrize("base", range(2, 11))
def test_encode_on_integers_equals_the_per_digit_fraction_loop(base):
    """Digits, and an ambiguity's time, point and expansions, on seeded
    points, base-n rationals of every level up to 6, and points outside
    [0, 1)."""
    system = MultiplicationSystem(base)
    rng = random.Random(base)
    adic = [Fraction(rng.randrange(base ** m), base ** m) for m in range(7) for _ in range(3)]
    outside = [Fraction(-7, 3), Fraction(5, 2), Fraction(3), Fraction(-1, base ** 2)]
    for x in random_rationals(base, 20) + adic + outside:
        for depth in (1, 3, 12):
            got, want = system.encode(x, depth), _encode_per_digit(system, x, depth)
            assert got == want, (x, depth)
            if isinstance(got, ExpansionAmbiguity):
                assert type(got.point) is Fraction


# -- the ill-definedness regression ---------------------------------------------------


def test_naive_decode_keeps_the_fixed_point():
    sys2 = MultiplicationSystem(2)
    word = (1,) + (0,) * 11
    naive = sys2.naive_decode(word)
    assert sys2.naive_contains(word, Fraction(1, 2))
    assert sys2.naive_contains(word, Fraction(1))
    assert sys2.naive_contains(word, Fraction(0))  # 0 ~ 1 on the circle
    lo, hi = sys2.decode(word)
    assert lo == Fraction(1, 2) and hi - lo == Fraction(1, 2**12)
    assert not (lo <= Fraction(1) <= hi)
    # so per-iterate closures keep at least two far-apart points forever,
    # and the would-be factor map is ill-defined on this word
    assert max(b for _, b in naive) - min(a for a, _ in naive) >= Fraction(1, 2)


def test_naive_decode_contains_proper_cylinder(system):
    rng = random.Random(23)
    for _ in range(8):
        word = tuple(rng.randrange(system.base) for _ in range(12))
        lo, hi = system.decode(word)
        naive = system.naive_decode(word)
        assert any(a <= lo and hi <= b for a, b in naive)


def test_naive_decode_traps_endpoint_shadows():
    # every backward orbit of the seam point that shadows the word survives
    sys2 = MultiplicationSystem(2)
    naive = sys2.naive_decode((1,) + (0,) * 9)
    points = [Fraction(3, 4), Fraction(5, 8), Fraction(9, 16)]
    for p in points:  # preimages of the fixed point with itineraries 1,0,0,...
        assert _contains(naive, p)


# -- exactness under hypothesis -------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    num=st.integers(min_value=0, max_value=10**6),
    den=st.integers(min_value=1, max_value=10**6),
    base=st.sampled_from(BASES),
)
def test_expansion_count_matches_depth_grid(num, den, base):
    system = MultiplicationSystem(base)
    x = Fraction(num % den, den)
    depth = 16
    words = system.expansions(x, depth)
    # the two expansions of an adic point split at its adic level, so a
    # depth-16 window sees both words exactly on the grid {k / base^16}
    on_grid = (x * base ** depth).denominator == 1
    assert len(words) == (2 if on_grid else 1)
    if on_grid:
        assert system.is_adic(x)
    if system.is_adic(x):
        # den <= 10^6 < 2^21 bounds the adic level by 20 for every base
        assert len(system.expansions(x, 21)) == 2
    for word in words:
        lo, hi = system.decode(word)
        assert lo <= x <= hi or x == 0
