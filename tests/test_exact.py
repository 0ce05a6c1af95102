"""Exact quadratic-field arithmetic: axioms, predicates, rendering, CF."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_torus.exact import ContinuedFraction, QuadReal, cf_expand

DISCS = [2, 3, 5, 7, 8, 13, 21]

st_rational = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)
st_disc = st.sampled_from(DISCS)


@st.composite
def st_quad(draw, d=None):
    dd = d if d is not None else draw(st_disc)
    rat = draw(st_rational)
    irr = draw(st_rational)
    return QuadReal(rat, irr, dd if irr else 0)


def phi():
    return QuadReal(Fraction(1, 2), Fraction(1, 2), 5)


# -- field axioms -------------------------------------------------------------


@given(st.data(), st_disc)
def test_field_axioms(data, d):
    a = data.draw(st_quad(d=d))
    b = data.draw(st_quad(d=d))
    c = data.draw(st_quad(d=d))
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == QuadReal(0)
    if a != QuadReal(0):
        assert a * a.inverse() == QuadReal(1)


@given(st_quad())
def test_galois_conjugate_norm_is_rational(x):
    n = x * x.conjugate()
    assert n.is_rational()
    assert n.as_fraction() == x.rat * x.rat - x.irr * x.irr * x.d


@given(st_quad(), st.integers(min_value=-4, max_value=6))
def test_integer_powers(x, n):
    if n < 0 and x == QuadReal(0):
        return
    expected = QuadReal(1)
    step = x if n >= 0 else x.inverse()
    for _ in range(abs(n)):
        expected = expected * step
    assert x ** n == expected


# -- exact predicates ----------------------------------------------------------


@given(st.data(), st_disc)
def test_sign_matches_floats_when_separated(data, d):
    x = data.draw(st_quad(d=d))
    y = data.draw(st_quad(d=d))
    diff = float(x) - float(y)
    if abs(diff) > 1e-6:
        assert (x > y) == (diff > 0)


@given(st_quad())
def test_floor_brackets_value(x):
    f = x.floor()
    assert (x - f).sign() >= 0
    assert (x - (f + 1)).sign() < 0
    assert isinstance(f, int)


@given(st_quad())
def test_float_agrees_with_decimal(x):
    assert abs(float(x) - float(x.decimal(15))) < 1e-9


def test_golden_ratio_identities():
    ph = phi()
    mu = ph.conjugate()  # (1 - sqrt 5)/2
    assert ph * mu == QuadReal(-1)
    assert ph * ph == QuadReal(Fraction(3, 2), Fraction(1, 2), 5)
    assert ph * ph == ph + 1
    assert ph.floor() == 1
    assert (-ph).floor() == -2
    assert ph.sign() == 1 and mu.sign() == -1


def test_equality_across_radicands():
    # sqrt(8) == 2*sqrt(2) even though the radicands differ
    assert QuadReal(0, 1, 8) == QuadReal(0, 2, 2)
    assert hash(QuadReal(0, 1, 8)) == hash(QuadReal(0, 2, 2))
    assert QuadReal(3) == QuadReal(3, 0, 0) == 3
    with pytest.raises(ValueError):
        QuadReal(0, 1, 2) + QuadReal(0, 1, 3)


def test_non_square_radicand_rejected():
    with pytest.raises(ValueError):
        QuadReal(0, 1, 9)
    with pytest.raises(ValueError):
        QuadReal(0, 1, 0)
    assert QuadReal(5, 0, 0) == 5  # rational sentinel is fine


# -- rendering and parsing -----------------------------------------------------


def test_exact_str_round_trip():
    cases = [
        QuadReal(Fraction(-1, 2), Fraction(1, 2), 5),
        QuadReal(Fraction(3, 7), Fraction(-2, 5), 13),
        QuadReal(Fraction(4)),
        QuadReal(0, 1, 2),
    ]
    for x in cases:
        assert QuadReal.parse(x.exact_str()) == x


def test_exact_str_format():
    assert QuadReal(Fraction(-1, 2), Fraction(1, 2), 5).exact_str() == "-1/2 + 1/2*sqrt(5)"
    assert QuadReal(Fraction(1, 3), Fraction(-2, 7), 2).exact_str() == "1/3 - 2/7*sqrt(2)"
    assert QuadReal(Fraction(7, 2)).exact_str() == "7/2"


def test_decimal_rendering():
    ph = phi()
    assert ph.decimal(12) == "1.618033988750"
    assert (-ph).decimal(12) == "-1.618033988750"
    assert QuadReal(0, 1, 2).decimal(12) == "1.414213562373"
    assert QuadReal(Fraction(1, 4)).decimal(3) == "0.250"
    assert QuadReal(0).decimal(4) == "0.0000"


@given(st_quad())
def test_decimal_is_correctly_rounded(x):
    s = x.decimal(12)
    approx = Fraction(s.replace(".", "")) / 10 ** 12 if "." in s else Fraction(s)
    # |x - rendered| <= 0.5 * 10^-12 (ties only possible for rationals)
    err = x - approx
    half = Fraction(1, 2 * 10 ** 12)
    assert (err - half).sign() <= 0 and (err + half).sign() >= 0


# -- continued fractions ---------------------------------------------------------


def test_cf_golden_and_sqrt2():
    assert cf_expand(phi()) == ContinuedFraction((), (1,))
    assert cf_expand(QuadReal(0, 1, 2)) == ContinuedFraction((1,), (2,))
    assert cf_expand(QuadReal(Fraction(-1, 2), Fraction(1, 2), 5)) == ContinuedFraction(
        (0,), (1,)
    )


def test_cf_rejects_rationals():
    with pytest.raises(ValueError):
        cf_expand(QuadReal(Fraction(3, 2)))


def test_cf_canonical_trim():
    cf = cf_expand(QuadReal(0, 1, 3))  # sqrt(3) = [1; 1,2 repeating]
    assert cf == ContinuedFraction((1,), (1, 2))
    assert not cf.preperiod or cf.preperiod[-1] != cf.period[-1]


def _eval_cf(cf: ContinuedFraction) -> QuadReal:
    """Independent reconstruction: solve the purely periodic tail, then apply
    the preperiod Moebius map via convergents."""
    k = len(cf.period)
    tail = ContinuedFraction((), cf.period)
    conv = tail.convergents(k)
    p_k, q_k = conv[-1]
    p_k1, q_k1 = conv[-2] if k >= 2 else (1, 0)
    # y = (p_k y + p_k1) / (q_k y + q_k1)  =>  q_k y^2 + (q_k1 - p_k) y - p_k1 = 0
    a, b, c = q_k, q_k1 - p_k, -p_k1
    disc = b * b - 4 * a * c
    y = QuadReal(Fraction(-b, 2 * a), Fraction(1, 2 * a), disc)
    if (y - 1).sign() <= 0:  # purely periodic tails exceed 1
        y = QuadReal(Fraction(-b, 2 * a), Fraction(-1, 2 * a), disc)
    x = y
    for a_i in reversed(cf.preperiod):
        x = QuadReal(a_i) + x.inverse()
    return x


st_small_rational = st.fractions(
    min_value=Fraction(-12), max_value=Fraction(12), max_denominator=12
)


@settings(max_examples=60, deadline=None)
@given(st.data(), st_disc)
def test_cf_reconstructs_value(data, d):
    rat = data.draw(st_small_rational)
    irr = data.draw(st_small_rational.filter(lambda f: f != 0))
    x = QuadReal(rat, irr, d)
    cf = cf_expand(x)
    assert len(cf.period) >= 1
    assert not cf.preperiod or cf.preperiod[-1] != cf.period[-1]
    assert _eval_cf(cf) == x


@settings(max_examples=40, deadline=None)
@given(st.data(), st_disc)
def test_cf_convergents_approach_value(data, d):
    irr = data.draw(st_small_rational.filter(lambda f: f != 0))
    x = QuadReal(data.draw(st_small_rational), irr, d)
    cf = cf_expand(x)
    p, q = cf.convergents(12)[-1]
    assert abs(float(x) - p / q) < 1e-4


def test_floor_near_integer_boundaries():
    # sqrt(2) + (1 - sqrt(2)) type cancellations near integers
    x = QuadReal(-1, 1, 2)  # 0.414...
    assert x.floor() == 0
    y = QuadReal(2, -1, 2)  # 0.585...
    assert y.floor() == 0
    z = QuadReal(1, 1, 2) * QuadReal(1, -1, 2)  # exactly -1
    assert z == -1 and z.floor() == -1
    big = QuadReal(Fraction(10 ** 9), Fraction(1, 10 ** 9), 2)
    assert big.floor() == 10 ** 9


def test_sign_is_exact_where_floats_collapse():
    # 665857/470832 is a Pell over-approximation of sqrt(2): p^2 - 2q^2 = 1,
    # so sqrt(2) - p/q is negative with magnitude ~ 2e-12.
    tiny = QuadReal(Fraction(-665857, 470832), 1, 2)
    assert tiny.sign() == -1
    assert (-tiny).sign() == 1
    assert (tiny + Fraction(1, 10 ** 11)).sign() == 1


def test_float_survives_catastrophic_cancellation():
    # rat and irr*sqrt(d) are ~1.3e10 with a difference of ~0.04: a naive
    # double-precision sum returns garbage near 0.0
    x = QuadReal(13214426410, Fraction(-7629352645, 2), 12)
    value = float(x)
    assert 0.0 < value < 1e-8
    # matches the guarded decimal rendering to full double precision
    assert abs(value - 9.459358743365994e-10) < 1e-22
    assert float(QuadReal(Fraction(3, 4))) == 0.75
