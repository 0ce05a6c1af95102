"""Differential test: the integer-backed QuadReal against the Fraction-backed
reference kept in ``oracles.FractionQuadReal``.

Both classes are built from the same (rat, irr, d) and must agree on every
value, predicate and rendering, including rational operands mixed with
irrational ones, radicands that are not squarefree, and the deep unit powers
that bound cylinders.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_torus.exact import QuadReal
from markov_torus.torus import Mat2Z, hyperbolic_check

from oracles import FractionQuadReal

DISCS = [2, 3, 5, 8, 12, 13, 229]  # 8 and 12 are not squarefree

st_rational = st.fractions(
    min_value=Fraction(-60), max_value=Fraction(60), max_denominator=50
)
# irrational part zero often enough that rationals meet irrationals
st_irr = st.one_of(st.just(Fraction(0)), st_rational)
st_scalar = st.one_of(st.integers(-30, 30), st_rational)


@st.composite
def st_pair(draw, d):
    rat, irr = draw(st_rational), draw(st_irr)
    dd = d if irr else 0
    return QuadReal(rat, irr, dd), FractionQuadReal(rat, irr, dd)


def oracle_of(x: QuadReal) -> FractionQuadReal:
    return FractionQuadReal(x.rat, x.irr, x.d)


def same(x, ref) -> None:
    """x is the oracle's value, in canonical form, and renders like it."""
    assert isinstance(x, QuadReal)
    assert (x.rat, x.irr, x.d) == (ref.rat, ref.irr, ref.d)
    assert x.q > 0 and math.gcd(x.a, x.b, x.q) == 1
    assert (x.b == 0) == (x.d == 0)
    assert x.exact_str() == ref.exact_str()


def same_predicates(x, fx, y, fy) -> None:
    assert (x < y) == (fx < fy)
    assert (x <= y) == (fx <= fy)
    assert (x > y) == (fx > fy)
    assert (x >= y) == (fx >= fy)
    assert (x == y) == (fx == fy)
    assert (x != y) == (fx != fy)


@settings(deadline=None)
@given(st.data(), st.sampled_from(DISCS))
def test_binary_operations_match_oracle(data, d):
    x, fx = data.draw(st_pair(d))
    y, fy = data.draw(st_pair(d))
    same(x + y, fx + fy)
    same(x - y, fx - fy)
    same(x * y, fx * fy)
    if fy:
        same(x / y, fx / fy)
    same_predicates(x, fx, y, fy)
    same_predicates(x, fx, x, fx)


@settings(deadline=None)
@given(st.data(), st.sampled_from(DISCS), st_scalar)
def test_scalar_operands_match_oracle(data, d, k):
    x, fx = data.draw(st_pair(d))
    same(x + k, fx + k)
    same(k + x, k + fx)
    same(x - k, fx - k)
    same(k - x, k - fx)
    same(x * k, fx * k)
    same(k * x, k * fx)
    if k:
        same(x / k, fx / k)
    if fx:
        same(k / x, k / fx)
    assert (x < k) == (fx < k)
    assert (k < x) == (k < fx)
    assert (x <= k) == (fx <= k)
    assert (x == k) == (fx == k)
    assert (k == x) == (k == fx)


@settings(deadline=None)
@given(st.data(), st.sampled_from(DISCS), st.integers(-6, 6))
def test_unary_operations_match_oracle(data, d, n):
    x, fx = data.draw(st_pair(d))
    same(-x, -fx)
    same(abs(x), abs(fx))
    same(x.conjugate(), fx.conjugate())
    if fx:
        same(x.inverse(), fx.inverse())
    if fx or n >= 0:
        same(x ** n, fx ** n)
    assert x.sign() == fx.sign()
    assert x.floor() == fx.floor()
    assert hash(x) == hash(fx)
    assert bool(x) == bool(fx)
    assert x.is_rational() == fx.is_rational()
    assert float(x) == float(fx)
    for places in (0, 3, 12):
        assert x.decimal(places) == fx.decimal(places)
    text = x.exact_str()
    same(QuadReal.parse(text), FractionQuadReal.parse(text))
    assert QuadReal.parse(text) == x


@given(st_rational, st_rational.filter(bool))
def test_non_squarefree_radicands_compare_by_value(rat, s):
    # s*sqrt(8) == 2s*sqrt(2): equal values and hashes, under both classes
    x, y = QuadReal(rat, s, 8), QuadReal(rat, 2 * s, 2)
    fx, fy = FractionQuadReal(rat, s, 8), FractionQuadReal(rat, 2 * s, 2)
    assert x == y and fx == fy
    assert hash(x) == hash(y) == hash(fx) == hash(fy)
    z, fz = QuadReal(rat, s, 2), FractionQuadReal(rat, s, 2)
    assert x != z and fx != fz
    assert x != rat and fx != rat


def test_mixed_radicands_refuse_arithmetic_like_oracle():
    for cls in (QuadReal, FractionQuadReal):
        x, y = cls(0, 1, 2), cls(0, 1, 3)
        for op in (lambda: x + y, lambda: x - y, lambda: x * y,
                   lambda: x / y, lambda: x < y):
            with pytest.raises(ValueError):
                op()
        with pytest.raises(ValueError):
            cls(0, 1, 8) < cls(0, 2, 2)
        with pytest.raises(ZeroDivisionError):
            cls(0).inverse()


UNIT_MATRICES = [Mat2Z(1, 1, 1, 0), Mat2Z(2, 1, 1, 1), Mat2Z(0, 1, 1, 3),
                 Mat2Z(-2, -3, -1, -2), Mat2Z(15, 1, 1, 0)]


@pytest.mark.parametrize("mat", UNIT_MATRICES, ids=str)
def test_deep_unit_powers_match_oracle(mat):
    """lambda^+-40 and mu^+-40, the scale of deep cylinder bounds."""
    eig = hyperbolic_check(mat)
    for unit in (eig.lam, eig.mu):
        ref = oracle_of(unit)
        for n in (-40, -39, -1, 1, 39, 40):
            x, fx = unit ** n, ref ** n
            same(x, fx)
            assert x.floor() == fx.floor()
            assert x.sign() == fx.sign()
            assert float(x) == float(fx)
            assert x.decimal(12) == fx.decimal(12)
            assert hash(x) == hash(fx)
            # one step across an integer: exact where floats have collapsed
            f = x.floor()
            same(x - f, fx - f)
            assert (x - f < 1) and (f <= x)
        same(unit ** 40 * unit ** -40, ref ** 40 * ref ** -40)
    same(eig.lam ** 40 * eig.mu ** 40, oracle_of(eig.lam) ** 40 * oracle_of(eig.mu) ** 40)


def test_quadreal_is_immutable():
    x = QuadReal(Fraction(1, 2), Fraction(3, 4), 5)
    for name in ("a", "b", "q", "d", "rat", "irr", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    same(x, FractionQuadReal(Fraction(1, 2), Fraction(3, 4), 5))
