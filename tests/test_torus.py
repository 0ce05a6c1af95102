"""Matrix layer: hyperbolicity, eigen-data, torus action, periodic points."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_torus.basis import StripBasis
from markov_torus.exact import QuadReal
from markov_torus.torus import (
    EigenFrame,
    InvariantError,
    Mat2Z,
    NotAutomorphismError,
    NotHyperbolicError,
    apply_auto,
    count_periodic_points,
    hyperbolic_check,
    is_hyperbolic,
)
from markov_torus.walk import _lattice_class
from oracles import brute_torus_periodic, float_eigen

FIB = Mat2Z(1, 1, 1, 0)


def random_hyperbolic(rng: random.Random, max_entry: int = 50) -> Mat2Z:
    """Random hyperbolic GL(2,Z) element with bounded entries, built as a
    short product of unimodular shears/swaps (every such product is in GL2Z)."""
    while True:
        m = Mat2Z.identity()
        for _ in range(rng.randint(2, 6)):
            k = rng.randint(-3, 3)
            if rng.random() < 0.5:
                m = m @ Mat2Z(1, k, 0, 1)
            else:
                m = m @ Mat2Z(1, 0, k, 1)
            if rng.random() < 0.3:
                m = m @ Mat2Z.swap()
        if m.scale() <= max_entry and is_hyperbolic(m):
            return m


def test_matrix_algebra():
    a = Mat2Z(1, 2, 3, 4)
    b = Mat2Z(0, 1, 1, 1)
    assert (a @ b).rows() == ((2, 3), (4, 7))
    assert (FIB ** 5).rows() == ((8, 5), (5, 3))
    assert (FIB ** -2) @ (FIB ** 2) == Mat2Z.identity()
    assert FIB.inverse().rows() == ((0, 1), (1, -1))
    with pytest.raises(NotAutomorphismError):
        a.inverse()


def test_row_vector_action():
    # (x, y) -> (x a + y c, x b + y d)
    assert Mat2Z(1, 2, 3, 4).act((1, 0)) == (1, 2)
    assert Mat2Z(1, 2, 3, 4).act((0, 1)) == (3, 4)


def test_hyperbolicity_criterion():
    assert is_hyperbolic(FIB)  # det -1, trace 1
    assert is_hyperbolic(Mat2Z(2, 1, 1, 1))  # det +1, trace 3
    assert not is_hyperbolic(Mat2Z(1, 1, 0, 1))  # shear, eigenvalue 1
    assert not is_hyperbolic(Mat2Z(0, 1, 1, 0))  # det -1, trace 0
    assert not is_hyperbolic(Mat2Z(0, -1, 1, 0))  # rotation, det +1, trace 0
    with pytest.raises(NotAutomorphismError):
        hyperbolic_check(Mat2Z(2, 0, 0, 2))
    with pytest.raises(NotHyperbolicError):
        hyperbolic_check(Mat2Z(1, 1, 0, 1))


def test_eigen_data_golden():
    eig = hyperbolic_check(FIB)
    assert eig.disc == 5
    assert eig.lam == QuadReal(Fraction(1, 2), Fraction(1, 2), 5)
    assert eig.mu == QuadReal(Fraction(1, 2), Fraction(-1, 2), 5)
    assert eig.lam * eig.mu == FIB.det()
    assert eig.lam + eig.mu == FIB.trace()
    # v = (c, lam - a) is a genuine row eigenvector: v A = lam v
    vx, vy = eig.v_lam
    ax, ay = FIB.act((vx, vy))
    assert ax == eig.lam * vx and ay == eig.lam * vy
    assert eig.expansive_constant == abs(eig.mu) / 8


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_eigen_data_random(seed):
    rng = random.Random(seed)
    m = random_hyperbolic(rng)
    eig = hyperbolic_check(m)
    lam_f, mu_f = float_eigen(m.rows())
    assert abs(float(eig.lam) - lam_f) < 1e-6 * max(1, abs(lam_f))
    assert abs(float(eig.mu) - mu_f) < 1e-6
    assert (abs(eig.lam) - 1).sign() > 0
    assert (1 - abs(eig.mu)).sign() > 0
    for v, val in ((eig.v_lam, eig.lam), (eig.v_mu, eig.mu)):
        image = m.act(v)
        assert image[0] == val * v[0] and image[1] == val * v[1]


def test_apply_auto_wraps():
    assert apply_auto(FIB, (Fraction(2, 3), Fraction(1, 3))) == (Fraction(0), Fraction(2, 3))
    assert apply_auto(FIB, (Fraction(0), Fraction(0))) == (Fraction(0), Fraction(0))


def test_periodic_point_counts_fibonacci():
    # |det(A^n - I)| = |(-1)^n - Lucas(n) + 1| for the Fibonacci matrix
    counts = [count_periodic_points(FIB, n) for n in range(1, 6)]
    assert counts == [1, 1, 4, 5, 11]
    # identity det(M - I) = det M - trace M + 1 as an independent check
    for n in range(1, 6):
        p = FIB ** n
        assert counts[n - 1] == abs(p.det() - p.trace() + 1)


@pytest.mark.parametrize("mat", [FIB, Mat2Z(2, 1, 1, 1), Mat2Z(1, 2, 1, 1)])
def test_periodic_point_counts_brute(mat):
    for n in (1, 2, 3):
        assert count_periodic_points(mat, n) == brute_torus_periodic(mat.rows(), n)


def _classes(mat, frame, values, *points):
    """Per point's (u, w): the strip basis of ``mat`` on ``frame`` (its Q
    taking in ``values``), and the :func:`_lattice_class` of the point's u
    pair and of its w pair."""
    eig = frame.eig
    basis = StripBasis.build(frame, mat, eig.lam, eig.mu, values)
    return basis, [(_lattice_class(basis.pair(u), basis.lattice[:4]),
                    _lattice_class(basis.pair(w), basis.lattice[4:])) for u, w in points]


def test_frame_round_trip_golden():
    frame = EigenFrame.from_eigen(hyperbolic_check(FIB))
    lattice = [(1, 0), (0, 1), (2, -3), (-1, 4)]
    points = [frame.lattice_frame(m, n) for m, n in lattice]
    for (m, n), (u, w) in zip(lattice, points):
        x, y = frame.to_plane(u, w)
        assert x == m and y == n
    # either coordinate alone gives back the lattice point: zero key, and
    # the point as the quotients
    _, classes = _classes(FIB, frame, (), *points)
    assert classes == [(((0, 0), q), ((0, 0), q)) for q in lattice]
    # a generic point converts and comes back
    u, w = frame.to_frame((Fraction(1, 3), Fraction(2, 7)))
    x, y = frame.to_plane(u, w)
    assert x == Fraction(1, 3) and y == Fraction(2, 7)
    # its coordinates are those of no lattice point, but still solve exactly:
    # det*x == (m*det + r)*c10 + (n*det + s)*c01, in integer pairs
    basis, [(u_class, w_class)] = _classes(FIB, frame, (u, w), (u, w))
    gens = [basis.lattice[k:k + 2] for k in (0, 2, 4, 6)]
    for value, ((r, s), (m, n)), (c10, c01) in ((u, u_class, gens[:2]), (w, w_class, gens[2:])):
        assert (r, s) != (0, 0)
        det = c10[0] * c01[1] - c01[0] * c10[1]
        assert 0 <= Fraction(r, det) < 1 and 0 <= Fraction(s, det) < 1
        x = basis.pair(value)
        for k in (0, 1):
            assert det * x[k] == (m * det + r) * c10[k] + (n * det + s) * c01[k]


def test_lattice_class_rejects_a_rational_basis():
    # two rational multiples of one element: a lattice point on the line
    with pytest.raises(InvariantError, match="a lattice point lies on an eigenline"):
        _lattice_class((1, 0), (1, 0, 2, 0))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_frame_determinant_formula(seed):
    rng = random.Random(seed)
    m = random_hyperbolic(rng)
    eig = hyperbolic_check(m)
    frame = EigenFrame.from_eigen(eig)
    # v_lam x v_mu = c (mu - lam) = -+ c sqrt(D), sign following the lam branch
    branch = 1 if m.trace() > 0 else -1
    assert frame.det == QuadReal(0, -branch * m.c, eig.disc)
    _, classes = _classes(m, frame, (), frame.lattice_frame(3, -2))
    assert classes == [(((0, 0), (3, -2)), ((0, 0), (3, -2)))]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(-50, 50), st.integers(-50, 50))
def test_lattice_frame_is_the_generators_combination(seed, m, n):
    """One reduction of the generators' integers gives the field sums
    m*c10 + n*c01, integers and all."""
    frame = EigenFrame.from_eigen(hyperbolic_check(random_hyperbolic(random.Random(seed))))
    got = frame.lattice_frame(m, n)
    want = (frame.u10 * m + frame.u01 * n, frame.w10 * m + frame.w01 * n)
    assert [(x.a, x.b, x.q, x.d) for x in got] == [(x.a, x.b, x.q, x.d) for x in want]


def _seeded_elements(rng: random.Random, d: int) -> list[QuadReal]:
    """Zero, purely rational elements (d = 0) and elements of Q(sqrt(d)),
    with signed parts over unequal denominators."""
    def part():
        return Fraction(rng.randint(-60, 60), rng.randint(1, 40))
    out = [QuadReal(0), QuadReal(Fraction(-7, 3)), QuadReal(part())]
    while len(out) < 12:
        irr = part()
        if irr:
            out.append(QuadReal(part(), irr, d))
    return out


@pytest.mark.parametrize("mat", [FIB, Mat2Z(3, 2, 1, 1), Mat2Z(-2, -3, -1, -2),
                                 Mat2Z(40, 1, 1, 0)], ids=str)
def test_to_plane_is_the_eigenvector_combination(mat):
    """One reduction per coordinate gives u*v_lam + w*v_mu, integers and all:
    on 3 2 1 1 v_lam.v_mu < 0, and on -2 -3 -1 -2 d = 12 is not squarefree."""
    eig = hyperbolic_check(mat)
    frame = EigenFrame.from_eigen(eig)
    vl, vm = eig.v_lam, eig.v_mu
    elements = _seeded_elements(random.Random(mat.a * 1000 + mat.b), eig.disc)
    for u in elements:
        for w in elements:
            got = frame.to_plane(u, w)
            want = (u * vl[0] + w * vm[0], u * vl[1] + w * vm[1])
            assert [(x.a, x.b, x.q, x.d) for x in got] == [(x.a, x.b, x.q, x.d) for x in want]
    with pytest.raises(ValueError, match="frame coordinates outside"):
        frame.to_plane(QuadReal(1, 1, 7 if eig.disc != 7 else 11), QuadReal(0))
