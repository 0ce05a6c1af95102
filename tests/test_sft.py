"""Transition-graph counting, presentations, and spectral data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_torus import sft
from markov_torus.construct import build_markov_construction
from markov_torus.sft import (
    PerronData,
    TransitionGraph,
    char_poly,
    count_blocks,
    count_periodic,
    higher_block_graph,
    perron_data,
    to_dot,
)
from markov_torus.torus import Mat2Z
from oracles import (
    brute_count_blocks,
    brute_count_periodic,
    faddeev_char_poly,
    numpy_spectral_radius,
)

FIB = TransitionGraph([[1, 1], [1, 0]])

st_graph = st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
).map(TransitionGraph)


def test_fibonacci_block_counts():
    assert [count_blocks(FIB, n) for n in range(1, 6)] == [2, 3, 5, 8, 13]


def test_fibonacci_periodic_counts():
    # closed paths: Lucas numbers
    assert [count_periodic(FIB, n) for n in range(1, 6)] == [1, 3, 4, 7, 11]


@settings(max_examples=40)
@given(st_graph, st.integers(min_value=1, max_value=4))
def test_block_count_matches_enumeration(g, n):
    assert count_blocks(g, n) == brute_count_blocks(g.matrix, n)


@settings(max_examples=40)
@given(st_graph, st.integers(min_value=1, max_value=4))
def test_periodic_count_matches_enumeration(g, n):
    assert count_periodic(g, n) == brute_count_periodic(g.matrix, n)


def test_higher_block_presentation():
    hb, blocks = higher_block_graph(FIB)
    assert blocks == [(0, 0), (0, 1), (1, 0)]
    assert hb.matrix == ((1, 1, 0), (0, 0, 1), (1, 1, 0))
    # (n+1)-blocks downstairs are n-blocks upstairs; periodic counts agree
    for n in range(1, 5):
        assert count_blocks(hb, n) == count_blocks(FIB, n + 1)
        assert count_periodic(hb, n) == count_periodic(FIB, n)


def test_higher_block_rejects_multiplicities():
    with pytest.raises(ValueError):
        higher_block_graph(TransitionGraph([[2, 1], [1, 0]]))


def test_char_poly_quadratic():
    assert char_poly(FIB) == (1, -1, -1)
    assert char_poly(TransitionGraph([[2, 1], [1, 1]])) == (1, -3, 1)


@settings(max_examples=30)
@given(st_graph)
def test_char_poly_matches_numpy(g):
    exact = char_poly(g)
    numeric = np.poly(np.array(g.matrix, dtype=float))
    assert np.allclose(np.array(exact, dtype=float), numeric, atol=1e-6)


st_count_matrix = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=0, max_value=9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
).map(TransitionGraph)


@settings(max_examples=80, deadline=None)
@given(st_count_matrix)
def test_char_poly_matches_faddeev_leverrier(g):
    """Hessenberg reduction gives the coefficients of the recursion it
    replaced, on nonnegative integer matrices (singular and reducible ones
    included)."""
    assert char_poly(g) == faddeev_char_poly(g)


# the ladder, then a model whose refined graph has 28 cells
REFINED = ("1 1 1 0", "-1 -1 -1 0", "2 1 1 1", "0 1 1 3", "-2 -3 -1 -2",
           "3 2 1 1", "5 2 2 1", "10 1 1 0", "15 1 1 0", "8 1 17 2")


@pytest.mark.parametrize("text", REFINED)
def test_refined_char_poly_and_perron_data_match_faddeev_leverrier(text, monkeypatch):
    """On refined graphs: the same coefficients, and ``perron_data`` returns
    the same tuple and radius as it did over the recursion."""
    g = build_markov_construction(Mat2Z(*map(int, text.split()))).refined_graph
    poly = faddeev_char_poly(g)  # O(n^4): about a second at 28 cells
    assert char_poly(g) == poly
    data = perron_data(g)
    monkeypatch.setattr(sft, "char_poly", lambda graph: poly)
    assert perron_data(g) == data


def test_perron_radius_fibonacci():
    data = perron_data(FIB)
    assert isinstance(data, PerronData)
    golden = (1 + 5 ** 0.5) / 2
    assert abs(data.spectral_radius - golden) < 1e-12
    assert data.char_poly == (1, -1, -1)


st_wide_graph = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
).map(TransitionGraph)


def _assert_radius_matches_numpy(g):
    radius = perron_data(g).spectral_radius
    oracle = numpy_spectral_radius(g.matrix)
    assert abs(radius - oracle) <= 1e-12 * max(oracle, 1.0)


@settings(max_examples=60, deadline=None)
@given(st_wide_graph)
def test_perron_radius_matches_numpy(g):
    _assert_radius_matches_numpy(g)


@pytest.mark.parametrize("rows, radius", [
    ([[1, 1], [0, 1]], 1.0),                   # reducible, Jordan block
    ([[1, 0, 0], [0, 2, 0], [0, 0, 3]], 3.0),  # reducible, diagonal
    ([[0, 1], [1, 0]], 1.0),                   # periodic: -1 is a root too
    ([[0, 1, 0], [0, 0, 1], [0, 0, 0]], 0.0),  # nilpotent
    ([[0, 0], [0, 0]], 0.0),
    ([[0]], 0.0),
], ids=["reducible", "diag123", "periodic", "nilpotent", "zero", "zero1"])
def test_perron_radius_named_graphs(rows, radius):
    g = TransitionGraph(rows)
    assert perron_data(g).spectral_radius == radius
    _assert_radius_matches_numpy(g)


def test_dot_output_deterministic():
    dot = to_dot(TransitionGraph([[1, 2], [1, 0]]), labels=["R1", "R2"])
    assert dot == (
        "digraph shift {\n"
        "  rankdir=LR;\n"
        '  n0 [label="R1"];\n'
        '  n1 [label="R2"];\n'
        "  n0 -> n0;\n"
        '  n0 -> n1 [label="2"];\n'
        "  n1 -> n0;\n"
        "}\n"
    )
