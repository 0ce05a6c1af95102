"""Shifts of finite type presented by non-negative integer transition matrices.

A :class:`TransitionGraph` on nodes ``0..n-1`` carries entry ``a[i][j]`` =
number of edges i -> j.  Everything is exact integer or rational arithmetic;
the Perron radius is found by bisection on the exact characteristic
polynomial and only reported as a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .torus import InvariantError

Matrix = tuple[tuple[int, ...], ...]


def _as_matrix(rows) -> Matrix:
    mat = tuple(tuple(int(x) for x in row) for row in rows)
    n = len(mat)
    if n == 0 or any(len(row) != n for row in mat):
        raise ValueError("transition matrix must be square and non-empty")
    if any(x < 0 for row in mat for x in row):
        raise ValueError("transition multiplicities must be non-negative")
    return mat


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _mat_pow(a: Matrix, e: int) -> Matrix:
    n = len(a)
    result = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    base = a
    while e:
        if e & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base)
        e >>= 1
    return result


@dataclass(frozen=True)
class PerronData:
    """Exact characteristic polynomial plus the spectral radius.

    ``char_poly`` lists integer coefficients of det(xI - A) from the leading
    power down to the constant term.  ``spectral_radius`` is the float
    nearest the Perron root, bisected exactly on ``char_poly`` by
    :func:`perron_data`.
    """

    char_poly: tuple[int, ...]
    spectral_radius: float


@dataclass(frozen=True)
class TransitionGraph:
    """Directed multigraph on ``0..n-1`` given by its multiplicity matrix."""

    matrix: Matrix

    def __init__(self, rows):
        object.__setattr__(self, "matrix", _as_matrix(rows))

    @property
    def n(self) -> int:
        return len(self.matrix)

    def is_zero_one(self) -> bool:
        return all(x <= 1 for row in self.matrix for x in row)

    def power(self, e: int) -> Matrix:
        return _mat_pow(self.matrix, e)

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.matrix)


def count_blocks(graph: TransitionGraph, n: int) -> int:
    """Number of admissible n-blocks: the node count for n = 1, otherwise the
    number of paths with n - 1 edges (sum of entries of A^(n-1))."""
    if n < 1:
        raise ValueError("block length must be >= 1")
    if n == 1:
        return graph.n
    power = graph.power(n - 1)
    return sum(sum(row) for row in power)


def count_periodic(graph: TransitionGraph, n: int) -> int:
    """Number of points of period dividing n (closed paths): trace(A^n)."""
    if n < 1:
        raise ValueError("period must be >= 1")
    power = graph.power(n)
    return sum(power[i][i] for i in range(graph.n))


def higher_block_graph(graph: TransitionGraph) -> tuple[TransitionGraph, list[tuple[int, int]]]:
    """2-block presentation: nodes are admissible 2-blocks (edges of the input),
    with (i,j) -> (k,l) whenever j == k.

    Requires a 0/1 matrix, since 2-blocks over a multigraph are not determined
    by node pairs.  Returns the new graph and the node list in order.
    """
    if not graph.is_zero_one():
        raise ValueError("higher-block presentation needs a 0/1 transition matrix")
    blocks = [
        (i, j)
        for i in range(graph.n)
        for j in range(graph.n)
        if graph.matrix[i][j]
    ]
    index = {b: k for k, b in enumerate(blocks)}
    m = len(blocks)
    rows = [[0] * m for _ in range(m)]
    for (i, j), k in index.items():
        for (j2, l), k2 in index.items():
            if j == j2:
                rows[k][k2] = 1
    return TransitionGraph(rows), blocks


def char_poly(graph: TransitionGraph) -> tuple[int, ...]:
    """Integer coefficients of det(xI - A), leading coefficient first, in
    O(n^3) exact rational operations (Cohen, *A Course in Computational
    Algebraic Number Theory*, Alg. 2.2.9).

    A is brought to upper Hessenberg form H by similarity transforms over
    the rationals: a row swap with the matching column swap, or a row
    operation with its inverse column operation.  The characteristic
    polynomials p_k of the leading k x k blocks of H then satisfy
    p_k = (x - h_kk)*p_(k-1) - sum over i < k of
    h_ik * h_(i+1),i * ... * h_k,(k-1) * p_(i-1)."""
    n = graph.n
    h = [[Fraction(x) for x in row] for row in graph.matrix]
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n) if h[i][m - 1]), None)
        if pivot is None:
            continue
        if pivot != m:
            h[pivot], h[m] = h[m], h[pivot]
            for row in h:
                row[pivot], row[m] = row[m], row[pivot]
        t = h[m][m - 1]
        for i in range(m + 1, n):
            u = h[i][m - 1] / t
            if not u:
                continue
            row_i, row_m = h[i], h[m]
            for j in range(n):
                row_i[j] -= u * row_m[j]
            for row in h:
                row[m] += u * row[i]
    # polys[k]: the coefficients of p_k, constant term first
    polys = [[Fraction(1)]]
    for k in range(n):
        prev = polys[-1]
        p = [Fraction(0)] + prev
        for e, c in enumerate(prev):
            p[e] -= h[k][k] * c
        t = Fraction(1)
        for i in range(k - 1, -1, -1):
            t *= h[i + 1][i]
            if not t:
                break
            c = t * h[i][k]
            for e, x in enumerate(polys[i]):
                p[e] -= c * x
        polys.append(p)
    out = []
    for c in reversed(polys[-1]):
        if c.denominator != 1:
            raise InvariantError(f"integer matrix gave coefficient {c}")
        out.append(int(c))
    return tuple(out)


def perron_data(graph: TransitionGraph) -> PerronData:
    """Characteristic polynomial p and the float nearest the Perron root r.

    r is bisected over exact rationals from 0 <= r < max row sum + 1, with
    t > r exactly when every coefficient of p(X + t) is positive: then every
    root of p(X + t) has negative real part (r bounds the real parts, by
    Perron-Frobenius), while for t <= r it has the root r - t >= 0.  The
    bisection stops once both ends round to the same float; r = 0 exactly
    when p = x^n."""
    poly = char_poly(graph)
    lo = Fraction(0)
    hi = Fraction(max(map(sum, graph.matrix)) + 1 if any(poly[1:]) else 0)
    while float(lo) != float(hi):
        mid = (lo + hi) / 2
        shifted = list(poly)  # Taylor shift to p(X + mid)
        for k in range(len(poly) - 1, 0, -1):
            for i in range(1, k + 1):
                shifted[i] += mid * shifted[i - 1]
        if all(c > 0 for c in shifted):
            hi = mid
        else:
            lo = mid
    return PerronData(char_poly=poly, spectral_radius=float(hi))


def to_dot(graph: TransitionGraph, labels: list[str] | None = None) -> str:
    """Deterministic DOT text; parallel edges collapse to a multiplicity label."""
    if labels is None:
        labels = [str(i) for i in range(graph.n)]
    if len(labels) != graph.n:
        raise ValueError("need one label per node")
    lines = ["digraph shift {", "  rankdir=LR;"]
    for i, lab in enumerate(labels):
        lines.append(f'  n{i} [label="{lab}"];')
    for i in range(graph.n):
        for j in range(graph.n):
            mult = graph.matrix[i][j]
            if mult == 1:
                lines.append(f"  n{i} -> n{j};")
            elif mult > 1:
                lines.append(f'  n{i} -> n{j} [label="{mult}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
