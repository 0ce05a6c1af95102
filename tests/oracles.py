"""Independent brute-force oracles used across the test suite.

Everything here is deliberately naive: direct enumeration, float linear
algebra, exhaustive search.  The point is to check the package's exact fast
paths against implementations that share no code with them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def brute_count_blocks(matrix, n: int) -> int:
    """Admissible n-blocks by direct enumeration (path multiplicity)."""
    size = len(matrix)
    if n == 1:
        return size
    total = 0
    for word in itertools.product(range(size), repeat=n):
        weight = 1
        for a, b in zip(word, word[1:]):
            weight *= matrix[a][b]
            if weight == 0:
                break
        total += weight
    return total


def brute_count_periodic(matrix, n: int) -> int:
    """Closed paths of length n by direct enumeration."""
    size = len(matrix)
    total = 0
    for word in itertools.product(range(size), repeat=n):
        weight = 1
        cyc = word + (word[0],)
        for a, b in zip(cyc, cyc[1:]):
            weight *= matrix[a][b]
            if weight == 0:
                break
        total += weight
    return total


def float_eigen(mat) -> tuple[float, float]:
    """(expanding, contracting) eigenvalues of a 2x2 integer matrix."""
    eigs = np.linalg.eigvals(np.array(mat, dtype=float))
    lam = max(eigs, key=abs)
    mu = min(eigs, key=abs)
    return float(lam.real), float(mu.real)


def brute_conjugator(a_mat, bound: int = 6):
    """Exhaustive GL(2,Z) search for C with C A C^-1 = eps * P, P >= 0.

    Returns (C, P, eps) as nested tuples or None.  Entries of C range over
    [-bound, bound]; only determinant +-1 candidates are tried.
    """
    (a, b), (c, d) = a_mat
    for c00, c01, c10, c11 in itertools.product(range(-bound, bound + 1), repeat=4):
        det = c00 * c11 - c01 * c10
        if det not in (1, -1):
            continue
        # C A C^-1 with C^-1 = adj(C)/det
        m00 = c00 * a + c01 * c
        m01 = c00 * b + c01 * d
        m10 = c10 * a + c11 * c
        m11 = c10 * b + c11 * d
        p00 = (m00 * c11 - m01 * c10) * det
        p01 = (-m00 * c01 + m01 * c00) * det
        p10 = (m10 * c11 - m11 * c10) * det
        p11 = (-m10 * c01 + m11 * c00) * det
        for eps in (1, -1):
            q = (eps * p00, eps * p01, eps * p10, eps * p11)
            if all(x >= 0 for x in q):
                return ((c00, c01), (c10, c11)), ((q[0], q[1]), (q[2], q[3])), eps
    return None


def shoelace_area(corners) -> float:
    """Float polygon area from an ordered corner list of float pairs."""
    area = 0.0
    for (x0, y0), (x1, y1) in zip(corners, corners[1:] + corners[:1]):
        area += x0 * y1 - x1 * y0
    return abs(area) / 2


def brute_torus_periodic(a_mat, n: int) -> int:
    """Fixed points of the n-th power of the torus map by grid search.

    Solutions of x (A^n - I) = 0 mod 1 all live on the (1/m)-grid where
    m = |det(A^n - I)|, so scanning that grid is exhaustive.
    """
    m = np.array(a_mat, dtype=object)
    power = np.linalg.matrix_power(m, n)
    diff = power - np.eye(2, dtype=object)
    det = int(abs(diff[0, 0] * diff[1, 1] - diff[0, 1] * diff[1, 0]))
    if det == 0:
        raise ValueError("matrix power has eigenvalue 1; not hyperbolic")
    count = 0
    for i in range(det):
        for j in range(det):
            x = Fraction(i, det)
            y = Fraction(j, det)
            u = x * diff[0, 0] + y * diff[1, 0]
            v = x * diff[0, 1] + y * diff[1, 1]
            if u.denominator == 1 and v.denominator == 1:
                count += 1
    return count


def brute_lattice_in_frame_box(frame, u_lo, u_hi, w_lo, w_hi):
    """All lattice points whose frame coordinates lie in the closed box.

    The box maps to a plane parallelogram; integer points inside it lie in
    its bounding rectangle, which is scanned exactly.
    """
    corners = [
        frame.to_plane(u, w)
        for u, w in ((u_lo, w_lo), (u_hi, w_lo), (u_hi, w_hi), (u_lo, w_hi))
    ]
    xs = [p[0] for p in corners]
    ys = [p[1] for p in corners]
    x_min = min(xs).floor()
    x_max = -((-max(xs)).floor())
    y_min = min(ys).floor()
    y_max = -((-max(ys)).floor())
    hits = []
    for m in range(x_min - 1, x_max + 2):
        for n in range(y_min - 1, y_max + 2):
            qu, qw = frame.lattice_frame(m, n)
            if u_lo <= qu <= u_hi and w_lo <= qw <= w_hi:
                hits.append((m, n))
    return hits
