"""Exact integer linear algebra on small dense matrices.

Matrices are lists of lists of Python ints (arbitrary precision), row-major.
Everything here is exact; no floating point and no fractions. The column
Hermite form, built with extended-gcd steps, gives everything over the
integers: kernels, lattice equality, Smith invariant factors and the
inverse; it is the one integer elimination here. Only kernels and the
inverse read its transform, so lattice equality and the Smith rounds run
it without building one.
`maximal_minors` gives every k × k minor of a k × n matrix at once, by
Laplace expansion one row at a time over column bitmasks, so the minors
share their sub-minors and nothing is divided. Sizes in this package are
small (at most a few hundred rows/columns), so simple cubic algorithms are
fine.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Sequence, Tuple

Matrix = List[List[int]]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def column_hermite(a: Sequence[Sequence[int]]) -> Tuple[Matrix, Matrix]:
    """Column-style Hermite normal form.

    Returns (h, u) with h = a @ u, u square unimodular, and h in column
    echelon form: pivots move down as columns advance, each pivot positive,
    entries to the right of a pivot in its row zero and those to its left
    reduced into [0, pivot), and zero columns pushed to the right.
    """
    u = identity(len(a[0]) if a else 0)
    return _hermite(a, u), u


def _hermite(a: Sequence[Sequence[int]], u: Matrix) -> Matrix:
    """The h of `column_hermite(a)`, with every column operation applied to
    the rows of u too; u = [] builds no transform."""
    h = [list(row) for row in a]
    rows = len(h)
    cols = len(h[0]) if rows else 0

    def col_combine(j1: int, j2: int, m00: int, m01: int, m10: int, m11: int) -> None:
        # (col j1, col j2) <- (m00*j1 + m10*j2, m01*j1 + m11*j2)
        for mat in (h, u):
            for row in mat:
                x, y = row[j1], row[j2]
                row[j1] = m00 * x + m10 * y
                row[j2] = m01 * x + m11 * y

    pivot_col = 0
    for r in range(rows):
        if pivot_col >= cols:
            break
        # Clear row r to the right of pivot_col using the extended Euclid step.
        for j in range(pivot_col + 1, cols):
            x, y = h[r][pivot_col], h[r][j]
            if y == 0:
                continue
            if x == 0:
                col_combine(pivot_col, j, 0, 1, 1, 0)
                continue
            g, s, t = _exgcd(x, y)
            col_combine(pivot_col, j, s, -(y // g), t, x // g)
        if h[r][pivot_col] == 0:
            continue
        if h[r][pivot_col] < 0:
            col_combine(pivot_col, pivot_col, -1, 0, 0, -1)  # negate column
        # Reduce earlier columns' entries in this row modulo the pivot.
        p = h[r][pivot_col]
        for j in range(pivot_col):
            q = h[r][j] // p
            if q:
                for mat in (h, u):
                    for row in mat:
                        row[j] -= q * row[pivot_col]
        pivot_col += 1
    return h


def _exgcd(a: int, b: int) -> Tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) > 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def kernel_basis(a: Sequence[Sequence[int]]) -> List[List[int]]:
    """Basis (as column vectors, returned as a list of vectors) of the
    integer kernel {v : a @ v = 0}."""
    h, u = column_hermite(a)
    basis = []
    for j in range(len(u)):
        if all(row[j] == 0 for row in h):
            basis.append([row[j] for row in u])
    return basis


def hermite_canonical(vectors: Sequence[Sequence[int]], dim: int) -> Tuple[Tuple[int, ...], ...]:
    """Canonical form of the lattice spanned by the given vectors in Z^dim:
    the nonzero columns of the column Hermite normal form, as a tuple.
    Two spanning sets generate the same lattice iff their canonical forms agree.
    """
    a = [[v[i] for v in vectors] for i in range(dim)]
    h = _hermite(a, [])
    cols = []
    for j in range(len(vectors)):
        col = tuple(h[i][j] for i in range(dim))
        if any(col):
            cols.append(col)
    return tuple(cols)


def lattices_equal(gens1: Sequence[Sequence[int]], gens2: Sequence[Sequence[int]], dim: int) -> bool:
    return hermite_canonical(gens1, dim) == hermite_canonical(gens2, dim)


def smith_invariant_factors(a: Sequence[Sequence[int]]) -> List[int]:
    """Nonzero invariant factors d1 | d2 | ... of the integer matrix a."""
    m: Sequence[Sequence[int]] = a
    # Each round is a unimodular change of m, so the factors stay. The top
    # left entry becomes the gcd of the first row, a divisor of the last
    # one, and the first column holds nothing else. Once that entry stops
    # shrinking it divides its row, and the reduced Hermite form clears the
    # row too; the block below then runs the same way, so the loop ends.
    while any(x for i, row in enumerate(m) for j, x in enumerate(row) if i != j):
        m = list(zip(*_hermite(m, [])))
    factors = [abs(row[i]) for i, row in enumerate(m) if i < len(row) and row[i]]
    # Enforce the divisibility chain d1 | d2 | ...
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a_, b_ = factors[i], factors[j]
            g = _exgcd(a_, b_)[0]
            factors[i], factors[j] = g, a_ * b_ // g if g else 0
    return factors


def maximal_minors(rows: Sequence[Sequence[int]]) -> List[int]:
    """Every k × k minor of a k × n integer matrix, in lexicographic order
    of the column sets. Row r is added to each minor of rows 0..r−1 by
    Laplace expansion along it: the minor on a column bitmask, widened by a
    column j outside it, gains (−1)^(bits of the mask above j) · row[j] ·
    minor. Zero sub-minors are dropped, so sparse rows stay cheap."""
    n = len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise ValueError("rows differ in length")
    minors: Dict[int, int] = {0: 1}  # column bitmask -> minor of the rows so far
    for row in rows:
        nonzero = [(j, x, 1 << j) for j, x in enumerate(row) if x]
        wider: Dict[int, int] = {}
        for mask, minor in minors.items():
            for j, x, bit in nonzero:
                if mask & bit:
                    continue
                term = x * minor
                if (mask >> j).bit_count() & 1:
                    term = -term
                wider[mask | bit] = wider.get(mask | bit, 0) + term
        minors = {mask: minor for mask, minor in wider.items() if minor}
    bits = [1 << j for j in range(n)]
    return [minors.get(sum(cols), 0) for cols in combinations(bits, len(rows))]


def integer_inverse(a: Sequence[Sequence[int]]) -> Matrix:
    """Inverse of a unimodular integer matrix, computed exactly.

    a is unimodular exactly when its column Hermite form h = a·u is the
    identity, and then u = a⁻¹. Raises ValueError if the matrix is not
    invertible over the integers.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    h, u = column_hermite(a)
    # Zero columns are pushed right, so a singular h ends in one.
    if n and not any(row[-1] for row in h):
        raise ValueError("matrix is singular")
    if h != identity(n):
        raise ValueError("matrix is not invertible over the integers")
    return u
