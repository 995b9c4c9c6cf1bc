"""Exact integer linear algebra on small dense matrices.

Matrices are lists of lists of Python ints (arbitrary precision), row-major.
Everything here is exact; no floating point and no fractions. Rank,
determinant and inverse share one fraction-free (Bareiss) elimination, in
which every intermediate entry is an integer; Hermite and Smith forms use
extended-gcd steps. Sizes in this package are small (at most a few hundred
rows/columns), so simple cubic algorithms are fine.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

Matrix = List[List[int]]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    if not a or not b:
        return []
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def column_hermite(a: Sequence[Sequence[int]]) -> Tuple[Matrix, Matrix]:
    """Column-style Hermite normal form.

    Returns (h, u) with h = a @ u, u square unimodular, and h in column
    echelon form: pivots move down as columns advance, each pivot positive,
    entries to the right of a pivot in its row reduced into [0, pivot), and
    zero columns pushed to the right.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    h = [list(row) for row in a]
    u = identity(cols)

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
    return h, u


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
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    h, u = column_hermite(a)
    basis = []
    for j in range(cols):
        if all(h[i][j] == 0 for i in range(rows)):
            basis.append([u[i][j] for i in range(cols)])
    return basis


def hermite_canonical(vectors: Sequence[Sequence[int]], dim: int) -> Tuple[Tuple[int, ...], ...]:
    """Canonical form of the lattice spanned by the given vectors in Z^dim:
    the nonzero columns of the column Hermite normal form, as a tuple.
    Two spanning sets generate the same lattice iff their canonical forms agree.
    """
    if not vectors:
        return ()
    a = [[v[i] for v in vectors] for i in range(dim)]
    h, _ = column_hermite(a)
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
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    factors: List[int] = []
    top = 0
    while top < rows and top < cols:
        # Find a nonzero pivot at or below/right of (top, top).
        pr = pc = -1
        for i in range(top, rows):
            for j in range(top, cols):
                if m[i][j] != 0:
                    pr, pc = i, j
                    break
            if pr >= 0:
                break
        if pr < 0:
            break
        m[top], m[pr] = m[pr], m[top]
        for row in m:
            row[top], row[pc] = row[pc], row[top]
        while True:
            # Clear column top with row operations. When the pivot divides
            # the entry, plain elimination keeps the pivot row unchanged;
            # otherwise a unimodular combination strictly shrinks the pivot,
            # so the outer loop terminates.
            for i in range(top + 1, rows):
                if m[i][top] == 0:
                    continue
                if m[i][top] % m[top][top] == 0:
                    f = m[i][top] // m[top][top]
                    m[i] = [q - f * p for p, q in zip(m[top], m[i])]
                    continue
                g, s, t = _exgcd(m[top][top], m[i][top])
                x, y = m[top][top] // g, m[i][top] // g
                r_top = [s * p + t * q for p, q in zip(m[top], m[i])]
                r_i = [-y * p + x * q for p, q in zip(m[top], m[i])]
                m[top], m[i] = r_top, r_i
            # Clear row top with column operations; only the non-divisible
            # case can disturb the already-cleared column.
            dirty = False
            for j in range(top + 1, cols):
                if m[top][j] == 0:
                    continue
                if m[top][j] % m[top][top] == 0:
                    f = m[top][j] // m[top][top]
                    for row in m:
                        row[j] -= f * row[top]
                    continue
                g, s, t = _exgcd(m[top][top], m[top][j])
                x, y = m[top][top] // g, m[top][j] // g
                for row in m:
                    p, q = row[top], row[j]
                    row[top] = s * p + t * q
                    row[j] = -y * p + x * q
                dirty = True
            if not dirty and all(m[i][top] == 0 for i in range(top + 1, rows)):
                break
        factors.append(abs(m[top][top]))
        top += 1
    # Enforce the divisibility chain d1 | d2 | ...
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a_, b_ = factors[i], factors[j]
            g = _exgcd(a_, b_)[0]
            factors[i], factors[j] = g, a_ * b_ // g if g else 0
    return factors


def is_unimodular(a: Sequence[Sequence[int]]) -> bool:
    """True iff a is square and invertible over the integers: |det a| = 1."""
    return all(len(row) == len(a) for row in a) and abs(determinant(a)) == 1


def _bareiss(m: Matrix, cols: int, reduced: bool = False) -> Tuple[List[int], int]:
    """Fraction-free (Bareiss) elimination of m in place over its first
    `cols` columns, stopping once every row has a pivot. A row becomes
    (p·row − f·pivot row) / p' for the new pivot p, its entry f in the pivot
    column and the previous pivot p'; the division is exact, as every entry
    is then a minor of the input (Sylvester's identity). Rows above a pivot
    are cleared too if `reduced`; every pivot entry then ends equal to the
    last pivot. Returns the pivot columns and the last pivot signed by the
    row swaps: for square m of full rank, det m."""
    rows = len(m)
    pivots: List[int] = []
    prev, sign = 1, 1
    for col in range(cols):
        if len(pivots) == rows:
            break
        r = len(pivots)
        pivot = next((i for i in range(r, rows) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        top, p = m[r], m[r][col]
        for i in (range(rows) if reduced else range(r + 1, rows)):
            f = m[i][col]
            if i == r or (f == 0 and p == prev):
                continue
            m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = p
        pivots.append(col)
    return pivots, sign * prev


def rational_rank(a: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals, by fraction-free elimination."""
    m = [list(row) for row in a]
    return len(_bareiss(m, len(m[0]) if m else 0)[0])


def determinant(a: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, by fraction-free elimination."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    pivots, det = _bareiss([list(row) for row in a], n)
    return det if len(pivots) == n else 0


def integer_inverse(a: Sequence[Sequence[int]]) -> Matrix:
    """Inverse of a unimodular integer matrix, computed exactly.

    Eliminating [a | I] fraction-free leaves [d·I | d·a⁻¹], d = ±det a.
    Raises ValueError if the matrix is not invertible over the integers.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    pivots, det = _bareiss(m, n, reduced=True)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    if abs(det) != 1:
        raise ValueError("matrix is not invertible over the integers")
    return [[x // row[i] for x in row[n:]] for i, row in enumerate(m)]
