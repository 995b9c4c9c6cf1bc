"""Exact integer linear algebra, cross-checked against sympy and against a
`Fraction` Gauss-Jordan elimination kept here as an oracle independent of
the Hermite core: its determinant checks the unimodularity test and every
maximal minor. The rank by fraction-free elimination and the matrix
product come from `oracles`: the library needs neither."""

from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import mat_mul, rational_rank
from sympy.matrices.normalforms import smith_normal_form

from discdimer.intlinalg import (column_hermite, hermite_canonical, identity,
                                 integer_inverse, kernel_basis,
                                 lattices_equal, maximal_minors,
                                 smith_invariant_factors)


small_matrix = st.integers(-6, 6).flatmap(
    lambda _: st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(-9, 9), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0])))


@given(small_matrix)
@settings(max_examples=150, deadline=None)
def test_column_hermite_factorization(a):
    h, u = column_hermite(a)
    assert mat_mul(a, u) == h
    # u unimodular
    det = sympy.Matrix(u).det()
    assert det in (1, -1)
    assert rational_rank(h) == sympy.Matrix(a).rank()


@given(small_matrix)
@settings(max_examples=150, deadline=None)
def test_kernel_basis_spans_kernel(a):
    basis = kernel_basis(a)
    rows, cols = len(a), len(a[0])
    for v in basis:
        assert all(sum(r[i] * v[i] for i in range(cols)) == 0 for r in a)
    assert len(basis) == cols - sympy.Matrix(a).rank()
    if basis:
        # the basis vectors are independent
        assert rational_rank([list(col) for col in zip(*basis)]) == len(basis)


@pytest.mark.parametrize("a, expected", [
    ([[0, 0, 1], [-1, -1, 0], [0, 1, -1]], [1, 1, 1]),
    ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], [2, 6, 12]),
    ([[6, 4], [4, 6]], [2, 10]),
    ([[0, 2], [3, 0]], [1, 6]),
], ids=["unit-heavy", "divisible-3x3", "symmetric-2x2", "antidiagonal"])
def test_smith_handles_unit_heavy_matrix(a, expected):
    # matrices whose gcd steps are trivial or whose entries divide each
    # other; guards against non-terminating elimination orders
    assert smith_invariant_factors(a) == expected


@given(small_matrix)
@settings(max_examples=100, deadline=None)
def test_rational_rank_matches_sympy(a):
    assert rational_rank(a) == sympy.Matrix(a).rank()


def gauss_jordan(a, cols):
    """Oracle: reduced row echelon form over the rationals, in the first
    `cols` columns, with Fraction arithmetic. Returns the reduced rows, the
    pivot columns and the determinant of the first `cols` columns when they
    form a square matrix."""
    m = [[Fraction(x) for x in row] for row in a]
    rows = len(m)
    pivots = []
    det = Fraction(1)
    for col in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, rows) if m[i][col] != 0), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            det = -det
        det *= m[r][col]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots, det


def fraction_inverse(a):
    """Oracle: the inverse from the Fraction elimination of [a | I], with the
    errors integer_inverse raises."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    m, pivots, _ = gauss_jordan([list(row) + unit for row, unit in zip(a, identity(n))], n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    if any(x.denominator != 1 for row in m for x in row[n:]):
        raise ValueError("matrix is not invertible over the integers")
    return [[int(x) for x in row[n:]] for row in m]


def sympy_matrix(a, cols):
    return sympy.Matrix(len(a), cols, [x for row in a for x in row])


entry = st.one_of(st.integers(-3, 3), st.integers(-10 ** 6, 10 ** 6))


@st.composite
def any_matrix(draw, max_side=7):
    """Any shape (zero rows or zero columns included, tall and wide), and a
    rank-deficient product b·c about half the time."""
    rows, cols = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    if draw(st.booleans()):
        inner = draw(st.integers(0, max(0, min(rows, cols) - 1)))
        b = draw(st.lists(st.lists(entry, min_size=inner, max_size=inner),
                          min_size=rows, max_size=rows))
        c = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                          min_size=inner, max_size=inner))
        a = mat_mul(b, c) if inner else [[0] * cols for _ in range(rows)]
    else:
        a = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))
    return a, cols


@st.composite
def square_matrix(draw, max_side=6):
    n = draw(st.integers(0, max_side))
    return draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                         min_size=n, max_size=n))


@st.composite
def unimodular_matrix(draw, max_side=6):
    """A product of elementary integer matrices: row additions, swaps and
    negations of the identity."""
    n = draw(st.integers(1, max_side))
    m = identity(n)
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["add", "swap", "negate"]))
        if kind == "add" and i != j:
            f = draw(st.integers(-3, 3))
            m[i] = [x + f * y for x, y in zip(m[i], m[j])]
        elif kind == "swap":
            m[i], m[j] = m[j], m[i]
        elif kind == "negate":
            m[i] = [-x for x in m[i]]
    return m


@given(st.one_of(small_matrix.map(lambda a: (a, len(a[0]))), any_matrix()))
@settings(max_examples=200, deadline=None)
def test_smith_factors_match_sympy(shaped):
    a, cols = shaped
    factors = smith_invariant_factors(a)
    snf = smith_normal_form(sympy_matrix(a, cols))
    diag = [abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i] != 0]
    assert factors == diag
    for x, y in zip(factors, factors[1:]):
        assert y % x == 0


@given(any_matrix())
@settings(max_examples=200, deadline=None)
def test_rank_equals_fraction_oracle_and_sympy(shaped):
    a, cols = shaped
    expected = len(gauss_jordan(a, cols)[1])
    assert rational_rank(a) == expected
    assert expected == sympy_matrix(a, cols).rank()


@st.composite
def wide_matrix(draw, max_cols=8):
    """A k × n matrix with k ≤ n: k is often 0, 1 or n, a row or a column is
    often zero, and about half the time it is a rank-deficient product b·c."""
    n = draw(st.integers(0, max_cols))
    k = draw(st.one_of(st.sampled_from([0, min(1, n), n]), st.integers(0, n)))
    if k and draw(st.booleans()):
        inner = draw(st.integers(0, k - 1))
        b = draw(st.lists(st.lists(entry, min_size=inner, max_size=inner),
                          min_size=k, max_size=k))
        c = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                          min_size=inner, max_size=inner))
        a = mat_mul(b, c) if inner else [[0] * n for _ in range(k)]
    else:
        a = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                          min_size=k, max_size=k))
    if k and draw(st.booleans()):
        a[draw(st.integers(0, k - 1))] = [0] * n
    if n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in a:
            row[j] = 0
    return a, n


@given(wide_matrix())
@settings(max_examples=300, deadline=None)
def test_maximal_minors_equal_the_determinant_of_each_column_set(shaped):
    a, n = shaped
    expected = [gauss_jordan([[row[j] for j in cols] for row in a], len(a))[2]
                for cols in combinations(range(n), len(a))]
    assert maximal_minors(a) == expected


def test_maximal_minors_of_tall_and_ragged_matrices():
    assert maximal_minors([[1], [2]]) == []
    with pytest.raises(ValueError, match="rows differ in length"):
        maximal_minors([[1, 2], [3]])


@given(unimodular_matrix())
@settings(max_examples=200, deadline=None)
def test_integer_inverse_round_trip_and_oracle(a):
    inv = integer_inverse(a)
    assert mat_mul(a, inv) == identity(len(a)) == mat_mul(inv, a)
    assert inv == fraction_inverse(a)
    assert sympy_matrix(inv, len(a)) == sympy_matrix(a, len(a)).inv()


def error_of(fn, a):
    try:
        fn(a)
    except ValueError as exc:
        return str(exc)
    return None


@given(square_matrix())
@settings(max_examples=200, deadline=None)
def test_integer_inverse_errors_equal_the_oracle(a):
    expected = error_of(fraction_inverse, a)
    assert error_of(integer_inverse, a) == expected
    det = sympy_matrix(a, len(a)).det()
    assert expected == (None if abs(det) == 1 else "matrix is singular" if det == 0
                        else "matrix is not invertible over the integers")


@pytest.mark.parametrize("a, message", [
    ([[1, 2]], "matrix is not square"),
    ([[1, 1], [1, 1]], "matrix is singular"),
    ([[2, 0], [0, 1]], "matrix is not invertible over the integers"),
    ([[0, 3, 0], [1, 0, 0], [0, 0, 1]], "matrix is not invertible over the integers"),
])
def test_integer_inverse_messages(a, message):
    assert error_of(integer_inverse, a) == error_of(fraction_inverse, a) == message


@given(st.one_of(square_matrix(), unimodular_matrix(), any_matrix().map(lambda s: s[0])))
@settings(max_examples=200, deadline=None)
def test_unit_smith_factors_equal_unit_determinant(a):
    # How eta's unimodularity is decided: square, with one invariant factor
    # per row and each of them 1.
    rows = len(a)
    square = all(len(row) == rows for row in a)
    unit = square and smith_invariant_factors(a) == [1] * rows
    assert unit == (square and abs(gauss_jordan(a, rows)[2]) == 1)
    assert unit == (square and column_hermite(a)[0] == identity(rows))


def test_integer_inverse_round_trip():
    a = [[2, 1, 0], [1, 1, 0], [3, 5, 1]]
    inv = integer_inverse(a)
    n = len(a)
    assert mat_mul(a, inv) == [[int(i == j) for j in range(n)] for i in range(n)]


def test_integer_inverse_rejects_non_unimodular():
    import pytest
    with pytest.raises(ValueError):
        integer_inverse([[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        integer_inverse([[1, 1], [1, 1]])


def test_empty_shapes():
    assert kernel_basis([]) == kernel_basis([[]]) == kernel_basis([[], []]) == []
    assert hermite_canonical([], 0) == hermite_canonical([], 3) == ()
    assert hermite_canonical([[]], 0) == ()
    assert smith_invariant_factors([]) == []
    assert integer_inverse([]) == []


def test_lattices_equal():
    assert lattices_equal([[1, 0], [0, 1]], [[1, 1], [0, 1]], 2)
    assert not lattices_equal([[2, 0], [0, 1]], [[1, 0], [0, 1]], 2)
    assert lattices_equal([[2, 0], [0, 2], [1, 1]], [[1, 1], [2, 0]], 2)
