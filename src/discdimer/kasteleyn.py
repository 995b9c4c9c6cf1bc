"""Boundary measurements as maximal minors of one Kasteleyn matrix.

The bipartite dual of a model is a planar graph in the disc: the black and
white faces are its nodes, and every internal arrow joins the two faces
holding it. The matrix K has a row for each white face and a column for
each black face, plus

- a column t_i for each boundary label i: a clockwise boundary arrow i
  (it lies in a white face w) puts its weight at K[w][t_i];
- a row u_i for each anticlockwise boundary arrow i (it lies in a black
  face b), with its weight at K[u_i][b] and 1 at K[u_i][t_i]. The arrow is
  in a matching iff u_i is matched to b, that is iff i is not in ∂μ.

So the perfect matchings of the graph that use exactly the columns t_i,
i ∈ I, are the matchings μ with ∂μ = I. Each internal arrow a enters K with
a sign s_a, chosen so that at each internal quiver vertex (a face of the
graph) of degree 2m, an odd or even number of the arrows around it is
negative as m + 1 is. By Kasteleyn's theorem in Speyer's form for graphs
with boundary (arXiv:1510.03501; Postnikov's boundary measurement,
arXiv:math/0609764, §§4–5), every matching of one minor then carries the
same sign, so Z_I = Σ_{∂μ=I} Π w = |det K[:, black ∪ {t_i : i ∈ I}]| with
no cancellation.

The black columns are eliminated once, over the integers: each row of K
is scaled by the lcm of its weights' denominators, and each row R holding
a pivot p's column becomes (p·R − f·P) / g, with g the content of the
result. What is left is a constant |c| = num / den, kept as two ints, and
a k × n integer matrix M with Z_I = |c · det M_I|. All C(n, k) maximal
minors of M come from one Laplace pass over its rows
(`intlinalg.maximal_minors`), which shares every sub-minor between them.
The tests check this against the same elimination in Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from numbers import Rational
from typing import Dict, List, Mapping, Optional, Tuple

from .intlinalg import maximal_minors
from .model import (BLACK, DimerModel, ReadOnlyDict, _arrow_bits, _layout, per_model, require_valid,
                    type_of)

Entry = Tuple[int, int, Optional[int], int]  # (row, column, weighted arrow, sign)


@dataclass(frozen=True)
class Frame:
    """The shape of K: its row count, its black columns 0..black-1 (t_i is
    column black + i - 1), and its nonzero entries, each the sign times
    the weight of its arrow, or 1 where the arrow is None."""
    rows: int
    black: int
    entries: Tuple[Entry, ...]


@per_model
def kasteleyn_signs(model: DimerModel) -> ReadOnlyDict[int, int]:
    """A Kasteleyn sign ±1 for every internal arrow: around each internal
    vertex of degree 2m, the number of negative arrows is ≡ m + 1 (mod 2).
    Solved over GF(2), a row per internal vertex: its internal arrows as
    an arrow mask of the graph index (`model._layout`)."""
    require_valid(model)
    layout = _layout(model)
    masks = [(into | out) & layout.internal
             for v, into, out in zip(model.vertices, layout.into_mask, layout.out_mask)
             if not v.is_boundary]
    # Rows of a reduced echelon form: no row holds another row's pivot bit.
    solved: List[Tuple[int, int, int]] = []  # (pivot bit, mask, right-hand side)
    for mask in masks:
        rhs = (bin(mask).count("1") // 2 + 1) & 1
        for pivot, row, value in solved:
            if mask & pivot:
                mask ^= row
                rhs ^= value
        if not mask:
            if rhs:
                raise ValueError("the model has no Kasteleyn signing")
            continue
        pivot = mask & -mask
        solved = [(p, row ^ mask, value ^ rhs) if row & pivot else (p, row, value)
                  for p, row, value in solved]
        solved.append((pivot, mask, rhs))
    # Every non-pivot arrow is positive, so a pivot arrow is negative iff
    # the right-hand side of its row is 1.
    negative = 0
    for pivot, _, value in solved:
        if value:
            negative |= pivot
    bits = _arrow_bits(model)
    return ReadOnlyDict({a.id: -1 if negative & bits[a.id] else 1 for a in model.internal_arrows})


@per_model
def kasteleyn_frame(model: DimerModel) -> Frame:
    """K's shape: rows are the white faces by id, then u_i by label; columns
    the black faces by id, then t_1..t_n."""
    signs = kasteleyn_signs(model)
    faces = sorted(model.faces, key=lambda f: f.id)
    black = {f.id: c for c, f in enumerate(f for f in faces if f.color == BLACK)}
    white = {f.id: r for r, f in enumerate(f for f in faces if f.color != BLACK)}
    rows = len(white)
    entries: List[Entry] = []
    for a in model.internal_arrows:
        b, w = sorted(model.faces_of_arrow(a.id), key=lambda fid: fid not in black)
        entries.append((white[w], black[b], a.id, signs[a.id]))
    for t, a in enumerate(map(model.boundary_arrow_with_label, range(1, model.n + 1)), len(black)):
        face = model.faces_of_arrow(a.id)[0]
        if model.is_clockwise(a.id):
            entries.append((white[face], t, a.id, 1))
        else:
            entries += [(rows, black[face], a.id, 1), (rows, t, None, 1)]
            rows += 1
    return Frame(rows, len(black), tuple(entries))


def _minors(model: DimerModel, weights: Mapping[int, Rational]) -> Tuple[int, int, List[int]]:
    """(num, den, minors) with Z_I = num / den · |minor| for every k-subset
    I of 1..n in lexicographic order, eliminated over the integers."""
    frame, n = kasteleyn_frame(model), model.n
    rows: List[List[Tuple[int, int, int]]] = [[] for _ in range(frame.rows)]
    for r, c, aid, sign in frame.entries:
        w = weights[aid] if aid is not None else 1
        rows[r].append((c, sign * w.numerator, w.denominator))
    # Each row times the lcm of its denominators is integral; |c| = num / den.
    num = den = 1
    matrix: List[Dict[int, int]] = []
    for row in rows:
        d = lcm(*(q for _, _, q in row))
        den *= d
        matrix.append({c: x * (d // q) for c, x, q in row})
    for c in range(frame.black):
        # Pivot on the sparsest row that holds the column: less fill-in.
        live = [r for r, row in enumerate(matrix) if c in row]
        if not live:
            return 0, 1, [0] * comb(n, frame.rows - frame.black)
        pivot = matrix.pop(min(live, key=lambda r: len(matrix[r])))
        p = pivot.pop(c)
        num *= abs(p)
        for row in matrix:
            f = row.pop(c, None)
            if f is None:
                continue
            # R := (p·R − f·P) / g scales the determinant by p / g. A row
            # that cancels has g = 0, so num = 0 and every minor is 0.
            for col in row:
                row[col] *= p
            for col, x in pivot.items():
                y = row.get(col, 0) - f * x
                if y:
                    row[col] = y
                else:
                    del row[col]
            g = gcd(*row.values())
            num *= g
            den *= abs(p)
            for col in row:
                row[col] //= g
    g = gcd(num, den)
    ints = [[row.get(t, 0) for t in range(frame.black, frame.black + n)] for row in matrix]
    return num // g, den // g, maximal_minors(ints)


def boundary_minors(model: DimerModel, weights: Mapping[int, Rational]
                    ) -> List[Tuple[Tuple[int, ...], Fraction]]:
    """(I, Z_I) for every k-subset I of 1..n in lexicographic order, with
    Z_I = |det K_I| for the given int or Fraction weight of every arrow."""
    num, den, minors = _minors(model, weights)
    return [(I, Fraction(num * abs(minor), den))
            for I, minor in zip(combinations(range(1, model.n + 1), type_of(model)[0]), minors)]
