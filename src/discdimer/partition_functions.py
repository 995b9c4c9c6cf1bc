"""Exact Laurent-polynomial partition functions over matchings: the
boundary-weight formula in both colour conventions, the twist expression,
and exact boundary measurements with Plücker-relation checking.

The formulas sum over the matchings of one boundary value, found by a
search seeded with that value; the private `_*_exponents` helpers take them
as arrow masks, so a loop over every boundary value can pass the groups of
one enumeration, and count each matching's exponent vector as a tuple dense
in vertex position (model order, which the standardised copy and its
opposite share). A `LaurentPoly` is built from those counts only at the
public edge (`_poly`). The boundary measurements enumerate nothing: each
Z_I is a maximal minor of one Kasteleyn matrix per weight draw
(`kasteleyn`), and the Plücker check compares the values in integers over
one common denominator, reading the values Z_{S∪xy} for one (k−2)-subset S
at a time into a list in which each relation on S is six fixed positions.

The check decides the relations on S from one pivot. With z_xy = Z_{S∪xy}
extended to an alternating matrix, the relation on sorted a<b<c<d is its
Pfaffian z_ab·z_cd − z_ac·z_bd + z_ad·z_bc = 0 (Z_{S∪xy} = ε_x·ε_y·p_S(x, y)
for the alternating coordinate p_S, and the common sign ε_a·ε_b·ε_c·ε_d
drops out). For the first nonzero z_ab, the relations on the quads holding
a and b force every z_xy = (z_ax·z_by − z_ay·z_bx)/z_ab: the pivot's rows
determine z, z has rank ≤ 2, and so every 4 × 4 Pfaffian of it vanishes.
Every relation is evaluated only when a pivot relation fails, to name the
failures (`check_plucker_relations` gives the proof in full).

Laurent polynomials are stored sparsely: each term maps an integer exponent
vector (indexed by a declared basis, e.g. quiver vertices) to an integer
coefficient. All arithmetic is exact; boundary measurements are Fractions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import lcm
from operator import itemgetter
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .kasteleyn import boundary_minors
from .kclass_weights import _weight_columns
from .lattice_maps import _class_vector, _linear
from .matchings import _boundary_search
from .model import WHITE, DimerModel, _vertex_positions, is_standardised, type_of
from .strands import require_consistent

ExponentVector = Tuple[Tuple[int, int], ...]  # sorted (index, exponent) pairs


@dataclass(frozen=True)
class LaurentPoly:
    basis: str
    terms: Tuple[Tuple[ExponentVector, int], ...]  # sorted, no zero coeffs

    @staticmethod
    def from_terms(basis: str,
                   terms: Iterable[Tuple[Mapping[int, int], int]]) -> "LaurentPoly":
        acc: Dict[ExponentVector, int] = {}
        pairs: Dict[Tuple[int, int], Tuple[int, int]] = {}  # one tuple per distinct (i, e)
        for exp, coeff in terms:
            key = tuple(sorted(pairs.setdefault(p, p) for p in exp.items() if p[1] != 0))
            acc[key] = acc.get(key, 0) + coeff
        cleaned = tuple(sorted((k, c) for k, c in acc.items() if c != 0))
        return LaurentPoly(basis, cleaned)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def pretty(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for key, coeff in self.terms:
            exp = "{" + ",".join(f"{i}:{e}" for i, e in key) + "}"
            parts.append(f"{coeff}*x^{exp}")
        return " + ".join(parts)


VERTEX_BASIS = "vertices"


def ms_formula(model: DimerModel, I: Iterable[int], color: str = WHITE) -> LaurentPoly:
    """MS[I] = x^{−wtD} Σ_{μ: ∂μ=I} x^{wt(μ)} in the colour convention of a
    model standardised with boundary faces of that colour: MS° for WHITE,
    MS• for BLACK. The zero polynomial when no matching has boundary I.
    The two satisfy MS°_D(I) = MS•_{D^op}(I^c) under the shared vertex ids."""
    _require_ms_model(model, color)
    return _poly(model, _ms_exponents(model, _boundary_search(model, I)))


def _require_ms_model(model: DimerModel, color: str) -> None:
    """What both Marsh–Scott formulas need: a consistent model standardised
    with boundary faces of `color`."""
    if not is_standardised(model, color):
        raise ValueError(f"model is not standardised with {color} boundary faces")
    require_consistent(model)


def _poly(model: DimerModel, exponents: Mapping[Tuple[int, ...], int]) -> LaurentPoly:
    """The Laurent polynomial with these coefficients of dense exponent
    vectors (vertex positions in model order): the public edge."""
    ids = [v.id for v in model.vertices]
    return LaurentPoly.from_terms(VERTEX_BASIS, ((dict(zip(ids, exp)), coeff)
                                                 for exp, coeff in exponents.items()))


def _ms_exponents(model: DimerModel, pool: Iterable[int]) -> Counter:
    """`ms_formula` over the given arrow masks, all of one boundary value,
    as a Counter of dense exponent vectors wt(μ) − wtD; the model's
    standardisation makes it MS° or MS•."""
    wt_base, columns, wtd = _weight_columns(model)
    base = [w - d for w, d in zip(wt_base, wtd)]
    return Counter(tuple(_linear(base, columns, mu_mask)) for mu_mask in pool)


def ms_formula_white_v2(model: DimerModel, I: Iterable[int]) -> LaurentPoly:
    """MS°[I] = x^{[P_I°]} Σ_{∂μ=I} x^{−[N_μ]}, with [P_I°] = Σ_{i∈I} p_{h α_i}:
    x^{[P_I°]} times the twist sum of `musp_twist_expression`, as [N_μ] = η(μ).
    Equals ms_formula(model, I, WHITE) exactly, though it reads no weight."""
    _require_ms_model(model, WHITE)
    I = frozenset(I)
    return _poly(model, _twist_exponents(model, _boundary_search(model, I), I))


def musp_twist_expression(model: DimerModel, I: Iterable[int]) -> LaurentPoly:
    """Σ_{μ: ∂μ=I} x^{−η(μ)}; raises when I is not a boundary value."""
    require_consistent(model)
    pool = _boundary_search(model, I)
    if not pool:
        raise ValueError(f"{sorted(set(I))} is not in the positroid")
    return _poly(model, _twist_exponents(model, pool))


def _twist_exponents(model: DimerModel, pool: Iterable[int], I: Iterable[int] = ()) -> Counter:
    """`musp_twist_expression` over the given arrow masks as a Counter of
    dense exponent vectors −η(μ), each shifted by [P_I°] = Σ_{i∈I} p_{h α_i}
    (`ms_formula_white_v2` over masks with ∂μ = I)."""
    shift = [0] * len(model.vertices)
    position = _vertex_positions(model)
    for i in I:
        shift[position[model.boundary_arrow_with_label(i).head]] += 1
    return Counter(tuple(s - c for s, c in zip(shift, _class_vector(model, mu_mask)))
                   for mu_mask in pool)


@dataclass(frozen=True)
class PluckerVector:
    k: int
    n: int
    values: Tuple[Tuple[Tuple[int, ...], Fraction], ...]  # (sorted subset, value)

    @cached_property
    def _by_subset(self) -> Dict[Tuple[int, ...], Fraction]:
        return dict(self.values)

    def __getitem__(self, subset: Iterable[int]) -> Fraction:
        return self._by_subset[tuple(sorted(subset))]

    def as_dict(self) -> Dict[Tuple[int, ...], Fraction]:
        return dict(self.values)


def boundary_measurement(model: DimerModel,
                         arrow_weights: Mapping[int, Fraction]) -> PluckerVector:
    """Z_I = Σ_{∂μ=I} Π_{γ∈μ} w(γ) over all k-subsets I (zero entries for
    subsets outside the positroid). Weights: positive ints or Fractions.
    Every Z_I is a maximal minor of one Kasteleyn matrix (`kasteleyn`), so
    no matching is enumerated."""
    require_consistent(model)
    k, n = type_of(model)
    for a in model.arrows:
        x = arrow_weights.get(a.id)
        if type(x) is not int and not isinstance(x, Fraction):
            raise ValueError(f"no weight for arrow {a.id}" if x is None else
                             f"weight of arrow {a.id} is not an int or a Fraction: {x!r}")
        if x <= 0:
            raise ValueError(f"weight of arrow {a.id} is not positive: {x}")
    return PluckerVector(k, n, tuple(boundary_minors(model, arrow_weights)))


def unit_weights(model: DimerModel) -> Dict[int, Fraction]:
    return {a.id: Fraction(1) for a in model.arrows}


@dataclass
class PluckerReport:
    checked: int
    failures: List[Tuple[Tuple[int, ...], Tuple[int, int, int, int]]]  # (S, quad) by quad, S

    @property
    def passed(self) -> bool:
        return not self.failures


def check_plucker_relations(vec: PluckerVector, k: int, n: int) -> PluckerReport:
    """Verify every three-term relation
    Z_{S∪ac}·Z_{S∪bd} = Z_{S∪ab}·Z_{S∪cd} + Z_{S∪ad}·Z_{S∪bc}
    for a<b<c<d and (k−2)-subsets S disjoint from {a,b,c,d}; `checked`
    counts all C(n, k−2)·C(m, 4) of them, m = n − k + 2.

    Most relations are decided without being evaluated. Fix S and write
    z_xy = Z_{S∪xy} for x<y outside S, extended to an alternating matrix
    (z_yx = −z_xy, z_xx = 0). The relation on a<b<c<d reads
    z_ab·z_cd − z_ac·z_bd + z_ad·z_bc = 0, the Pfaffian of z on a, b, c, d.
    (On a point of the Grassmannian, Z_{S∪xy} = ε_x·ε_y·p_S(x, y), where
    p_S(x, y) is the coordinate of S followed by x, y, alternating in x, y,
    and ε_x = (−1)^#{s∈S: s>x} is the sign of sorting x into S; each term
    of a relation carries the same sign ε_a·ε_b·ε_c·ε_d, which drops out.)
    Take the first nonzero z_ab as pivot. The C(m−2, 2) relations on the
    quads holding a and b give z_xy = (z_ax·z_by − z_ay·z_bx)/z_ab for
    every x, y outside {a, b}, and the right side also gives z_ab, z_ax and
    z_bx. So the pivot's rows determine z = (u·vᵀ − v·uᵀ)/z_ab, with u and
    v rows a and b: z has rank ≤ 2, every 4 × 4 principal submatrix is
    singular, and its Pfaffian, a square root of its determinant, is 0, so
    every relation on S holds. An S with no nonzero value reads 0 = 0 in
    each relation. Only when a pivot relation fails is every relation of
    the vector evaluated, to name the failures, by quad, then S."""
    subsets, relations, through, rows = _plucker_tables(k, n)
    if [I for I, _ in vec.values] == subsets:  # as `boundary_measurement` orders it
        xs = [x for _, x in vec.values]
    else:
        vals = vec.as_dict()
        xs = [vals.get(I) for I in subsets]
        # Each k-subset once; equal counts leave no other key.
        if len(xs) != len(vals) or any(x is None for x in xs):
            raise ValueError("vector keys are not exactly the k-subsets of 1..n")
    # The relations are homogeneous, so they hold for the values times one
    # common denominator exactly when they hold for the values: compare ints.
    den = lcm(*{x.denominator for x in xs})
    ints = [x.numerator * (den // x.denominator) for x in xs]
    checked = len(rows) * len(relations)
    for _, _, take in rows:
        z = take(ints)
        pivot = next((p for p, x in enumerate(z) if x), None)
        if pivot is not None and _failing(z, through[pivot]):
            break
    else:
        return PluckerReport(checked, [])
    return PluckerReport(checked, _all_failures(ints, k, n))


def _all_failures(ints: Sequence[int], k: int,
                  n: int) -> List[Tuple[Tuple[int, ...], Tuple[int, int, int, int]]]:
    """Every relation evaluated on the values (ints, in lexicographic order
    of the k-subsets): the failing (S, quad) by quad, then S."""
    _, relations, _, rows = _plucker_tables(k, n)
    failures = [(S, tuple(rest[i] for i in q))
                for S, rest, take in rows for q in _failing(take(ints), relations)]
    failures.sort(key=lambda f: (f[1], f[0]))
    return failures


def _failing(z: Sequence[int], relations: Iterable[tuple]) -> List[Tuple[int, int, int, int]]:
    """The quads of the relations that the values z break; each relation is
    its quad and six positions in z."""
    return [q for q, ac, bd, ab, cd, ad, bc in relations
            if z[ac] * z[bd] != z[ab] * z[cd] + z[ad] * z[bc]]


@lru_cache(maxsize=16)
def _plucker_tables(k: int, n: int) -> tuple:
    """What `check_plucker_relations` reads for type (k, n), built once: the
    k-subsets of 1..n in lexicographic order and, when k ≥ 2 and m =
    n − k + 2 ≥ 4, the relations among the C(m, 2) pairs of m positions
    (a quad and six pair positions each), for each pair the relations whose
    quad holds it, and for each (k−2)-subset S in order, S, the labels
    outside it and a getter of the values Z_{S∪xy} by pair from the
    lexicographic list."""
    labels = range(1, n + 1)
    subsets = list(combinations(labels, k))
    if k < 2 or n - k < 2:
        return subsets, (), (), ()
    m = n - k + 2
    pairs = list(combinations(range(m), 2))
    at = {pair: i for i, pair in enumerate(pairs)}
    relations = tuple(((a, b, c, d), at[a, c], at[b, d], at[a, b], at[c, d], at[a, d], at[b, c])
                      for a, b, c, d in combinations(range(m), 4))
    through: List[list] = [[] for _ in pairs]
    for r in relations:
        for at_pair in r[1:]:  # the six pairs of its quad
            through[at_pair].append(r)
    position = {_mask(I): i for i, I in enumerate(subsets)}
    rows = []
    for S in combinations(labels, k - 2):
        s = _mask(S)
        rest = tuple(x for x in labels if not s >> x & 1)
        bits = [s | 1 << x for x in rest]
        rows.append((S, rest, itemgetter(*(position[bits[i] | bits[j]] for i, j in pairs))))
    return subsets, relations, tuple(map(tuple, through)), tuple(rows)


def _mask(subset: Iterable[int]) -> int:
    return sum(1 << x for x in subset)
