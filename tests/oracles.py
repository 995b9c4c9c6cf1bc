"""Independent oracles that the tests compare the library against. None of
them is called by the library; each is the slow, direct path of one job
that the library does another way:

- `mat_mul` and `rational_rank`: the dense matrix product and the rank by
  fraction-free (Bareiss) elimination. They check the Hermite core in
  `test_intlinalg` and, as dense matrices, the graph ranks of the graded
  pieces in `test_resolution`.
- `flood` and `tiles_reached`: a flood fill over sets and adjacency
  lists, and the tile graph cut along arrow ids flooded with it. They
  check the vertex incidence of `model.validate` (in `test_model`) and the
  one bitmask flood, `model._flood`, as strand regions and wedges read it
  (`model._tiles_reached`).
- `boundary_tile`: the corner between two marked points, paired from
  their two boundary arrows on every call; it checks the corner table
  that `model._corners` builds once per model.
- `brute_force_matchings`: every perfect matching, by a product over the
  face cycles; it checks `matchings.enumerate_matchings`.
- `enumerate_dual_covers`: every exact cover of the bipartite dual's nodes;
  it checks the support-subgraph bijection (criterion 13).
- The per-piece resolution path (`reachable_set`, `merged_complex_data`,
  `graded_piece`, `GradedComplexPiece.is_exact` ranked by `_forest_size`,
  `saturation_degree`): each graded piece built from the quiver as signed
  incidences and decided alone. It checks the bitmask decision and the
  piece memo of `resolution.check_resolution` and `resolution_reports`.
- `euler_class`: [N_μ] read off the resolution data without η; it checks
  `kclass_of_matching`.
- `specialize`: a Laurent polynomial evaluated term by term at rational
  values; it checks the partition-function identities at a point.
- `shifted`: a Laurent polynomial times a monomial, term by term; the
  twist sum shifted by [P_I°] checks `ms_formula_white_v2`.
- The dict forms of the per-matching vectors, which the library keeps dense
  (`_eta` and `_matching_class`, `_weights`, `_ms_sum`, `_twist_sum`,
  `_ms_white_v2_sum`), and `coboundary`, a lattice point per vertex: they
  check `kclass_of_matching`, `weights`, the Marsh–Scott and twist sums and
  η∘d = β.
- The degree table as it was stored before it kept heights
  (`shifted_table`): every matching's row toward every target, ρ's row
  shifted by the matching's height (`resolution._shifted`). The loops
  below read both sides of each rotation identity from its rows.
- The separate resolution and rotation loops over the shifted table
  (`resolution_reports` with `_report` and `_piece_keys`, and
  `first_rotation_failure` with `_rotations` and `_at_most`): they check the
  one walk that `resolution.resolution_reports` makes for both.
- The walk as it was before the level decision was fused into it
  (`row_levels_walk`, with `_row_levels`, `_piece_table` and the
  three-int `_is_exact`): each piece decided from per-vertex tails and
  excesses summed bit by bit, the rotations built for every degree and
  their sides compared as 0/1 bytes. It checks `resolution._walk` on real
  and on random degree rows, and its piece decision is the one `_report`
  reads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from discdimer import resolution
from discdimer.lattice_maps import KClass, LatticePoint, _class_vector, make_lattice_point
from discdimer.matchings import Matching, _arrow_bits, require_matching
from discdimer.model import BLACK, WHITE, DimerModel, _flood
from discdimer.partition_functions import VERTEX_BASIS, LaurentPoly
from discdimer.resolution import ResolutionReport, Row, _Layout, degrees_toward


def mat_mul(a, b):
    if not a or not b:
        return []
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def rational_rank(a):
    """Oracle: rank over the rationals by fraction-free (Bareiss)
    elimination, stopping once every row has a pivot. A row below the pivot
    becomes (p·row − f·pivot row) / p' for the new pivot p, its entry f in
    the pivot column and the previous pivot p'; the division is exact."""
    m = [list(row) for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    rank, prev = 0, 1
    for col in range(cols):
        if rank == rows:
            break
        pivot = next((i for i in range(rank, rows) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top, p = m[rank], m[rank][col]
        for i in range(rank + 1, rows):
            f = m[i][col]
            if f == 0 and p == prev:
                continue
            m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = p
        rank += 1
    return rank


def flood(adjacency: Mapping[int, Iterable[int]], seeds: Iterable[int]) -> Set[int]:
    """Every node reachable from the seeds along the adjacency lists."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for nb in adjacency[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen


def tiles_reached(model: DimerModel, seeds: Iterable[int], cut: Iterable[int] = ()) -> Set[int]:
    """The vertex ids reachable from the seed ids in the undirected tile
    graph with the arrows of the ids in `cut` removed."""
    cut = set(cut)
    adjacency: Dict[int, List[int]] = {v.id: [] for v in model.vertices}
    for a in model.arrows:
        if a.id not in cut:
            adjacency[a.tail].append(a.head)
            adjacency[a.head].append(a.tail)
    return flood(adjacency, seeds)


def boundary_tile(model: DimerModel, m: int) -> int:
    """The boundary quiver vertex between marked points m and m+1 (mod n),
    i.e. the vertex shared by the boundary arrows labelled m and m+1."""
    n = model.n
    a = model.boundary_arrow_with_label(m)
    b = model.boundary_arrow_with_label(m % n + 1)
    shared = {a.tail, a.head} & {b.tail, b.head}
    if len(shared) != 1:
        raise ValueError(f"boundary arrows {m} and {m % n + 1} do not share "
                         "exactly one vertex")
    return shared.pop()


def brute_force_matchings(model: DimerModel) -> Set[FrozenSet[int]]:
    """Independent oracle: pick one arrow per face by brute cartesian
    product and keep the selections whose union meets every face once."""
    faces = sorted(model.faces, key=lambda f: f.id)
    out: Set[FrozenSet[int]] = set()
    for choice in product(*[f.boundary_cycle for f in faces]):
        chosen = frozenset(choice)
        if all(sum(1 for a in f.boundary_cycle if a in chosen) == 1 for f in faces):
            out.add(chosen)
    return out


def enumerate_dual_covers(dual) -> Set[FrozenSet[int]]:
    """All sets of dual arrows (edges and half-edges, identified by the
    underlying arrow id) covering every dual node exactly once."""
    nodes = sorted((n.face_id, n.color) for n in dual.nodes)
    incident = {key: [] for key in nodes}
    endpoints = {}
    for e in dual.edges:
        ends = [key for key in ((e.black_face, "black"), (e.white_face, "white"))
                if key in incident]
        endpoints.setdefault(e.arrow_id, []).extend(ends)
    for h in dual.half_edges:
        for key in incident:
            if key[0] == h.face_id:
                endpoints.setdefault(h.arrow_id, []).append(key)
    for aid, ends in endpoints.items():
        for key in ends:
            incident[key].append(aid)
    out: Set[FrozenSet[int]] = set()

    def descend(pos: int, covered: Set, chosen: List[int]) -> None:
        while pos < len(nodes) and nodes[pos] in covered:
            pos += 1
        if pos == len(nodes):
            out.add(frozenset(chosen))
            return
        node = nodes[pos]
        for aid in incident[node]:
            ends = endpoints[aid]
            if any(e in covered for e in ends):
                continue
            covered.update(ends)
            chosen.append(aid)
            descend(pos + 1, covered, chosen)
            chosen.pop()
            covered.difference_update(ends)

    descend(0, set(), [])
    return out


@dataclass(frozen=True)
class ReachableSet:
    matching: Matching
    target: int
    degree: int
    members: FrozenSet[int]


@dataclass(frozen=True)
class MergedFace:
    """A face of the merged quiver Q^μ: the black and white faces adjacent
    along the matched internal arrow that indexes it."""
    matched_arrow: int
    head: int                      # the tail vertex of the matched arrow
    plus: Tuple[int, ...]          # unmatched arrows of the black face
    minus: Tuple[int, ...]         # unmatched arrows of the white face


@dataclass(frozen=True)
class GradedComplexPiece:
    """δ1 and δ2 as incidences, one entry per C1 arrow α: δ1(α) = tα − hα,
    tα None outside S; δ2's row of α is +1 at the face whose plus cycle
    holds α and −1 at the one whose minus cycle does (None: not in C2).
    An arrow lies in one black and one white face, so each face is one."""
    c2: Tuple[int, ...]            # merged faces, by matched arrow id
    c1: Tuple[int, ...]            # unmatched arrows with head in S
    c0: Tuple[int, ...]            # vertices of S
    delta2: Tuple[Tuple[Optional[int], Optional[int]], ...]  # (plus, minus) per C1 arrow
    delta1: Tuple[Tuple[Optional[int], int], ...]            # (tail, head) per C1 arrow

    def is_exact(self) -> bool:
        """Exactness of 0 → C2 → C1 → C0 → ℚ → 0 with the all-ones
        augmentation: it is a complex (δ1δ2 = 0, every column of δ1 sums
        to 0) and the ranks count out."""
        if not self.c0 or any(t is None for t, _ in self.delta1):
            return False
        composite: Dict[Tuple[int, int], int] = {}  # δ1δ2 by (face, vertex)
        get = composite.get
        for (t, h), (plus, minus) in zip(self.delta1, self.delta2):
            if plus is not None:
                composite[plus, t] = get((plus, t), 0) + 1
                composite[plus, h] = get((plus, h), 0) - 1
            if minus is not None:
                composite[minus, t] = get((minus, t), 0) - 1
                composite[minus, h] = get((minus, h), 0) + 1
        if any(composite.values()):
            return False
        r2 = _forest_size(self.delta2)
        if r2 != len(self.c2):
            return False
        r1 = _forest_size(self.delta1)
        return r1 == len(self.c1) - r2 and len(self.c0) - r1 == 1


def _forest_size(edges: Tuple[Tuple[Optional[int], Optional[int]], ...]) -> int:
    """Rank of the signed incidence matrix whose columns (δ1's, δ2ᵀ's) are
    these edges: the size of a spanning forest, by union-find, with every
    None end the one ground node."""
    parent: Dict[Optional[int], Optional[int]] = {}
    size = 0
    for x, y in edges:
        while x in parent:
            x = parent[x]
        while y in parent:
            y = parent[y]
        if x != y:
            parent[x] = y
            size += 1
    return size


def reachable_set(model: DimerModel, mu: Matching, i: int, d: int) -> ReachableSet:
    if d < 0:
        raise ValueError("degree must be nonnegative")
    members = frozenset(j for j, e in degrees_toward(model, mu, i).items() if e <= d)
    return ReachableSet(mu, i, d, members)


def merged_complex_data(model: DimerModel, mu: Matching
                        ) -> Tuple[Tuple[int, ...], Tuple[MergedFace, ...]]:
    """(Q1^μ, Q2^μ): the unmatched arrows, and the merged faces of the
    quotient quiver, one per matched internal arrow."""
    require_matching(model, mu)
    q1 = tuple(sorted(a.id for a in model.arrows if a.id not in mu.arrow_set))
    q2 = []
    for a in sorted(model.internal_arrows, key=lambda a: a.id):
        if a.id not in mu.arrow_set:
            continue
        black = model.face_of_color(a.id, BLACK)
        white = model.face_of_color(a.id, WHITE)
        plus = tuple(x for x in black.boundary_cycle if x not in mu.arrow_set)
        minus = tuple(x for x in white.boundary_cycle if x not in mu.arrow_set)
        q2.append(MergedFace(a.id, a.tail, plus, minus))
    return q1, tuple(q2)


def graded_piece(model: DimerModel, mu: Matching, i: int, d: int) -> GradedComplexPiece:
    """The degree-d piece at vertex i: the reduced cochain complex of the
    merged quiver restricted to S(μ,i,d), with δ1(α) = tα − hα and
    δ2(r) = Σ r⁺ − Σ r⁻."""
    q1, q2 = merged_complex_data(model, mu)
    return _piece(model, reachable_set(model, mu, i, d).members, q1, q2)


def _piece(model: DimerModel, S: FrozenSet[int], q1: Tuple[int, ...],
           q2: Tuple[MergedFace, ...]) -> GradedComplexPiece:
    """The graded piece on the reachable set S; it depends on μ only
    through the merged complex data (q1, q2)."""
    c1 = [a for a in map(model.arrow, q1) if a.head in S]
    c2 = [r for r in q2 if r.head in S]
    plus = {a: r.matched_arrow for r in c2 for a in r.plus}
    minus = {a: r.matched_arrow for r in c2 for a in r.minus}
    return GradedComplexPiece(tuple([r.matched_arrow for r in c2]),
                              tuple([a.id for a in c1]), tuple(sorted(S)),
                              tuple([(plus.get(a.id), minus.get(a.id)) for a in c1]),
                              tuple([(a.tail if a.tail in S else None, a.head)
                                     for a in c1]))


def saturation_degree(model: DimerModel, mu: Matching) -> int:
    """The largest minimal path degree over all (source, target) pairs; for
    d at or beyond it every reachable set is the whole vertex set."""
    return max(max(degrees_toward(model, mu, v.id).values()) for v in model.vertices)


def euler_class(model: DimerModel, mu) -> Dict[int, int]:
    """[N_mu] read off the resolution data, without η: one projective per
    vertex, minus one per unmatched arrow head, plus one per merged-face
    head; zero coefficients left out."""
    q1, q2 = merged_complex_data(model, mu)
    coeffs = {v.id: 1 for v in model.vertices}
    for aid in q1:
        coeffs[model.arrow(aid).head] -= 1
    for r in q2:
        coeffs[r.head] += 1
    return {v: c for v, c in coeffs.items() if c}


def specialize(poly: LaurentPoly, assignment: Mapping[int, Fraction]) -> Fraction:
    """Evaluate the polynomial at the given nonzero rational values."""
    total = Fraction(0)
    for key, coeff in poly.terms:
        prod = Fraction(coeff)
        for i, e in key:
            x = Fraction(assignment[i])
            if x == 0:
                raise ValueError(f"assignment for index {i} must be nonzero")
            prod *= x ** e
        total += prod
    return total


def coboundary(model: DimerModel, g: Dict[int, int]) -> LatticePoint:
    """d g: the degree-0 lattice point γ ↦ g(hγ) − g(tγ)."""
    values = {a.id: g.get(a.head, 0) - g.get(a.tail, 0) for a in model.arrows}
    return make_lattice_point(model, 0, values)


def _eta(model: DimerModel, deg: int, values: Dict[int, int]) -> KClass:
    """η(deg, f) = deg·Σ_j p_j − Σ_γ (deg − f(γ))·p_{hγ} + Σ_{γ internal} f(γ)·p_{tγ},
    f given by `values` (0 where missing); the face sums are not checked."""
    coeffs = {v.id: deg for v in model.vertices}
    for a in model.arrows:
        x = values.get(a.id, 0)
        coeffs[a.head] -= deg - x
        if not a.is_boundary:
            coeffs[a.tail] += x
    return KClass(tuple(sorted(coeffs.items())))


def _matching_class(model: DimerModel, mu_mask: int) -> KClass:
    """[N_μ] = η(μ): `_eta` at degree 1, 1 on the arrow mask μ (unchecked)."""
    return _eta(model, 1, {aid: 1 for aid, bit in _arrow_bits(model).items() if mu_mask & bit})


def _weights(model: DimerModel, mu_mask: int) -> Tuple[KClass, KClass]:
    """`weights` of the arrow mask μ, with neither the model nor μ checked."""
    bits = _arrow_bits(model)
    wt: Dict[int, int] = {}
    for a in model.internal_arrows:
        if mu_mask & bits[a.id]:
            wt[a.tail] = wt.get(a.tail, 0) - 1
        else:
            wt[a.head] = wt.get(a.head, 0) + 1
    wtd = {v.id: 1 for v in model.vertices if not v.is_boundary}
    return (KClass(tuple(sorted(wt.items()))), KClass(tuple(sorted(wtd.items()))))


def _ms_sum(model: DimerModel, pool: Iterable[int]) -> LaurentPoly:
    """`ms_formula` summed over the given arrow masks, all of one boundary
    value; the model's standardisation makes it MS° or MS•."""
    terms = []
    for mu_mask in pool:
        wt, wtd = _weights(model, mu_mask)
        exp = dict(wt.as_dict())
        for v, e in wtd.as_dict().items():
            exp[v] = exp.get(v, 0) - e
        terms.append((exp, 1))
    return LaurentPoly.from_terms(VERTEX_BASIS, terms)


def shifted(poly: LaurentPoly, exp: Mapping[int, int]) -> LaurentPoly:
    """Multiply by the monomial with the given exponent vector."""
    out = []
    for key, coeff in poly.terms:
        d = dict(key)
        for i, e in exp.items():
            d[i] = d.get(i, 0) + e
        out.append((d, coeff))
    return LaurentPoly.from_terms(poly.basis, out)


def _ms_white_v2_sum(model: DimerModel, I: Iterable[int], pool: Iterable[int]) -> LaurentPoly:
    """`ms_formula_white_v2` over the given arrow masks with ∂μ = I: the
    twist sum shifted by [P_I°]."""
    p_I = Counter(model.boundary_arrow_with_label(i).head for i in I)
    return shifted(_twist_sum(model, pool), p_I)


def _twist_sum(model: DimerModel, pool: Iterable[int]) -> LaurentPoly:
    """`musp_twist_expression` summed over the given arrow masks."""
    terms = [({v: -c for v, c in _matching_class(model, mu_mask).coefficients}, 1)
             for mu_mask in pool]
    return LaurentPoly.from_terms(VERTEX_BASIS, terms)


class ShiftedTable(NamedTuple):
    """Every perfect matching's degree rows, one per target, in
    enumeration order; the keys of `by_mask` are the matchings' arrow
    masks, in that order."""
    by_mask: Mapping[int, int]
    rows: Tuple[Tuple[Row, ...], ...]


def shifted_table(model: DimerModel) -> ShiftedTable:
    """The rows of `resolution.degree_table` written out: ρ's row toward
    each target shifted by each matching's height."""
    table = resolution.degree_table(model)
    return ShiftedTable(table.by_mask, tuple(
        tuple(resolution._shifted(row, h, p) for p, row in enumerate(table.ref))
        for h in table.heights))


def _piece_keys(layout: _Layout, mu_mask: int, coefficients: List[int],
                row: Row) -> Tuple[List[Tuple[int, int]], bool]:
    """For the row toward one target: per degree d from 0 to the row's
    largest, the mask of S(μ,i,d) and the memo key of its piece, S with
    the μ-arrows into S and the internal μ-arrows out of S; and whether
    the degree series Σ_j c_j t^{D(j)} is the constant 1, with c_j the
    coefficients of [N_μ] in layout order."""
    top = max(row)
    members, arrows, series = [0] * (top + 1), [0] * (top + 1), [0] * (top + 1)
    for j, e in enumerate(row):
        members[e] |= 1 << j
        arrows[e] |= layout.into_mask[j] | layout.out_mask[j] & layout.internal
        series[e] += coefficients[j]
    keys = []
    S = A = 0
    for m, a in zip(members, arrows):
        S |= m
        A |= a
        keys.append((S, (mu_mask & A) << len(row) | S))
    return keys, series[0] == 1 and not any(series[1:])


def _report(model: DimerModel, mu_mask: int, rows: Tuple[Row, ...],
            d_max: Optional[int], exact: Dict[int, bool]) -> ResolutionReport:
    """check_resolution from the degree rows of the arrow mask μ, deciding
    each piece whose key is not in `exact` yet and recording it there."""
    if d_max is None:
        d_max = max(map(max, rows)) + 1
    elif d_max < 0:
        raise ValueError("d_max must be nonnegative")
    layout = resolution._layout(model)
    cls = _matching_class(model, mu_mask).as_dict()
    coefficients = [cls[v] for v in layout.vertices]
    table = None
    failures: List[Tuple[int, int]] = []
    euler_failures: List[int] = []
    for vid, row in zip(layout.vertices, rows):
        keys, euler = _piece_keys(layout, mu_mask, coefficients, row)
        for d, (S, key) in enumerate(keys[:d_max + 1]):
            ok = exact.get(key)
            if ok is None:
                if table is None:
                    table = _piece_table(layout, mu_mask)
                ok = exact[key] = _is_exact(table, S)
            if not ok:
                failures.append((vid, d))
        # From degree len(keys) - 1 on, S is every vertex: the last S walked above.
        if d_max >= len(keys) and not ok:
            failures.extend((vid, d) for d in range(len(keys), d_max + 1))
        if not euler:
            euler_failures.append(vid)
    return ResolutionReport(d_max, len(rows) * (d_max + 1), failures, euler_failures)


def resolution_reports(model: DimerModel) -> Iterator[Tuple[int, ResolutionReport]]:
    """(μ, check_resolution(model, μ)) for every perfect matching μ, as an
    arrow mask, in enumeration order, from the shifted table. One piece memo
    serves every matching; it lives as long as this iterator."""
    table = shifted_table(model)
    exact: Dict[int, bool] = {}
    for mu_mask, k in table.by_mask.items():
        yield mu_mask, _report(model, mu_mask, table.rows[k], None, exact)


def _rotations(layout: _Layout, mu_mask: int, row: Row, stop: int) -> List[int]:
    """ν = (μ \\ X) ∪ Y as an arrow mask for each d = 1..stop, with X the
    matched arrows dropping degree d → d−1 and Y the unmatched arrows
    rising d−1 → d (degrees toward the row's target)."""
    size = max(max(row), stop) + 1
    out, into = [0] * size, [0] * size
    for j, e in enumerate(row):
        out[e] |= layout.out_mask[j]
        into[e] |= layout.into_mask[j]
    return [(mu_mask & ~(out[d] & into[d - 1])) | (out[d - 1] & into[d] & ~mu_mask)
            for d in range(1, stop + 1)]


def _at_most(row: Row, d: int) -> bytes:
    """The reachable set of degree d in the row, as one 0/1 byte per vertex."""
    return bytes(e <= d for e in row)


def first_rotation_failure(model: DimerModel) -> Optional[Tuple[int, int, int]]:
    """The first (μ, i, d), over every perfect matching μ (as an arrow
    mask), vertex i and 1 ≤ d ≤ saturation(μ), with S(μ,i,d) ≠ S(ν,i,d−1)
    for the rotation ν of μ; None if there is none. Both sides are read
    from the shifted table, whose keys are exactly the perfect matchings."""
    table = shifted_table(model)
    layout = resolution._layout(model)
    for mu_mask, k in table.by_mask.items():
        saturation = max(map(max, table.rows[k]))
        for p, row in enumerate(table.rows[k]):
            for d, nu in enumerate(_rotations(layout, mu_mask, row, saturation), 1):
                at = table.by_mask.get(nu)
                if at is None:
                    raise ValueError("rotation did not produce a perfect matching")
                if _at_most(row, d) != _at_most(table.rows[at][p], d - 1):
                    return mu_mask, layout.vertices[p], d
    return None


class _PieceTable(NamedTuple):
    """What the pieces of one matching μ are decided from: plain ints per
    vertex position."""
    tails: Tuple[int, ...]        # the tails of the unmatched arrows into it
    neighbours: Tuple[int, ...]   # its neighbours along unmatched arrows
    excess: Tuple[int, ...]       # unmatched arrows into it − matched internal arrows out of it


def _piece_table(layout: _Layout, mu_mask: int) -> _PieceTable:
    """The table of the matching with arrow mask μ."""
    n = len(layout.vertices)
    tails, neighbours, excess = [0] * n, [0] * n, [0] * n
    for h, arrows in enumerate(layout.into):
        for bit, t in arrows:
            if mu_mask & bit:
                excess[t] -= bool(layout.internal & bit)
                continue
            tails[h] |= 1 << t
            neighbours[h] |= 1 << t
            neighbours[t] |= 1 << h
            excess[h] += 1
    return _PieceTable(tuple(tails), tuple(neighbours), tuple(excess))


def _is_exact(table: _PieceTable, S: int) -> bool:
    """Whether μ's piece on the vertex mask S is exact. Its C1 is the
    unmatched arrows with head in S, its C2 the merged faces, one per
    matched internal arrow β with t(β) in S.

    Once S is closed (the tails of the unmatched arrows into S lie in S),
    every unmatched arrow of a face of C2 is in C1 with both ends in S: μ
    has one arrow in each face, so a merged face's plus and minus cycles
    are directed paths of unmatched arrows from the head of its matched
    arrow β to its head, the tail of β, which is in S, and closure pulls
    both paths into S. Hence δ1δ2 = 0 needs no test: under δ1 each path
    telescopes to the same h(β) − t(β). Nor does rank δ2 = |C2|. δ2ᵀ is
    the incidence matrix of a graph on C2 and the ground with one edge per
    C1 arrow, a face outside C2 being part of the ground, so its rank is
    |C2| iff that graph is connected. The merged faces and the ground,
    joined across every unmatched arrow, form a connected graph: the
    disc's faces and its outside, joined across every arrow, do, and
    merging the two faces of each matched arrow contracts that arrow's
    edge. So any set K of faces of C2 has an unmatched arrow with one side
    in K and the other outside it. That arrow is an arrow of a face of C2,
    so it is in C1: an edge of the graph out of K. No K is cut off from
    the ground. The conditions read:

    - C0 = S is not empty, and no δ1 tail is at the ground: S is closed;
    - rank δ1 = |C1| − rank δ2 = |C1| − |C2|, which is Σ_{p∈S} excess[p];
    - rank δ1 = |S| − 1: S is connected along the unmatched arrows."""
    if not S:
        return False
    tails = excess = 0
    rest = S
    while rest:
        low = rest & -rest
        rest ^= low
        p = low.bit_length() - 1
        tails |= table.tails[p]
        excess += table.excess[p]
    return (not tails & ~S and S.bit_count() - 1 == excess
            and _flood(table.neighbours, S, S & -S) == S)


def _row_levels(layout: _Layout, mu_mask: int, coefficients: Sequence[int],
                row: Row) -> Tuple[List[int], List[int], bool, List[int]]:
    """One pass over the row toward one target, then one over its degrees
    from 0 to the row's largest: the mask of S(μ,i,d) and the memo key of
    its piece, S with the μ-arrows into S and the internal μ-arrows out of
    S; whether the degree series Σ_j c_j t^{D(j)} is the constant 1, with
    c_j the coefficients of [N_μ] in layout order; and the rotations of μ
    for d = 1 up to the row's largest, ν = (μ \\ X) ∪ Y as arrow masks,
    with X the matched arrows dropping degree d → d−1 and Y the unmatched
    arrows rising d−1 → d, read off the arrows out of and into each degree."""
    top = max(row)
    members, series, out, into = [0] * (top + 1), [0] * (top + 1), [0] * (top + 1), [0] * (top + 1)
    for e, bit, c, o, i in zip(row, layout.bit, coefficients, layout.out_mask, layout.into_mask):
        members[e] |= bit
        series[e] += c
        out[e] |= o
        into[e] |= i
    sets, keys = [], []
    S = A = 0
    internal = layout.internal
    for m, o, i in zip(members, out, into):
        S |= m
        A |= i | o & internal
        sets.append(S)
        keys.append((mu_mask & A) << len(row) | S)
    return (sets, keys, series[0] == 1 and not any(series[1:]),
            [(mu_mask & ~(out[d] & into[d - 1])) | (out[d - 1] & into[d] & ~mu_mask)
             for d in range(1, top + 1)])



def row_levels_walk(model: DimerModel, mu_mask: int, rows: Tuple[Row, ...],
                    d_max: Optional[int], exact: Dict[int, bool],
                    table: Optional[ShiftedTable] = None
                    ) -> Tuple[ResolutionReport, Optional[Tuple[int, int, bool]]]:
    """check_resolution from the degree rows of the arrow mask μ, deciding
    each piece whose key is not in `exact` yet and recording it there; and,
    given the shifted table that holds μ, the first (vertex, degree) in
    order at which μ's rotation identity fails: its ν is no perfect
    matching, or S(μ,i,d) ≠ S(ν,i,d−1). Both read one `_row_levels` pass
    per row. Past the row's largest degree ν = μ, so d stops there."""
    if d_max is None:
        d_max = max(map(max, rows)) + 1
    elif d_max < 0:
        raise ValueError("d_max must be nonnegative")
    layout = resolution._layout(model)
    coefficients = _class_vector(model, mu_mask)
    pieces = None
    failures: List[Tuple[int, int]] = []
    euler_failures: List[int] = []
    rotation = None
    for p, (vid, row) in enumerate(zip(layout.vertices, rows)):
        sets, keys, euler, turns = _row_levels(layout, mu_mask, coefficients, row)
        for d, S, key in zip(range(d_max + 1), sets, keys):
            ok = exact.get(key)
            if ok is None:
                if pieces is None:
                    pieces = _piece_table(layout, mu_mask)
                ok = exact[key] = _is_exact(pieces, S)
            if not ok:
                failures.append((vid, d))
        # From degree len(sets) - 1 on, S is every vertex: the last S walked above.
        if d_max >= len(sets) and not ok:
            failures.extend((vid, d) for d in range(len(sets), d_max + 1))
        if not euler:
            euler_failures.append(vid)
        if table is None or rotation is not None:
            continue
        for d, nu in enumerate(turns, 1):
            at = table.by_mask.get(nu)
            if at is None or _at_most(row, d) != _at_most(table.rows[at][p], d - 1):
                rotation = vid, d, at is not None
                break
    return ResolutionReport(d_max, len(rows) * (d_max + 1), failures, euler_failures), rotation
