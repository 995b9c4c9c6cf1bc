"""Graded pieces of the matching-module projective resolution, exactness
checks, and the degree-rotation construction.

For a matching μ, grade paths by the number of μ-arrows they use. The
reachable set S(μ,i,d) collects the vertices with a path to i of degree at
most d. Each graded piece of the resolution is a four-term complex of
finite-dimensional vector spaces built from the quiver with the μ-arrows
contracted (faces merged across matched internal arrows); the resolution is
exact iff every piece is exact. Both maps of a piece are signed incidence
matrices of graphs, so their ranks are read off connectivity.

The degrees toward every vertex are one row per target, in the model's
vertex order. `check_resolution` and `rotate_matching` search the rows of
their one matching. The suite reads every matching's degrees from one
`degree_table` per model, which searches one matching ρ and keeps its rows
and one height vector per matching: 𝟙_μ − 𝟙_ρ = dh for a height h, so
every path j → i gains h(i) − h(j) in degree from ρ to μ, and so does D.
The walk forms μ's row toward i from ρ's where it reads it (`_shifted`);
the single-matching checks walk their own rows at height 0. A piece
depends on μ only through the μ-arrows with head in S and the internal
μ-arrows with tail in S. It is decided from masks: one pass over a row
(`_levels`) ORs each vertex's bit, out-arrow mask and in-arrow mask,
packed in one int (`_Layout.packed`), into its degree level and adds its η(μ)
coefficient there. With S and the arrows into S (I) and out of S (O)
accumulated per degree, S must be closed (I \\ μ ⊆ O), the count |S| − 1
= |I \\ μ| − |O ∩ μ ∩ internal| must hold, and the one flood
(`model._flood`) over the matching's unmatched-neighbour rows must find S
connected; `_walk` proves that these decide the piece, once per distinct
(S, those μ-arrows) across all the matchings of one check. The arrows at
each vertex position come from the graph index, `model._layout`.
Its oracles, the same piece built as incidences and ranked by union-find
(`GradedComplexPiece`) and a walk that sums three ints per vertex bit by
bit, live in the tests, in `tests/oracles.py`.
The Euler identity weights the degree series by [N_μ] = η(μ), read as a
vector dense in vertex position (`lattice_maps._class_vector`).

`resolution_reports` walks the table once for the resolution and the
rotation check of `dimer verify`: one level pass per row gives the piece
decisions, the Euler series and, while no rotation has failed, the
rotations; `rotate_matching` reads the same pass. The rotation check
compares two vertex masks: S(μ,i,d), which the walk holds, and S(ν,i,d−1),
a sublevel set D_ρ(j → i) − h_ν(j) ≤ d − 1 − h_ν(i) read from the table's
cumulative masks of ρ's row and the height levels of ν (`_sublevel`). The
separate loops it replaced, over every matching's rows written out, are
its oracles, in the tests. Matchings are arrow masks (`matchings`): public
functions check the `Matching` they take as they turn it into its mask;
the suite does not check enumerated ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import or_
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .lattice_maps import _class_vector
from .matchings import Matching, _enumeration, _heights, _matching_of, is_matching, require_matching
from .model import DimerModel, ReadOnlyDict, _flood, _Layout, _layout, per_model
from .strands import require_consistent

Row = Sequence[int]  # degree toward one target, per vertex position


def _row(layout: _Layout, mu_mask: int, target: int) -> Tuple[int, ...]:
    """The degrees toward the target position, level by level: each level
    is closed under unmatched arrows before matched ones open the next."""
    n = len(layout.into)
    dist = [n] * n  # n: not reached yet; every degree is below n
    dist[target] = 0
    level, d = [target], 0
    while level:
        for cur in level:  # grows by the vertices found at degree d
            for bit, t in layout.into[cur]:
                if not mu_mask & bit and dist[t] > d:
                    dist[t] = d
                    level.append(t)
        d += 1
        nxt = []
        for cur in level:
            for bit, t in layout.into[cur]:
                if mu_mask & bit and dist[t] > d:
                    dist[t] = d
                    nxt.append(t)
        level = nxt
    if n in dist:
        raise ValueError(f"not every vertex reaches {layout.vertices[target]}")
    return tuple(dist)


def _rows(layout: _Layout, mu_mask: int) -> Tuple[Tuple[int, ...], ...]:
    """The degrees toward every vertex, one row per target in vertex order."""
    return tuple(_row(layout, mu_mask, p) for p in range(len(layout.vertices)))


def _shifted(ref: Row, h: Sequence[int], p: int) -> List[int]:
    """ρ's row toward position p as μ's, for the height h with dh = 𝟙_μ − 𝟙_ρ:
    every path j → p gains h(p) − h(j) in degree from ρ to μ, and so does
    the least, D_μ(j→p) = D_ρ(j→p) + h(p) − h(j)."""
    hp = h[p]
    return [e + hp - hj for e, hj in zip(ref, h)]


def _target(layout: _Layout, i: int) -> int:
    try:
        return layout.position[i]
    except KeyError:
        raise ValueError(f"unknown vertex {i}") from None


def degrees_toward(model: DimerModel, mu: Matching, i: int) -> Dict[int, int]:
    """D(j) = minimal number of μ-arrows on a directed path j → i."""
    layout = _layout(model)
    return dict(zip(layout.vertices, _row(layout, require_matching(model, mu), _target(layout, i))))


class DegreeTable(NamedTuple):
    """What every perfect matching's degrees of a consistent model are
    read from, in enumeration order: ρ's rows and each matching's height.
    The keys of `by_mask` are exactly the perfect matchings, as arrow
    masks, in that order; ρ is the first."""
    by_mask: ReadOnlyDict[int, int]         # arrow mask -> position of the matching
    ref: Tuple[Tuple[int, ...], ...]        # ρ's rows: per target, the degree per vertex
    heights: Tuple[Tuple[int, ...], ...]    # per matching μ: `matchings._heights` of ρ and μ
    sublevels: Tuple[Tuple[int, ...], ...]  # per target p, per x: {j : D_ρ(j→p) ≤ x}, a mask


@per_model
def degree_table(model: DimerModel) -> DegreeTable:
    """Every matching's degrees, once per model: the rows of ρ, the first
    matching, with their cumulative level masks, and the height of every
    matching against ρ."""
    require_consistent(model)
    layout = _layout(model)
    masks = _enumeration(model)[0]
    ref = _rows(layout, masks[0])
    sublevels = []
    for row in ref:
        below = [0] * (max(row) + 1)
        for e, bit in zip(row, layout.bit):
            below[e] |= bit
        sublevels.append(tuple(accumulate(below, or_)))
    return DegreeTable(ReadOnlyDict({mu_mask: k for k, mu_mask in enumerate(masks)}), ref,
                       tuple(tuple(_heights(model, masks[0], mu_mask)) for mu_mask in masks),
                       tuple(sublevels))


HeightLevels = Tuple[int, List[int]]  # the lowest height, and the vertex mask at each height up


def _height_levels(h: Sequence[int]) -> HeightLevels:
    """The vertices of each height of h, as masks, from its lowest up."""
    lo = min(h)
    masks = [0] * (max(h) - lo + 1)
    for p, v in enumerate(h):
        masks[v - lo] |= 1 << p
    return lo, masks


def _sublevel(table: DegreeTable, height_levels: Dict[int, HeightLevels],
              k: int, p: int, x: int) -> int:
    """S(ν,p,x) = {j : D_ν(j→p) ≤ x} for the matching ν at position k of
    the table, as a vertex mask: D_ν(j→p) ≤ x iff D_ρ(j→p) ≤ x − h_ν(p) +
    h_ν(j), so it is the union over ν's heights v of its vertices at v
    within ρ's sublevel set at x − h_ν(p) + v. ν's height levels are built
    on first use and kept in `height_levels`."""
    found = height_levels.get(k)
    if found is None:
        found = height_levels[k] = _height_levels(table.heights[k])
    lo, masks = found
    below = table.sublevels[p]
    top = len(below) - 1
    t = x - table.heights[k][p] + lo
    S = 0
    for m in masks:
        if t >= top:
            S |= m
        elif t >= 0:
            S |= m & below[t]
        t += 1
    return S


def _levels(packed: Sequence[int], coefficients: Iterable[int], row: Row, top: int
            ) -> Tuple[List[int], List[int]]:
    """One pass over the row toward one target: per degree from 0 to the
    row's largest, top, the packed vertices at that degree ORed
    (`_Layout.packed`), and the η(μ) coefficients summed over them (c_j in
    layout order)."""
    levels, series = [0] * (top + 1), [0] * (top + 1)
    for e, x, c in zip(row, packed, coefficients):
        levels[e] |= x
        series[e] += c
    return levels, series


def _rotation(mu_mask: int, levels: List[int], d: int, n: int, shift: int) -> int:
    """The rotation ν = (μ \\ X) ∪ Y of μ at degree d ≥ 1 of one row's
    packed levels, as an arrow mask: X the matched arrows dropping degree
    d → d−1, Y the unmatched arrows rising d−1 → d. Past the row's largest
    degree it is μ. The levels are packed as `_Layout.packed`, with n
    vertices and the in-arrows from bit shift up."""
    if d >= len(levels):
        return mu_mask
    up, down = levels[d], levels[d - 1]
    # The in-arrows, shifted down to the arrow bits, mask off the rest.
    return (mu_mask & ~(up >> n & down >> shift)) | (down >> n & up >> shift & ~mu_mask)


@dataclass
class ResolutionReport:
    d_max: int
    pieces_checked: int
    failures: List[Tuple[int, int]]       # (vertex, degree) with inexact piece
    euler_failures: List[int]             # vertices whose degree series is off

    @property
    def passed(self) -> bool:
        return not self.failures and not self.euler_failures


def _unmatched_neighbours(layout: _Layout, mu_mask: int) -> Tuple[int, ...]:
    """The rows the connectivity flood of the matching with arrow mask μ
    reads: per vertex position, the mask of its neighbours along unmatched
    arrows."""
    neighbours = [0] * len(layout.vertices)
    for h, arrows in enumerate(layout.into):
        for bit, t in arrows:
            if not mu_mask & bit:
                neighbours[h] |= 1 << t
                neighbours[t] |= 1 << h
    return tuple(neighbours)


def _connected(neighbours: Sequence[int], S: int) -> bool:
    """Whether the vertex mask S is joined along the unmatched arrows whose
    rows these are: one flood (`model._flood`) from its lowest vertex."""
    return _flood(neighbours, S, S & -S) == S


Rotation = Tuple[int, int, bool]  # (vertex, degree, whether ν is a perfect matching)


def _walk(model: DimerModel, mu_mask: int, ref: Sequence[Row], h: Sequence[int],
          d_max: Optional[int], exact: Dict[int, bool], table: Optional[DegreeTable] = None,
          height_levels: Optional[Dict[int, HeightLevels]] = None
          ) -> Tuple[ResolutionReport, Optional[Rotation]]:
    """check_resolution for the arrow mask μ, whose row toward each target
    p is ρ's row toward p shifted by μ's height h (`_shifted`), recording
    in `exact` the decision of each piece whose key it had not met; and,
    given the degree table that holds μ and a memo of its matchings'
    height levels, the first (vertex, degree) in order at which μ's
    rotation identity fails: its ν is no perfect matching, or S(μ,i,d) ≠
    S(ν,i,d−1), the left side the walk's own S, the right read from the
    table (`_sublevel`). Each row takes one level pass (`_levels`). Past
    the row's largest degree ν = μ, so d stops there. A negative degree,
    which no height of two matchings gives, is an error.

    The piece on S = S(μ,i,d) is decided from the unions over the levels up
    to d of S, of I, the arrows with head in S, and of O, those with tail in
    S. Its C1 is the unmatched arrows with head in S, I \\ μ, its C2 the
    merged faces, one per matched internal arrow β with t(β) in S.

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
    the ground. The piece is exact iff:

    - no δ1 tail is at the ground: S is closed, I \\ μ ⊆ O;
    - rank δ1 is both |C1| − rank δ2 = |C1| − |C2| and |S| − 1, so the
      count |S| − 1 = |I \\ μ| − |O ∩ μ ∩ internal| holds (on an empty S
      it does not);
    - rank δ1 = |S| − 1: S is connected along the unmatched arrows.

    The first two are a few mask operations per level, the third one
    flood. The decision is memoised, keyed by S with the μ-arrows in I and
    the internal μ-arrows in O, on which the whole piece depends: a level
    whose key was met before reads its decision."""
    if d_max is not None and d_max < 0:
        raise ValueError("d_max must be nonnegative")
    layout = _layout(model)
    rows = [_shifted(row, h, p) for p, row in enumerate(ref)]
    tops = list(map(max, rows))
    if min(map(min, rows)) < 0:
        p, j, e = next((p, j, e) for p, row in enumerate(rows) for j, e in enumerate(row) if e < 0)
        raise ValueError(f"matching {list(_matching_of(model, mu_mask).sorted_ids())} has degree "
                         f"{e} at vertex {layout.vertices[j]} toward vertex {layout.vertices[p]}")
    if d_max is None:
        d_max = max(tops) + 1
    coefficients = _class_vector(model, mu_mask)
    n = len(layout.vertices)
    shift = n + len(model.arrows)
    vertices, arrows = (1 << n) - 1, (1 << shift - n) - 1
    unmatched, internal = ~mu_mask, layout.internal
    matched_internal = mu_mask & internal
    neighbours = None
    failures: List[Tuple[int, int]] = []
    euler_failures: List[int] = []
    rotation = None
    for p, (vid, row, top) in enumerate(zip(layout.vertices, rows, tops)):
        levels, series = _levels(layout.packed, coefficients, row, top)
        P = 0
        for d, x in zip(range(d_max + 1), levels):
            P |= x  # S, O and I of the levels up to d, packed (`_Layout.packed`)
            S = P & vertices
            key = (mu_mask & (P >> shift | P >> n & internal)) << n | S
            ok = exact.get(key)
            if ok is None:
                I, O = P >> shift, P >> n & arrows
                free = I & unmatched
                ok = (not free & ~O and
                      S.bit_count() - 1 == free.bit_count() - (O & matched_internal).bit_count())
                if ok:
                    if neighbours is None:
                        neighbours = _unmatched_neighbours(layout, mu_mask)
                    ok = _connected(neighbours, S)
                exact[key] = ok
            if not ok:
                failures.append((vid, d))
        # From degree len(levels) - 1 on, S is every vertex: the last S walked above.
        if d_max >= len(levels) and not ok:
            failures.extend((vid, d) for d in range(len(levels), d_max + 1))
        if series[0] != 1 or series.count(0) != top:
            euler_failures.append(vid)
        if table is None or rotation is not None:
            continue
        P = levels[0]
        for d in range(1, len(levels)):
            P |= levels[d]
            at = table.by_mask.get(_rotation(mu_mask, levels, d, n, shift))
            if at is None or P & vertices != _sublevel(table, height_levels, at, p, d - 1):
                rotation = vid, d, at is not None
                break
    return ResolutionReport(d_max, len(rows) * (d_max + 1), failures, euler_failures), rotation


def check_resolution(model: DimerModel, mu: Matching,
                     d_max: Optional[int] = None) -> ResolutionReport:
    """Exactness of every graded piece for every vertex i and every degree
    0 ≤ d ≤ d_max (default: saturation + 1), plus the telescoped Euler
    identity per vertex: Σ_j t^{D(j)} − Σ_{γ∉μ} t^{D(hγ)} + Σ_β t^{D(tβ)}
    equals the constant 1, where β runs over matched internal arrows.

    A piece depends only on its reachable set, so exactness is decided
    once per distinct set and every (vertex, degree) reads that answer.
    Past a vertex's largest degree the set is the whole vertex set, so
    those degrees are counted, not walked."""
    require_consistent(model)
    mu_mask = require_matching(model, mu)
    layout = _layout(model)
    return _walk(model, mu_mask, _rows(layout, mu_mask), [0] * len(layout.vertices), d_max, {})[0]


def resolution_reports(model: DimerModel
                       ) -> Iterator[Tuple[int, ResolutionReport, Optional[Rotation]]]:
    """(μ, check_resolution(model, μ), μ's rotation failure) for every
    perfect matching μ, as an arrow mask, in enumeration order, from one
    walk of the degree table. The rotation failure is the first (vertex i,
    degree d), 1 ≤ d ≤ saturation(μ), at which the rotation ν of μ is no
    perfect matching (False) or S(μ,i,d) ≠ S(ν,i,d−1) (True), both sides
    read from the table, whose keys are exactly the perfect matchings; None
    if there is none. One piece memo and one memo of height levels serve
    every matching; they live as long as this iterator."""
    table = degree_table(model)
    exact: Dict[int, bool] = {}
    height_levels: Dict[int, HeightLevels] = {}
    for mu_mask, k in table.by_mask.items():
        yield (mu_mask,) + _walk(model, mu_mask, table.ref, table.heights[k], None, exact,
                                 table, height_levels)


def rotate_matching(model: DimerModel, mu: Matching, i: int, d: int) -> Matching:
    """ν = (μ \\ X) ∪ Y with X the matched arrows dropping degree d → d−1
    and Y the unmatched arrows rising d−1 → d (degrees toward i); ν is a
    perfect matching with S(μ,i,d) = S(ν,i,d−1)."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    require_consistent(model)
    mu_mask = require_matching(model, mu)
    layout = _layout(model)
    n = len(layout.vertices)
    row = _row(layout, mu_mask, _target(layout, i))
    levels, _ = _levels(layout.packed, repeat(0), row, max(row))
    nu = _matching_of(model, _rotation(mu_mask, levels, d, n, n + len(model.arrows)))
    if not is_matching(model, nu.arrow_set):
        raise ValueError("rotation did not produce a perfect matching")
    return nu

