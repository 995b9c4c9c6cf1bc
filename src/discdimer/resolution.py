"""Graded pieces of the matching-module projective resolution, exactness
checks, and the degree-rotation construction.

For a matching μ, grade paths by the number of μ-arrows they use. The
reachable set S(μ,i,d) collects the vertices with a path to i of degree at
most d. Each graded piece of the resolution is a four-term complex of
finite-dimensional vector spaces built from the quiver with the μ-arrows
contracted (faces merged across matched internal arrows); the resolution is
exact iff every piece is exact. Both maps of a piece are signed incidence
matrices of graphs, so their ranks are read off connectivity.

The degrees toward every vertex are one row of bytes per target, in the
model's vertex order. `check_resolution` and `rotate_matching` search the
rows of their one matching. The suite reads every matching's rows from one
`degree_table` per model, which searches one matching ρ: 𝟙_μ − 𝟙_ρ = dh for
a height h, so every path j → i gains h(i) − h(j) in degree from ρ to μ,
and so does D. A piece depends on μ only through the μ-arrows with head in
S and the internal μ-arrows with tail in S, so exactness is decided once per
distinct (S, those arrows), across all the matchings of one check, with both
kept as int bitmasks. The decision reads S as a vertex mask against three
ints per vertex position, in one table per matching (`_piece_table`): S
must be closed under the tails of the unmatched arrows into it, the counts
of its unmatched arrows in and matched internal arrows out must give
|S| − 1, and the one flood (`model._flood`) must find S connected.
`_is_exact` proves that these decide the piece: on a closed S, δ1δ2 = 0
and δ2 is injective. The arrows at each vertex position come from the
graph index, `model._layout`.
Its oracle, the same piece built as incidences and ranked by union-find
(`GradedComplexPiece`), lives in the tests, in `tests/oracles.py`.
The Euler identity weights the degree series by [N_μ] = η(μ), read as a
vector dense in vertex position (`lattice_maps._class_vector`).

`resolution_reports` walks the table once for the resolution and the
rotation check of `dimer verify`: one pass per row (`_row_levels`) gives the
piece keys, the Euler series and the rotations. The separate loops it
replaced are its oracles, in the tests. Matchings are arrow masks
(`matchings`): public functions check the `Matching` they take as they turn
it into its mask; the suite does not check enumerated ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .lattice_maps import _class_vector
from .matchings import Matching, _enumeration, _heights, _matching_of, is_matching, require_matching
from .model import DimerModel, ReadOnlyDict, _flood, _Layout, _layout, per_model
from .strands import require_consistent

Row = Union[bytes, Tuple[int, ...]]  # degree toward one target, per vertex position


def _as_row(dist: List[int]) -> Row:
    """Degrees as bytes, or as a tuple once one of them reaches 256."""
    return bytes(dist) if max(dist) < 256 else tuple(dist)


def _row(layout: _Layout, mu_mask: int, target: int) -> Row:
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
    return _as_row(dist)


def _rows(layout: _Layout, mu_mask: int) -> Tuple[Row, ...]:
    """The degrees toward every vertex, one row per target in vertex order."""
    return tuple(_row(layout, mu_mask, p) for p in range(len(layout.vertices)))


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
    """The degree rows of every perfect matching of a consistent model, in
    enumeration order. The keys of `by_mask` are exactly the perfect
    matchings, as arrow masks, in that order."""
    by_mask: ReadOnlyDict[int, int]      # arrow mask -> position of the matching
    rows: Tuple[Tuple[Row, ...], ...]    # per matching: one row per target


@per_model
def degree_table(model: DimerModel) -> DegreeTable:
    """Every matching μ's degree rows, once per model: the rows of ρ, the
    first matching, shifted by the height h with dh = 𝟙_μ − 𝟙_ρ."""
    require_consistent(model)
    layout = _layout(model)
    masks = _enumeration(model)[0]
    ref = _rows(layout, masks[0])
    rows = []
    for mu_mask in masks:
        h = _heights(model, masks[0], mu_mask)
        rows.append(tuple(_as_row([e + hi - hj for e, hj in zip(row, h)])
                          for row, hi in zip(ref, h)))
    return DegreeTable(ReadOnlyDict({mu_mask: k for k, mu_mask in enumerate(masks)}), tuple(rows))


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


@dataclass
class ResolutionReport:
    d_max: int
    pieces_checked: int
    failures: List[Tuple[int, int]]       # (vertex, degree) with inexact piece
    euler_failures: List[int]             # vertices whose degree series is off

    @property
    def passed(self) -> bool:
        return not self.failures and not self.euler_failures


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


Rotation = Tuple[int, int, bool]  # (vertex, degree, whether ν is a perfect matching)


def _walk(model: DimerModel, mu_mask: int, rows: Tuple[Row, ...], d_max: Optional[int],
          exact: Dict[int, bool], table: Optional[DegreeTable] = None
          ) -> Tuple[ResolutionReport, Optional[Rotation]]:
    """check_resolution from the degree rows of the arrow mask μ, deciding
    each piece whose key is not in `exact` yet and recording it there; and,
    given the degree table that holds μ, the first (vertex, degree) in
    order at which μ's rotation identity fails: its ν is no perfect
    matching, or S(μ,i,d) ≠ S(ν,i,d−1). Both read one `_row_levels` pass
    per row. Past the row's largest degree ν = μ, so d stops there."""
    if d_max is None:
        d_max = max(map(max, rows)) + 1
    elif d_max < 0:
        raise ValueError("d_max must be nonnegative")
    layout = _layout(model)
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
    return _walk(model, mu_mask, _rows(_layout(model), mu_mask), d_max, {})[0]


def resolution_reports(model: DimerModel
                       ) -> Iterator[Tuple[int, ResolutionReport, Optional[Rotation]]]:
    """(μ, check_resolution(model, μ), μ's rotation failure) for every
    perfect matching μ, as an arrow mask, in enumeration order, from one
    walk of the degree table. The rotation failure is the first (vertex i,
    degree d), 1 ≤ d ≤ saturation(μ), at which the rotation ν of μ is no
    perfect matching (False) or S(μ,i,d) ≠ S(ν,i,d−1) (True), both sides
    read from the table, whose keys are exactly the perfect matchings; None
    if there is none. One piece memo serves every matching; it lives as
    long as this iterator."""
    table = degree_table(model)
    exact: Dict[int, bool] = {}
    for mu_mask, k in table.by_mask.items():
        yield (mu_mask,) + _walk(model, mu_mask, table.rows[k], None, exact, table)


def rotate_matching(model: DimerModel, mu: Matching, i: int, d: int) -> Matching:
    """ν = (μ \\ X) ∪ Y with X the matched arrows dropping degree d → d−1
    and Y the unmatched arrows rising d−1 → d (degrees toward i); ν is a
    perfect matching with S(μ,i,d) = S(ν,i,d−1)."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    require_consistent(model)
    mu_mask = require_matching(model, mu)
    layout = _layout(model)
    row = _row(layout, mu_mask, _target(layout, i))
    turns = _row_levels(layout, mu_mask, _class_vector(model, mu_mask), row)[-1]
    nu = _matching_of(model, turns[d - 1] if d <= len(turns) else mu_mask)
    if not is_matching(model, nu.arrow_set):
        raise ValueError("rotation did not produce a perfect matching")
    return nu


# _AT_MOST[d] maps each degree to 1 if it is at most d, else to 0.
_AT_MOST = tuple(b"\1" * (d + 1) + b"\0" * (255 - d) for d in range(256))


def _at_most(row: Row, d: int) -> bytes:
    """The reachable set of degree d in the row, as one 0/1 byte per vertex."""
    if isinstance(row, bytes):
        return row.translate(_AT_MOST[min(d, 255)])
    return bytes(e <= d for e in row)
