"""Graded pieces of the matching-module projective resolution, exactness
checks, and the degree-rotation construction.

For a matching μ, grade paths by the number of μ-arrows they use. The
reachable set S(μ,i,d) collects the vertices with a path to i of degree at
most d. Each graded piece of the resolution is a four-term complex of
finite-dimensional vector spaces built from the quiver with the μ-arrows
contracted (faces merged across matched internal arrows); the resolution is
exact iff every piece is exact. Both maps of a piece are signed incidence
matrices of graphs, so a piece keeps them as incidences and their ranks
are counted by union-find. A piece depends only on its reachable set, and
many (vertex, degree) pairs share one, so `check_resolution` computes the
degrees toward each vertex once and decides exactness once per distinct
reachable set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .matchings import Matching, is_matching, require_matching
from .model import BLACK, WHITE, DimerModel
from .strands import require_consistent


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
        for (t, h), (plus, minus) in zip(self.delta1, self.delta2):
            for face, sign in ((plus, 1), (minus, -1)):
                if face is not None:
                    composite[face, t] = composite.get((face, t), 0) + sign
                    composite[face, h] = composite.get((face, h), 0) - sign
        if any(composite.values()):
            return False
        r1, r2 = _forest_size(self.delta1), _forest_size(self.delta2)
        return (r2 == len(self.c2)
                and r1 == len(self.c1) - r2
                and len(self.c0) - r1 == 1)


def _forest_size(edges: Tuple[Tuple[Optional[int], Optional[int]], ...]) -> int:
    """Rank of the signed incidence matrix whose columns (δ1's, δ2ᵀ's) are
    these edges: the size of a spanning forest, by union-find, with every
    None end the one ground node."""
    parent: Dict[Optional[int], Optional[int]] = {}

    def root(x: Optional[int]) -> Optional[int]:
        while x in parent:
            x = parent[x]
        return x

    size = 0
    for x, y in edges:
        x, y = root(x), root(y)
        if x != y:
            parent[x] = y
            size += 1
    return size


def degrees_toward(model: DimerModel, mu: Matching, i: int) -> Dict[int, int]:
    """D(j) = minimal number of μ-arrows on a directed path j → i."""
    dist: Dict[int, int] = {i: 0}
    queue = deque([i])
    while queue:
        cur = queue.popleft()
        for a in model.arrows_into(cur):
            nb, w = a.tail, 1 if a.id in mu.arrow_set else 0
            nd = dist[cur] + w
            if nb not in dist or nd < dist[nb]:
                dist[nb] = nd
                if w == 0:
                    queue.appendleft(nb)
                else:
                    queue.append(nb)
    if len(dist) != len(model.vertices):
        raise ValueError(f"not every vertex reaches {i}")
    return dist


def reachable_set(model: DimerModel, mu: Matching, i: int, d: int) -> ReachableSet:
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return ReachableSet(mu, i, d, _within(degrees_toward(model, mu, i), d))


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
    return GradedComplexPiece(tuple(r.matched_arrow for r in c2),
                              tuple(a.id for a in c1), tuple(sorted(S)),
                              tuple((plus.get(a.id), minus.get(a.id)) for a in c1),
                              tuple((a.tail if a.tail in S else None, a.head)
                                    for a in c1))


def saturation_degree(model: DimerModel, mu: Matching) -> int:
    """The largest minimal path degree over all (source, target) pairs; for
    d at or beyond it every reachable set is the whole vertex set."""
    return _degrees(model, mu)[1]


def _degrees(model: DimerModel, mu: Matching) -> Tuple[Dict[int, Dict[int, int]], int]:
    """degrees_toward(model, mu, i) for every vertex i, keyed by i, and
    the saturation degree: the largest of them."""
    degrees = {v.id: degrees_toward(model, mu, v.id) for v in model.vertices}
    return degrees, max((max(dist.values()) for dist in degrees.values()), default=0)


def _within(dist: Dict[int, int], d: int) -> FrozenSet[int]:
    """The members of a reachable set: the vertices at degree at most d."""
    return frozenset(j for j, e in dist.items() if e <= d)


@dataclass
class ResolutionReport:
    d_max: int
    pieces_checked: int
    failures: List[Tuple[int, int]]       # (vertex, degree) with inexact piece
    euler_failures: List[int]             # vertices whose degree series is off

    @property
    def passed(self) -> bool:
        return not self.failures and not self.euler_failures


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
    require_matching(model, mu)
    degrees, saturation = _degrees(model, mu)
    if d_max is None:
        d_max = saturation + 1
    elif d_max < 0:
        raise ValueError("d_max must be nonnegative")
    q1, q2 = merged_complex_data(model, mu)
    exact: Dict[FrozenSet[int], bool] = {}
    failures: List[Tuple[int, int]] = []
    euler_failures: List[int] = []
    for v in model.vertices:
        dist = degrees[v.id]
        top = max(dist.values())
        for d in range(min(d_max, top) + 1):
            S = _within(dist, d)
            if S not in exact:
                exact[S] = _piece(model, S, q1, q2).is_exact()
            if not exact[S]:
                failures.append((v.id, d))
        # From degree top on, S is every vertex: the last S walked above.
        if d_max > top and not exact[S]:
            failures.extend((v.id, d) for d in range(top + 1, d_max + 1))
        series: Dict[int, int] = {}
        for j in dist:
            series[dist[j]] = series.get(dist[j], 0) + 1
        for aid in q1:
            e = dist[model.arrow(aid).head]
            series[e] = series.get(e, 0) - 1
        for r in q2:
            e = dist[r.head]
            series[e] = series.get(e, 0) + 1
        if {e: c for e, c in series.items() if c} != {0: 1}:
            euler_failures.append(v.id)
    return ResolutionReport(d_max, len(model.vertices) * (d_max + 1), failures, euler_failures)


def rotate_matching(model: DimerModel, mu: Matching, i: int, d: int) -> Matching:
    """ν = (μ \\ X) ∪ Y with X the matched arrows dropping degree d → d−1
    and Y the unmatched arrows rising d−1 → d (degrees toward i); ν is a
    perfect matching with S(μ,i,d) = S(ν,i,d−1)."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    require_consistent(model)
    return _rotate(model, mu, degrees_toward(model, mu, i), d)


def _rotate(model: DimerModel, mu: Matching, dist: Dict[int, int], d: int) -> Matching:
    """rotate_matching, given the degrees `dist` toward the target."""
    X = {a.id for a in model.arrows if a.id in mu.arrow_set
         and dist[a.tail] == d and dist[a.head] == d - 1}
    Y = {a.id for a in model.arrows if a.id not in mu.arrow_set
         and dist[a.tail] == d - 1 and dist[a.head] == d}
    nu = (mu.arrow_set - X) | Y
    if not is_matching(model, nu):
        raise ValueError("rotation did not produce a perfect matching")
    return Matching(frozenset(nu))
