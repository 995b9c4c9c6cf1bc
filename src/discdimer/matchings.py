"""Perfect matchings, boundary values, positroids, flips, and heights.

A perfect matching picks exactly one arrow from every face cycle. Matchings
with a fixed boundary value form a distributive lattice: the partial order
is given by height functions (integrals of differences of matchings), and
its covers are flips at internal quiver vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import ge
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .kasteleyn import _minors
from .model import (BipartiteDual, DimerModel, ReadOnlyDict, bipartite_dual, per_model,
                    require_valid, type_of)
from .strands import necklaces


@dataclass(frozen=True)
class Matching:
    arrow_set: FrozenSet[int]

    def sorted_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self.arrow_set))


@dataclass(frozen=True)
class HeightFunction:
    values: Tuple[Tuple[int, int], ...]  # sorted (vertex id, value) pairs


def is_matching(model: DimerModel, arrows: Iterable[int]) -> bool:
    """Whether the ids are arrows of the model, exactly one in every face."""
    chosen = set(arrows)
    return (sum(1 for a in model.arrows if a.id in chosen) == len(chosen)
            and all(sum(1 for a in f.boundary_cycle if a in chosen) == 1 for f in model.faces))


def require_matching(model: DimerModel, mu: Matching) -> None:
    if not is_matching(model, mu.arrow_set):
        raise ValueError("arrow set is not a perfect matching")


def _cover(faces: List[Tuple[int, ...]], idx: int, chosen: Set[int], forbidden: Set[int],
           out: List[Matching]) -> None:
    """Append to `out` every way of extending `chosen` to faces[idx:].

    State is passed down, not closed over: nested closures would form a
    reference cycle holding `out`, and keep every matching alive until the
    cyclic garbage collector ran.
    """
    if idx == len(faces):
        out.append(Matching(frozenset(chosen)))
        return
    cycle = faces[idx]
    count = sum(1 for a in cycle if a in chosen)
    if count > 1:
        return
    if count == 1:
        _settle(faces, idx, chosen, forbidden, out)
        return
    for aid in cycle:
        if aid in forbidden:
            continue
        chosen.add(aid)
        _settle(faces, idx, chosen, forbidden, out)
        chosen.remove(aid)


def _settle(faces: List[Tuple[int, ...]], idx: int, chosen: Set[int], forbidden: Set[int],
            out: List[Matching]) -> None:
    # Once a face is settled, its remaining arrows may not be chosen by the
    # face on their other side, so they are forbidden in the subtree.
    newly = [a for a in faces[idx] if a not in chosen and a not in forbidden]
    forbidden.update(newly)
    _cover(faces, idx + 1, chosen, forbidden, out)
    forbidden.difference_update(newly)


Orientation = List[Tuple[int, int, bool]]  # (boundary arrow id, label, clockwise)


def _orientation(model: DimerModel) -> Orientation:
    return [(a.id, a.boundary_label, model.is_clockwise(a.id)) for a in model.boundary_arrows]


def _boundary_of(orientation: Orientation, mu: Matching) -> FrozenSet[int]:
    chosen = mu.arrow_set
    return frozenset(label for aid, label, clockwise in orientation
                     if (aid in chosen) == clockwise)


def _search(model: DimerModel, chosen: Set[int], forbidden: Set[int]) -> Tuple[Matching, ...]:
    """Every perfect matching that contains `chosen` and avoids `forbidden`,
    by exact-cover backtracking over the faces in increasing id; within a
    face, candidate arrows in boundary-cycle order, so the order is
    canonical. Fixing arrows only prunes the search, so the result is the
    unconstrained one with the other matchings left out, in the same order."""
    require_valid(model)
    faces = [f.boundary_cycle for f in sorted(model.faces, key=lambda f: f.id)]
    found: List[Matching] = []
    _cover(faces, 0, chosen, forbidden, found)
    return tuple(found)


@per_model
def _enumeration(model: DimerModel) -> Tuple[Tuple[Matching, ...],
                                             ReadOnlyDict[FrozenSet[int], Tuple[Matching, ...]]]:
    """Every perfect matching in canonical order, and the same matchings
    grouped by boundary value (in that order within each group): one pass
    for the callers that need every matching or every boundary value. A
    caller with one boundary value searches only its own matchings
    (`matchings_with_boundary`). Both results are immutable, so every
    caller on the model shares them."""
    found = _search(model, set(), set())
    orientation = _orientation(model)
    groups: Dict[FrozenSet[int], List[Matching]] = {}
    for mu in found:
        groups.setdefault(_boundary_of(orientation, mu), []).append(mu)
    return found, ReadOnlyDict({I: tuple(pool) for I, pool in groups.items()})


def enumerate_matchings(model: DimerModel) -> Tuple[Matching, ...]:
    """All perfect matchings, in canonical order (see `_search`)."""
    return _enumeration(model)[0]


def matchings_by_boundary(model: DimerModel) -> ReadOnlyDict[FrozenSet[int], Tuple[Matching, ...]]:
    """Every boundary value mapped to its matchings in canonical order, from
    one enumeration per model: for loops over all boundary values."""
    return _enumeration(model)[1]


def boundary_value(model: DimerModel, mu: Matching) -> FrozenSet[int]:
    """∂μ: label i is included iff boundary arrow i is clockwise (lies in a
    white face) and in μ, or anticlockwise and not in μ."""
    return _boundary_of(_orientation(model), mu)


def _require_subset(I: FrozenSet[int], k: int, n: int) -> None:
    # A label is an int: a float or a bool may equal one, but is not one.
    if len(I) != k or not all(type(i) is int and 1 <= i <= n for i in I):
        got = sorted(I) if all(type(i) is int for i in I) else sorted(I, key=repr)
        raise ValueError(f"expected a {k}-subset of 1..{n}, got {got}")


def matchings_with_boundary(model: DimerModel, I: Iterable[int]) -> Tuple[Matching, ...]:
    """The matchings with ∂μ = I in canonical order; () when I is not in
    the positroid. I fixes every boundary arrow (arrow i is in μ exactly
    when (i ∈ I) equals its being clockwise), so the search starts from
    those arrows and meets no matching with another boundary value."""
    I = frozenset(I)
    _require_subset(I, *type_of(model))
    chosen: Set[int] = set()
    forbidden: Set[int] = set()
    for aid, label, clockwise in _orientation(model):
        (chosen if (label in I) == clockwise else forbidden).add(aid)
    return _search(model, chosen, forbidden)


@per_model
def positroid(model: DimerModel) -> FrozenSet[FrozenSet[int]]:
    """All boundary values of perfect matchings: the I whose Kasteleyn
    minor is nonzero at unit weights (see `kasteleyn`); no matching is
    enumerated."""
    minors = _minors(model, {a.id: 1 for a in model.arrows})[2]
    subsets = combinations(range(1, model.n + 1), type_of(model)[0])
    return frozenset(frozenset(I) for I, minor in zip(subsets, minors) if minor)


@per_model
def _necklace_bounds(model: DimerModel) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The source necklace as count bounds: with the labels listed from m+1
    (mod n), J ≤ I_m in that Gale order iff, for the r-th element e of I_m,
    at least r labels of J come no later than e. Returns the masks of those
    labels and the bounds r over all m, but for bounds every k-subset meets."""
    k, n = type_of(model)
    source_necklace, _ = necklaces(model)
    masks, needs = [], []
    for m in range(1, n + 1):
        order = [x % n + 1 for x in range(m, m + n)]
        ends = [i for i, label in enumerate(order, 1) if label in source_necklace[m]]
        for r, i in enumerate(ends, 1):
            if k - n + i < r:  # else no k-subset has n − i labels after e
                masks.append(sum(1 << x for x in order[:i]))
                needs.append(r)
    return tuple(masks), tuple(needs)


def positroid_contains_necklace_test(model: DimerModel, J: Iterable[int]) -> bool:
    """Membership of J in the positroid via the source necklace: J must
    dominate every necklace entry in the corresponding cyclically shifted
    Gale order. The source-necklace entry I_m at boundary position m is the
    Gale maximum of the positroid for the shift starting at m+1 (so the
    domination runs in the order reversed against that shift): J belongs to
    the positroid iff J ≤ I_m in the (m+1)-shifted order for all m: the
    r-th element of J comes no later than the r-th element of I_m, that is,
    at least r labels of J come no later than it (`_necklace_bounds`)."""
    J = frozenset(J)
    k, n = type_of(model)
    _require_subset(J, k, n)
    j = sum(1 << x for x in J)
    masks, needs = _necklace_bounds(model)
    return all(map(ge, map(int.bit_count, map(j.__and__, masks)), needs))


def flip(model: DimerModel, mu: Matching, j: int) -> Optional[Matching]:
    """Flip μ at the internal quiver vertex j: μ ± d(𝟙_j) when 0/1-valued.

    Adding d(𝟙_j) is valid when every arrow out of j is absent from μ and
    every arrow into j is present; subtracting is the converse. Returns None
    when neither direction applies.
    """
    vertex = model.vertex(j)
    if vertex.is_boundary:
        raise ValueError(f"vertex {j} is on the boundary; flips need internal vertices")
    outgoing = [a.id for a in model.arrows if a.tail == j]
    incoming = [a.id for a in model.arrows if a.head == j]
    in_mu = mu.arrow_set
    if all(a in in_mu for a in incoming) and all(a not in in_mu for a in outgoing):
        return Matching((in_mu - set(incoming)) | set(outgoing))
    if all(a not in in_mu for a in incoming) and all(a in in_mu for a in outgoing):
        return Matching((in_mu - set(outgoing)) | set(incoming))
    return None


@per_model
def _height_walk(model: DimerModel) -> Tuple[Tuple[Tuple[int, int, int, int], ...],
                                             Tuple[Tuple[int, int, int], ...]]:
    """A spanning tree of the quiver from its first boundary vertex, as
    (vertex, parent, arrow bit, sign) steps in walk order, the sign +1 when
    the arrow points to the vertex; and every arrow off the tree as (tail,
    head, arrow bit). Vertices are positions and arrow bits 1 << index,
    both in model order."""
    position = {v.id: p for p, v in enumerate(model.vertices)}
    adj: List[List[Tuple[int, int, int]]] = [[] for _ in position]
    for k, a in enumerate(model.arrows):
        adj[position[a.tail]].append((position[a.head], 1 << k, 1))
        adj[position[a.head]].append((position[a.tail], 1 << k, -1))
    root = next(p for p, v in enumerate(model.vertices) if v.is_boundary)
    seen, stack, tree, on_tree = {root}, [root], [], 0
    while stack:
        cur = stack.pop()
        for nb, bit, sign in adj[cur]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
                tree.append((nb, cur, bit, sign))
                on_tree |= bit
    off = tuple((position[a.tail], position[a.head], 1 << k)
                for k, a in enumerate(model.arrows) if not on_tree >> k & 1)
    return tuple(tree), off


def _heights(model: DimerModel, mu_mask: int, ref_mask: int) -> List[int]:
    """The h with h(head) − h(tail) = 𝟙[γ ∈ μ_ref] − 𝟙[γ ∈ μ] on every arrow
    γ and 0 at the first boundary vertex, per vertex position, for μ and
    μ_ref as arrow masks (bit 1 << index in model order). The difference
    sums to 0 around every face, so on a disc it is a coboundary for any
    two matchings: integrated along the tree, it is checked on the arrows
    off it."""
    tree, off = _height_walk(model)
    h = [0] * len(model.vertices)
    for v, parent, bit, sign in tree:
        h[v] = h[parent] + sign * (bool(ref_mask & bit) - bool(mu_mask & bit))
    if any(h[head] - h[tail] != bool(ref_mask & bit) - bool(mu_mask & bit)
           for tail, head, bit in off):
        raise ValueError("matching difference is not a coboundary")
    return h


def _height(model: DimerModel, mu: Matching, mu_ref: Matching) -> Dict[int, int]:
    """`_heights` of two matchings, by vertex id."""
    mu_mask, ref_mask = (sum(1 << k for k, a in enumerate(model.arrows) if a.id in m.arrow_set)
                         for m in (mu, mu_ref))
    return {v.id: e for v, e in zip(model.vertices, _heights(model, mu_mask, ref_mask))}


def height(model: DimerModel, mu: Matching, mu_ref: Matching) -> HeightFunction:
    """The unique h with h(head) − h(tail) = 𝟙[γ ∈ μ_ref] − 𝟙[γ ∈ μ] that
    vanishes on boundary vertices: `_height`, since ∂μ = ∂μ_ref makes dh 0
    on the boundary arrows."""
    if boundary_value(model, mu) != boundary_value(model, mu_ref):
        raise ValueError("matchings have different boundary values")
    return HeightFunction(tuple(sorted(_height(model, mu, mu_ref).items())))


def _extreme(model: DimerModel, current: Matching, up: bool) -> Matching:
    """Apply flips that raise (up) or lower heights until none applies. A
    flip at j moves h(j) alone, up iff the arrows into j are matched."""
    into = {a.head: a.id for a in model.arrows}  # one arrow into each vertex
    internal = [v.id for v in model.vertices if not v.is_boundary]
    moved = True
    while moved:
        moved = False
        for j in internal:
            candidate = flip(model, current, j)
            if candidate is not None and (into[j] in current.arrow_set) == up:
                current = candidate
                moved = True
    return current


def extreme_matchings(model: DimerModel, I: Iterable[int]) -> Tuple[Matching, Matching]:
    """The unique flip-minimal and flip-maximal matchings with boundary I,
    in the order (minimal, maximal) where μ ≤ μ′ iff height(μ′, μ) ≥ 0."""
    pool = matchings_with_boundary(model, I)
    if not pool:
        raise ValueError(f"{sorted(set(I))} is not in the positroid")
    return _extreme(model, pool[0], False), _extreme(model, pool[0], True)


def support_subgraph(model: DimerModel, I: Iterable[int]) -> BipartiteDual:
    """Γ_M: the fragment of the bipartite dual on edges and nodes incident
    with tiles where height(minimal, maximal) is nonzero. Matchings of this
    fragment (every node covered exactly once by edges or half-edges)
    biject with matchings_with_boundary(model, I) via intersection."""
    minimal, maximal = extreme_matchings(model, I)
    support = {v for v, val in height(model, maximal, minimal).values if val != 0}
    dual = bipartite_dual(model)
    cycle_tiles: Dict[int, Set[int]] = {}
    for f in model.faces:
        tiles: Set[int] = set()
        for aid in f.boundary_cycle:
            a = model.arrow(aid)
            tiles.update((a.tail, a.head))
        cycle_tiles[f.id] = tiles
    def incident(aid: int) -> bool:
        a = model.arrow(aid)
        return bool({a.tail, a.head} & support)

    nodes = tuple(nd for nd in dual.nodes if cycle_tiles[nd.face_id] & support)
    edges = tuple(e for e in dual.edges if incident(e.arrow_id))
    half_edges = tuple(he for he in dual.half_edges if incident(he.arrow_id))
    return BipartiteDual(nodes=nodes, edges=edges, half_edges=half_edges,
                         tiles=dual.tiles)
