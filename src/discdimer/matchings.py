"""Perfect matchings, boundary values, positroids, flips, and heights.

A perfect matching picks exactly one arrow from every face cycle. Matchings
with a fixed boundary value form a distributive lattice: the partial order
is given by height functions (integrals of differences of matchings), and
its covers are flips at internal quiver vertices.

Inside the library a matching is an arrow mask: bit k is `model.arrows[k]`
(`model._arrow_bits`, the one bit order of the graph index in `model`,
whose masks flips read). A `Matching` of arrow ids lives at the public
edge only: the CLI, the public functions and the verify witnesses.
`require_matching` checks one and gives its mask; `_matching_of` goes back.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import ge
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .kasteleyn import _minors
from .model import (BipartiteDual, DimerModel, ReadOnlyDict, _arrow_bits, _arrow_mask, _layout,
                    _vertex_positions, bipartite_dual, per_model, require_valid, type_of)
from .strands import necklaces


@dataclass(frozen=True)
class Matching:
    arrow_set: FrozenSet[int]

    def sorted_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self.arrow_set))


@dataclass(frozen=True)
class HeightFunction:
    values: Tuple[Tuple[int, int], ...]  # sorted (vertex id, value) pairs


def _mask_of(model: DimerModel, mu: Matching) -> int:
    """μ as an arrow mask; μ is not checked."""
    return _arrow_mask(model, mu.arrow_set)


def _matching_of(model: DimerModel, mu_mask: int) -> Matching:
    """The arrow mask as a `Matching`."""
    return Matching(frozenset(aid for aid, bit in _arrow_bits(model).items() if mu_mask & bit))


def is_matching(model: DimerModel, arrows: Iterable[int]) -> bool:
    """Whether the ids are arrows of the model, exactly one in every face."""
    chosen = set(arrows)
    return (sum(1 for a in model.arrows if a.id in chosen) == len(chosen)
            and all(sum(1 for a in f.boundary_cycle if a in chosen) == 1 for f in model.faces))


def require_matching(model: DimerModel, mu: Matching) -> int:
    """μ as an arrow mask, once checked to be a perfect matching of the model."""
    if not is_matching(model, mu.arrow_set):
        raise ValueError("arrow set is not a perfect matching")
    return _mask_of(model, mu)


def _cover(faces: List[Tuple[int, Tuple[int, ...]]], idx: int, chosen: int, forbidden: int,
           out: List[int], first: bool) -> bool:
    """Append to `out` every way of extending the arrow mask `chosen` to
    faces[idx:], each a cycle's mask and its bits in cycle order, without
    the arrows of `forbidden`; or, if `first`, only the first way, and
    return True once it is found. Once a face is settled, its other arrows
    may not be chosen by the face on their other side, so they are
    forbidden.

    State is passed down, not closed over: nested closures would form a
    reference cycle holding `out`, and keep every matching alive until the
    cyclic garbage collector ran.
    """
    if idx == len(faces):
        out.append(chosen)
        return first
    cycle, bits = faces[idx]
    hit = chosen & cycle
    if hit:  # settled only if exactly one arrow of the face is chosen
        return not hit & (hit - 1) and _cover(faces, idx + 1, chosen, forbidden | cycle ^ hit,
                                              out, first)
    for bit in bits:
        if not forbidden & bit and _cover(faces, idx + 1, chosen | bit, forbidden | cycle ^ bit,
                                          out, first):
            return True
    return False


@per_model
def _orientation(model: DimerModel) -> Tuple[Tuple[int, int, bool], ...]:
    """(arrow bit, label, clockwise) per boundary arrow."""
    bits = _arrow_bits(model)
    return tuple((bits[a.id], a.boundary_label, model.is_clockwise(a.id))
                 for a in model.boundary_arrows)


def _boundary_of(orientation: Tuple[Tuple[int, int, bool], ...], mu_mask: int) -> FrozenSet[int]:
    return frozenset(label for bit, label, clockwise in orientation
                     if bool(mu_mask & bit) == clockwise)


def _search(model: DimerModel, chosen: int, forbidden: int, first: bool = False
            ) -> Tuple[int, ...]:
    """Every perfect matching holding the arrows of the mask `chosen` and
    none of `forbidden`, by exact-cover backtracking over the faces in
    increasing id; within a face, candidate arrows in boundary-cycle order,
    so the order is canonical. Fixing arrows only prunes the search, so
    the result is the unconstrained one with the other matchings left out,
    in the same order. With `first`, the search stops at the first one."""
    require_valid(model)
    bits = _arrow_bits(model)
    faces = [(sum(bits[a] for a in f.boundary_cycle), tuple(bits[a] for a in f.boundary_cycle))
             for f in sorted(model.faces, key=lambda f: f.id)]
    found: List[int] = []
    _cover(faces, 0, chosen, forbidden, found, first)
    return tuple(found)


@per_model
def _enumeration(model: DimerModel) -> Tuple[Tuple[int, ...],
                                             ReadOnlyDict[FrozenSet[int], Tuple[int, ...]]]:
    """Every perfect matching in canonical order, and the same matchings
    grouped by boundary value (in that order within each group): one pass
    for the callers that need every matching or every boundary value. A
    caller with one boundary value searches only its own matchings
    (`_boundary_search`). Both results are immutable, so every caller on
    the model shares them."""
    found = _search(model, 0, 0)
    orientation = _orientation(model)
    groups: Dict[FrozenSet[int], List[int]] = {}
    for mu_mask in found:
        groups.setdefault(_boundary_of(orientation, mu_mask), []).append(mu_mask)
    return found, ReadOnlyDict({I: tuple(pool) for I, pool in groups.items()})


@per_model
def enumerate_matchings(model: DimerModel) -> Tuple[Matching, ...]:
    """All perfect matchings, in canonical order (see `_search`)."""
    return tuple(_matching_of(model, mu_mask) for mu_mask in _enumeration(model)[0])


def boundary_value(model: DimerModel, mu: Matching) -> FrozenSet[int]:
    """∂μ: label i is included iff boundary arrow i is clockwise (lies in a
    white face) and in μ, or anticlockwise and not in μ."""
    return _boundary_of(_orientation(model), require_matching(model, mu))


def _require_subset(I: FrozenSet[int], k: int, n: int) -> None:
    # A label is an int: a float or a bool may equal one, but is not one.
    if len(I) != k or not all(type(i) is int and 1 <= i <= n for i in I):
        got = sorted(I) if all(type(i) is int for i in I) else sorted(I, key=repr)
        raise ValueError(f"expected a {k}-subset of 1..{n}, got {got}")


def _boundary_search(model: DimerModel, I: Iterable[int], first: bool = False
                     ) -> Tuple[int, ...]:
    """The matchings with ∂μ = I in canonical order, or with `first` only
    the first of them; () when I is not in the positroid. I fixes every
    boundary arrow (arrow i is in μ exactly when (i ∈ I) equals its being
    clockwise), so the search starts from those arrows and meets no
    matching with another boundary value."""
    I = frozenset(I)
    _require_subset(I, *type_of(model))
    orientation = _orientation(model)
    chosen = sum(bit for bit, label, clockwise in orientation if (label in I) == clockwise)
    return _search(model, chosen, sum(bit for bit, _, _ in orientation) ^ chosen, first)


def matchings_with_boundary(model: DimerModel, I: Iterable[int]) -> Tuple[Matching, ...]:
    """The matchings with ∂μ = I in canonical order (`_boundary_search`)."""
    return tuple(_matching_of(model, mu_mask) for mu_mask in _boundary_search(model, I))


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
    every arrow into j is present; subtracting is the converse. Either way
    the flip toggles the arrows at j. Returns None when neither applies.
    """
    if j not in {v.id for v in model.vertices if not v.is_boundary}:
        raise ValueError(f"vertex {j} is not an internal vertex; flips need one")
    mu_mask = require_matching(model, mu)
    layout = _layout(model)
    into, out = layout.into_mask[layout.position[j]], layout.out_mask[layout.position[j]]
    if mu_mask & (into | out) not in (into, out):
        return None
    return _matching_of(model, mu_mask ^ into ^ out)


@per_model
def _height_walk(model: DimerModel) -> Tuple[Tuple[Tuple[int, int, int, int], ...],
                                             Tuple[Tuple[int, int, int], ...]]:
    """A spanning tree of the quiver from its first boundary vertex, as
    (vertex, parent, arrow bit, sign) steps in walk order, the sign +1 when
    the arrow points to the vertex; and every arrow off the tree as (tail,
    head, arrow bit). Vertices are positions in model order."""
    bits = _arrow_bits(model)
    position = _vertex_positions(model)
    adj: List[List[Tuple[int, int, int]]] = [[] for _ in position]
    for a in model.arrows:
        adj[position[a.tail]].append((position[a.head], bits[a.id], 1))
        adj[position[a.head]].append((position[a.tail], bits[a.id], -1))
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
    off = tuple((position[a.tail], position[a.head], bits[a.id])
                for a in model.arrows if not on_tree & bits[a.id])
    return tuple(tree), off


def _heights(model: DimerModel, mu_mask: int, ref_mask: int) -> List[int]:
    """The h with h(head) − h(tail) = 𝟙[γ ∈ μ_ref] − 𝟙[γ ∈ μ] on every arrow
    γ and 0 at the first boundary vertex, per vertex position, for μ and
    μ_ref as arrow masks. The difference sums to 0 around every face, so on
    a disc it is a coboundary for any two matchings: integrated along the
    tree, it is checked on the arrows off it."""
    tree, off = _height_walk(model)
    h = [0] * len(model.vertices)
    for v, parent, bit, sign in tree:
        h[v] = h[parent] + sign * (bool(ref_mask & bit) - bool(mu_mask & bit))
    if any(h[head] - h[tail] != bool(ref_mask & bit) - bool(mu_mask & bit)
           for tail, head, bit in off):
        raise ValueError("matching difference is not a coboundary")
    return h


def _height(model: DimerModel, mu_mask: int, ref_mask: int) -> Dict[int, int]:
    """`_heights` of two arrow masks, by vertex id."""
    return {v.id: e for v, e in zip(model.vertices, _heights(model, mu_mask, ref_mask))}


def height(model: DimerModel, mu: Matching, mu_ref: Matching) -> HeightFunction:
    """The unique h with h(head) − h(tail) = 𝟙[γ ∈ μ_ref] − 𝟙[γ ∈ μ] that
    vanishes on boundary vertices: `_height`, since ∂μ = ∂μ_ref makes dh 0
    on the boundary arrows."""
    if boundary_value(model, mu) != boundary_value(model, mu_ref):  # checks both
        raise ValueError("matchings have different boundary values")
    h = _height(model, _mask_of(model, mu), _mask_of(model, mu_ref))
    return HeightFunction(tuple(sorted(h.items())))


def _extreme(model: DimerModel, current: int, up: bool) -> int:
    """Apply flips that raise (up) or lower heights until none applies. A
    flip at j moves h(j) alone, up iff the arrows into j are matched."""
    layout = _layout(model)
    internal = [(into | out, into if up else out)
                for v, into, out in zip(model.vertices, layout.into_mask, layout.out_mask)
                if not v.is_boundary]
    moved = True
    while moved:
        moved = False
        for at, held in internal:
            if current & at == held:
                current ^= at
                moved = True
    return current


def extreme_matchings(model: DimerModel, I: Iterable[int]) -> Tuple[Matching, Matching]:
    """The unique flip-minimal and flip-maximal matchings with boundary I,
    in the order (minimal, maximal) where μ ≤ μ′ iff height(μ′, μ) ≥ 0."""
    pool = _boundary_search(model, I, first=True)  # any start reaches both extremes
    if not pool:
        raise ValueError(f"{sorted(set(I))} is not in the positroid")
    return (_matching_of(model, _extreme(model, pool[0], False)),
            _matching_of(model, _extreme(model, pool[0], True)))


def support_subgraph(model: DimerModel, I: Iterable[int]) -> BipartiteDual:
    """Γ_M: the fragment of the bipartite dual on edges and nodes incident
    with tiles where height(minimal, maximal) is nonzero. Matchings of this
    fragment (every node covered exactly once by edges or half-edges)
    biject with matchings_with_boundary(model, I) via intersection."""
    minimal, maximal = extreme_matchings(model, I)
    support = {v for v, val in height(model, maximal, minimal).values if val != 0}
    dual = bipartite_dual(model)

    def incident(aid: int) -> bool:
        a = model.arrow(aid)
        return bool({a.tail, a.head} & support)

    nodes = tuple(nd for nd in dual.nodes
                  if any(map(incident, model.face(nd.face_id).boundary_cycle)))
    edges = tuple(e for e in dual.edges if incident(e.arrow_id))
    half_edges = tuple(he for he in dual.half_edges if incident(he.arrow_id))
    return BipartiteDual(nodes=nodes, edges=edges, half_edges=half_edges,
                         tiles=dual.tiles)
