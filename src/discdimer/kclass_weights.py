"""Downstream wedges, the distinguished matchings they define, K-theory
classes of matchings, and the weight tables used by the partition-function
formulas.

Every arrow of a consistent model is crossed by exactly two strands. The
two strand tails leaving the crossing (the "tendrils") together with a
boundary interval cut the disc into two parts; the part on the head side of
the arrow is its downstream wedge. Collecting, for a fixed tile j, all
arrows whose wedge contains j yields a perfect matching 𝔪_j — the same
matching that η^{-1} assigns to the projective class p_j, and the same one
found by minimal path degrees. The module computes all three and the
associated weights.

wt(μ) and wtD are linear in the arrow mask of μ: inside the library, dense
vectors in vertex position (`_weight_columns`); `weights` builds `KClass`es.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .lattice_maps import Columns, KClass, _class_vector, _kclass, _linear
from .matchings import Matching, _search, is_matching, require_matching
from .model import (BLACK, WHITE, DimerModel, ReadOnlyDict, _arrow_bits, _arrow_mask,
                    _layout, _require_colour, _tiles_reached, _vertex_positions, is_standardised,
                    opposite, per_model)
from .resolution import _row, _target
from .strands import require_consistent


@dataclass(frozen=True)
class Wedge:
    arrow_id: int
    members: FrozenSet[int]


def downstream_wedge(model: DimerModel, aid: int) -> Wedge:
    """Tiles inside the region bounded by the two downstream tendrils at the
    arrow's crossing, on the head side: cut the tile adjacency graph along
    the arrow and every arrow either tendril crosses, then flood fill from
    the head tile."""
    all_strands = require_consistent(model)
    try:
        head = model.arrow(aid).head
    except KeyError:
        raise ValueError(f"unknown arrow {aid}") from None
    cut = {aid}
    for strand in all_strands:
        if aid in strand.arrows:  # a tendril leaves the crossing here
            cut.update(strand.arrows[strand.arrows.index(aid) + 1:])
    layout = _layout(model)
    reached = _tiles_reached(model, layout.bit[layout.position[head]], _arrow_mask(model, cut))
    return Wedge(aid, frozenset(v for v, bit in zip(layout.vertices, layout.bit) if reached & bit))


@per_model
def _wedge_matchings(model: DimerModel) -> ReadOnlyDict[int, FrozenSet[int]]:
    """Tile j -> the arrows whose downstream wedge contains j, from one
    wedge per arrow."""
    members: Dict[int, List[int]] = {v.id: [] for v in model.vertices}
    for a in model.arrows:
        for j in downstream_wedge(model, a.id).members:
            members[j].append(a.id)
    return ReadOnlyDict({j: frozenset(aids) for j, aids in members.items()})


def muller_speyer_matching(model: DimerModel, j: int) -> Matching:
    """𝔪_j = {α : j lies in the downstream wedge of α}."""
    arrows = _wedge_matchings(model).get(j, frozenset())
    if not is_matching(model, arrows):
        raise ValueError(f"wedge membership at vertex {j} did not produce a "
                         "perfect matching; the model is not consistent")
    return Matching(arrows)


def upstream_matching(model: DimerModel, j: int) -> Matching:
    """𝔪_j^∨: the wedge matching with all strands reversed, computed on the
    opposite model (arrow ids are shared between the two)."""
    return muller_speyer_matching(opposite(model), j)


@per_model
def _first_matching(model: DimerModel) -> int:
    """The first perfect matching in canonical order, as an arrow mask: a
    search that stops there, with no other matching enumerated."""
    return _search(model, 0, 0, first=True)[0]


def projective_matching_oracle(model: DimerModel, j: int,
                               mu0: Optional[Matching] = None) -> Matching:
    """The matching singled out by minimal path degrees from vertex j: the
    arrows along which the degree drop D(tα) + deg_{μ0}(α) − D(hα) is 1.
    The result does not depend on the reference matching μ0, by default
    the first one in canonical order (a consistent model has the 𝔪_j)."""
    require_consistent(model)
    mu0_mask = _first_matching(model) if mu0 is None else require_matching(model, mu0)
    # A path j → i in Q is a path i → j in Q^op, which keeps the arrows in order.
    layout = _layout(opposite(model))
    dist = dict(zip(layout.vertices, _row(layout, mu0_mask, _target(layout, j))))
    arrows = frozenset(a.id for a, bit in zip(model.arrows, _arrow_bits(model).values())
                       if dist[a.tail] + bool(mu0_mask & bit) - dist[a.head] == 1)
    if not is_matching(model, arrows):
        raise ValueError(f"minimal path degrees at vertex {j} did not produce "
                         "a perfect matching")
    return Matching(arrows)


def kclass_of_matching(model: DimerModel, mu: Matching) -> KClass:
    """[N_μ] = η(μ) = Σ_j p_j − Σ_{γ∉μ} p_{hγ} + Σ_{γ∈μ internal} p_{tγ}."""
    return _kclass(model, _class_vector(model, require_matching(model, mu)))


def weight_table(model: DimerModel, color: str) -> Dict[int, KClass]:
    """wtMS per internal arrow γ: for the white convention, the sum of p_j
    over the truncated black cycle bl′₀(γ), the tails of its face cycle
    without γ's own tail and head; for the black convention, over the
    truncated white cycle."""
    _require_colour(color)
    cycle_color = BLACK if color == WHITE else WHITE
    out = {}
    for a in model.internal_arrows:
        face = model.face_of_color(a.id, cycle_color)
        if face is None:
            raise ValueError(f"arrow {a.id} has no {cycle_color} face")
        tails = {model.arrow(b).tail for b in face.boundary_cycle} - {a.tail, a.head}
        out[a.id] = KClass(tuple(sorted((v, 1) for v in tails)))
    return out


def weights(model: DimerModel, mu: Matching, color: str = WHITE
            ) -> Tuple[KClass, KClass]:
    """(wt(μ), wtD) in the given standardisation convention, their nonzero
    coefficients.

    wt(μ) = Σ over internal arrows of wt_μ(γ), where wt_μ(γ) = −p_{tγ} if
    γ ∈ μ and p_{hγ} otherwise; wtD = Σ over internal vertices of p_j.
    Requires the model to be standardised with boundary faces of the given
    colour, so that the identity
    [N_μ] = wtD + Σ_{i∈∂μ} p_{h α_i} − wt(μ) holds.
    """
    if not is_standardised(model, color):
        raise ValueError(f"model is not standardised with {color} boundary faces")
    base, columns, wtd = _weight_columns(model)
    ids = [v.id for v in model.vertices]
    return tuple(KClass(tuple(sorted((v, e) for v, e in zip(ids, vec) if e)))
                 for vec in (_linear(base, columns, require_matching(model, mu)), wtd))


@per_model
def _weight_columns(model: DimerModel) -> Tuple[Tuple[int, ...], Columns, Tuple[int, ...]]:
    """`weights` as a linear map of the arrow mask, dense in vertex position
    (model order): wt(μ) = base + Σ_{γ∈μ} column(γ) (`lattice_maps._linear`),
    with base = Σ_{γ internal} p_{hγ} and column(γ) = −p_{tγ} − p_{hγ} for
    internal γ, no entry for boundary γ; and wtD."""
    pos = _vertex_positions(model)
    base = [0] * len(pos)
    for a in model.internal_arrows:
        base[pos[a.head]] += 1
    return (tuple(base), tuple(() if a.is_boundary else ((pos[a.tail], -1), (pos[a.head], -1))
                               for a in model.arrows),
            tuple(int(not v.is_boundary) for v in model.vertices))
