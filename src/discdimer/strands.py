"""Zig-zag strands, consistency axioms, strand permutation, and labels.

A strand is tracked by the sequence of arrows it crosses. From a crossing of
an arrow with pending turn colour c, the next crossed arrow is the cyclic
successor of the current arrow in its face of colour c, and the turn colour
alternates. A strand starts at a marked point by crossing that boundary
arrow (first turn colour: the colour of the arrow's unique face) and ends on
the boundary arrow whose pending-colour face is missing. The successors come
from one table per model, colour -> arrow -> the next arrow in its face of
that colour, built from the face cycles on first use.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .model import (BLACK, WHITE, DimerModel, ReadOnlyDict, _arrow_mask, _corners,
                    _tiles_reached, _vertex_positions, per_model, require_valid, type_of)


@dataclass(frozen=True)
class Strand:
    start_label: int
    end_label: int
    arrows: Tuple[int, ...]  # the arrows crossed, in order


@dataclass(frozen=True)
class ConsistencyReport:
    closed_loop_arrows: Tuple[int, ...]
    b1_witness: Optional[Tuple[int, int]]  # first (start label, arrow id) crossed twice
    b2_witness: Optional[Tuple[int, int, int, int]]  # first (s, t, arrow, arrow) out of order

    @property
    def b1_pass(self) -> bool:
        return self.b1_witness is None

    @property
    def b2_pass(self) -> bool:
        return self.b2_witness is None

    @property
    def passed(self) -> bool:
        return self.b1_pass and self.b2_pass and not self.closed_loop_arrows


@dataclass(frozen=True)
class LabelTable:
    k: int
    n: int
    source: ReadOnlyDict[int, FrozenSet[int]]  # vertex id -> source label
    target: ReadOnlyDict[int, FrozenSet[int]]  # vertex id -> target label


@per_model
def _turns(model: DimerModel) -> ReadOnlyDict[str, ReadOnlyDict[int, int]]:
    """colour -> arrow -> the arrow after it in its face of that colour."""
    turns: Dict[str, Dict[int, int]] = {BLACK: {}, WHITE: {}}
    for f in model.faces:
        cyc = f.boundary_cycle
        turns[f.color].update(zip(cyc, cyc[1:] + cyc[:1]))
    return ReadOnlyDict({color: ReadOnlyDict(t) for color, t in turns.items()})


def _trace(model: DimerModel, start_label: int) -> Strand:
    start = model.boundary_arrow_with_label(start_label)
    color = model.face(model.faces_of_arrow(start.id)[0]).color
    other = WHITE if color == BLACK else BLACK
    turns = _turns(model)
    seq: List[int] = []
    cur = start.id
    for _ in range(2 * len(model.arrows) + 2):
        seq.append(cur)
        nxt = turns[color].get(cur)
        if nxt is None:
            break
        cur, color, other = nxt, other, color
    else:
        raise ValueError("strand fails to terminate; model is malformed")
    end = model.arrow(cur)
    if not end.is_boundary:
        raise ValueError(f"strand from label {start_label} ends on internal arrow {cur}; "
                         "model is malformed")
    return Strand(start_label, end.boundary_label, tuple(seq))


@per_model
def strands(model: DimerModel) -> Tuple[Strand, ...]:
    require_valid(model)
    return tuple(_trace(model, label) for label in range(1, model.n + 1))


def strand_permutation(model: DimerModel) -> Dict[int, int]:
    return {s.start_label: s.end_label for s in strands(model)}


@per_model
def check_postnikov(model: DimerModel) -> ConsistencyReport:
    all_strands = strands(model)

    # (b1): no strand crosses the same arrow twice.
    b1_witness = None
    for s in all_strands:
        seen: Set[int] = set()
        for aid in s.arrows:
            if aid in seen and b1_witness is None:
                b1_witness = (s.start_label, aid)
            seen.add(aid)

    # Closed zig-zag loops exist iff some arrow is crossed fewer than twice
    # by the boundary-to-boundary strands.
    passages = Counter(aid for s in all_strands for aid in s.arrows)
    closed_loop_arrows = tuple(sorted(a.id for a in model.arrows if passages[a.id] < 2))

    # (b2): along any two strands, the interior arrows they both cross must
    # appear in exactly opposite orders. Checking consecutive common pairs
    # suffices: any order violation contains an adjacent one.
    interior = {a.id for a in model.internal_arrows}
    b2_witness = None
    for i, s in enumerate(all_strands):
        s_common_pos = {aid: p for p, aid in enumerate(s.arrows) if aid in interior}
        for t in all_strands[i + 1:]:
            common = [aid for aid in t.arrows if aid in s_common_pos]
            for a1, a2 in zip(common, common[1:]):
                if s_common_pos[a1] < s_common_pos[a2] and b2_witness is None:
                    b2_witness = (s.start_label, t.start_label, a1, a2)
    return ConsistencyReport(closed_loop_arrows, b1_witness, b2_witness)


def require_consistent(model: DimerModel) -> Tuple[Strand, ...]:
    require_valid(model)
    report = check_postnikov(model)
    if not report.passed:
        raise ValueError("model is not consistent: "
                         f"b1={report.b1_pass}, b2={report.b2_pass}, "
                         f"closed loops on {report.closed_loop_arrows}")
    return strands(model)


def boundary_tile(model: DimerModel, m: int) -> int:
    """The boundary quiver vertex between marked points m and m+1 (mod n),
    i.e. the vertex shared by the boundary arrows labelled m and m+1, read
    from the model's corner table (`model._corners`)."""
    tile = _corners(model).get(m)
    if tile is None:
        raise ValueError(f"boundary arrows {m} and {m % model.n + 1} do not share "
                         "exactly one vertex")
    return tile


def _left_region(model: DimerModel, strand: Strand) -> int:
    """Tiles on the left of the strand, as a vertex mask: cut the tile
    adjacency graph along every arrow the strand crosses, then flood fill
    from the boundary tiles in the cyclic label interval [start, end-1]."""
    n = model.n
    i, j = strand.start_label, strand.end_label
    if i == j:
        raise ValueError(f"strand {i} is a lollipop; not supported")
    position = _vertex_positions(model)
    seeds = sum(1 << position[boundary_tile(model, (i + r - 1) % n + 1)]
                for r in range((j - i) % n))
    return _tiles_reached(model, seeds, _arrow_mask(model, strand.arrows))


@per_model
def label_table(model: DimerModel) -> LabelTable:
    """Source labels I_j (marked points whose starting strand has tile j on
    its left) and target labels (same, for the strand ending there)."""
    all_strands = require_consistent(model)
    k, n = type_of(model)
    regions = [(s.start_label, _left_region(model, s)) for s in all_strands]
    pi = {s.start_label: s.end_label for s in all_strands}
    source = {v.id: frozenset(i for i, region in regions if region >> p & 1)
              for p, v in enumerate(model.vertices)}
    target = {vid: frozenset(pi[i] for i in src) for vid, src in source.items()}
    return LabelTable(k, n, ReadOnlyDict(source), ReadOnlyDict(target))


def source_labels(model: DimerModel) -> ReadOnlyDict[int, FrozenSet[int]]:
    return label_table(model).source


def target_labels(model: DimerModel) -> ReadOnlyDict[int, FrozenSet[int]]:
    return label_table(model).target


@per_model
def necklaces(model: DimerModel) -> Tuple[ReadOnlyDict[int, FrozenSet[int]],
                                          ReadOnlyDict[int, FrozenSet[int]]]:
    """(source necklace, target necklace): for each boundary position m,
    the source/target label of the boundary tile between marked points m
    and m+1."""
    table = label_table(model)
    tiles = {m: boundary_tile(model, m) for m in range(1, model.n + 1)}
    return (ReadOnlyDict({m: table.source[t] for m, t in tiles.items()}),
            ReadOnlyDict({m: table.target[t] for m, t in tiles.items()}))
