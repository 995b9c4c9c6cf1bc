"""Zig-zag strands, consistency axioms, strand permutation, and labels.

A strand is tracked by the sequence of arrows it crosses. From a crossing of
an arrow with pending turn colour c, the next crossed arrow is the cyclic
successor of the current arrow in its face of colour c, and the turn colour
alternates. A strand starts at a marked point by crossing that boundary
arrow (first turn colour: the colour of the arrow's unique face) and ends on
the boundary arrow whose pending-colour face is missing.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .model import BLACK, WHITE, DimerModel, _tiles_reached, per_model, require_valid, type_of


def _other(color: str) -> str:
    return WHITE if color == BLACK else BLACK


@dataclass(frozen=True)
class Strand:
    start_label: int
    end_label: int
    crossing_sequence: Tuple[Tuple[int, str], ...]

    @property
    def arrows(self) -> Tuple[int, ...]:
        return tuple(aid for aid, _ in self.crossing_sequence)


@dataclass
class ConsistencyReport:
    b1_pass: bool = True
    b2_pass: bool = True
    closed_loop_arrows: Tuple[int, ...] = ()
    b1_witness: Optional[Tuple[int, int]] = None  # (start label, arrow id)
    b2_witness: Optional[Tuple[int, int, int, int]] = None  # (s, t, arrow, arrow)

    @property
    def passed(self) -> bool:
        return self.b1_pass and self.b2_pass and not self.closed_loop_arrows


@dataclass
class LabelTable:
    k: int
    n: int
    source: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    target: Dict[int, FrozenSet[int]] = field(default_factory=dict)


def _trace(model: DimerModel, start_label: int) -> Strand:
    start = model.boundary_arrow_with_label(start_label)
    color = model.face(model.faces_of_arrow(start.id)[0]).color
    seq: List[Tuple[int, str]] = []
    cur, cur_color = start.id, color
    limit = 2 * len(model.arrows) + 2
    while True:
        seq.append((cur, cur_color))
        if len(seq) > limit:
            raise ValueError("strand fails to terminate; model is malformed")
        face = model.face_of_color(cur, cur_color)
        if face is None:
            break
        cur = model.cycle_successor(face.id, cur)
        cur_color = _other(cur_color)
    end = model.arrow(cur)
    if not end.is_boundary:
        raise ValueError(f"strand from label {start_label} ends on internal arrow {cur}; "
                         "model is malformed")
    return Strand(start_label, end.boundary_label, tuple(seq))


@per_model(copy=list)
def strands(model: DimerModel) -> List[Strand]:
    require_valid(model)
    return [_trace(model, label) for label in range(1, model.n + 1)]


def strand_permutation(model: DimerModel) -> Dict[int, int]:
    return {s.start_label: s.end_label for s in strands(model)}


@per_model(copy=copy.copy)
def check_postnikov(model: DimerModel) -> ConsistencyReport:
    all_strands = strands(model)
    report = ConsistencyReport()

    # (b1): no strand crosses the same arrow twice.
    for s in all_strands:
        seen: Set[int] = set()
        for aid in s.arrows:
            if aid in seen:
                report.b1_pass = False
                if report.b1_witness is None:
                    report.b1_witness = (s.start_label, aid)
            seen.add(aid)

    # Closed zig-zag loops exist iff some arrow is crossed fewer than twice
    # by the boundary-to-boundary strands.
    passages: Dict[int, int] = {a.id: 0 for a in model.arrows}
    for s in all_strands:
        for aid in s.arrows:
            passages[aid] += 1
    report.closed_loop_arrows = tuple(sorted(aid for aid, c in passages.items()
                                             if c < 2))

    # (b2): along any two strands, the interior arrows they both cross must
    # appear in exactly opposite orders. Checking consecutive common pairs
    # suffices: any order violation contains an adjacent one.
    interior = {a.id for a in model.internal_arrows}
    for i, s in enumerate(all_strands):
        s_common_pos = {aid: p for p, aid in enumerate(s.arrows) if aid in interior}
        for t in all_strands[i + 1:]:
            common = [aid for aid in t.arrows if aid in s_common_pos]
            for a1, a2 in zip(common, common[1:]):
                if s_common_pos[a1] < s_common_pos[a2]:
                    report.b2_pass = False
                    if report.b2_witness is None:
                        report.b2_witness = (s.start_label, t.start_label, a1, a2)
    return report


def require_consistent(model: DimerModel) -> List[Strand]:
    require_valid(model)
    report = check_postnikov(model)
    if not report.passed:
        raise ValueError("model is not consistent: "
                         f"b1={report.b1_pass}, b2={report.b2_pass}, "
                         f"closed loops on {report.closed_loop_arrows}")
    return strands(model)


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


def _left_region(model: DimerModel, strand: Strand) -> FrozenSet[int]:
    """Tiles on the left of the strand: cut the tile adjacency graph along
    every arrow the strand crosses, then flood fill from the boundary tiles
    in the cyclic label interval [start, end-1]."""
    n = model.n
    i, j = strand.start_label, strand.end_label
    if i == j:
        raise ValueError(f"strand {i} is a lollipop; not supported")
    seeds = []
    m = i
    while m != j:
        seeds.append(boundary_tile(model, m))
        m = m % n + 1
    return frozenset(_tiles_reached(model, seeds, cut=set(strand.arrows)))


@per_model(copy=lambda table: replace(table, source=dict(table.source),
                                      target=dict(table.target)))
def label_table(model: DimerModel) -> LabelTable:
    """Source labels I_j (marked points whose starting strand has tile j on
    its left) and target labels (same, for the strand ending there)."""
    all_strands = require_consistent(model)
    k, n = type_of(model)
    table = LabelTable(k=k, n=n)
    regions = {s.start_label: _left_region(model, s) for s in all_strands}
    pi = {s.start_label: s.end_label for s in all_strands}
    for v in model.vertices:
        src = frozenset(i for i, region in regions.items() if v.id in region)
        table.source[v.id] = src
        table.target[v.id] = frozenset(pi[i] for i in src)
    return table


def source_labels(model: DimerModel) -> Dict[int, FrozenSet[int]]:
    return label_table(model).source


def target_labels(model: DimerModel) -> Dict[int, FrozenSet[int]]:
    return label_table(model).target


@per_model(copy=lambda pair: (dict(pair[0]), dict(pair[1])))
def necklaces(model: DimerModel) -> Tuple[Dict[int, FrozenSet[int]], Dict[int, FrozenSet[int]]]:
    """(source necklace, target necklace): for each boundary position m,
    the source/target label of the boundary tile between marked points m
    and m+1."""
    table = label_table(model)
    source = {}
    target = {}
    for m in range(1, model.n + 1):
        tile = boundary_tile(model, m)
        source[m] = table.source[tile]
        target[m] = table.target[tile]
    return source, target
