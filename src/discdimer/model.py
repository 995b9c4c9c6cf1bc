"""Dimer models with boundary on the disc.

A model is a quiver with faces: vertices (tiles of the dual picture), arrows,
and two-coloured oriented face cycles, together with labelled boundary
arrows. Planarity is encoded purely combinatorially by the face structure and
the single boundary cycle; no coordinates are stored.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
                    TypeVar)

BLACK = "black"
WHITE = "white"

T = TypeVar("T")
K, V = TypeVar("K"), TypeVar("V")


class StructuralError(ValueError):
    """A document or model is not even structurally well formed (dangling
    ids, malformed cycles, bad labels); distinct from axiom failure."""


@dataclass(frozen=True)
class Vertex:
    id: int
    is_boundary: bool


@dataclass(frozen=True)
class Arrow:
    id: int
    tail: int
    head: int
    is_boundary: bool
    boundary_label: Optional[int] = None


@dataclass(frozen=True)
class Face:
    id: int
    color: str
    boundary_cycle: Tuple[int, ...]


@dataclass(frozen=True)
class DimerModel:
    vertices: Tuple[Vertex, ...]
    arrows: Tuple[Arrow, ...]
    faces: Tuple[Face, ...]

    # -- indexed views (computed once; the dataclass is otherwise immutable) --

    def __post_init__(self) -> None:
        # Runs on structurally broken models too (validate reports on them),
        # so nothing here may assume that ids resolve.
        face_by_id = {f.id: f for f in self.faces}
        faces_of: Dict[int, Tuple[int, ...]] = {a.id: () for a in self.arrows}
        for f in self.faces:
            for aid in f.boundary_cycle:
                if aid in faces_of:
                    faces_of[aid] += (f.id,)
        boundary = tuple(a for a in self.arrows if a.is_boundary)
        index = {
            "_vertex_by_id": {v.id: v for v in self.vertices},
            "_arrow_by_id": {a.id: a for a in self.arrows},
            "_face_by_id": face_by_id,
            "_faces_of_arrow": faces_of,
            "_boundary_arrows": boundary,
            # The first arrow per label, as a scan in model order would find.
            "_arrow_by_label": {a.boundary_label: a for a in reversed(boundary)},
            "_internal_arrows": tuple(a for a in self.arrows if not a.is_boundary),
            # A boundary arrow is clockwise iff its face is white.
            "_clockwise": {a.id: face_by_id[faces_of[a.id][0]].color == WHITE
                           for a in boundary if faces_of[a.id]},
        }
        for name, value in index.items():
            object.__setattr__(self, name, value)

    def arrow(self, aid: int) -> Arrow:
        return self._arrow_by_id[aid]

    def face(self, fid: int) -> Face:
        return self._face_by_id[fid]

    def faces_of_arrow(self, aid: int) -> Tuple[int, ...]:
        return self._faces_of_arrow[aid]

    def face_of_color(self, aid: int, color: str) -> Optional[Face]:
        """The face of the given colour containing the arrow, if any."""
        for fid in self._faces_of_arrow[aid]:
            f = self.face(fid)
            if f.color == color:
                return f
        return None

    @property
    def boundary_arrows(self) -> Tuple[Arrow, ...]:
        return self._boundary_arrows

    @property
    def internal_arrows(self) -> Tuple[Arrow, ...]:
        return self._internal_arrows

    @property
    def n(self) -> int:
        return len(self._boundary_arrows)

    def boundary_arrow_with_label(self, label: int) -> Arrow:
        try:
            return self._arrow_by_label[label]
        except KeyError:
            raise KeyError(f"no boundary arrow labelled {label}") from None

    def is_clockwise(self, aid: int) -> bool:
        """A boundary arrow is clockwise iff it lies in a white face."""
        a = self.arrow(aid)
        if not a.is_boundary:
            raise ValueError(f"arrow {aid} is not a boundary arrow")
        try:
            return self._clockwise[aid]
        except KeyError:
            raise ValueError(f"boundary arrow {aid} lies in no face") from None


class ReadOnlyDict(Dict[K, V]):
    """A dict that cannot change after it is built: every mutator raises
    TypeError. Equality, iteration and JSON see a plain dict."""

    def _read_only(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self) -> Tuple[type, Tuple[dict]]:
        return type(self), (dict(self),)


def per_model(fn: Callable[[DimerModel], T]) -> Callable[[DimerModel], T]:
    """Decorator: compute a function of a model once per `DimerModel` instance.

    The result is stored in the instance's own ``__dict__``, so it lives and
    dies with that instance; eq and hash read only the dataclass fields. (A
    cache keyed by model value would hand one instance's results to another,
    equal instance.) Every call returns that stored result, shared by all
    callers; results are immutable (frozen dataclasses, tuples, frozensets,
    `ReadOnlyDict`), so nothing needs copying. A ValueError is stored too:
    every later call raises a new one of the same type and message.
    """
    key = f"{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def cached(model: DimerModel) -> T:
        memo = model.__dict__
        entry = memo.get(key)
        if entry is None:
            try:
                entry = memo[key] = (True, fn(model))
            except ValueError as exc:
                memo[key] = (False, (type(exc), exc.args))
                raise
        ok, value = entry
        if not ok:
            error_type, args = value
            raise error_type(*args)
        return value

    return cached


@dataclass(frozen=True)
class ModelReport:
    checks: ReadOnlyDict[str, Tuple[bool, str]]  # axiom -> (passed, detail)
    n: int
    connected: bool

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.checks.values())

    def failures(self) -> Dict[str, str]:
        return {k: d for k, (ok, d) in self.checks.items() if not ok}


def _check_structure(model: DimerModel) -> None:
    """Reads the model's by-id index: a repeated id leaves it shorter than
    its records."""
    vertex, arrow = model._vertex_by_id, model._arrow_by_id
    for name, records, by_id in (("vertex", model.vertices, vertex),
                                 ("arrow", model.arrows, arrow),
                                 ("face", model.faces, model._face_by_id)):
        if len(by_id) != len(records):
            raise StructuralError(f"duplicate {name} ids")
        if any(i < 0 for i in by_id):
            raise StructuralError(f"negative {name} id")
    for a in model.arrows:
        if a.tail not in vertex or a.head not in vertex:
            raise StructuralError(f"arrow {a.id} references unknown vertex")
        if a.is_boundary and a.boundary_label is None:
            raise StructuralError(f"boundary arrow {a.id} lacks a label")
        if not a.is_boundary and a.boundary_label is not None:
            raise StructuralError(f"internal arrow {a.id} carries a label")
    for f in model.faces:
        if f.color not in (BLACK, WHITE):
            raise StructuralError(f"face {f.id} has colour {f.color!r}")
        if not f.boundary_cycle:
            raise StructuralError(f"face {f.id} has an empty cycle")
        for aid in f.boundary_cycle:
            if aid not in arrow:
                raise StructuralError(f"face {f.id} references unknown arrow {aid}")
        if len(set(f.boundary_cycle)) != len(f.boundary_cycle):
            raise StructuralError(f"face {f.id} repeats an arrow in its cycle")


@per_model
def validate(model: DimerModel) -> ModelReport:
    """Check every dimer-model axiom; raises StructuralError on dangling ids
    or malformed records, otherwise returns a full per-axiom report."""
    _check_structure(model)
    checks: Dict[str, Tuple[bool, str]] = {}

    # No loops.
    loops = [a.id for a in model.arrows if a.tail == a.head]
    checks["no_loops"] = (not loops, f"loop arrows: {loops}")

    # Face multiplicity: internal arrows once in a black and once in a white
    # cycle; boundary arrows in exactly one cycle. (_check_structure rules
    # out an arrow repeated within one cycle and colours other than the two.)
    face = model._face_by_id
    bad_mult = []
    for a in model.arrows:
        fids = model._faces_of_arrow[a.id]
        if not (len(fids) == 1 if a.is_boundary
                else len(fids) == 2 and face[fids[0]].color != face[fids[1]].color):
            bad_mult.append(a.id)
    checks["face_multiplicity"] = (not bad_mult, f"arrows: {bad_mult}")

    # One walk over the face cycles. Oriented cycles: head of each arrow =
    # tail of the next. Each consecutive pair is also an edge of the
    # incidence graph at the first arrow's head.
    arrow = model._arrow_by_id
    edges_at: Dict[int, List[Tuple[int, int]]] = {v.id: [] for v in model.vertices}
    bad_faces = []
    for f in model.faces:
        cyc = f.boundary_cycle
        oriented = True
        for x, y in zip(cyc, cyc[1:] + cyc[:1]):
            head = arrow[x].head
            oriented = oriented and head == arrow[y].tail
            edges_at[head].append((x, y))
        if not oriented:
            bad_faces.append(f.id)
    checks["oriented_cycles"] = (not bad_faces, f"faces: {bad_faces}")

    # Vertex incidence graphs: a line at boundary vertices, a cycle at
    # internal vertices. Nodes are the incident arrows; edges are consecutive
    # pairs through the vertex in some face cycle.
    nodes_at: Dict[int, List[int]] = {v.id: [] for v in model.vertices}
    for a in model.arrows:
        nodes_at[a.tail].append(a.id)
        if a.head != a.tail:
            nodes_at[a.head].append(a.id)
    bad_vertices = [v.id for v in model.vertices
                    if not _incidence_ok(nodes_at[v.id], edges_at[v.id], v.is_boundary)]
    checks["vertex_incidence"] = (not bad_vertices, f"vertices: {bad_vertices}")

    # Euler characteristic of the disc.
    euler = len(model.vertices) - len(model.arrows) + len(model.faces)
    checks["euler"] = (euler == 1, f"chi = {euler}")

    # Boundary arrows form a single closed cycle with labels 1..n in cyclic
    # order; boundary flags on vertices agree with incidence.
    boundary = model.boundary_arrows
    checks["boundary_cycle"] = _check_boundary_cycle(model, boundary)

    on_boundary = {end for a in boundary for end in (a.tail, a.head)}
    flag_bad = [v.id for v in model.vertices if v.is_boundary != (v.id in on_boundary)]
    checks["boundary_flags"] = (not flag_bad, f"vertices: {flag_bad}")

    # Connectivity of the underlying graph; validation builds no `_layout`.
    position = _vertex_positions(model)
    adjacency = [0] * len(position)
    for a in model.arrows:
        t, h = position[a.tail], position[a.head]
        adjacency[t] |= 1 << h
        adjacency[h] |= 1 << t
    everything = (1 << len(position)) - 1
    connected = bool(position) and _flood(adjacency, everything, 1) == everything
    checks["connected"] = (connected, "quiver is disconnected" if not connected else "")
    return ModelReport(ReadOnlyDict(checks), len(boundary), connected)


def _incidence_ok(nodes: List[int], edges: List[Tuple[int, int]], on_boundary: bool) -> bool:
    """Whether the graph on the arrows at one vertex (`nodes`), joined by
    consecutive pairs through that vertex (`edges`), is a line (boundary
    vertex) or a cycle (internal vertex). It is one exactly when it has
    |nodes| - 1 or |nodes| edges, no degree above 2 (a repeated pair counts
    twice), and is connected: a connected graph with one edge fewer than
    nodes is a tree, a line when no degree is above 2; with as many edges as
    nodes and no degree above 2, every degree is 2, so a connected one is a
    single cycle."""
    if not nodes or len(edges) != len(nodes) - on_boundary:
        return False
    local = {nid: p for p, nid in enumerate(nodes)}
    adjacency, degree = [0] * len(nodes), [0] * len(nodes)
    try:
        for x, y in edges:
            px, py = local[x], local[y]
            adjacency[px] |= 1 << py
            adjacency[py] |= 1 << px
            degree[px] += 1
            degree[py] += 1
    except KeyError:  # an edge to an arrow not at this vertex
        return False
    everything = (1 << len(nodes)) - 1
    return max(degree) <= 2 and _flood(adjacency, everything, 1) == everything


def _check_boundary_cycle(model: DimerModel, boundary: Sequence[Arrow]) -> Tuple[bool, str]:
    n = len(boundary)
    if n == 0:
        return False, "no boundary arrows"
    labels = sorted(a.boundary_label for a in boundary)
    if labels != list(range(1, n + 1)):
        return False, f"labels are not a bijection with 1..{n}: {labels}"
    # The undirected graph on boundary vertices with boundary arrows as edges
    # must be a single cycle.
    adj: Dict[int, List[Arrow]] = {}
    for a in boundary:
        adj.setdefault(a.tail, []).append(a)
        adj.setdefault(a.head, []).append(a)
    if any(len(v) != 2 for v in adj.values()):
        return False, "a boundary vertex does not have exactly two boundary arrows"
    start = boundary[0]
    order = [start]
    vertex = start.head
    while True:
        a, b = adj[vertex]
        nxt = b if a.id == order[-1].id else a
        if nxt.id == start.id:
            break
        order.append(nxt)
        vertex = nxt.head if nxt.tail == vertex else nxt.tail
        if len(order) > n:
            return False, "boundary arrows do not close into one cycle"
    if len(order) != n:
        return False, "boundary arrows form more than one cycle"
    seq = [a.boundary_label for a in order]
    i1 = seq.index(1)
    rotated = seq[i1:] + seq[:i1]
    if rotated != list(range(1, n + 1)) and rotated != [1] + list(range(n, 1, -1)):
        return False, f"labels are not in cyclic order: {seq}"
    return True, ""


def _flood(adjacency: Sequence[int], within: int, start: int) -> int:
    """The positions of the mask `within` joined to those of `start`
    through `within`, with adjacency[p] the mask of p's neighbours: the
    library's one flood fill."""
    reached = frontier = start
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = adjacency[low.bit_length() - 1] & within & ~reached
        reached |= new
        frontier |= new
    return reached


def require_valid(model: DimerModel) -> ModelReport:
    report = validate(model)
    if not report.passed:
        raise ValueError(f"model fails validation: {report.failures()}")
    return report


# ---------------------------------------------------------------------------
# Bipartite dual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualNode:
    face_id: int
    color: str


@dataclass(frozen=True)
class DualEdge:
    arrow_id: int
    black_face: int
    white_face: int


@dataclass(frozen=True)
class DualHalfEdge:
    arrow_id: int
    face_id: int
    label: int


@dataclass(frozen=True)
class BipartiteDual:
    nodes: Tuple[DualNode, ...]
    edges: Tuple[DualEdge, ...]
    half_edges: Tuple[DualHalfEdge, ...]
    tiles: Tuple[int, ...]


@per_model
def bipartite_dual(model: DimerModel) -> BipartiteDual:
    require_valid(model)
    nodes = tuple(DualNode(f.id, f.color) for f in model.faces)
    edges = []
    half_edges = []
    for a in model.arrows:
        fids = model.faces_of_arrow(a.id)
        if a.is_boundary:
            half_edges.append(DualHalfEdge(a.id, fids[0], a.boundary_label))
        else:
            f0, f1 = (model.face(fid) for fid in fids)
            black = f0.id if f0.color == BLACK else f1.id
            white = f0.id if f0.color == WHITE else f1.id
            edges.append(DualEdge(a.id, black, white))
    return BipartiteDual(nodes, tuple(edges), tuple(half_edges),
                         tuple(v.id for v in model.vertices))


@per_model
def type_of(model: DimerModel) -> Tuple[int, int]:
    """(k, n) with k = #white - #black + #(half-edges at black nodes), the
    last being the anticlockwise boundary arrows."""
    require_valid(model)
    white = sum(1 for f in model.faces if f.color == WHITE)
    anticlockwise = sum(1 for cw in model._clockwise.values() if not cw)
    return white - (len(model.faces) - white) + anticlockwise, model.n


# The graph index: vertex positions, arrow bits, corners, and the arrows at each vertex.

@per_model
def _vertex_positions(model: DimerModel) -> ReadOnlyDict[int, int]:
    """Vertex id -> its position in model order, the index of every vertex
    mask and of every vector dense in vertex position."""
    return ReadOnlyDict({v.id: p for p, v in enumerate(model.vertices)})


@per_model
def _arrow_bits(model: DimerModel) -> ReadOnlyDict[int, int]:
    """Arrow id -> its bit in an arrow mask: 1 << index in model order, the
    library's one bit order."""
    return ReadOnlyDict({a.id: 1 << k for k, a in enumerate(model.arrows)})


def _arrow_mask(model: DimerModel, aids: Iterable[int]) -> int:
    """The arrow mask of the ids."""
    return sum(map(_arrow_bits(model).__getitem__, set(aids)))


@per_model
def _corners(model: DimerModel) -> ReadOnlyDict[int, Optional[int]]:
    """Marked point m of 1..n -> the corner between marked points m and m+1
    (mod n): the one vertex that boundary arrows m and m+1 share, or None.
    Each pair is read once, from the label index, on invalid models too."""
    by_label, n, corners = model._arrow_by_label, model.n, {}
    for m in range(1, n + 1):
        a, b = by_label.get(m), by_label.get(m % n + 1)
        shared = {a.tail, a.head} & {b.tail, b.head} if a and b else set()
        corners[m] = shared.pop() if len(shared) == 1 else None
    return ReadOnlyDict(corners)


class _Layout(NamedTuple):
    """Vertex positions in model order, the arrows at each vertex position
    as lists and as arrow masks, those masks packed with the vertex's bit
    as the resolution's level pass ORs them, and the tile graph as a flood
    reads it."""
    vertices: Tuple[int, ...]                      # vertex id at each position
    position: ReadOnlyDict[int, int]               # vertex id -> position
    into: Tuple[Tuple[Tuple[int, int], ...], ...]  # (arrow bit, tail position) per head
    into_mask: Tuple[int, ...]                     # arrows with head here
    out_mask: Tuple[int, ...]                      # arrows with tail here
    bit: Tuple[int, ...]                           # 1 << position
    internal: int                                  # the internal arrows
    packed: Tuple[int, ...]                        # bit | out_mask << n | into_mask << n + arrows
    incidence: Tuple[int, ...]                     # flood rows: vertices, then arrows


@per_model
def _layout(model: DimerModel) -> _Layout:
    position = _vertex_positions(model)
    bit = _arrow_bits(model)
    n = len(position)
    into: List[List[Tuple[int, int]]] = [[] for _ in position]
    into_mask, out_mask, ends = [0] * n, [0] * n, []
    for a in model.arrows:
        h, t = position[a.head], position[a.tail]
        into[h].append((bit[a.id], t))
        into_mask[h] |= bit[a.id]
        out_mask[t] |= bit[a.id]
        ends.append(1 << h | 1 << t)
    shift = n + len(model.arrows)
    return _Layout(tuple(position), position, tuple(map(tuple, into)), tuple(into_mask),
                   tuple(out_mask), tuple(1 << p for p in range(n)),
                   sum(bit[a.id] for a in model.internal_arrows),
                   tuple(1 << p | o << n | i << shift
                         for p, (i, o) in enumerate(zip(into_mask, out_mask))),
                   tuple((i | o) << n for i, o in zip(into_mask, out_mask)) + tuple(ends))


def _tiles_reached(model: DimerModel, seeds: int, cut: int = 0) -> int:
    """The vertex mask reachable from the vertex mask `seeds` in the tile
    graph without the arrows of the arrow mask `cut`. The flood runs over
    vertices and arrows (node n + k is arrow k, joined to its two ends), so
    a cut arrow is left out of `within`."""
    n = len(model.vertices)
    return _flood(_layout(model).incidence, ~(cut << n), seeds) & ((1 << n) - 1)


# ---------------------------------------------------------------------------
# Opposite and standardisation
# ---------------------------------------------------------------------------

@per_model
def opposite(model: DimerModel) -> DimerModel:
    """Reverse all arrows and face cycles and swap the face colours; ids and
    boundary labels are preserved."""
    arrows = tuple(Arrow(a.id, a.head, a.tail, a.is_boundary, a.boundary_label)
                   for a in model.arrows)
    faces = tuple(Face(f.id, WHITE if f.color == BLACK else BLACK,
                       tuple(reversed(f.boundary_cycle)))
                  for f in model.faces)
    return DimerModel(model.vertices, arrows, faces)


def _require_colour(color: str) -> None:
    if color not in (BLACK, WHITE):
        raise ValueError(f"bad colour {color!r}")


def standardise(model: DimerModel, target_color: str = WHITE) -> DimerModel:
    """Glue a digon onto every boundary arrow not lying in a face of the
    target colour, so that afterwards every boundary arrow does.

    Each offending arrow gamma becomes internal; a fresh reversed arrow takes
    over its boundary label, and the pair bounds a fresh digon face of the
    target colour. Existing ids are untouched.
    """
    _require_colour(target_color)
    require_valid(model)
    offenders = [a for a in map(model.boundary_arrow_with_label, range(1, model.n + 1))
                 if model.face(model.faces_of_arrow(a.id)[0]).color != target_color]
    if not offenders:
        return model
    next_aid = max(a.id for a in model.arrows) + 1
    next_fid = max(f.id for f in model.faces) + 1
    arrows = {a.id: a for a in model.arrows}
    faces = list(model.faces)
    for r, gamma in enumerate(offenders):
        aid = next_aid + r
        arrows[gamma.id] = Arrow(gamma.id, gamma.tail, gamma.head, False, None)
        arrows[aid] = Arrow(aid, gamma.head, gamma.tail, True, gamma.boundary_label)
        faces.append(Face(next_fid + r, target_color, (gamma.id, aid)))
    return DimerModel(model.vertices,
                      tuple(arrows[a] for a in sorted(arrows)),
                      tuple(faces))


def is_standardised(model: DimerModel, target_color: str) -> bool:
    _require_colour(target_color)
    return all(model.face(model.faces_of_arrow(a.id)[0]).color == target_color
               for a in model.boundary_arrows)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def to_dict(model: DimerModel) -> dict:
    arrows = []
    for a in model.arrows:
        rec = {"id": a.id, "tail": a.tail, "head": a.head, "is_boundary": a.is_boundary}
        if a.is_boundary:
            rec["boundary_label"] = a.boundary_label
        arrows.append(rec)
    return {
        "vertices": [{"id": v.id, "is_boundary": v.is_boundary} for v in model.vertices],
        "arrows": arrows,
        "faces": [{"id": f.id, "color": f.color,
                   "boundary_cycle": list(f.boundary_cycle)} for f in model.faces],
    }


def _int(value: Any, where: str, *at: int) -> int:
    # JSON true/false load as bool, a subclass of int; they are not ids. The
    # location is `where` formatted with `at`, built only for a rejection.
    if type(value) is not int:
        raise TypeError(f"{where.format(*at)} must be an integer, got {value!r}")
    return value


def _bool(value: Any, where: str, *at: int) -> bool:
    if type(value) is not bool:
        raise TypeError(f"{where.format(*at)} must be true or false, got {value!r}")
    return value


def _str(value: Any, where: str, *at: int) -> str:
    if type(value) is not str:
        raise TypeError(f"{where.format(*at)} must be a string, got {value!r}")
    return value


def _array(value: Any, where: str, *at: int) -> list:
    if type(value) is not list:
        got = {dict: "an object", str: "a string"}.get(type(value)) or repr(value)
        raise TypeError(f"{where.format(*at)} must be an array, got {got}")
    return value


def _cycle(entries: Any, i: int) -> Tuple[int, ...]:
    cycle = tuple(_array(entries, "faces[{}].boundary_cycle", i))
    if not set(map(type, cycle)) <= {int}:
        for j, x in enumerate(cycle):
            _int(x, "faces[{}].boundary_cycle[{}]", i, j)
    return cycle


_FIELDS = {"vertices": frozenset({"id", "is_boundary"}),
           "arrows": frozenset({"id", "tail", "head", "is_boundary", "boundary_label"}),
           "faces": frozenset({"id", "color", "boundary_cycle"})}


def _no_unknown_keys(doc: dict) -> None:
    for key in doc:
        if key not in _FIELDS:
            raise TypeError(f"unknown top-level key {key!r}")
    for section, fields in _FIELDS.items():
        for i, record in enumerate(doc[section]):
            if not record.keys() <= fields:
                key = next(key for key in record if key not in fields)
                raise TypeError(f"unknown key {key!r} in {section}[{i}]")


def unique_keys(pairs: List[Tuple[str, Any]]) -> dict:
    """A JSON object read by `json.load(..., object_pairs_hook=unique_keys)`:
    a key given twice is an error, where `json.load` alone keeps the last
    value. The error names the key, and the record by its id if it has one."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        key = next(key for i, key in enumerate(keys) if key in keys[:i])
        record = f" in the record with id {json.dumps(obj['id'])}" if "id" in obj else ""
        raise ValueError(f"duplicate key {key!r}{record}")
    return obj


def from_dict(doc: dict) -> DimerModel:
    """The model a JSON document describes. Lists must be arrays, ids, endpoints,
    labels and cycle entries integers, colours strings and flags booleans;
    nothing is coerced, and a key the format does not define is an error."""
    try:
        vertices = tuple(Vertex(_int(v["id"], "vertices[{}].id", i),
                                _bool(v["is_boundary"], "vertices[{}].is_boundary", i))
                         for i, v in enumerate(_array(doc["vertices"], "vertices")))
        arrows = []
        for i, a in enumerate(_array(doc["arrows"], "arrows")):
            label = a.get("boundary_label")
            arrows.append(Arrow(_int(a["id"], "arrows[{}].id", i),
                                _int(a["tail"], "arrows[{}].tail", i),
                                _int(a["head"], "arrows[{}].head", i),
                                _bool(a["is_boundary"], "arrows[{}].is_boundary", i),
                                None if label is None
                                else _int(label, "arrows[{}].boundary_label", i)))
        faces = tuple(Face(_int(f["id"], "faces[{}].id", i),
                           _str(f["color"], "faces[{}].color", i), _cycle(f["boundary_cycle"], i))
                      for i, f in enumerate(_array(doc["faces"], "faces")))
        _no_unknown_keys(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise StructuralError(f"malformed document: {exc}") from exc
    model = DimerModel(vertices, tuple(arrows), faces)
    validate(model)
    return model


def save(model: DimerModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_dict(model), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load(path) -> DimerModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=unique_keys)
        except UnicodeDecodeError as exc:
            raise StructuralError(f"{path}: not UTF-8 text") from exc
        except json.JSONDecodeError as exc:
            raise StructuralError(f"{path}: invalid JSON at line {exc.lineno}, "
                                  f"column {exc.colno}") from exc
        except ValueError as exc:  # a duplicate key
            raise StructuralError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise StructuralError(f"{path}: top level is not an object")
    return from_dict(doc)
