"""Build dimer models from embedded bipartite (plabic) graphs.

The input is a bipartite graph in the disc given by a rotation system: for
each node, the anticlockwise cyclic order of its incident edge-ends, plus the
anticlockwise cyclic order of the labelled marked points on the disc
boundary. Tiles (faces of the embedding, including the boundary tiles cut
out by the half-edges) are traced combinatorially and become the quiver
vertices of the dual dimer model; edges become arrows; graph nodes become
quiver faces. The rotation system is the embedding itself: there are no
coordinates, and `to_dimer_model` checks first that it lists every dart of
the graph exactly once, at its own node.

Orientation conventions (fixed once, validated by the bundled fixtures):
arrows circulate anticlockwise around black nodes and clockwise around white
nodes; equivalently each arrow is the dual of its edge rotated so the black
node sits on its left. Black face cycles list their arrows in anticlockwise
rotation order, white face cycles in clockwise order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from .model import BLACK, WHITE, Arrow, DimerModel, Face, Vertex

# A dart is (kind, index, end): kind "e" (edge), "h" (half-edge), "a" (arc);
# end 0 is the dart based at the first endpoint, 1 at the second.
Dart = Tuple[str, int, int]


@dataclass
class EmbeddedPlabicGraph:
    """Combinatorial embedding of a bipartite graph in the disc."""

    node_colors: Dict[int, str]
    edges: List[Tuple[int, int]]
    half_edges: List[Tuple[int, int]]  # (node, boundary label)
    boundary_order: List[int]  # labels in anticlockwise order around the disc
    rotations: Dict[int, List[Dart]]  # node -> its darts, anticlockwise


def to_dimer_model(graph: EmbeddedPlabicGraph) -> DimerModel:
    """Trace the tiles of the embedding and assemble the dual dimer model."""
    n = len(graph.boundary_order)
    labels = [label for _, label in graph.half_edges]
    if sorted(graph.boundary_order) != sorted(labels) or len(set(labels)) != n:
        raise ValueError("boundary order does not match half-edge labels, "
                         "or a label repeats")

    # Base node of every dart at a graph node. The rotations must list each
    # of these darts exactly once, at its base, and no other dart.
    base: Dict[Dart, object] = {}
    for i, (u, v) in enumerate(graph.edges):
        base[("e", i, 0)] = u
        base[("e", i, 1)] = v
    for j, (u, _) in enumerate(graph.half_edges):
        base[("h", j, 0)] = u
    for node in graph.node_colors:
        if node not in graph.rotations:
            raise ValueError(f"node {node} has no rotation")
    listed: Set[Dart] = set()
    for node, rotation in graph.rotations.items():
        if node not in graph.node_colors:
            raise ValueError(f"node {node} has a rotation but no colour")
        for d in rotation:
            if d in listed or base.get(d) != node:
                problem = ("is listed twice" if d in listed else
                           "is not a dart of the graph" if d not in base else
                           f"belongs at node {base[d]}")
                raise ValueError(f"dart {d} at node {node} {problem}")
            listed.add(d)
    for d, node in base.items():
        if d not in listed:
            raise ValueError(f"dart {d} is missing from the rotation at node {node}")

    # Marked points, encoded as ("m", label), complete the rotation system.
    # At a marked point the anticlockwise order is: arc towards the next
    # marked point, the half-edge pointing into the disc, arc towards the
    # previous one.
    rotations: Dict[object, List[Dart]] = {v: list(r) for v, r in graph.rotations.items()}
    for j, (_, label) in enumerate(graph.half_edges):
        base[("h", j, 1)] = ("m", label)
    for t, label in enumerate(graph.boundary_order):
        base[("a", t, 0)] = ("m", label)
        base[("a", t, 1)] = ("m", graph.boundary_order[(t + 1) % n])
        rotations[("m", label)] = [("a", t, 0), ("h", labels.index(label), 1),
                                   ("a", (t - 1) % n, 1)]

    def alpha(d: Dart) -> Dart:
        return (d[0], d[1], 1 - d[2])

    def phi(d: Dart) -> Dart:
        """Next dart of the face lying on the left of d: the anticlockwise
        predecessor of the reversed dart in the rotation at its base."""
        rev = alpha(d)
        rot = rotations[base[rev]]
        return rot[rot.index(rev) - 1]

    # Orbits of phi = faces of the embedding, each seen from its left darts.
    # The rotations list every dart once, so phi permutes the darts and each
    # orbit closes up at its first dart.
    orbit_of: Dict[Dart, int] = {}
    orbits: List[List[Dart]] = []
    for start in sorted(base):
        cur, orbit = start, []
        while cur not in orbit_of:
            orbit_of[cur] = len(orbits)
            orbit.append(cur)
            cur = phi(cur)
        if orbit:
            orbits.append(orbit)

    # The outer face is the orbit of any reversed arc dart (the region
    # outside the disc lies on the left of arcs traversed clockwise). Every
    # other orbit is a tile.
    outer = orbit_of[("a", 0, 1)]
    if any(d[0] != "a" for d in orbits[outer]):
        raise ValueError("outer face touches the graph; graph is not "
                         "properly inside the disc")
    tile_ids: Dict[int, int] = {}
    vertices: List[Vertex] = []
    for idx, orbit in enumerate(orbits):
        if idx != outer:
            tile_ids[idx] = len(vertices)
            vertices.append(Vertex(len(vertices), any(d[0] == "a" for d in orbit)))

    def tile_left(d: Dart) -> int:
        return tile_ids[orbit_of[d]]

    # Arrows: edge i is arrow i and half-edge j is arrow len(edges) + j, with
    # the black node on the left. The white-to-black dart has the arrow's
    # tail tile on its left.
    arrows: List[Arrow] = []
    for i, (u, v) in enumerate(graph.edges):
        cu, cv = graph.node_colors[u], graph.node_colors[v]
        if cu == cv:
            raise ValueError(f"edge {i} joins two {cu} nodes")
        d_wb = ("e", i, 0) if cu == WHITE else ("e", i, 1)
        arrows.append(Arrow(i, tile_left(d_wb), tile_left(alpha(d_wb)), False, None))
    for j, (u, label) in enumerate(graph.half_edges):
        # The marked point takes the colour opposite to its node.
        d_wb = ("h", j, 1) if graph.node_colors[u] == BLACK else ("h", j, 0)
        arrows.append(Arrow(len(arrows), tile_left(d_wb), tile_left(alpha(d_wb)),
                            True, label))

    # Quiver faces: one per graph node; black cycles follow the rotation
    # anticlockwise, white cycles clockwise.
    faces: List[Face] = []
    for fid, node in enumerate(sorted(graph.node_colors)):
        color = graph.node_colors[node]
        cycle = [i if kind == "e" else len(graph.edges) + i
                 for kind, i, _ in rotations[node]]
        if color == WHITE:
            cycle.reverse()
        faces.append(Face(fid, color, tuple(cycle)))
    return DimerModel(tuple(vertices), tuple(arrows), tuple(faces))
