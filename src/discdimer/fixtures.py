"""Bundled example models.

- triangle: the smallest valid disc model (three clockwise boundary arrows
  around one white face).
- gr37: the running example of type (3,7), given as the rotation system of
  its bipartite graph.
- inconsistent: a type (1,3) dimer model whose strand diagram violates the
  consistency axioms, given as a rotation system.
- build_uniform(k, n): the dual of the k x (n-k) grid of square tiles cut to
  the disc, with strand permutation i -> i+k; its rotation system is built
  box by box.

Every model but the triangle goes through `plabic.to_dimer_model`. A face's
boundary cycle starts at the first dart of its node's rotation, so the dart
lists are part of each fixture's identity.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .model import BLACK, WHITE, Arrow, DimerModel, Face, Vertex
from .plabic import Dart, EmbeddedPlabicGraph, to_dimer_model


def triangle() -> DimerModel:
    vertices = (Vertex(0, True), Vertex(1, True), Vertex(2, True))
    arrows = (Arrow(0, 0, 1, True, 1), Arrow(1, 1, 2, True, 2), Arrow(2, 2, 0, True, 3))
    faces = (Face(0, WHITE, (0, 1, 2)),)
    return DimerModel(vertices, arrows, faces)


def gr37() -> DimerModel:
    """Type (3,7) example: 4 white and 5 black nodes, 11 edges, 7 half-edges."""
    graph = EmbeddedPlabicGraph(
        node_colors={8: WHITE, 10: WHITE, 12: WHITE, 15: WHITE,
                     9: BLACK, 11: BLACK, 13: BLACK, 14: BLACK, 16: BLACK},
        edges=[(8, 9), (9, 10), (10, 11), (11, 12), (12, 13), (13, 8),
               (14, 15), (15, 16), (12, 14), (13, 15), (8, 16)],
        half_edges=[(8, 4), (9, 3), (10, 2), (11, 1), (14, 7), (15, 6), (16, 5)],
        boundary_order=[6, 5, 4, 3, 2, 1, 7],
        rotations={
            8: [("h", 0, 0), ("e", 0, 0), ("e", 5, 1), ("e", 10, 0)],
            10: [("e", 1, 1), ("h", 2, 0), ("e", 2, 0)],
            12: [("e", 8, 0), ("e", 4, 0), ("e", 3, 1)],
            15: [("h", 5, 0), ("e", 7, 0), ("e", 9, 1), ("e", 6, 1)],
            9: [("e", 0, 1), ("h", 1, 0), ("e", 1, 0)],
            11: [("e", 3, 0), ("e", 2, 1), ("h", 3, 0)],
            13: [("e", 9, 0), ("e", 5, 0), ("e", 4, 1)],
            14: [("e", 6, 0), ("e", 8, 1), ("h", 4, 0)],
            16: [("h", 6, 0), ("e", 10, 1), ("e", 7, 1)],
        })
    return to_dimer_model(graph)


def inconsistent() -> DimerModel:
    """A valid dimer model of type (1,3) whose strands double-cross."""
    graph = EmbeddedPlabicGraph(
        node_colors={0: WHITE, 11: WHITE, 12: WHITE, 13: WHITE,
                     21: BLACK, 22: BLACK, 23: BLACK},
        edges=[(0, 21), (0, 22), (0, 23),
               (11, 21), (12, 22), (13, 23),
               (11, 22), (12, 23), (13, 21)],
        half_edges=[(11, 2), (12, 1), (13, 3)],
        boundary_order=[3, 2, 1],
        rotations={
            0: [("e", 0, 0), ("e", 1, 0), ("e", 2, 0)],
            11: [("e", 3, 0), ("h", 0, 0), ("e", 6, 0)],
            12: [("e", 7, 0), ("e", 4, 0), ("h", 1, 0)],
            13: [("h", 2, 0), ("e", 8, 0), ("e", 5, 0)],
            21: [("e", 8, 1), ("e", 3, 1), ("e", 0, 1)],
            22: [("e", 1, 1), ("e", 6, 1), ("e", 4, 1)],
            23: [("e", 5, 1), ("e", 2, 1), ("e", 7, 1)],
        })
    return to_dimer_model(graph)


def build_uniform(k: int, n: int) -> DimerModel:
    """The uniform model of type (k, n): strand permutation i -> i+k (mod n).

    Built from a wiring of the k x (n-k) rectangle of boxes: k row wires
    (row r enters at box (r, 1) and exits the right edge) and n-k column
    wires (column c enters at box (1, c) and exits the bottom edge). Every
    box except the top-left bend resolves its wire junction into a two-node
    bipartite pair joined by an internal edge: the lower-left node carries
    the west and south ports, the upper-right node the east and north ports
    (missing ports on the boundary rows/columns just lower the degree). The
    bend at box (1, 1) is contracted to a single wire. Lower-left nodes
    (even ids) are white and upper-right nodes (odd ids) black.
    Type (1, 2) raises ValueError: its rectangle is the bend alone.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    width = n - k
    if (k, n) == (1, 2):
        raise ValueError("cannot build type (1, 2): its 1 x 1 rectangle is only "
                         "the contracted bend, with no node")

    # Port keys are (r, c, side) with side in E/N/W/S; intra-pair stubs are
    # ("x", r, c, end). Rotation angles: E=0, N=90, W=180, S=270; the intra
    # edge leaves the lower-left node at 45 and the upper-right at 225.
    angle = {"E": 0, "N": 90, "W": 180, "S": 270}
    port_node: Dict[Tuple, int] = {}
    node_order: Dict[int, List[Tuple[int, Tuple]]] = {}
    connections: List[Tuple[Tuple, Tuple]] = []
    for r in range(1, k + 1):
        for c in range(1, width + 1):
            if (r, c) == (1, 1):
                continue
            sides = {"E", "S"}
            if c > 1:
                sides.add("W")
            if r > 1:
                sides.add("N")
            low, high = len(node_order), len(node_order) + 1
            low_ports = [(angle[s], (r, c, s)) for s in sides & {"W", "S"}]
            high_ports = [(angle[s], (r, c, s)) for s in sides & {"E", "N"}]
            node_order[low] = sorted(low_ports + [(45, ("x", r, c, 0))])
            node_order[high] = sorted(high_ports + [(225, ("x", r, c, 1))])
            for v in (low, high):
                port_node.update((key, v) for _, key in node_order[v])
            connections.append((("x", r, c, 0), ("x", r, c, 1)))
    for r in range(1, k + 1):
        for c in range(1, width):
            connections.append(((r, c, "E"), (r, c + 1, "W")))
        connections.append(((r, width, "E"), ("label", r)))
    for c in range(1, width + 1):
        for r in range(1, k):
            connections.append(((r, c, "S"), (r + 1, c, "N")))
        connections.append(((k, c, "S"), ("label", n - c + 1)))

    # Contract the bend: splice together the two connections meeting (1, 1).
    loose = [other for a, b in connections for this, other in ((a, b), (b, a))
             if this[:2] == (1, 1) and this[0] != "x" and this[0] != "label"]
    connections = [(a, b) for a, b in connections
                   if a[:2] != (1, 1) and b[:2] != (1, 1)]
    connections.append((loose[0], loose[1]))

    # Wire exit positions anticlockwise are n, n-1, ..., 1; relabel so the
    # strand permutation comes out as i -> i + k.
    relabel = {n - p: (-p) % n + 1 for p in range(n)}

    edges: List[Tuple[int, int]] = []
    half_edges: List[Tuple[int, int]] = []
    dart_for_port: Dict[Tuple, Dart] = {}
    for a, b in connections:
        if a[0] == "label":
            a, b = b, a
        if b[0] == "label":
            dart_for_port[a] = ("h", len(half_edges), 0)
            half_edges.append((port_node[a], relabel[b[1]]))
        else:
            i = len(edges)
            edges.append((port_node[a], port_node[b]))
            dart_for_port[a] = ("e", i, 0)
            dart_for_port[b] = ("e", i, 1)
    rotations = {v: [dart_for_port[key] for _, key in order]
                 for v, order in node_order.items()}

    # Every edge joins a lower-left (even) node to an upper-right (odd) one.
    node_colors = {v: (WHITE if v % 2 == 0 else BLACK) for v in node_order}
    boundary_order = [relabel[n - p] for p in range(n)]
    graph = EmbeddedPlabicGraph(node_colors, edges, half_edges,
                                boundary_order, rotations)
    return to_dimer_model(graph)


FIXTURE_BUILDERS = {
    "triangle": triangle,
    "gr37": gr37,
    "inconsistent": inconsistent,
    "uniform-1-3": lambda: build_uniform(1, 3),
    "uniform-2-4": lambda: build_uniform(2, 4),
    "uniform-2-5": lambda: build_uniform(2, 5),
    "uniform-3-6": lambda: build_uniform(3, 6),
}
