"""Bundled example models.

- triangle: the smallest valid disc model (three clockwise boundary arrows
  around one white face).
- gr37: the running example of type (3,7), generated from its embedded
  bipartite graph.
- inconsistent: a type (1,3) dimer model whose strand diagram violates the
  consistency axioms.
- build_uniform(k, n): the dual of the k x (n-k) grid of square tiles cut to
  the disc, with strand permutation i -> i+k.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from .model import BLACK, WHITE, Arrow, DimerModel, Face, Vertex
from .plabic import Dart, EmbeddedPlabicGraph, from_coordinates, to_dimer_model


def triangle() -> DimerModel:
    vertices = (Vertex(0, True), Vertex(1, True), Vertex(2, True))
    arrows = (Arrow(0, 0, 1, True, 1), Arrow(1, 1, 2, True, 2), Arrow(2, 2, 0, True, 3))
    faces = (Face(0, WHITE, (0, 1, 2)),)
    return DimerModel(vertices, arrows, faces)


def _polar(angle_deg: float, radius: float) -> Tuple[float, float]:
    rad = math.radians(angle_deg)
    return radius * math.cos(rad), radius * math.sin(rad)


def _flip(p: Tuple[float, float]) -> Tuple[float, float]:
    return p[0], -p[1]


def gr37() -> DimerModel:
    """Type (3,7) example: 4 white and 5 black nodes, 11 edges, 7 half-edges."""
    seventh = 360.0 / 7.0
    angle_offsets = {1: 0.0, 2: 0.0, 3: 5.0, 4: 10.0, 5: 0.0, 6: -3.0, 7: 0.0}
    marked_raw = {i: _polar(120.0 - seventh * i + angle_offsets[i], 1.0)
                  for i in range(1, 8)}
    marked_labels = {1: 4, 2: 3, 3: 2, 4: 1, 5: 7, 6: 6, 7: 5}

    def scaled(i: int, s: float = 0.65) -> Tuple[float, float]:
        x, y = marked_raw[i]
        return s * x, s * y

    pos: Dict[int, Tuple[float, float]] = {
        8: scaled(1), 9: scaled(2), 10: scaled(3), 11: scaled(4),
        14: scaled(5), 15: scaled(6), 16: scaled(7),
    }
    nudges = {11: (0.05, 0.02), 14: (-0.07, -0.03), 16: (-0.02, 0.02)}
    for node, (dx, dy) in nudges.items():
        x, y = pos[node]
        pos[node] = (x + dx, y + dy)
    pos[13] = (pos[15][0] - pos[16][0] + pos[8][0] - 0.03,
               pos[15][1] - pos[16][1] + pos[8][1] - 0.03)
    pos[12] = (pos[14][0] - pos[15][0] + pos[13][0] - 0.22,
               pos[14][1] - pos[15][1] + pos[13][1])

    colors = {8: WHITE, 10: WHITE, 12: WHITE, 15: WHITE,
              9: BLACK, 11: BLACK, 13: BLACK, 14: BLACK, 16: BLACK}
    edges = [(8, 9), (9, 10), (10, 11), (11, 12), (12, 13), (13, 8),
             (14, 15), (15, 16), (12, 14), (13, 15), (8, 16)]
    half_nodes = {1: 8, 2: 9, 3: 10, 4: 11, 5: 14, 6: 15, 7: 16}
    half_edges = [(half_nodes[i], marked_labels[i], _flip(marked_raw[i]))
                  for i in range(1, 8)]
    graph = from_coordinates(colors, {v: _flip(p) for v, p in pos.items()},
                             edges, half_edges)
    return to_dimer_model(graph)


def inconsistent() -> DimerModel:
    """A valid dimer model of type (1,3) whose strands double-cross."""
    marked_raw = {i: _polar(120.0 - 120.0 * i, 1.0) for i in range(1, 4)}
    marked_labels = {1: 2, 2: 1, 3: 3}
    pos: Dict[int, Tuple[float, float]] = {0: (0.0, 0.0)}
    for i in range(1, 4):
        pos[10 + i] = _polar(120.0 - 120.0 * i, 0.75)
        pos[20 + i] = _polar(180.0 - 120.0 * i, 0.5)
    colors = {0: WHITE, 11: WHITE, 12: WHITE, 13: WHITE,
              21: BLACK, 22: BLACK, 23: BLACK}
    edges = [(0, 21), (0, 22), (0, 23),
             (11, 21), (12, 22), (13, 23),
             (11, 22), (12, 23), (13, 21)]
    half_edges = [(10 + i, marked_labels[i], _flip(marked_raw[i]))
                  for i in range(1, 4)]
    graph = from_coordinates(colors, {v: _flip(p) for v, p in pos.items()},
                             edges, half_edges)
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
    bend at box (1, 1) is contracted to a single wire. The resulting graph
    is two-coloured by parity and read as an embedded bipartite graph.
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
    next_node = 0
    for r in range(1, k + 1):
        for c in range(1, width + 1):
            if (r, c) == (1, 1):
                continue
            sides = {"E", "S"}
            if c > 1:
                sides.add("W")
            if r > 1:
                sides.add("N")
            low, high = next_node, next_node + 1
            next_node += 2
            low_ports = [(angle[s], (r, c, s)) for s in sides & {"W", "S"}]
            high_ports = [(angle[s], (r, c, s)) for s in sides & {"E", "N"}]
            node_order[low] = sorted(low_ports + [(45, ("x", r, c, 0))])
            node_order[high] = sorted(high_ports + [(225, ("x", r, c, 1))])
            for _, key in low_ports:
                port_node[key] = low
            for _, key in high_ports:
                port_node[key] = high
            port_node[("x", r, c, 0)] = low
            port_node[("x", r, c, 1)] = high
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

    parity: Dict[int, int] = {0: 0}
    adjacency: Dict[int, List[int]] = {v: [] for v in node_order}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adjacency[u]:
            if v not in parity:
                parity[v] = 1 - parity[u]
                stack.append(v)
    node_colors = {v: (WHITE if parity[v] == 0 else BLACK) for v in node_order}
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
