"""Bundled fixtures and the rotation-system builder behind them.

The digests pin every fixture's `to_dict` output: arrow ids, tile ids and
each face's first arrow. Tests, CI and users name arrows by id (for example
`--matching 1,3,9,10,15`), so a change to how models are built must leave
these bytes alone.
"""

import hashlib
import json
import re

import pytest

from discdimer import fixtures as fx
from discdimer.model import BLACK, WHITE, to_dict, validate
from discdimer.plabic import EmbeddedPlabicGraph, to_dimer_model


def _dumps(model) -> bytes:
    return json.dumps(to_dict(model), sort_keys=True).encode()


@pytest.mark.parametrize("name,digest", [
    ("triangle", "52e4f8b5f259eb3fd389736c3e6cb07c891709922c3aff0e9bccd6dedbd6d7c2"),
    ("gr37", "462692de611d62fd546d2f38c8c9f2000cf2a3c318ee62847420f59ce4b76315"),
    ("inconsistent", "cbd6c71a4191c6b2b995a2dde8f68360a476d26b10e706bcdeac48a352b5a0f8"),
])
def test_fixture_digest(name, digest):
    assert hashlib.sha256(_dumps(fx.FIXTURE_BUILDERS[name]())).hexdigest() == digest


def test_uniform_digest():
    """One digest over build_uniform(k, n) for 1 <= k < n <= 10, n ascending
    then k ascending, without (1, 2), which has no node."""
    h = hashlib.sha256()
    for n in range(2, 11):
        for k in range(1, n):
            if (k, n) != (1, 2):
                h.update(_dumps(fx.build_uniform(k, n)))
    assert h.hexdigest() == "19ad93e3c5ed43245fa24c34bc361a3d5f3417b9bd6cdb9c0e5a49d493b7ad05"


def _path_graph() -> EmbeddedPlabicGraph:
    """A white node carrying labels 1 and 2, joined to a black node carrying 3."""
    return EmbeddedPlabicGraph(
        node_colors={0: WHITE, 1: BLACK},
        edges=[(0, 1)],
        half_edges=[(0, 1), (0, 2), (1, 3)],
        boundary_order=[1, 2, 3],
        rotations={0: [("h", 0, 0), ("h", 1, 0), ("e", 0, 0)],
                   1: [("e", 0, 1), ("h", 2, 0)]})


def test_path_graph_builds_a_valid_model():
    assert validate(to_dimer_model(_path_graph())).passed


def _unknown_edge(g):
    g.rotations[0].append(("e", 99, 0))


def _missing_node(g):
    del g.rotations[1]


def _unknown_node(g):
    g.rotations[7] = []


def _dropped_dart(g):
    g.rotations[1].remove(("h", 2, 0))


def _duplicated_dart(g):
    g.rotations[0].append(("h", 0, 0))


def _dart_at_wrong_node(g):
    g.rotations[1].remove(("h", 2, 0))
    g.rotations[0].append(("h", 2, 0))


def _same_colour_edge(g):
    g.node_colors[1] = WHITE


def _wrong_boundary_order(g):
    g.boundary_order = [1, 2, 4]


def _repeated_label(g):
    g.half_edges[1] = (0, 1)
    g.boundary_order = [1, 1, 3]


@pytest.mark.parametrize("corrupt,message", [
    (_unknown_edge, "dart ('e', 99, 0) at node 0 is not a dart of the graph"),
    (_missing_node, "node 1 has no rotation"),
    (_unknown_node, "node 7 has a rotation but no colour"),
    (_dropped_dart, "dart ('h', 2, 0) is missing from the rotation at node 1"),
    (_duplicated_dart, "dart ('h', 0, 0) at node 0 is listed twice"),
    (_dart_at_wrong_node, "dart ('h', 2, 0) at node 0 belongs at node 1"),
    (_same_colour_edge, "edge 0 joins two white nodes"),
    (_wrong_boundary_order, "boundary order does not match half-edge labels"),
    (_repeated_label, "or a label repeats"),
])
def test_bad_rotation_system_raises_one_value_error(corrupt, message):
    graph = _path_graph()
    corrupt(graph)
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        to_dimer_model(graph)
    assert "\n" not in str(info.value)
