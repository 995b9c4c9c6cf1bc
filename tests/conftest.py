"""Shared fixtures and independent brute-force oracles for the test suite."""

from itertools import product
from typing import Dict, FrozenSet, List, Set

import pytest

from discdimer import fixtures as fx
from discdimer.model import DimerModel
from discdimer.resolution import merged_complex_data


@pytest.fixture(scope="session")
def triangle() -> DimerModel:
    return fx.triangle()


@pytest.fixture(scope="session")
def gr37() -> DimerModel:
    return fx.gr37()


@pytest.fixture(scope="session")
def inconsistent() -> DimerModel:
    return fx.inconsistent()


@pytest.fixture(scope="session")
def u13() -> DimerModel:
    return fx.build_uniform(1, 3)


@pytest.fixture(scope="session")
def u24() -> DimerModel:
    return fx.build_uniform(2, 4)


@pytest.fixture(scope="session")
def u25() -> DimerModel:
    return fx.build_uniform(2, 5)


@pytest.fixture(scope="session")
def u36() -> DimerModel:
    return fx.build_uniform(3, 6)


def brute_force_matchings(model: DimerModel) -> Set[FrozenSet[int]]:
    """Independent oracle: pick one arrow per face by brute cartesian
    product and keep the selections whose union meets every face once."""
    faces = sorted(model.faces, key=lambda f: f.id)
    out: Set[FrozenSet[int]] = set()
    for choice in product(*[f.boundary_cycle for f in faces]):
        chosen = frozenset(choice)
        if all(sum(1 for a in f.boundary_cycle if a in chosen) == 1 for f in faces):
            out.add(chosen)
    return out


def euler_class(model: DimerModel, mu) -> Dict[int, int]:
    """[N_mu] read off the resolution data, without η: one projective per
    vertex, minus one per unmatched arrow head, plus one per merged-face
    head; zero coefficients left out."""
    q1, q2 = merged_complex_data(model, mu)
    coeffs = {v.id: 1 for v in model.vertices}
    for aid in q1:
        coeffs[model.arrow(aid).head] -= 1
    for r in q2:
        coeffs[r.head] += 1
    return {v: c for v, c in coeffs.items() if c}


def enumerate_dual_covers(dual) -> Set[FrozenSet[int]]:
    """All sets of dual arrows (edges and half-edges, identified by the
    underlying arrow id) covering every dual node exactly once."""
    nodes = sorted((n.face_id, n.color) for n in dual.nodes)
    incident = {key: [] for key in nodes}
    endpoints = {}
    for e in dual.edges:
        ends = [key for key in ((e.black_face, "black"), (e.white_face, "white"))
                if key in incident]
        endpoints.setdefault(e.arrow_id, []).extend(ends)
    for h in dual.half_edges:
        for key in incident:
            if key[0] == h.face_id:
                endpoints.setdefault(h.arrow_id, []).append(key)
    for aid, ends in endpoints.items():
        for key in ends:
            incident[key].append(aid)
    out: Set[FrozenSet[int]] = set()

    def descend(pos: int, covered: Set, chosen: List[int]) -> None:
        while pos < len(nodes) and nodes[pos] in covered:
            pos += 1
        if pos == len(nodes):
            out.add(frozenset(chosen))
            return
        node = nodes[pos]
        for aid in incident[node]:
            ends = endpoints[aid]
            if any(e in covered for e in ends):
                continue
            covered.update(ends)
            chosen.append(aid)
            descend(pos + 1, covered, chosen)
            chosen.pop()
            covered.difference_update(ends)

    descend(0, set(), [])
    return out
