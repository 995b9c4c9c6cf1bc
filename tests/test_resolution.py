"""Graded resolution pieces, exactness, saturation, and rotation."""

import pytest

from discdimer import fixtures as fx
from discdimer.matchings import enumerate_matchings
from discdimer.model import opposite
from discdimer.resolution import (check_resolution, degrees_toward,
                                  graded_piece, merged_complex_data,
                                  reachable_set, rotate_matching,
                                  saturation_degree)


def test_reachable_sets_monotone(gr37):
    mu = enumerate_matchings(gr37)[0]
    for v in list(gr37.vertices)[:5]:
        prev = None
        for d in range(4):
            cur = reachable_set(gr37, mu, v.id, d).members
            assert v.id in cur
            if prev is not None:
                assert prev <= cur
            prev = cur


def test_reachable_set_saturates(gr37):
    mu = enumerate_matchings(gr37)[0]
    sat = saturation_degree(gr37, mu)
    everything = {v.id for v in gr37.vertices}
    for v in gr37.vertices:
        assert reachable_set(gr37, mu, v.id, sat).members == everything


def test_degrees_zero_at_target(gr37):
    mu = enumerate_matchings(gr37)[0]
    for v in gr37.vertices:
        dist = degrees_toward(gr37, mu, v.id)
        assert dist[v.id] == 0
        assert all(x >= 0 for x in dist.values())


def bellman_ford_degrees(model, mu, i):
    """Oracle: the fewest μ-arrows on a directed path j → i, by relaxing
    every arrow until nothing changes."""
    dist = {v.id: float("inf") for v in model.vertices}
    dist[i] = 0
    changed = True
    while changed:
        changed = False
        for a in model.arrows:
            through = dist[a.head] + (a.id in mu.arrow_set)
            if through < dist[a.tail]:
                dist[a.tail] = through
                changed = True
    return dist


@pytest.mark.parametrize("name", ["gr37", "uniform-2-5"])
@pytest.mark.parametrize("reverse", [False, True], ids=["model", "opposite"])
def test_degrees_toward_equal_bellman_ford(name, reverse):
    model = fx.FIXTURE_BUILDERS[name]()
    mu = enumerate_matchings(model)[0]
    if reverse:
        model = opposite(model)
    for v in model.vertices:
        assert degrees_toward(model, mu, v.id) == bellman_ford_degrees(model, mu, v.id)


def test_merged_faces_count(triangle, gr37):
    mu = enumerate_matchings(triangle)[0]
    _, q2 = merged_complex_data(triangle, mu)
    assert q2 == ()  # no internal matched arrows in the triangle
    for mu in enumerate_matchings(gr37):
        q1, q2 = merged_complex_data(gr37, mu)
        internal_matched = sum(1 for a in gr37.internal_arrows
                               if a.id in mu.arrow_set)
        assert len(q2) == internal_matched
        assert len(q1) == len(gr37.arrows) - len(mu.arrow_set)


def test_graded_piece_composition_is_zero(gr37):
    # delta1 . delta2 = 0 for the restricted complexes
    for mu in enumerate_matchings(gr37)[:5]:
        for v in list(gr37.vertices)[:4]:
            for d in range(3):
                piece = graded_piece(gr37, mu, v.id, d)
                for c in range(len(piece.c2)):
                    for r in range(len(piece.c0)):
                        total = sum(piece.delta1[r][m] * piece.delta2[m][c]
                                    for m in range(len(piece.c1)))
                        assert total == 0


@pytest.mark.parametrize("name", ["triangle", "uniform-2-4", "gr37"])
def test_all_graded_pieces_exact(name):
    model = fx.FIXTURE_BUILDERS[name]()
    for mu in enumerate_matchings(model):
        report = check_resolution(model, mu)
        assert report.passed, (mu, report.failures, report.euler_failures)


def test_rotation_identity_exhaustive(gr37):
    for mu in enumerate_matchings(gr37):
        sat = saturation_degree(gr37, mu)
        for v in gr37.vertices:
            for d in range(1, sat + 1):
                nu = rotate_matching(gr37, mu, v.id, d)
                assert (reachable_set(gr37, mu, v.id, d).members
                        == reachable_set(gr37, nu, v.id, d - 1).members)


def test_rotation_beyond_saturation_is_identity_like(gr37):
    mu = enumerate_matchings(gr37)[0]
    sat = saturation_degree(gr37, mu)
    v = gr37.vertices[0].id
    nu = rotate_matching(gr37, mu, v, sat + 2)
    # beyond saturation there are no arrows at the degree frontier
    assert nu == mu


def test_rotate_rejects_degree_zero(gr37):
    mu = enumerate_matchings(gr37)[0]
    with pytest.raises(ValueError):
        rotate_matching(gr37, mu, gr37.vertices[0].id, 0)
