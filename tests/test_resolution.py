"""Graded resolution pieces, exactness, saturation, and rotation."""

import dataclasses

import pytest

from discdimer import fixtures as fx
from discdimer.matchings import enumerate_matchings
from discdimer.model import opposite
from discdimer.resolution import (GradedComplexPiece, check_resolution,
                                  degrees_toward, graded_piece,
                                  merged_complex_data, reachable_set,
                                  rotate_matching, saturation_degree)

CONSISTENT_FIXTURES = [n for n in sorted(fx.FIXTURE_BUILDERS) if n != "inconsistent"]


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


def per_piece_report(model, mu):
    """Oracle for check_resolution: every (vertex, degree) piece built and
    decided afresh by graded_piece, and the Euler series summed directly."""
    degrees = {v.id: degrees_toward(model, mu, v.id) for v in model.vertices}
    d_max = max(max(dist.values()) for dist in degrees.values()) + 1
    failures = [(v.id, d) for v in model.vertices for d in range(d_max + 1)
                if not graded_piece(model, mu, v.id, d).is_exact()]
    q1, q2 = merged_complex_data(model, mu)
    euler_failures = []
    for v in model.vertices:
        dist = degrees[v.id]
        series = {}
        terms = ([(dist[j], 1) for j in dist]
                 + [(dist[model.arrow(a).head], -1) for a in q1]
                 + [(dist[r.head], 1) for r in q2])
        for e, c in terms:
            series[e] = series.get(e, 0) + c
        if {e: c for e, c in series.items() if c} != {0: 1}:
            euler_failures.append(v.id)
    return d_max, len(model.vertices) * (d_max + 1), failures, euler_failures


def report_tuple(report):
    return report.d_max, report.pieces_checked, report.failures, report.euler_failures


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES)
def test_memoised_check_equals_per_piece_recomputation(name):
    model = fx.FIXTURE_BUILDERS[name]()
    for mu in enumerate_matchings(model):
        assert report_tuple(check_resolution(model, mu)) == per_piece_report(model, mu)


@pytest.mark.parametrize("name", ["gr37", "uniform-2-5"])
def test_memoised_failures_reach_every_piece_sharing_the_set(name, monkeypatch):
    """With exactness replaced by an arbitrary rule of the piece, the
    memoised check still reports exactly the (vertex, degree) pairs whose
    own piece fails the rule."""
    monkeypatch.setattr(GradedComplexPiece, "is_exact",
                        lambda piece: len(piece.c0) % 3 != 1)
    model = fx.FIXTURE_BUILDERS[name]()
    for mu in enumerate_matchings(model)[:10]:
        expected = per_piece_report(model, mu)
        assert expected[2]
        assert report_tuple(check_resolution(model, mu)) == expected


def test_a_flipped_delta2_sign_is_inexact(gr37):
    mu = enumerate_matchings(gr37)[0]
    v = gr37.vertices[0].id
    piece = graded_piece(gr37, mu, v, saturation_degree(gr37, mu))
    assert piece.c2 and piece.is_exact()
    entries = [(m, c) for m, row in enumerate(piece.delta2)
               for c, x in enumerate(row) if x]
    assert entries
    for m, c in entries:
        delta2 = [list(row) for row in piece.delta2]
        delta2[m][c] = -delta2[m][c]
        mutated = dataclasses.replace(piece, delta2=tuple(map(tuple, delta2)))
        assert not mutated.is_exact(), (m, c)
