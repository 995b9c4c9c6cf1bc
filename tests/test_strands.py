"""Strand extraction, consistency checking, and tile labels."""

import pytest
from oracles import tiles_reached

from discdimer import fixtures as fx
from discdimer import strands as strands_module
from discdimer.model import opposite, type_of
from discdimer.strands import (Strand, _left_region, boundary_tile, check_postnikov, label_table,
                               necklaces, require_consistent, source_labels,
                               strand_permutation, strands, target_labels)

CONSISTENT_FIXTURES = [n for n in sorted(fx.FIXTURE_BUILDERS) if n != "inconsistent"]

GR37_PERMUTATION = {1: 5, 2: 4, 3: 1, 4: 6, 5: 7, 6: 2, 7: 3}


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES + ["uniform-4-8"])
def test_left_regions_are_the_set_floods(name):
    """Each strand's left region, a vertex mask, holds the tiles the set
    flood reaches from the boundary tiles of [start, end-1] with the
    strand's arrows cut."""
    model = fx.build_uniform(4, 8) if name == "uniform-4-8" else fx.FIXTURE_BUILDERS[name]()
    for s in strands(model):
        seeds, m = [], s.start_label
        while m != s.end_label:
            seeds.append(boundary_tile(model, m))
            m = m % model.n + 1
        region = _left_region(model, s)
        assert ({v.id for p, v in enumerate(model.vertices) if region >> p & 1}
                == tiles_reached(model, seeds, s.arrows))


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES)
def test_consistent_fixtures_pass(name):
    report = check_postnikov(fx.FIXTURE_BUILDERS[name]())
    assert report.passed


def test_strand_arrows_built_once_and_not_part_of_identity(gr37):
    s = strands(gr37)[0]
    assert s.arrows is s.arrows
    assert s.arrows == tuple(aid for aid, _ in s.crossing_sequence)
    fresh = Strand(s.start_label, s.end_label, s.crossing_sequence)
    assert fresh == s and hash(fresh) == hash(s)


def test_inconsistent_fixture_fails(inconsistent):
    report = check_postnikov(inconsistent)
    assert not report.passed
    assert report.closed_loop_arrows  # fails via a closed zig-zag loop
    with pytest.raises(ValueError):
        require_consistent(inconsistent)


def test_gr37_permutation(gr37):
    assert strand_permutation(gr37) == GR37_PERMUTATION


@pytest.mark.parametrize("k,n", [(1, 3), (2, 4), (2, 5), (3, 6), (3, 7), (4, 7)])
def test_uniform_permutation_is_shift(k, n):
    perm = strand_permutation(fx.build_uniform(k, n))
    assert perm == {i: (i + k - 1) % n + 1 for i in range(1, n + 1)}


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES)
def test_strands_cross_every_arrow_twice(name):
    model = fx.FIXTURE_BUILDERS[name]()
    passages = {a.id: 0 for a in model.arrows}
    for s in strands(model):
        for aid in s.arrows:
            passages[aid] += 1
    assert all(c == 2 for c in passages.values())


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES)
def test_label_sizes(name):
    model = fx.FIXTURE_BUILDERS[name]()
    k, n = type_of(model)
    table = label_table(model)
    assert table.k == k and table.n == n
    assert all(len(lab) == k for lab in table.source.values())
    assert all(len(lab) == k for lab in table.target.values())
    assert set(table.source) == {v.id for v in model.vertices}


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES)
def test_boundary_tile_labels_are_necklaces(name):
    model = fx.FIXTURE_BUILDERS[name]()
    sneck, tneck = necklaces(model)
    src, tgt = source_labels(model), target_labels(model)
    n = model.n
    for m in range(1, n + 1):
        tile = boundary_tile(model, m)
        assert src[tile] == sneck[m]
        assert tgt[tile] == tneck[m]


def test_target_labels_are_permuted_sources(gr37):
    # target label of a tile = image of its source label under the strand
    # permutation of the opposite reading: each source strand contributes
    # its endpoint.
    perm = strand_permutation(gr37)
    src, tgt = source_labels(gr37), target_labels(gr37)
    for v, lab in src.items():
        assert tgt[v] == frozenset(perm[i] for i in lab)


def test_opposite_complements_labels(gr37):
    # reversing all strands swaps source/target and complements each label
    # (the opposite model has type (n-k, n))
    op = opposite(gr37)
    full = frozenset(range(1, 8))
    assert source_labels(op) == {v: full - lab for v, lab in target_labels(gr37).items()}
    assert target_labels(op) == {v: full - lab for v, lab in source_labels(gr37).items()}


def test_a_walk_ending_on_an_internal_arrow_is_a_value_error(monkeypatch):
    """The end-of-strand check is an explicit error, so it also holds under
    `python -O`."""
    turns = strands_module._turns
    monkeypatch.setattr(strands_module, "_turns", lambda model: {
        color: {aid: nxt for aid, nxt in table.items() if model.arrow(aid).is_boundary}
        for color, table in turns(model).items()})
    with pytest.raises(ValueError, match="ends on internal arrow"):
        strands(fx.gr37())


def test_a_walk_that_never_ends_is_a_value_error(monkeypatch):
    model = fx.gr37()
    internal = model.internal_arrows[0].id
    turns = strands_module._turns
    monkeypatch.setattr(strands_module, "_turns", lambda model: {
        color: dict.fromkeys(table, internal) for color, table in turns(model).items()})
    with pytest.raises(ValueError, match="fails to terminate"):
        strands(model)
