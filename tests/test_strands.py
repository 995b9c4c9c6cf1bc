"""Strand extraction, consistency checking, and tile labels."""

import dataclasses

import pytest
import oracles
from oracles import tiles_reached

from discdimer import fixtures as fx
from discdimer import strands as strands_module
from discdimer.model import WHITE, Arrow, DimerModel, Face, Vertex, opposite, type_of, validate
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


def test_a_strand_keeps_its_crossings_in_one_field(gr37):
    """A strand is its end labels and the arrows it crosses, nothing else."""
    s = strands(gr37)[0]
    assert [f.name for f in dataclasses.fields(Strand)] == ["start_label", "end_label", "arrows"]
    assert type(s.arrows) is tuple and all(type(aid) is int for aid in s.arrows)
    fresh = Strand(s.start_label, s.end_label, s.arrows)
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


def outcome(tile_of, model, m):
    """The corner at m, or the type and message of the error raised for it."""
    try:
        return tile_of(model, m)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(fx.FIXTURE_BUILDERS) + ["uniform-4-8"])
def test_the_corner_table_is_the_pairwise_oracle(name):
    model = fx.build_uniform(4, 8) if name == "uniform-4-8" else fx.FIXTURE_BUILDERS[name]()
    for m in range(1, model.n + 1):
        assert boundary_tile(model, m) == oracles.boundary_tile(model, m)


def digon() -> DimerModel:
    """A valid model with n = 2: its two boundary arrows share both ends."""
    return DimerModel((Vertex(0, True), Vertex(1, True)),
                      (Arrow(1, 0, 1, True, 1), Arrow(2, 1, 0, True, 2)),
                      (Face(0, WHITE, (1, 2)),))


def test_a_digon_has_no_corner_and_says_so_as_the_oracle_does():
    model = digon()
    assert validate(model).passed and model.n == 2
    for m in (1, 2):
        assert (outcome(boundary_tile, model, m) == outcome(oracles.boundary_tile, model, m)
                == (ValueError, f"boundary arrows {m} and {3 - m} do not share exactly one vertex"))
    with pytest.raises(ValueError, match="^boundary arrows 1 and 2 do not share exactly one vertex$"):
        label_table(model)


def test_a_pair_that_is_no_corner_fails_alone_as_in_the_oracle(gr37):
    """With the labels of two boundary arrows swapped, the model is invalid
    and some pairs share no vertex: each of those m raises, every other m
    still has its corner, as the oracle has."""
    one, two = gr37.boundary_arrow_with_label(1), gr37.boundary_arrow_with_label(2)
    swapped = {one.id: 2, two.id: 1}
    model = DimerModel(gr37.vertices,
                       tuple(Arrow(a.id, a.tail, a.head, True, swapped[a.id])
                             if a.id in swapped else a for a in gr37.arrows),
                       gr37.faces)
    outcomes = [outcome(boundary_tile, model, m) for m in range(1, model.n + 1)]
    assert outcomes == [outcome(oracles.boundary_tile, model, m) for m in range(1, model.n + 1)]
    assert {type(x) for x in outcomes} == {int, tuple}


def test_labels_and_necklaces_pair_each_corner_once_and_scan_no_boundary(monkeypatch):
    """On uniform-4-8, `label_table` and then `necklaces` read every corner
    from one table that asks the label index for each corner's two arrows
    once, and make no pass over the boundary arrows. Pairing the arrows on
    every call made 40 `boundary_tile` calls and 88 boundary scans."""
    model = fx.build_uniform(4, 8)
    validate(model)
    lookups, scans = [], []

    class CountingIndex(dict):
        def get(self, label, default=None):
            lookups.append(label)
            return super().get(label, default)

    object.__setattr__(model, "_arrow_by_label", CountingIndex(model._arrow_by_label))
    boundary = DimerModel.boundary_arrows
    monkeypatch.setattr(DimerModel, "boundary_arrows",
                        property(lambda self: scans.append(1) or boundary.fget(self)))
    label_table(model)
    necklaces(model)
    assert scans == []
    assert lookups == [label for m in range(1, 9) for label in (m, m % 8 + 1)]
