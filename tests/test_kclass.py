"""Downstream wedges, distinguished matchings, classes, and weights."""

import pytest
from oracles import euler_class, tiles_reached

from discdimer import fixtures as fx
from discdimer import kclass_weights as kclass_module
from discdimer import matchings as matchings_module
from discdimer.kclass_weights import (downstream_wedge, kclass_of_matching,
                                      muller_speyer_matching,
                                      projective_matching_oracle,
                                      upstream_matching, weight_table, weights)
from discdimer.lattice_maps import eta_inverse_basis, lattice_point_of_matching
from discdimer.matchings import Matching, boundary_value, enumerate_matchings
from discdimer.model import WHITE, opposite, standardise
from discdimer.partition_functions import ms_formula
from discdimer.strands import source_labels, strands, target_labels

CONSISTENT_FIXTURES = [n for n in sorted(fx.FIXTURE_BUILDERS) if n != "inconsistent"]
MODELS = {**fx.FIXTURE_BUILDERS, **{f"uniform-{k}-{n}": lambda k=k, n=n: fx.build_uniform(k, n)
                                   for k, n in [(3, 7), (4, 8), (4, 9)]}}


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES)
def test_wedges_partition_each_face(name):
    # around any face, each vertex lies in the wedge of exactly one arrow
    model = fx.FIXTURE_BUILDERS[name]()
    wedges = {a.id: downstream_wedge(model, a.id).members for a in model.arrows}
    for face in model.faces:
        for v in model.vertices:
            hits = [a for a in face.boundary_cycle if v.id in wedges[a]]
            assert len(hits) == 1


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES + ["uniform-3-7", "uniform-4-8",
                                                         "uniform-4-9"])
def test_wedge_matchings_agree_with_one_wedge_per_arrow(name):
    """The per-model membership table gives, for every tile and on the
    model and its opposite, the arrows whose own downstream wedge holds it."""
    model = MODELS[name]()
    for m in (model, opposite(model)):
        wedges = {a.id: downstream_wedge(m, a.id).members for a in m.arrows}
        for v in m.vertices:
            expected = frozenset(aid for aid, members in wedges.items() if v.id in members)
            assert muller_speyer_matching(m, v.id).arrow_set == expected


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES + ["uniform-4-8"])
def test_wedges_are_the_set_floods(name):
    """Each downstream wedge holds the tiles the set flood reaches from the
    arrow's head with the arrow and both tendrils cut."""
    model = MODELS[name]()
    for a in model.arrows:
        cut = {a.id}
        for s in strands(model):
            if a.id in s.arrows:
                cut.update(s.arrows[s.arrows.index(a.id) + 1:])
        assert downstream_wedge(model, a.id).members == tiles_reached(model, [a.head], cut)


def test_wedge_matching_errors_are_unchanged(inconsistent, gr37):
    with pytest.raises(ValueError, match="model is not consistent"):
        muller_speyer_matching(inconsistent, inconsistent.vertices[0].id)
    with pytest.raises(ValueError, match="wedge membership at vertex 999 did not produce"):
        muller_speyer_matching(gr37, 999)


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES)
def test_three_way_matching_equality(name):
    model = fx.FIXTURE_BUILDERS[name]()
    inverse = eta_inverse_basis(model)
    for v in model.vertices:
        wedge_mu = muller_speyer_matching(model, v.id).arrow_set
        inv_mu = frozenset(a for a, x in inverse[v.id].values if x == 1)
        oracle_mu = projective_matching_oracle(model, v.id).arrow_set
        assert wedge_mu == inv_mu == oracle_mu


@pytest.mark.parametrize("name", sorted(fx.FIXTURE_BUILDERS))
def test_the_oracle_reference_is_the_first_matching_and_enumerates_nothing(name, monkeypatch):
    """The default μ0 is the first matching in canonical order, found by a
    search that stops there: the oracle gives what it gives with the first
    enumerated matching, at every vertex, and never enumerates."""
    reference = fx.FIXTURE_BUILDERS[name]()
    first = enumerate_matchings(reference)[0]
    expected = {}
    for v in reference.vertices:
        try:
            expected[v.id] = projective_matching_oracle(reference, v.id, first)
        except ValueError as exc:
            expected[v.id] = str(exc)

    def enumeration(model):
        raise AssertionError("enumerated every matching")

    monkeypatch.setattr(matchings_module, "_enumeration", enumeration)
    monkeypatch.setattr(kclass_module, "_enumeration", enumeration, raising=False)
    model = fx.FIXTURE_BUILDERS[name]()
    for v in model.vertices:
        try:
            assert projective_matching_oracle(model, v.id) == expected[v.id]
        except ValueError as exc:
            assert str(exc) == expected[v.id]


def test_oracle_independent_of_reference(gr37):
    pool = enumerate_matchings(gr37)
    for v in list(gr37.vertices)[:4]:
        results = {projective_matching_oracle(gr37, v.id, mu0).arrow_set
                   for mu0 in pool[:5]}
        assert len(results) == 1


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES)
def test_wedge_matching_boundaries_are_labels(name):
    model = fx.FIXTURE_BUILDERS[name]()
    src, tgt = source_labels(model), target_labels(model)
    for v in model.vertices:
        down = muller_speyer_matching(model, v.id)
        assert boundary_value(model, down) == src[v.id]
        up = upstream_matching(model, v.id)
        assert boundary_value(model, up) == tgt[v.id]


def test_gr37_internal_upstream_values(gr37):
    internal = [v.id for v in gr37.vertices if not v.is_boundary]
    values = {boundary_value(gr37, upstream_matching(gr37, j)) for j in internal}
    assert values == {frozenset({1, 3, 5}), frozenset({1, 3, 7}), frozenset({1, 5, 7})}


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES + ["uniform-3-7", "uniform-4-8"])
def test_kclass_equals_eta(name):
    # [N_mu] = eta(mu), computed by the one eta formula, against the class
    # read off the resolution data
    model = MODELS[name]()
    for mu in enumerate_matchings(model):
        cls = kclass_of_matching(model, mu)
        assert {v: c for v, c in cls.coefficients if c} == euler_class(model, mu)


@pytest.mark.parametrize("name", ["gr37", "uniform-2-4", "uniform-2-5"])
def test_weight_identity(name):
    # [N_mu] = wtD + sum over boundary labels in the boundary value of
    # p_head - wt(mu), on the white-standardised model
    model = standardise(fx.FIXTURE_BUILDERS[name](), WHITE)
    for mu in enumerate_matchings(model):
        wt, wtd = weights(model, mu, WHITE)
        expect = {v: -e for v, e in wt.as_dict().items()}
        for v, e in wtd.as_dict().items():
            expect[v] = expect.get(v, 0) + e
        for i in boundary_value(model, mu):
            h = model.boundary_arrow_with_label(i).head
            expect[h] = expect.get(h, 0) + 1
        cls = kclass_of_matching(model, mu).as_dict()
        assert ({v: e for v, e in expect.items() if e}
                == {v: e for v, e in cls.items() if e})


@pytest.mark.parametrize("name", ["gr37", "uniform-2-4"])
def test_weight_double_formula(name):
    # wt(mu) also equals the sum of truncated-cycle weights of the matched
    # internal arrows
    model = standardise(fx.FIXTURE_BUILDERS[name](), WHITE)
    table = weight_table(model, WHITE)
    for mu in enumerate_matchings(model):
        wt, _ = weights(model, mu, WHITE)
        alt = {}
        for a in model.internal_arrows:
            if a.id in mu.arrow_set:
                for v, e in table[a.id].as_dict().items():
                    alt[v] = alt.get(v, 0) + e
        assert ({v: e for v, e in wt.as_dict().items() if e}
                == {v: e for v, e in alt.items() if e})


def test_a_colour_other_than_black_or_white_is_rejected(gr37):
    """Not read as the black convention, nor blamed on standardisation."""
    model = standardise(gr37, WHITE)
    mu = enumerate_matchings(model)[0]
    for call in (lambda: weight_table(model, "red"), lambda: weights(model, mu, "red"),
                 lambda: ms_formula(model, [1, 3, 5], "red")):
        with pytest.raises(ValueError, match=r"^bad colour 'red'$"):
            call()


def test_weights_require_standardised(gr37):
    mu = enumerate_matchings(gr37)[0]
    with pytest.raises(ValueError):
        weights(gr37, mu, WHITE)


def test_public_functions_reject_a_non_matching(gr37):
    model = standardise(gr37, WHITE)
    mu = enumerate_matchings(model)[0]
    bad = Matching(mu.arrow_set | {999})
    for fn in (weights, kclass_of_matching, lattice_point_of_matching):
        with pytest.raises(ValueError, match="^arrow set is not a perfect matching$"):
            fn(model, bad)
