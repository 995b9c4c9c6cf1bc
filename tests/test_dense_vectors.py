"""The per-matching linear vectors that the library keeps dense, indexed by
vertex position, against their dict forms in `oracles`, on every matching
of five models; and η∘d = β against the coboundary oracle."""

import oracles
import pytest

from discdimer import fixtures as fx
from discdimer import lattice_maps
from discdimer.kclass_weights import kclass_of_matching, weights
from discdimer.lattice_maps import (KClass, beta_matrix, check_cluster_ensemble, eta_matrix,
                                    lattice_basis)
from discdimer.matchings import _enumeration, _matching_of
from discdimer.model import BLACK, WHITE, opposite, standardise
from discdimer.partition_functions import _ms_exponents, _poly, _twist_exponents

ORACLE_MODELS = ["triangle", "gr37", "uniform-2-5", "uniform-3-6", "uniform-4-8"]


def build(name):
    return (fx.FIXTURE_BUILDERS[name]() if name in fx.FIXTURE_BUILDERS
            else fx.build_uniform(*map(int, name.split("-")[1:])))


@pytest.mark.parametrize("name", ORACLE_MODELS)
def test_classes_and_weights_equal_the_dict_forms(name):
    model = build(name)
    std = standardise(model, WHITE)
    for m in (model, std):
        for mu_mask in _enumeration(m)[0]:
            assert kclass_of_matching(m, _matching_of(m, mu_mask)) == oracles._matching_class(
                m, mu_mask)
    for mu_mask in _enumeration(std)[0]:
        wt, wtd = oracles._weights(std, mu_mask)
        # The dict form keeps a vertex whose terms cancel, at 0; the public
        # `weights` lists the nonzero coefficients.
        assert weights(std, _matching_of(std, mu_mask), WHITE) == (
            KClass(tuple((v, e) for v, e in wt.coefficients if e)), wtd)


@pytest.mark.parametrize("name", ORACLE_MODELS)
def test_partition_sums_equal_the_dict_forms(name):
    """MS°, the twist sum and MS° as the shifted twist sum on the white
    standardisation; MS• on its opposite and on the black standardisation;
    each over the matchings of every boundary value."""
    model = build(name)
    std = standardise(model, WHITE)
    for I, pool in _enumeration(std)[1].items():
        assert _poly(std, _ms_exponents(std, pool)) == oracles._ms_sum(std, pool)
        assert _poly(std, _twist_exponents(std, pool)) == oracles._twist_sum(std, pool)
        assert _poly(std, _twist_exponents(std, pool, I)) == oracles._ms_white_v2_sum(
            std, I, pool)
    for black in (opposite(std), standardise(model, BLACK)):
        for pool in _enumeration(black)[1].values():
            assert _poly(black, _ms_exponents(black, pool)) == oracles._ms_sum(black, pool)


@pytest.mark.parametrize("name", ORACLE_MODELS + ["inconsistent"])
def test_the_eta_matrix_equals_the_dict_form(name):
    model = build(name)
    vertices = [v.id for v in model.vertices]  # vertex position
    columns = [oracles._eta(model, b.deg, b.as_dict()).as_dict() for b in lattice_basis(model)]
    assert eta_matrix(model) == tuple(tuple(c[v] for c in columns) for v in vertices)


@pytest.mark.parametrize("name", ORACLE_MODELS + ["inconsistent"])
def test_eta_of_each_coboundary_equals_the_oracle(name):
    """check_cluster_ensemble sums η's columns for η(d 1_i); the oracle
    builds d 1_i as a lattice point and applies the dict form of η to it."""
    model = build(name)
    vertices = [v.id for v in model.vertices]  # vertex position
    beta = beta_matrix(model)
    agree = all(oracles._eta(model, 0, oracles.coboundary(model, {i: 1}).as_dict()).as_dict()
                == {v: beta[r][c] for r, v in enumerate(vertices)}
                for c, i in enumerate(vertices))
    assert agree and check_cluster_ensemble(model).eta_d_equals_beta


def test_an_eta_column_without_its_tail_fails_eta_d_equals_beta(monkeypatch):
    model = fx.gr37()
    base, columns = lattice_maps._eta_columns(model)
    k = next(k for k, column in enumerate(columns) if len(column) == 2)  # an internal arrow
    columns = columns[:k] + (columns[k][:1],) + columns[k + 1:]
    monkeypatch.setattr(lattice_maps, "_eta_columns", lambda m: (base, columns))
    assert not check_cluster_ensemble(model).eta_d_equals_beta
