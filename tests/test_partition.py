"""Laurent polynomials, partition-function identities, and boundary
measurements with Plücker relations."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discdimer import fixtures as fx
from discdimer.matchings import (matchings_with_boundary, positroid,
                                 positroid_contains_necklace_test)
from discdimer.model import BLACK, WHITE, opposite, standardise, type_of
from discdimer.partition_functions import (LaurentPoly, boundary_measurement,
                                           check_plucker_relations,
                                           ms_formula,
                                           ms_formula_white_v2,
                                           musp_twist_expression, specialize,
                                           unit_weights)
from discdimer.strands import source_labels

exp_dicts = st.dictionaries(st.integers(0, 4), st.integers(-3, 3), max_size=3)
polys = st.lists(st.tuples(exp_dicts, st.integers(-5, 5)), max_size=5).map(
    lambda terms: LaurentPoly.from_terms("vertices", terms))


@given(polys, polys)
@settings(max_examples=80, deadline=None)
def test_poly_addition_commutes(p, q):
    assert p + q == q + p


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_poly_addition_associates(p, q, r):
    assert (p + q) + r == p + (q + r)


@given(polys, exp_dicts)
@settings(max_examples=60, deadline=None)
def test_poly_shift_preserves_coefficient_count(p, exp):
    assert len(p.shifted(exp).terms) == len(p.terms)


def test_poly_basis_mismatch_raises():
    with pytest.raises(TypeError):
        LaurentPoly.zero("a") + LaurentPoly.zero("b")


@given(polys, exp_dicts)
@settings(max_examples=40, deadline=None)
def test_specialize_respects_shift(p, exp):
    assign = {i: Fraction(2) for i in range(0, 5)}
    factor = Fraction(1)
    for i, e in exp.items():
        factor *= Fraction(2) ** e
    assert specialize(p.shifted(exp), assign) == factor * specialize(p, assign)


@pytest.mark.parametrize("name", ["gr37", "uniform-2-4"])
def test_ms_formulas_agree(name):
    model = standardise(fx.FIXTURE_BUILDERS[name](), WHITE)
    k, n = type_of(model)
    for I in combinations(range(1, n + 1), k):
        p1 = ms_formula(model, I)
        p2 = ms_formula_white_v2(model, I)
        assert p1 == p2
        if frozenset(I) not in positroid(model):
            assert p1.is_zero
        else:
            assert sum(c for _, c in p1.terms) == len(matchings_with_boundary(model, I))


@pytest.mark.parametrize("name", ["gr37", "uniform-2-4"])
def test_black_white_duality(name):
    model = standardise(fx.FIXTURE_BUILDERS[name](), WHITE)
    op = opposite(model)
    k, n = type_of(model)
    for I in combinations(range(1, n + 1), k):
        comp = [x for x in range(1, n + 1) if x not in I]
        assert ms_formula(model, I) == ms_formula(op, comp, BLACK)


def test_ms_exponent_sums(u24):
    model = standardise(u24, WHITE)
    k, n = type_of(model)
    for I in combinations(range(1, n + 1), k):
        for key, _ in ms_formula(model, I).terms:
            assert sum(e for _, e in key) == k - 1


def test_ms_requires_standardised(gr37):
    with pytest.raises(ValueError):
        ms_formula(gr37, [1, 3, 5])


def test_twist_expression(gr37):
    poly = musp_twist_expression(gr37, [1, 3, 5])
    assert sum(c for _, c in poly.terms) == len(matchings_with_boundary(gr37, [1, 3, 5]))
    for key, _ in poly.terms:
        assert sum(e for _, e in key) == -1
    with pytest.raises(ValueError):
        musp_twist_expression(gr37, [2, 3, 4])  # outside the positroid


# Unit-weight boundary measurement of gr37, frozen from enumeration.
GR37_UNIT_PLUCKER = {
    "123": 1, "124": 1, "125": 2, "126": 1, "127": 1, "134": 1, "135": 3,
    "136": 2, "137": 3, "145": 1, "146": 1, "147": 2, "156": 1, "157": 3,
    "167": 1, "234": 0, "235": 1, "236": 1, "237": 2, "245": 1, "246": 1,
    "247": 2, "256": 1, "257": 3, "267": 1, "345": 1, "346": 1, "347": 2,
    "356": 1, "357": 3, "367": 1, "456": 0, "457": 0, "467": 0, "567": 0,
}


def test_gr37_unit_measurement(gr37):
    vec = boundary_measurement(gr37, unit_weights(gr37))
    got = {"".join(map(str, I)): int(x) for I, x in vec.values}
    assert got == GR37_UNIT_PLUCKER


@pytest.mark.parametrize("name", ["uniform-2-4", "uniform-2-5", "uniform-3-6"])
def test_plucker_relations_on_random_weights(name):
    model = fx.FIXTURE_BUILDERS[name]()
    k, n = type_of(model)
    rng = random.Random(7)
    pos = positroid(model)
    for _ in range(5):
        w = {a.id: Fraction(rng.randint(1, 20), rng.randint(1, 20))
             for a in model.arrows}
        vec = boundary_measurement(model, w)
        report = check_plucker_relations(vec, k, n)
        assert report.passed
        support = {frozenset(I) for I, x in vec.values if x != 0}
        assert support == pos
    for J in combinations(range(1, n + 1), k):
        assert positroid_contains_necklace_test(model, J) == (frozenset(J) in pos)


def test_measurement_rejects_nonpositive_weights(u24):
    w = unit_weights(u24)
    w[next(iter(w))] = Fraction(0)
    with pytest.raises(ValueError):
        boundary_measurement(u24, w)


def test_specialized_ms_at_unit_pluckers_is_one(u24):
    # evaluating the partition function of I at x_j = Z_{I_j} (unit-weight
    # Plücker coordinates of the tile source labels) gives 1
    model = standardise(u24, WHITE)
    vec = boundary_measurement(model, unit_weights(model))
    assign = {j: vec[sorted(lab)] for j, lab in source_labels(model).items()}
    assert specialize(ms_formula(model, [1, 3]), assign) == 1
