"""Laurent polynomials, partition-function identities, and boundary
measurements with Plücker relations."""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import shifted, specialize

from discdimer import fixtures as fx
from discdimer import kasteleyn
from discdimer.intlinalg import maximal_minors
from discdimer.kasteleyn import (boundary_minors, kasteleyn_frame,
                                 kasteleyn_signs)
from discdimer.matchings import (matchings_with_boundary, positroid,
                                 positroid_contains_necklace_test)
from discdimer.model import BLACK, WHITE, opposite, standardise, type_of
from discdimer.partition_functions import (LaurentPoly, PluckerVector,
                                           _all_failures, boundary_measurement,
                                           check_plucker_relations,
                                           ms_formula,
                                           ms_formula_white_v2,
                                           musp_twist_expression, unit_weights)
from discdimer.strands import source_labels

exp_dicts = st.dictionaries(st.integers(0, 4), st.integers(-3, 3), max_size=3)
polys = st.lists(st.tuples(exp_dicts, st.integers(-5, 5)), max_size=5).map(
    lambda terms: LaurentPoly.from_terms("vertices", terms))


@given(polys, exp_dicts)
@settings(max_examples=60, deadline=None)
def test_poly_shift_preserves_coefficient_count(p, exp):
    assert len(shifted(p, exp).terms) == len(p.terms)


@given(polys, exp_dicts)
@settings(max_examples=40, deadline=None)
def test_specialize_respects_shift(p, exp):
    assign = {i: Fraction(2) for i in range(0, 5)}
    factor = Fraction(1)
    for i, e in exp.items():
        factor *= Fraction(2) ** e
    assert specialize(shifted(p, exp), assign) == factor * specialize(p, assign)


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
    with pytest.raises(ValueError, match=r"^weight of arrow \d+ is not positive: 0$"):
        boundary_measurement(u24, w)


@pytest.mark.parametrize("weight, message", [
    (0.5, "weight of arrow {} is not an int or a Fraction: 0.5"),
    (True, "weight of arrow {} is not an int or a Fraction: True"),
    ("3/7", "weight of arrow {} is not an int or a Fraction: '3/7'"),
    (None, "no weight for arrow {}"),
], ids=["float", "bool", "string", "missing"])
def test_a_weight_that_is_not_a_positive_rational_names_its_arrow(u24, weight, message):
    """Weights are used as given, never converted: `Fraction(0.1)` is not
    1/10, and a bool or a numeric string is not a weight."""
    aid = u24.arrows[1].id
    w = {a: x for a, x in unit_weights(u24).items() if a != aid}
    if weight is not None:
        w[aid] = weight
    with pytest.raises(ValueError) as info:
        boundary_measurement(u24, w)
    assert str(info.value) == message.format(aid)


def test_specialized_ms_at_unit_pluckers_is_one(u24):
    # evaluating the partition function of I at x_j = Z_{I_j} (unit-weight
    # Plücker coordinates of the tile source labels) gives 1
    model = standardise(u24, WHITE)
    vec = boundary_measurement(model, unit_weights(model))
    assign = {j: vec[sorted(lab)] for j, lab in source_labels(model).items()}
    assert specialize(ms_formula(model, [1, 3]), assign) == 1


def enumerated_measurement(model, w):
    """Oracle for boundary_measurement: each Z_I summed matching by
    matching over the enumerated matchings with boundary value I."""
    k, n = type_of(model)
    totals = {}
    for I in combinations(range(1, n + 1), k):
        total = Fraction(0)
        for mu in matchings_with_boundary(model, I):
            prod = Fraction(1)
            for aid in mu.arrow_set:
                prod *= w[aid]
            total += prod
        totals[I] = total
    return PluckerVector(k, n, tuple(sorted(totals.items())))


def seeded_draws(model, seed, count=3):
    rng = random.Random(seed)
    return [{a.id: Fraction(rng.randint(1, 20), rng.randint(1, 20)) for a in model.arrows}
            for _ in range(count)]


MODELS = {**fx.FIXTURE_BUILDERS,
          "uniform-3-7": lambda: fx.build_uniform(3, 7),
          "uniform-4-8": lambda: fx.build_uniform(4, 8)}
CONSISTENT = [name for name in sorted(MODELS) if name != "inconsistent"]


@pytest.mark.parametrize("name", CONSISTENT)
def test_kasteleyn_measurement_equals_enumeration(name):
    model = MODELS[name]()
    for w in [unit_weights(model)] + seeded_draws(model, f"kasteleyn/{name}"):
        assert boundary_measurement(model, w) == enumerated_measurement(model, w)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_kasteleyn_signs_meet_the_parity_condition(name):
    model = MODELS[name]()
    signs = kasteleyn_signs(model)
    assert set(signs) == {a.id for a in model.internal_arrows}
    assert set(signs.values()) <= {1, -1}
    for v in model.vertices:
        if v.is_boundary:
            continue
        around = [a for a in model.arrows if v.id in (a.tail, a.head)]
        negative = sum(1 for a in around if signs[a.id] == -1)
        assert negative % 2 == (len(around) // 2 + 1) % 2, v.id


def test_kasteleyn_signs_are_pinned_by_their_digest():
    """One digest over the signs of every fixture, then of build_uniform(k, n)
    for 1 <= k < n, 3 <= n <= 10, n ascending then k ascending, each as its
    sorted (arrow id, sign) pairs: recorded before the signs were solved in
    the arrow-mask bit order, which keeps the pivots in the same arrow order."""
    h = hashlib.sha256()
    for name in sorted(fx.FIXTURE_BUILDERS):
        h.update(json.dumps(sorted(kasteleyn_signs(fx.FIXTURE_BUILDERS[name]()).items())).encode())
    for n in range(3, 11):
        for k in range(1, n):
            h.update(json.dumps(sorted(kasteleyn_signs(fx.build_uniform(k, n)).items())).encode())
    assert h.hexdigest() == "57eac144d4bc3603b92ed8a03203e8cb9473bfed4cfe856777f794f22768bfa2"


def test_flipping_any_one_sign_changes_some_measurement(gr37, monkeypatch):
    frame = kasteleyn_frame(gr37)
    w = unit_weights(gr37)
    expected = boundary_measurement(gr37, w)
    flipped = 0
    for i, (r, c, aid, sign) in enumerate(frame.entries):
        if aid is None or gr37.arrow(aid).is_boundary:
            continue
        entries = frame.entries[:i] + ((r, c, aid, -sign),) + frame.entries[i + 1:]
        wrong = dataclasses.replace(frame, entries=entries)
        monkeypatch.setattr(kasteleyn, "kasteleyn_frame", lambda model: wrong)
        assert boundary_measurement(gr37, w) != expected, aid
        flipped += 1
    assert flipped == len(gr37.internal_arrows)


@pytest.mark.parametrize("black, entries", [
    (1, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 3)]),  # row 1 cancels against row 0
    (2, [(0, 0), (1, 2), (2, 3), (3, 4), (4, 5)]),  # no row holds black column 1
])
def test_a_singular_frame_gives_every_minor_zero(monkeypatch, black, entries):
    model = fx.gr37()
    frame = kasteleyn.Frame(black + 3, black, tuple((r, c, None, 1) for r, c in entries))
    monkeypatch.setattr(kasteleyn, "kasteleyn_frame", lambda _: frame)
    zeros = [(I, 0) for I in combinations(range(1, 8), 3)]
    assert boundary_minors(model, unit_weights(model)) == zeros
    assert positroid(model) == frozenset()


def per_subset_minors(model, weights):
    """Oracle for kasteleyn.boundary_minors: the same elimination of the
    black columns, then one sympy determinant per k-subset."""
    frame, n = kasteleyn_frame(model), model.n
    matrix = [{} for _ in range(frame.rows)]
    for r, c, aid, sign in frame.entries:
        matrix[r][c] = sign * Fraction(weights[aid]) if aid is not None else Fraction(1)
    k = frame.rows - frame.black
    scale = Fraction(1)
    for c in range(frame.black):
        live = [r for r, row in enumerate(matrix) if c in row]
        if not live:
            return [(I, Fraction(0)) for I in combinations(range(1, n + 1), k)]
        pivot = matrix.pop(min(live, key=lambda r: len(matrix[r])))
        p = pivot.pop(c)
        scale *= abs(p)
        for row in matrix:
            f = row.pop(c, None)
            if f is not None:
                f /= p
                for col, x in pivot.items():
                    y = row.get(col, 0) - f * x
                    if y:
                        row[col] = y
                    else:
                        del row[col]
    ints = []
    for row in matrix:
        den = lcm(*(x.denominator for x in row.values()))
        scale /= den
        ints.append([row[t].numerator * (den // row[t].denominator) if t in row else 0
                     for t in range(frame.black, frame.black + n)])
    return [(I, scale * abs(sympy.Matrix([[r[i - 1] for i in I] for r in ints]).det()))
            for I in combinations(range(1, n + 1), k)]


MINOR_MODELS = {**MODELS,
                "uniform-4-9": lambda: fx.build_uniform(4, 9),
                "uniform-5-10": lambda: fx.build_uniform(5, 10)}


@pytest.mark.parametrize("name", [name for name in sorted(MINOR_MODELS) if name != "inconsistent"])
def test_boundary_minors_equal_per_subset_determinants(name):
    model = MINOR_MODELS[name]()
    for w in [unit_weights(model)] + seeded_draws(model, f"minors/{name}"):
        minors = boundary_minors(model, w)
        assert minors == per_subset_minors(model, w)
    if name == "gr37":
        assert any(z == 0 for _, z in minors)


PRIMES = [p for p in range(2, 1000) if all(p % q for q in range(2, p))]
ORACLE_MODELS = ["gr37", "uniform-2-5", "uniform-3-6", "uniform-3-7", "uniform-4-8"]


def weight_lists(size):
    """Int weights, fractions, and fractions with pairwise-coprime
    denominators, with numerators and denominators up to 10^6."""
    upto = st.integers(1, 10**6)
    return st.one_of(
        st.lists(upto, min_size=size, max_size=size),
        st.lists(st.builds(Fraction, upto, upto), min_size=size, max_size=size),
        st.tuples(st.lists(upto, min_size=size, max_size=size), st.permutations(PRIMES)).map(
            lambda drawn: [Fraction(a, p) for a, p in zip(*drawn)]))


@pytest.mark.parametrize("name", ORACLE_MODELS)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_integer_elimination_equals_the_fraction_oracle(name, data):
    """The fraction-free elimination against Fraction elimination and one
    sympy determinant per subset, at drawn int and Fraction weights."""
    model = MINOR_MODELS[name]()
    ids = [a.id for a in model.arrows]
    w = dict(zip(ids, data.draw(weight_lists(len(ids)))))
    minors = boundary_minors(model, w)
    assert minors == per_subset_minors(model, w)
    assert all(type(z) is Fraction for _, z in minors)
    if name == "gr37":
        assert sum(1 for _, z in minors if z == 0) == 5


def test_plucker_vector_looks_up_every_subset_in_any_order():
    model = fx.build_uniform(4, 8)
    vec = boundary_measurement(model, seeded_draws(model, "lookup/uniform-4-8", 1)[0])
    for I, x in vec.values:
        assert vec[I] == vec[tuple(reversed(I))] == vec[frozenset(I)] == x
    for bad in [(1, 2, 3), (1, 2, 3, 9), (1, 2, 3, 4, 5)]:
        with pytest.raises(KeyError):
            vec[bad]
    assert vec.as_dict() == dict(vec.values)
    assert vec == PluckerVector(vec.k, vec.n, vec.values)


def test_uniform_6_12_draw_passes_every_plucker_relation():
    model = fx.build_uniform(6, 12)
    vec = boundary_measurement(model, seeded_draws(model, "kasteleyn/uniform-6-12", 1)[0])
    report = check_plucker_relations(vec, 6, 12)
    assert report.checked == 34650 and report.passed
    assert sum(1 for _, x in vec.values if x > 0) == 924


def fraction_plucker_failures(vec, k, n):
    """Oracle for check_plucker_relations: the relations compared in
    Fractions, with no common denominator."""
    vals = vec.as_dict()
    failures = []
    if k < 2:
        return failures
    for a, b, c, d in combinations(range(1, n + 1), 4):
        rest = [x for x in range(1, n + 1) if x not in (a, b, c, d)]
        for S in combinations(rest, k - 2):
            def z(i, j):
                return vals[tuple(sorted(S + (i, j)))]
            if z(a, c) * z(b, d) != z(a, b) * z(c, d) + z(a, d) * z(b, c):
                failures.append((S, (a, b, c, d)))
    return failures


def test_integer_plucker_check_equals_fraction_comparison(gr37):
    """Scaled by one common denominator, the relations fail exactly where
    they fail in Fractions, also when one value is off."""
    vec = boundary_measurement(gr37, seeded_draws(gr37, "plucker/gr37", 1)[0])
    values = vec.as_dict()
    assert len({x.denominator for x in values.values()}) > 1
    for I, factor in [(None, 1), ((1, 3, 5), Fraction(3, 2)), ((2, 4, 6), Fraction(0)),
                      ((1, 2, 3), Fraction(7, 11))]:
        changed = {J: x * factor if J == I else x for J, x in values.items()}
        wrong = PluckerVector(3, 7, tuple(sorted(changed.items())))
        report = check_plucker_relations(wrong, 3, 7)
        assert report.checked == 105
        assert report.failures == fraction_plucker_failures(wrong, 3, 7)
        assert bool(report.failures) == (I is not None)


def plucker_relation_count(k, n):
    """The three-term relations: a quad a<b<c<d of 1..n and a (k−2)-subset
    S of the other labels."""
    return comb(n, 4) * comb(n - 4, k - 2) if k >= 2 else 0


@pytest.mark.parametrize("name", ["gr37", "uniform-3-6", "uniform-3-7", "uniform-4-8",
                                  "uniform-4-9", "uniform-5-10"])
def test_plucker_check_equals_fraction_comparison_on_perturbed_draws(name):
    """As drawn every relation holds; scaled or zeroed at one seeded subset,
    the relations fail exactly where, and in the order, they fail in
    Fractions."""
    model = MINOR_MODELS[name]()
    k, n = type_of(model)
    rng = random.Random(f"plucker/{name}")
    for w in seeded_draws(model, f"plucker/{name}"):
        values = boundary_measurement(model, w).as_dict()
        subsets = sorted(values)
        for I, factor in [(None, 1), (rng.choice(subsets), Fraction(0)),
                          (rng.choice(subsets), Fraction(rng.randint(2, 9), rng.randint(10, 19)))]:
            changed = {J: x * factor if J == I else x for J, x in values.items()}
            wrong = PluckerVector(k, n, tuple(sorted(changed.items())))
            report = check_plucker_relations(wrong, k, n)
            assert report.checked == plucker_relation_count(k, n)
            assert report.failures == fraction_plucker_failures(wrong, k, n)
            assert bool(report.failures) == (I is not None)


@pytest.mark.parametrize("n", [8, 10])
@pytest.mark.parametrize("codim", [None, 2, 1, 0])
def test_plucker_check_counts_every_relation(n, codim):
    """k = 2, n − 2, n − 1 and n on seeded values that break most
    relations: the count, and the failures in order, match the oracle."""
    k = 2 if codim is None else n - codim
    rng = random.Random(f"plucker-count/{k}-{n}")
    vec = PluckerVector(k, n, tuple((I, Fraction(rng.randint(0, 5), rng.randint(1, 5)))
                                    for I in combinations(range(1, n + 1), k)))
    report = check_plucker_relations(vec, k, n)
    assert report.checked == plucker_relation_count(k, n)
    assert report.failures == fraction_plucker_failures(vec, k, n)


def test_plucker_check_rejects_keys_that_are_not_the_k_subsets():
    """A missing subset, an extra key, an unsorted tuple in place of a
    subset or beside it, and the values of another k each raise the one
    ValueError."""
    base = [(I, Fraction(1)) for I in combinations(range(1, 6), 2)]
    for values, k in [(base[1:], 2), (base + [((1, 2, 3), Fraction(1))], 2),
                      ([((2, 1), Fraction(1))] + base[1:], 2),
                      (base + [((2, 1), Fraction(1))], 2), (base, 3)]:
        with pytest.raises(ValueError, match="^vector keys are not exactly the k-subsets of 1..n$"):
            check_plucker_relations(PluckerVector(2, 5, tuple(values)), k, 5)


@pytest.mark.parametrize("n", [4, 7, 8])
def test_plucker_failures_come_in_the_oracles_order_for_every_k(n):
    """The check reads the relations S by S; for every 0 ≤ k ≤ n, on seeded
    values that break most relations, it reports the count and the failures
    in the oracle's order: by quad, then S."""
    for k in range(n + 1):
        rng = random.Random(f"plucker-order/{k}-{n}")
        vec = PluckerVector(k, n, tuple((I, Fraction(rng.randint(0, 5), rng.randint(1, 5)))
                                        for I in combinations(range(1, n + 1), k)))
        report = check_plucker_relations(vec, k, n)
        expected = fraction_plucker_failures(vec, k, n)
        assert report.checked == plucker_relation_count(k, n)
        assert report.failures == expected
        assert len(expected) > report.checked // 2 or report.checked == 0


def full_loop_failures(vec, k, n):
    """The check's full loop alone, with no pivot: every relation evaluated
    on the values scaled by one common denominator."""
    xs = [vec[I] for I in combinations(range(1, n + 1), k)]
    den = lcm(*(x.denominator for x in xs))
    return _all_failures([x.numerator * (den // x.denominator) for x in xs], k, n)


def minors_vector(rows):
    k, n = len(rows), len(rows[0])
    return PluckerVector(k, n, tuple(zip(combinations(range(1, n + 1), k),
                                         map(Fraction, maximal_minors(rows)))))


@st.composite
def plucker_cases(draw):
    """(vector, changed subset or None, whether every relation holds) for
    2 ≤ k ≤ n − 2, n ≤ 9: the maximal minors of an integer matrix with many
    zero entries and up to two zero columns (so whole S blocks vanish, and
    a pivot is often not the first pair), the same with any one value
    changed or with a value off the pivot's row and column of some S
    changed, or random values."""
    n = draw(st.integers(4, 9))
    k = draw(st.integers(2, n - 2))
    subsets = list(combinations(range(1, n + 1), k))
    kind = draw(st.sampled_from(["minors", "changed", "off-pivot", "random"]))
    if kind == "random":
        values = draw(st.lists(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
                               min_size=len(subsets), max_size=len(subsets)))
        return PluckerVector(k, n, tuple(zip(subsets, values))), None, False
    zero = draw(st.sets(st.integers(0, n - 1), max_size=2))
    entries = st.sampled_from([0, 0, 1, -1, 2, -3])
    rows = [[0 if j in zero else x for j, x in enumerate(row)]
            for row in draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                     min_size=k, max_size=k))]
    vec = minors_vector(rows)
    if kind == "minors":
        return vec, None, True
    if kind == "changed":
        i = draw(st.integers(-len(subsets), -1))  # shrinks to late subsets, often off the pivot
    else:  # a value off the pivot's row and column of some S
        S = draw(st.sampled_from(list(combinations(range(1, n + 1), k - 2))))
        rest = [x for x in range(1, n + 1) if x not in S]
        pivot = next((ab for ab in combinations(rest, 2) if vec[S + ab]), ())
        xy = draw(st.sampled_from([xy for xy in combinations(rest, 2) if not set(xy) & set(pivot)]))
        i = subsets.index(tuple(sorted(S + xy)))
    values = list(vec.values)
    values[i] = (subsets[i], values[i][1] + draw(st.sampled_from([-2, -1, 1, 3])))
    return PluckerVector(k, n, tuple(values)), subsets[i], False


@given(plucker_cases())
@example((minors_vector([[0, 1, 2, 0, 1, -1, 3], [0, 0, 1, 1, 2, 0, -1],
                         [0, 2, 0, -1, 1, 1, 1]]), None, True))
@example((PluckerVector(3, 7, tuple(
    (I, x + 1 if I == (2, 4, 6) else x)
    for I, x in minors_vector([[0, 1, 2, 0, 1, -1, 3], [0, 0, 1, 1, 2, 0, -1],
                               [0, 2, 0, -1, 1, 1, 1]]).values)), (2, 4, 6), False))
@settings(max_examples=300, deadline=None)
def test_pivot_decision_equals_the_full_loop_and_the_fraction_oracle(case):
    """The pivot decision names the failures of the full loop and of the
    Fraction oracle; the maximal minors pass; and a changed value z_xy off
    the pivot's row and column breaks the pivot's relation on {a, b, x, y}
    (the examples: label 1 a zero column, so every S holding it has no
    pivot and every other S's pivot is not its first pair)."""
    vec, changed, holds = case
    k, n = vec.k, vec.n
    report = check_plucker_relations(vec, k, n)
    assert report.checked == plucker_relation_count(k, n)
    assert report.failures == full_loop_failures(vec, k, n) == fraction_plucker_failures(vec, k, n)
    if holds:
        assert report.passed
    for x, y in combinations(changed or (), 2):
        S = tuple(sorted(set(changed) - {x, y}))
        rest = [label for label in range(1, n + 1) if label not in S]
        pivot = next((ab for ab in combinations(rest, 2) if vec[S + ab]), None)
        if pivot is not None and not {x, y} & set(pivot):
            assert (S, tuple(sorted(pivot + (x, y)))) in report.failures


@pytest.mark.parametrize("n, values", [(4, (-1, 0, 1)), (5, (0, 1))])
def test_every_small_vector_gets_the_oracles_failures(n, values):
    """k = 2: every vector with these values, so every pivot position, with
    every pattern of zeros before it, meets relations that hold and fail."""
    subsets = list(combinations(range(1, n + 1), 2))
    for drawn in product(map(Fraction, values), repeat=len(subsets)):
        vec = PluckerVector(2, n, tuple(zip(subsets, drawn)))
        assert check_plucker_relations(vec, 2, n).failures == fraction_plucker_failures(vec, 2, n)


@pytest.mark.parametrize("name", ["gr37", "uniform-4-8"])
def test_a_shuffled_vector_gets_the_report_of_the_ordered_one(name):
    """Values out of lexicographic order (shuffled, reversed, or the first
    two swapped) give the report of the same values in order, on a draw
    that passes, the draw with one value changed, and random values."""
    model = MINOR_MODELS[name]()
    k, n = type_of(model)
    rng = random.Random(f"shuffle/{name}")
    drawn = boundary_measurement(model, seeded_draws(model, f"shuffle/{name}", 1)[0]).values
    changed = rng.choice([I for I, x in drawn if x])
    vectors = [drawn, tuple((I, x * 3 if I == changed else x) for I, x in drawn),
               tuple((I, Fraction(rng.randint(0, 5), rng.randint(1, 5))) for I, _ in drawn)]
    for values in vectors:
        report = check_plucker_relations(PluckerVector(k, n, values), k, n)
        shuffled = list(values)
        rng.shuffle(shuffled)
        for reordered in [shuffled, values[::-1], values[1::-1] + values[2:]]:
            assert check_plucker_relations(PluckerVector(k, n, tuple(reordered)), k, n) == report
    assert [check_plucker_relations(PluckerVector(k, n, v), k, n).passed for v in vectors] == [
        True, False, False]
