"""Perfect matchings, boundary values, positroids, flips, and heights."""

import hashlib
import json
import random
import re
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_force_matchings, enumerate_dual_covers

from discdimer import fixtures as fx
from discdimer import matchings as matchings_module
from discdimer.kclass_weights import kclass_of_matching, projective_matching_oracle, weights
from discdimer.lattice_maps import lattice_point_of_matching
from discdimer.matchings import (Matching, _enumeration, _height, _mask_of, _matching_of,
                                 boundary_value, enumerate_matchings, extreme_matchings, flip,
                                 height, is_matching, matchings_with_boundary,
                                 positroid, positroid_contains_necklace_test,
                                 require_matching, support_subgraph)
from discdimer.model import WHITE, opposite, standardise, type_of
from discdimer.partition_functions import musp_twist_expression
from discdimer.resolution import check_resolution, degrees_toward, rotate_matching
from discdimer.strands import necklaces

CONSISTENT_FIXTURES = [n for n in sorted(fx.FIXTURE_BUILDERS) if n != "inconsistent"]
MODELS = {**fx.FIXTURE_BUILDERS, "uniform-3-7": lambda: fx.build_uniform(3, 7)}

# Independently frozen counts (brute-force oracle over one arrow per face).
KNOWN_COUNTS = {"triangle": 3, "gr37": 46, "uniform-1-3": 3, "uniform-2-4": 7}

# The five 3-subsets of 1..7 outside the gr37 positroid.
GR37_NON_POSITROID = {frozenset(s) for s in
                      [(2, 3, 4), (4, 5, 6), (4, 5, 7), (4, 6, 7), (5, 6, 7)]}


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES)
def test_enumeration_matches_brute_force(name):
    model = fx.FIXTURE_BUILDERS[name]()
    got = {mu.arrow_set for mu in enumerate_matchings(model)}
    assert got == brute_force_matchings(model)
    if name in KNOWN_COUNTS:
        assert len(got) == KNOWN_COUNTS[name]


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES)
def test_boundary_size_is_k(name):
    model = fx.FIXTURE_BUILDERS[name]()
    k, _ = type_of(model)
    for mu in enumerate_matchings(model):
        assert len(boundary_value(model, mu)) == k


ORDER_MODELS = {**fx.FIXTURE_BUILDERS, "uniform-4-9": lambda: fx.build_uniform(4, 9)}


@pytest.mark.parametrize("name", sorted(ORDER_MODELS))
def test_the_enumeration_order_is_pinned_by_its_recorded_digest(name):
    """The reference matching ρ of the degree table and every failure
    witness depend on the canonical order, which no output shows: `dimer
    matchings` sorts, and a passing `dimer verify` names no matching.
    `tests/golden/enumeration-digests.json` holds, per model, the sha256 of
    the JSON array of each enumerated matching's sorted arrow ids, and the
    count, recorded before the search moved to arrow masks."""
    recorded = json.loads((Path(__file__).parent / "golden" / "enumeration-digests.json")
                          .read_text(encoding="utf-8"))
    ids = [list(mu.sorted_ids()) for mu in enumerate_matchings(ORDER_MODELS[name]())]
    assert [hashlib.sha256(json.dumps(ids).encode()).hexdigest(), len(ids)] == recorded[name]


NOT_A_MATCHING = "arrow set is not a perfect matching"
BAD = Matching(frozenset({1, 999}))
TAKES_A_MATCHING = {
    "degrees_toward": (lambda m, mu: degrees_toward(m, BAD, 1), NOT_A_MATCHING),
    "height": (lambda m, mu: height(m, Matching(frozenset()), Matching(frozenset())),
               NOT_A_MATCHING),
    "flip-unknown-vertex": (lambda m, mu: flip(m, mu, 999),
                            "vertex 999 is not an internal vertex; flips need one"),
    "flip-boundary-vertex": (lambda m, mu: flip(m, mu, 0),
                             "vertex 0 is not an internal vertex; flips need one"),
    "flip": (lambda m, mu: flip(m, BAD, 9), NOT_A_MATCHING),
    "boundary_value": (lambda m, mu: boundary_value(m, BAD), NOT_A_MATCHING),
    "check_resolution": (lambda m, mu: check_resolution(m, BAD), NOT_A_MATCHING),
    "rotate_matching": (lambda m, mu: rotate_matching(m, BAD, 1, 1), NOT_A_MATCHING),
    "kclass_of_matching": (lambda m, mu: kclass_of_matching(m, BAD), NOT_A_MATCHING),
    "weights": (lambda m, mu: weights(standardise(m, WHITE), BAD), NOT_A_MATCHING),
    "lattice_point_of_matching": (lambda m, mu: lattice_point_of_matching(m, BAD),
                                  NOT_A_MATCHING),
    "projective_matching_oracle": (lambda m, mu: projective_matching_oracle(m, 1, BAD),
                                   NOT_A_MATCHING),
}


@pytest.mark.parametrize("name", sorted(TAKES_A_MATCHING))
def test_a_public_function_checks_the_matching_it_takes(gr37, name):
    """Each public function that takes a `Matching` rejects one that is not
    a perfect matching of the model (an unknown arrow id, an empty set), and
    `flip` a vertex that is not internal, with one ValueError line."""
    call, message = TAKES_A_MATCHING[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(gr37, enumerate_matchings(gr37)[0])


def test_is_matching_rejects_partial(gr37):
    mu = enumerate_matchings(gr37)[0]
    some = sorted(mu.arrow_set)[:-1]
    assert not is_matching(gr37, some)


def test_is_matching_rejects_an_arrow_the_model_lacks(gr37):
    mu = enumerate_matchings(gr37)[0]
    assert is_matching(gr37, mu.arrow_set)
    assert not is_matching(gr37, mu.arrow_set | {999})
    with pytest.raises(ValueError, match="not a perfect matching"):
        require_matching(gr37, Matching(mu.arrow_set | {999}))


SEEDED_MODELS = {**MODELS, "uniform-4-8": lambda: fx.build_uniform(4, 8),
                 "opposite-gr37": lambda: opposite(standardise(fx.gr37(), WHITE))}


@pytest.mark.parametrize("name", sorted(SEEDED_MODELS))
def test_seeded_search_equals_the_grouped_enumeration(name):
    """The search seeded with a boundary value finds that value's group of
    the full enumeration, in the same order, and () outside the positroid."""
    model = SEEDED_MODELS[name]()
    groups = _enumeration(model)[1]
    k, n = type_of(model)
    subsets = [frozenset(I) for I in combinations(range(1, n + 1), k)]
    for I in subsets:
        assert matchings_with_boundary(model, I) == tuple(
            _matching_of(model, mu_mask) for mu_mask in groups.get(I, ()))
    assert set(groups) <= set(subsets)
    if "gr37" in name:
        assert len(set(subsets) - set(groups)) == 5


@pytest.mark.parametrize("subset", [(1, 2), (1, 2, 3, 4), (0, 1, 2), (1, 2, 8)])
def test_a_subset_that_is_not_a_k_subset_of_the_labels_is_an_error(gr37, subset):
    message = rf"expected a 3-subset of 1\.\.7, got \{list(subset)}"
    for read in (matchings_with_boundary, positroid_contains_necklace_test, extreme_matchings):
        with pytest.raises(ValueError, match=message):
            read(gr37, subset)


@pytest.mark.parametrize("subset", [{1.5, 2}, {"a", 2}, {True, 2}])
def test_a_label_that_is_not_an_int_is_an_error(u24, subset):
    """A float or a bool equal to a label, or a string, is not misread."""
    for read in (matchings_with_boundary, positroid_contains_necklace_test, extreme_matchings,
                 musp_twist_expression):
        with pytest.raises(ValueError, match=r"^expected a 2-subset of 1\.\.4, got \[.*\]$"):
            read(u24, subset)


def test_gr37_positroid(gr37):
    expected = {frozenset(s) for s in combinations(range(1, 8), 3)} - GR37_NON_POSITROID
    assert positroid(gr37) == expected
    assert len(expected) == 30


@pytest.mark.parametrize("name", sorted(MODELS))
def test_positroid_equals_enumerated_boundary_values(name):
    """The Kasteleyn positroid against enumeration, on the inconsistent
    fixture too: it needs a valid model only."""
    model = MODELS[name]()
    assert positroid(model) == {boundary_value(model, mu) for mu in enumerate_matchings(model)}


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES)
def test_necklace_gale_test_matches_enumeration(name):
    model = fx.FIXTURE_BUILDERS[name]()
    k, n = type_of(model)
    pos = positroid(model)
    for J in combinations(range(1, n + 1), k):
        assert positroid_contains_necklace_test(model, J) == (frozenset(J) in pos)


def _gale_leq(smaller, larger, shift, n):
    """The oracle for the shifted Gale order: smaller ≤ larger when both
    are listed in the linear order shift < shift+1 < ... (mod n) and the
    r-th element of larger is ≥ the r-th element of smaller."""

    def key(x):
        return (x - shift) % n

    a = sorted(smaller, key=key)
    b = sorted(larger, key=key)
    return all(key(x) <= key(y) for x, y in zip(a, b))


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES + ["uniform-3-7", "uniform-4-8",
                                                        "uniform-4-9", "uniform-5-10"])
def test_necklace_test_agrees_with_the_gale_oracle(name):
    """The per-model count bounds decide every k-subset as the per-shift
    sort does over all n shifts."""
    model = (fx.FIXTURE_BUILDERS[name]() if name in fx.FIXTURE_BUILDERS
             else fx.build_uniform(*map(int, name.split("-")[1:])))
    k, n = type_of(model)
    source_necklace, _ = necklaces(model)
    for J in combinations(range(1, n + 1), k):
        J = frozenset(J)
        expected = all(_gale_leq(J, source_necklace[m], m % n + 1, n) for m in range(1, n + 1))
        assert positroid_contains_necklace_test(model, J) is expected


@pytest.mark.parametrize("name", ["gr37", "uniform-4-9"])
def test_necklace_bounds_decide_any_necklace_as_the_gale_oracle(name, monkeypatch):
    """The count bounds against the per-shift sort, with seeded k-subsets
    in place of the necklace: each entry m is drawn from the last labels of
    its shift, so some bounds bind, some hold for every k-subset (and are
    left out), and some J pass them all."""
    rng = random.Random(f"necklace-bounds/{name}")
    outcomes = set()
    for _ in range(20):
        model = (fx.FIXTURE_BUILDERS[name]() if name in fx.FIXTURE_BUILDERS
                 else fx.build_uniform(*map(int, name.split("-")[1:])))
        k, n = type_of(model)
        shifted = {m: [(m + i) % n + 1 for i in range(n)] for m in range(1, n + 1)}
        entries = {m: frozenset(rng.sample(order[-rng.randint(k, n):], k))
                   for m, order in shifted.items()}
        monkeypatch.setattr(matchings_module, "necklaces", lambda model: (entries, entries))
        for J in map(frozenset, combinations(range(1, n + 1), k)):
            expected = all(_gale_leq(J, entries[m], m % n + 1, n) for m in range(1, n + 1))
            assert positroid_contains_necklace_test(model, J) is expected
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_gale_leq_is_a_partial_order():
    n = 8
    subsets = [frozenset(s) for s in combinations(range(1, n + 1), 3)]
    for shift in (1, 4):
        for A in subsets[:20]:
            assert _gale_leq(A, A, shift, n)
        for A in subsets[:12]:
            for B in subsets[:12]:
                if _gale_leq(A, B, shift, n) and _gale_leq(B, A, shift, n):
                    assert A == B


@given(st.integers(0, 6), st.data())
@settings(max_examples=30, deadline=None)
def test_gale_leq_transitive(shift_off, data):
    n = 7
    subsets = [frozenset(s) for s in combinations(range(1, n + 1), 3)]
    A = data.draw(st.sampled_from(subsets))
    B = data.draw(st.sampled_from(subsets))
    C = data.draw(st.sampled_from(subsets))
    shift = shift_off + 1
    if _gale_leq(A, B, shift, n) and _gale_leq(B, C, shift, n):
        assert _gale_leq(A, C, shift, n)


def test_flip_is_an_involution(gr37):
    for mu in enumerate_matchings(gr37):
        for v in gr37.vertices:
            if v.is_boundary:
                continue
            nu = flip(gr37, mu, v.id)
            if nu is not None:
                assert nu != mu
                assert boundary_value(gr37, nu) == boundary_value(gr37, mu)
                assert flip(gr37, nu, v.id) == mu


@pytest.mark.parametrize("name", ["gr37", "uniform-2-4"])
def test_flip_graph_connected_per_boundary(name):
    model = fx.FIXTURE_BUILDERS[name]()
    internals = [v.id for v in model.vertices if not v.is_boundary]
    for I in positroid(model):
        pool = {mu.arrow_set for mu in matchings_with_boundary(model, I)}
        start = next(iter(pool))
        seen = {start}
        stack = [Matching(start)]
        while stack:
            cur = stack.pop()
            for j in internals:
                nxt = flip(model, cur, j)
                if nxt is not None and nxt.arrow_set not in seen:
                    seen.add(nxt.arrow_set)
                    stack.append(nxt)
        assert seen == pool


def test_height_zero_against_self(gr37):
    mu = enumerate_matchings(gr37)[0]
    h = height(gr37, mu, mu)
    assert all(val == 0 for _, val in h.values)


def test_height_requires_equal_boundary(gr37):
    by_boundary = {}
    for mu in enumerate_matchings(gr37):
        by_boundary.setdefault(boundary_value(gr37, mu), mu)
    two = list(by_boundary.values())[:2]
    with pytest.raises(ValueError):
        height(gr37, two[0], two[1])


def test_height_walk_integrates_any_two_matchings(gr37):
    """On every ordered pair (ρ, μ) of gr37's matchings, different boundary
    values included, h = _height(ρ, μ) has dh = 𝟙_μ − 𝟙_ρ on every arrow
    and 0 at the first boundary vertex, and shifts ρ's minimal path degrees
    to μ's: D_μ(j → i) = D_ρ(j → i) + h(i) − h(j). `height` is the same h
    when the boundary values agree and an error when they do not."""
    pool = enumerate_matchings(gr37)
    vertices = [v.id for v in gr37.vertices]
    root = next(v.id for v in gr37.vertices if v.is_boundary)
    degrees = {mu: {i: degrees_toward(gr37, mu, i) for i in vertices} for mu in pool}
    unequal = 0
    for rho in pool:
        for mu in pool:
            h = _height(gr37, _mask_of(gr37, rho), _mask_of(gr37, mu))
            assert h[root] == 0
            for a in gr37.arrows:
                assert h[a.head] - h[a.tail] == (a.id in mu.arrow_set) - (a.id in rho.arrow_set)
            for i in vertices:
                for j in vertices:
                    assert degrees[mu][i][j] == degrees[rho][i][j] + h[i] - h[j]
            if boundary_value(gr37, rho) == boundary_value(gr37, mu):
                assert height(gr37, rho, mu).values == tuple(sorted(h.items()))
            else:
                unequal += 1
                with pytest.raises(ValueError, match="matchings have different boundary values"):
                    height(gr37, rho, mu)
    assert unequal > 0


def test_a_difference_that_is_no_coboundary_is_rejected(gr37):
    """One arrow alone sums to 1 around each of its faces, so no height
    integrates it: the check on the arrows off the walk's tree fails."""
    one_arrow = Matching(frozenset([gr37.arrows[0].id]))
    with pytest.raises(ValueError, match="matching difference is not a coboundary"):
        _height(gr37, 0, _mask_of(gr37, one_arrow))


@pytest.mark.parametrize("name", ["gr37", "uniform-2-4"])
def test_extremes_walk_no_heights(name, monkeypatch):
    """A flip at j moves h(j) alone, so the extremes read a flip's direction
    off the arrows into j and never integrate a height."""
    model = fx.FIXTURE_BUILDERS[name]()
    walks = []
    for fn in ("height", "_height"):
        original = getattr(matchings_module, fn)
        monkeypatch.setattr(matchings_module, fn,
                            lambda *args, original=original: walks.append(args) or original(*args))
    for I in positroid(model):
        extreme_matchings(model, I)
    assert walks == []


@pytest.mark.parametrize("name", ["gr37", "uniform-2-4", "uniform-3-6"])
def test_extremes_search_only_the_first_matching(name, monkeypatch):
    """The seeded search stops at the first matching of the boundary value,
    the first of the full search, and every leaf it reaches is that one."""
    model = fx.FIXTURE_BUILDERS[name]()
    groups = _enumeration(model)[1]
    leaves = []
    cover = matchings_module._cover

    def counting(faces, idx, chosen, *rest):
        if idx == len(faces):
            leaves.append(chosen)
        return cover(faces, idx, chosen, *rest)

    monkeypatch.setattr(matchings_module, "_cover", counting)
    for I in positroid(model):
        del leaves[:]
        assert matchings_module._boundary_search(model, I, first=True) == groups[I][:1]
        assert leaves == list(groups[I][:1])
        extreme_matchings(model, I)
        assert leaves == list(groups[I][:1] * 2)


@pytest.mark.parametrize("name", ["gr37", "uniform-2-4"])
def test_extremes_are_unique_height_extrema(name):
    model = fx.FIXTURE_BUILDERS[name]()
    for I in positroid(model):
        lo, hi = extreme_matchings(model, I)
        pool = matchings_with_boundary(model, I)
        assert lo.arrow_set in {m.arrow_set for m in pool}
        assert hi.arrow_set in {m.arrow_set for m in pool}
        for mu in pool:
            h_lo = height(model, mu, lo)  # heights measured from the minimum
            assert all(v >= 0 for _, v in h_lo.values)
            h_hi = height(model, hi, mu)
            assert all(v >= 0 for _, v in h_hi.values)


@pytest.mark.parametrize("name", ["gr37", "uniform-2-4"])
def test_support_subgraph_intersection_bijection(name):
    model = fx.FIXTURE_BUILDERS[name]()
    for I in positroid(model):
        dual = support_subgraph(model, I)
        covers = enumerate_dual_covers(dual)
        graph_arrows = ({e.arrow_id for e in dual.edges}
                        | {h.arrow_id for h in dual.half_edges})
        pool = matchings_with_boundary(model, I)
        images = [frozenset(mu.arrow_set & graph_arrows) for mu in pool]
        assert len(set(images)) == len(pool)  # injective
        assert set(images) == covers          # surjective onto the covers
