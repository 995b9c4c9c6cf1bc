"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest -v`` (or ``-s`` to see the lines as they print). Every
check is exact; no tolerances anywhere.
"""

import random
from fractions import Fraction
from itertools import combinations

from discdimer import fixtures as fx
from discdimer.kclass_weights import (kclass_of_matching,
                                      muller_speyer_matching,
                                      projective_matching_oracle,
                                      upstream_matching)
from discdimer.lattice_maps import (check_cluster_ensemble, eta,
                                    eta_inverse_basis, eta_invariant_factors,
                                    is_eta_unimodular,
                                    lattice_point_of_matching)
from discdimer.matchings import (Matching, boundary_value,
                                 enumerate_matchings, extreme_matchings, flip,
                                 height, is_matching, matchings_with_boundary,
                                 positroid, positroid_contains_necklace_test,
                                 support_subgraph)
from discdimer.model import BLACK, WHITE, opposite, standardise, type_of
from discdimer.partition_functions import (boundary_measurement,
                                           check_plucker_relations,
                                           ms_formula,
                                           ms_formula_white_v2)
from discdimer.resolution import check_resolution, rotate_matching
from discdimer.strands import source_labels, strand_permutation, target_labels
from oracles import enumerate_dual_covers, euler_class, reachable_set, saturation_degree

CONSISTENT = ["triangle", "gr37", "uniform-1-3", "uniform-2-4",
              "uniform-2-5", "uniform-3-6"]


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}"
    if detail and not ok:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def _fs(digits: str) -> frozenset:
    return frozenset(int(c) for c in digits)


# The ten gr37 tiles, keyed by source label with their target label and, for
# the documented example matching, the (tail, head) source-label pairs of
# its five arrows.
GR37_LABEL_PAIRS = {
    "134": "156", "123": "145", "127": "345", "167": "235", "367": "123",
    "356": "127", "345": "167", "135": "157", "137": "135", "357": "137",
}
GR37_EXAMPLE_MATCHING_PAIRS = [
    ("357", "135"), ("134", "135"), ("127", "137"), ("367", "356"),
    ("367", "137"),
]


def _gr37_example_matching(model) -> Matching:
    by_source = {lab: v for v, lab in source_labels(model).items()}
    arrows = set()
    for t, h in GR37_EXAMPLE_MATCHING_PAIRS:
        tv, hv = by_source[_fs(t)], by_source[_fs(h)]
        arrows.update(a.id for a in model.arrows if a.tail == tv and a.head == hv)
    assert is_matching(model, arrows)
    return Matching(frozenset(arrows))


def test_criterion_01_example_matching_boundary(gr37):
    mu = _gr37_example_matching(gr37)
    ok = boundary_value(gr37, mu) == frozenset({1, 3, 5})
    _report(1, "documented gr37 example matching has boundary value {1,3,5}", ok)


def test_criterion_02_boundary_sizes():
    ok, detail = True, ""
    for name in CONSISTENT:
        model = fx.FIXTURE_BUILDERS[name]()
        k, _ = type_of(model)
        for mu in enumerate_matchings(model):
            if len(boundary_value(model, mu)) != k:
                ok, detail = False, f"{name}: {sorted(mu.arrow_set)}"
    _report(2, "|boundary value| = k for every matching of every consistent "
               "fixture", ok, detail)


def test_criterion_03_type_and_permutation(gr37):
    ok = (type_of(gr37) == (3, 7)
          and strand_permutation(gr37) == {1: 5, 2: 4, 3: 1, 4: 6, 5: 7, 6: 2, 7: 3})
    _report(3, "gr37 has type (3,7) and the documented strand permutation", ok)


def test_criterion_04_gr37_labels(gr37):
    src, tgt = source_labels(gr37), target_labels(gr37)
    expected = {(_fs(s), _fs(t)) for s, t in GR37_LABEL_PAIRS.items()}
    got = {(src[v], tgt[v]) for v in src}
    _report(4, "gr37 source and target labels equal the documented ten "
               "subsets, pairwise per tile", got == expected)


def test_criterion_05_three_way_matching_equality():
    ok, detail = True, ""
    for name in CONSISTENT:
        model = fx.FIXTURE_BUILDERS[name]()
        inverse = eta_inverse_basis(model)
        for v in model.vertices:
            wedge_mu = muller_speyer_matching(model, v.id).arrow_set
            inv_mu = frozenset(a for a, x in inverse[v.id].values if x == 1)
            oracle_mu = projective_matching_oracle(model, v.id).arrow_set
            if not (wedge_mu == inv_mu == oracle_mu):
                ok, detail = False, f"{name} vertex {v.id}"
            cls = eta(model, inverse[v.id])
            if cls.as_dict() != ({v.id: 1} if cls[v.id] else {}):
                if any(c for u, c in cls.coefficients if u != v.id) or cls[v.id] != 1:
                    ok, detail = False, f"{name} vertex {v.id}: eta image"
    _report(5, "wedge matching = lattice-inverse matching = path-degree "
               "oracle, and its class is the projective generator, "
               "for every vertex of every consistent fixture", ok, detail)


def test_criterion_06_wedge_boundaries_are_labels():
    ok, detail = True, ""
    for name in CONSISTENT:
        model = fx.FIXTURE_BUILDERS[name]()
        src, tgt = source_labels(model), target_labels(model)
        for v in model.vertices:
            down = boundary_value(model, muller_speyer_matching(model, v.id))
            up = boundary_value(model, upstream_matching(model, v.id))
            if down != src[v.id] or up != tgt[v.id]:
                ok, detail = False, f"{name} vertex {v.id}"
    _report(6, "downstream/upstream matching boundaries equal the "
               "source/target labels at every vertex", ok, detail)


def test_criterion_07_unimodularity(inconsistent):
    ok, detail = True, ""
    for name in CONSISTENT:
        model = fx.FIXTURE_BUILDERS[name]()
        if not is_eta_unimodular(model) or any(
                f != 1 for f in eta_invariant_factors(model)):
            ok, detail = False, name
    if is_eta_unimodular(inconsistent):
        ok, detail = False, "inconsistent fixture is unimodular"
    _report(7, "lattice map unimodular on consistent fixtures, not on the "
               "inconsistent one", ok, detail)


def test_criterion_08_cluster_ensemble(inconsistent):
    ok, detail = True, ""
    for name in CONSISTENT:
        report = check_cluster_ensemble(fx.FIXTURE_BUILDERS[name]())
        if not report.passed:
            ok, detail = False, f"{name}: {report.witnesses}"
    if check_cluster_ensemble(inconsistent).passed:
        ok, detail = False, "inconsistent fixture passes"
    _report(8, "cluster-ensemble sequence exact over the integers on "
               "consistent fixtures, fails on the inconsistent one", ok, detail)


def test_criterion_09_class_three_ways():
    ok, detail = True, ""
    for name in ["gr37", "uniform-2-4"]:
        model = fx.FIXTURE_BUILDERS[name]()
        for mu in enumerate_matchings(model):
            a = {v: c for v, c in kclass_of_matching(model, mu).as_dict().items() if c}
            b = {v: c for v, c in
                 eta(model, lattice_point_of_matching(model, mu)).as_dict().items() if c}
            c = euler_class(model, mu)
            if not (a == b == c):
                ok, detail = False, f"{name}: {sorted(mu.arrow_set)}"
    _report(9, "matching-module class agrees computed from the defining "
               "formula, the lattice map, and the resolution data, for "
               "every matching of gr37 and uniform(2,4)", ok, detail)


def test_criterion_10_resolution_exactness():
    ok, detail = True, ""
    for name in ["triangle", "uniform-2-4", "gr37"]:
        model = fx.FIXTURE_BUILDERS[name]()
        for mu in enumerate_matchings(model):
            report = check_resolution(model, mu)
            if not report.passed:
                ok, detail = False, f"{name}: {sorted(mu.arrow_set)}"
    _report(10, "every graded resolution piece exact for all vertices, "
                "degrees up to saturation+1, and matchings of triangle, "
                "uniform(2,4), gr37", ok, detail)


def test_criterion_11_rotation_identity(gr37):
    ok, detail = True, ""
    for mu in enumerate_matchings(gr37):
        sat = saturation_degree(gr37, mu)
        for v in gr37.vertices:
            for d in range(1, sat + 1):
                nu = rotate_matching(gr37, mu, v.id, d)
                if (reachable_set(gr37, mu, v.id, d).members
                        != reachable_set(gr37, nu, v.id, d - 1).members):
                    ok, detail = False, f"{sorted(mu.arrow_set)}, i={v.id}, d={d}"
    _report(11, "rotation sends the degree-d reachable set to the "
                "degree-(d-1) reachable set for every (matching, vertex, "
                "degree) on gr37", ok, detail)


def test_criterion_12_partition_function_identities():
    ok, detail = True, ""
    for name in ["gr37", "uniform-2-4"]:
        model = standardise(fx.FIXTURE_BUILDERS[name](), WHITE)
        op = opposite(model)
        k, n = type_of(model)
        for I in combinations(range(1, n + 1), k):
            comp = [x for x in range(1, n + 1) if x not in I]
            p1 = ms_formula(model, I)
            if p1 != ms_formula_white_v2(model, I):
                ok, detail = False, f"{name}: formulas differ at {list(I)}"
            if p1 != ms_formula(op, comp, BLACK):
                ok, detail = False, f"{name}: duality fails at {list(I)}"
    _report(12, "the two boundary-weight formulas agree and satisfy "
                "black/white duality for every k-subset on gr37 and "
                "uniform(2,4)", ok, detail)


def test_criterion_13_flip_lattice_and_support_bijection():
    ok, detail = True, ""
    for name in ["gr37", "uniform-2-4"]:
        model = fx.FIXTURE_BUILDERS[name]()
        internals = [v.id for v in model.vertices if not v.is_boundary]
        for I in positroid(model):
            pool = matchings_with_boundary(model, I)
            lo, hi = extreme_matchings(model, I)
            for mu in pool:
                if any(v < 0 for _, v in height(model, mu, lo).values):
                    ok, detail = False, f"{name} {sorted(I)}: not minimal"
                if any(v < 0 for _, v in height(model, hi, mu).values):
                    ok, detail = False, f"{name} {sorted(I)}: not maximal"
            # connectivity of the flip graph on this fibre
            seen = {lo.arrow_set}
            stack = [lo]
            while stack:
                cur = stack.pop()
                for j in internals:
                    nxt = flip(model, cur, j)
                    if nxt is not None and nxt.arrow_set not in seen:
                        seen.add(nxt.arrow_set)
                        stack.append(nxt)
            if seen != {mu.arrow_set for mu in pool}:
                ok, detail = False, f"{name} {sorted(I)}: flip graph disconnected"
            # intersection bijection with the support subgraph
            dual = support_subgraph(model, I)
            arrows = ({e.arrow_id for e in dual.edges}
                      | {h.arrow_id for h in dual.half_edges})
            images = [frozenset(mu.arrow_set & arrows) for mu in pool]
            if (len(set(images)) != len(pool)
                    or set(images) != enumerate_dual_covers(dual)):
                ok, detail = False, f"{name} {sorted(I)}: bijection fails"
    _report(13, "unique flip-minimal/maximal matchings, connected flip "
                "graph, and the support-subgraph intersection bijection on "
                "gr37 and uniform(2,4)", ok, detail)


def test_criterion_14_plucker_relations():
    ok, detail = True, ""
    rng = random.Random(7)
    for name in ["uniform-2-4", "uniform-2-5", "uniform-3-6"]:
        model = fx.FIXTURE_BUILDERS[name]()
        k, n = type_of(model)
        pos = positroid(model)
        for J in combinations(range(1, n + 1), k):
            if positroid_contains_necklace_test(model, J) != (frozenset(J) in pos):
                ok, detail = False, f"{name}: necklace test differs at {list(J)}"
        for draw in range(5):
            w = {a.id: Fraction(rng.randint(1, 20), rng.randint(1, 20))
                 for a in model.arrows}
            vec = boundary_measurement(model, w)
            report = check_plucker_relations(vec, k, n)
            if not report.passed:
                ok, detail = False, f"{name} draw {draw}: relations fail"
            support = {frozenset(I) for I, x in vec.values if x != 0}
            if support != pos:
                ok, detail = False, f"{name} draw {draw}: support mismatch"
    _report(14, "5 seeded random weight draws on uniform(2,4),(2,5),(3,6) "
                "satisfy all three-term relations; support matches the "
                "positroid and the necklace order test", ok, detail)


def test_criterion_15_substitution_note():
    # The geometric twist comparison needs external coordinate formulas that
    # the combinatorial layer does not define; the property-based criteria
    # 12-14 stand in for it, as documented in the project notes.
    _report(15, "geometric twist comparison not reproducible from the "
                "combinatorial data alone; criteria 12-14 are the agreed "
                "substitute", True)
