"""Graded resolution pieces, exactness, saturation, and rotation."""

import dataclasses
import inspect
import random
import zlib
from collections import Counter

import oracles
import pytest
from oracles import (GradedComplexPiece, _forest_size, _piece, first_rotation_failure,
                     graded_piece, mat_mul, merged_complex_data, rational_rank,
                     reachable_set, saturation_degree)

from discdimer import fixtures as fx
from discdimer import resolution
from discdimer.kclass_weights import kclass_of_matching
from discdimer.matchings import Matching, _arrow_bits, _mask_of, _matching_of, enumerate_matchings
from discdimer.model import opposite
from discdimer.resolution import (check_resolution, degree_table, degrees_toward,
                                  resolution_reports, rotate_matching)

CONSISTENT_FIXTURES = [n for n in sorted(fx.FIXTURE_BUILDERS) if n != "inconsistent"]


def flat(model):
    """The zero height: the walk then reads the rows it is given as they are."""
    return [0] * len(model.vertices)


def build(name):
    return (fx.FIXTURE_BUILDERS[name]() if name in fx.FIXTURE_BUILDERS
            else fx.build_uniform(*map(int, name.split("-")[1:])))


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


def expand(piece):
    """δ1 (|C0| x |C1|) and δ2 (|C1| x |C2|) as dense matrices, read off
    the piece's incidences."""
    row = {v: i for i, v in enumerate(piece.c0)}
    col = {r: i for i, r in enumerate(piece.c2)}
    delta1 = [[0] * len(piece.c1) for _ in piece.c0]
    delta2 = [[0] * len(piece.c2) for _ in piece.c1]
    for m, ((tail, head), (plus, minus)) in enumerate(zip(piece.delta1, piece.delta2)):
        if tail is not None:
            delta1[row[tail]][m] += 1
        delta1[row[head]][m] -= 1
        if plus is not None:
            delta2[m][col[plus]] += 1
        if minus is not None:
            delta2[m][col[minus]] -= 1
    return delta1, delta2


def dense_oracle(model, S, q1, q2):
    """Oracle: the piece on S with δ1 and δ2 built as dense matrices from
    the arrows and the merged faces' cycles, decided by the matrix product
    and fraction-free ranks. Returns (δ1, δ2, verdict, rank δ1, rank δ2),
    the verdict being "exact", "not a complex", "rank δ2" (δ2 not
    injective), "middle rank" or "disconnected" (the ranks fail in that
    order), or "empty"."""
    c1 = [model.arrow(a) for a in q1 if model.arrow(a).head in S]
    c2 = [r for r in q2 if r.head in S]
    row = {v: i for i, v in enumerate(sorted(S))}
    col = {a.id: i for i, a in enumerate(c1)}
    delta1 = [[0] * len(c1) for _ in row]
    for c, a in enumerate(c1):
        if a.tail in row:
            delta1[row[a.tail]][c] += 1
        delta1[row[a.head]][c] -= 1
    delta2 = [[0] * len(c2) for _ in c1]
    for c, r in enumerate(c2):
        for aids, sign in ((r.plus, 1), (r.minus, -1)):
            for aid in aids:
                if aid in col:
                    delta2[col[aid]][c] += sign
    r1, r2 = rational_rank(delta1), rational_rank(delta2)
    verdict = ("empty" if not S
               else "not a complex" if (any(map(any, mat_mul(delta1, delta2)))
                                        or any(map(sum, zip(*delta1))))
               else "rank δ2" if r2 != len(c2)
               else "middle rank" if r1 != len(c1) - r2
               else "disconnected" if len(S) - r1 != 1
               else "exact")
    return delta1, delta2, verdict, r1, r2


def walk_decision(model, mu_mask, S_mask):
    """The walk's decision on the vertex mask S: one row with S at degree 0
    and every other vertex at degree 1, walked to degree 0 with a fresh
    memo."""
    row = bytes(0 if S_mask >> p & 1 else 1 for p in range(len(model.vertices)))
    report, _ = resolution._walk(model, mu_mask, (row,), flat(model), 0, {})
    return not report.failures


def mask_decision(model, S, q1):
    """The walk's decision on S, for the matching whose unmatched arrows
    are q1."""
    layout = resolution._layout(model)
    mu_mask = sum(bit for aid, bit in _arrow_bits(model).items() if aid not in q1)
    return walk_decision(model, mu_mask, sum(1 << layout.position[v] for v in S))


def graph_equals_dense(model, S, q1, q2):
    """Asserts that the piece on S holds the dense oracle's matrices as
    incidences and that its ranks, its decision and the mask decision all
    equal the oracle's; returns the oracle's verdict."""
    piece = _piece(model, S, q1, q2)
    delta1, delta2, verdict, r1, r2 = dense_oracle(model, S, q1, q2)
    assert expand(piece) == (delta1, delta2)
    assert (_forest_size(piece.delta1), _forest_size(piece.delta2)) == (r1, r2)
    assert piece.is_exact() == (verdict == "exact"), verdict
    assert mask_decision(model, S, q1) == (verdict == "exact"), verdict
    return verdict


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES + ["uniform-3-7"])
def test_graph_decision_equals_dense_bareiss_on_every_piece(name):
    model = build(name)
    for mu in enumerate_matchings(model):
        q1, q2 = merged_complex_data(model, mu)
        sets = set()
        for v in model.vertices:
            dist = degrees_toward(model, mu, v.id)
            sets.update(frozenset(j for j, e in dist.items() if e <= d)
                        for d in range(max(dist.values()) + 1))
        for S in sets:
            assert graph_equals_dense(model, S, q1, q2) == "exact", (mu, S)


def test_graph_decision_equals_dense_bareiss_on_random_vertex_sets():
    """Seeded vertex sets that are not reachable sets: uniformly random
    ones, which are mostly not complexes, and unions of two reachable sets
    of one matching, which are complexes and may fail on rank."""
    verdicts = Counter()
    for name in CONSISTENT_FIXTURES:
        model = fx.FIXTURE_BUILDERS[name]()
        rng = random.Random(name)
        matchings = enumerate_matchings(model)
        vids = [v.id for v in model.vertices]
        for _ in range(150):
            mu = rng.choice(matchings)
            q1, q2 = merged_complex_data(model, mu)
            cut = rng.random()
            S = {v for v in vids if rng.random() < cut}
            sets = [S, set()]
            for _ in range(2):
                dist = degrees_toward(model, mu, rng.choice(vids))
                d = rng.randrange(max(dist.values()) + 1)
                sets[1] |= {j for j, e in dist.items() if e <= d}
            for S in sets:
                verdicts[graph_equals_dense(model, frozenset(S), q1, q2)] += 1
    assert {"exact", "not a complex", "middle rank", "disconnected"} <= set(verdicts), verdicts


def every_verdict(model, mu):
    """The piece's own decision on every vertex set, by vertex mask."""
    q1, q2 = merged_complex_data(model, mu)
    vertices = resolution._layout(model).vertices
    return [_piece(model, frozenset(v for p, v in enumerate(vertices) if S >> p & 1),
                   q1, q2).is_exact()
            for S in range(1 << len(vertices))]


def every_walk_decision(model, mu):
    """The walk's decision on every vertex set, by vertex mask."""
    mu_mask = _mask_of(model, mu)
    return [walk_decision(model, mu_mask, S) for S in range(1 << len(model.vertices))]


@pytest.mark.parametrize("name", [n for n in CONSISTENT_FIXTURES
                                  if len(fx.FIXTURE_BUILDERS[n]().vertices) <= 10])
def test_mask_decision_equals_the_piece_on_every_vertex_set(name):
    """Not only on reachable sets: on all 2^|V| vertex sets, for every
    matching of every consistent fixture with at most 10 vertices, the
    walk's level decision equals the piece's own, and so does the oracle's
    three-int decision."""
    model = fx.FIXTURE_BUILDERS[name]()
    layout = resolution._layout(model)
    for mu in enumerate_matchings(model):
        verdicts = every_verdict(model, mu)
        assert every_walk_decision(model, mu) == verdicts, mu
        table = oracles._piece_table(layout, _mask_of(model, mu))
        assert [oracles._is_exact(table, S) for S in range(1 << len(model.vertices))] == \
            verdicts, mu


def seeded_closed_sets(model):
    """Seeded random vertex sets, 100 for every fifth matching, each closed
    under the tails of the unmatched arrows into it: (μ, q1, q2, S)."""
    vertices = resolution._layout(model).vertices
    rng = random.Random("closed sets")
    for mu in enumerate_matchings(model)[::5]:
        q1, q2 = merged_complex_data(model, mu)
        unmatched = [model.arrow(a) for a in q1]
        for _ in range(100):
            S = {v for v in vertices if rng.random() < 0.25}
            while not (tails := {a.tail for a in unmatched if a.head in S}) <= S:
                S |= tails
            yield mu, q1, q2, frozenset(S)


def test_mask_decision_on_closed_sets_where_only_the_ranks_decide():
    """Seeded random vertex sets of `uniform-4-8`, closed under the tails
    of the unmatched arrows into them: the mask decision equals the
    piece's on each. Among them are sets that are closed and satisfy the
    count |S| − 1 = |C1| − |C2| but are not exact (the small fixtures have
    none), so that only a rank, here the connectivity of S, decides them;
    on those the dense verdict is taken too."""
    model = build("uniform-4-8")
    vertices = resolution._layout(model).vertices
    decided_by_rank = 0
    for mu, q1, q2, S in seeded_closed_sets(model):
        piece = _piece(model, S, q1, q2)
        S_mask = sum(1 << p for p, v in enumerate(vertices) if v in S)
        assert walk_decision(model, _mask_of(model, mu), S_mask) == piece.is_exact(), \
            (mu, sorted(S))
        if S and len(S) - 1 == len(piece.c1) - len(piece.c2) and not piece.is_exact():
            decided_by_rank += 1
            assert graph_equals_dense(model, S, q1, q2) == "middle rank"
    assert decided_by_rank


def delta2_is_injective_if_closed(piece):
    """The lemma the walk's decision stands on, checked on the union-find
    piece: on a closed vertex set rank δ2 = |C2|. Returns whether S was
    closed and C2 not empty, so that the lemma said something."""
    if any(t is None for t, _ in piece.delta1):
        return False
    assert _forest_size(piece.delta2) == len(piece.c2), piece
    return bool(piece.c2)


@pytest.mark.parametrize("name", [n for n in CONSISTENT_FIXTURES
                                  if len(fx.FIXTURE_BUILDERS[n]().vertices) <= 10])
def test_delta2_is_injective_on_every_closed_vertex_set(name):
    """All 2^|V| vertex sets, for every matching of every consistent
    fixture with at most 10 vertices; the closed ones are checked."""
    model = fx.FIXTURE_BUILDERS[name]()
    vertices = resolution._layout(model).vertices
    checked = faces = 0
    for mu in enumerate_matchings(model):
        q1, q2 = merged_complex_data(model, mu)
        faces += len(q2)
        for S in range(1 << len(vertices)):
            piece = _piece(model, frozenset(v for p, v in enumerate(vertices) if S >> p & 1),
                           q1, q2)
            checked += delta2_is_injective_if_closed(piece)
    assert checked or not faces


def test_delta2_is_injective_on_seeded_closed_sets():
    """The closed sets that the mask decision is tested on in `uniform-4-8`."""
    model = build("uniform-4-8")
    assert sum(delta2_is_injective_if_closed(_piece(model, S, q1, q2))
               for _, q1, q2, S in seeded_closed_sets(model))


def test_a_table_with_one_dropped_bit_is_caught(gr37, monkeypatch):
    """Against the piece's own decision on every vertex set, the flood's
    rows with one neighbour dropped are caught: for every third matching
    of gr37, some neighbour dropped from the neighbours of a vertex. Most
    single drops change no decision, as the set that a drop cuts apart
    must also be closed and pass the count for the flood to decide it."""
    neighbours = resolution._unmatched_neighbours
    for mu in enumerate_matchings(gr37)[::3]:
        verdicts = every_verdict(gr37, mu)
        rows = neighbours(resolution._layout(gr37), _mask_of(gr37, mu))

        def caught(p, q):
            bad = rows[:p] + (rows[p] & ~(1 << q),) + rows[p + 1:]
            monkeypatch.setattr(resolution, "_unmatched_neighbours", lambda layout, mu_mask: bad)
            return every_walk_decision(gr37, mu) != verdicts

        assert any(caught(p, q) for p, row in enumerate(rows)
                   for q in range(len(gr37.vertices)) if row >> q & 1), mu


def mutated_walk(monkeypatch, old, new):
    """Replaces `resolution._walk` by the function built from its source
    with the text `old`, found once, replaced by `new`."""
    source = inspect.getsource(resolution._walk)
    assert source.count(old) == 1, old
    scope = dict(vars(resolution))
    exec(source.replace(old, new), scope)
    monkeypatch.setattr(resolution, "_walk", scope["_walk"])


# Mutations of the walk's level decision: (text, replacement).
LEVEL_MUTATIONS = {
    "closure dropped": ("not free & ~O and", "True and"),
    "C2 left out of the count": ("free.bit_count() - (O & matched_internal).bit_count()",
                                 "free.bit_count()"),
}


@pytest.mark.parametrize("kind", LEVEL_MUTATIONS)
def test_a_mutated_level_decision_is_caught(gr37, monkeypatch, kind):
    """With the closure test alone or the count alone changed in the walk,
    the walk's decision differs from the piece's own on some vertex set of
    some matching of gr37. Dropping the closure changes no decision on a
    reachable set, as each is closed: only other vertex sets show it."""
    mutated_walk(monkeypatch, *LEVEL_MUTATIONS[kind])
    assert any(every_walk_decision(gr37, mu) != every_verdict(gr37, mu)
               for mu in enumerate_matchings(gr37))


def test_graded_piece_composition_is_zero(gr37):
    # delta1 . delta2 = 0 for the restricted complexes, composed from the
    # pieces' incidences
    for mu in enumerate_matchings(gr37)[:5]:
        for v in list(gr37.vertices)[:4]:
            for d in range(3):
                piece = graded_piece(gr37, mu, v.id, d)
                delta1, delta2 = expand(piece)
                for c in range(len(piece.c2)):
                    for r in range(len(piece.c0)):
                        total = sum(delta1[r][m] * delta2[m][c]
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


def rotation_oracle(model, mu, i, d):
    """ν = (μ \\ X) ∪ Y read off the degrees toward i by a scan of every
    arrow: X the matched arrows from degree d to d − 1, Y the unmatched
    ones from d − 1 to d."""
    dist = degrees_toward(model, mu, i)
    X = {a.id for a in model.arrows if a.id in mu.arrow_set
         and dist[a.tail] == d and dist[a.head] == d - 1}
    Y = {a.id for a in model.arrows if a.id not in mu.arrow_set
         and dist[a.tail] == d - 1 and dist[a.head] == d}
    return Matching(frozenset((mu.arrow_set - X) | Y))


@pytest.mark.parametrize("name", ["gr37", "uniform-2-5", "uniform-3-6"])
def test_rotations_from_level_masks_equal_the_arrow_scan(name):
    model = fx.FIXTURE_BUILDERS[name]()
    for mu in enumerate_matchings(model):
        for v in model.vertices:
            for d in range(1, saturation_degree(model, mu) + 2):
                assert rotate_matching(model, mu, v.id, d) == rotation_oracle(model, mu, v.id, d)


def rotation_failures(model):
    """The walk's rotation failure of each matching that has one."""
    return [(mu_mask, turn) for mu_mask, _, turn in resolution_reports(model) if turn]


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES)
def test_the_rotation_check_passes_on_every_consistent_fixture(name):
    model = fx.FIXTURE_BUILDERS[name]()
    assert rotation_failures(model) == []
    assert first_rotation_failure(model) is None


def test_the_rotation_check_fails_on_a_stale_table_entry(gr37, monkeypatch):
    """The rotation check reads both sides from the table: with one
    matching's height replaced by another's, so that its rows are the
    other's, it does not pass."""
    table = degree_table(gr37)
    heights = list(table.heights)
    heights[5] = heights[4]
    monkeypatch.setattr(resolution, "degree_table",
                        lambda model: table._replace(heights=tuple(heights)))
    assert rotation_failures(gr37)
    assert first_rotation_failure(gr37) is not None


def test_heights_shifted_past_255_walk_as_the_oracle(gr37):
    """No model here has a degree of 256, so degrees past 255 are tested on
    synthetic reference rows and heights, shifted to degrees up to 330:
    the walk gives the report and the rotation failure of the oracle walk
    on the rows `resolution._shifted` writes out."""
    table, shifted = degree_table(gr37), oracles.shifted_table(gr37)
    n = len(gr37.vertices)
    rng = random.Random("past 255")
    memo, oracle_memo, height_levels = {}, {}, {}
    tops = []
    for mu_mask in list(table.by_mask)[::5]:
        h = [rng.randint(0, 30) for _ in range(n)]
        ref = [[rng.randint(0, 300) + max(0, hj - hp) for hj in h] for hp in h]
        rows = [resolution._shifted(row, h, p) for p, row in enumerate(ref)]
        tops.append(max(map(max, rows)))
        for d_max in (None, 3):
            report, rotation = resolution._walk(gr37, mu_mask, ref, h, d_max, memo, table,
                                                height_levels)
            expected, expected_rotation = oracles.row_levels_walk(gr37, mu_mask, rows, d_max,
                                                                  oracle_memo, shifted)
            assert (report_tuple(report), rotation) == \
                (report_tuple(expected), expected_rotation), (mu_mask, d_max)
    assert min(tops) > 255


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


def test_check_resolution_rejects_a_negative_d_max(gr37):
    mu = enumerate_matchings(gr37)[0]
    with pytest.raises(ValueError, match="d_max must be nonnegative"):
        check_resolution(gr37, mu, -1)
    assert check_resolution(gr37, mu, 0).pieces_checked == len(gr37.vertices)


def per_piece_report(model, mu, d_max=None):
    """Oracle for check_resolution: every (vertex, degree) piece up to
    d_max (default: saturation + 1) built and decided afresh by
    graded_piece, and the Euler series summed directly."""
    degrees = {v.id: degrees_toward(model, mu, v.id) for v in model.vertices}
    if d_max is None:
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
    """check_resolution on one matching, and the reports over every
    matching read from the degree table with one memo across matchings,
    both equal the per-piece path, which uses neither."""
    model = fx.FIXTURE_BUILDERS[name]()
    reports = [(_matching_of(model, mu_mask), report)
               for mu_mask, report, _ in resolution_reports(model)]
    assert [mu for mu, _ in reports] == list(enumerate_matchings(model))
    for mu, report in reports:
        expected = per_piece_report(model, mu)
        assert report_tuple(check_resolution(model, mu)) == expected
        assert report_tuple(report) == expected


def whole_piece_rule(piece):
    """An arbitrary verdict that reads every part of a piece, so that a
    memo answering for a different piece shows in the reports."""
    return zlib.crc32(repr(piece).encode()) % 3 != 0


def closed_and_counted(piece):
    """What the walk decides before its memo: no δ1 tail of the piece is at
    the ground, and |C0| − 1 = |C1| − |C2|."""
    return (all(tail is not None for tail, _ in piece.delta1)
            and len(piece.c0) - 1 == len(piece.c1) - len(piece.c2))


def decide_by(monkeypatch, model, rule):
    """Replaces the connectivity of a piece by rule(piece) on both paths: in
    the per-piece path, where `GradedComplexPiece.is_exact` becomes the
    closure, the count and the rule, and behind the walk's memo, where the
    piece is rebuilt from the vertex mask S and μ (the flood rows the walk
    builds for μ are then μ's arrow mask)."""
    layout = resolution._layout(model)

    def rebuilt(mu_mask, S):
        mu = _matching_of(model, mu_mask)
        members = frozenset(v for p, v in enumerate(layout.vertices) if S >> p & 1)
        return rule(_piece(model, members, *merged_complex_data(model, mu)))

    monkeypatch.setattr(GradedComplexPiece, "is_exact",
                        lambda piece: closed_and_counted(piece) and rule(piece))
    monkeypatch.setattr(resolution, "_unmatched_neighbours", lambda layout, mu_mask: mu_mask)
    monkeypatch.setattr(resolution, "_connected", rebuilt)


@pytest.mark.parametrize("name", ["gr37", "uniform-2-5", "uniform-3-6"])
def test_memo_across_matchings_answers_for_the_piece_itself(name, monkeypatch):
    """With exactness replaced by a rule of the whole piece, the reports
    over every matching still equal the per-piece path: a memo hit never
    stands for another matching's piece."""
    model = fx.FIXTURE_BUILDERS[name]()
    decide_by(monkeypatch, model, whole_piece_rule)
    failures = 0
    for mu_mask, report, _ in resolution_reports(model):
        expected = per_piece_report(model, _matching_of(model, mu_mask))
        failures += len(expected[2])
        assert report_tuple(report) == expected
    assert failures


class KeyLog(dict):
    """A memo that answers no key, so that the walk floods every piece that
    reaches it, and logs the keys it was asked for."""

    def __init__(self):
        super().__init__()
        self.asked = []

    def get(self, key):
        self.asked.append(key)
        return None


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES)
def test_a_memo_hit_is_the_piece_built_from_the_matching_itself(name):
    """Every (matching, vertex set) whose memo key was seen before, with
    another matching or the same one, builds the very piece the key was
    first seen with. The sets are the level sets of the degree table's rows
    and of seeded random degree rows, keyed as in the oracle's
    `_row_levels`; every key the walk asks its memo for on a row, for the
    level sets that are closed and pass the count, is one of these. On a
    reachable set every μ-arrow out of S also ends in S, so there the
    internal μ-arrows out of S add nothing to the key; on other sets they
    do, and the key must hold on any S."""
    model = fx.FIXTURE_BUILDERS[name]()
    layout = resolution._layout(model)
    rng = random.Random(name)
    first = {}
    across = 0
    for mu, rows in zip(enumerate_matchings(model), oracles.shifted_table(model).rows):
        mu_mask = _mask_of(model, mu)
        q1, q2 = merged_complex_data(model, mu)
        cls = kclass_of_matching(model, mu)
        coefficients = [cls[v] for v in layout.vertices]
        random_rows = tuple(bytes(rng.randrange(4) for _ in layout.vertices) for _ in range(8))
        for row in rows + random_rows:
            sets, keys = oracles._row_levels(layout, mu_mask, coefficients, row)[:2]
            memo = KeyLog()
            resolution._walk(model, mu_mask, (row,), flat(model), None, memo)
            assert set(memo.asked) <= set(keys), (mu, row)
            for S, key in zip(sets, keys):
                members = frozenset(v for p, v in enumerate(layout.vertices) if S >> p & 1)
                piece = _piece(model, members, q1, q2)
                seen = first.setdefault(key, (mu, piece))
                assert seen[1] == piece, (seen[0], mu, sorted(members))
                across += seen[0] != mu
    assert across > 0


UNIFORM_UP_TO_8 = [name for n in range(3, 9) for k in range(1, n)
                   if (name := f"uniform-{k}-{n}") not in fx.FIXTURE_BUILDERS]


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES + UNIFORM_UP_TO_8)
def test_the_shared_walk_equals_the_separate_loops(name):
    """One walk of the degree table gives every matching's report, as the
    resolution loop of the oracle does with its own piece keys and the dict
    form of [N_μ], and no rotation failure, as the oracle's rotation loop."""
    model = build(name)
    walk = list(resolution_reports(model))
    assert [(mu_mask, report_tuple(report)) for mu_mask, report, _ in walk] == [
        (mu_mask, report_tuple(report)) for mu_mask, report in oracles.resolution_reports(model)]
    assert [turn for _, _, turn in walk if turn] == []
    assert first_rotation_failure(model) is None


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES + UNIFORM_UP_TO_8)
def test_the_fused_walk_equals_the_row_levels_oracle(name):
    """The walk that decides each piece from its level's arrow masks, and
    compares the sides of each rotation identity as masks, gives the report
    and the rotation failure of the oracle walk, which decides it from
    `_row_levels` keys and the three-int `_is_exact` and compares 0/1
    bytes of the shifted table's rows: on every matching's rows, the walk
    given ρ's rows and the matching's height, and on seeded random rows
    (to saturation + 1 and to degree 1), given at height 0, where most
    pieces and the rotations fail. Each path keeps one memo across the
    matchings, as `resolution_reports` does."""
    model = build(name)
    table, shifted = degree_table(model), oracles.shifted_table(model)
    n = len(model.vertices)
    rng = random.Random(name)
    memo, oracle_memo, height_levels = {}, {}, {}
    for mu_mask, k in table.by_mask.items():
        random_rows = tuple(bytes(rng.randrange(4) for _ in range(n)) for _ in range(n))
        for ref, h, rows, d_max in ((table.ref, table.heights[k], shifted.rows[k], None),
                                    (random_rows, flat(model), random_rows, None),
                                    (random_rows, flat(model), random_rows, 1)):
            report, rotation = resolution._walk(model, mu_mask, ref, h, d_max, memo, table,
                                                height_levels)
            expected, expected_rotation = oracles.row_levels_walk(model, mu_mask, rows, d_max,
                                                                  oracle_memo, shifted)
            assert (report_tuple(report), rotation) == \
                (report_tuple(expected), expected_rotation), (mu_mask, d_max)


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES + ["uniform-3-7", "uniform-4-8"])
def test_every_table_row_equals_degrees_toward(name):
    """The height identity: the first matching's rows shifted by each
    matching's height are that matching's own rows, searched alone, and
    the table's sublevel masks are the first matching's reachable sets."""
    model = build(name)
    table = degree_table(model)
    matchings = enumerate_matchings(model)
    assert len(table.heights) == len(table.by_mask) == len(matchings)
    for k, mu in enumerate(matchings):
        assert table.by_mask[sum(1 << i for i, a in enumerate(model.arrows)
                               if a.id in mu.arrow_set)] == k
        rows = [resolution._shifted(row, table.heights[k], p) for p, row in enumerate(table.ref)]
        assert [dict(zip((v.id for v in model.vertices), row)) for row in rows] == [
            degrees_toward(model, mu, v.id) for v in model.vertices]
        assert max(map(max, rows)) == saturation_degree(model, mu)
    rho = matchings[0]
    for v, below in zip(model.vertices, table.sublevels):
        assert len(below) == max(degrees_toward(model, rho, v.id).values()) + 1
        assert [frozenset(u.id for p, u in enumerate(model.vertices) if below[x] >> p & 1)
                for x in range(len(below))] == [
            frozenset(reachable_set(model, rho, v.id, x).members) for x in range(len(below))]
        assert below[-1] == (1 << len(model.vertices)) - 1


@pytest.mark.parametrize("name", ["gr37", "uniform-4-8"])
def test_the_degree_table_searches_one_matching(name, monkeypatch):
    """degree_table runs the level search once per target vertex, for the
    reference matching only; every other row is a height shift."""
    model = build(name)
    calls = []
    row = resolution._row
    monkeypatch.setattr(resolution, "_row", lambda *args: calls.append(args) or row(*args))
    degree_table(model)
    assert len(calls) == len(model.vertices)


def test_the_degree_table_is_built_once_and_cannot_change(gr37):
    table = degree_table(gr37)
    assert degree_table(gr37) is table
    with pytest.raises(TypeError):
        table.by_mask[0] = 0
    with pytest.raises(AttributeError):
        table.heights = ()


def test_single_matching_checks_do_not_build_the_degree_table():
    model = fx.gr37()
    mu = enumerate_matchings(model)[0]
    assert check_resolution(model, mu).passed
    rotate_matching(model, mu, model.vertices[0].id, 1)
    assert not [key for key in vars(model) if key.endswith(".degree_table")]
    degree_table(model)
    assert [key for key in vars(model) if key.endswith(".degree_table")]


@pytest.mark.parametrize("name", ["gr37", "uniform-2-5"])
def test_memoised_failures_reach_every_piece_sharing_the_set(name, monkeypatch):
    """With exactness replaced by an arbitrary rule of the piece, the
    memoised check still reports exactly the (vertex, degree) pairs whose
    own piece fails the rule."""
    model = fx.FIXTURE_BUILDERS[name]()
    decide_by(monkeypatch, model, lambda piece: len(piece.c0) % 3 != 1)
    for mu in enumerate_matchings(model)[:10]:
        expected = per_piece_report(model, mu)
        assert expected[2]
        assert report_tuple(check_resolution(model, mu)) == expected


@pytest.mark.parametrize("rule", [None, lambda piece: len(piece.c0) % 3 != 1],
                         ids=["exact", "ten-vertex-sets-fail"])
def test_degrees_past_saturation_are_counted_as_if_walked(gr37, monkeypatch, rule):
    """Far past saturation every piece is on the whole vertex set; the
    report still equals the per-piece walk over every degree, both when
    that piece is exact and (with exactness replaced by a rule that fails
    gr37's 10 vertices) when it is not, down to the order of failures."""
    if rule is not None:
        decide_by(monkeypatch, gr37, rule)
    for mu in enumerate_matchings(gr37)[::9]:
        d_max = saturation_degree(gr37, mu) + 50
        expected = per_piece_report(gr37, mu, d_max)
        assert bool(expected[2]) == (rule is not None)
        assert report_tuple(check_resolution(gr37, mu, d_max)) == expected


def test_one_changed_incidence_is_inexact(gr37):
    """Each single change to one C1 arrow's incidences in an exact piece
    leaves a piece that is not exact: swapping its plus and minus faces,
    grounding one end of its δ2 row, or moving its δ1 tail out of S."""
    mu = enumerate_matchings(gr37)[0]
    v = gr37.vertices[0].id
    piece = graded_piece(gr37, mu, v, saturation_degree(gr37, mu))
    assert piece.c2 and piece.is_exact()

    def changed(m, delta1=None, delta2=None):
        return dataclasses.replace(
            piece,
            delta1=piece.delta1[:m] + (delta1 or piece.delta1[m],) + piece.delta1[m + 1:],
            delta2=piece.delta2[:m] + (delta2 or piece.delta2[m],) + piece.delta2[m + 1:])

    mutants = []
    for m, ((_, head), (plus, minus)) in enumerate(zip(piece.delta1, piece.delta2)):
        if plus != minus:
            mutants.append(("swap", m, changed(m, delta2=(minus, plus))))
        if plus is not None:
            mutants.append(("ground plus", m, changed(m, delta2=(None, minus))))
        if minus is not None:
            mutants.append(("ground minus", m, changed(m, delta2=(plus, None))))
        mutants.append(("tail out of S", m, changed(m, delta1=(None, head))))
    assert {kind for kind, _, _ in mutants} == {"swap", "ground plus", "ground minus",
                                                "tail out of S"}
    for kind, m, mutant in mutants:
        assert not mutant.is_exact(), (kind, m)
