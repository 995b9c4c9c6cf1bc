"""Structural validation, duality, standardisation, and serialization."""

import json
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import flood, tiles_reached

from discdimer import fixtures as fx
from discdimer.model import (BLACK, WHITE, ModelReport, ReadOnlyDict, StructuralError,
                             _arrow_mask, _check_boundary_cycle, _check_structure,
                             _incidence_ok, _tiles_reached, bipartite_dual, from_dict,
                             is_standardised, load, opposite, require_valid, save, standardise,
                             to_dict, type_of, validate)

ALL_FIXTURES = sorted(fx.FIXTURE_BUILDERS)
CONSISTENT_FIXTURES = [n for n in ALL_FIXTURES if n != "inconsistent"]


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_all_fixtures_validate(name):
    report = validate(fx.FIXTURE_BUILDERS[name]())
    assert report.passed, report.failures()
    assert report.connected is True


@pytest.mark.parametrize("name,expected", [
    ("triangle", (1, 3)), ("gr37", (3, 7)), ("uniform-1-3", (1, 3)),
    ("uniform-2-4", (2, 4)), ("uniform-2-5", (2, 5)), ("uniform-3-6", (3, 6)),
])
def test_types(name, expected):
    assert type_of(fx.FIXTURE_BUILDERS[name]()) == expected


def test_build_uniform_rejects_bad_type():
    with pytest.raises(ValueError):
        fx.build_uniform(0, 3)
    with pytest.raises(ValueError):
        fx.build_uniform(3, 3)
    # Its 1 x 1 rectangle is only the contracted bend: no node to build from.
    with pytest.raises(ValueError, match=r"cannot build type \(1, 2\)"):
        fx.build_uniform(1, 2)


@pytest.mark.parametrize("k,n", [(1, 4), (3, 5), (2, 6), (4, 7)])
def test_build_uniform_extra_types_validate(k, n):
    model = fx.build_uniform(k, n)
    require_valid(model)
    assert type_of(model) == (k, n)
    # tile count of the uniform model
    assert len(model.vertices) == k * (n - k) + 1


def test_roundtrip(tmp_path, gr37):
    path = tmp_path / "m.json"
    save(gr37, path)
    assert load(path) == gr37
    assert from_dict(json.loads(json.dumps(to_dict(gr37)))) == gr37


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(StructuralError):
        load(path)


def test_from_dict_rejects_missing_keys():
    with pytest.raises(StructuralError):
        from_dict({"vertices": [], "arrows": []})


@pytest.mark.parametrize("path,value,message", [
    (("vertices", 9, "is_boundary"), "false",
     "vertices[9].is_boundary must be true or false, got 'false'"),
    (("arrows", 2, "is_boundary"), 0, "arrows[2].is_boundary must be true or false, got 0"),
    (("vertices", 1, "id"), 1.5, "vertices[1].id must be an integer, got 1.5"),
    (("arrows", 3, "id"), 3.5, "arrows[3].id must be an integer, got 3.5"),
    (("arrows", 3, "tail"), 0.0, "arrows[3].tail must be an integer, got 0.0"),
    (("arrows", 3, "head"), True, "arrows[3].head must be an integer, got True"),
    (("faces", 4, "id"), 4.5, "faces[4].id must be an integer, got 4.5"),
    (("faces", 4, "boundary_cycle", 0), "7",
     "faces[4].boundary_cycle[0] must be an integer, got '7'"),
    (("arrows", 11, "boundary_label"), 4.0,
     "arrows[11].boundary_label must be an integer, got 4.0"),
    (("faces", 2, "color"), 1, "faces[2].color must be a string, got 1"),
    (("faces", 2, "color"), None, "faces[2].color must be a string, got None"),
    (("faces", 2, "color"), True, "faces[2].color must be a string, got True"),
    (("faces", 2, "color"), ["white"], "faces[2].color must be a string, got ['white']"),
], ids=["string-bool", "int-bool", "float-vertex-id", "float-arrow-id", "float-tail",
        "bool-head", "float-face-id", "string-cycle-entry", "float-label", "int-colour",
        "null-colour", "bool-colour", "list-colour"])
def test_from_dict_coerces_nothing(gr37, path, value, message):
    doc = to_dict(gr37)
    *keys, last = path
    entry = doc
    for key in keys:
        entry = entry[key]
    entry[last] = value
    with pytest.raises(StructuralError) as info:
        from_dict(doc)
    assert str(info.value) == f"malformed document: {message}"


def test_from_dict_names_an_unknown_colour_string(gr37):
    doc = to_dict(gr37)
    doc["faces"][2]["color"] = "red"
    with pytest.raises(StructuralError) as info:
        from_dict(doc)
    assert str(info.value) == f"face {doc['faces'][2]['id']} has colour 'red'"


@pytest.mark.parametrize("section", ["vertices", "arrows", "faces"])
def test_from_dict_rejects_a_record_that_is_not_an_object(gr37, section):
    doc = to_dict(gr37)
    doc[section][0] = [0, 1]
    with pytest.raises(StructuralError):
        from_dict(doc)


def test_two_disjoint_triangles_are_not_connected(triangle):
    doc = to_dict(triangle)
    shift = {"id": 100, "tail": 100, "head": 100, "boundary_label": 3}
    copy = {section: [{key: (value + shift[key] if key in shift else value)
                       for key, value in rec.items()} for rec in records]
            for section, records in doc.items()}
    for face in copy["faces"]:
        face["boundary_cycle"] = [a + 100 for a in face["boundary_cycle"]]
    union = from_dict({section: doc[section] + copy[section] for section in doc})
    report = validate(union)
    assert report.connected is False
    assert report.checks["connected"] == (False, "quiver is disconnected")


def test_validate_catches_loop(triangle):
    doc = to_dict(triangle)
    doc["arrows"][0]["head"] = doc["arrows"][0]["tail"]
    report = validate(from_dict(doc))
    assert not report.passed
    assert "no_loops" in report.failures()


def test_validate_catches_face_multiplicity(gr37):
    doc = to_dict(gr37)
    doc["faces"][0]["boundary_cycle"] = doc["faces"][0]["boundary_cycle"][:-1]
    model = from_dict(doc)
    assert not validate(model).passed


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_opposite_is_involution(name):
    model = fx.FIXTURE_BUILDERS[name]()
    assert opposite(opposite(model)) == model
    # the opposite swaps colours but keeps ids
    op = opposite(model)
    assert {a.id for a in op.arrows} == {a.id for a in model.arrows}
    for f in model.faces:
        assert op.face(f.id).color != f.color


@pytest.mark.parametrize("name", CONSISTENT_FIXTURES)
@pytest.mark.parametrize("color", [WHITE, BLACK])
def test_standardise(name, color):
    model = fx.FIXTURE_BUILDERS[name]()
    std = standardise(model, color)
    require_valid(std)
    assert is_standardised(std, color)
    assert type_of(std) == type_of(model)
    # idempotent once standardised
    assert standardise(std, color) == std


def test_bipartite_dual_counts(gr37):
    dual = bipartite_dual(gr37)
    assert len(dual.nodes) == len(gr37.faces)
    assert len(dual.edges) == len(gr37.internal_arrows)
    assert sorted(h.label for h in dual.half_edges) == list(range(1, 8))


def test_is_clockwise_only_for_boundary(gr37):
    internal = gr37.internal_arrows[0]
    with pytest.raises(ValueError):
        gr37.is_clockwise(internal.id)


RECORD_KEYS = {"vertices": ("id", "is_boundary"),
               "arrows": ("id", "tail", "head", "is_boundary", "boundary_label"),
               "faces": ("id", "color", "boundary_cycle")}


def mutated_document(doc, kind, data):
    """A malformed copy of `doc`: a dict for the record-level kinds, the
    document's JSON text cut short for "truncated"."""
    doc = json.loads(json.dumps(doc))
    if kind == "truncated":
        text = json.dumps(doc)
        return text[:data.draw(st.integers(0, len(text) - 1), label="cut")]
    section = data.draw(st.sampled_from(sorted(RECORD_KEYS)), label="section")
    record = data.draw(st.sampled_from(doc[section]), label="record")
    if kind == "missing_key":
        key = data.draw(st.sampled_from([k for k in RECORD_KEYS[section] if k in record]),
                        label="key")
        del record[key]
    elif kind == "dangling_arrow":
        face = data.draw(st.sampled_from(doc["faces"]), label="face")
        pos = data.draw(st.integers(0, len(face["boundary_cycle"]) - 1), label="pos")
        face["boundary_cycle"][pos] = (max(a["id"] for a in doc["arrows"])
                                       + data.draw(st.integers(1, 9), label="offset"))
    elif kind == "string_bool":
        key = "is_boundary" if section != "faces" else "color"
        record[key] = data.draw(st.sampled_from(["false", "true", "0", "1"]), label="text")
    elif kind == "float_id":
        record["id"] += data.draw(st.sampled_from([0.5, 0.0, -0.25]), label="fraction")
    return doc


@settings(max_examples=200, deadline=None, derandomize=True)
@given(name=st.sampled_from(ALL_FIXTURES),
       kind=st.sampled_from(["missing_key", "dangling_arrow", "string_bool", "float_id",
                             "truncated"]),
       data=st.data())
def test_a_mutated_document_is_rejected_or_reported(name, kind, data):
    """Every mutated fixture document is rejected with a ValueError
    (StructuralError is one) or gives a model whose validation report
    fails; nothing else is raised. Each kind of mutation leaves a real
    defect, so no mutant may pass."""
    mutant = mutated_document(to_dict(fx.FIXTURE_BUILDERS[name]()), kind, data)
    try:
        if isinstance(mutant, str):
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "model.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(mutant)
                model = load(path)
        else:
            model = from_dict(mutant)
    except ValueError:
        return
    assert not validate(model).passed


# ---------------------------------------------------------------------------
# Oracle: the axioms read arrow by arrow and face by face
# ---------------------------------------------------------------------------

def oracle_incidence_ok(nodes, edges, on_boundary):
    """Whether the graph on the arrows at one vertex, joined by consecutive
    pairs through that vertex, is a line (boundary) or a cycle (internal):
    degrees, adjacency and a flood fill, then the shape."""
    if not nodes:
        return False
    degree = {nid: 0 for nid in nodes}
    adj = {nid: [] for nid in nodes}
    for x, y in edges:
        if x not in degree or y not in degree:
            return False
        degree[x] += 1
        degree[y] += 1
        adj[x].append(y)
        adj[y].append(x)
    if len(flood(adj, [nodes[0]])) != len(nodes):
        return False
    degs = sorted(degree.values())
    if on_boundary:
        if len(nodes) == 1:
            return not edges
        return len(edges) == len(nodes) - 1 and degs[:2] == [1, 1] and all(
            d == 2 for d in degs[2:])
    return len(edges) == len(nodes) and all(d == 2 for d in degs)


def oracle_validate(model):
    """Every axiom checked with the model's lookups: sorted face colours per
    arrow, and the face cycles walked once per check."""
    _check_structure(model)
    checks = {}
    loops = [a.id for a in model.arrows if a.tail == a.head]
    checks["no_loops"] = (not loops, f"loop arrows: {loops}")
    bad_mult = []
    for a in model.arrows:
        colors = sorted(model.face(fid).color for fid in model.faces_of_arrow(a.id))
        if not (len(colors) == 1 if a.is_boundary else colors == [BLACK, WHITE]):
            bad_mult.append(a.id)
    checks["face_multiplicity"] = (not bad_mult, f"arrows: {bad_mult}")
    bad_faces = []
    for f in model.faces:
        cyc = f.boundary_cycle
        for i, aid in enumerate(cyc):
            if model.arrow(aid).head != model.arrow(cyc[(i + 1) % len(cyc)]).tail:
                bad_faces.append(f.id)
                break
    checks["oriented_cycles"] = (not bad_faces, f"faces: {bad_faces}")
    nodes_at = {v.id: [] for v in model.vertices}
    edges_at = {v.id: [] for v in model.vertices}
    for a in model.arrows:
        nodes_at[a.tail].append(a.id)
        if a.head != a.tail:
            nodes_at[a.head].append(a.id)
    for f in model.faces:
        cyc = f.boundary_cycle
        for i, aid in enumerate(cyc):
            edges_at[model.arrow(aid).head].append((aid, cyc[(i + 1) % len(cyc)]))
    bad_vertices = [v.id for v in model.vertices
                    if not oracle_incidence_ok(nodes_at[v.id], edges_at[v.id], v.is_boundary)]
    checks["vertex_incidence"] = (not bad_vertices, f"vertices: {bad_vertices}")
    euler = len(model.vertices) - len(model.arrows) + len(model.faces)
    checks["euler"] = (euler == 1, f"chi = {euler}")
    boundary = model.boundary_arrows
    checks["boundary_cycle"] = _check_boundary_cycle(model, boundary)
    on_boundary = {end for a in boundary for end in (a.tail, a.head)}
    flag_bad = [v.id for v in model.vertices if v.is_boundary != (v.id in on_boundary)]
    checks["boundary_flags"] = (not flag_bad, f"vertices: {flag_bad}")
    connected = bool(model.vertices) and (
        len(tiles_reached(model, [model.vertices[0].id])) == len(model.vertices))
    checks["connected"] = (connected, "quiver is disconnected" if not connected else "")
    return ModelReport(ReadOnlyDict(checks), len(boundary), connected)


def assert_validate_matches_oracle(model):
    """The same report (checks in order, with their details; n; connected),
    or the same StructuralError."""
    try:
        expected = oracle_validate(model)
    except StructuralError as exc:
        with pytest.raises(StructuralError) as info:
            validate(model)
        assert str(info.value) == str(exc)
        return
    report = validate(model)
    assert list(report.checks.items()) == list(expected.checks.items())
    assert (report.n, report.connected) == (expected.n, expected.connected)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_validate_matches_the_oracle_on_fixtures(name):
    assert_validate_matches_oracle(fx.FIXTURE_BUILDERS[name]())


@pytest.mark.parametrize("n", range(3, 11))
def test_validate_matches_the_oracle_on_uniform_models(n):
    for k in range(1, min(n, 6)):
        assert_validate_matches_oracle(fx.build_uniform(k, n))


@pytest.mark.parametrize("nodes, edges, on_boundary, expected", [
    ([1, 2], [(1, 2), (1, 2)], False, True),   # one pair twice: a cycle of two arrows
    ([1, 2], [(1, 2), (2, 1)], False, True),
    ([1, 2], [(1, 2), (1, 2)], True, False),   # a line has one edge fewer than nodes
    ([1, 2, 3], [(1, 2), (1, 2), (2, 3)], False, False),  # the repeat gives 2 degree 3
    ([1, 2, 3, 4], [(1, 2), (1, 2), (3, 4), (3, 4)], False, False),  # two cycles
    ([1, 2, 3], [(1, 2), (2, 3)], True, True),
    ([1, 2, 3], [(2, 1), (1, 3)], True, True),
    ([1, 2, 3], [(1, 2), (2, 3), (3, 1)], False, True),
    ([1, 2, 3], [(1, 2), (1, 2)], True, False),  # degrees fine, 3 cut off
    ([1], [], True, True),
    ([1], [(1, 1)], False, True),
    ([1, 2], [(1, 3), (2, 1)], False, False),  # an edge to an arrow not at the vertex
    ([], [], False, False),
])
def test_incidence_ok_matches_the_oracle(nodes, edges, on_boundary, expected):
    assert _incidence_ok(nodes, edges, on_boundary) is expected
    assert oracle_incidence_ok(nodes, edges, on_boundary) is expected


def subdivided(model, aid):
    """`model` with the internal arrow `aid` split in two at a new internal
    vertex w: both faces of the arrow pass through w along the same pair of
    arrows, so the consecutive pairs at w repeat one pair."""
    doc = to_dict(model)
    w = max(v["id"] for v in doc["vertices"]) + 1
    second = max(a["id"] for a in doc["arrows"]) + 1
    arrow = next(a for a in doc["arrows"] if a["id"] == aid)
    doc["vertices"].append({"id": w, "is_boundary": False})
    doc["arrows"].append({"id": second, "tail": w, "head": arrow["head"], "is_boundary": False})
    arrow["head"] = w
    for face in doc["faces"]:
        cycle = face["boundary_cycle"]
        if aid in cycle:
            cycle.insert(cycle.index(aid) + 1, second)
    return from_dict(doc)


def test_a_vertex_whose_pairs_repeat_one_pair_validates_as_the_oracle(gr37):
    for a in gr37.internal_arrows:
        model = subdivided(gr37, a.id)
        assert validate(model).passed
        assert_validate_matches_oracle(model)


@pytest.mark.parametrize("name", ALL_FIXTURES + ["uniform-4-8", "gr37-black", "uniform-3-6-white"])
def test_tiles_reached_floods_as_the_set_oracle(name):
    """The bitmask flood over the graph index reaches the tiles the set
    flood over adjacency lists reaches, for seeded seeds and cuts; the
    standardised models hold digons, whose two arrows join the same tiles."""
    model = {"uniform-4-8": lambda: fx.build_uniform(4, 8),
             "gr37-black": lambda: standardise(fx.gr37(), BLACK),
             "uniform-3-6-white": lambda: standardise(fx.build_uniform(3, 6), WHITE),
             }.get(name, fx.FIXTURE_BUILDERS.get(name))()
    rng = random.Random(f"tiles/{name}")
    vids = [v.id for v in model.vertices]
    aids = [a.id for a in model.arrows]
    for _ in range(60):
        seeds = rng.sample(vids, rng.randint(1, 3))
        cut = rng.sample(aids, rng.randint(0, len(aids)))
        reached = _tiles_reached(model, sum(1 << vids.index(v) for v in seeds),
                                 _arrow_mask(model, cut))
        assert {v for p, v in enumerate(vids) if reached >> p & 1} == tiles_reached(
            model, seeds, cut)


def test_a_colour_other_than_black_or_white_is_rejected(gr37):
    for call in (lambda: standardise(gr37, "red"), lambda: is_standardised(gr37, "red")):
        with pytest.raises(ValueError, match=r"^bad colour 'red'$"):
            call()


AXIOM_MUTATIONS = ("head", "reverse", "rotate", "move", "flag", "colour")


def axiom_mutant(doc, data):
    """A copy of `doc` with one to three axiom-level defects: an arrow's head
    redirected, a face cycle reversed or rotated, an arrow moved to another
    face, a vertex's boundary flag flipped, a face colour swapped."""
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3), label="count")):
        kind = data.draw(st.sampled_from(AXIOM_MUTATIONS), label="kind")
        face = data.draw(st.sampled_from(doc["faces"]), label="face")
        cycle = face["boundary_cycle"]
        if kind == "head":
            arrow = data.draw(st.sampled_from(doc["arrows"]), label="arrow")
            arrow["head"] = data.draw(st.sampled_from([v["id"] for v in doc["vertices"]]),
                                      label="vertex")
        elif kind == "reverse":
            cycle.reverse()
        elif kind == "rotate":
            r = data.draw(st.integers(0, len(cycle) - 1), label="by")
            face["boundary_cycle"] = cycle[r:] + cycle[:r]
        elif kind == "move":
            aid = cycle.pop(data.draw(st.integers(0, len(cycle) - 1), label="pos"))
            target = data.draw(st.sampled_from(doc["faces"]), label="target")["boundary_cycle"]
            target.insert(data.draw(st.integers(0, len(target)), label="at"), aid)
        elif kind == "flag":
            vertex = data.draw(st.sampled_from(doc["vertices"]), label="vertex")
            vertex["is_boundary"] = not vertex["is_boundary"]
        else:
            face["color"] = WHITE if face["color"] == BLACK else BLACK
    return doc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(name=st.sampled_from(ALL_FIXTURES + ["uniform-3-7"]), data=st.data())
def test_validate_matches_the_oracle_on_axiom_mutants(name, data):
    model = (fx.build_uniform(3, 7) if name == "uniform-3-7"
             else fx.FIXTURE_BUILDERS[name]())
    mutant = axiom_mutant(to_dict(model), data)
    try:
        model = from_dict(mutant)
    except StructuralError:
        return  # only mutants that pass the structure check
    assert_validate_matches_oracle(model)
