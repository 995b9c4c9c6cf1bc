"""Structural validation, duality, standardisation, and serialization."""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discdimer import fixtures as fx
from discdimer.model import (BLACK, WHITE, StructuralError,
                             bipartite_dual, from_dict, is_standardised, load,
                             opposite, require_valid, save, standardise,
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
], ids=["string-bool", "int-bool", "float-vertex-id", "float-arrow-id", "float-tail",
        "bool-head", "float-face-id", "string-cycle-entry", "float-label"])
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
