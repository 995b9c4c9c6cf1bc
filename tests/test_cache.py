"""Per-model memoisation: cached results equal fresh ones, cannot be changed
through what a caller gets back, and each analysis runs once per instance."""

import gc
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from discdimer import fixtures as fx
from discdimer import matchings as matchings_mod
from discdimer import model as model_mod
from discdimer import strands as strands_mod
from discdimer.kasteleyn import kasteleyn_signs
from discdimer.matchings import (boundary_value, enumerate_matchings, matchings_with_boundary,
                                 positroid, positroid_contains_necklace_test)
from discdimer.model import (Arrow, DimerModel, Face, StructuralError, Vertex, bipartite_dual,
                             from_dict, opposite, to_dict, type_of, validate)
from discdimer.partition_functions import boundary_measurement
from discdimer.strands import (check_postnikov, label_table, necklaces, require_consistent,
                               strands)

MODELS = {**fx.FIXTURE_BUILDERS, "uniform-3-7": lambda: fx.build_uniform(3, 7)}

MEMOISED = {
    "validate": validate,
    "type_of": type_of,
    "bipartite_dual": bipartite_dual,
    "opposite": opposite,
    "strands": strands,
    "check_postnikov": check_postnikov,
    "label_table": label_table,
    "necklaces": necklaces,
    "enumerate_matchings": enumerate_matchings,
    "positroid": positroid,
    "kasteleyn_signs": kasteleyn_signs,
    "matchings_with_boundary": lambda m: {I: matchings_with_boundary(m, I)
                                          for I in positroid(m)},
}


def outcome(fn, model):
    try:
        return "ok", fn(model)
    except ValueError as exc:
        return type(exc), str(exc)


def fresh(model):
    """An equal model with nothing computed yet: the uncached oracle."""
    return from_dict(to_dict(model))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_cached_results_equal_fresh_instances(name):
    model = MODELS[name]()
    first = {key: outcome(fn, model) for key, fn in MEMOISED.items()}
    for key, fn in MEMOISED.items():
        oracle = outcome(fn, fresh(model))
        assert first[key] == oracle, key
        assert outcome(fn, model) == oracle, key


def test_mutating_a_result_changes_no_later_call(gr37):
    model = fresh(gr37)
    report = validate(model)
    report.checks.clear()
    report.n = 0
    table = label_table(model)
    table.source.clear()
    table.target[0] = frozenset()
    consistency = check_postnikov(model)
    consistency.b1_pass = False
    source, target = necklaces(model)
    source.clear()
    target[1] = frozenset()
    for result in (strands(model), enumerate_matchings(model),
                   matchings_with_boundary(model, [1, 3, 5]), kasteleyn_signs(model)):
        result.clear()

    oracle = fresh(gr37)
    assert validate(model) == validate(oracle) and validate(model).n == 7
    assert label_table(model) == label_table(oracle)
    assert check_postnikov(model) == check_postnikov(oracle)
    assert necklaces(model) == necklaces(oracle)
    assert strands(model) == strands(oracle)
    assert enumerate_matchings(model) == enumerate_matchings(oracle)
    assert len(matchings_with_boundary(model, [1, 3, 5])) == 3
    assert kasteleyn_signs(model) == kasteleyn_signs(oracle)


def test_validation_and_strands_run_once_per_instance(monkeypatch):
    model = fx.build_uniform(3, 6)
    other = fresh(model)  # an equal instance, which must share nothing
    calls = {"structure": 0, "trace": 0}
    check_structure, trace = model_mod._check_structure, strands_mod._trace

    def counted_structure(m):
        calls["structure"] += 1
        return check_structure(m)

    def counted_trace(m, label):
        calls["trace"] += 1
        return trace(m, label)

    monkeypatch.setattr(model_mod, "_check_structure", counted_structure)
    monkeypatch.setattr(strands_mod, "_trace", counted_trace)
    label_table(model)
    members = [positroid_contains_necklace_test(model, I) for I in positroid(model)]
    boundary_measurement(model, {a.id: Fraction(a.id + 1, 2) for a in model.arrows})
    assert all(members) and len(members) == 20
    assert calls == {"structure": 1, "trace": 6}

    label_table(other)
    assert calls == {"structure": 2, "trace": 12}


def test_measurement_and_positroid_enumerate_no_matching(monkeypatch):
    model = fx.build_uniform(4, 8)
    other = fresh(model)  # enumerated before the patch, sharing nothing with model
    counts = Counter(boundary_value(other, mu) for mu in enumerate_matchings(other))

    def no_enumeration(*args):
        raise AssertionError("a matching was enumerated")

    monkeypatch.setattr(matchings_mod, "_cover", no_enumeration)
    vec = boundary_measurement(model, {a.id: Fraction(1) for a in model.arrows})
    assert {frozenset(I): x for I, x in vec.values if x} == counts
    assert positroid(model) == set(counts) and len(counts) == 70
    with pytest.raises(AssertionError):
        enumerate_matchings(model)


def test_inconsistent_model_raises_the_same_error_every_call(inconsistent):
    model = fresh(inconsistent)
    errors = []
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            require_consistent(model)
        errors.append((info.type, str(info.value)))
    assert errors[0] == errors[1]
    assert errors[0][1].startswith("model is not consistent")


def test_structural_error_is_stored_and_raised_again(monkeypatch):
    model = DimerModel((Vertex(0, True),), (Arrow(0, 0, 9, True, 1),), (Face(0, "white", (0,)),))
    calls = []
    check_structure = model_mod._check_structure
    monkeypatch.setattr(model_mod, "_check_structure",
                        lambda m: calls.append(m) or check_structure(m))
    messages = []
    for _ in range(2):
        with pytest.raises(StructuralError) as info:
            validate(model)
        messages.append(str(info.value))
    assert messages == ["arrow 0 references unknown vertex"] * 2
    assert len(calls) == 1


def test_enumerated_matchings_are_freed_without_the_cyclic_collector():
    gc.collect()
    gc.disable()
    try:
        model = fx.build_uniform(4, 9)
        found = enumerate_matchings(model)
        assert len(found) == 1450
        probe = weakref.ref(found[0])
        del found, model
        assert probe() is None
    finally:
        gc.enable()
