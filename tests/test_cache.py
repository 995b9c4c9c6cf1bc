"""Per-model memoisation: cached results equal fresh ones, are shared and
cannot be changed through what a caller gets back, and each analysis runs
once per instance."""

import copy
import gc
import importlib
import pickle
import sys
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from oracles import _ms_sum, _twist_sum

from discdimer import fixtures as fx
from discdimer import kclass_weights as kclass_mod
from discdimer import matchings as matchings_mod
from discdimer import model as model_mod
from discdimer import partition_functions as partition_mod
from discdimer import resolution as resolution_mod
from discdimer import strands as strands_mod
from discdimer.kasteleyn import kasteleyn_signs
from discdimer.lattice_maps import _eta_smith, eta_matrix, lattice_basis
from discdimer.matchings import (Matching, _enumeration, _matching_of, boundary_value,
                                 enumerate_matchings, extreme_matchings, matchings_with_boundary,
                                 positroid, positroid_contains_necklace_test, support_subgraph)
from discdimer.model import (Arrow, DimerModel, Face, StructuralError, Vertex, bipartite_dual,
                             WHITE, from_dict, opposite, standardise, to_dict, type_of, validate)
from discdimer.partition_functions import (boundary_measurement, ms_formula,
                                           ms_formula_white_v2, musp_twist_expression)
from discdimer.strands import (check_postnikov, label_table, necklaces, require_consistent,
                               strands)
from discdimer.verify import run_checks

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
    "_enumeration": _enumeration,
    "lattice_basis": lattice_basis,
    "eta_matrix": eta_matrix,
    "eta_smith": _eta_smith,
}

# Computed afresh on every call, so compared by value only.
UNSTORED = {
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
    checked = {**MEMOISED, **UNSTORED}
    first = {key: outcome(fn, model) for key, fn in checked.items()}
    for key, fn in checked.items():
        oracle = outcome(fn, fresh(model))
        assert first[key] == oracle, key
        assert outcome(fn, model) == oracle, key


def test_mutating_a_result_changes_no_later_call(gr37):
    model = fresh(gr37)
    report = validate(model)
    table = label_table(model)
    consistency = check_postnikov(model)
    source, target = necklaces(model)
    attempts = [
        lambda: report.checks.clear(),
        lambda: report.checks.update(no_loops=(False, "")),
        lambda: setattr(report, "n", 0),
        lambda: table.source.clear(),
        lambda: table.target.__setitem__(0, frozenset()),
        lambda: table.target.setdefault(99, frozenset()),
        lambda: setattr(table, "source", {}),
        lambda: setattr(consistency, "b1_witness", (1, 0)),
        lambda: setattr(consistency, "b1_pass", False),
        lambda: source.clear(),
        lambda: source.pop(1),
        lambda: target.__setitem__(1, frozenset()),
        lambda: target.__delitem__(1),
        lambda: target.popitem(),
        lambda: kasteleyn_signs(model).clear(),
        lambda: kasteleyn_signs(model).__ior__({0: 1}),
    ]
    for result in (strands(model), enumerate_matchings(model),
                   matchings_with_boundary(model, [1, 3, 5]), _enumeration(model)[1],
                   lattice_basis(model), eta_matrix(model), eta_matrix(model)[0]):
        attempts += [lambda result=result: result.clear(),
                     lambda result=result: result.__setitem__(0, None)]
    for attempt in attempts:
        with pytest.raises((TypeError, AttributeError)):
            attempt()

    oracle = fresh(gr37)
    assert validate(model) == validate(oracle) and validate(model).n == 7
    assert label_table(model) == label_table(oracle)
    assert check_postnikov(model) == check_postnikov(oracle)
    assert necklaces(model) == necklaces(oracle)
    assert strands(model) == strands(oracle)
    assert enumerate_matchings(model) == enumerate_matchings(oracle)
    assert len(matchings_with_boundary(model, [1, 3, 5])) == 3
    assert kasteleyn_signs(model) == kasteleyn_signs(oracle)


@pytest.mark.parametrize("name", ["gr37", "inconsistent"])
def test_memoised_calls_return_the_stored_object(name):
    model = fresh(MODELS[name]())
    for key, fn in MEMOISED.items():
        kind, first = outcome(fn, model)
        if kind != "ok":
            continue
        assert fn(model) is first, key
    for a in model.arrows:
        assert type(model.faces_of_arrow(a.id)) is tuple
        assert model.faces_of_arrow(a.id) is model.faces_of_arrow(a.id)


def test_read_only_results_copy_and_pickle_as_equal_values(gr37):
    for result in (validate(gr37), label_table(gr37), necklaces(gr37), kasteleyn_signs(gr37)):
        for clone in (copy.copy(result), copy.deepcopy(result),
                      pickle.loads(pickle.dumps(result))):
            assert clone == result


def test_validation_and_strands_run_once_per_instance(monkeypatch):
    model = fx.build_uniform(3, 6)
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

    other = fresh(model)  # an equal instance, which must share nothing; validated on load
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


def test_one_subset_callers_enumerate_nothing_else(monkeypatch):
    """A caller with one boundary value searches only that value's matchings:
    with the full enumeration disabled, each gives the answer computed from
    the grouped matchings of an equal model."""
    model = fx.build_uniform(4, 8)
    std = standardise(fx.build_uniform(4, 8), WHITE)
    other, std_other = fresh(model), fresh(std)
    subsets = [frozenset(I) for I in [(1, 2, 3, 4), (1, 3, 5, 7), (2, 3, 6, 8)]]
    groups, std_groups = _enumeration(other)[1], _enumeration(std_other)[1]
    expected = {I: (tuple(_matching_of(other, mu_mask) for mu_mask in groups[I]),
                    _twist_sum(other, groups[I]), extreme_matchings(other, I),
                    support_subgraph(other, I), _ms_sum(std_other, std_groups[I]))
                for I in subsets}

    def no_enumeration(*args):
        raise AssertionError("every matching was enumerated")

    monkeypatch.setattr(matchings_mod, "_enumeration", no_enumeration)
    for I in subsets:
        assert (matchings_with_boundary(model, I), musp_twist_expression(model, I),
                extreme_matchings(model, I), support_subgraph(model, I),
                ms_formula(std, I)) == expected[I]
        assert ms_formula_white_v2(std, I) == expected[I][4]
    with pytest.raises(AssertionError):
        enumerate_matchings(model)


def test_all_subset_checks_search_no_single_subset(monkeypatch, gr37):
    """The checks that loop over every k-subset read one grouped enumeration
    per model instead of searching each subset."""
    def one_subset(*args):
        raise AssertionError("searched the matchings of one boundary value")

    monkeypatch.setattr(matchings_mod, "_boundary_search", one_subset)
    monkeypatch.setattr(partition_mod, "_boundary_search", one_subset)
    checks = {r["name"]: (r["passed"], r["witness"]) for r in run_checks(fresh(gr37), 0)}
    assert checks["ms_formula_equality"] == (True, None)
    assert checks["black_white_duality"] == (True, None)


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


@pytest.mark.parametrize("name", ["triangle", "gr37"])
def test_a_verified_model_is_freed_without_the_cyclic_collector(name):
    """No memo of a verified model refers back to it, so it goes as soon as
    its last reference does; a model that is already white-standardised is
    its own standardisation."""
    gc.collect()
    gc.disable()
    try:
        model = fx.FIXTURE_BUILDERS[name]()
        assert all(r["passed"] for r in run_checks(model, 0))
        probe = weakref.ref(model)
        del model
        assert probe() is None
    finally:
        gc.enable()


def test_a_fresh_import_frees_the_classes_of_the_one_before():
    """No cache outside the library keeps what an import of it defined: once
    discdimer is imported afresh and garbage is collected, the model class
    of the import before is gone. (A `typing` alias subscripted with
    `DimerModel` at module level would keep every imported copy.)"""
    saved = dict(sys.modules)

    def drop_library():
        for name in [m for m in sys.modules if m == "discdimer" or m.startswith("discdimer.")]:
            del sys.modules[name]

    try:
        drop_library()
        importlib.import_module("discdimer.cli")
        probe = weakref.ref(sys.modules["discdimer.model"].DimerModel)
        drop_library()
        importlib.import_module("discdimer.cli")
        gc.collect()
        assert probe() is None
    finally:
        drop_library()
        sys.modules.update(saved)


def test_verify_enumerates_three_models_and_checks_no_enumerated_matching(monkeypatch):
    """The checks share one white standardisation of the model, so the
    suite enumerates the matchings of the model, of that standardisation
    and of its opposite, each once. A matching the search found is not
    checked again: only the ones built per vertex are (wedges both ways,
    η⁻¹ and minimal path degrees)."""
    enumerated, checked = [], []
    search, is_matching = matchings_mod._search, matchings_mod.is_matching

    def counted_search(model, chosen, forbidden):
        if not chosen and not forbidden:
            enumerated.append(model)
        return search(model, chosen, forbidden)

    def counted_is_matching(model, arrows):
        checked.append(arrows)
        return is_matching(model, arrows)

    monkeypatch.setattr(matchings_mod, "_search", counted_search)
    for module in (matchings_mod, kclass_mod, resolution_mod):
        monkeypatch.setattr(module, "is_matching", counted_is_matching)
    model = fx.build_uniform(3, 7)
    assert all(r["passed"] for r in run_checks(model, 0))
    std = standardise(model, WHITE)
    assert enumerated == [model, std, opposite(std)]
    assert len(set(map(id, enumerated))) == 3
    assert len(checked) <= 4 * len(model.vertices) < len(enumerate_matchings(model))


def test_verify_builds_no_matching_object_per_enumerated_matching(monkeypatch):
    """Inside the library a matching is an arrow mask: the suite builds a
    `Matching` only for the ones built per vertex (wedges both ways and
    minimal path degrees), not one per enumerated matching."""
    built = []
    init = Matching.__init__
    monkeypatch.setattr(Matching, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    model = fx.build_uniform(3, 7)
    assert all(r["passed"] for r in run_checks(model, 0))
    count = len(built)
    assert count <= 5 * len(model.vertices) < len(enumerate_matchings(model)), count
