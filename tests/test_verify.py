"""The verify suite against golden outputs recorded before it moved out of
the CLI: `tests/golden/verify-<model>.json` is `dimer verify <model>
--format json` with the per-check `seconds` removed."""

import gc
import json
import re
import weakref
from pathlib import Path

import oracles
import pytest
from click.testing import CliRunner

from discdimer import fixtures as fx
from discdimer import lattice_maps, resolution, verify
from discdimer.cli import main
from discdimer.matchings import _enumeration, _matching_of

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_MODELS = ["triangle", "gr37", "inconsistent", "uniform-1-3", "uniform-2-4",
                 "uniform-2-5", "uniform-3-6", "uniform-3-7", "uniform-4-8"]


@pytest.mark.parametrize("name", GOLDEN_MODELS)
def test_verify_json_matches_golden(name):
    """`dimer verify <name> --format json`, timings removed, is unchanged
    witness for witness."""
    result = CliRunner().invoke(main, ["verify", name, "--format", "json"])
    doc = json.loads(result.output)
    for check in doc["checks"]:
        del check["seconds"]
    expected = json.loads((GOLDEN / f"verify-{name}.json").read_text(encoding="utf-8"))
    assert doc == expected
    assert result.exit_code == (0 if expected["passed"] else 1)


def test_plucker_draws_take_the_support_from_enumeration(gr37, monkeypatch):
    """The Kasteleyn positroid and the necklace test are each checked
    against the enumerated boundary values, not against one another."""
    assert verify._check_plucker_draws(gr37, 1) == (True, None)
    with monkeypatch.context() as patch:
        patch.setattr(verify, "positroid", lambda model: frozenset())
        assert verify._check_plucker_draws(gr37, 1) == (
            False, "Kasteleyn positroid disagrees with enumeration")
    monkeypatch.setattr(verify, "positroid_contains_necklace_test", lambda model, J: True)
    assert verify._check_plucker_draws(gr37, 1) == (
        False, "necklace Gale-order test disagrees with enumeration")


def test_the_eta_formula_is_pinned_by_four_checks(monkeypatch):
    """η has one body, `lattice_maps._eta_columns`, shared by the lattice
    map, the matching classes and the twist sum. Dropped internal-tail terms
    must fail the checks that compare it with something computed without η."""
    eta_columns = lattice_maps._eta_columns

    def without_internal_tails(model):
        base, columns = eta_columns(model)
        return base, tuple(column[:1] for column in columns)  # the head term alone

    monkeypatch.setattr(lattice_maps, "_eta_columns", without_internal_tails)
    failed = {r["name"] for r in verify.run_checks(fx.gr37(), 0) if not r["passed"]}
    assert {"eta_unimodular", "weight_double_formula", "ms_formula_equality",
            "resolution_exactness"} <= failed


# Entries of gr37's degree rows set to a wrong degree, each as (matching,
# target position, vertex position, degree), in enumeration and layout order.
ROTATION_ONLY, PIECE_ONLY = (0, 0, 0, 1), (43, 2, 0, 1)
CORRUPTIONS = {
    "rotation only": ([ROTATION_ONLY], False, True),
    "piece only": ([PIECE_ONLY], True, False),
    "both, the rotation's first": ([PIECE_ONLY, ROTATION_ONLY], True, True),
    "both, the piece's first": ([(0, 2, 4, 1), (45, 0, 0, 1)], True, True),
    "both, in one matching": ([(0, 0, 2, 2)], True, True),
}


@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_the_shared_walk_hides_neither_checks_failure(kind, monkeypatch):
    """With entries of the degree rows corrupted where ρ's row is shifted
    by a matching's height (`resolution._shifted`, which the walk and the
    oracles' shifted table both call), the resolution and the rotation
    check, which share one walk of the table, each report the witness of
    their own loop in `oracles`: the walk goes on over every matching after
    either check's first failure."""
    entries, breaks_a_piece, breaks_a_rotation = CORRUPTIONS[kind]
    model = fx.gr37()
    table = resolution.degree_table(model)
    shifted = resolution._shifted

    def corrupted(ref, h, p):
        row = shifted(ref, h, p)
        for k, target, j, degree in entries:
            if h is table.heights[k] and p == target:
                row[j] = degree
        return row

    monkeypatch.setattr(resolution, "_shifted", corrupted)
    def ids(mu_mask):
        return list(_matching_of(model, mu_mask).sorted_ids())

    first = next(((mu_mask, report) for mu_mask, report in oracles.resolution_reports(model)
                  if not report.passed), None)
    rotation = oracles.first_rotation_failure(model)
    assert (first is not None, rotation is not None) == (breaks_a_piece, breaks_a_rotation)
    checks = {r["name"]: (r["passed"], r["witness"]) for r in verify.run_checks(model, 0)}
    assert checks["resolution_exactness"] == (
        (True, None) if first is None else
        (False, f"matching {ids(first[0])}: failures {first[1].failures}, "
                f"euler {first[1].euler_failures}"))
    assert checks["rotation_identities"] == (
        (True, None) if rotation is None else
        (False, f"rotation identity fails at matching {ids(rotation[0])}, "
                f"vertex {rotation[1]}, degree {rotation[2]}"))


WALK_CHECKS = {"resolution_exactness", "rotation_identities"}


def failed_walk_checks(model):
    return {r["name"] for r in verify.run_checks(model, 0) if not r["passed"]} & WALK_CHECKS


@pytest.mark.parametrize("target, vertex, by", [(0, 1, 1), (0, 1, -1), (2, 4, 1)])
def test_a_corrupted_reference_row_fails_both_walk_checks(monkeypatch, target, vertex, by):
    """The degree table shifts the reference matching's rows
    (`resolution._rows`) by each matching's height: with one entry of one
    of those rows moved by one, both checks that walk the table fail."""
    rows = resolution._rows

    def corrupted(layout, mu_mask):
        reference = [bytearray(row) for row in rows(layout, mu_mask)]
        reference[target][vertex] += by
        return tuple(map(bytes, reference))

    monkeypatch.setattr(resolution, "_rows", corrupted)
    assert failed_walk_checks(fx.gr37()) == WALK_CHECKS


@pytest.mark.parametrize("matching, vertex, by", [(1, 0, 1), (5, 3, -1), (45, 9, 1)])
def test_a_corrupted_height_fails_both_walk_checks(monkeypatch, matching, vertex, by):
    """With the height of one vertex moved by one for one matching of
    gr37 (`matchings._heights`, as the degree table reads it), both checks
    that walk the table fail."""
    heights = resolution._heights

    def corrupted(model, ref_mask, mu_mask):
        h = heights(model, ref_mask, mu_mask)
        if mu_mask == _enumeration(model)[0][matching]:
            h[vertex] += by
        return h

    monkeypatch.setattr(resolution, "_heights", corrupted)
    assert failed_walk_checks(fx.gr37()) == WALK_CHECKS


def test_a_height_that_gives_a_negative_degree_is_an_error(monkeypatch):
    """With one vertex's height raised far past any degree for one matching
    of gr37, the degree from it toward another vertex is negative: the walk
    stops with an error that names the matching and the vertices, which
    both walk checks report, not with a level read at a wrapped index."""
    model = fx.gr37()
    mu_mask = _enumeration(model)[0][5]
    heights = resolution._heights

    def corrupted(model, ref_mask, mask):
        h = heights(model, ref_mask, mask)
        if mask == mu_mask:
            h[3] += 50
        return h

    monkeypatch.setattr(resolution, "_heights", corrupted)
    ids = re.escape(str(list(_matching_of(model, mu_mask).sorted_ids())))
    message = rf"matching {ids} has degree -\d+ at vertex \d+ toward vertex \d+"
    with pytest.raises(ValueError, match=f"^{message}$"):
        list(resolution.resolution_reports(model))
    checks = {r["name"]: (r["passed"], r["witness"]) for r in verify.run_checks(model, 0)}
    passed, witness = checks["resolution_exactness"]
    assert not passed and re.fullmatch(f"ValueError: {message}", witness)
    assert checks["rotation_identities"] == (False, witness)


def test_a_rotation_outside_the_table_fails_the_rotation_check_alone(monkeypatch):
    """With a matching left out of the table's keys, some rotation is no
    longer a perfect matching of the table: the rotation check fails as its
    oracle does, with that error, and the resolution check still passes."""
    model = fx.gr37()
    table = resolution.degree_table(model)
    by_mask = dict(list(table.by_mask.items())[:-1])
    monkeypatch.setattr(resolution, "degree_table",
                        lambda m: table._replace(by_mask=by_mask))
    with pytest.raises(ValueError, match="^rotation did not produce a perfect matching$"):
        oracles.first_rotation_failure(model)
    checks = {r["name"]: (r["passed"], r["witness"]) for r in verify.run_checks(model, 0)}
    assert checks["resolution_exactness"] == (True, None)
    assert checks["rotation_identities"] == (
        False, "ValueError: rotation did not produce a perfect matching")


def test_the_standardised_copy_is_freed_before_the_walk_starts(monkeypatch):
    """The white-standardised copy is a local of the Marsh–Scott step: with
    the cyclic collector off, it is gone before the walk step reads the
    degree table, and the suite stores nothing of its own on the model."""
    copies, alive_at_walk = [], []
    standardise, reports = verify.standardise, verify.resolution_reports

    def caught(model, color):
        std = standardise(model, color)
        assert std is not model
        copies.append(weakref.ref(std))
        return std

    def walk(model):
        alive_at_walk.append([ref() is not None for ref in copies])
        return reports(model)

    monkeypatch.setattr(verify, "standardise", caught)
    monkeypatch.setattr(verify, "resolution_reports", walk)
    model = fx.gr37()
    gc.collect()
    gc.disable()
    try:
        assert all(r["passed"] for r in verify.run_checks(model, 0))
    finally:
        gc.enable()
    assert alive_at_walk == [[False]]
    assert [key for key in vars(model) if key.startswith("discdimer.verify.")] == []


def test_a_step_that_raises_fails_only_the_checks_it_has_not_answered(monkeypatch):
    """The Marsh–Scott step builds the opposite only after the MS° equality
    is answered: when building it raises, the weight formula and the
    equality still pass, and duality alone fails with that exception."""
    def no_opposite(model):
        raise RuntimeError("no opposite")

    monkeypatch.setattr(verify, "opposite", no_opposite)
    checks = {r["name"]: (r["passed"], r["witness"]) for r in verify.run_checks(fx.gr37(), 0)}
    assert checks.pop("black_white_duality") == (False, "RuntimeError: no opposite")
    assert set(checks.values()) == {(True, None)}


def test_the_inconsistent_golden_shows_a_step_that_raises_before_its_first_result():
    """On `inconsistent` the walk step raises before the resolution check's
    result, so both of its checks fail with that error; the Marsh–Scott step
    raises after the weight formula's, so only the two checks after it do."""
    golden = json.loads((GOLDEN / "verify-inconsistent.json").read_text(encoding="utf-8"))
    checks = {c["name"]: (c["passed"], c["witness"]) for c in golden["checks"]}
    error = checks["resolution_exactness"]
    assert error[0] is False and error[1].startswith("ValueError: model is not consistent: ")
    assert checks["rotation_identities"] == error
    assert checks["weight_double_formula"] == (True, None)
    assert checks["ms_formula_equality"] == checks["black_white_duality"] == error
    records = verify.run_checks(fx.FIXTURE_BUILDERS["inconsistent"](), 0)
    assert [r["name"] for r in records] == [name for names, _ in verify.VERIFY_STEPS
                                            for name in names]
    assert {r["name"]: (r["passed"], r["witness"]) for r in records} == checks
