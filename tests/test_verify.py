"""The verify suite against golden outputs recorded before it moved out of
the CLI: `tests/golden/verify-<model>.json` is `dimer verify <model>
--format json` with the per-check `seconds` removed."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from discdimer import fixtures as fx
from discdimer import lattice_maps, verify
from discdimer.cli import main
from discdimer.lattice_maps import KClass

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
    """η has one body, shared by the lattice map, the matching classes and
    the twist sum. Dropped internal-tail terms must fail the checks that
    compare it with something computed without η."""
    def without_internal_tails(model, deg, values):
        coeffs = {v.id: deg for v in model.vertices}
        for a in model.arrows:
            coeffs[a.head] -= deg - values.get(a.id, 0)
        return KClass(tuple(sorted(coeffs.items())))

    monkeypatch.setattr(lattice_maps, "_eta", without_internal_tails)
    failed = {r["name"] for r in verify.run_checks(fx.gr37(), 0) if not r["passed"]}
    assert {"eta_unimodular", "weight_double_formula", "ms_formula_equality",
            "resolution_exactness"} <= failed
