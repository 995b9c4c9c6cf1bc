"""The verify suite against golden outputs recorded before it moved out of
the CLI: `tests/golden/verify-<model>.json` is `dimer verify <model>
--format json` with the per-check `seconds` removed."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from discdimer.cli import main

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

