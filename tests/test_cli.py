"""End-to-end tests of the command-line interface."""

import gc
import hashlib
import io
import json
import os
import weakref
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discdimer import fixtures as fx
from discdimer import lattice_maps, resolution
from discdimer import strands as strands_module
from discdimer.cli import main
from discdimer.model import BLACK, WHITE, save, standardise, to_dict
from discdimer.partition_functions import boundary_measurement

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def gr37_file(tmp_path):
    path = tmp_path / "gr37.json"
    save(fx.gr37(), path)
    return str(path)


def test_type(runner, gr37_file):
    result = runner.invoke(main, ["type", gr37_file])
    assert result.exit_code == 0
    assert result.output.strip() == "(3, 7)"


def test_type_json(runner, gr37_file):
    result = runner.invoke(main, ["type", gr37_file, "--format", "json"])
    doc = json.loads(result.output)
    assert doc["schema"] == 1
    assert (doc["k"], doc["n"]) == (3, 7)


def test_in_process_runs_keep_no_redirected_stream_alive(gr37_file):
    probes = []
    for _ in range(20):
        out = io.StringIO()
        with redirect_stdout(out), pytest.raises(SystemExit) as info:
            main.main(args=["type", gr37_file], prog_name="dimer", standalone_mode=True)
        assert info.value.code == 0 and out.getvalue() == "(3, 7)\n"
        probes.append(weakref.ref(out))
        del out
    gc.collect()
    assert [probe for probe in probes if probe() is not None] == []


def test_builtin_fixture_names(runner):
    result = runner.invoke(main, ["type", "uniform-2-5"])
    assert result.exit_code == 0
    assert result.output.strip() == "(2, 5)"


def test_unknown_model(runner):
    result = runner.invoke(main, ["type", "no-such-model"])
    assert result.exit_code != 0


def test_any_uniform_name_resolves(runner):
    result = runner.invoke(main, ["type", "uniform-3-7"])
    assert result.exit_code == 0
    assert result.output.strip() == "(3, 7)"


@pytest.mark.parametrize("name", ["uniform-x-y", "uniform-3-3", "uniform-3", "uniform-1-2",
                                  "uniform-٣-٦", "uniform-03-06"])
def test_malformed_uniform_name_is_a_one_line_error(runner, name):
    result = runner.invoke(main, ["type", name])
    assert result.exit_code == 1
    assert result.output.startswith(f"Error: cannot resolve model {name!r}")
    assert result.output.count("\n") == 1


def test_directory_named_like_a_fixture_is_not_read(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gr37").mkdir()
    result = runner.invoke(main, ["type", "gr37"])
    assert result.exit_code == 0
    assert result.output.strip() == "(3, 7)"


def test_fixture_dir_env(runner, tmp_path, monkeypatch):
    result = runner.invoke(main, ["fixtures", str(tmp_path)])
    assert result.exit_code == 0
    names = sorted(os.listdir(tmp_path))
    assert names == sorted(f"{n}.json" for n in fx.FIXTURE_BUILDERS)
    monkeypatch.setenv("DIMER_FIXTURES", str(tmp_path))
    result = runner.invoke(main, ["type", "triangle"])
    assert result.exit_code == 0
    assert result.output.strip() == "(1, 3)"


@pytest.mark.parametrize("args, written", [
    (["build-uniform", "-k", "2", "-n", "4", "-o", "$MISSING"], "$MISSING"),
    (["opposite", "gr37", "-o", "$MISSING"], "$MISSING"),
    (["standardise", "gr37", "-o", "$MISSING"], "$MISSING"),
    (["fixtures", "$DIR"], "$DIR/gr37.json"),
], ids=["build-uniform", "opposite", "standardise", "fixtures"])
def test_an_unwritable_output_path_is_a_one_line_error(runner, tmp_path, args, written):
    """$MISSING lies in a directory that does not exist; $DIR holds a
    directory where the fixtures command writes gr37.json."""
    (tmp_path / "out" / "gr37.json").mkdir(parents=True)
    paths = {"$MISSING": str(tmp_path / "missing" / "x.json"), "$DIR": str(tmp_path / "out")}
    result = runner.invoke(main, [paths.get(a, a) for a in args])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    written = written.replace("$DIR", paths["$DIR"]).replace("$MISSING", paths["$MISSING"])
    assert result.stderr.startswith(f"Error: cannot write {written}: ")
    assert result.stderr.count("\n") == 1


def test_validate_exit_codes(runner, gr37_file):
    assert runner.invoke(main, ["validate", gr37_file]).exit_code == 0


def test_check_inconsistent_fails(runner, tmp_path):
    path = tmp_path / "bad.json"
    save(fx.inconsistent(), path)
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code == 1
    assert "consistent: False" in result.output


def test_matchings_boundary_filter(runner, gr37_file):
    result = runner.invoke(main, ["matchings", gr37_file,
                                  "--boundary", "1,3,5", "--format", "json"])
    doc = json.loads(result.output)
    assert doc["count"] == 3
    assert [1, 3, 9, 10, 15] in doc["matchings"]


def test_positroid_counts(runner, gr37_file):
    doc = json.loads(runner.invoke(
        main, ["positroid", gr37_file, "--format", "json"]).output)
    assert doc["count"] == 30


def test_extremes(runner, gr37_file):
    doc = json.loads(runner.invoke(
        main, ["extremes", gr37_file, "--boundary", "1,3,5",
               "--format", "json"]).output)
    assert doc["minimal"] != doc["maximal"]


def test_lattice_check(runner, gr37_file):
    result = runner.invoke(main, ["lattice", gr37_file, "--check-ensemble"])
    assert result.exit_code == 0
    assert "unimodular: True" in result.output


def test_lattice_finds_one_basis_per_model(runner, monkeypatch):
    trees = []
    dual_tree = lattice_maps._dual_tree
    monkeypatch.setattr(lattice_maps, "_dual_tree", lambda m: trees.append(m) or dual_tree(m))
    for name in ("gr37", "uniform-4-8"):
        assert runner.invoke(main, ["lattice", name, "--check-ensemble"]).exit_code == 0
    assert len(trees) == 2


def test_kclass_bad_matching(runner, gr37_file):
    result = runner.invoke(main, ["kclass", gr37_file, "--matching", "1,2"])
    assert result.exit_code != 0


def test_ms_command(runner, tmp_path):
    std = tmp_path / "std.json"
    result = runner.invoke(main, ["standardise", "uniform-2-4", "-o", str(std)])
    assert result.exit_code == 0
    doc = json.loads(runner.invoke(
        main, ["ms", str(std), "--subset", "1,3", "--format", "json"]).output)
    assert len(doc["polynomial"]["terms"]) == 2


def test_twist_outside_positroid(runner, gr37_file):
    result = runner.invoke(main, ["twist-expr", gr37_file, "--subset", "2,3,4"])
    assert result.exit_code != 0


def test_measure_with_weight_file(runner, tmp_path):
    u24 = tmp_path / "u24.json"
    assert runner.invoke(main, ["build-uniform", "-k", "2", "-n", "4",
                                "-o", str(u24)]).exit_code == 0
    model = fx.build_uniform(2, 4)
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({str(a.id): "1/2" for a in model.arrows}))
    result = runner.invoke(main, ["measure", str(u24), "--weights", str(wfile),
                                  "--check-plucker", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["plucker"]["passed"]


def test_measure_on_an_inconsistent_model_blames_the_model(runner):
    result = runner.invoke(main, ["measure", "inconsistent", "--weights", "unit"])
    assert result.exit_code == 1
    assert result.output.startswith("Error: model is not consistent: ")
    assert "bad weights" not in result.output


def weight_error(key, value):
    return (f"Error: cannot read weights: weight {json.dumps(value)} of arrow {key} "
            "is not an integer or a string p or p/q of decimal digits\n")


# The first eight strings and the float were once read through
# `Fraction(str(x))`, as 10, 10, 1, 3, 2, 2, 2, 2 and 2, with exit code 0.
MISREAD_WEIGHTS = ["1_0", "1e1", "١", "３", "+2", "02", " 2 ", "2.0", 2.0, "", True, None, [2]]


@pytest.mark.parametrize("weights, message", [
    ({"0": "1"}, "Error: bad weights: no weight for arrow 1\n"),
    ({str(a): "0" for a in range(10)}, "Error: bad weights: weight of arrow 0 is not positive: 0\n"),
    ({"0": "1/0"}, "Error: cannot read weights: zero denominator in Fraction(1, 0)\n"),
    ([1, 2], "Error: cannot read weights: expected a JSON object mapping arrow ids to weights\n"),
] + [({**{str(a): "1" for a in range(10)}, "0": value}, weight_error("0", value))
     for value in MISREAD_WEIGHTS],
    ids=["missing-arrow", "non-positive", "zero-denominator", "not-an-object"]
    + [f"value-{json.dumps(value)}" for value in MISREAD_WEIGHTS])
def test_measure_bad_weights(runner, tmp_path, weights, message):
    assert len(fx.build_uniform(2, 4).arrows) == 10
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps(weights))
    result = runner.invoke(main, ["measure", "uniform-2-4", "--weights", str(wfile)])
    assert result.exit_code == 1
    assert result.output == message


@pytest.mark.parametrize("key", ["01", "999", " 1", "+1", "-0", "1_0", "1.0", "one"])
def test_measure_rejects_a_weight_key_that_is_no_arrow_id(runner, tmp_path, key):
    """Only the decimal id of an arrow of the model names it: "01" would
    otherwise override arrow 1 (Z_{1,3,5} of gr37 at unit weights would
    read 15, not 3), and "999" would be dropped without a word."""
    weights = {str(a.id): "1" for a in fx.gr37().arrows}
    weights[key] = "5"
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps(weights))
    result = runner.invoke(main, ["measure", "gr37", "--weights", str(wfile)])
    assert result.exit_code == 1
    assert result.output == ("Error: cannot read weights: "
                             f"key {key!r} is not the id of an arrow of the model\n")


GR37_KEYS = [str(a.id) for a in fx.gr37().arrows]
WEIGHT_TOKENS = ["1", "2", "3/7", "10", "0", "0/5", "1/0", "02", "3/07", "+2", "-2", " 2 ",
                 "1_0", "1e1", "١", "３", "²", "1.5", "2/", "/3", "1//2", "1/2/3", "", "x"]
WEIGHT_VALUES = st.one_of(st.sampled_from(WEIGHT_TOKENS), st.integers(-2, 10**20), st.booleans(),
                          st.none(), st.floats(), st.lists(st.integers(0, 3), max_size=1),
                          st.text(alphabet="0123456789/+-_ e.", max_size=4))


@st.composite
def weight_files(draw):
    """Every arrow of gr37 weighted, then some values redrawn, some arrows
    dropped and some keys added that name no arrow."""
    doc = {key: draw(st.sampled_from(["1", "2", "3/7", 5])) for key in GR37_KEYS}
    for key in draw(st.lists(st.sampled_from(GR37_KEYS), max_size=3)):
        doc[key] = draw(WEIGHT_VALUES)
    for key in draw(st.lists(st.sampled_from(GR37_KEYS), max_size=1)):
        doc.pop(key, None)
    for key in draw(st.lists(st.sampled_from(["01", "999", "+1", " 1", "1_0", "١"]), max_size=1)):
        doc[key] = draw(WEIGHT_VALUES)
    return doc


def reference_weight(value):
    """The weight the grammar reads: a JSON integer as itself, or a string
    of ASCII digits p or p/q with no leading zero, as (p, q); None if the
    grammar rejects it."""
    if type(value) is int:
        return value, 1
    if not isinstance(value, str):
        return None
    parts = value.split("/")
    if len(parts) > 2 or any(not part or any(c not in "0123456789" for c in part)
                             or (part[0] == "0" and len(part) > 1) for part in parts):
        return None
    return int(parts[0]), int(parts[1]) if len(parts) == 2 else 1


def expected_measure(doc):
    """The exit code and output of `dimer measure gr37 --format json` for
    the weights file as the reference grammar reads it: keys first, then
    values in file order, then the library's own checks of the weights."""
    stray = next((key for key in doc if key not in GR37_KEYS), None)
    if stray is not None:
        return 1, ("Error: cannot read weights: "
                   f"key {stray!r} is not the id of an arrow of the model\n")
    weights = {}
    for key, value in doc.items():
        read = reference_weight(value)
        if read is None:
            return 1, weight_error(key, value)
        if read[1] == 0:
            return 1, f"Error: cannot read weights: zero denominator in Fraction({read[0]}, 0)\n"
        weights[int(key)] = Fraction(*read)
    try:
        vec = boundary_measurement(fx.gr37(), weights)
    except ValueError as exc:
        return 1, f"Error: bad weights: {exc}\n"
    return 0, {",".join(map(str, I)): str(x) for I, x in vec.values}


@settings(max_examples=60, deadline=None)
@given(weight_files())
@example({**{key: "1" for key in GR37_KEYS}, "0": "1_0"})
@example({**{key: "1" for key in GR37_KEYS}, "0": "1/0", "1": "+2"})
def test_a_weights_file_is_read_as_the_grammar_reads_it(doc):
    """Each file is read as the reference grammar reads it, or rejected
    with one `Error:` line and exit code 1; never a traceback."""
    with CliRunner().isolated_filesystem():
        Path("w.json").write_text(json.dumps(doc))
        result = CliRunner().invoke(main, ["measure", "gr37", "--weights", "w.json",
                                           "--format", "json"])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    output = json.loads(result.output)["values"] if result.exit_code == 0 else result.output
    assert (result.exit_code, output) == expected_measure(doc)


def test_measure_reads_each_arrow_weight_from_its_own_key(runner, tmp_path):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({str(a.id): "1" for a in fx.gr37().arrows}))
    result = runner.invoke(main, ["measure", "gr37", "--weights", str(wfile),
                                  "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["values"]["1,3,5"] == "3"


def test_resolution_and_rotate(runner, gr37_file):
    result = runner.invoke(main, ["resolution", gr37_file,
                                  "--matching", "1,3,9,10,15"])
    assert result.exit_code == 0
    assert "exact: True" in result.output
    result = runner.invoke(main, ["rotate", gr37_file,
                                  "--matching", "1,3,9,10,15",
                                  "--vertex", "0", "--degree", "1",
                                  "--format", "json"])
    assert result.exit_code == 0


def test_single_matching_commands_do_not_build_the_degree_table(runner, monkeypatch):
    """`dimer resolution` and `dimer rotate` compute one matching's degrees;
    the per-model table of every matching's degrees is for `dimer verify`."""
    def every_matching(model):
        raise AssertionError("built the degree table of every matching")

    monkeypatch.setattr(resolution, "degree_table", every_matching)
    assert runner.invoke(main, ["resolution", "gr37", "--matching", "1,3,9,10,15"]).exit_code == 0
    assert runner.invoke(main, ["rotate", "gr37", "--matching", "1,3,9,10,15",
                                "--vertex", "0", "--degree", "1"]).exit_code == 0
    assert runner.invoke(main, ["verify", "gr37"]).exit_code == 1


def test_verify_triangle_passes(runner):
    result = runner.invoke(main, ["verify", "triangle", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["passed"]
    assert [c["name"] for c in doc["checks"]][:2] == ["validate", "check_postnikov"]


def test_verify_inconsistent_fails_as_specified(runner):
    result = runner.invoke(main, ["verify", "inconsistent", "--format", "json"])
    assert result.exit_code == 1
    doc = json.loads(result.output)
    status = {c["name"]: c["passed"] for c in doc["checks"]}
    assert status["validate"]
    assert not status["check_postnikov"]
    assert not status["eta_unimodular"]
    assert not doc["passed"]


def test_verify_structural_error_gives_json(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 2
    assert "error" in json.loads(result.output)


def test_verify_non_utf8_file_gives_json(runner, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 2
    assert json.loads(result.output)["error"] == f"{path}: not UTF-8 text"


EMPTY_MODEL = {"vertices": [], "arrows": [], "faces": []}


@pytest.mark.parametrize("args", [
    *([cmd, "$EMPTY"] for cmd in
      ["type", "strands", "labels", "positroid", "matchings", "lattice", "check"]),
    ["labels", "inconsistent"],
    ["labels", "inconsistent", "--target"],
    ["ms-matchings", "inconsistent"],
    ["verify-msmatch", "inconsistent"],
    ["type", "$UTF16"],
    ["rotate", "gr37", "--matching", "0,2,4,6,17", "--vertex", "9999", "--degree", "1"],
], ids="-".join)
def test_a_model_a_command_cannot_use_is_a_one_line_error(runner, tmp_path, args):
    (tmp_path / "empty.json").write_text(json.dumps(EMPTY_MODEL))
    (tmp_path / "utf16.json").write_bytes(b"\xff\xfe{\x00}\x00")
    paths = {"$EMPTY": str(tmp_path / "empty.json"), "$UTF16": str(tmp_path / "utf16.json")}
    result = runner.invoke(main, [paths.get(a, a) for a in args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: ") and result.output.count("\n") == 1
    assert "Traceback" not in result.output


@pytest.mark.parametrize("key", ["vertices", "arrows", "faces", "faces[0].boundary_cycle"])
@pytest.mark.parametrize("container", ["{}", '""', "object"])
def test_a_list_that_is_not_a_json_array_is_a_one_line_error(runner, tmp_path, key, container):
    """The reader coerces nothing: a record list or a face cycle given as an
    object (empty, or keyed by position) or as a string is rejected by name."""
    doc = to_dict(fx.gr37())
    owner, name = (doc["faces"][0], "boundary_cycle") if "[" in key else (doc, key)
    owner[name] = ({str(i): entry for i, entry in enumerate(owner[name])}
                   if container == "object" else json.loads(container))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 1
    assert result.output.startswith(f"Error: malformed document: {key} must be an array, got ")
    assert result.output.count("\n") == 1


@pytest.mark.parametrize("section, index, key, message", [
    (None, None, "extra", "unknown top-level key 'extra'"),
    ("vertices", 0, "colour", "unknown key 'colour' in vertices[0]"),
    ("arrows", 3, "colour", "unknown key 'colour' in arrows[3]"),
    ("faces", 5, "label", "unknown key 'label' in faces[5]"),
], ids=["top-level", "vertex", "arrow", "face"])
def test_a_key_the_format_does_not_define_is_a_one_line_error(runner, tmp_path, section,
                                                              index, key, message):
    doc = to_dict(fx.gr37())
    (doc if section is None else doc[section][index])[key] = "white"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 1
    assert result.output == f"Error: malformed document: {message}\n"


@pytest.mark.parametrize("key", ["id", "tail", "is_boundary"])
def test_a_key_given_twice_in_a_model_is_a_one_line_error(runner, tmp_path, key):
    """`json.load` alone keeps the last value given for a key."""
    doc = to_dict(fx.gr37())
    record = doc["arrows"][3]
    text = json.dumps(record)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc).replace(
        text, f"{text[:-1]}, {json.dumps(key)}: {json.dumps(record[key])}}}"))
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 1
    assert result.output == (f"Error: {path}: duplicate key {key!r} in the record with id "
                             f"{record['id']}\n")


def test_a_top_level_key_given_twice_is_a_one_line_error(runner, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(to_dict(fx.gr37()))[:-1] + ', "faces": []}')
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 1
    assert result.output == f"Error: {path}: duplicate key 'faces'\n"


def test_a_weight_given_twice_is_a_one_line_error(runner, tmp_path):
    arrows = [a.id for a in fx.gr37().arrows]
    path = tmp_path / "w.json"
    path.write_text("{" + ", ".join(f'"{a}": "1"' for a in arrows) + f', "{arrows[0]}": "5/2"}}')
    result = runner.invoke(main, ["measure", "gr37", "--weights", str(path)])
    assert result.exit_code == 1
    assert result.output == f"Error: cannot read weights: duplicate key '{arrows[0]}'\n"


@pytest.mark.parametrize("args, message", [
    (["twist-expr", "uniform-2-4", "--subset", "1,1,2"], "subset '1,1,2' repeats 1"),
    (["ms", "uniform-2-4", "--subset", "2, 1,2"], "subset '2, 1,2' repeats 2"),
    (["matchings", "uniform-2-4", "--boundary", "1,1"], "boundary '1,1' repeats 1"),
    (["extremes", "uniform-2-4", "--boundary", "3,3"], "boundary '3,3' repeats 3"),
    (["resolution", "gr37", "--matching", "1,3,9,10,15,1"], "matching '1,3,9,10,15,1' repeats 1"),
    (["resolution", "gr37", "--matching", "1,3,9,10,15", "--dmax", "-3"],
     "cannot parse dmax '-3': '-3' is not a decimal id"),
    (["rotate", "gr37", "--matching", "1,3,9,10,15,999", "--vertex", "1", "--degree", "1"],
     "arrow ids [1, 3, 9, 10, 15, 999] are not a perfect matching"),
    (["resolution", "gr37", "--matching", "1,3,9,10,15,999"],
     "arrow ids [1, 3, 9, 10, 15, 999] are not a perfect matching"),
    (["kclass", "gr37", "--matching", "1,3,9,10,15,999"],
     "arrow ids [1, 3, 9, 10, 15, 999] are not a perfect matching"),
    (["rotate", "gr37", "--matching", "1,3,9,10,15", "--vertex", "999", "--degree", "1"],
     "unknown vertex 999"),
    (["wedge", "gr37", "--arrow", "999"], "unknown arrow 999"),
    (["matchings", "gr37", "--boundary", "1,2,3,4"], "expected a 3-subset of 1..7, got [1, 2, 3, 4]"),
    (["matchings", "uniform-2-4", "--boundary", "5,6"], "expected a 2-subset of 1..4, got [5, 6]"),
    (["twist-expr", "gr37", "--subset", "1,2"], "expected a 3-subset of 1..7, got [1, 2]"),
    (["extremes", "gr37", "--boundary", "0,1,2"], "expected a 3-subset of 1..7, got [0, 1, 2]"),
    (["wedge", "nosuch", "--arrow", "x"], "cannot parse arrow 'x': 'x' is not a decimal id"),
    (["rotate", "nosuch", "--matching", "1", "--vertex", "x", "--degree", "1"],
     "cannot parse vertex 'x': 'x' is not a decimal id"),
], ids=["subset-twist-expr", "subset-ms", "boundary-matchings", "boundary-extremes",
        "matching", "negative-dmax", "unknown-arrow-rotate", "unknown-arrow-resolution",
        "unknown-arrow-kclass", "unknown-vertex-rotate", "unknown-arrow-wedge",
        "boundary-too-large",
        "boundary-out-of-range", "subset-too-small", "boundary-zero",
        "bad-arrow-before-bad-model", "bad-vertex-before-bad-model"])
def test_an_option_value_a_command_cannot_use_is_a_one_line_error(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.output == f"Error: {message}\n"


def test_a_strand_that_never_ends_is_a_one_line_error(runner, monkeypatch):
    internal = fx.gr37().internal_arrows[0].id
    turns = strands_module._turns
    monkeypatch.setattr(strands_module, "_turns", lambda model: {
        color: dict.fromkeys(table, internal) for color, table in turns(model).items()})
    result = runner.invoke(main, ["strands", "gr37"])
    assert result.exit_code == 1
    assert result.output == "Error: strand fails to terminate; model is malformed\n"


DIGEST_COMMANDS = [
    *([cmd, model] for cmd in ["type", "strands", "labels", "check", "matchings", "positroid"]
      for model in fx.FIXTURE_BUILDERS),
    *(["lattice", model, "--check-ensemble"] for model in fx.FIXTURE_BUILDERS),
    ["resolution", "gr37", "--matching", "1,3,9,10,15"],
    ["rotate", "gr37", "--matching", "1,3,9,10,15", "--vertex", "1", "--degree", "1"],
    ["kclass", "gr37", "--matching", "1,3,9,10,15"],
    *(["wedge", "gr37", "--arrow", str(a.id)] for a in fx.gr37().arrows),
    *([cmd, model] for cmd in ["ms-matchings", "verify-msmatch"] for model in fx.FIXTURE_BUILDERS),
    *(["labels", model, "--target"] for model in fx.FIXTURE_BUILDERS),
    # One boundary value per fixture, the one with the most matchings.
    *(["extremes", model, "--boundary", boundary] for model, boundary in [
        ("triangle", "1"), ("gr37", "1,3,5"), ("inconsistent", "1"), ("uniform-1-3", "1"),
        ("uniform-2-4", "1,3"), ("uniform-2-5", "1,3"), ("uniform-3-6", "1,3,4")]),
    *(["validate", model] for model in fx.FIXTURE_BUILDERS),
    *(["lattice", model] for model in ["gr37", "inconsistent"]),
    # $WHITE and $BLACK are gr37 standardised with white and black boundary faces.
    ["ms", "$WHITE", "--subset", "1,3,5"],
    ["ms", "$BLACK", "--subset", "1,3,5", "--black"],
    ["ms", "gr37", "--subset", "1,3,5"],
    ["twist-expr", "gr37", "--subset", "1,3,5"],
    ["twist-expr", "uniform-2-4", "--subset", "1,3"],
    *(["measure", model, "--weights", "unit", "--check-plucker"]
      for model in ["gr37", "uniform-2-5", "inconsistent"]),
    # A bad id is reported before a model that cannot be resolved.
    ["wedge", "nosuch", "--arrow", "x"],
    ["rotate", "nosuch", "--matching", "1", "--vertex", "x", "--degree", "1"],
]

# Commands with no --format option, recorded as they print.
PLAIN_COMMANDS = [
    *([cmd, model] for cmd in ["opposite", "standardise"] for model in ["gr37", "uniform-2-4"]),
    ["standardise", "gr37", "--black"],
]


@pytest.fixture()
def standardised_files(tmp_path):
    paths = {}
    for name, colour in [("$WHITE", WHITE), ("$BLACK", BLACK)]:
        paths[name] = str(tmp_path / f"{name[1:].lower()}.json")
        save(standardise(fx.gr37(), colour), paths[name])
    return paths


def _check_digest(runner, files, key, args):
    result = runner.invoke(main, [files.get(a, a) for a in args])
    recorded = json.loads((GOLDEN / "cli-digests.json").read_text(encoding="utf-8"))
    assert [hashlib.sha256(result.stdout_bytes).hexdigest(), result.exit_code] == recorded[key]


@pytest.mark.parametrize("args", DIGEST_COMMANDS, ids="-".join)
def test_json_output_is_byte_identical_to_its_recorded_digest(runner, standardised_files, args):
    """`tests/golden/cli-digests.json` holds the sha256 of stdout and the
    exit code of each command above, recorded before the code behind it was
    last refactored: under its own key for `--format json`, and with
    ` --format text` appended for the text report."""
    _check_digest(runner, standardised_files, " ".join(args), [*args, "--format", "json"])


@pytest.mark.parametrize("args", DIGEST_COMMANDS, ids="-".join)
def test_text_output_is_byte_identical_to_its_recorded_digest(runner, standardised_files, args):
    _check_digest(runner, standardised_files, " ".join([*args, "--format", "text"]),
                  [*args, "--format", "text"])


@pytest.mark.parametrize("args", PLAIN_COMMANDS, ids="-".join)
def test_plain_output_is_byte_identical_to_its_recorded_digest(runner, args):
    _check_digest(runner, {}, " ".join(args), args)


def command_signatures() -> dict:
    """Each command's docstring and parameters as click holds them, with no
    help layout: the name, the option strings, the type's name, whether it
    is required or a flag, its default and its help."""
    def default(value):
        # A parameter with no default holds a sentinel in newer click, None in older.
        return value if value is None or isinstance(value, (bool, int, str)) else None
    return {name: {"doc": cmd.help,
                   "params": [{"name": p.name, "opts": p.opts, "type": p.type.name,
                               "required": p.required, "default": default(p.default),
                               "is_flag": bool(getattr(p, "is_flag", False)),
                               "help": getattr(p, "help", None)} for p in cmd.params]}
            for name, cmd in sorted(main.commands.items())}


def test_every_command_keeps_its_recorded_signature():
    recorded = json.loads((GOLDEN / "cli-signatures.json").read_text(encoding="utf-8"))
    assert command_signatures() == recorded
