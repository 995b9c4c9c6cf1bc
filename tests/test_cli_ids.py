"""The one reader of the ids that the CLI takes: `--boundary`, `--subset`,
`--matching`, `--arrow` and `--vertex`, and of its integer options:
`--degree`, `--dmax`, `--seed`, `-k` and `-n`.

An id is ASCII digits with no sign and no leading zero, between optional
spaces; a list is ids joined by commas, with no empty item. An integer
option is read as one id. Any other token is one `Error:` line that names
it, with exit code 1.
"""

import re

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discdimer.cli import main

GR37_MATCHING = "1,3,9,10,15"

# Each option, the command that reads it, and where its text goes.
OPTIONS = {
    "boundary": ["matchings", "gr37", "--boundary", None],
    "subset": ["twist-expr", "gr37", "--subset", None],
    "matching": ["kclass", "gr37", "--matching", None],
    "arrow": ["wedge", "gr37", "--arrow", None],
    "vertex": ["rotate", "gr37", "--matching", GR37_MATCHING, "--vertex", None,
               "--degree", "1"],
}
SINGLE = {"arrow", "vertex"}


def invoke(what, text):
    args = [text if x is None else x for x in OPTIONS[what]]
    return CliRunner().invoke(main, args)


def reference(text, single):
    """The ids the grammar reads from the text, or the first token it
    rejects as ("bad", token)."""
    items = [text] if single else text.split(",")
    ids = []
    for item in items:
        token = item.strip(" ")
        if (not token or any(c not in "0123456789" for c in token)
                or (token[0] == "0" and len(token) > 1)):
            return "bad", item
        ids.append(int(token))
    return ids


@pytest.mark.parametrize("what, text, token", [
    ("boundary", "1 3,5", "1 3"),
    ("boundary", "1_0,3,5", "1_0"),
    ("boundary", "+1,3,5", "+1"),
    ("boundary", "1,,3,5", ""),
    ("arrow", "1_0", "1_0"),
    ("vertex", "+1", "+1"),
], ids=["space-inside", "underscore", "sign", "empty-item", "arrow-underscore", "vertex-sign"])
def test_a_token_that_is_no_id_is_named_in_one_error_line(what, text, token):
    """Each of these was once read as other ids: [13, 5], {3, 5, 10}, {1, 3, 5}
    twice, the wedge of arrow 10, and vertex 1."""
    result = invoke(what, text)
    assert result.exit_code == 1
    assert result.output == f"Error: cannot parse {what} {text!r}: {token!r} is not a decimal id\n"


def test_spaces_around_an_id_are_read():
    assert invoke("boundary", " 1 , 3,5 ").output == invoke("boundary", "1,3,5").output
    assert invoke("arrow", " 10 ").output == invoke("arrow", "10").output


TOKENS = ["0", "1", "2", "3", "5", "7", "9", "10", "15", "17", "999",
          "01", "007", "١", "０", "²", "+1", "-1", "1_0", "1 3", "", "x", "1.0", "\t1", "1e1"]
PADDED = st.tuples(st.sampled_from(["", " ", "  "]), st.sampled_from(TOKENS),
                   st.sampled_from(["", " "])).map("".join)


@st.composite
def id_lists(draw, base):
    """A permutation of `base` with some items replaced by grammar tokens,
    maybe more items and maybe a trailing comma."""
    items = list(draw(st.permutations(base)))
    for i in draw(st.lists(st.integers(0, len(items) - 1), max_size=2)):
        items[i] = draw(PADDED)
    items += draw(st.lists(PADDED, max_size=2))
    return ",".join(items) + draw(st.sampled_from(["", ","]))


TEXTS = {
    "boundary": id_lists(["1", "3", "5"]),
    "subset": id_lists(["1", "3", "5"]),
    "matching": id_lists(GR37_MATCHING.split(",")),
    "arrow": st.one_of(PADDED, id_lists(["10"])),
    "vertex": st.one_of(PADDED, id_lists(["1"])),
}


def check_reading(what, text):
    """The option's text is read as the grammar reads it (the command then
    answers as it does for the ids written plainly), or rejected with one
    `Error:` line that names the first bad token; never a traceback."""
    result = invoke(what, text)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    read = reference(text, what in SINGLE)
    if read[0] == "bad":
        assert result.exit_code == 1
        assert result.output == (f"Error: cannot parse {what} {text!r}: "
                                 f"{read[1]!r} is not a decimal id\n")
        return
    repeated = sorted({x for x in read if read.count(x) > 1})
    if repeated:
        assert result.exit_code == 1
        assert result.output == f"Error: {what} {text!r} repeats {repeated[0]}\n"
        return
    plain = invoke(what, ",".join(map(str, read)))
    assert (result.exit_code, result.output) == (plain.exit_code, plain.output)


@settings(max_examples=40, deadline=None)
@given(TEXTS["boundary"])
@example('01,3,5')
@example('١,3,5')
@example('1,3,5,')
def test_boundary_is_read_by_the_grammar(text):
    check_reading("boundary", text)


@settings(max_examples=40, deadline=None)
@given(TEXTS["subset"])
@example('01,3,5')
@example('١,3,5')
@example('1,3,5,')
def test_subset_is_read_by_the_grammar(text):
    check_reading("subset", text)


@settings(max_examples=40, deadline=None)
@given(TEXTS["matching"])
@example('01,3,9,10,15')
@example('١,3,9,10,15')
@example('1,3,9,10,15,')
def test_matching_is_read_by_the_grammar(text):
    check_reading("matching", text)


@settings(max_examples=40, deadline=None)
@given(TEXTS["arrow"])
@example('01')
@example('١')
@example('10,')
def test_arrow_is_read_by_the_grammar(text):
    check_reading("arrow", text)


@settings(max_examples=40, deadline=None)
@given(TEXTS["vertex"])
@example('01')
@example('١')
@example('1,')
def test_vertex_is_read_by_the_grammar(text):
    check_reading("vertex", text)


# Each integer option and the command that reads it.
INTEGER_OPTIONS = {
    "degree": ["rotate", "gr37", "--matching", "2,4,6,10,12", "--vertex", "3", "--degree", None],
    "dmax": ["resolution", "gr37", "--matching", "2,4,6,10,12", "--dmax", None],
    "seed": ["verify", "uniform-2-4", "--format", "json", "--seed", None],
    "k": ["build-uniform", "-k", None, "-n", "4", "-o", "$OUT"],
    "n": ["build-uniform", "-k", "2", "-n", None, "-o", "$OUT"],
}


def invoke_integer(what, text, out="model.json"):
    args = [text if x is None else out if x == "$OUT" else x for x in INTEGER_OPTIONS[what]]
    return CliRunner().invoke(main, args)


def untimed(output):
    """The output without the verify checks' timings."""
    return re.sub(r'"seconds": [0-9.e-]+', '"seconds": 0', output)


@pytest.mark.parametrize("what, text", [
    ("degree", "1_0"), ("degree", "+1"), ("degree", "01"), ("degree", "١"),
    ("dmax", "1_0"), ("dmax", "-3"),
    ("seed", "٥"), ("seed", "0_5"), ("seed", "+5"),
    ("k", "0_2"), ("n", "+4"),
])
def test_an_integer_option_that_is_no_id_is_named_in_one_error_line(what, text, tmp_path):
    """Each of these was once read as a number: degree 10, 1, 1 and 1;
    d_max 10 (and -3, which only the library rejected); seed 5 three
    times; and the uniform (2, 4) model."""
    result = invoke_integer(what, text, str(tmp_path / "model.json"))
    assert result.exit_code == 1
    assert result.output == f"Error: cannot parse {what} {text!r}: {text!r} is not a decimal id\n"
    assert not (tmp_path / "model.json").exists()


def test_integer_options_keep_their_metavar():
    for what, args in INTEGER_OPTIONS.items():
        flag = args[args.index(None) - 1]
        help_text = CliRunner().invoke(main, [args[0], "--help"]).output
        assert f"{flag} INTEGER" in help_text, what


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["degree", "dmax", "seed"]), PADDED)
@example("degree", "01")
@example("dmax", "١")
@example("seed", "1e1")
def test_integer_options_are_read_by_the_grammar(what, text):
    """The option's text is read as the id grammar reads it (the command
    then answers as it does for the number written plainly), or rejected
    with one `Error:` line that names it; never a traceback."""
    result = invoke_integer(what, text)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    read = reference(text, True)
    if read[0] == "bad":
        assert result.exit_code == 1
        assert result.output == f"Error: cannot parse {what} {text!r}: {text!r} is not a decimal id\n"
        return
    plain = invoke_integer(what, str(read[0]))
    assert (result.exit_code, untimed(result.output)) == (plain.exit_code, untimed(plain.output))
