"""The library computes without floating point: no float literal, no use of
the name `float`, and from `math` only functions of integers. And it keeps
no dead public code: every public top-level name has a use in the library,
apart from the paper objects it exposes for their own sake."""

import ast
import doctest
from pathlib import Path

import discdimer

INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}

# Public names that nothing in the library calls, kept as the paper's
# objects, each shown in use in the README's doctest.
PAPER_OBJECTS = {
    "eta": "η on the matching lattice 𝕄, the isomorphism onto the vertex lattice",
    "lattice_point_of_matching": "a matching as a point of 𝕄, the argument of η",
    "strand_permutation": "the decorated permutation of the Postnikov diagram",
    "support_subgraph": "criterion 13: the part of the bipartite dual that a boundary "
                        "value's matchings cover",
    "ms_formula_white_v2": "the paper's identity MS° = x^[P_I°] · twist sum",
    "flip": "a flip μ ± d(𝟙_j), a cover of the lattice of one boundary value's matchings",
    "degrees_toward": "the minimal path degrees D(j → i) that grade the resolution of N_μ",
}


def _modules():
    modules = sorted(Path(list(discdimer.__path__)[0]).rglob("*.py"))
    assert len(modules) > 10
    return [(path, ast.parse(path.read_text(), str(path))) for path in modules]


def _float_uses(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "the name float"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ("math", "cmath"):
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "cmath"):
            for alias in node.names:
                if node.module == "cmath" or alias.name not in INTEGER_MATH:
                    yield node.lineno, f"from {node.module} import {alias.name}"


def test_no_floating_point_in_the_library():
    found = [f"{path.name}:{line}: {what}"
             for path, tree in _modules()
             for line, what in _float_uses(tree)]
    assert not found, found


def test_the_check_sees_floats():
    code = "import math\nfrom math import gcd, sqrt\nx = 0.5 + float(1)\n"
    assert [what for _, what in _float_uses(ast.parse(code))] == [
        "import math", "from math import sqrt", "float literal 0.5", "the name float"]


def _unused_public_names(modules):
    """Public top-level functions and classes whose name no other top-level
    statement of the library reads; a function registered as a click
    command (decorated with `@<group>.command(...)`) counts as read."""
    defined, read = {}, set()
    for path, tree in modules:
        for stmt in tree.body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")
                    and not any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
                                and d.func.attr == "command" for d in stmt.decorator_list)):
                defined[stmt.name] = path.name
            names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            read |= names - {getattr(stmt, "name", None)}
    return sorted(f"{module}: {name}" for name, module in defined.items() if name not in read)


def test_every_public_name_has_a_use_in_the_library():
    unused = _unused_public_names(_modules())
    assert {entry.split(": ")[1] for entry in unused} == set(PAPER_OBJECTS), unused


def test_the_readme_shows_each_paper_object_in_use():
    readme = Path(__file__).parents[1] / "README.md"
    test = doctest.DocTestParser().get_doctest(readme.read_text(encoding="utf-8"), {},
                                               "README.md", str(readme), 0)
    assert all(any(name + "(" in e.source for e in test.examples) for name in PAPER_OBJECTS)
    assert doctest.DocTestRunner().run(test).failed == 0


def test_the_use_check_sees_dead_names():
    code = ("import click\n@click.group()\ndef main(): pass\n"
            "@main.command('x')\ndef cmd_x(): helper()\n"
            "def helper(): pass\ndef dead(): dead()\nclass Unused: pass\n"
            "def _private(): pass\n")
    assert _unused_public_names([(Path("m.py"), ast.parse(code))]) == ["m.py: Unused", "m.py: dead"]
