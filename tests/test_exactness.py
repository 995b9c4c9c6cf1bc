"""The library computes without floating point: no float literal, no use of
the name `float`, and from `math` only functions of integers. And it keeps
no dead public code: every public top-level name, and every public method
of a public class, has a use in the library, apart from the paper objects it
exposes for their own sake."""

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
    "weights": "wt(μ) and wtD of the weight identity [N_μ] = wtD + Σ_{i∈∂μ} p_{h α_i} − wt(μ)",
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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = _FUNCTIONS + (ast.Lambda,)


def _local_names(fn):
    """The names a function binds locally: its parameters and each name its
    own body (not a nested function's) stores, defines or imports, less those
    it declares global or nonlocal."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a}
    declared = set()
    todo = [fn.body] if isinstance(fn, ast.Lambda) else list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
            names.add(node.name)
            continue
        elif isinstance(node, ast.Lambda):
            continue
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        todo.extend(ast.iter_child_nodes(node))
    return names - declared


def _reads(module, tree):
    """What one module reads of the library, as (module, name) pairs, and the
    attribute names it reads, as (attribute, the method reading it or None)
    pairs. A name counts as read from an import of it from its module, as an
    attribute of its imported module, or as a name of this module that no
    enclosing function binds locally; a top-level function or class reading
    its own name, or a method reading its own attribute, does not count."""
    reads, attributes, modules = set(), set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("discdimer")):
            source = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                if source:
                    reads.add((source, alias.name))
                else:
                    modules[alias.asname or alias.name] = alias.name

    def visit(node, shadowed, own, method):
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id not in shadowed and node.id != own):
            reads.add((module, node.id))
        elif isinstance(node, ast.Attribute):
            attributes.add((node.attr, method))
            if (isinstance(node.value, ast.Name) and node.value.id in modules
                    and node.value.id not in shadowed):
                reads.add((modules[node.value.id], node.attr))
        if isinstance(node, _SCOPES):
            shadowed = shadowed | _local_names(node)
        for child in ast.iter_child_nodes(node):
            visit(child, shadowed, own, method)

    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                method = f"{own}.{item.name}" if isinstance(item, _FUNCTIONS) else None
                visit(item, frozenset(), own, method)
        else:
            visit(stmt, frozenset(), own, None)
    return reads, attributes


def _registers_a_command(func: ast.expr) -> bool:
    return (isinstance(func, ast.Attribute) and func.attr == "command"
            or isinstance(func, ast.Name) and func.id == "model_command")


def _unused_public_names(modules):
    """Public top-level functions and classes, and public methods of public
    classes (dunders excluded), that the library never reads (see `_reads`);
    a function registered as a click command (decorated with
    `@<group>.command(...)` or `@model_command(...)`) counts as read."""
    defined, reads, attributes = [], set(), set()
    for path, tree in modules:
        module = path.stem
        for stmt in tree.body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")
                    and not any(isinstance(d, ast.Call) and _registers_a_command(d.func)
                                for d in stmt.decorator_list)):
                defined.append((path.name, stmt.name, module))
                if isinstance(stmt, ast.ClassDef):
                    defined += [(path.name, f"{stmt.name}.{item.name}", None)
                                for item in stmt.body
                                if isinstance(item, _FUNCTIONS) and not item.name.startswith("_")]
        module_reads, module_attributes = _reads(module, tree)
        reads |= module_reads
        attributes |= module_attributes

    def read(name, module):
        if module is not None:
            return (module, name) in reads
        method = name.rpartition(".")[2]
        return any(attr == method and by != name for attr, by in attributes)

    return sorted(f"{path}: {name}" for path, name, module in defined if not read(name, module))


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
            "@main.command('x')\ndef cmd_x(): helper(); Used().live; takes(1)\n"
            "@model_command('y')\ndef cmd_y(): pass\n"
            "def helper(): pass\ndef dead(): dead()\nclass Unused: pass\n"
            "def _private(): pass\n"
            "def shadowed(): pass\ndef takes(shadowed): return shadowed\n"
            "class Used:\n"
            "    def live(self): pass\n"
            "    def dead_method(self): return self.dead_method()\n"
            "    def __repr__(self): return ''\n")
    assert _unused_public_names([(Path("m.py"), ast.parse(code))]) == [
        "m.py: Unused", "m.py: Used.dead_method", "m.py: dead", "m.py: shadowed"]


def test_the_use_check_resolves_names_across_modules():
    """A read counts for the module the name comes from: an import of it, an
    attribute of its module, or its own module's name unshadowed."""
    a = ("def imported(): pass\ndef attribute(): pass\ndef local(): pass\n"
         "def parameter(): pass\ndef elsewhere(): pass\n"
         "def f(): return local(), [parameter for parameter in ()]\n")
    b = ("from .a import imported\nfrom . import a as lib\n"
         "def g(parameter, elsewhere): return imported, lib.attribute, parameter\n"
         "def elsewhere(): pass\n"
         "def h(): return elsewhere()\ndef k(): return g(), h(), k()\n")
    modules = [(Path(name), ast.parse(code)) for name, code in (("a.py", a), ("b.py", b))]
    assert _unused_public_names(modules) == [
        "a.py: elsewhere", "a.py: f", "a.py: parameter", "b.py: k"]
