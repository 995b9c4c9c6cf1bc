"""The library computes without floating point: no float literal, no use of
the name `float`, and from `math` only functions of integers."""

import ast
from pathlib import Path

import discdimer

INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


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
    modules = sorted(Path(list(discdimer.__path__)[0]).rglob("*.py"))
    assert len(modules) > 10
    found = [f"{path.name}:{line}: {what}"
             for path in modules
             for line, what in _float_uses(ast.parse(path.read_text(), str(path)))]
    assert not found, found


def test_the_check_sees_floats():
    code = "import math\nfrom math import gcd, sqrt\nx = 0.5 + float(1)\n"
    assert [what for _, what in _float_uses(ast.parse(code))] == [
        "import math", "from math import sqrt", "float literal 0.5", "the name float"]
