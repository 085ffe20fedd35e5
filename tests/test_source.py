"""Static checks over the package's source."""

import ast

from helpers import PACKAGE_ROOT
from ltlguard.ltl import ast as formulas

# The functions allowed to call themselves, each with why its depth is safe.
RECURSIVE = {
    "ltl.progression.progress": "reference oracle the compiled engine is checked against",
    "ltl.progression.simplify": "reference oracle the compiled engine is checked against",
    "trace.checked": "depth is fixed by the declared kind",
    "synthbench.generator.build_tree_formula.<locals>.node": "depth is TREE_DEPTH",
}


def self_callers(tree: ast.Module, module: str) -> list[str]:
    """Qualified names of the functions in ``tree`` that call themselves:
    a function or closure by its bare name, a method as ``self.<its name>``
    (a bare name in a method is the module-level function of that name)."""
    found = []
    scopes = [(module, tree, False)]  # (qualified name, node, is a function)
    while scopes:
        prefix, scope, in_function = scopes.pop()
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, ast.ClassDef):
                scopes.append((f"{prefix}.{node.name}", node, False))
                continue
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((prefix, node, in_function))
                continue
            name = f"{prefix}.<locals>.{node.name}" if in_function else f"{prefix}.{node.name}"
            method = isinstance(scope, ast.ClassDef) and node.args.args
            receiver = node.args.args[0].arg if method else None
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if method:
                    by_self = (
                        isinstance(func, ast.Attribute)
                        and func.attr == node.name
                        and isinstance(func.value, ast.Name)
                        and func.value.id == receiver
                    )
                else:
                    by_self = isinstance(func, ast.Name) and func.id == node.name
                if by_self:
                    found.append(name)
                    break
            scopes.append((name, node, True))
    return found


def test_no_recursion_outside_the_allowlist():
    package = PACKAGE_ROOT / "ltlguard"
    found = []
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        found += self_callers(ast.parse(path.read_text(encoding="utf-8")), module)
    assert sorted(found) == sorted(RECURSIVE)


def test_the_check_sees_each_kind_of_self_call():
    source = (
        "def f(x):\n    return f(x)\n"
        "def g():\n    def h():\n        return [h() for _ in ()]\n    return h\n"
        "class C:\n"
        "    def m(self):\n        return self.m()\n"
        "    def step(self):\n        return step(self)\n"
        "    def n(me):\n        return other.n()\n"
    )
    assert sorted(self_callers(ast.parse(source), "mod")) == ["mod.C.m", "mod.f", "mod.g.<locals>.h"]


def test_only_the_parser_builds_automaton_nodes():
    # The parser is the residual automaton's one door: a formula from
    # elsewhere enters through its rendering, never through ``.build``.
    package = PACKAGE_ROOT / "ltlguard"
    builders = [
        path.relative_to(package).as_posix()
        for path in sorted(package.rglob("*.py"))
        if any(
            isinstance(node, ast.Attribute) and node.attr == "build"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )
    ]
    assert builders == ["ltl/parser.py"]


def test_formula_classes_inherit_one_equality():
    # A generated ``==`` or ``hash`` on a node class would recurse.
    classes = [
        cls for cls in vars(formulas).values()
        if isinstance(cls, type) and issubclass(cls, formulas.Formula) and cls is not formulas.Formula
    ]
    assert set(classes) == set(formulas.SYNTAX)
    for cls in classes:
        assert (cls.__eq__, cls.__hash__) == (formulas.Formula.__eq__, formulas.Formula.__hash__), cls
