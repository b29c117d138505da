"""Every function and method in the package is used by the package itself.

A function that nothing in `src/` calls is either public surface or dead
code. The public surface is the allowlist below; anything else without a
reference should go, or move into the tests' oracles if only tests use it.
"""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "arrinv"

ALLOWED = {
    "build_report",   # the library's entry point
    # stability evidence not yet in a report (ROADMAP items 4, 5 and 7)
    "git_ratio_test", "flat_subspace", "free_splitting_stability",
}


def _definitions(tree: ast.Module):
    """Module-level functions and the methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{sub.name}", sub


def _references(node: ast.AST) -> Counter:
    """Names read and attributes accessed under `node`; imports do not count."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


def unreferenced() -> dict[str, str]:
    """'module:qualified name' -> name, for every definition only it refers to."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    return {f"{module}:{qualname}": node.name
            for module, tree in trees.items()
            for qualname, node in _definitions(tree)
            # dunders are called by Python itself; a recursive call is no use
            if not (node.name.startswith("__") and node.name.endswith("__"))
            and total[node.name] == _references(node)[node.name]}


def test_every_function_is_referenced_in_src():
    # report sections are reached by getattr(self, name + "_section")
    assert [where for where, name in unreferenced().items()
            if name not in ALLOWED and not name.endswith("_section")] == []


def test_allowlist_names_unreferenced_functions_only():
    assert ALLOWED <= set(unreferenced().values())
