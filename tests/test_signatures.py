"""The sheaf layer takes the lattice alone.

An `IntersectionLattice` carries its arrangement, so a function taking both
an `Arrangement` and an `IntersectionLattice` lets a caller pass a lattice
of some other arrangement. No function in `src/` may annotate parameters
with both types.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "arrinv"
PAIR = {"Arrangement", "IntersectionLattice"}


def _names(annotation: ast.AST) -> set[str]:
    """Type names an annotation reads, inside string annotations too."""
    out = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out |= _names(ast.parse(node.value, mode="eval"))
    return out


def _parameter_types(fn: ast.FunctionDef) -> set[str]:
    args = fn.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    return set().union(*(_names(p.annotation) for p in params
                         if p is not None and p.annotation is not None))


def paired(tree: ast.Module) -> list[str]:
    """Functions of `tree`, nested ones and methods included, taking both types."""
    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and PAIR <= _parameter_types(node)]


def test_no_function_takes_an_arrangement_beside_its_lattice():
    assert [f"{path.stem}:{name}" for path in sorted(SRC.glob("*.py"))
            for name in paired(ast.parse(path.read_text()))] == []


def test_the_check_sees_every_spelling_of_a_pair():
    source = '''
def plain(a: Arrangement, lattice: IntersectionLattice): ...
def quoted(a: "Arrangement", lattice: "IntersectionLattice | None" = None): ...
def dotted(*, a: arrangement.Arrangement, lattice: lattice.IntersectionLattice): ...
class Holder:
    def method(self, a: Arrangement, lats: list[IntersectionLattice]): ...
def alone(lattice: IntersectionLattice, n: int): ...
'''
    assert paired(ast.parse(source)) == ["plain", "quoted", "dotted", "method"]
