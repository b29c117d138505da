"""The sheaf layer takes the lattice alone, and no function takes a rank table.

An `IntersectionLattice` carries its arrangement and a `SteinerTensor` its
lattice, so a function taking two of `Arrangement`, `IntersectionLattice`
and `SteinerTensor` lets a caller pass objects of different arrangements.
No function in `src/` may annotate parameters with two of these types.

The lattice decides dependence for everyone else, and `build_lattice` and
`basis_minors` read the forms themselves, so no function takes a table of
ranks, as a `ranks` parameter.

The Gale dual exists where m >= n + 3 and the Steiner sheaf does, and
`steiner.gale_unavailable` is the one place that says so: no other function
compares against an expression `... + 3`.

The sheaf numbers of a line arrangement and the pair-count oracle read delta
or the Poincare polynomial, so only the per-point data and the delta
invariant read the points: no other function refers to `flats_of_rank`.

A matrix is a sequence of rows. `linalg.QMatrix`, rows beside a column
count, is kept for the benchmark's tracer alone, so no other module of
`src/` names it.

The defining tensor is its relation basis, and every reader takes those rows.
Its slices are a view for `arrinv tensor` alone, and its columns, the Gale
dual points, a view for the `gale` section and `gale_dual`: only
`Analysis.tensor_section` reads `.slices`, and only those two call
`dual_columns`. The dual arrangement is built once, by `Analysis.dual`, the
only caller of `gale_dual`, which the gale section and `arrinv conjecture`
read.

The Gale check sets the lattice against the forms' dependent sets, read off
the basis gcds a report computes once, and tests the relation basis for a
kernel with one rank: `steiner` imports neither `det` nor `rref`, and only
`Analysis.basis_minors` calls `basis_minors`.

Each report argument has one rule, in one checking function beside the
code that reads it, so each argument message is written in one string
literal of `src/`, and the CLI imports no rule of its own (no `is_prime`).

A report section is encoded in one place, `Analysis.section`, which runs
`jsonable` on what a `*_section` method returns: no section method and no
CLI command calls `jsonable` or `list`, or reads an enum's `.value`, and in
`report` only `Analysis.section` and `jsonable` itself call `jsonable`.
The CLI holds no library rule: it names neither `jsonable` nor the Gale
rule (`gale_dual`, `gale_unavailable`, `GaleUndefined`), nor the stability
rule (`Status`, `StabilityVerdict`, `classify`): `arrinv conjecture` prints
the conjecture section, which compares the two verdicts. The CLI builds an
`Analysis` in one place, `_analysis`, so no command analyses a second
arrangement.

No line of `src/` is longer than 99 characters.
"""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "arrinv"
PAIR = {"Arrangement", "IntersectionLattice"}
ARGUMENT_MESSAGES = ("max_subsets must be an int >= 0", "prime must be an int",
                     "is not prime", "is repeated", "at least one oracle prime is needed",
                     "primality is decided only below")
TENSOR_PAIRS = ({"Arrangement", "SteinerTensor"},
                {"IntersectionLattice", "SteinerTensor"})


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


def _parameters(fn: ast.FunctionDef) -> list[ast.arg]:
    args = fn.args
    return [p for p in args.posonlyargs + args.args + args.kwonlyargs
            + [args.vararg, args.kwarg] if p is not None]


def _parameter_types(fn: ast.FunctionDef) -> set[str]:
    return set().union(*(_names(p.annotation) for p in _parameters(fn)
                         if p.annotation is not None))


def _functions(tree: ast.Module):
    """Functions of `tree`, nested ones and methods included."""
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def paired(tree: ast.Module, pairs=(PAIR,)) -> list[str]:
    """Functions of `tree` taking both types of some pair in `pairs`."""
    return [fn.name for fn in _functions(tree)
            if any(pair <= _parameter_types(fn) for pair in pairs)]


def taking(tree: ast.Module, name: str) -> list[str]:
    """Functions of `tree` with a parameter called `name`."""
    return [fn.name for fn in _functions(tree)
            if name in {p.arg for p in _parameters(fn)}]


def names(tree: ast.Module) -> set[str]:
    """Names `tree` reads, imports or annotates with, string annotations too."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        for annotation in (getattr(node, "annotation", None),
                           getattr(node, "returns", None)):
            if annotation is not None:
                out |= _names(annotation)
    return out


def _scopes_matching(tree: ast.Module, match) -> list[str]:
    """Qualified names of the scopes of `tree` holding a node that `match` accepts.

    A method is "Class.method", a nested function "outer.inner", and code
    outside every function and class "<module>".
    """
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if match(child):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(tree, [])
    return list(dict.fromkeys(found))


def _is_name(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.Name) and node.id == name)


def referring(tree: ast.Module, name: str) -> list[str]:
    """Qualified names of the scopes of `tree` that read a name or attribute `name`."""
    return _scopes_matching(tree, lambda node: _is_name(node, name))


def calling(tree: ast.Module, name: str) -> list[str]:
    """Qualified names of the scopes of `tree` that call a name or attribute `name`."""
    return _scopes_matching(tree, lambda node: isinstance(node, ast.Call)
                            and _is_name(node.func, name))


def literals_holding(tree: ast.Module, text: str) -> int:
    """String literals of `tree` containing `text`, docstrings aside.

    An f-string counts once for each of its literal parts that holds `text`.
    """
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    return sum(isinstance(node, ast.Constant) and isinstance(node.value, str)
               and text in node.value and id(node) not in docstrings
               for node in ast.walk(tree))


def _plus_three(node: ast.AST) -> bool:
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and any(isinstance(side, ast.Constant) and side.value == 3
                    for side in (node.left, node.right)))


def comparing_plus_three(tree: ast.Module) -> list[str]:
    """Functions of `tree` with a comparison one of whose operands is `... + 3`."""
    return [fn.name for fn in _functions(tree)
            if any(isinstance(node, ast.Compare)
                   and any(map(_plus_three, [node.left, *node.comparators]))
                   for node in ast.walk(fn))]


def encoding(tree: ast.Module) -> list[str]:
    """Scopes of `tree` that call `jsonable` or `list`, or read an attribute `value`."""
    return _scopes_matching(tree, lambda node: (
        isinstance(node, ast.Call) and any(_is_name(node.func, name)
                                           for name in ("jsonable", "list"))
        or isinstance(node, ast.Attribute) and node.attr == "value"))


def _in_src(check) -> list[str]:
    return [f"{path.stem}:{name}" for path in sorted(SRC.glob("*.py"))
            for name in check(ast.parse(path.read_text()))]


def test_no_function_takes_an_arrangement_beside_its_lattice():
    assert _in_src(paired) == []


def test_no_function_takes_a_tensor_beside_its_lattice_or_arrangement():
    assert _in_src(lambda tree: paired(tree, TENSOR_PAIRS)) == []


def test_no_function_takes_a_rank_table():
    assert _in_src(lambda tree: taking(tree, "ranks")) == []


def test_the_check_sees_every_spelling_of_a_pair():
    source = '''
def plain(a: Arrangement, lattice: IntersectionLattice): ...
def quoted(a: "Arrangement", lattice: "IntersectionLattice | None" = None): ...
def dotted(*, a: arrangement.Arrangement, lattice: lattice.IntersectionLattice): ...
class Holder:
    def method(self, a: Arrangement, lats: list[IntersectionLattice]): ...
def alone(lattice: IntersectionLattice, n: int): ...
def tensor_and_lattice(t: SteinerTensor, lattice: IntersectionLattice): ...
def tensor_and_arrangement(t: "SteinerTensor", *, a: Arrangement | None = None): ...
def tensor_alone(t: SteinerTensor, ranks: dict[tuple[int, ...], int]): ...
'''
    tree = ast.parse(source)
    assert paired(tree) == ["plain", "quoted", "dotted", "method"]
    assert paired(tree, TENSOR_PAIRS) == ["tensor_and_lattice",
                                          "tensor_and_arrangement"]
    assert taking(tree, "ranks") == ["tensor_alone"]


def test_only_the_point_data_and_delta_read_the_points():
    assert _in_src(lambda tree: referring(tree, "flats_of_rank")) == [
        "invariants:local_data", "invariants:delta_invariant"]


def test_only_the_tensor_command_and_the_gale_views_read_the_views():
    assert _in_src(lambda tree: referring(tree, "slices")) == [
        "report:Analysis.tensor_section"]
    assert _in_src(lambda tree: referring(tree, "dual_columns")) == [
        "report:Analysis.gale_section", "steiner:gale_dual"]


def test_only_the_analysis_builds_the_gale_dual():
    assert _in_src(lambda tree: calling(tree, "gale_dual")) == ["report:Analysis.dual"]


def test_the_cli_neither_encodes_nor_holds_the_gale_rule():
    assert {"jsonable", "gale_dual", "gale_unavailable", "GaleUndefined"} & names(
        ast.parse((SRC / "cli.py").read_text())) == set()


def test_the_cli_holds_no_stability_rule():
    assert {"Status", "StabilityVerdict", "classify"} & names(
        ast.parse((SRC / "cli.py").read_text())) == set()


def test_the_cli_builds_one_analysis():
    assert calling(ast.parse((SRC / "cli.py").read_text()), "Analysis") == ["_analysis"]


def test_the_check_sees_every_reference_to_a_name():
    source = """
def call(lat): return sum(f.s for f in lat.flats_of_rank(2))
class Holder:
    def bound(self): points = self.lattice.flats_of_rank
    def outer(self):
        def inner(): return flats_of_rank(2)
def flats_of_rank(r): ...
def other(lat): return lat.flats
x = lat.flats_of_rank(1)
"""
    assert referring(ast.parse(source), "flats_of_rank") == [
        "call", "Holder.bound", "Holder.outer.inner", "<module>"]


def test_the_gale_check_takes_no_minor_of_its_own():
    assert {"det", "rref"} & names(ast.parse((SRC / "steiner.py").read_text())) == set()
    assert _in_src(lambda tree: calling(tree, "basis_minors")) == [
        "report:Analysis.basis_minors"]


def test_the_check_sees_every_call_of_a_name():
    source = """
def plain(a): return basis_minors(a)
class Holder:
    def read(self): return self.basis_minors
    def method(self): return ffcount.basis_minors(self.a)
    def outer(self):
        def inner(): return [basis_minors(b) for b in self.others]
passed = map(basis_minors, [])
called = basis_minors(x)
"""
    assert calling(ast.parse(source), "basis_minors") == [
        "plain", "Holder.method", "Holder.outer.inner", "<module>"]


def test_only_the_gale_rule_compares_against_n_plus_3():
    assert _in_src(comparing_plus_three) == ["steiner:gale_unavailable"]


def test_the_check_sees_every_spelling_of_plus_3():
    source = """
def less(m, n): return m < n + 3
def reversed_sum(a): return a.n + 3 > a.m or False
def constant_first(arr): return arr["m"] >= 3 + arr["n"]
def chained(m, n): return 0 <= m < n + 3
class Holder:
    def method(self): return self.a.m < self.a.n + 3
def two(m, n): return m < n + 2
def assigned(m, n): x = n + 3; return x
def product(m): return (m - 1) * (m + 3) < 0
"""
    assert comparing_plus_three(ast.parse(source)) == [
        "less", "reversed_sum", "constant_first", "chained", "method"]


def test_only_linalg_names_qmatrix():
    assert [path.stem for path in sorted(SRC.glob("*.py"))
            if "QMatrix" in names(ast.parse(path.read_text()))] == []


def test_the_check_sees_every_spelling_of_a_name():
    spellings = [
        "from .linalg import QMatrix",
        "from .linalg import QMatrix as M",
        "import arrinv.linalg.QMatrix",
        "from . import linalg\nx = linalg.QMatrix((), 0)",
        "def f(m: 'QMatrix | None'): ...",
        "def f() -> tuple['QMatrix', ...]: ...",
        "x: 'list[QMatrix]' = []",
        "y = QMatrix",
    ]
    for source in spellings:
        assert "QMatrix" in names(ast.parse(source)), source
    assert "QMatrix" not in names(ast.parse('"""A QMatrix in prose."""\n# QMatrix'))


def test_no_source_line_is_longer_than_99_characters():
    assert [f"{path.stem}:{number}" for path in sorted(SRC.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), start=1)
            if len(line) > 99] == []


def test_each_argument_message_is_written_once():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    assert {text: sum(literals_holding(tree, text) for tree in trees)
            for text in ARGUMENT_MESSAGES} == dict.fromkeys(ARGUMENT_MESSAGES, 1)


def test_the_cli_has_no_prime_rule_of_its_own():
    assert "is_prime" not in names(ast.parse((SRC / "cli.py").read_text()))


def test_the_check_sees_every_literal_holding_a_message():
    source = '''
"""Module text: 4 is not prime."""
def plain(): raise ValueError("4 is not prime")
def formatted(p): raise ValueError(f"{p} is not prime")
class Holder:
    """Class text: 9 is not prime."""
    def method(self, p):
        """Method text: 1 is not prime."""
        return ["6 is not prime", "a prime"]  # 8 is not prime
'''
    assert literals_holding(ast.parse(source), "is not prime") == 3


def test_only_the_section_boundary_encodes():
    report = ast.parse((SRC / "report.py").read_text())
    cli = ast.parse((SRC / "cli.py").read_text())
    assert [scope for scope in encoding(report)
            if re.match(r"Analysis\.\w+_section\b", scope)] == []
    assert [scope for scope in encoding(cli) if scope.startswith("cmd_")] == []
    assert calling(report, "jsonable") == ["jsonable", "Analysis.section"]


def test_the_check_sees_every_encoding():
    source = """
def cmd_plain(t): return {"rows": [list(r) for r in t.rows]}
def cmd_enum(v): return v.status.value
class Analysis:
    def lattice_section(self): return jsonable(self.lattice)
    def outer_section(self):
        def inner(): return report.jsonable(self.x)
def cmd_clean(value): return {"value": value, "n": len(value)}
"""
    assert encoding(ast.parse(source)) == [
        "cmd_plain", "cmd_enum", "Analysis.lattice_section", "Analysis.outer_section.inner"]
