"""Every function, method and record field is used by the package itself.

A function that nothing in `src/` calls, or a field that nothing in `src/`
reads, is either public surface or dead code. The public surface is the
allowlist below; anything else without a reference should go, or move into
the tests' oracles if only tests use it.

A module-level function is referenced only by a name read where no
enclosing function binds that name as a local or a parameter, and a method
only by an attribute access: a local `scale` does not keep a `scale` method
alive, nor a `mobius` field a `mobius` function. A field is read only by an
attribute load: the constructor call that fills it does not count. The
records a report prints whole, `PRINTED`, count as read: `report.jsonable`
writes each of their fields.

No linter runs on the project, so the same holds for imports: a
module-level import in `src/` or `tests/` that its module never reads goes.
"""

import ast
import importlib
import pathlib
from collections import Counter

from arrinv.arrangement import parse_arrangement
from arrinv.fixtures import fixture, fixture_names
from arrinv.report import build_report, jsonable

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "arrinv"

ALLOWED = {
    "build_report",   # the library's entry point
    # stability evidence not yet in a report (ROADMAP items 4, 5 and 7)
    "git_ratio_test", "free_splitting_stability",
    "GitRatioResult.dim_intersection", "GitRatioResult.lhs", "GitRatioResult.rhs",
    # only the benchmark's tracer still names QMatrix (ROADMAP item 1b)
    "QMatrix.cols",
}

# records a report passes whole to `jsonable`, which reads every field
PRINTED = {"PoincareData", "LocalPointData", "Witness", "StabilityVerdict", "ConicResult",
           "RncResult"}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _definitions(tree: ast.Module):
    """Module-level functions and the methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{sub.name}", sub


def _own_nodes(scope: ast.AST):
    """The nodes of `scope` outside the nested scopes it contains."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, _SCOPES):
            yield from _own_nodes(child)


def _bound(scope: ast.AST) -> set[str]:
    """Parameters of a function scope and the names its own body binds."""
    args = getattr(scope, "args", None)
    params = [] if args is None else [
        a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
        + [args.vararg, args.kwarg] if a is not None]
    return set(params) | {
        n.id for n in _own_nodes(scope)
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)} | {
        n.name for n in _own_nodes(scope)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def _global_reads(node: ast.AST, hidden: frozenset = frozenset()) -> Counter:
    """Names read under `node` that no enclosing function binds locally."""
    if isinstance(node, _SCOPES):
        hidden = hidden | _bound(node)
    out = Counter()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            out[child.id] += child.id not in hidden
        else:
            out += _global_reads(child, hidden)
    return out


def _attributes(node: ast.AST) -> Counter:
    """Attribute names accessed under `node`."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _fields(cls: ast.ClassDef) -> list[str]:
    """Field names of a module-level class.

    A `NamedTuple` record's fields are its annotated names; a plain class's
    are the `self.<name>` attributes its `__init__` assigns.
    """
    if any(getattr(b, "id", None) == "NamedTuple" for b in cls.bases):
        return [f.target.id for f in cls.body
                if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
    return [t.attr for init in cls.body
            if isinstance(init, ast.FunctionDef) and init.name == "__init__"
            for node in ast.walk(init) if isinstance(node, ast.Assign)
            for t in node.targets
            if isinstance(t, ast.Attribute) and getattr(t.value, "id", None) == "self"]


def unread_fields() -> dict[str, str]:
    """'module:Class.field' -> 'Class.field', for every field no attribute load reads."""
    trees = _trees()
    reads = Counter(n.attr for tree in trees.values() for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
    return {f"{module}:{cls.name}.{name}": f"{cls.name}.{name}"
            for module, tree in trees.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name not in PRINTED
            for name in _fields(cls) if not reads[name]}


def unreferenced() -> dict[str, str]:
    """'module:qualified name' -> name, for every definition only it refers to."""
    trees = _trees()
    # methods are reached through attributes, functions through names
    references = {kind: (sum(map(count, trees.values()), Counter()), count)
                  for kind, count in (("method", _attributes), ("function", _global_reads))}
    out = {}
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            total, count = references["method" if "." in qualname else "function"]
            # dunders are called by Python itself; a recursive call is no use
            if not (node.name.startswith("__") and node.name.endswith("__")) \
                    and total[node.name] == count(node)[node.name]:
                out[f"{module}:{qualname}"] = node.name
    return out


def test_every_function_is_referenced_in_src():
    # report sections are reached by getattr(self, name + "_section")
    assert [where for where, name in unreferenced().items()
            if name not in ALLOWED and not name.endswith("_section")] == []


def test_every_record_field_is_read_in_src():
    assert [where for where, name in unread_fields().items() if name not in ALLOWED] == []


def test_allowlist_names_unreferenced_functions_only():
    assert ALLOWED <= set(unreferenced().values()) | set(unread_fields().values())


def _objects(x):
    """Every JSON object in `x`, nested ones included."""
    if isinstance(x, dict):
        yield x
        x = list(x.values())
    if isinstance(x, list):
        for v in x:
            yield from _objects(v)


def test_printed_records_are_objects_of_the_report():
    # the twisted-cubic planes give an rnc block, the fixtures the rest; one
    # small oracle prime keeps the counts cheap
    cubic = parse_arrangement(3, [[1, t, t * t, t ** 3] for t in range(-3, 4)])
    reports = [build_report(a, primes=(7,))
               for a in [fixture(name) for name in fixture_names()] + [cubic]]
    keys = {tuple(obj) for rep in reports for obj in _objects(jsonable(rep))}
    records = {name: cls for stem in _trees()
               for name, cls in vars(importlib.import_module(f"arrinv.{stem}")).items()
               if name in PRINTED}
    assert {name: cls._fields in keys for name, cls in records.items()} == \
        dict.fromkeys(PRINTED, True)


def unread_imports() -> list[str]:
    """'dir/file:name' for each module-level import in src/ or tests/ never read.

    `from __future__` imports change how a module compiles and are skipped;
    a name listed in the module's `__all__` is read, as a re-export.
    """
    out = []
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text())
        reads = {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        reads |= {c.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                  for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        out += [f"{path.parent.name}/{path.name}:{name}" for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names
                for name in [alias.asname or alias.name.partition(".")[0]]
                if name not in reads]
    return out


def test_every_module_level_import_is_read():
    # test_import.py imports arrinv for its effect on sys.modules: its record
    # test walks the arrinv modules found there
    assert unread_imports() == ["tests/test_import.py:arrinv"]
