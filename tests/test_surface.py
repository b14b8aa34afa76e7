"""The public surface of `src/trirecom` is what the system runs.

Every public top-level function or class, and every public method, must be
referenced somewhere in `src/` outside its own definition, or in a benchmark
script (`perfbench/*.py` other than its tests).  A method is referenced by
an attribute access, a top-level name by a loaded global name or an import;
a local variable, parameter or field of the same name does not count.  Code
only the tests call belongs in `tests/support.py`.  Exempt are click
commands (the CLI calls them through its group), dunders, and the allowlist
below.  No `src/` module may import a name it does not use, and no `src/`
function may bind a local name it never reads (names starting with `_` are
exempt, for the values an unpacking must bind and drops).
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "trirecom").glob("*.py"))
BENCH = sorted(
    p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")
)

#: Public names only the tests call, kept because the README documents them.
ALLOWED_UNREFERENCED = {
    # the engine's phase API: each returns a verified Trace, and
    # tests/test_branches.py drives them
    "sweep",
    "finish_ground",
    "balance_nearly",
    "ground_path",
    # writes the state-file format that cli.load_state reads
    "state_to_obj",
    # Trace.annotations: the README's quick start prints it (only
    # `from __future__ import annotations` shares the name in src/)
    "annotations",
}


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of the public top-level functions and classes
    and of the public methods of top-level classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def _is_click_command(node) -> bool:
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def _bound_names(fn) -> set[str]:
    """The names a function or lambda binds: its parameters and every name
    it, or a scope nested in it, assigns, less those declared global."""
    bound, declared = set(), set()
    for node in ast.walk(fn):
        if isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, ast.Global):
            declared.update(node.names)
    return bound - declared


def _references(tree: ast.Module):
    """(kind, name, ids of the enclosing definitions) for every reference
    in the tree: kind 'attr' for an attribute access, 'name' for a loaded
    name that no enclosing function or lambda binds, and 'import' for an
    imported name."""
    out = []

    def visit(node, inside, local):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id not in local:
                out.append(("name", node.id, inside))
        elif isinstance(node, ast.Attribute):
            out.append(("attr", node.attr, inside))
        elif isinstance(node, ast.alias):
            out.append(("import", node.name.rpartition(".")[2], inside))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {id(node)}
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            local = local | _bound_names(node)
        for child in ast.iter_child_nodes(node):
            visit(child, inside, local)

    visit(tree, frozenset(), frozenset())
    return out


def _unreferenced(trees: dict, defining) -> list[str]:
    """The public definitions of the modules `defining` (keys of `trees`)
    that no module of `trees` references outside their own definition.  A
    method is referenced only by an attribute access, a top-level function
    or class only by a loaded global name or an import, so a local
    variable, parameter or field that shares the name is not a caller."""
    refs: dict[tuple[bool, str], list[frozenset]] = {}
    for tree in trees.values():
        for kind, name, inside in _references(tree):
            refs.setdefault((kind == "attr", name), []).append(inside)
    out = []
    for key in defining:
        for qualname, node in _public_definitions(trees[key]):
            if node.name in ALLOWED_UNREFERENCED or _is_click_command(node):
                continue
            callers = refs.get(("." in qualname, node.name), ())
            # a recursive call is not a caller
            if not any(id(node) not in inside for inside in callers):
                out.append(f"{key}.{qualname}")
    return out


def test_every_public_name_in_src_has_a_caller_outside_the_tests():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC + BENCH}
    unreferenced = _unreferenced(trees, [path.stem for path in SRC])
    assert not unreferenced, (
        f"public names only the tests call: {unreferenced}; delete them or "
        f"move them to tests/support.py"
    )


def test_a_name_shared_only_by_locals_is_not_a_caller():
    source = """
def helper():
    pass


def used():
    pass


class Box:
    def column(self):
        pass

    def size(self, helper):
        return helper


def _run(items):
    column = len(items)
    helper = column
    return helper, used(), Box().size(0)
"""
    trees = {"mod": ast.parse(source)}
    assert _unreferenced(trees, ["mod"]) == ["mod.helper", "mod.Box.column"]


def test_allowlist_names_are_defined():
    defined = {
        node.name for path in SRC for _, node in _public_definitions(ast.parse(path.read_text()))
    }
    assert ALLOWED_UNREFERENCED <= defined


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.partition(".")[0])
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        # a re-export listed in __all__ is a use
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_src_modules_import_only_names_they_use():
    unused = {
        path.name: names
        for path in SRC
        if (names := _unused_imports(ast.parse(path.read_text())))
    }
    assert not unused, f"unused imports: {unused}"


def _own_scope(fn):
    """The nodes of a function's own scope: the bodies of nested
    functions, lambdas and classes are left out."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            stack.extend(ast.iter_child_nodes(node))


def _unused_locals(tree: ast.Module) -> list[str]:
    """'function:name' for each name a function assigns in its own scope
    and that neither it nor a scope nested in it reads."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, declared = set(), set()
        for node in _own_scope(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        read = {
            node.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for name in stored - read - declared:
            if not name.startswith("_"):
                out.append(f"{fn.name}:{name}")
    return sorted(out)


def test_src_functions_read_every_local_they_bind():
    unused = {
        path.name: names
        for path in SRC
        if (names := _unused_locals(ast.parse(path.read_text())))
    }
    assert not unused, f"locals bound and never read: {unused}"


def test_a_local_bound_and_never_read_is_flagged():
    source = """
def f(param):
    q, steps, _ = make()
    total = 0
    for item in steps:
        total += item
    seen = 0

    def inner():
        nonlocal seen
        seen = 1
        return param

    return inner, seen, [x for x in steps]


def g():
    kept = 1
    return lambda: kept
"""
    assert _unused_locals(ast.parse(source)) == ["f:q", "f:total"]
