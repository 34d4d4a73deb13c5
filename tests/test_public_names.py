"""Every public function, class, method and property in src/ramlab has a
caller in the library or the benchmark, and every public module-level
constant a reader: code that only tests call belongs in tests/oracles.py.
The modules import one another without a cycle."""

import ast
import graphlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# public functions kept without a caller, each for the ROADMAP item that
# will call it
ALLOWLIST = {
    "srw_lower_profile": "ROADMAP item 2: a rigorous lower column of the profile pass",
    "nbrw_projected": "ROADMAP item 5: the mixture_upper column",
    "lp_lower_bound": "ROADMAP items 8 and 9: the tree bound beside the L^2 curves",
}


def _unreferenced() -> list:
    """Public names defined in src/ramlab and used nowhere in src/ramlab or
    perfbench/ outside their own definition. A module-level function, class
    or constant is used by a bare name or an attribute access; a method or
    property only by an attribute access, so that a local variable of the
    same name does not count."""
    trees = {path: ast.parse(path.read_text()) for path in
             [*sorted((ROOT / "src" / "ramlab").glob("*.py")),
              *sorted((ROOT / "perfbench").glob("*.py"))]}
    refs = [(getattr(node, "id", None) or node.attr, path, node.lineno,
             isinstance(node, ast.Attribute))
            for path, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)]
    missing = []
    for path, tree in trees.items():
        if path.parent.name != "ramlab":
            continue
        defs = [(node.name, node, False) for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        defs += [(member.name, member, True) for _, node, _ in defs
                 if isinstance(node, ast.ClassDef)
                 for member in node.body if isinstance(member, ast.FunctionDef)]
        defs += [(target.id, node, False) for node in tree.body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 if isinstance(target, ast.Name)]
        for def_name, node, member in defs:
            if def_name.startswith("_"):
                continue
            if not any(name == def_name and (attribute or not member)
                       and not (where == path and node.lineno <= line <= node.end_lineno)
                       for name, where, line, attribute in refs):
                missing.append(def_name)
    return missing


def test_every_public_name_has_a_caller():
    missing = [name for name in _unreferenced() if name not in ALLOWLIST]
    assert not missing, f"public names that only tests reach: {missing}"


def test_allowlist_names_still_lack_a_caller():
    # an entry whose name gained a caller, or was deleted, leaves the list
    assert sorted(ALLOWLIST) == sorted(set(_unreferenced()) & set(ALLOWLIST))


def _ramlab_imports(node, modules) -> list:
    """The src/ramlab modules that an import statement loads, "__init__" for
    a name the package itself defines; [] for any other node or package."""
    if isinstance(node, ast.ImportFrom) and node.level:
        if node.module:
            return [node.module.split(".")[0]]
        return [alias.name if alias.name in modules else "__init__" for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        names = [node.module]
    elif isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        return []
    return [(name.split(".") + ["__init__"])[1] for name in names
            if name.split(".")[0] == "ramlab"]


def test_package_imports_form_no_cycle():
    # the modules depend on one another in one direction only, and each
    # imports the others at its top: a function body may import scipy, but
    # never a ramlab module, so no cycle hides behind a deferred import
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "ramlab").glob("*.py"))}
    graph = {name: {target for node in ast.walk(tree) for target in _ramlab_imports(node, trees)}
             for name, tree in trees.items()}
    deferred = sorted({f"{name}.{func.name}" for name, tree in trees.items()
                       for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                       for node in ast.walk(func) if _ramlab_imports(node, trees)})
    assert not deferred, f"functions that import a ramlab module: {deferred}"
    try:
        cycle = None
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        cycle = exc.args[1]
    assert cycle is None, f"import cycle: {' -> '.join(cycle)}"
