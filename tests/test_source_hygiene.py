"""Source checks over ``src/funcon``, each a list of violations that must stay empty.

Robustness invariants: no assert statement, every BudgetExceededError raised in
``core.within_budget``, every cache bounded, no read of a cached function's
``__wrapped__``, so that no fact is kept in two caches.  Name hygiene: no unused import; every
private module- or class-level name referenced; every public function, class or
method referenced outside funcon/__init__.py or named in a docstring; only core.py
reads a container's form dict, _forms, or calls its private builders, _of_forms and
_of_members.  Side independence: the closure side and the satisfaction side import
nothing from each other, and lab imports only the Galois maps from satisfaction.
One home for the S_m symmetry: only core.py enumerates coordinate permutations
(itertools.permutations); both sides read its images and orbit antecedents.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# each module's path from the repository root, as the messages name it, with its syntax tree
TREES = {path.relative_to(ROOT): ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "funcon").glob("*.py"))}


def named(node, name):  # a bare name or an attribute such as functools.<name>
    return isinstance(node, ast.Name) and node.id == name or isinstance(node, ast.Attribute) and node.attr == name


def test_robustness_invariants():
    bad = []
    for path, tree in TREES.items():
        allowed = set()
        for node in ast.walk(tree):
            if path.name == "core.py" and isinstance(node, ast.FunctionDef) and node.name == "within_budget":
                allowed.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                bad.append(f"{path}:{node.lineno}: assert statement")
            elif isinstance(node, ast.Raise) and id(node) not in allowed and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "BudgetExceededError":
                    bad.append(f"{path}:{node.lineno}: BudgetExceededError raised outside core.within_budget")
            elif isinstance(node, ast.Attribute) and node.attr == "__wrapped__":
                bad.append(f"{path}:{node.lineno}: reads __wrapped__, a second path past a cache")
            elif isinstance(node, ast.Call) and named(node.func, "lru_cache"):
                sizes = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
                if any(isinstance(size, ast.Constant) and size.value is None for size in sizes):
                    bad.append(f"{path}:{node.lineno}: unbounded lru_cache(maxsize=None)")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = node.args
                if params.posonlyargs or params.args or params.vararg or params.kwonlyargs or params.kwarg:
                    for deco in node.decorator_list:
                        if named(deco, "cache"):
                            bad.append(f"{path}:{deco.lineno}: unbounded cache on {node.name}, which takes parameters")
    assert not bad, "\n".join(bad)


def test_name_hygiene():
    bad = []
    loads = set()  # every name read anywhere in the package but funcon/__init__.py, bare or as an attribute
    for path, tree in TREES.items():
        for node in ast.walk(tree) if path.name != "__init__.py" else ():  # an export is not a use
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                loads.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                loads.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loads.update(alias.name for alias in node.names)
    for path, tree in TREES.items():
        if path.name != "core.py":  # the containers answer for their forms; others call floors or mask
            bad += [f"{path}:{node.lineno}: reads _forms outside core.py" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "_forms"]
            # and build through the public doors: the constructor, from_tables, from_masks, from_constraints, from_floors
            bad += [f"{path}:{node.lineno}: calls {node.func.attr} outside core.py" for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("_of_forms", "_of_members")]
        if path.name != "__init__.py":
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        if name not in used:
                            bad.append(f"{path}:{node.lineno}: {name} imported but never referenced")
        scopes = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
        for body in scopes:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [(node.name, node.lineno)]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                for name, line in names:
                    if name.startswith("_") and not name.startswith("__") and name not in loads:
                        bad.append(f"{path}:{line}: {name} is referenced nowhere in src/funcon")
        # a public function, class or method of a public class that the package never reads is named in the
        # docstring of its module (or of its class), which says what it is kept for
        module_doc = ast.get_docstring(tree) or ""
        public = [(node, module_doc) for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        public += [(item, module_doc + (ast.get_docstring(node) or "")) for node in tree.body
                   if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
                   for item in node.body if isinstance(item, ast.FunctionDef)]
        for node, doc in public:
            if not node.name.startswith("_") and node.name not in loads and f"``{node.name}``" not in doc:
                bad.append(f"{path}:{node.lineno}: {node.name} is referenced nowhere in src/funcon but funcon/__init__.py, and no docstring names it")
    assert not bad, "\n".join(bad)


def test_side_independence():
    closure_side = {"function_closures", "constraint_closures", "minors"}
    galois_maps = {"fsc_n", "fsc", "csf_m", "csf", "fsc_n_of_csf_m"}  # S_min and the probe walk stay in satisfaction
    bad = []
    for path, tree in TREES.items():
        banned = {"satisfaction"} if path.stem in closure_side else closure_side if path.stem == "satisfaction" else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                parts = {part for alias in node.names for part in alias.name.split(".")}
            elif isinstance(node, ast.ImportFrom):
                parts = {*(node.module or "").split("."), *(alias.name for alias in node.names)}
                if path.stem == "lab" and (node.module or "").split(".")[-1] == "satisfaction":
                    parts = {alias.name for alias in node.names} - galois_maps
                    bad += [f"{path}:{node.lineno}: lab imports {name} from satisfaction" for name in sorted(parts)]
            else:
                continue
            if path.stem == "lab" and "satisfaction" in parts:  # the module itself, past the check above
                bad.append(f"{path}:{node.lineno}: lab imports the satisfaction module")
            for module in sorted(parts & banned):
                bad.append(f"{path}:{node.lineno}: {path.stem} imports from {module}")
    assert not bad, "\n".join(bad)


def test_one_home_for_coordinate_permutations():
    bad = [f"{path}:{node.lineno}: calls itertools.permutations outside core.py" for path, tree in TREES.items()
           if path.name != "core.py" for node in ast.walk(tree)
           if isinstance(node, ast.Call) and named(node.func, "permutations")]
    assert not bad, "\n".join(bad)
