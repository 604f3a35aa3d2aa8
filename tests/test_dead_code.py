"""Dead-code guard for the package source, using only the stdlib `ast`.

It fails on an import a module never uses, and on a module-level private
name (`_x`) that no module of the package refers to, so code that a change
leaves unreachable is deleted with it.
"""

import ast
from pathlib import Path

import ttlab

SRC = Path(ttlab.__file__).resolve().parent
MODULES = {p.relative_to(SRC).as_posix(): ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _used_names(tree: ast.AST) -> set:
    """Every name a module reads, as a variable or as an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _exported(tree: ast.AST) -> set:
    """The names a module lists in `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {ast.literal_eval(e) for e in node.value.elts}
    return set()


def test_every_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        used = _used_names(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}:{node.lineno} {bound}")
    assert unused == []


def test_every_private_module_name_is_referenced():
    referenced = set()
    for tree in MODULES.values():
        referenced |= _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    unreferenced = []
    for name, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for d in defined:
                if d.startswith("_") and not d.startswith("__") and d not in referenced:
                    unreferenced.append(f"{name}:{node.lineno} {d}")
    assert unreferenced == []
