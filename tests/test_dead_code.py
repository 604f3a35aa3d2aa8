"""Dead-code guard for the package source, using only the stdlib `ast`.

It fails on an import a module never uses, on a module-level private name
(`_x`) that no module of the package refers to, on a public module-level
assignment that no module of the package reads, and on a public function or
class that no run reaches and that is not kept for a stated reason, so code
that a change leaves unreachable is deleted with it.
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


def _referenced(tree: ast.AST) -> set:
    """Every name a module reads, or imports from another module."""
    names = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


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


def _module_level_names(assigned_only):
    """(where, name) for each name a module's top level defines: by
    assignment, and unless `assigned_only` by def or class too."""
    for name, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not assigned_only:
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for d in defined:
                yield f"{name}:{node.lineno}", d


def test_every_private_module_name_is_referenced():
    referenced = set().union(*map(_referenced, MODULES.values()))
    unreferenced = [
        f"{where} {d}"
        for where, d in _module_level_names(assigned_only=False)
        if d.startswith("_") and not d.startswith("__") and d not in referenced
    ]
    assert unreferenced == []


def test_every_public_module_level_assignment_is_read():
    """A public constant, alias or object that no module of the package
    reads is a dead knob; `__all__` and the other dunders are exempt."""
    referenced = set().union(*map(_referenced, MODULES.values()))
    unread = [
        f"{where} {d}"
        for where, d in _module_level_names(assigned_only=True)
        if not d.startswith("_") and d not in referenced
    ]
    assert unread == []


# Public names the package calls from outside any module's code, with the
# reason for each. What an entry point refers to in its own module is
# reached; a name kept for a tool or a test does not vouch for what it calls.
ENTRY_POINTS = {
    "main": "cli.py: the ttlab console script (pyproject.toml)",
    "run_self_triggered": "engine.py: documented in the README's library example",
    "save_config": "config.py: documented in docs/config_reference.md",
}
KEPT = {
    "u_double_star": "controllers.py: hooked by bench/run.py",
    "check_breach": "promises.py: hooked by bench/run.py",
    "view_disk_at": "promises.py: imported by the c8 oracle suite and hooked by bench/run.py",
    "li_v_sup": "triggers.py: imported by the c8 oracle suite and tests/test_certificate.py",
    "lyapunov_gradient": "model.py: imported by the c8 oracle suite",
    "step_unicycle": "model.py: imported by the c8 oracle suite",
}


def _reached_public_names():
    """(reached, public), each mapping the modules other than __init__.py
    to a set of names: `public` to their public top-level functions and
    classes, `reached` to those a run reaches. A name is reached when
    another module refers to it, when its module's top-level code (outside
    functions and classes) does, when it is an entry point, or when a
    reached function or class of its own module refers to it."""
    modules = {name: tree for name, tree in MODULES.items() if name != "__init__.py"}
    reached, public = {}, {}
    for name, tree in modules.items():
        defs = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        public[name] = {d for d in defs if not d.startswith("_")}
        roots = set(ENTRY_POINTS)
        for other, t in modules.items():
            if other != name:
                roots |= _referenced(t)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                roots |= _used_names(node)
        todo = [d for d in defs if d in roots]
        seen = set(todo)
        while todo:
            for u in _used_names(defs[todo.pop()]):
                if u in defs and u not in seen:
                    seen.add(u)
                    todo.append(u)
        reached[name] = seen & public[name]
    return reached, public


def test_every_public_name_is_reached_or_kept():
    reached, public = _reached_public_names()
    unreached = [
        f"{name} {d}" for name, defs in public.items() for d in sorted(defs - reached[name] - KEPT.keys())
    ]
    assert unreached == []


def test_every_kept_name_is_needed():
    """Each kept name is defined, and nothing else reaches it."""
    reached, public = _reached_public_names()
    assert sorted((ENTRY_POINTS.keys() | KEPT.keys()) - set().union(*public.values())) == []
    assert sorted(KEPT.keys() & set().union(*reached.values())) == []
