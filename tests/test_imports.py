"""Every name a module of the package imports is read by that module, or
is one the benchmark's tracer rebinds there; every name a module lists in
``__all__`` is bound at its top level; no module imports another's private
name, every private name a module defines is read somewhere in the
package, and no module imports ``dataclasses`` or calls
``object.__setattr__``."""

import ast
from pathlib import Path

import solbugsmith

SRC = Path(solbugsmith.__file__).parent


def _unread_imports(path: Path) -> list[str]:
    """The names ``path`` imports and never reads, each as ``line: name``.
    An import marked ``# noqa: F401`` binds a name for a tracer that
    rebinds it, and a name listed in ``__all__`` is read by importers."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                getattr(node, "module", None) == "__future__":
            continue
        if _marked_unread(node, lines):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read.update(_exported(tree))
    return [f"{line}: {name}" for name, line in sorted(bound.items())
            if name not in read]


def _exported(tree: ast.Module) -> list[str]:
    """The names a module lists in ``__all__``."""
    return [name for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for name in ast.literal_eval(node.value)]


def _marked_unread(node: ast.stmt, lines: list[str]) -> bool:
    """Whether the import ``node`` is marked ``# noqa: F401``."""
    return any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno])


def test_no_module_imports_a_name_it_never_reads():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    unread = {str(path.relative_to(SRC)): names for path in modules
              if (names := _unread_imports(path))}
    assert unread == {}


def test_every_import_marked_unread_is_one_the_tracer_rebinds(
        tracer_targets):
    """An import marked ``# noqa: F401`` must bind a function of the
    tracer's ``_TARGETS`` in its home module or one it lists as importing
    it, so that an import the tracer no longer rebinds fails here."""
    rebound = {(owner, attr) for home, attr, importers
               in tracer_targets.values() for owner in (home, *importers)}
    marked = []
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and _marked_unread(node, lines):
                marked += [(module, alias.asname or alias.name)
                           for alias in node.names]
    assert marked
    assert [pair for pair in marked if pair not in rebound] == []


def _private_imports(path: Path) -> list[str]:
    """The private names (``_x``, not dunders) that ``path`` imports from a
    module of the package, each as ``line: name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{node.lineno}: {alias.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == SRC.name)
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")]


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    imported = {str(path.relative_to(SRC)): names for path in modules
                if (names := _private_imports(path))}
    assert imported == {}


def _definitions(tree: ast.Module) -> dict[str, int]:
    """The names that a module binds at its top level, by a def, a class or
    an assignment, with their lines."""
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        bound.update(dict.fromkeys(names, node.lineno))
    return bound


def test_every_name_in_all_is_bound_at_top_level():
    """A name listed in ``__all__`` counts as read, so the import behind a
    re-export must fail here when it goes, not only under ``import *``."""
    trees = {str(path.relative_to(SRC)): ast.parse(
        path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))}
    unbound = {}
    for module, tree in trees.items():
        bound = set(_definitions(tree)) | {
            alias.asname or alias.name.split(".")[0] for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names}
        unbound[module] = [name for name in _exported(tree)
                           if name not in bound]
    assert any(map(_exported, trees.values()))
    assert {module: names for module, names in unbound.items() if names} == {}


def _reads(tree: ast.Module) -> set[str]:
    """The names a module reads, as a name, an attribute or an import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_private_name_is_read_somewhere_in_the_package():
    trees = {str(path.relative_to(SRC)): ast.parse(
        path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))}
    assert trees
    read = set().union(*map(_reads, trees.values()))
    unread = {module: [f"{line}: {name}" for name, line
                       in sorted(_definitions(tree).items())
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
              for module, tree in trees.items()}
    assert {module: names for module, names in unread.items() if names} == {}


def _package_nodes():
    """Each AST node of each module of the package, with the module's path."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield str(path.relative_to(SRC)), node


def test_no_module_imports_dataclasses():
    """Every record is a named tuple, or a plain class where a field is
    filled after construction, so no stage loads ``dataclasses`` (and with
    it ``inspect``, ``ast``, ``dis`` and ``tokenize``)."""
    imports = [f"{path}:{node.lineno}" for path, node in _package_nodes()
               if isinstance(node, ast.ImportFrom)
               and node.module == "dataclasses"
               or isinstance(node, ast.Import)
               and any(a.name == "dataclasses" for a in node.names)]
    assert imports == []


def test_no_module_calls_object_setattr():
    """What a check found is kept by the code that checked, not written
    into a frozen record behind its constructor's back."""
    calls = [f"{path}:{node.lineno}" for path, node in _package_nodes()
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "__setattr__"
             and getattr(node.func.value, "id", None) == "object"]
    assert calls == []
