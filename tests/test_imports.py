"""Every name a module of the package imports is read by that module."""

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
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in sorted(bound.items())
            if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    unread = {str(path.relative_to(SRC)): names for path in modules
              if (names := _unread_imports(path))}
    assert unread == {}
