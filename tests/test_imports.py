"""No module of the package imports a name it never uses.

Two kinds of unused import are kept on purpose: ``__init__.py``
re-exports the public names, and a module may import a name only so that
``perfbench/tracing.py`` can wrap it where the module's callers look it
up.  The second kind is read from ``tracing.targets()``.
"""

import ast
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT)]

from perfbench import tracing  # noqa: E402


def _unused_imports(path: Path) -> dict:
    """Imported name -> line, for each name the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


def test_no_module_imports_a_name_it_never_uses():
    wrapped = {(owner.__name__.rpartition(".")[2], attr)
               for owner, attr, _ in tracing.targets() if inspect.ismodule(owner)}
    unused = []
    for path in sorted((ROOT / "src" / "femtoshare").glob("*.py")):
        if path.name == "__init__.py":   # every import there is a re-export
            continue
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _unused_imports(path).items()
                   if (path.stem, name) not in wrapped]
    assert not unused
