"""The modules of ``mixbound`` import one another without a cycle, and
each loads every name it imports.

Every relative import counts, a function-level one included: an import
hidden inside a function to dodge a cycle is still a cycle.  ``__init__.py``
imports every module to export it and is left out.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mixbound"


def _relative_imports(source: str) -> set[str]:
    """The package modules ``source`` imports, at any depth of its tree."""
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # "from .grid import x" names the module, "from . import grid" the alias.
            imported |= {node.module} if node.module else {a.name for a in node.names}
    return imported


def _module_graph() -> dict[str, set[str]]:
    """{module: the package modules it imports}, from the parsed source."""
    modules = {p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    return {name: _relative_imports((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
            & modules for name in modules}


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle of ``graph`` as a path that ends where it starts, or None."""
    done, path = set(), []

    def visit(name):
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return None
        path.append(name)
        for dep in sorted(graph[name]):
            found = visit(dep)
            if found:
                return found
        path.pop()
        done.add(name)
        return None

    for name in sorted(graph):
        found = visit(name)
        if found:
            return found
    return None


def test_the_module_graph_has_no_cycle():
    graph = _module_graph()
    assert {"grid", "mixing", "processes", "cli"} <= set(graph)
    assert "processes" in graph["mixing"] and "mixing" in graph["grid"]
    assert _cycle(graph) is None, " -> ".join(_cycle(graph))


def test_a_function_level_import_closes_a_cycle():
    source = "from . import grid as gr\n\ndef parse():\n    from .mixing import _parse_kv\n"
    assert _relative_imports(source) == {"grid", "mixing"}
    graph = _module_graph()
    graph["processes"] |= {"mixing"}
    assert _cycle(graph) == ["mixing", "processes", "mixing"]


def _unread_imports(source: str) -> set[str]:
    """The names an import in ``source`` binds that the module never loads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - loaded


def test_every_module_loads_what_it_imports():
    unread = {p.stem: sorted(_unread_imports(p.read_text(encoding="utf-8")))
              for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    assert len(unread) >= 11
    assert not {name: names for name, names in unread.items() if names}


def test_an_import_read_nowhere_is_found():
    source = ("from __future__ import annotations\nimport os, numpy as np\n"
              "import scipy.special\nfrom .grid import divisor_chain, nearest_divisor\n\n"
              "def f(x: np.ndarray):\n    import math\n    return divisor_chain(x)\n")
    assert _unread_imports(source) == {"os", "scipy", "nearest_divisor", "math"}
