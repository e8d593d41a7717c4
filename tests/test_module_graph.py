"""The modules of ``mixbound`` import one another without a cycle.

Every relative import counts, a function-level one included: an import
hidden inside a function to dodge a cycle is still a cycle.  ``__init__.py``
imports every module and is left out.
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
