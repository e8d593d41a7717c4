"""Every name ``mixbound`` exports has a reader outside the tests.

A reader is a name, an attribute or an import in the library's own modules
(``__init__.py`` aside), in ``scripts/`` or in ``perfbench/``, outside the
name's own definition.  The source is parsed, so comments and strings do not
count.  A name that only tests call is deleted, or it waits here for the
roadmap item that gives it a caller.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED_UNREAD = {
    "maximal_bound": "ROADMAP item 5: the headline bound's slack",
    "mc_expected_sup": "ROADMAP item 5: the measured side of that slack",
    "strong_approx_rate": "ROADMAP item 6: strong approximation across the phase transition",
}


def _exported() -> list[str]:
    tree = ast.parse((ROOT / "src" / "mixbound" / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _names_read(tree: ast.Module) -> set[str]:
    """Names, attributes and imported names in ``tree``; a top-level
    definition's references to its own name are not reads."""
    read = set()
    for stmt in tree.body:
        own = {stmt.name} if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            else:
                continue
            if name not in own:
                read.add(name)
    return read


def _read_outside_tests() -> set[str]:
    files = [p for p in (ROOT / "src" / "mixbound").glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "scripts").rglob("*.py")
    files += (ROOT / "perfbench").rglob("*.py")
    read = set()
    for path in files:
        read |= _names_read(ast.parse(path.read_text(encoding="utf-8")))
    return read


def test_every_exported_name_has_a_reader():
    read = _read_outside_tests()
    unread = [name for name in _exported() if name not in read and name not in ALLOWED_UNREAD]
    assert unread == [], f"exported but read only by tests: {unread}"


def test_allowlist_holds_only_exported_unread_names():
    # A name that gains a reader, or leaves the surface, leaves the allowlist.
    read = _read_outside_tests()
    exported = set(_exported())
    stale = sorted(name for name in ALLOWED_UNREAD if name not in exported or name in read)
    assert stale == []


def test_own_definition_is_not_a_read():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\nclass C:\n    def m(self):\n"
                     "        return C()\n\ng = h.attr\n")
    assert _names_read(tree) == {"n", "h", "attr"}
