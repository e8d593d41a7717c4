"""Every name ``mixbound`` exports, and every method and property of an
exported class, has a reader outside the tests.

A reader is a name, an attribute or an import in the library's own modules
(``__init__.py`` aside) or in ``perfbench/``, outside the name's own
definition.  For a method or property only an attribute read
counts, and a read inside a ``__post_init__`` is validation, not use.  The
source is parsed, so comments and strings do not count.  A name that only
tests call is deleted, or it waits here for the roadmap item that gives it a
caller.

Members are matched by name alone, so a member whose name another class's
member shares cannot be told apart from it: ``BlockSchedule.q_at`` hid
``QuantileCurve.q_at``, and ``PartitionSequence.depth`` hid
``BlockSchedule.depth``.  Such members are found and deleted by hand.
Record fields are not scanned: a field that only repeats an argument of the
call that built the record is deleted by hand too, while a computed field
may wait for its reader.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED_UNREAD = {
    "maximal_bound": "ROADMAP item 6: the headline bound's slack",
    "mc_expected_sup": "ROADMAP item 6: the measured side of that slack",
    "strong_approx_rate": "ROADMAP item 7: strong approximation across the phase transition",
}

ALLOWED_UNREAD_MEMBERS = {
    "ProcessClass.tabulate": "ROADMAP item 6: the discretized class the bound's slack needs",
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


def _attributes_read(tree: ast.AST) -> set[str]:
    """Attributes loaded in ``tree``, outside ``__post_init__`` bodies and
    outside the definition of a function of the same name."""
    read = set()

    def visit(node: ast.AST, enclosing: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "__post_init__":
                return
            enclosing |= {node.name}
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                and node.attr not in enclosing:
            read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return read


def _trees_outside_tests() -> list[ast.Module]:
    files = [p for p in (ROOT / "src" / "mixbound").glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "perfbench").rglob("*.py")
    return [ast.parse(path.read_text(encoding="utf-8")) for path in files]


def _read_outside_tests() -> set[str]:
    return set().union(*map(_names_read, _trees_outside_tests()))


def _exported_members() -> list[str]:
    """``Class.member`` for each public method and property of an exported class."""
    exported = set(_exported())
    members = []
    for path in sorted((ROOT / "src" / "mixbound").glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(cls, ast.ClassDef) and cls.name in exported:
                members += [f"{cls.name}.{node.name}" for node in cls.body
                            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not node.name.startswith("_")]
    return members


def _unread_members() -> list[str]:
    read = set().union(*map(_attributes_read, _trees_outside_tests()))
    return [m for m in _exported_members() if m.partition(".")[2] not in read]


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


def test_every_exported_method_and_property_has_a_reader():
    unread = [m for m in _unread_members() if m not in ALLOWED_UNREAD_MEMBERS]
    assert unread == [], f"methods and properties read only by tests: {unread}"


def test_member_allowlist_holds_only_unread_members():
    stale = sorted(set(ALLOWED_UNREAD_MEMBERS) - set(_unread_members()))
    assert stale == []


def test_validation_and_own_definition_are_not_attribute_reads():
    tree = ast.parse("class C:\n    def __post_init__(self):\n        self.a.check()\n"
                     "    def f(self):\n        return self.f() + self.g\n\nx.h = y.k\n")
    assert _attributes_read(tree) == {"g", "k"}


def test_own_definition_is_not_a_read():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\nclass C:\n    def m(self):\n"
                     "        return C()\n\ng = h.attr\n")
    assert _names_read(tree) == {"n", "h", "attr"}
