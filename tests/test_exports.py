"""Every name ``ringdim/__init__.py`` exports, and every function, method and
class the package defines, is read somewhere in the package itself, outside
its own definition, so no helper lives on for its tests alone and no deleted
caller leaves its callee behind.  The exemptions below name the exceptions
and why each is kept."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import ringdim

PACKAGE = Path(ringdim.__file__).resolve().parent
TRACER = PACKAGE.parents[1] / "perfbench" / "tracer.py"

# Definitions no ringdim module reads, kept because perfbench/tracer.py binds
# them by name: installing the tracer fails on a name that is gone.
CALLED_ONLY_BY_THE_TRACER = {
    "parser.ambient_ring_of": "timed as a parse span; the CLI parses through parse_ring_expr and parse_polynomial",
    "ideals.normal_form": "exported as the normal form of the README; membership tests read _Basis.remainder and unpack nothing",
}

# Definitions whose only reads in ringdim are their own recursive calls.
READ_ONLY_BY_ITSELF = {
    "parser.format_ring_expr": "the printer behind the parser's round-trip promise; the round-trip properties use it",
}


def _tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8"))


def exported_names() -> set[str]:
    return {
        alias.asname or alias.name
        for node in ast.walk(_tree("__init__.py"))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def names_read_in_package() -> set[str]:
    """Every name read as a ``Name`` or an ``Attribute`` in a module other
    than ``__init__.py``, outside a function of that name, so a recursive
    call does not count; a name imported under an alias counts as read when
    the alias is."""
    read = set()

    def scan(node: ast.AST, enclosing: frozenset, original: dict) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = original.get(node.id, node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        if name is not None and name not in enclosing:
            read.add(name)
        for child in ast.iter_child_nodes(node):
            scan(child, enclosing, original)

    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _tree(path.name)
        original = {
            alias.asname: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.asname
        }
        scan(tree, frozenset(), original)
    return read


def _overrides(module: str, cls: str, name: str) -> bool:
    """True when the class inherits ``name`` from a base, whose callers
    then call it (argparse calls ``error``)."""
    owner = getattr(importlib.import_module(f"ringdim.{module}"), cls)
    return any(name in vars(base) for base in owner.__mro__[1:])


def definitions() -> set[str]:
    """``module.name`` of every function, method and class the package
    defines, nested ones included, apart from dunders and methods that
    override an inherited one."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path.name)
        methods = {
            id(item): node.name
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            cls = methods.get(id(node))
            if cls is not None and _overrides(path.stem, cls, node.name):
                continue
            found.add(f"{path.stem}.{node.name}")
    return found


def traced_names() -> set[str]:
    """``module.function`` of every module-level function the tracer binds
    by name (its ``SPANS``)."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]:
            spans = ast.literal_eval(node.value)
            return {f"{module.split('.', 1)[1]}.{name}" for module, names in spans.items() for name in names}
    raise AssertionError("perfbench/tracer.py defines no SPANS")


def test_every_export_is_read_inside_the_package():
    unread = exported_names() - names_read_in_package()
    unread -= {name.split(".")[1] for name in CALLED_ONLY_BY_THE_TRACER.keys() | READ_ONLY_BY_ITSELF.keys()}
    assert not unread, f"exported but read nowhere in ringdim: {sorted(unread)}"


def test_every_definition_is_read_inside_the_package():
    read = names_read_in_package()
    unread = {name for name in definitions() if name.split(".")[1] not in read}
    unread -= CALLED_ONLY_BY_THE_TRACER.keys() | READ_ONLY_BY_ITSELF.keys()
    assert not unread, f"defined but read nowhere in ringdim: {sorted(unread)}"


def test_the_scan_sees_aliases_and_the_exemptions_are_still_needed():
    read, defined, traced = names_read_in_package(), definitions(), traced_names()
    assert "saturate" in read  # cli imports it as saturate_ideal
    assert "cli.error" not in defined  # _ArgumentParser.error overrides argparse's
    for name in CALLED_ONLY_BY_THE_TRACER.keys() | READ_ONLY_BY_ITSELF.keys():
        assert name in defined, f"{name} is gone; drop its exemption"
        assert name.split(".")[1] not in read, f"{name} is read in ringdim now; drop its exemption"
    for name in CALLED_ONLY_BY_THE_TRACER:
        assert name in traced, f"the tracer no longer binds {name}; drop its exemption"
