"""Every name ``ringdim/__init__.py`` exports is read somewhere in the
package itself, so no exported helper lives on for its tests alone."""

from __future__ import annotations

import ast
from pathlib import Path

import ringdim

PACKAGE = Path(ringdim.__file__).resolve().parent

# Used only by tests inside the package, but perfbench/tracer.py binds it by
# name, so it stays until the tracer stops timing it.
BOUND_BY_THE_TRACER = {"certified_lower_bound"}


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
    than ``__init__.py``; a name imported under an alias counts as read when
    the alias is."""
    read = set()
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
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(original.get(node.id, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def test_every_export_is_read_inside_the_package():
    unread = exported_names() - names_read_in_package() - BOUND_BY_THE_TRACER
    assert not unread, f"exported but read nowhere in ringdim: {sorted(unread)}"


def test_the_scan_sees_aliases_and_the_tracer_exemption_is_still_needed():
    read = names_read_in_package()
    assert "saturate" in read  # cli imports it as saturate_ideal
    assert not BOUND_BY_THE_TRACER & read, "a tracer-bound name is read in ringdim now; drop its exemption"
    assert BOUND_BY_THE_TRACER <= exported_names()
