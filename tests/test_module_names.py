"""Every public module-level function and class of the package is named
somewhere in the package outside its own definition: a routine that only
tests call has no place in it."""

import ast
import re
from pathlib import Path

import lmmpf

SOURCES = {path: path.read_text() for path in sorted(Path(lmmpf.__file__).parent.glob("*.py"))}


def public_definitions():
    """(path, name, first line, last line) of each public top-level def or class."""
    for path, text in SOURCES.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield path, node.name, first, node.end_lineno


def test_every_public_definition_is_named_elsewhere_in_the_package():
    unnamed = []
    for path, name, first, last in public_definitions():
        lines = SOURCES[path].splitlines()
        elsewhere = {**SOURCES, path: "\n".join(lines[: first - 1] + lines[last:])}
        if not any(re.search(rf"\b{name}\b", text) for text in elsewhere.values()):
            unnamed.append(f"{path.name}:{first} {name}")
    assert not unnamed, f"named only at their definition: {unnamed}"
