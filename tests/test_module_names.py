"""Every public module-level function and class of the package, and every
private top-level name, is named somewhere in the package outside its own
definition: a routine that only tests call has no place in it."""

import ast
import re
from pathlib import Path

import lmmpf

SOURCES = {path: path.read_text() for path in sorted(Path(lmmpf.__file__).parent.glob("*.py"))}


def top_level_names():
    """(path, name, first line, last line, is a def or class) of each top-level
    def, class or assigned name."""
    for path, text in SOURCES.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield path, node.name, first, node.end_lineno, True
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            yield path, name.id, node.lineno, node.end_lineno, False


def named_only_at_their_definition(definitions):
    unnamed = []
    for path, name, first, last in definitions:
        lines = SOURCES[path].splitlines()
        elsewhere = {**SOURCES, path: "\n".join(lines[: first - 1] + lines[last:])}
        if not any(re.search(rf"\b{name}\b", text) for text in elsewhere.values()):
            unnamed.append(f"{path.name}:{first} {name}")
    return unnamed


def test_every_public_definition_is_named_elsewhere_in_the_package():
    public = [
        (path, name, first, last)
        for path, name, first, last, is_def in top_level_names()
        if is_def and not name.startswith("_")
    ]
    unnamed = named_only_at_their_definition(public)
    assert not unnamed, f"named only at their definition: {unnamed}"


def test_every_private_name_is_named_elsewhere_in_the_package():
    private = [
        (path, name, first, last)
        for path, name, first, last, _ in top_level_names()
        if name.startswith("_") and not name.endswith("__")
    ]
    assert private
    unnamed = named_only_at_their_definition(private)
    assert not unnamed, f"named only at their definition: {unnamed}"
