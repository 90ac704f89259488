"""Every ``def`` and ``class`` in ``src/`` is named somewhere else.

A definition whose name occurs nowhere but in its own ``def``/``class``
statement is code that no run and no test reaches.  This scan reads
``src/``, ``tests/``, ``examples/``, ``benchmarks/`` and
``perfbench/`` and counts a name as referenced when it occurs as an
identifier (a load, an attribute, an import, a keyword or parameter
name) or as a word inside a string literal: services are dispatched by
AIDL method names in strings, and perfbench names its layers as
``module:function`` strings.  Docstrings and comments are prose, not
references, and another definition of the same name is not one either.

Exempt are names Python itself calls (``__dunder__`` protocol methods)
and functions a decorator registers under a string name, such as
``@replay_proxy("alarmMgrSet")``: those are reached through the
registry, by the string.
"""

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "examples", "benchmarks", "perfbench")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstrings(tree: ast.AST) -> set:
    """The ids of the docstring constants in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module,) + _DEFINITIONS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first.value))
    return found


def _registered_by_string(node: ast.AST) -> bool:
    """Decorated by a call whose first argument is a string literal."""
    return any(isinstance(decorator, ast.Call) and decorator.args
               and isinstance(decorator.args[0], ast.Constant)
               and isinstance(decorator.args[0].value, str)
               for decorator in node.decorator_list)


def scan(tree: ast.AST, references: Counter) -> List[Tuple[str, int]]:
    """Add ``tree``'s references to ``references``; return the
    ``(name, line)`` of each definition in it that is not exempt."""
    docstrings = _docstrings(tree)
    definitions = []
    for node in ast.walk(tree):
        if isinstance(node, _DEFINITIONS):
            if not (node.name.startswith("__") and node.name.endswith("__")
                    or _registered_by_string(node)):
                definitions.append((node.name, node.lineno))
        elif isinstance(node, ast.Name):
            references[node.id] += 1
        elif isinstance(node, ast.Attribute):
            references[node.attr] += 1
        elif isinstance(node, ast.alias):
            references.update(node.name.split("."))
            if node.asname:
                references[node.asname] += 1
        elif isinstance(node, (ast.keyword, ast.arg)) and node.arg:
            references[node.arg] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            references.update(_WORD.findall(node.value))
    return definitions


def unreferenced() -> List[str]:
    """``path:line: name`` for each unreached definition in ``src/``."""
    references: Counter = Counter()
    definitions: Dict[Path, List[Tuple[str, int]]] = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            found = scan(ast.parse(path.read_text(encoding="utf-8"),
                                   str(path)), references)
            if top == "src":
                definitions[path] = found
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for path, found in definitions.items()
            for name, line in found if not references[name]]


def test_every_definition_in_src_is_referenced():
    missing = unreferenced()
    assert not missing, "unreached definitions:\n" + "\n".join(missing)


def test_scan_counts_string_dispatch_but_not_prose():
    tree = ast.parse('''
"""Module prose naming only_in_a_docstring."""
@replay_proxy("someMethod")
def registered(): pass
def dispatched(): pass
def only_in_a_docstring(): pass
def called(): pass
def __repr__(self): pass
called()
transact(handle, "dispatched")
''')
    references: Counter = Counter()
    names = [name for name, _ in scan(tree, references)]
    assert names == ["dispatched", "only_in_a_docstring", "called"]
    assert [name for name in names if not references[name]] == [
        "only_in_a_docstring"]
