"""No module-level mutable state in ``src/``.

A result must depend only on its run's arguments and environment.  A
container that a module fills at run time, or a memo decorator, lets one
run see what an earlier run in the same process left behind.  This scan
fails on two forms in ``src/``:

* a module-level assignment (annotated or not) of an empty mutable
  container: ``{}``, ``[]``, ``set()``, ``dict()``, ``list()``,
  ``OrderedDict()`` or ``defaultdict(...)``;
* a ``functools.lru_cache`` or ``functools.cache`` decorator.

Module-level statements nested in ``if``/``try``/``with`` blocks count;
those inside a ``def`` or ``class`` do not.  Class-level id counters
are out of scope.  The names in ``ALLOWED`` are exempt, each for the
reason given.
"""

import ast
from pathlib import Path
from typing import Iterator, List

ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    "AIDL_SOURCES": "registry of interface sources, filled at import",
    "PROXIES": "registry of replay proxies, filled at import",
    "_COMPILED_SOURCE_CACHE": "compiled classes are immutable; a source "
                              "compiles to the same classes in any run",
    "_token_hashes": "returns immutable hash columns; bounded at 64",
}

_EMPTY_CALLS = ("set", "dict", "list", "OrderedDict")
_MEMO_DECORATORS = ("lru_cache", "cache")


def _callee(node: ast.AST) -> str:
    """``name`` for ``name`` or ``module.name``, else ``""``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _is_mutable_container(value: ast.AST) -> bool:
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, ast.List):
        return not value.elts
    if isinstance(value, ast.Call):
        name = _callee(value.func)
        return (name == "defaultdict" or name in _EMPTY_CALLS
                and not value.args and not value.keywords)
    return False


def _module_statements(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements run at import, through ``if``/``try``/``with``."""
    for statement in body:
        yield statement
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _module_statements(getattr(statement, field, []))
        for handler in getattr(statement, "handlers", []):
            yield from _module_statements(handler.body)


def violations(tree: ast.Module, where: str) -> List[str]:
    """``where:line: name (form)`` for each forbidden form in ``tree``."""
    found = []
    for statement in _module_statements(tree.body):
        if isinstance(statement, ast.Assign):
            targets, value = statement.targets, statement.value
        elif isinstance(statement, ast.AnnAssign) and statement.value:
            targets, value = [statement.target], statement.value
        else:
            continue
        if not _is_mutable_container(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id not in ALLOWED:
                found.append(f"{where}:{statement.lineno}: {target.id} "
                             "(module-level mutable container)")
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            target = (decorator.func if isinstance(decorator, ast.Call)
                      else decorator)
            if (_callee(target) in _MEMO_DECORATORS
                    and node.name not in ALLOWED):
                found.append(f"{where}:{node.lineno}: {node.name} "
                             f"(@{_callee(target)})")
    return found


def test_src_keeps_no_module_state():
    # The scan sees every form it forbids, and nothing else.
    sample = ast.parse(
        "import functools\n"
        "from collections import OrderedDict, defaultdict\n"
        "a = {}\nb: list = []\nc = set()\nd = dict()\ne = OrderedDict()\n"
        "f = defaultdict(list)\n"
        "try:\n    g = {}\nexcept ImportError:\n    pass\n"
        "TABLE = {'k': 1}\nNAMES = ['x']\nFROZEN = frozenset()\n"
        "def local():\n    h = {}\n"
        "class Holder:\n    i = {}\n"
        "@functools.lru_cache(maxsize=8)\ndef j(): pass\n"
        "@functools.cache\ndef k(): pass\n")
    flagged = [line.split(": ")[1].split()[0]
               for line in violations(sample, "sample")]
    assert flagged == ["a", "b", "c", "d", "e", "f", "g", "j", "k"]

    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        found += violations(ast.parse(path.read_text(), str(path)),
                            str(path.relative_to(ROOT)))
    assert found == [], (
        "module-level state in src/ (a result must depend only on its "
        "run's arguments; pass state explicitly or add the name to "
        "ALLOWED with its reason):\n" + "\n".join(found))
