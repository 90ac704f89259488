"""AST for AIDL interfaces and Flux decorations.

Decoration semantics (paper §3.2, Figures 6–10, Table 1):

* ``@record`` — calls to the following method are recorded in the call
  log (subject to the drop rule below).
* ``@drop t1, t2, ...;`` — when the decorated method is called, remove
  previous log entries for the listed target methods.  ``this`` names
  the decorated method itself.
* ``@if a1, a2, ...;`` — qualifies the preceding ``@drop``: a previous
  entry is removed only when every listed argument (matched by parameter
  *name*) has the same value as in the current call.
* ``@elif a1, ...;`` — an alternative signature for the same drop rule.
* ``@replayproxy path;`` — during replay, call the named proxy function
  instead of replaying the recorded call verbatim.

One subtlety the paper's examples imply but never state outright: when a
call's drop rule removes a previous call *to a different method* (e.g.
``cancelNotification`` annihilating a matching ``enqueueNotification``),
the current call itself is **not** recorded — the pair cancels out.  When
the rule only removes previous calls to the *same* method (e.g. a new
``set`` replacing an old alarm), the current call **is** recorded.  Both
behaviours are needed for the paper's NotificationManager and
AlarmManager examples to be correct simultaneously; see
``repro.core.record.rules`` for the executable semantics and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


THIS = "this"


@dataclass(frozen=True)
class Param:
    type_name: str
    name: str
    direction: str = "in"      # in | out | inout

    def __str__(self) -> str:
        prefix = f"{self.direction} " if self.direction != "in" else ""
        return f"{prefix}{self.type_name} {self.name}"


@dataclass(frozen=True)
class DropRule:
    """One @drop statement with its @if/@elif signatures."""

    targets: Tuple[str, ...]                  # method names; may include THIS
    signatures: Tuple[Tuple[str, ...], ...] = ()  # each a tuple of arg names

    @property
    def unconditional(self) -> bool:
        return not self.signatures

    def drops_this(self) -> bool:
        return THIS in self.targets

    def other_targets(self) -> Tuple[str, ...]:
        return tuple(t for t in self.targets if t != THIS)


@dataclass(frozen=True)
class Decoration:
    record: bool = False
    drop_rules: Tuple[DropRule, ...] = ()
    replay_proxy: Optional[str] = None
    source_lines: int = 0     # decoration LOC, for Table 2 accounting


@dataclass(frozen=True)
class MethodDecl:
    name: str
    return_type: str
    params: Tuple[Param, ...]
    decoration: Optional[Decoration] = None
    oneway: bool = False
    line: int = 0

    @property
    def recorded(self) -> bool:
        return self.decoration is not None and self.decoration.record

    def param_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def signature(self) -> str:
        args = ", ".join(str(p) for p in self.params)
        return f"{self.return_type} {self.name}({args})"


@dataclass(frozen=True)
class InterfaceDecl:
    name: str
    methods: Tuple[MethodDecl, ...]
    line: int = 0

    def method(self, name: str) -> MethodDecl:
        for m in self.methods:
            if m.name == name:
                return m
        raise KeyError(f"interface {self.name} has no method {name!r}")

    def method_names(self) -> Tuple[str, ...]:
        return tuple(m.name for m in self.methods)

    @property
    def decoration_loc(self) -> int:
        return sum(m.decoration.source_lines for m in self.methods
                   if m.decoration is not None)


@dataclass(frozen=True)
class AidlDocument:
    interfaces: Tuple[InterfaceDecl, ...]
    source: str = ""

    def interface(self, name: str) -> InterfaceDecl:
        for iface in self.interfaces:
            if iface.name == name:
                return iface
        raise KeyError(f"no interface {name!r} in document")
