"""Private virtual PID namespaces.

CRIA restores a migrated app inside a namespace so the app keeps seeing
the pids it saw on the home device even when those pid numbers are taken
on the guest (Zap-style virtualization; paper §3.1/§3.3).
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional


class NamespaceError(Exception):
    """PID namespace errors."""


class PIDNamespace:
    """A bidirectional virtual-pid <-> real-pid mapping."""

    _ids = itertools.count(1)

    def __init__(self, name: str = "") -> None:
        self.ns_id = next(self._ids)
        self.name = name or f"ns-{self.ns_id}"
        self._virt_to_real: Dict[int, int] = {}
        self._real_to_virt: Dict[int, int] = {}

    def bind(self, virtual_pid: int, real_pid: int) -> None:
        """Pin ``virtual_pid`` (what the app sees) onto ``real_pid``."""
        if virtual_pid in self._virt_to_real:
            raise NamespaceError(
                f"virtual pid {virtual_pid} already bound in {self.name}")
        if real_pid in self._real_to_virt:
            raise NamespaceError(
                f"real pid {real_pid} already bound in {self.name}")
        self._virt_to_real[virtual_pid] = real_pid
        self._real_to_virt[real_pid] = virtual_pid

    def unbind_real(self, real_pid: int) -> bool:
        """Forget ``real_pid``; True when it was bound here."""
        virtual = self._real_to_virt.pop(real_pid, None)
        if virtual is None:
            return False
        self._virt_to_real.pop(virtual, None)
        return True

    def to_real(self, virtual_pid: int) -> int:
        try:
            return self._virt_to_real[virtual_pid]
        except KeyError:
            raise NamespaceError(
                f"virtual pid {virtual_pid} unknown in {self.name}") from None

    def to_virtual(self, real_pid: int) -> int:
        try:
            return self._real_to_virt[real_pid]
        except KeyError:
            raise NamespaceError(
                f"real pid {real_pid} unknown in {self.name}") from None

    def has_virtual(self, virtual_pid: int) -> bool:
        return virtual_pid in self._virt_to_real

    def bindings(self) -> Dict[int, int]:
        return dict(self._virt_to_real)

    def __len__(self) -> int:
        return len(self._virt_to_real)
