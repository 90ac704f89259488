"""Driver base class.

Drivers register with the kernel by name; processes open them to obtain a
:class:`~repro.android.kernel.files.DeviceFile`.  Each driver may expose
checkpoint hooks (``checkpoint_state`` / ``restore_state``) that CRIA
calls for per-process driver state, mirroring the CRIU kernel hooks the
paper extends.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.android.kernel.files import DeviceFile


class DriverError(Exception):
    """Driver-level failures."""


class Driver:
    """Base class for simulated kernel drivers."""

    name = "driver"

    def __init__(self, kernel) -> None:
        self.kernel = kernel

    def close(self) -> None:
        """World teardown: cut the back-pointer to the owning kernel."""
        self.kernel = None

    def open(self, process, **kwargs: Any) -> DeviceFile:
        """Open the device for ``process``; returns an uninstalled DeviceFile."""
        return DeviceFile(self.name)

    def release(self, process, device_file: DeviceFile) -> None:
        """Called when an fd on this driver is closed."""

    def checkpoint_state(self, process) -> Optional[Dict[str, Any]]:
        """Per-process state CRIA must carry in the checkpoint image.

        Return None when the driver keeps no per-process state (the
        common case the paper notes for Logger).
        """
        return None

    def restore_state(self, process, state: Dict[str, Any]) -> None:
        """Re-inject per-process state on the restore side."""
        raise DriverError(f"driver {self.name!r} does not support restore")
