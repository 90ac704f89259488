"""A complete simulated Android device.

``Device`` boots the whole stack: kernel + drivers, Binder +
ServiceManager, the AIDL registry with every decorated system service,
the Flux recorder, the GL stack for the device's GPU, and storage with
the device's framework files.  Devices participating in one experiment
share a single virtual clock so migration timelines are coherent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Type

from repro.android.aidl import InterfaceRegistry
from repro.android.app.activity import Activity
from repro.android.app.activity_thread import ActivityThread
from repro.android.binder import BinderDriver, ServiceManager
from repro.android.graphics.egl import GenericGlLibrary, VendorGlLibrary
from repro.android.hardware.profiles import DeviceProfile
from repro.android.kernel import Kernel, MemoryRegion, RegionKind
from repro.android.services import (
    ActivityManagerService,
    AlarmManagerService,
    AudioService,
    BluetoothService,
    CameraManagerService,
    ClipboardService,
    ConnectivityManagerService,
    CountryDetectorService,
    InputManagerService,
    InputMethodManagerService,
    KeyguardService,
    LocationManagerService,
    NotificationManagerService,
    NsdService,
    PackageInfo,
    PackageManagerService,
    PowerManagerService,
    SensorService,
    SerialService,
    ServiceContext,
    TextServicesManagerService,
    UiModeManagerService,
    UsbService,
    VibratorService,
    WifiService,
    WindowManagerService,
    all_sources,
)
from repro.android.storage import (
    ApkFile,
    DeviceStorage,
    populate_system_partition,
)
from repro.core.record import CallLog, Recorder
from repro.sim import SimClock, Tracer, units
from repro.sim.rng import RngFactory
from repro.sim.telemetry import Telemetry
from repro.sim.timeline import Timeline


class DeviceError(Exception):
    pass


@dataclass
class FrameworkContext:
    """What an app's ActivityThread sees of its device."""

    clock: SimClock
    kernel: Kernel
    registry: InterfaceRegistry
    recorder: Recorder
    service_manager: ServiceManager
    gl: GenericGlLibrary
    screen: Any
    window_service: WindowManagerService
    activity_service: ActivityManagerService
    hardware: DeviceProfile
    device: "Device"


class Device:
    """One booted Android device."""

    APP_UID_BASE = 10000
    #: Binder transaction dispatch cost on the reference CPU (both stock
    #: Android and Flux pay this; recording cost is the Flux delta).
    BINDER_TRANSACTION_COST = 5e-6

    def __init__(self, profile: DeviceProfile, clock: Optional[SimClock] = None,
                 rng_factory: Optional[RngFactory] = None,
                 name: Optional[str] = None,
                 flux_enabled: bool = True,
                 timeline: Optional[Timeline] = None) -> None:
        self.profile = profile
        self.name = name or profile.name
        self.clock = clock or SimClock()
        self.rng_factory = rng_factory or RngFactory()
        self.tracer = Tracer(self.clock)
        #: Metrics, causal events and the time-series plane, resolved
        #: once from the telemetry knobs (:mod:`repro.sim.telemetry`).
        #: Every plane reads the clock but never advances it, so
        #: collection cannot perturb results.  A scenario world passes
        #: one shared timeline to all its devices.
        self.telemetry = Telemetry.from_env(self.clock, self.name,
                                            tracer=self.tracer,
                                            timeline=timeline)
        self.metrics = self.telemetry.metrics
        self.events = self.telemetry.events
        self.timeline = self.telemetry.timeline
        self.flux_enabled = flux_enabled

        # Kernel + binder.
        self.kernel = Kernel(self.clock, version=profile.kernel_version,
                             hostname=self.name)
        self.binder = BinderDriver(
            self.kernel,
            transaction_cost=self.BINDER_TRANSACTION_COST / profile.cpu_factor,
            telemetry=self.telemetry)
        self.system_process = self.kernel.create_process(
            "system_server", uid=1000, package="android")
        self.service_manager = ServiceManager(self.binder, self.system_process)

        # AIDL registry + Flux recorder.
        self.registry = InterfaceRegistry()
        self.registry.compile_source(all_sources())
        self.call_log = CallLog()
        self.recorder = Recorder(self.registry, self.call_log, self.clock,
                                 cpu_factor=profile.cpu_factor,
                                 telemetry=self.telemetry)
        self.recorder.enabled = flux_enabled

        # Battery.
        from repro.android.hardware.battery import Battery
        self.battery = Battery(self.clock)

        # Graphics.
        self.vendor_gl = VendorGlLibrary(profile.gpu_name, self.kernel)
        self.gl = GenericGlLibrary(self.vendor_gl)
        self.kernel.exit_hooks.append(self.gl.release_process)

        # Storage.
        self.storage = DeviceStorage(self.name)
        populate_system_partition(self.storage, profile.android_version,
                                  profile.name, self.rng_factory)

        # System services.
        self._service_ctx = ServiceContext(
            clock=self.clock, kernel=self.kernel, hardware=profile)
        self.services: Dict[str, Any] = {}
        self._boot_services()

        self.framework = FrameworkContext(
            clock=self.clock, kernel=self.kernel,
            registry=self.registry, recorder=self.recorder,
            service_manager=self.service_manager, gl=self.gl,
            screen=profile.screen, window_service=self.window_service,
            activity_service=self.activity_service, hardware=profile,
            device=self)

        self._next_uid = self.APP_UID_BASE

        # Input routing + launcher (imported late: they sit above app/).
        from repro.android.app.input_pipeline import InputDispatcher
        from repro.android.app.launcher import Launcher
        self.input_dispatcher = InputDispatcher(self)
        self.launcher = Launcher(self)

        # Flux device-level services (imported here to avoid a cycle:
        # core.migration depends on the android substrate).
        from repro.core.migration.chunks import ChunkStore
        from repro.core.migration.consistency import ConsistencyManager
        from repro.core.migration.migration import MigrationService
        from repro.core.migration.pairing import PairingService
        self.pairing_service = PairingService(self)
        self.migration_service = MigrationService(self)
        self.consistency = ConsistencyManager(self)
        #: Content-addressed chunk cache for pipelined transfers;
        #: persists across migrations so repeat hops transfer less.
        self.chunk_store = ChunkStore(telemetry=self.telemetry)

    # -- boot --------------------------------------------------------------------

    def _boot_services(self) -> None:
        ctx = self._service_ctx
        service_classes = [
            NotificationManagerService, AlarmManagerService, AudioService,
            WifiService, ConnectivityManagerService, LocationManagerService,
            PowerManagerService, VibratorService, ClipboardService,
            CameraManagerService, CountryDetectorService, InputManagerService,
            InputMethodManagerService, BluetoothService, SerialService,
            UsbService, KeyguardService, NsdService,
            TextServicesManagerService, UiModeManagerService,
            ActivityManagerService, WindowManagerService,
            PackageManagerService,
        ]
        for service_cls in service_classes:
            if service_cls is SensorService:
                continue
            service = service_cls(ctx)
            self._register_service(service)
        sensor = SensorService(ctx, self.system_process)
        self._register_service(sensor)

        self.activity_service: ActivityManagerService = self.services["activity"]
        self.window_service: WindowManagerService = self.services["window"]
        self.package_service: PackageManagerService = self.services["package"]
        self.power_service: PowerManagerService = self.services["power"]
        self.power_service.attach_system_process(self.system_process)
        ctx.broadcast = self.activity_service.broadcast
        ctx.broadcast_sticky = self.activity_service.broadcast_sticky
        self.activity_service.window_manager = self.window_service
        self.activity_service.recorder = self.recorder

    def _register_service(self, service) -> None:
        self.services[service.SERVICE_KEY] = service
        self.service_manager.add_binder_service(
            service.SERVICE_KEY, service, self.system_process, system=True)

    def service(self, key: str):
        try:
            return self.services[key]
        except KeyError:
            raise DeviceError(f"no service {key!r} on {self.name}") from None

    # -- app install / launch -------------------------------------------------------

    def install_app(self, apk: ApkFile, data_bytes: int = units.mb(2),
                    sdcard_bytes: int = 0) -> PackageInfo:
        info = PackageInfo(
            package=apk.package, version_code=apk.version_code,
            api_level=apk.api_level, apk_size=apk.size_bytes,
            permissions=apk.permissions, multi_process=apk.multi_process)
        self.package_service.install(info)
        self.storage.add_file(apk.install_path, apk.size_bytes,
                              apk.content_token)
        if data_bytes:
            self.storage.add_file(f"{apk.data_dir}/databases/app.db",
                                  data_bytes // 2,
                                  f"{apk.package}/data/db/0")
            self.storage.add_file(f"{apk.data_dir}/shared_prefs/prefs.xml",
                                  data_bytes - data_bytes // 2,
                                  f"{apk.package}/data/prefs/0")
        if sdcard_bytes:
            self.storage.add_file(f"{apk.sdcard_data_dir}/cache.bin",
                                  sdcard_bytes, f"{apk.package}/sdcard/0")
        return info

    def launch_app(self, package: str, activity_cls: Type[Activity],
                   heap_bytes: int = units.mb(6),
                   extra_processes: int = 0) -> ActivityThread:
        """Start the app's process(es) and launch its main activity."""
        if not self.package_service.is_installed(package):
            raise DeviceError(f"{package} is not installed on {self.name}")
        if self.activity_service.is_running(package):
            raise DeviceError(f"{package} is already running on {self.name}")
        info = self.package_service.get_package(package)

        process = self._spawn_app_process(package, f"{package}:main",
                                          info.apk_size, heap_bytes)
        thread = ActivityThread(self.framework, package, process)
        self.activity_service.attach_application(package, thread)

        for i in range(extra_processes):
            self._spawn_app_process(package, f"{package}:proc{i + 1}",
                                    0, heap_bytes // 4)

        thread.launch_activity(activity_cls)
        return thread

    def _spawn_app_process(self, package: str, proc_name: str,
                           code_bytes: int, heap_bytes: int):
        uid = self._uid_for(package)
        process = self.kernel.create_process(proc_name, uid=uid,
                                             package=package)
        if code_bytes:
            process.memory.map(MemoryRegion(
                name="code", kind=RegionKind.CODE, size=code_bytes))
        process.memory.map(MemoryRegion(
            name="dalvik-heap", kind=RegionKind.HEAP, size=heap_bytes,
            payload=package.encode("utf-8")))
        process.memory.map(MemoryRegion(
            name="stack", kind=RegionKind.STACK, size=units.kb(512)))
        return process

    def _uid_for(self, package: str) -> int:
        uid = self._next_uid
        self._next_uid += 1
        return uid

    def thread_of(self, package: str) -> Optional[ActivityThread]:
        return self.activity_service.thread_of(package)

    def app_processes(self, package: str) -> List[Any]:
        return self.kernel.processes_of_package(package)

    def terminate_app(self, package: str) -> None:
        """Kill every process of the app.  Its death detaches it and,
        unless its heap has moved to another device, closes its thread."""
        self.activity_service.kill_package_processes(package)

    def running_packages(self) -> List[str]:
        return self.activity_service.running_packages()

    # -- teardown ---------------------------------------------------------------

    def close(self) -> None:
        """Tear the device down once its results are exported.

        Ownership is a tree rooted here; every edge that points back
        up it (a child's ``device``, a node's ``service``) is cut, so
        once its world also closes the clock (whose pending timers hold
        callbacks into the device), the whole device is freed by
        reference counting instead of waiting for the cyclic collector.
        Exported data stays readable; nothing else may be called
        afterwards.  Idempotent.  DESIGN.md, "World ownership and
        teardown", lists the edges.
        """
        for package in self.running_packages():
            self.thread_of(package).close()
        for service in self.services.values():
            service.close()
        self._service_ctx.close()
        self.kernel.close()
        self.vendor_gl.close()
        for child in (self.framework, self.input_dispatcher, self.launcher,
                      self.pairing_service, self.migration_service,
                      self.consistency):
            child.device = None

    def __repr__(self) -> str:
        return f"Device({self.name!r}, {self.profile.model})"
