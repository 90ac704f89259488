"""The §3.4 extension sketches, demonstrated.

The published Flux prototype refuses Facebook (multi-process) and
Subway Surfers (preserved EGL context), falls back from GPS to the
network provider, and refuses apps holding common SD-card files open.
The paper sketches fixes for each; this repo implements them behind
``FluxExtensions`` flags.  This example shows the same migrations
refused under prototype semantics and succeeding with extensions on.

Run:  python examples/extensions_showcase.py
"""

from repro.android.device import Device
from repro.android.hardware import NEXUS_4, NEXUS_7_2012, NEXUS_7_2013
from repro.apps import app_by_title
from repro.core.cria.errors import MigrationError
from repro.core.extensions import FluxExtensions
from repro.sim import SimClock, units


def fresh_pair(home_profile, guest_profile, seed_name):
    from repro.sim.rng import RngFactory, derive_seed
    clock = SimClock()
    # A stable seed per demonstration: str hashes are salted per process.
    factory = RngFactory(derive_seed(0, seed_name))
    home = Device(home_profile, clock, factory, name="home")
    guest = Device(guest_profile, clock, factory, name="guest")
    return home, guest


def attempt(home, guest, package, extensions):
    try:
        report = home.migration_service.migrate(guest, package,
                                                extensions=extensions)
        return f"migrated in {report.total_seconds:.2f}s"
    except MigrationError as error:
        return f"REFUSED ({error.reason.value})"


def main() -> None:
    # 1. Multi-process: Facebook.
    facebook = app_by_title("Facebook")
    home, guest = fresh_pair(NEXUS_4, NEXUS_7_2013, "fb")
    facebook.install_and_launch(home)
    home.pairing_service.pair(guest)
    print("Facebook (2 processes):")
    print(f"  prototype:              "
          f"{attempt(home, guest, facebook.package, FluxExtensions.none())}")
    print(f"  + multi_process:        "
          f"{attempt(home, guest, facebook.package, FluxExtensions(multi_process=True))}")
    procs = guest.kernel.processes_of_package(facebook.package)
    print(f"  processes on guest:     {sorted(p.name for p in procs)}")

    # 2. Preserved EGL context: Subway Surfers.
    subway = app_by_title("Subway Surfers")
    home, guest = fresh_pair(NEXUS_7_2012, NEXUS_4, "ss")
    thread = subway.install_and_launch(home)
    home.pairing_service.pair(guest)
    print("\nSubway Surfers (setPreserveEGLContextOnPause):")
    print(f"  prototype:              "
          f"{attempt(home, guest, subway.package, FluxExtensions.none())}")
    print(f"  + gl_record_replay:     "
          f"{attempt(home, guest, subway.package, FluxExtensions(gl_record_replay=True))}")
    if guest.running_packages() == [subway.package]:
        textures = sum(context.kind_bytes.get("texture", 0) for context
                       in guest.vendor_gl.contexts_of(thread.process.pid))
        print(f"  GL textures on guest:   "
              f"{units.format_size(textures)} on "
              f"{guest.profile.gpu_name} (was {home.profile.gpu_name})")

    # 3. GPS tether: a navigation session moving to a GPS-less tablet.
    groupon = app_by_title("GroupOn")
    home, guest = fresh_pair(NEXUS_4, NEXUS_7_2012, "gps")
    thread = groupon.install_and_launch(home)
    home.service("location").report_fix("gps", 44.84, -0.58)  # Bordeaux
    home.pairing_service.pair(guest)
    print("\nGroupOn with a GPS fix, guest has no GPS:")
    report = home.migration_service.migrate(
        guest, groupon.package, extensions=FluxExtensions(gps_tether=True))
    for note in report.replay.adaptations:
        print(f"  {note}")
    location = thread.context.get_system_service("location")
    fix = location.getLastKnownLocation("gps")
    if fix:
        print(f"  fix via tether:         ({fix.latitude}, {fix.longitude})")


if __name__ == "__main__":
    main()
