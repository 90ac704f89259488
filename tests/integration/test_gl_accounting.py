"""GL and pmem accounting in per-context columns stays small and exact.

A context keeps a count and a byte total per resource kind, and backs
each (context, kind) with one pmem allocation that grows and shrinks
with it (DESIGN.md, "Per-migration host cost").  Over a Flappy Bird
ping-pong between two paper devices:

* a migration maps at most one PMEM region per (context, kind) it
  charges, however many views and caches it draws;
* per-process questions (``allocations_of``, ``free_all``,
  ``checkpoint_state``, ``live_context_count``,
  ``egl_terminate_contexts``) read only that process's tables;
* what an app's memory adds up to is what it was with one allocation
  per resource: the values below were taken that way;
* GL record/replay still captures each named resource, in order.
"""

import pytest

from repro.android.device import Device
from repro.android.graphics.egl import VendorGlLibrary
from repro.android.graphics.renderer import TRIM_MEMORY_COMPLETE
from repro.android.kernel.drivers.pmem import PmemDriver
from repro.android.kernel.memory import RegionKind
from repro.apps.games import FLAPPY_BIRD, SUBWAY_SURFERS
from repro.core.glreplay import GlResourceRecord, capture_and_release
from repro.android.hardware.profiles import NEXUS_4, NEXUS_7_2013
from repro.sim import SimClock
from repro.sim.rng import RngFactory

MIGRATIONS = 6
#: A pid no process of these worlds reaches.
FOREIGN_PID = 10 ** 6


class Tripwire(dict):
    """A foreign process's table: reading it is a device-wide scan."""

    def _trip(self, *args, **kwargs):
        raise AssertionError("a per-process call read another pid's table")

    __iter__ = __len__ = __contains__ = __getitem__ = _trip
    get = keys = values = items = pop = setdefault = _trip


def _pair():
    clock, rngs = SimClock(), RngFactory(5)
    nexus_4 = Device(NEXUS_4, clock, rngs, name="nexus-4")
    nexus_7 = Device(NEXUS_7_2013, clock, rngs, name="nexus-7")
    FLAPPY_BIRD.install(nexus_4)
    nexus_4.pairing_service.pair(nexus_7)
    nexus_7.pairing_service.pair(nexus_4)
    return nexus_4, nexus_7


def _views_with_display_lists(thread):
    """Views drawn through the renderer (GLSurfaceViews draw alone)."""
    return sum(1 for activity in thread.activities.values()
               for view in activity.view_root.content.iter_tree()
               if view.has_display_list)


def _lay_tripwires(device):
    device.kernel.pmem._allocations[FOREIGN_PID] = Tripwire()
    device.vendor_gl._allocations[FOREIGN_PID] = Tripwire()
    device.vendor_gl._live_contexts[FOREIGN_PID] = Tripwire()


@pytest.fixture
def counted(monkeypatch):
    """Counts pmem allocations and the (context, kind) keys charged."""
    seen = {"allocations": 0, "keys": set()}
    allocate = PmemDriver.allocate
    size_allocation = VendorGlLibrary.size_allocation

    def counting_allocate(self, process, size, purpose):
        seen["allocations"] += 1
        return allocate(self, process, size, purpose)

    def recording_size_allocation(self, context, kind, size):
        seen["keys"].add((id(self), context.context_id, kind))
        return size_allocation(self, context, kind, size)

    monkeypatch.setattr(PmemDriver, "allocate", counting_allocate)
    monkeypatch.setattr(VendorGlLibrary, "size_allocation",
                        recording_size_allocation)
    return seen


def test_ping_pong_maps_one_pmem_region_per_context_and_kind(counted):
    nexus_4, nexus_7 = _pair()
    package = FLAPPY_BIRD.package
    FLAPPY_BIRD.install_and_launch(nexus_4)
    for device in (nexus_4, nexus_7):
        _lay_tripwires(device)
    source, target = nexus_4, nexus_7
    for _ in range(MIGRATIONS):
        counted["allocations"], counted["keys"] = 0, set()
        assert source.migration_service.migrate(target, package).success
        # The guest drew a renderer's caches, a tree of display lists
        # and a GLSurfaceView's texture: one region per column.
        assert 0 < counted["allocations"] <= len(counted["keys"])
        (process,) = target.app_processes(package)
        allocations = target.kernel.pmem.allocations_of(process.pid)
        assert allocations and all(a.pid == process.pid
                                   for a in allocations)
        regions = process.memory.regions(RegionKind.PMEM)
        assert sorted(a.region.name for a in allocations) == \
            sorted(r.name for r in regions)
        held = sum(len(context.counts) for context in
                   target.vendor_gl.contexts_of(process.pid))
        assert len(allocations) == held
        # Caches and display lists are columns only, not handles.
        renderer = target.thread_of(package).renderer
        assert renderer.context.resources == {}
        assert renderer.context.counts["buffer"] == \
            _views_with_display_lists(target.thread_of(package))
        assert source.kernel.pmem.allocations_of(process.pid) == []
        source, target = target, source


#: (footprint of the app's process, MemoryInfo "available") after each
#: step, on a Nexus 4 (2 GiB).
PINNED_MEMORY = (
    ("launch", 19555942, 2127927706),
    ("background", 9332326, 2138151322),
    ("trim", 6186598, 2141297050),
    ("eglUnload", 5662310, 2141821338),
    ("relaunch", 19555942, 2127927706),
)


def test_memory_totals_match_one_allocation_per_resource():
    nexus_4, _ = _pair()
    package = FLAPPY_BIRD.package
    thread = FLAPPY_BIRD.install_and_launch(nexus_4)
    ams = nexus_4.activity_service
    steps = {
        "launch": lambda: None,
        "background": lambda: (
            ams.background_app(package),
            nexus_4.clock.advance(ams.TASK_IDLE_DELAY + 0.01)),
        "trim": lambda: ams.trim_memory(package, TRIM_MEMORY_COMPLETE),
        "eglUnload": lambda: (
            nexus_4.kernel.pmem.free_all(thread.process),
            nexus_4.gl.egl_unload(thread.process)),
        "relaunch": lambda: (thread.rebuild_view_roots(),
                             ams.foreground_app(package)),
    }
    for step, footprint, available in PINNED_MEMORY:
        steps[step]()
        (process,) = nexus_4.app_processes(package)
        assert process.memory_footprint() == footprint, step
        assert ams.getMemoryInfo(None) == {
            "total": 2 * 1024 ** 3, "available": available}, step


def test_capture_keeps_named_resources_in_creation_order():
    nexus_4, _ = _pair()
    thread = SUBWAY_SURFERS.install_and_launch(nexus_4)
    activity = next(iter(thread.activities.values()))
    (gl_view,) = activity.view_root.gl_surface_views()
    context = gl_view._context
    context.create_resource("texture", 4096)
    doomed = context.create_resource("buffer", 9999)
    context.create_resource("shader", 512)
    context.delete_resource(doomed.res_id)
    assert context.counts == {"texture": 2, "shader": 1}
    assert context.kind_bytes == {"texture": 12582912 + 4096,
                                  "shader": 512}

    (view,) = capture_and_release(thread).views
    assert view.resources == (GlResourceRecord("texture", 12582912),
                              GlResourceRecord("texture", 4096),
                              GlResourceRecord("shader", 512))
    assert not gl_view.has_live_context
    # What is left is the renderer's context: one allocation a column.
    (renderer_context,) = nexus_4.vendor_gl.contexts_of(thread.process.pid)
    assert len(nexus_4.kernel.pmem.allocations_of(thread.process.pid)) == \
        len(renderer_context.counts)
