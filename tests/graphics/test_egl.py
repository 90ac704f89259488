"""EGL/vendor-library model and the HardwareRenderer."""

import pytest

from repro.android.graphics.egl import (
    GenericGlLibrary,
    GlError,
    VendorGlLibrary,
)
from repro.android.graphics.renderer import HardwareRenderer
from repro.android.graphics.surface import ScreenConfig, Surface, SurfaceError, Window
from repro.android.kernel import Kernel
from repro.android.kernel.memory import RegionKind
from repro.sim import SimClock


@pytest.fixture
def kernel():
    return Kernel(SimClock())


@pytest.fixture
def process(kernel):
    return kernel.create_process("app", package="app")


@pytest.fixture
def gl(kernel):
    return GenericGlLibrary(VendorGlLibrary("Adreno 320", kernel))


class TestVendorLibrary:
    def test_load_maps_vendor_region(self, gl, process):
        gl.egl_initialize(process)
        assert process.memory.regions(RegionKind.GL_VENDOR)

    def test_context_requires_initialize(self, gl, process):
        with pytest.raises(GlError):
            gl.egl_create_context(process)

    def test_resources_charge_pmem(self, gl, kernel, process):
        gl.egl_initialize(process)
        context = gl.egl_create_context(process)
        context.create_resource("texture", 4096)
        assert kernel.pmem.allocations_of(process.pid)
        context.destroy()
        assert kernel.pmem.allocations_of(process.pid) == []

    def test_allocation_table_forgets_a_pid_with_nothing_left(
            self, kernel, process):
        vendor = VendorGlLibrary("Adreno 320", kernel)
        gl = GenericGlLibrary(vendor)
        gl.egl_initialize(process)
        context = gl.egl_create_context(process)
        first = context.create_resource("texture", 4096)
        context.create_resource("buffer", 1024)
        context.delete_resource(first.res_id)
        assert list(vendor._allocations) == [process.pid]
        context.destroy()
        assert vendor._allocations == {}

    def test_two_contexts_in_one_process_keep_their_allocations_apart(
            self, kernel, process):
        # A game holds two contexts (its HardwareRenderer and its
        # GLSurfaceView); each numbers its resources from 1.
        vendor = VendorGlLibrary("Adreno 320", kernel)
        gl = GenericGlLibrary(vendor)
        gl.egl_initialize(process)
        first = gl.egl_create_context(process)
        second = gl.egl_create_context(process)
        assert first.create_resource("texture", 4096).res_id == 1
        assert second.create_resource("texture", 8192).res_id == 1
        assert len(vendor._allocations[process.pid]) == 2
        assert len(kernel.pmem.allocations_of(process.pid)) == 2
        first.destroy()
        second.destroy()
        assert kernel.pmem.allocations_of(process.pid) == []
        assert vendor._allocations == {}

    def test_columns_share_one_allocation_per_kind(self, gl, kernel,
                                                   process):
        gl.egl_initialize(process)
        context = gl.egl_create_context(process)
        first = context.create_resource("texture", 4096)
        context.create_resource("texture", 1024)
        context.charge("buffer", 3 * 512, count=3)
        assert context.counts == {"texture": 2, "buffer": 3}
        assert context.kind_bytes == {"texture": 5120, "buffer": 1536}
        assert sorted(a.size for a in
                      kernel.pmem.allocations_of(process.pid)) == [1536, 5120]
        context.delete_resource(first.res_id)
        context.release("buffer", 2 * 512, count=2)
        assert sorted(a.size for a in
                      kernel.pmem.allocations_of(process.pid)) == [512, 1024]
        with pytest.raises(GlError):
            context.release("buffer", 2 * 512, count=2)
        context.release("buffer", 512)
        assert context.counts == {"texture": 1}
        assert [a.size for a in
                kernel.pmem.allocations_of(process.pid)] == [1024]

    def test_unload_refused_with_live_context(self, gl, process):
        gl.egl_initialize(process)
        gl.egl_create_context(process)
        with pytest.raises(GlError):
            gl.egl_unload(process)

    def test_unload_after_terminate(self, gl, process):
        gl.egl_initialize(process)
        gl.egl_create_context(process)
        gl.egl_create_context(process)
        assert gl.egl_terminate_contexts(process) == 2
        gl.egl_unload(process)
        assert process.memory.regions(RegionKind.GL_VENDOR) == []
        assert not gl.is_initialized(process)

    def test_rebind_vendor_only_when_unused(self, gl, kernel, process):
        other_vendor = VendorGlLibrary("ULP GeForce", kernel)
        gl.egl_initialize(process)
        with pytest.raises(GlError):
            gl.rebind_vendor(other_vendor)
        gl.egl_terminate_contexts(process)
        gl.egl_unload(process)
        gl.rebind_vendor(other_vendor)
        assert gl.vendor is other_vendor

    def test_destroyed_context_rejects_use(self, gl, process):
        gl.egl_initialize(process)
        context = gl.egl_create_context(process)
        context.destroy()
        with pytest.raises(GlError):
            context.create_resource("texture", 16)
        context.destroy()   # idempotent


class TestHardwareRenderer:
    def test_initialize_is_conditional(self, gl, process):
        renderer = HardwareRenderer(process, gl)
        renderer.initialize()
        context = renderer.context
        renderer.initialize()
        assert renderer.context is context   # idempotent

    def test_caches_flushed_on_trim(self, gl, process):
        renderer = HardwareRenderer(process, gl)
        renderer.initialize()
        assert renderer.cache_bytes() > 0
        renderer.start_trim_memory(80)
        assert renderer.cache_bytes() == 0

    def test_terminate_reports_full_uninitialize(self, gl, process):
        renderer = HardwareRenderer(process, gl)
        renderer.initialize()
        assert renderer.terminate_and_uninitialize() is True
        assert not renderer.enabled

    def test_terminate_with_foreign_context_reports_false(self, gl, process):
        renderer = HardwareRenderer(process, gl)
        renderer.initialize()
        gl.egl_create_context(process)   # e.g. a preserved GLSurfaceView
        assert renderer.terminate_and_uninitialize() is False


class TestSurfaces:
    def test_surface_sized_by_screen(self, process):
        screen = ScreenConfig(768, 1280, 320)
        window = Window("pkg", process, screen)
        region = process.memory.regions(RegionKind.SURFACE)[0]
        assert region.size == screen.buffer_bytes() == 768 * 1280 * 4 * 2

    def test_destroy_and_recreate_for_new_screen(self, process):
        small = ScreenConfig(768, 1280, 320)
        large = ScreenConfig(1920, 1200, 323)
        window = Window("pkg", process, small)
        window.destroy_surface()
        assert not window.has_surface
        assert process.memory.regions(RegionKind.SURFACE) == []
        surface = window.recreate_surface(large)
        assert surface.screen == large
        region = process.memory.regions(RegionKind.SURFACE)[0]
        assert region.size == large.buffer_bytes()

    def test_double_surface_rejected(self, process):
        window = Window("pkg", process, ScreenConfig(100, 100, 160))
        with pytest.raises(SurfaceError):
            window.recreate_surface()

    def test_render_on_destroyed_surface_rejected(self, process):
        surface = Surface(process, ScreenConfig(100, 100, 160))
        surface.destroy()
        with pytest.raises(SurfaceError):
            surface.render_frame()
