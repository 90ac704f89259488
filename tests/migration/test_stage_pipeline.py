"""Stage pipeline: fault injection, rollback atomicity, resume on retry.

The atomicity contract under test: a fault at any stage leaves the app
running (thawed, foregrounded) on the home device, the guest holding no
partial process state, and the record log intact — while what
legitimately survives as *cache* (synced deltas, received chunks) makes
a retry cheaper than the first attempt.
"""

import pytest

from repro.android.app.activity import ActivityState
from repro.android.app.notification import Notification
from repro.android.device import Device
from repro.android.hardware.profiles import NEXUS_4, NEXUS_7_2013
from repro.android.net.link import LinkFaultPlan, link_between
from repro.apps.games import FLAPPY_BIRD
from repro.core.cria.errors import MigrationError, MigrationRefusal
from repro.core.cria.restore import RestoreFaultPlan
from repro.core.extensions import FluxExtensions
from repro.core.migration.migration import STAGES, MigrationReport
from repro.core.migration.stages import (
    MigrationContext,
    ReintegrationStage,
    Stage,
    StagePipeline,
    default_stages,
)
from repro.sim import SimClock, units
from repro.sim.rng import RngFactory
from repro.sim.scheduler import Charge, drive_sync
from tests.conftest import DEMO_PACKAGE, launch_demo


PIPELINED = FluxExtensions(pipelined_transfer=True)


@pytest.fixture
def paired(device_pair):
    home, guest = device_pair
    thread = launch_demo(home)
    nm = thread.context.get_system_service("notification")
    nm.notify(1, Notification("survive me"))
    home.pairing_service.pair(guest)
    return home, guest, thread


def armed_link(home, guest, drop_after_bytes=None, drop_after_transfers=None):
    link = link_between(home.profile, guest.profile, home.rng_factory)
    link.inject_fault(LinkFaultPlan(drop_after_bytes=drop_after_bytes,
                                    drop_after_transfers=drop_after_transfers))
    return link


class TestLinkFaultRollback:
    def drop_mid_transfer(self, home, guest, extensions=None):
        """Drop the link 1 MB in — past the deltas, inside the image."""
        link = armed_link(home, guest, drop_after_bytes=units.mb(1))
        with pytest.raises(MigrationError) as exc:
            home.migration_service.migrate(
                guest, DEMO_PACKAGE, link=link,
                extensions=extensions or FluxExtensions.none())
        assert exc.value.reason is MigrationRefusal.LINK_DOWN
        return exc.value.report

    def test_home_keeps_running_app(self, paired):
        home, guest, thread = paired
        self.drop_mid_transfer(home, guest)
        assert home.running_packages() == [DEMO_PACKAGE]
        assert thread.process.state.value != "frozen"
        activity = next(iter(thread.activities.values()))
        assert activity.state is ActivityState.RESUMED

    def test_guest_holds_no_partial_state(self, paired):
        home, guest, _ = paired
        self.drop_mid_transfer(home, guest)
        assert guest.kernel.processes_of_package(DEMO_PACKAGE) == []
        assert guest.running_packages() == []

    def test_failed_report_records_faulted_stage(self, paired):
        home, guest, _ = paired
        report = self.drop_mid_transfer(home, guest)
        assert not report.success
        assert report.faulted_stage == "transfer"
        assert report.refusal is MigrationRefusal.LINK_DOWN
        # Completed stages plus the faulted stage's partial duration.
        assert set(report.stages) == {"preparation", "checkpoint",
                                      "transfer"}
        assert all(v > 0 for v in report.stages.values())
        # Only the bytes delivered before the drop are accounted.
        assert report.image_wire_bytes < report.image_compressed_bytes

    def test_record_log_survives_rollback(self, paired):
        home, guest, _ = paired
        self.drop_mid_transfer(home, guest)
        log = home.recorder.extract_app_log(DEMO_PACKAGE)
        assert len(log) >= 1

    def test_no_consistency_mark_after_rollback(self, paired):
        home, guest, _ = paired
        self.drop_mid_transfer(home, guest)
        assert home.consistency.is_migrated_out(DEMO_PACKAGE) is None

    def test_retry_over_healthy_link_succeeds(self, paired):
        home, guest, _ = paired
        self.drop_mid_transfer(home, guest)
        report = home.migration_service.migrate(guest, DEMO_PACKAGE)
        assert report.success
        assert guest.running_packages() == [DEMO_PACKAGE]
        assert home.running_packages() == []

    def test_drop_after_transfers_faults_too(self, paired):
        home, guest, _ = paired
        # The serial path's single image+delta send is transfer 0; it
        # dies on departure, delivering nothing.
        link = armed_link(home, guest, drop_after_transfers=0)
        with pytest.raises(MigrationError) as exc:
            home.migration_service.migrate(guest, DEMO_PACKAGE, link=link)
        assert exc.value.reason is MigrationRefusal.LINK_DOWN
        assert exc.value.report.image_wire_bytes == 0
        assert home.running_packages() == [DEMO_PACKAGE]


class TestResumeOnRetry:
    def test_pipelined_fault_seeds_chunk_store(self, paired):
        home, guest, _ = paired
        link = armed_link(home, guest, drop_after_bytes=units.mb(1))
        with pytest.raises(MigrationError):
            home.migration_service.migrate(guest, DEMO_PACKAGE, link=link,
                                           extensions=PIPELINED)
        # The fully-delivered prefix entered the guest's store (cache,
        # not app state — the rollback invariant holds separately).
        assert len(guest.chunk_store) > 0
        assert guest.kernel.processes_of_package(DEMO_PACKAGE) == []

    def test_pipelined_retry_resumes(self, paired):
        home, guest, _ = paired
        link = armed_link(home, guest, drop_after_bytes=units.mb(1))
        with pytest.raises(MigrationError):
            home.migration_service.migrate(guest, DEMO_PACKAGE, link=link,
                                           extensions=PIPELINED)
        retry = home.migration_service.migrate(guest, DEMO_PACKAGE,
                                               extensions=PIPELINED)
        assert retry.success
        # The resume signal: chunks delivered before the drop hit the
        # guest's cache, so strictly fewer image bytes travel than the
        # image the retry is moving.
        assert retry.transfer_chunks_cached > 0
        assert retry.chunk_bytes_cached > 0
        assert retry.image_wire_bytes < retry.image_compressed_bytes

    def test_serial_retry_has_no_resume(self, paired):
        home, guest, _ = paired
        link = armed_link(home, guest, drop_after_bytes=units.mb(1))
        with pytest.raises(MigrationError):
            home.migration_service.migrate(guest, DEMO_PACKAGE, link=link)
        retry = home.migration_service.migrate(guest, DEMO_PACKAGE)
        assert retry.success
        assert retry.transfer_chunks_cached == 0
        assert retry.image_wire_bytes == retry.image_compressed_bytes


class TestRestoreFaultRollback:
    @pytest.mark.parametrize("steps", [0, 2, 5])
    def test_rollback_at_every_probe_point(self, paired, steps):
        home, guest, thread = paired
        with pytest.raises(MigrationError) as exc:
            home.migration_service.migrate(
                guest, DEMO_PACKAGE,
                restore_fault=RestoreFaultPlan(fail_after_steps=steps))
        assert exc.value.reason is MigrationRefusal.RESTORE_FAILED
        report = exc.value.report
        assert report.faulted_stage == "restore"
        assert guest.kernel.processes_of_package(DEMO_PACKAGE) == []
        assert home.running_packages() == [DEMO_PACKAGE]
        assert thread.process.state.value != "frozen"

    def test_retry_after_restore_fault(self, paired):
        home, guest, _ = paired
        with pytest.raises(MigrationError):
            home.migration_service.migrate(
                guest, DEMO_PACKAGE,
                restore_fault=RestoreFaultPlan(fail_after_steps=1))
        report = home.migration_service.migrate(guest, DEMO_PACKAGE)
        assert report.success
        assert guest.running_packages() == [DEMO_PACKAGE]

    def test_fault_after_restore_hands_the_thread_back(self, paired,
                                                       monkeypatch):
        """A fault after restore completed kills the guest copy; the
        thread, the app's heap, stays open and runs on home again."""
        home, guest, thread = paired

        def fault(stage, ctx):
            raise RuntimeError("reintegration fault")

        with monkeypatch.context() as patch:
            patch.setattr(ReintegrationStage, "_reintegrate", fault)
            with pytest.raises(RuntimeError):
                home.migration_service.migrate(guest, DEMO_PACKAGE)
        assert guest.running_packages() == []
        assert guest.kernel.processes_of_package(DEMO_PACKAGE) == []
        assert guest.kernel.namespaces() == []
        assert home.thread_of(DEMO_PACKAGE) is thread
        assert thread.framework is home.framework
        assert thread.process.alive
        # The guest copy's death did not close the thread: its context
        # still reaches it and can bind services it never used before.
        assert thread.context.package == DEMO_PACKAGE
        thread.context.get_system_service("clipboard").set_text("back")
        assert home.migration_service.migrate(guest, DEMO_PACKAGE).success
        assert guest.running_packages() == [DEMO_PACKAGE]

    def test_plan_validates(self):
        with pytest.raises(ValueError):
            RestoreFaultPlan(fail_after_steps=-1)


def _ui(device, package):
    """(GL contexts, views) of the app's UI on ``device``."""
    thread = device.thread_of(package)
    contexts = device.vendor_gl.live_context_count(thread.process.pid)
    views = sum(activity.view_root.view_count()
                for activity in thread.activities.values()
                if activity.view_root is not None)
    return contexts, views


class TestRollbackRestoresUi:
    """Flappy Bird Nexus 4 -> Nexus 7 (2013), rolled back by a fault:
    preparation's trim-memory chain destroyed the app's views and GL
    contexts, and the rollback must build them again, so the app on
    home draws as it did before the migration and a retry succeeds."""

    @pytest.mark.parametrize("fault", ["restore", "link"])
    def test_home_app_renders_after_rollback(self, fault):
        clock, rngs = SimClock(), RngFactory(5)
        nexus_4 = Device(NEXUS_4, clock, rngs, name="nexus-4")
        nexus_7 = Device(NEXUS_7_2013, clock, rngs, name="nexus-7")
        package = FLAPPY_BIRD.package
        FLAPPY_BIRD.install_and_launch(nexus_4)
        nexus_4.pairing_service.pair(nexus_7)
        before = _ui(nexus_4, package)
        assert before[0] > 0 and before[1] > 0

        kwargs = ({"restore_fault": RestoreFaultPlan(fail_after_steps=2)}
                  if fault == "restore" else
                  {"link": armed_link(nexus_4, nexus_7,
                                      drop_after_bytes=100_000)})
        with pytest.raises(MigrationError):
            nexus_4.migration_service.migrate(nexus_7, package, **kwargs)

        assert _ui(nexus_4, package) == before
        for activity in nexus_4.thread_of(package).activities.values():
            assert activity.state is ActivityState.RESUMED
            activity.render()
        report = nexus_4.migration_service.migrate(nexus_7, package)
        assert report.success
        assert nexus_7.running_packages() == [package]


class _Boom(Stage):
    name = "boom"

    def steps(self, ctx):
        raise RuntimeError("kaboom")
        yield  # pragma: no cover -- marks this as a generator function


class _Flaky(Stage):
    name = "flaky"

    def __init__(self):
        self.rolled_back = False

    def steps(self, ctx):
        return
        yield  # pragma: no cover -- marks this as a generator function

    def rollback(self, ctx):
        self.rolled_back = True
        raise ValueError("compensation bug")


class TestPipelineMechanics:
    def test_default_stage_order_matches_figure_13(self):
        assert [s.name for s in default_stages()] == list(STAGES)

    def _context(self, device_pair):
        home, guest = device_pair
        report = MigrationReport(package="p", home=home.name,
                                 guest=guest.name)
        return home, MigrationContext(
            home=home, guest=guest, package="p", link=None, report=report,
            extensions=FluxExtensions.none())

    def test_rollback_failure_never_masks_fault(self, device_pair):
        home, ctx = self._context(device_pair)
        flaky = _Flaky()
        with pytest.raises(RuntimeError, match="kaboom"):
            drive_sync(StagePipeline([flaky, _Boom()]).steps(ctx), home.clock)
        assert flaky.rolled_back
        errors = [e for e in home.events.export()
                  if e["kind"] == "stage.rollback_error"]
        assert len(errors) == 1 and errors[0]["attrs"]["stage"] == "flaky"
        assert ctx.report.faulted_stage == "boom"

    def test_rollback_order_faulted_first_then_reverse(self, device_pair):
        _, ctx = self._context(device_pair)
        order = []

        def witness(name):
            stage = Stage()
            stage.name = name
            stage.steps = lambda c: iter(())
            stage.rollback = lambda c: order.append(name)
            return stage

        boom = _Boom()
        boom.rollback = lambda c: order.append("boom")
        with pytest.raises(RuntimeError):
            drive_sync(StagePipeline([witness("a"), witness("b"), boom])
                       .steps(ctx), ctx.home.clock)
        assert order == ["boom", "b", "a"]

    def test_faulted_stage_still_timed(self, device_pair):
        home, ctx = self._context(device_pair)

        slow = Stage()
        slow.name = "slow"

        def steps(c):
            yield Charge(2.5)
            raise RuntimeError("late fault")

        slow.steps = steps
        with pytest.raises(RuntimeError):
            drive_sync(StagePipeline([slow]).steps(ctx), home.clock)
        assert ctx.report.stages["slow"] == pytest.approx(2.5)
