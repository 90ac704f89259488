"""Binder death notifications (linkToDeath) and their framework use."""

import pytest

from repro.android.binder import BinderDriver, CallerAwareBinder, DeadObjectError
from repro.android.kernel import Kernel
from repro.sim import SimClock
from tests.conftest import DEMO_PACKAGE, launch_demo


class Echo(CallerAwareBinder):
    def ping(self, caller):
        return "pong"


class TestLinkToDeath:
    @pytest.fixture
    def setup(self):
        kernel = Kernel(SimClock())
        driver = BinderDriver(kernel)
        owner = kernel.create_process("owner", package="owner")
        holder = kernel.create_process("holder", package="holder")
        node = driver.create_node(owner, Echo(), "svc")
        handle = driver.acquire_ref(holder, node)
        return kernel, driver, owner, holder, node, handle

    def test_recipient_fires_on_owner_death(self, setup):
        kernel, driver, owner, holder, node, handle = setup
        deaths = []
        driver.link_to_death(holder, handle, deaths.append)
        kernel.kill_process(owner.pid)
        assert deaths == [node]
        assert not node.alive

    def test_recipient_fires_once(self, setup):
        kernel, driver, owner, holder, node, handle = setup
        deaths = []
        driver.link_to_death(holder, handle, deaths.append)
        kernel.kill_process(owner.pid)
        node.notify_death()     # spurious second notification
        assert len(deaths) == 1

    def test_unlink_prevents_notification(self, setup):
        kernel, driver, owner, holder, node, handle = setup
        deaths = []
        driver.link_to_death(holder, handle, deaths.append)
        assert driver.unlink_to_death(holder, handle, deaths.append)
        kernel.kill_process(owner.pid)
        assert deaths == []

    def test_link_to_dead_node_rejected(self, setup):
        kernel, driver, owner, holder, node, handle = setup
        kernel.kill_process(owner.pid)
        with pytest.raises(DeadObjectError):
            driver.link_to_death(holder, handle, lambda n: None)

    def test_unlink_unknown_recipient(self, setup):
        kernel, driver, owner, holder, node, handle = setup
        assert driver.unlink_to_death(holder, handle, lambda n: None) is False


class TestFrameworkUse:
    def test_ams_detaches_dead_app(self, device, demo_thread):
        """The AMS learns of app death through the appthread node."""
        assert device.activity_service.is_running(DEMO_PACKAGE)
        device.kernel.kill_process(demo_thread.process.pid)
        assert not device.activity_service.is_running(DEMO_PACKAGE)

    def test_death_cleans_receivers(self, device, demo_thread):
        from repro.android.app.intent import Intent
        hits = []
        demo_thread.register_receiver(hits.append, ["PING"])
        device.kernel.kill_process(demo_thread.process.pid)
        device.activity_service.broadcast(Intent("PING"))
        assert hits == []    # registration went with the process

    def test_migrated_app_does_not_false_trigger(self, device_pair):
        """Killing the home-side husk after migration must not detach
        the freshly migrated instance on the guest."""
        home, guest = device_pair
        launch_demo(home)
        home.pairing_service.pair(guest)
        home.migration_service.migrate(guest, DEMO_PACKAGE)
        # Home already terminated its processes during cleanup; the
        # guest attach must have survived.
        assert guest.activity_service.is_running(DEMO_PACKAGE)

    def test_appthread_node_recreated_on_guest(self, device_pair):
        home, guest = device_pair
        thread = launch_demo(home)
        home_node = thread.app_thread_node
        home.pairing_service.pair(guest)
        home.migration_service.migrate(guest, DEMO_PACKAGE)
        assert thread.app_thread_node is not home_node
        assert thread.app_thread_node.alive
        assert thread.app_thread_node.owner is thread.process
        # Guest AMS can still detect death of the migrated instance.
        guest.kernel.kill_process(thread.process.pid)
        assert not guest.activity_service.is_running(DEMO_PACKAGE)
