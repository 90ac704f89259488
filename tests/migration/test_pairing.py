"""Pairing: framework sync, wrapper installs, verification."""

import pytest

from repro.android.storage.filesystem import _Signer
from repro.core.cria.errors import MigrationError, MigrationRefusal
from repro.core.migration.pairing import flux_root
from repro.sim import units
from tests.conftest import DEMO_PACKAGE, install_demo, launch_demo


class TestFrameworkSync:
    def test_paper_pairing_numbers(self, device_pair):
        home, guest = device_pair
        report = home.pairing_service.pair(guest)
        assert report.constant_bytes_total == units.mb(215)
        assert report.constant_bytes_after_linking == units.mb(123)
        # 123 MB delta compressed at the calibrated ratio lands on 56 MB.
        assert report.constant_bytes_compressed == pytest.approx(
            units.mb(56), rel=0.02)

    def test_fresh_pairing_signs_no_framework_tree(self, device_pair,
                                                   monkeypatch):
        """Ratchet: into an empty guest area nothing can already be in
        sync, so pairing takes no digest of the 800 framework and vendor
        files on either side.  The report is the paper's all the same,
        and the mirror, signed when first asked, matches home's tree."""
        home, guest = device_pair
        install_demo(home)
        signed = []
        add = _Signer.add

        def counting_add(self, relatives, hashes, sizes):
            relatives = list(relatives)
            signed.extend(relatives)
            return add(self, relatives, hashes, sizes)

        monkeypatch.setattr(_Signer, "add", counting_add)
        report = home.pairing_service.pair(guest)
        monkeypatch.undo()
        assert len(signed) < 800
        assert report.constant_bytes_total == units.mb(215)
        assert report.constant_bytes_after_linking == units.mb(123)
        assert report.constant_bytes_compressed == pytest.approx(
            units.mb(56), rel=0.02)
        mirror = guest.storage.tree_signature(f"{flux_root(home.name)}/system")
        assert mirror == home.storage.tree_signature("/system")

    def test_pairing_is_symmetricly_recorded(self, device_pair):
        home, guest = device_pair
        home.pairing_service.pair(guest)
        assert home.pairing_service.is_paired_with(guest.name)
        assert guest.pairing_service.is_paired_with(home.name)

    def test_synced_files_land_in_flux_root(self, device_pair):
        home, guest = device_pair
        home.pairing_service.pair(guest)
        root = flux_root(home.name)
        assert guest.storage.file_count(f"{root}/system") > 0
        # Hard links cost no physical bytes for the common files.
        assert guest.storage.unique_bytes(f"{root}/system") == \
            units.mb(123)

    def test_pairing_takes_time(self, device_pair, clock):
        home, guest = device_pair
        report = home.pairing_service.pair(guest)
        assert report.seconds > 0
        assert clock.now >= report.seconds


class TestAppPairing:
    def test_apps_pseudo_installed_on_guest(self, device_pair):
        home, guest = device_pair
        install_demo(home)
        report = home.pairing_service.pair(guest)
        assert [a.package for a in report.apps] == [DEMO_PACKAGE]
        assert guest.package_service.is_pseudo(DEMO_PACKAGE)
        info = guest.package_service.get_package(DEMO_PACKAGE)
        assert info.version_code == 7

    def test_pseudo_install_does_not_copy_apk_to_app_dir(self, device_pair):
        home, guest = device_pair
        install_demo(home)
        home.pairing_service.pair(guest)
        # The APK lives in the flux area, not as a native install.
        assert not guest.storage.exists(f"/data/app/{DEMO_PACKAGE}.apk")
        assert guest.storage.exists(
            f"{flux_root(home.name)}/app/{DEMO_PACKAGE}.apk")

    def test_native_install_blocks_pseudo(self, device_pair):
        home, guest = device_pair
        install_demo(home)
        install_demo(guest)     # natively installed on the guest too
        report = home.pairing_service.pair(guest)
        # The guest keeps its native install; no wrapper is created.
        assert [a.package for a in report.apps] == [DEMO_PACKAGE]
        assert not guest.package_service.is_pseudo(DEMO_PACKAGE)

    def test_api_level_incompatible_app_reported(self, device_pair):
        home, guest = device_pair
        install_demo(home, "com.future", api_level=99)
        report = home.pairing_service.pair(guest)
        assert report.incompatible == ["com.future"]
        assert not guest.package_service.is_installed("com.future")


class TestVerification:
    def test_verify_unpaired_rejected(self, device_pair):
        home, guest = device_pair
        with pytest.raises(MigrationError) as excinfo:
            home.pairing_service.verify_app(guest, DEMO_PACKAGE)
        assert excinfo.value.reason is MigrationRefusal.NOT_PAIRED

    def test_api_refusal_leaves_the_guest_untouched(self, device_pair):
        home, guest = device_pair
        install_demo(home, "com.future", api_level=99)
        home.pairing_service.pair(guest)
        before = guest.storage.tree_signature(flux_root(home.name))
        with pytest.raises(MigrationError) as excinfo:
            home.pairing_service.verify_app(guest, "com.future")
        assert excinfo.value.reason is \
            MigrationRefusal.API_LEVEL_INCOMPATIBLE
        assert guest.storage.tree_signature(flux_root(home.name)) == before
        assert not guest.package_service.is_installed("com.future")

    def test_verify_moves_nothing_when_clean(self, device_pair):
        home, guest = device_pair
        install_demo(home)
        home.pairing_service.pair(guest)
        assert home.pairing_service.verify_app(guest, DEMO_PACKAGE) == 0

    def test_verify_syncs_updated_apk(self, device_pair):
        home, guest = device_pair
        apk = install_demo(home)
        home.pairing_service.pair(guest)
        newer = apk.bump_version()
        home.storage.remove(newer.install_path)
        home.install_app(newer, data_bytes=0)
        delta = home.pairing_service.verify_app(guest, DEMO_PACKAGE)
        assert delta > 0
        assert guest.package_service.get_package(
            DEMO_PACKAGE).version_code == newer.version_code

    def test_verify_syncs_dirty_data_dir(self, device_pair):
        home, guest = device_pair
        install_demo(home)
        home.pairing_service.pair(guest)
        prefs = f"/data/data/{DEMO_PACKAGE}/shared_prefs/prefs.xml"
        home.storage.remove(prefs)
        home.storage.add_file(prefs, units.kb(64),
                              f"{DEMO_PACKAGE}/data/prefs/changed")
        delta = home.pairing_service.verify_app(guest, DEMO_PACKAGE)
        assert 0 < delta < units.kb(200)
