"""The ``--profile-out`` plane: deterministic per-pair cProfile reports."""

import os
import sysconfig

from repro.android.hardware.profiles import NEXUS_4, NEXUS_7_2013
from repro.apps import app_by_title
from repro.experiments.profiling import (
    _strip_path,
    profile_sweep,
    top_offenders,
    write_profile,
)

PAIRS = [(NEXUS_4, NEXUS_7_2013)]
APPS = [app_by_title("ZEDGE")]


class TestStripPath:
    def test_repo_paths_become_relative(self):
        assert (_strip_path("/home/x/src/repro/sim/metrics.py")
                == "repro/sim/metrics.py")

    def test_rightmost_marker_wins(self):
        assert (_strip_path("/a/repro/b/src/repro/core/x.py")
                == "repro/core/x.py")

    def test_foreign_paths_pass_through(self):
        assert _strip_path("/srv/plugins/json/encoder.py") \
            == "/srv/plugins/json/encoder.py"
        assert _strip_path("~") == "~"

    def test_stdlib_paths_lose_the_install_prefix(self):
        stdlib = sysconfig.get_paths()["stdlib"]
        assert (_strip_path(os.path.join(stdlib, "json", "encoder.py"))
                == "<stdlib>/json/encoder.py")


class TestProfileSweep:
    def test_report_has_one_section_per_pair(self):
        report = profile_sweep(apps=APPS, pairs=PAIRS, top=5)
        assert "Nexus 4 to Nexus 7 (2013)" in report
        assert "wall:" in report
        assert "tottime" in report

    def test_rows_are_limited_and_parseable(self):
        report = profile_sweep(apps=APPS, pairs=PAIRS, top=5)
        rows = [line for line in report.splitlines()
                if line.split() and line.split()[0].isdigit()]
        assert 0 < len(rows) <= 5
        for row in rows:
            calls, tottime, cumtime, _location = row.split(None, 3)
            assert int(calls) >= 0
            assert float(cumtime) >= float(tottime) >= 0.0

    def test_locations_are_machine_independent(self):
        report = profile_sweep(apps=APPS, pairs=PAIRS, top=10)
        for offender in top_offenders(report, count=5):
            assert not offender.startswith("/root/repo")

    def test_top_offenders_extracts_locations(self):
        report = profile_sweep(apps=APPS, pairs=PAIRS, top=10)
        offenders = top_offenders(report, count=3)
        assert len(offenders) == 3
        assert all("(" in o for o in offenders)


class TestWriteProfile:
    def test_writes_report_to_path(self, tmp_path):
        out = tmp_path / "profile.txt"
        report = write_profile(str(out), apps=APPS, pairs=PAIRS, top=5)
        assert out.read_text(encoding="utf-8") == report
        assert "Nexus 4 to Nexus 7 (2013)" in report

    def test_precomputed_report_is_written_verbatim(self, tmp_path):
        out = tmp_path / "profile.txt"
        assert write_profile(str(out), report="canned\n") == "canned\n"
        assert out.read_text(encoding="utf-8") == "canned\n"
