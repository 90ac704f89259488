"""MigrationReport derived metrics on empty, partial, and failed reports.

The experiment harness leans on these properties (Figures 12-15), so
they must degrade sanely for reports that never completed — refused
before the pipeline ran (empty stage dict) or faulted mid-pipeline
(partial stage dict).
"""

import pytest

from repro.core.cria.errors import MigrationRefusal
from repro.core.migration.migration import MigrationReport


def report(**kwargs) -> MigrationReport:
    return MigrationReport(package="p", home="h", guest="g", **kwargs)


class TestEmptyReport:
    """A refusal before the pipeline: no stages ever ran."""

    def test_all_times_zero(self):
        r = report()
        assert r.total_seconds == 0.0
        assert r.perceived_seconds == 0.0
        assert r.non_transfer_seconds == 0.0

    def test_stage_fraction_avoids_division_by_zero(self):
        assert report().stage_fraction("transfer") == 0.0

    def test_byte_counters_zero(self):
        r = report()
        assert r.transferred_bytes == 0
        assert r.chunk_hit_rate == 0.0


class TestPartialReport:
    """A pipeline fault: completed stages plus the faulted stage."""

    def test_times_cover_only_recorded_stages(self):
        r = report(stages={"preparation": 2.0, "checkpoint": 1.0,
                           "transfer": 4.0},
                   faulted_stage="transfer",
                   refusal=MigrationRefusal.LINK_DOWN)
        assert r.total_seconds == pytest.approx(7.0)
        # Preparation + checkpoint hide behind the target menu.
        assert r.perceived_seconds == pytest.approx(4.0)
        assert r.non_transfer_seconds == pytest.approx(0.0)

    def test_missing_stages_read_as_zero(self):
        r = report(stages={"transfer": 4.0})
        assert r.perceived_seconds == pytest.approx(4.0)
        assert r.stage_fraction("restore") == 0.0
        assert r.stage_fraction("transfer") == pytest.approx(1.0)

    def test_failed_flags_preserved(self):
        r = report(stages={"preparation": 2.0}, faulted_stage="preparation",
                   refusal=MigrationRefusal.PRESERVED_EGL_CONTEXT)
        assert not r.success
        assert r.faulted_stage == "preparation"


class TestFullReport:
    STAGES = {"preparation": 1.0, "checkpoint": 2.0, "transfer": 8.0,
              "restore": 3.0, "reintegration": 2.0}

    def test_perceived_excludes_menu_hidden_stages(self):
        r = report(stages=dict(self.STAGES))
        assert r.total_seconds == pytest.approx(16.0)
        assert r.perceived_seconds == pytest.approx(13.0)
        assert r.non_transfer_seconds == pytest.approx(5.0)

    def test_stage_fractions_sum_to_one(self):
        r = report(stages=dict(self.STAGES))
        assert sum(r.stage_fraction(s) for s in self.STAGES) \
            == pytest.approx(1.0)

    def test_transferred_bytes_prefers_wire_count(self):
        r = report(image_compressed_bytes=1000, data_delta_bytes=10)
        assert r.transferred_bytes == 1010      # serial: full image
        r.image_wire_bytes = 400
        assert r.transferred_bytes == 410       # pipelined: cache hits

    def test_chunk_hit_rate(self):
        r = report(transfer_chunks_total=8, transfer_chunks_cached=2)
        assert r.chunk_hit_rate == pytest.approx(0.25)
