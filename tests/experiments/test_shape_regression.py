"""Regression: the default (extensions-off) sweep keeps the paper's shape.

The pipelined-transfer work added an opt-in fast path; this pins the
paper-faithful defaults so a future change cannot silently drag the
reproduced §4 aggregates (Figures 12-15) off the published numbers:
transfer dominates (>50% of total on average), totals average in the
single-digit seconds, and no default migration touches the chunk path.
"""


class TestDefaultSweepShape:
    def test_transfer_dominates(self, sweep):
        assert sweep.average_stage_fraction("transfer") > 0.5

    def test_single_digit_second_averages(self, sweep):
        assert 1.0 < sweep.average_total_seconds() < 10.0
        assert 1.0 < sweep.average_perceived_seconds() < 10.0
        assert sweep.average_perceived_seconds() \
            < sweep.average_total_seconds()

    def test_non_transfer_floor_near_paper(self, sweep):
        # Paper §4: perceived time excluding data transfer ~= 1.35 s.
        assert 0.5 < sweep.average_non_transfer_seconds() < 2.5

    def test_defaults_never_touch_chunk_path(self, sweep):
        for key, report in sweep.reports.items():
            assert report.transfer_chunks_total == 0, key
            assert report.transfer_chunks_cached == 0, key
            assert report.chunk_hit_rate == 0.0, key
            assert report.image_wire_bytes \
                == report.image_compressed_bytes, key
