"""The edge-sampled time-series plane: deterministic, associative,
a null object when disabled, and exportable as Chrome counters."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SimClock
from repro.sim.timeline import (
    Timeline,
    chrome_counter_events,
    labeled_timelines,
    merge_timelines,
    read_timeline,
    series_key,
    split_series_key,
    write_timeline,
)


class TestSampling:
    def test_samples_land_on_the_virtual_clock_edge(self):
        clock = SimClock()
        timeline = Timeline(clock=clock)
        timeline.sample("q/depth", 1, resource="guest")
        clock.advance(2.5)
        timeline.sample("q/depth", 0, resource="guest")
        export = timeline.export()
        assert export == {"q/depth{resource=guest}": [[0.0, 1.0], [2.5, 0.0]]}

    def test_same_timestamp_coalesces_last_wins(self):
        timeline = Timeline(clock=SimClock())
        timeline.sample("n", 1)
        timeline.sample("n", 2)
        timeline.sample("n", 3)
        assert timeline.export() == {"n": [[0.0, 3.0]]}

    def test_sampling_never_advances_the_clock(self):
        clock = SimClock()
        fired = []
        clock.call_after(0.0, lambda: fired.append(True))
        Timeline(clock=clock).sample("n", 1)
        assert clock.now == 0.0
        assert not fired

    def test_labels_sort_into_a_stable_key(self):
        timeline = Timeline(clock=SimClock())
        timeline.sample("s", 1, b="2", a="1")
        assert list(timeline.export()) == ["s{a=1,b=2}"]

    def test_disabled_timeline_collects_nothing(self):
        timeline = Timeline(clock=SimClock(), enabled=False)
        timeline.sample("n", 1)
        assert len(timeline) == 0
        assert timeline.export() == {}


class TestSeriesKey:
    def test_roundtrip(self):
        key = series_key("link/share", {"medium": "m", "session": "s@0"})
        assert split_series_key(key) == (
            "link/share", {"medium": "m", "session": "s@0"})

    def test_bare_name_roundtrip(self):
        assert split_series_key(series_key("n", {})) == ("n", {})


class TestMerge:
    def _tl(self, offset):
        clock = SimClock(start=offset)
        timeline = Timeline(clock=clock)
        timeline.sample("n", offset)
        return timeline.export()

    def test_merge_is_associative(self):
        a, b, c = self._tl(1.0), self._tl(2.0), self._tl(3.0)
        left = merge_timelines(merge_timelines(a, b), c)
        right = merge_timelines(a, merge_timelines(b, c))
        assert left == right == merge_timelines(a, b, c)

    def test_merge_sorts_by_time_stably(self):
        early, late = self._tl(1.0), self._tl(5.0)
        merged = merge_timelines(late, early)
        assert merged["n"] == [[1.0, 1.0], [5.0, 5.0]]

    def test_merge_of_nothing_is_empty(self):
        assert merge_timelines() == {}


_NAMES = st.from_regex(r"[a-z]{1,3}(/[a-z]{1,3})?", fullmatch=True)
#: Label names other than the folded one (``w``).
_LABELS = st.dictionaries(st.sampled_from(["a", "medium", "session"]),
                          st.from_regex(r"[a-z0-9@]{0,3}", fullmatch=True),
                          max_size=2)
_SAMPLES = st.lists(st.tuples(st.floats(0, 100), st.floats(-5, 5)).map(list),
                    max_size=3)
#: Up to three worlds, distinctly labeled, each with a few series given
#: as ``(name, labels)`` before any key is written.
_WORLDS = st.lists(
    st.tuples(st.from_regex(r"[a-z0-9]{1,4}", fullmatch=True),
              st.lists(st.tuples(_NAMES, _LABELS, _SAMPLES), max_size=4)),
    max_size=3, unique_by=lambda world: world[0])


class TestLabeledTimelines:
    @settings(max_examples=150, deadline=None)
    @given(worlds=_WORLDS)
    def test_folds_the_label_into_every_key(self, worlds):
        exports = [(label, {series_key(name, labels): samples
                            for name, labels, samples in series})
                   for label, series in worlds]
        before = copy.deepcopy(exports)
        folded = labeled_timelines("w", exports)
        # The reference: each series re-keyed from its parts, the
        # world's label added; last write wins within a world.
        reference = {}
        for label, series in worlds:
            for name, labels, samples in series:
                reference[series_key(name, {**labels, "w": label})] = samples
        assert folded == reference
        assert list(folded) == sorted(folded)
        assert exports == before
        for key, samples in folded.items():
            name, labels = split_series_key(key)
            world = dict(exports)[labels.pop("w")]
            assert world[series_key(name, labels)] is samples

    def test_no_worlds_is_empty(self):
        assert labeled_timelines("pair", []) == {}


class TestExports:
    def test_chrome_counter_events_shape(self):
        timeline = Timeline(clock=SimClock())
        timeline.sample("medium/active_flows", 2, medium="m")
        (event,) = chrome_counter_events(timeline.export())
        assert event["ph"] == "C"
        assert event["name"] == "medium/active_flows{medium=m}"
        assert event["ts"] == 0.0
        assert event["args"] == {"value": 2.0}

    def test_write_read_roundtrip(self, tmp_path):
        timeline = Timeline(clock=SimClock())
        timeline.sample("a", 1)
        timeline.sample("b", 2, k="v")
        path = tmp_path / "tl.json"
        count = write_timeline(path, timeline.export(), meta={"seed": 0})
        assert count == 2
        document = json.loads(path.read_text())
        assert document["schema"] == 1
        assert read_timeline(path) == timeline.export()

    def test_export_keys_are_sorted(self):
        timeline = Timeline(clock=SimClock())
        for name in ("z", "a", "m"):
            timeline.sample(name, 1)
        assert list(timeline.export()) == ["a", "m", "z"]


class TestSchemaVersioning:
    def test_unknown_schema_is_rejected_with_the_version(self, tmp_path):
        from repro.sim.timeline import TimelineError
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"schema": 99, "series": {}}))
        with pytest.raises(TimelineError,
                           match="unsupported timeline schema 99"):
            read_timeline(path)

    def test_schemaless_legacy_export_is_rejected(self, tmp_path):
        from repro.sim.timeline import TimelineError
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps({"a": [[0.0, 1.0]]}))
        with pytest.raises(TimelineError, match="unsupported timeline "
                                                "schema None"):
            read_timeline(path)

    def test_non_object_document_is_rejected(self, tmp_path):
        from repro.sim.timeline import TimelineError
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(TimelineError, match="list.json: expected dict, "
                                                "got list"):
            read_timeline(path)

    def test_meta_rides_along(self, tmp_path):
        from repro.sim.timeline import parse_timeline_document
        path = tmp_path / "tl.json"
        write_timeline(path, {"a": [[0.0, 1.0]]}, meta={"seed": 7})
        document = json.loads(path.read_text())
        assert document["meta"] == {"seed": 7}
        assert parse_timeline_document(document) == {"a": [[0.0, 1.0]]}
