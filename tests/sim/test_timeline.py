"""The edge-sampled time-series plane: deterministic, associative,
a null object when disabled, and exportable as Chrome counters."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SimClock
from repro.sim.bundle import RunBundle, collect_fingerprint, write_bundle
from repro.sim.timeline import (
    Timeline,
    chrome_counter_events,
    labeled_timelines,
    merge_timelines,
    parse_timeline_document,
    series_key,
    split_series_key,
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
        path = _bundle(tmp_path / "run", timeline.export())
        document = json.loads((tmp_path / "run" / "timeline.json")
                              .read_text())
        assert document == {"schema": 1, "series": timeline.export()}
        assert RunBundle.load(path).timeline_series() == timeline.export()

    def test_export_keys_are_sorted(self):
        timeline = Timeline(clock=SimClock())
        for name in ("z", "a", "m"):
            timeline.sample(name, 1)
        assert list(timeline.export()) == ["a", "m", "z"]


class TestSchemaVersioning:
    """The timeline decoder, fed the bytes a bundle member could hold:
    a bundle only ever writes schema 1, so other schemas go to
    :func:`parse_timeline_document` directly."""

    def test_unknown_schema_is_rejected_with_the_version(self):
        from repro.sim.timeline import TimelineError
        with pytest.raises(TimelineError,
                           match="unsupported timeline schema 99"):
            parse_timeline_document({"schema": 99, "series": {}},
                                    source="future.json")

    def test_schemaless_legacy_export_is_rejected(self):
        from repro.sim.timeline import TimelineError
        with pytest.raises(TimelineError, match="unsupported timeline "
                                                "schema None"):
            parse_timeline_document({"a": [[0.0, 1.0]]},
                                    source="legacy.json")

    def test_non_object_document_is_rejected(self):
        from repro.sim.timeline import TimelineError
        with pytest.raises(TimelineError, match="list.json: expected dict, "
                                                "got list"):
            parse_timeline_document([1, 2, 3], source="list.json")

    def test_hostile_series_in_a_bundle_name_the_member(self, tmp_path):
        from repro.sim.timeline import TimelineError
        path = _bundle(tmp_path / "run", {"a": "x"})
        with pytest.raises(TimelineError, match="run/timeline.json: "
                                                "series.a: expected list"):
            RunBundle.load(path).timeline_series()


def _bundle(path, timeline):
    """A migrate bundle holding ``timeline`` as its only plane."""
    return write_bundle(str(path), kind="migrate",
                        fingerprint=collect_fingerprint("migrate"),
                        timeline=timeline)
