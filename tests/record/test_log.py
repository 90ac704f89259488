"""CallLog: the in-memory append/prune store."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.core.record.log import CallLog, CallRecord


@pytest.fixture
def log():
    return CallLog()


class TestAppendQuery:
    def test_entries_in_order(self, log):
        log.append(0.0, "app", "I", "a", {})
        log.append(1.0, "app", "I", "b", {})
        assert [r.method for r in log.entries("app")] == ["a", "b"]

    def test_apps_are_isolated(self, log):
        log.append(0.0, "one", "I", "a", {})
        log.append(0.0, "two", "I", "a", {})
        assert len(log.entries("one")) == 1
        assert log.apps() == ["one", "two"]

    def test_filter_by_interface_and_method(self, log):
        log.append(0.0, "app", "IA", "x", {})
        log.append(0.0, "app", "IB", "x", {})
        log.append(0.0, "app", "IA", "y", {})
        assert len(log.entries("app", interface="IA")) == 2
        assert len(log.entries("app", interface="IA", method="x")) == 1

    def test_entries_for_methods_merges_in_seq_order(self, log):
        log.append(0.0, "app", "I", "b", {})
        log.append(0.0, "app", "I", "a", {})
        log.append(0.0, "app", "I", "b", {})
        records = log.entries_for_methods("app", "I", ["a", "b"])
        assert [r.method for r in records] == ["b", "a", "b"]

    def test_args_preserved_as_objects(self, log):
        payload = object()
        log.append(0.0, "app", "I", "m", {"obj": payload})
        assert log.entries("app")[0].args["obj"] is payload


class TestRemoval:
    def test_remove_by_seq(self, log):
        r1 = log.append(0.0, "app", "I", "a", {})
        r2 = log.append(0.0, "app", "I", "b", {})
        assert log.remove([r1.seq]) == 1
        assert [r.seq for r in log.entries("app")] == [r2.seq]
        assert log.dropped == 1

    def test_remove_is_idempotent(self, log):
        r = log.append(0.0, "app", "I", "a", {})
        assert log.remove([r.seq]) == 1
        assert log.remove([r.seq]) == 0

    def test_remove_app_clears_everything(self, log):
        for i in range(5):
            log.append(0.0, "app", "I", "m", {"i": i})
        log.append(0.0, "other", "I", "m", {})
        assert log.remove_app("app") == 5
        assert log.count("app") == 0
        assert log.count("other") == 1


class TestSizing:
    def test_size_grows_with_args(self, log):
        log.append(0.0, "a", "I", "m", {"text": "x"})
        log.append(0.0, "b", "I", "m", {"text": "x" * 500})
        assert log.size_bytes("b") > log.size_bytes("a")

    def test_record_size_estimates_common_types(self):
        record = CallRecord(1, 0.0, "a", "I", "m",
                            {"i": 1, "s": "ab", "l": [1, 2], "d": {"k": 1},
                             "obj": object(), "b": b"xyz"})
        assert record.estimated_size() > 0


@given(st.lists(st.sampled_from(["a", "b", "c"]), max_size=40))
def test_count_invariant_appended_minus_dropped(methods):
    log = CallLog()
    seqs = []
    for method in methods:
        seqs.append(log.append(0.0, "app", "I", method, {}).seq)
    to_drop = seqs[::2]
    log.remove(to_drop)
    assert log.count("app") == log.appended - log.dropped
    assert log.count("app") == len(methods) - len(to_drop)


APPS = ["a", "b", "c"]
INTERFACES = ["I", "J"]
METHODS = ["m", "n", "o"]

log_ops = st.lists(st.one_of(
    st.tuples(st.just("append"), st.sampled_from(APPS),
              st.sampled_from(INTERFACES), st.sampled_from(METHODS)),
    # Indexes into every seq appended so far (removed ones included),
    # plus seqs the log never issued.
    st.tuples(st.just("remove"),
              st.lists(st.integers(0, 40), max_size=6)),
    st.tuples(st.just("remove_app"), st.sampled_from(APPS + ["z"])),
), max_size=40)
method_lists = st.lists(st.sampled_from(METHODS + ["p"]), max_size=4)


def _check_reads(log, model, methods):
    """Every read of ``log`` against the model: a list of its live
    records in append order."""
    def pick(app, interface=None, method=None):
        return [r for r in model if r.app == app
                and interface in (None, r.interface)
                and method in (None, r.method)]

    for app in APPS + ["z"]:
        for interface, method in itertools.product(INTERFACES + [None, "K"],
                                                   METHODS + [None, "p"]):
            assert log.entries(app, interface, method) == \
                pick(app, interface, method)
        for interface in INTERFACES:
            assert log.entries_for_methods(app, interface, methods) == [
                r for r in pick(app, interface) if r.method in methods]
        assert log.count(app) == len(pick(app))
        assert log.size_bytes(app) == sum(r.estimated_size()
                                          for r in pick(app))
    assert log.count() == len(model)
    assert log.apps() == sorted({r.app for r in model})


@given(log_ops, method_lists)
def test_log_matches_a_list_model(ops, methods):
    """Interleaved appends, removals by seq and per-app removals read
    back exactly as a plain list of the surviving records would, in seq
    order under every filter."""
    log, model, issued = CallLog(), [], []
    removed = 0
    for op in ops:
        if op[0] == "append":
            _, app, interface, method = op
            record = log.append(float(len(issued)), app, interface, method,
                                {"n": len(issued)})
            assert record.seq == len(issued) + 1
            issued.append(record.seq)
            model.append(record)
        elif op[0] == "remove":
            seqs = [issued[i] if i < len(issued) else 1000 + i
                    for i in op[1]]
            doomed = {r.seq for r in model} & set(seqs)
            assert log.remove(seqs) == len(doomed)
            model = [r for r in model if r.seq not in doomed]
            removed += len(doomed)
        else:
            gone = [r for r in model if r.app == op[1]]
            assert log.remove_app(op[1]) == len(gone)
            model = [r for r in model if r.app != op[1]]
            removed += len(gone)
        _check_reads(log, model, methods)
    assert (log.appended, log.dropped) == (len(issued), removed)


#: Argument values of every shape ``_value_size`` distinguishes.
arg_values = st.recursive(
    st.one_of(st.text(max_size=12), st.binary(max_size=12),
              st.integers(), st.floats(allow_nan=False), st.booleans(),
              st.none(), st.builds(object)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)


def _fresh_size(interface, method, args):
    """``estimated_size`` derived from the fields, without the cache."""
    return 48 + len(interface) + len(method) + sum(
        len(key) + CallRecord._value_size(value)
        for key, value in args.items())


calls = st.tuples(st.text(max_size=20), st.text(max_size=20),
                  st.dictionaries(st.text(max_size=10), arg_values,
                                  max_size=6))


@given(st.lists(calls, min_size=1, max_size=4))
def test_cached_record_size_equals_a_fresh_computation(recorded):
    """Each record's size is computed once (the recorder asks for it
    at append) and equals a fresh computation from its fields, as do
    the image totals that sum it."""
    from repro.core.cria.image import CheckpointImage

    log = CallLog()
    records = [log.append(0.0, "app", interface, method, args)
               for interface, method, args in recorded]
    expected = [_fresh_size(*call) for call in recorded]
    assert [r.estimated_size() for r in records] == expected
    assert [r.estimated_size() for r in records] == expected   # cached
    image = CheckpointImage(
        package="app", source_device="d", source_kernel="k",
        android_version="4.4", api_level=19, checkpoint_time=0.0,
        processes=[], app_payload=None, record_log=records)
    assert image.record_log_bytes() == sum(expected)
    assert image.raw_bytes() == 4096 + sum(expected)
    assert log.size_bytes("app") == sum(expected)
