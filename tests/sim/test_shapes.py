"""The one shape check every decoder shares."""

import pytest

from repro.sim.shapes import check


class Rejected(Exception):
    pass


def _error(value, shape):
    with pytest.raises(Rejected) as excinfo:
        check(value, shape, "doc", Rejected)
    return str(excinfo.value)


class TestTypes:
    def test_returns_the_value_that_fits(self):
        value = {"a": [1, 2.5]}
        assert check(value, {"a": [float]}, "doc", Rejected) is value

    @pytest.mark.parametrize("shape", [int, float, str, dict, list])
    def test_a_bool_is_never_a_number_or_anything_else(self, shape):
        assert _error(True, shape) == (
            f"doc: expected {'a number' if shape is float else shape.__name__}"
            ", got bool")

    def test_bool_and_object_admit_bools(self):
        assert check(False, bool, "doc", Rejected) is False
        assert check(True, object, "doc", Rejected) is True

    def test_float_admits_any_json_number_and_int_only_integers(self):
        assert check(3, float, "doc", Rejected) == 3
        assert _error(1.5, int) == "doc: expected int, got float"

    def test_none_admits_only_null(self):
        assert check(None, None, "doc", Rejected) is None
        assert _error(0, None) == "doc: expected null, got int"


class TestContainers:
    def test_a_missing_key_reads_as_null(self):
        assert _error({}, {"name": str}) == \
            "doc: name: expected str, got NoneType"
        assert check({}, {"name": (str, None)}, "doc", Rejected) == {}

    def test_an_optional_key_is_checked_only_where_present(self):
        assert check({}, {"t?": float}, "doc", Rejected) == {}
        assert _error({"t": None}, {"t?": float}) == \
            "doc: t: expected a number, got NoneType"

    def test_every_value_of_a_map(self):
        assert check({"x": 1, "y": 2}, {str: int}, "doc", Rejected)
        assert _error({"x": 1, "y": "2"}, {str: int}) == \
            "doc: y: expected int, got str"

    def test_the_path_names_keys_and_indices(self):
        shape = {"rows": [{"stages": {str: float}}]}
        value = {"rows": [{"stages": {}}, {"stages": {"transfer": "1"}}]}
        assert _error(value, shape) == (
            "doc: rows[1].stages.transfer: expected a number, got str")
        assert _error([[1], ["x"]], [[int]]) == \
            "doc: [1][0]: expected int, got str"

    def test_a_union_reports_the_misfit_of_its_first_member(self):
        shape = ([{"a": int}], None)
        assert check(None, shape, "doc", Rejected) is None
        assert _error([{"a": "x"}], shape) == \
            "doc: [0].a: expected int, got str"
        assert _error("x", shape) == "doc: expected list, got str"
