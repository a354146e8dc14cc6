import pytest

from conftest import fixture_path
from qsodyn.abscont import va_operator
from qsodyn.specfile import (
    OperatorSpec,
    SpecFileError,
    load_spec,
    parse_spec,
    spec_hash,
)

class TestParsing:
    def test_va_form(self):
        spec = parse_spec({"va": {"a": 0.5}})
        assert spec.va == 0.5
        for a in (0.0, 5e-324, 0.5, 2 / 3, 1 - 2**-53, 1.0):
            for symmetrize in (False, True):
                built = OperatorSpec(n=2, va=a).build(symmetrize=symmetrize).tensor.p
                assert built.tobytes() == va_operator(a).tensor.p.tobytes(), (a, symmetrize)
        for a in (-0.1, 1.5, float("nan"), float("inf")):
            with pytest.raises(ValueError) as from_spec:
                OperatorSpec(n=2, va=a).build()
            with pytest.raises(ValueError) as from_family:
                va_operator(a)
            assert str(from_spec.value) == str(from_family.value) == f"a must lie in [0, 1], got {a}"

    def test_coefficient_form(self):
        spec = parse_spec(
            {
                "n": 2,
                "coefficients": [
                    {"i": 1, "j": 1, "k": 2, "p": 1.0},
                    {"i": 1, "j": 2, "k": 2, "p": 1.0},
                    {"i": 2, "j": 2, "k": 2, "p": 1.0},
                ],
            }
        )
        V = spec.build()
        assert V.tensor.p[0, 0, 1] == 1.0
        assert V.tensor.p[1, 0, 1] == 1.0

    def test_mutual_exclusion(self):
        with pytest.raises(SpecFileError):
            parse_spec({"va": {"a": 0.5}, "n": 2, "coefficients": []})
        with pytest.raises(SpecFileError):
            parse_spec({})

    def test_bad_record(self):
        with pytest.raises(SpecFileError):
            parse_spec({"n": 2, "coefficients": [{"i": 1, "j": 1}]})

    def test_coefficients_not_a_list(self):
        with pytest.raises(SpecFileError, match="'coefficients' must be a list"):
            parse_spec({"n": 3, "coefficients": 5})

    def test_boolean_parameter_rejected(self):
        with pytest.raises(SpecFileError, match="numeric field 'a'"):
            parse_spec({"va": {"a": True}})

    @pytest.mark.parametrize(
        "field, value",
        [("i", 1.7), ("i", 1.0), ("j", True), ("k", "2"), ("k", None)],
        ids=["fractional_i", "float_i", "boolean_j", "string_k", "null_k"],
    )
    def test_index_must_be_a_json_integer(self, field, value):
        record = {"i": 1, "j": 1, "k": 2, "p": 1.0, field: value}
        with pytest.raises(SpecFileError, match="i, j and k must be integers"):
            parse_spec({"n": 2, "coefficients": [record]})

    @pytest.mark.parametrize("value", [True, "1.0", None, [1.0]], ids=["boolean", "string", "null", "list"])
    def test_coefficient_must_be_a_json_number(self, value):
        record = {"i": 1, "j": 1, "k": 2, "p": value}
        with pytest.raises(SpecFileError, match="p must be a number"):
            parse_spec({"n": 2, "coefficients": [record]})

    def test_integer_past_the_double_range_is_rejected(self):
        """float() of it raised OverflowError out of parse_spec."""
        record = {"i": 1, "j": 1, "k": 2, "p": 10**400}
        with pytest.raises(SpecFileError, match="record 0: p .*too large"):
            parse_spec({"n": 2, "coefficients": [record]})
        with pytest.raises(SpecFileError, match="numeric field 'a'.*too large"):
            parse_spec({"va": {"a": 10**400}})

    def test_coerced_record_is_rejected(self):
        """Once read as p(1,1,2) = 1.0 through int() and float()."""
        with pytest.raises(SpecFileError, match="record 0"):
            parse_spec({"n": 2, "coefficients": [{"i": 1.7, "j": True, "k": "2", "p": True}]})

    def test_integer_coefficient_is_a_number(self):
        records = [{"i": 1, "j": 1, "k": 2, "p": 1}, {"i": 1, "j": 2, "k": 2, "p": 1}, {"i": 2, "j": 2, "k": 2, "p": 1}]
        spec = parse_spec({"n": 2, "coefficients": records})
        assert spec.coefficients[1, 1, 2] == 1.0 and type(spec.coefficients[1, 1, 2]) is float

    def test_record_not_an_object(self):
        with pytest.raises(SpecFileError, match="record 0"):
            parse_spec({"n": 2, "coefficients": [[1, 1, 2, 1.0]]})

    def test_duplicate_record_names_both(self):
        record = {"i": 1, "j": 2, "k": 2, "p": 0.5}
        records = [{"i": 1, "j": 1, "k": 2, "p": 1.0}, record, {"i": 2, "j": 2, "k": 2, "p": 1.0}, record]
        with pytest.raises(SpecFileError, match=r"records 1 and 3 both give p\(1,2,2\)"):
            parse_spec({"n": 2, "coefficients": records})

    def test_bad_n(self):
        with pytest.raises(SpecFileError):
            parse_spec({"n": 1, "coefficients": []})

    def test_missing_file(self):
        with pytest.raises(SpecFileError):
            load_spec("/nonexistent/spec.json")


def test_spec_hash_stable():
    path = fixture_path("va_a05")
    assert spec_hash(path) == spec_hash(path)
    assert len(spec_hash(path)) == 64
