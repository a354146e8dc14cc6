import json

import numpy as np
import pytest

from conftest import fixture_path, load_fixture
from qsodyn.abscont import va_operator
from qsodyn.specfile import (
    OperatorSpec,
    SpecFileError,
    load_spec,
    parse_spec,
    serialize_spec,
    spec_from_operator,
    spec_hash,
)

FIXTURES = [
    "va_a0",
    "va_a05",
    "va_a23",
    "attracting_not_unique",
    "uniqueness_sufficiency_gap",
    "unique_not_contractive_s2",
]


class TestParsing:
    def test_va_form(self):
        spec = parse_spec({"va": {"a": 0.5}})
        assert spec.va == 0.5
        assert np.allclose(spec.build().tensor.p, va_operator(0.5).tensor.p)

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
        assert V.tensor.entry(1, 1, 2) == 1.0
        assert V.tensor.entry(2, 1, 2) == 1.0

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


class TestRoundTrip:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixture_round_trip(self, name):
        spec = load_fixture(name)
        V1 = spec.build()
        text = serialize_spec(spec_from_operator(V1) if spec.va is None else spec)
        V2 = parse_spec(json.loads(text)).build()
        assert np.array_equal(V1.tensor.p, V2.tensor.p)

    def test_operator_extraction(self):
        spec = spec_from_operator(va_operator(0.25))
        V = spec.build()
        assert np.allclose(V.tensor.p, va_operator(0.25).tensor.p)

    def test_serialization_deterministic(self):
        spec = load_fixture("attracting_not_unique")
        s = spec_from_operator(spec.build())
        assert serialize_spec(s) == serialize_spec(s)


def test_spec_hash_stable():
    path = fixture_path("va_a05")
    assert spec_hash(path) == spec_hash(path)
    assert len(spec_hash(path)) == 64
