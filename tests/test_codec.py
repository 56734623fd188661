"""Binary codec: round trips, determinism, and corruption handling."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.codec import decode, encode


class TestScalars:
    def test_none_round_trip(self):
        assert decode(encode(None)) is None

    def test_booleans_preserved_as_bool(self):
        assert decode(encode(True)) is True
        assert decode(encode(False)) is False

    def test_bool_not_confused_with_int(self):
        # bool is a subclass of int; the codec must keep the types apart.
        assert decode(encode(1)) == 1
        assert not isinstance(decode(encode(1)), bool)
        assert isinstance(decode(encode(True)), bool)

    @pytest.mark.parametrize(
        "value", [0, 1, -1, 127, 128, -128, 2**31, -(2**31), 2**80, -(2**80)]
    )
    def test_int_round_trip(self, value):
        assert decode(encode(value)) == value

    @pytest.mark.parametrize("value", [0.0, -0.0, 1.5, -2.25, 1e300, 5e-324])
    def test_float_round_trip(self, value):
        assert decode(encode(value)) == value

    def test_float_nan(self):
        assert math.isnan(decode(encode(float("nan"))))

    def test_float_infinities(self):
        assert decode(encode(float("inf"))) == float("inf")
        assert decode(encode(float("-inf"))) == float("-inf")

    def test_str_round_trip(self):
        assert decode(encode("hello")) == "hello"
        assert decode(encode("")) == ""
        assert decode(encode("accounts[Ω]∆")) == "accounts[Ω]∆"

    def test_bytes_round_trip(self):
        assert decode(encode(b"\x00\xff\x80")) == b"\x00\xff\x80"


class TestContainers:
    def test_tuple_stays_tuple(self):
        assert decode(encode((1, "a", 2.0))) == (1, "a", 2.0)
        assert isinstance(decode(encode((1,))), tuple)

    def test_list_stays_list(self):
        assert decode(encode([1, 2, 3])) == [1, 2, 3]
        assert isinstance(decode(encode([1])), list)

    def test_nested_structures(self):
        value = {"a": [1, (2, None)], "b": {"c": (True, "x")}}
        assert decode(encode(value)) == value

    def test_empty_containers(self):
        assert decode(encode(())) == ()
        assert decode(encode([])) == []
        assert decode(encode({})) == {}

    def test_dict_encoding_is_insertion_order_independent(self):
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1}
        assert encode(a) == encode(b)

    def test_dict_int_keys(self):
        value = {3: 1.0, 1: 2.0, 2: 3.0}
        assert decode(encode(value)) == value


class TestErrors:
    def test_unsupported_type_raises(self):
        with pytest.raises(StorageError):
            encode(object())

    def test_truncated_record_raises(self):
        blob = encode((1, "payload", 2.5))
        with pytest.raises(StorageError):
            decode(blob[:-1])

    def test_trailing_bytes_raise(self):
        blob = encode(42)
        with pytest.raises(StorageError):
            decode(blob + b"\x00")

    def test_empty_input_raises(self):
        with pytest.raises(StorageError):
            decode(b"")

    def test_unknown_tag_raises(self):
        with pytest.raises(StorageError):
            decode(b"\x7f")

    @pytest.mark.parametrize(
        "blob",
        [
            b"\x05\x01\xff",  # a string that is not UTF-8
            b"\x09\x01\x08\x00\x00",  # a dict keyed by a list
            b"\x08\x01\x04\x00",  # a list holding a cut-off float
            b"\x07\x01\x03\x80",  # a tuple holding a cut-off varint
        ],
    )
    def test_malformed_record_raises_storage_error(self, blob):
        with pytest.raises(StorageError):
            decode(blob)


# A recursive strategy over everything the codec supports.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=30),
    st.binary(max_size=30),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
        st.dictionaries(st.integers(), children, max_size=5),
    ),
    max_leaves=25,
)


@given(_values)
@settings(max_examples=200, deadline=None)
def test_property_round_trip(value):
    assert decode(encode(value)) == value


@given(_values)
@settings(max_examples=100, deadline=None)
def test_property_encoding_deterministic(value):
    assert encode(value) == encode(value)
