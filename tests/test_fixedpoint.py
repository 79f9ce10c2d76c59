import pytest
from hypothesis import example, given, strategies as st

from streamfit import fixedpoint as fp


def test_scale_is_even_with_nine_digits():
    assert fp.SCALE == 2 * 10**9
    assert fp.SCALE % 2 == 0


def test_parse_integers():
    assert fp.from_decimal("1") == fp.SCALE
    assert fp.from_decimal("12") == 12 * fp.SCALE
    assert fp.from_decimal("0") == 0


def test_parse_fractions():
    assert fp.from_decimal("0.5") == fp.SCALE // 2
    assert fp.from_decimal("1.5") == 3 * fp.SCALE // 2
    assert fp.from_decimal("0.000000001") == 2


def test_format_strips_trailing_zeros():
    assert fp.to_decimal(fp.SCALE) == "1"
    assert fp.to_decimal(fp.SCALE // 2) == "0.5"
    assert fp.to_decimal(3 * fp.SCALE // 2) == "1.5"


def test_half_units_survive_halving():
    # halving any representable value stays exact
    v = fp.from_decimal("0.000000001")
    assert v % 2 == 0
    assert fp.to_decimal(v // 2) == "0.0000000005"


def test_half_units_render_with_eleven_digits():
    assert fp.half_to_decimal(1) == "0.00000000025"
    assert fp.half_to_decimal(fp.SCALE) == "0.5"


@given(st.integers(min_value=-(10**20), max_value=10**20))
def test_half_of_twice_renders_as_the_value(units):
    assert fp.half_to_decimal(2 * units) == fp.to_decimal(units)


@pytest.mark.parametrize("bad", ["-1", "1.0000000001", "abc", "1e3", ""])
def test_rejects_bad_input(bad):
    with pytest.raises(fp.FixedPointError):
        fp.from_decimal(bad)


def test_from_int_and_float():
    assert fp.from_int(3) == 3 * fp.SCALE


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**9 - 1))
def test_roundtrip(units, frac):
    text = f"{units}.{frac:09d}".rstrip("0").rstrip(".") or "0"
    assert fp.to_decimal(fp.from_decimal(text)) == text


@given(st.integers(min_value=0, max_value=2**63 - 1))
@example(3_500_000_001)
def test_every_rendered_value_parses_back(units):
    # an odd count renders a tenth fraction digit of 5
    assert fp.from_decimal(fp.to_decimal(units)) == units
