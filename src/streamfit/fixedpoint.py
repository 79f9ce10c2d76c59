"""Exact fixed-point arithmetic for distances.

Distances are 64-bit integers counting units of 1/SCALE. SCALE carries nine
decimal digits and one extra factor of two, so halving the difference of two
stored values is always representable without rounding.
"""

from __future__ import annotations

SCALE = 2_000_000_000
FRACTION_DIGITS = 9


class FixedPointError(ValueError):
    """Raised when a textual distance cannot be represented exactly."""


def from_decimal(text: str) -> int:
    """Parse a nonnegative decimal literal into scaled units. It must be a
    whole number of units: at most ten fraction digits, the tenth 0 or 5
    (`to_decimal` writes a 5 there for an odd count of units)."""
    text = text.strip()
    if not text or text[0] in "+-":
        raise FixedPointError(f"bad distance literal {text!r}")
    if "." in text:
        whole, _, frac = text.partition(".")
        if not whole:
            whole = "0"
        tenth = frac[FRACTION_DIGITS:]  # "" passes, as "" in "05"
        if not frac or len(frac) > FRACTION_DIGITS + 1 or tenth not in "05":
            raise FixedPointError(
                f"distance {text!r} needs more than {FRACTION_DIGITS} fractional digits"
            )
    else:
        whole, frac = text, ""
    if not whole.isdigit() or (frac and not frac.isdigit()):
        raise FixedPointError(f"bad distance literal {text!r}")
    frac = frac.ljust(FRACTION_DIGITS + 1, "0")
    # the digits without the point count steps of 10^-10, five to a unit
    return int(whole + frac) // (10 ** (FRACTION_DIGITS + 1) // SCALE)


def to_decimal(units: int) -> str:
    """Render scaled units as a decimal string with no trailing zeros."""
    # units/SCALE == units*5 / 10^10, so ten fractional digits always suffice
    return _render(int(units) * 5, FRACTION_DIGITS + 1)


def half_to_decimal(units: int) -> str:
    """Render half of `units` scaled units as `to_decimal` renders units."""
    # units/(2 SCALE) == units*25 / 10^11: eleven fractional digits
    return _render(int(units) * 25, FRACTION_DIGITS + 2)


def _render(value: int, digits: int) -> str:
    """value / 10^digits as a decimal string with no trailing zeros."""
    sign = "-" if value < 0 else ""
    whole, frac = divmod(abs(value), 10**digits)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}." + str(frac).rjust(digits, "0").rstrip("0")


def from_int(value: int) -> int:
    return int(value) * SCALE
