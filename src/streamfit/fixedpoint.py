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
    """Parse a nonnegative decimal literal into scaled units."""
    text = text.strip()
    if not text or text[0] in "+-":
        raise FixedPointError(f"bad distance literal {text!r}")
    if "." in text:
        whole, _, frac = text.partition(".")
        if not whole:
            whole = "0"
        if not frac or len(frac) > FRACTION_DIGITS:
            raise FixedPointError(
                f"distance {text!r} needs more than {FRACTION_DIGITS} fractional digits"
            )
    else:
        whole, frac = text, ""
    if not whole.isdigit() or (frac and not frac.isdigit()):
        raise FixedPointError(f"bad distance literal {text!r}")
    frac = frac.ljust(FRACTION_DIGITS, "0")
    return (int(whole) * 10**FRACTION_DIGITS + int(frac)) * 2


def to_decimal(units: int) -> str:
    """Render scaled units as a decimal string with no trailing zeros."""
    units = int(units)
    sign = "-" if units < 0 else ""
    # units/SCALE == units*5 / 10^10, so ten fractional digits always suffice
    tenths = abs(units) * 5
    whole, frac = divmod(tenths, 10 ** (FRACTION_DIGITS + 1))
    if frac == 0:
        return f"{sign}{whole}"
    digits = str(frac).rjust(FRACTION_DIGITS + 1, "0").rstrip("0")
    return f"{sign}{whole}.{digits}"


def from_int(value: int) -> int:
    return int(value) * SCALE


def to_float(units: int) -> float:
    return units / SCALE
