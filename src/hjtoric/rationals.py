"""Parsing and formatting of exact rationals as "n/d" strings for JSON/CLI."""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, require_int


def parse_rational(value) -> Fraction:
    """Accepts int (not bool), Fraction, or an exact string like "3", "-7/2"
    or "1.5".  Exponent notation is rejected: "1e-99999999" would ask for a
    denominator of 10^99999999, so a few characters of input could take
    gigabytes; a string's value is never much larger than the string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        if "e" in value.lower():
            raise DomainError(f"exponent notation is not accepted: {value!r}")
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"not an exact rational, got {value!r}") from exc
    return Fraction(require_int(value, "not an exact rational"))


def rational_json(x: Fraction | int):
    """Ints stay ints; everything else becomes an "n/d" string."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
