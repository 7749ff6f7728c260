"""The JSON literals that both decoders read: rationals and integer keys.

The object codec in ``cli`` and the Burnside codec in ``burnside`` follow one
rule for each, so a document means the same thing to both.  Anything outside
the rule is a ``ParseError``, which the CLI reports with exit 2.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError


def frac_parse(value) -> Fraction:
    """A rational given as a JSON integer or as a literal string ("7/3",
    "-2", "0.5").  A bool or a float is refused rather than coerced: ``true``
    would read as 1 and ``0.1`` as its binary expansion."""
    try:
        if type(value) is int or isinstance(value, str):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError(f"bad rational literal {value!r}")


def int_key(raw: str, what: str) -> int:
    """The int whose decimal is raw: "05" or " 5" would share its entry."""
    try:
        if str(int(raw)) == raw:
            return int(raw)
    except ValueError:
        pass
    raise ParseError(f"bad {what} {raw!r}")
