"""Shared exception types, each carrying the exit code the CLI reports it
with, and the readers of integer and rational JSON fields."""
import math
from fractions import Fraction


class ReportedError(Exception):
    """A failure the CLI reports as `label: message` on stderr, ending with
    the subclass's exit_code; a partial certificate, when set, goes to
    --out.  Each subclass keeps a builtin base for `except` to catch."""

    exit_code: int
    label = "error"
    partial = None


class PreconditionError(ValueError, ReportedError):
    """An operation was called outside its documented domain (exit 3)."""

    exit_code = 3


class SpecFormatError(ValueError, ReportedError):
    """Structurally invalid spec or JSON input (exit 2)."""

    exit_code = 2

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{pointer}: {message}" if pointer else message)
        self.pointer = pointer


_NAME_DIGITS = 24  # the digits int_name prints of a long integer


def int_name(n: int) -> str:
    """n for a message: in full up to about _NAME_DIGITS digits, else its
    leading _NAME_DIGITS or _NAME_DIGITS + 1 digits and its bit length, with
    no str() of the whole number, which takes time quadratic in its length
    and is refused past 4300 digits."""
    sign, n = "-" * (n < 0), abs(n)
    k = int(n.bit_length() * math.log10(2)) - _NAME_DIGITS  # n // 10^k keeps the leading digits
    if k <= 0:
        return f"{sign}{n}"
    return f"{sign}{n // 10 ** k}... ({n.bit_length()} bits)"


def _field(obj, key, pointer: str, default, parse, kind: str):
    """parse(obj[key]) for a JSON integer or string, key a dict key or a list
    index.  An absent key gives the default, or else an error at the object;
    any other value (a float, a bool) is an error at the field."""
    if isinstance(obj, dict) and key not in obj:
        if default is None:
            raise SpecFormatError(f"missing field {key!r}", pointer)
        return default
    value = obj[key]
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return parse(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise SpecFormatError(f"must be {kind}, got {value!r}", f"{pointer}/{key}")


def int_field(obj, key, pointer: str, default=None) -> int:
    """obj[key] as a JSON integer or a decimal string such as "12"."""
    return _field(obj, key, pointer, default, int, "an integer")


def int_list(value, pointer: str) -> tuple:
    """A JSON list of integers, each read by int_field."""
    if not isinstance(value, list):
        raise SpecFormatError(f"must be a list of integers, got {value!r}", pointer)
    return tuple(int_field(value, k, pointer) for k in range(len(value)))


def rational(value) -> Fraction:
    """value, an integer or a string such as "3/2" or "2.5" without an
    exponent, as a Fraction; anything else raises ValueError."""
    if "e" in str(value).lower():  # Fraction("1e999999999") builds 10**999999999
        raise ValueError
    return Fraction(value)


def fraction_field(obj, key, pointer: str) -> Fraction:
    """obj[key] as a JSON integer or a rational string such as "3/2" or "2.5"."""
    return _field(obj, key, pointer, None, rational, "a rational like 3/2")


class BudgetExceededError(RuntimeError, ReportedError):
    """A search or enumeration ran out of its work budget (exit 4)."""

    exit_code = 4

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class InvariantError(AssertionError, ReportedError):
    """An internal consistency check failed (exit 5)."""

    exit_code = 5
    label = "internal invariant failure"
