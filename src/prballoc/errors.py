"""Shared exception types, mapped to CLI exit codes, and the configs' one type rule."""

import math
import numbers
from dataclasses import fields


class PrballocError(Exception):
    """Base class for all package errors."""


class DataError(PrballocError):
    """Malformed or unreadable input data (exit code 4)."""


class InfeasibleError(PrballocError):
    """Instance cannot be solved, e.g. more users than slots (exit code 3)."""


class UsageError(PrballocError):
    """Bad configuration or arguments (exit code 2)."""


def check_field_types(config):
    """UsageError unless each field of the dataclass `config` holds its type:
    an int field an integer (numpy's too), a float field a real that is a finite float, and any
    other field an instance of its type, so a bool only a bool field.  Numbers are stored as plain
    ints and floats; an integer stays whole, even in a float field."""
    for f in fields(config):
        value = getattr(config, f.name)
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        whole = real and isinstance(value, numbers.Integral)
        if f.type is int:
            ok = whole
        elif f.type is float:
            try:  # an integer past the largest float is no finite float
                ok = real and math.isfinite(value)
            except OverflowError:
                ok = False
        else:
            ok = isinstance(value, f.type)
        if not ok:
            finite = "finite " if f.type in (int, float) else ""
            kind = getattr(f.type, "__name__", f.type)  # a union such as PwlSpec | None has none
            raise UsageError(f"{f.name} must be a {finite}{kind}, got {value!r}")
        if f.type in (int, float):
            object.__setattr__(config, f.name, int(value) if whole else float(value))
