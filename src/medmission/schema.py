"""Declared bounds of the numeric config fields, and the one walker over them.

It imports nothing of the package, so a config dataclass can run the walker
from ``__post_init__``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import field, fields, is_dataclass
from typing import NamedTuple


class Bound(NamedTuple):
    """The interval a numeric field, or each item of a tuple field, must lie in.

    An open end at infinity makes the value finite; NaN fails every comparison.
    """

    kind: type      # float admits any real number, int only an integer; never a bool
    lo: float
    hi: float
    interval: str   # as declared, such as "[0, inf)": a parenthesis opens its end

    def check(self, value, key: str, at: str = "") -> None:
        """Raise ValueError naming `key` (and `at`) unless `value` lies in the bound."""
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise ValueError(f"{key}: must be a number, got {type(value).__name__}{at}")
        if self.kind is int and not isinstance(value, numbers.Integral):
            raise ValueError(f"{key}: must be an integer, got {value!r}{at}")
        try:
            number = value if self.kind is int else float(value)
        except OverflowError:
            number = math.nan   # too large for a float: fail here, not in arithmetic
        above = self.lo < number if self.interval[0] == "(" else self.lo <= number
        below = number < self.hi if self.interval[-1] == ")" else number <= self.hi
        if not (above and below):
            raise ValueError(f"{key}: must be in {self.interval}, got {value!r}{at}")


def bounded(default, interval: str, kind: type = float):
    """A dataclass field whose value must lie in `interval`, such as "[0, inf)"."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return field(default=default, metadata={"bound": Bound(kind, lo, hi, interval)})


def json_key(f) -> str:
    """A config field's JSON key: its metadata "key", else its name."""
    return f.metadata.get("key", f.name)


def check_fields(obj, prefix: str = "") -> None:
    """Check each bounded field of dataclass `obj`, naming it by `prefix` and JSON key."""
    for f in fields(obj):
        key = prefix + json_key(f)
        value = getattr(obj, f.name)
        if is_dataclass(f.default):
            check_fields(value, key + ".")
        bound = f.metadata.get("bound")
        if bound is not None and isinstance(f.default, tuple):
            for i, item in enumerate(value):
                bound.check(item, key, f" at {key}[{i}]")
        elif bound is not None:
            bound.check(value, key)
