"""Floors: the pass/fail rules a ``repro bench`` result must meet.

Each target's floors function takes the result exactly as written to JSON
(plain dicts) and returns one :class:`Floor` per rule.  A floor whose gate
the result does not meet — too few cores, another backend, a smaller run
than the one the threshold was set at — is skipped, not failed, and says
which gate it missed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

PASS, FAIL, SKIP = "pass", "fail", "skip"

#: A floor's gate: whether the result meets it, and the reason to print when not.
Gate = Tuple[bool, str]

_COMPARE = {
    "==": operator.eq, ">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt
}


@dataclass(frozen=True)
class Floor:
    """One floor's outcome for one bench result."""

    name: str
    status: str
    message: str

    def __str__(self) -> str:
        return f"floor {self.status.upper():<4} {self.name}: {self.message}"


def check(name: str, ok: bool, message: str, gate: Optional[Gate] = None) -> Floor:
    """A floor that passes when ``ok``, unless the result misses its ``gate``."""
    if gate is not None and not gate[0]:
        return Floor(name, SKIP, gate[1])
    return Floor(name, PASS if ok else FAIL, message)


def _field(result: Dict, key: str):
    for part in key.split("."):
        result = result[part]
    return result


def holds(result: Dict, key: str, failure: str) -> Floor:
    """An exactness floor: the boolean field ``key`` must be true."""
    ok = bool(_field(result, key))
    return check(key, ok, "holds" if ok else failure)


def bound(result: Dict, key: str, op: str, threshold, gate: Optional[Gate] = None) -> Floor:
    """The floor ``result[key] <op> threshold``; dotted keys reach nested fields."""
    value = None if gate is not None and not gate[0] else _field(result, key)
    ok = value is not None and _COMPARE[op](value, threshold)
    measured = f"{value:.4g}" if isinstance(value, float) else value
    return check(f"{key} {op} {threshold}", ok, f"measured {measured}", gate)


def at_size(result: Dict, key: str, minimum: int) -> Gate:
    """The gate of a floor set at a run size: ``result[key] >= minimum``."""
    return result[key] >= minimum, f"set at {key} >= {minimum}; this run has {result[key]}"
