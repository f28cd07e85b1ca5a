"""Value rules for the fields a job manifest sets, written beside each field.

A field carries a :class:`Rule` in its metadata (``metadata=rule("int", minimum=1)``),
``__post_init__`` checks it with :func:`check_fields`, and the manifest parser takes
its keys from :func:`ruled_fields`, so Python callers and JSON meet one rule.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, fields
from typing import Any, Callable, Mapping

from repro.exceptions import ReproError

#: The named kinds a rule can demand: the accepted types and their wording.
_KINDS = {
    "int": ((int,), "an int"),
    "number": ((int, float), "a number"),
    "string": ((str,), "a string"),
    "object": ((Mapping,), "an object"),
}


@dataclass(frozen=True)
class Rule:
    """What one field accepts.

    ``kind`` is a key of :data:`_KINDS`, a class, or ``None`` for anything (never
    ``bool``; numbers are finite).  ``minimum`` is inclusive, ``above`` exclusive, and
    ``resolve`` raises a :class:`ReproError` for a name its registry lacks.
    ``optional`` admits ``None``, and ``wording`` replaces the kind's in the type error.
    """

    kind: "str | type | None" = None
    minimum: float | None = None
    above: float | None = None
    resolve: "Callable[[Any], object] | None" = None
    optional: bool = False
    wording: str = ""

    def check(self, name: str, value: Any, error: "type[Exception]") -> None:
        """Raise ``error`` when ``value`` breaks this rule for field ``name``."""
        if value is None and self.optional:
            return
        if self.kind is not None:
            types, wording = _KINDS.get(self.kind) or ((self.kind,), f"a {self.kind.__name__}")
            if isinstance(value, bool) or not isinstance(value, types):
                raise error(f"{name} must be {self.wording or wording}, not {type(value).__name__}")
            # NaN compares false, and a too-large int compares exactly.
            if self.kind == "number" and not abs(value) <= sys.float_info.max:
                raise error(f"{name} must be finite, not {value!r}")
        if self.minimum is not None and value < self.minimum:
            raise error(f"{name} must be at least {self.minimum}, not {value!r}")
        if self.above is not None and value <= self.above:
            raise error(f"{name} must be greater than {self.above}, not {value!r}")
        if self.resolve is not None:
            try:
                self.resolve(value)
            except ReproError as exc:
                raise error(f"{name}: {exc}") from exc


def rule(kind: "str | type | None" = None, **constraints: Any) -> dict[str, Rule]:
    """Field metadata carrying one :class:`Rule`."""
    return {"rule": Rule(kind, **constraints)}


@functools.cache
def ruled_fields(cls: type) -> dict[str, tuple[Rule, Any]]:
    """``name -> (rule, default)`` for each ruled field of a dataclass, in field order."""
    return {f.name: (f.metadata["rule"], f.default) for f in fields(cls) if "rule" in f.metadata}


def check_fields(instance: Any, error: "type[ReproError]") -> None:
    """Raise ``error`` for the first field of ``instance`` off its default that breaks its rule."""
    for name, (field_rule, default) in ruled_fields(type(instance)).items():
        value = getattr(instance, name)
        if value is not default:
            field_rule.check(name, value, error)
