"""One base for the counter records every layer keeps.

A stats record is a ``@dataclass`` of counters that derives
:class:`Stats`.  The base supplies the four operations a record used
to write out field by field: ``snapshot()`` (every field in declaration
order, then the derived properties the record names in ``exported``),
``reset()`` (every field back to its declared default), ``copy()`` (a
detached record) and ``add()`` (accumulate another record in place).
:func:`repro.obs.export.publish` reads ``snapshot()``, so a record's
exported series are its fields plus ``exported``: a counter is exported
by declaring it.
"""

from __future__ import annotations

from dataclasses import MISSING, fields, replace
from typing import Any, Dict, Tuple


class Stats:
    """Mixin for a ``@dataclass`` of counters (see the module doc)."""

    #: derived properties ``snapshot()`` adds after the fields
    exported: Tuple[str, ...] = ()

    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict copy: fields, then the ``exported`` properties."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = dict(value) if isinstance(value, dict) else value
        for name in self.exported:
            out[name] = getattr(self, name)
        return out

    def reset(self) -> None:
        """Every field with a declared default back to that default."""
        cls = type(self)
        defaults = cls.__dict__.get("_defaults")
        if defaults is None:
            defaults = cls._defaults = tuple(
                (f.name, f.default) for f in fields(cls)
                if f.default is not MISSING)
        # setattr, not ``self.__dict__``: reading the instance dict
        # materialises it, which slows every later attribute access
        for name, value in defaults:
            setattr(self, name, value)

    def copy(self):
        """A detached record; later counting won't mutate it."""
        return replace(self)

    def add(self, other) -> None:
        """Accumulate ``other`` (a record of the same type) in place."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
