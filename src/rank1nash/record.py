"""Immutable result records.

A subclass of ``Record`` names its fields by annotating them, in order; a
class value is the field's default. Each subclass gets one compiled
``__init__``, a parameter per field, which ends by calling the class's
``__post_init__`` when it has one. Records compare, hash and print by the
fields a class does not list in ``_hidden``, and refuse assignment and
deletion. The standard library's generator of such classes would import
``inspect`` and compile six methods per class, which made up most of the
package's import time.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()  # left out of ==, hash and repr
    _shown: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__annotations__)
        cls._shown = tuple(f for f in fields if f not in cls._hidden)
        # each default is read from the namespace the __init__ is compiled in
        defaults = {f"_{f}": cls.__dict__[f] for f in fields if f in cls.__dict__}
        params = [f"{f}=_{f}" if f"_{f}" in defaults else f for f in fields]
        lines = [f"def __init__(self, {', '.join(params)}):", " __d = self.__dict__"]
        lines += [f" __d[{f!r}] = {f}" for f in fields]
        if hasattr(cls, "__post_init__"):
            lines.append(" self.__post_init__()")
        exec("\n".join(lines), defaults)
        cls.__init__ = defaults["__init__"]

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._shown])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
