"""Immutable result records.

A subclass of ``Record`` names its fields by annotating them, in order; a
class value is the field's default. Each subclass gets one compiled
``__init__``, a parameter per field, which ends by calling the class's
``__post_init__`` when it has one. Records compare, hash and print by the
fields a class does not list in ``_hidden``, and refuse assignment and
deletion. The standard library's generator of such classes would import
``inspect`` and compile six methods per class, which made up most of the
package's import time.

Two hooks serve the records the package builds itself. ``_of(**fields)``
builds a record from values already checked, without ``__post_init__``.
A field the class names in ``_deferred``, a dict from the field's name to
a method, is built on its first read: ``__getattr__``, reached only when
a name is not set, calls that method, which sets the field (and may set
others with it), and raises the usual AttributeError for any other name,
so ``hasattr``, ``copy`` and ``pickle`` see a plain object.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()  # left out of ==, hash and repr
    _shown: tuple[str, ...] = ()
    _deferred: dict = {}  # a field built on its first read -> its builder

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

    @classmethod
    def _of(cls, **fields):
        """A record of the given values, set as they are: no check runs."""
        r = cls.__new__(cls)
        r.__dict__.update(fields)
        return r

    def __getattr__(self, name):
        # reached only when ``name`` is not set
        build = self._deferred.get(name)
        if build is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        build(self)
        return self.__dict__[name]

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
