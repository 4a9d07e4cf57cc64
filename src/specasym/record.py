"""Plain record classes.

A record writes its own ``__init__`` and lists in ``_fields`` the fields
that its ``repr`` shows and its ``==`` compares, in constructor order.
``Record`` gives the text ``Name(field=value, ...)``, equality between
records of one class over those fields, and ``__hash__ = None``.  The
package writes its records this way, not with the standard library's
record decorator: that module loads ``inspect``, ``ast``, ``dis`` and
``tokenize``, and each decorated class runs ``exec``, so a CLI call that
builds one structure paid more for them than for its arithmetic.
"""

from __future__ import annotations


class Record:
    _fields: tuple = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"
