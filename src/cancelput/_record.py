"""Immutable records for the closed-form layer.

``dataclasses`` pulls in ``inspect`` and builds each class's methods by
``exec`` at import time; for four records that was about half of
``import cancelput``.  These records declare their fields in ``__slots__``,
fill them once in ``__init__`` through the slots' own setters
(:meth:`Record._setters`) and take the rest from :class:`Record`.  A slot read
costs what a dataclass attribute read costs; a tuple-based record's does not.
"""


class Record:
    """Slotted, immutable record: equality and hashing by type and field
    values, ``Name(field=value, ...)`` repr, pickling and :meth:`_replace`
    through the subclass's ``__init__`` (so its checks run again)."""

    __slots__ = ()

    @classmethod
    def _setters(cls) -> tuple:
        """Each slot's bound ``__set__``, in ``__slots__`` order: ``__init__``'s field setters."""
        return tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; use _replace")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def _replace(self, **changes):
        """A copy with ``changes`` applied, built (and checked) by ``__init__``."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(changes)
        return type(self)(**fields)
