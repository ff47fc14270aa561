"""The base of the records that validate their fields: ``PeriodSequence``,
``RationalExpr`` and ``BoundaryState``.  The other records are
``NamedTuple``s, and a truncated series is a plain tuple."""


class Record:
    """Fields in ``__slots__``, set once by the constructor through
    :meth:`_set`: equal, hashed and printed by value, and immutable, as a
    frozen dataclass is."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
