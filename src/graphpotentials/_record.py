"""The base of the records that validate their fields: ``PeriodSequence``,
``RationalExpr`` and ``BoundaryState``.  The other records are
``NamedTuple``s, and a truncated series is a plain tuple.

Also the two judges: :func:`checked_int` of an integer argument, an order, a
genus or a parity, and :func:`scalar` of an exact value, a coefficient, a
period, a state's term or an edge weight."""


def checked_int(value, low: int, high: int | None = None, *, what: str) -> int:
    """``value`` if it is exactly an ``int`` from ``low`` to ``high`` (no upper
    bound if None), else ``ValueError`` naming the argument and the value.  A
    bool or a float is refused even where it equals an int in range."""
    if type(value) is not int or value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"from {low} to {high}"
        raise ValueError(f"{what} must be an int {bound}, got {value!r}")
    return value


def scalar(x):
    """x as an exact value if it is one, an int, a bool as the int it equals
    (it would print as True) or a Fraction, else None; an int loads no fractions."""
    if isinstance(x, int):
        return x if type(x) is int else int(x)
    from fractions import Fraction

    return x if isinstance(x, Fraction) else None


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
