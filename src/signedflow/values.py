"""Equality, hashing, repr, immutability and pickling, defined once; the
integer check every constructor, entry point and text reader makes; and
``BudgetExceededError``, the refusal the oracle and the engine raise, with
``DEFAULT_BUDGET``, the steps a count may take unless told otherwise.

A class lists its fields in ``__slots__`` in the order its constructor
takes them; that is the one invariant the methods below rely on, since
they read the slots in that order and ``cls(*values)`` rebuilds the object.
"""

import operator
from collections.abc import Iterator

DEFAULT_BUDGET = 10**8


class BudgetExceededError(Exception):
    """The transfer-matrix steps a count may take exceed the budget, or the
    engine refuses a walk too wide for its states or a family too large."""


def _as_int(value, what: str, least: int | None = None, below: int | None = None) -> int:
    """``operator.index(value)``; a float or any other non-integer is a
    ``ValueError``, so no float enters a count, and so is an integer below
    ``least`` or, when ``below`` is given, outside ``0..below - 1``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if below is not None and not 0 <= value < below:
        raise ValueError(f"{what} must be in 0..{below - 1}, got {value}")
    if least is not None and value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{what} must be {bound}, got {value}")
    return value


def _int_text(text: str, what: str, least: int | None = None) -> int:
    """The integer written in ``text``: ASCII decimal digits after at most
    one sign, then checked as :func:`_as_int` checks it.  Anything else,
    such as ``1_0``, a full-width digit or a blank, is a ``ValueError``."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{what} must be an integer, got {text!r}")
    return _as_int(int(text), what, least)


def _int_list(text: str, what: str) -> Iterator[int]:
    """The integers of a comma-separated list, each token stripped and read
    by :func:`_int_text` as it is reached; blank text is the empty list."""
    return (_int_text(tok.strip(), what) for tok in (text.split(",") if text.strip() else ()))


class Value:
    """Equal to a value of the same class with equal fields, and hashed by
    them; shown as ``Name(field=value, ...)``; copied and pickled through
    its constructor.  The constructor sets the slots with
    ``object.__setattr__``; afterwards assigning or deleting an attribute
    is an ``AttributeError``."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__name__} is immutable")
