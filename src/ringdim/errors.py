"""Shared exception types, and the base classes of ringdim's records."""

from __future__ import annotations


class Record:
    """Base of ringdim's record types.  A record class annotates its fields
    in order; a class attribute of a field's name is its default, and
    unannotated class attributes (constants, methods) are not fields.

    The base gives each record an ``__init__`` that takes the fields by
    position or keyword and then runs ``__post_init__``; an ``__eq__`` that
    compares types too, so ``Lex()`` and ``GrevLex()`` differ; a
    ``Name(field=value, ...)`` repr; and ``_replace``, a copy with some
    fields changed.  A ``Record`` is mutable and unhashable; see
    ``FrozenRecord``.

    The standard library's data classes would generate the same, at a cost
    at import: they compile each method from source with ``exec`` and import
    ``inspect``, and made ringdim's 22 records half of ``import ringdim.cli``.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = cls._fields + own
        cls._defaults = {**cls._defaults, **{name: cls.__dict__[name] for name in own if name in cls.__dict__}}

    def __init__(self, *args, **kwargs):
        # the instance dict holds the fields in order and nothing else;
        # equality, hashing and repr read it
        names = self._fields
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes at most {len(names)} fields")
        values = self.__dict__
        values.update(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in self._defaults:
                values[name] = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__} needs the field {name!r}")
        if kwargs:
            raise TypeError(f"{type(self).__name__} got {sorted(kwargs)}: not fields, or given twice")
        self.__post_init__()

    def __post_init__(self):
        """Check the fields; a subclass that has checks overrides this."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes):
        return type(self)(**{**self.__dict__, **changes})


class FrozenRecord(Record):
    """A ``Record`` that refuses assignment and hashes by its fields, so
    equal records hash equal and may key dicts and caches."""

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot change {name!r}")

    __delattr__ = __setattr__


class RingMismatchError(ValueError):
    """Operands live in different polynomial rings."""


class ArityMismatchError(ValueError):
    """A monomial's exponent vector does not match its ring's arity."""


class ZeroPolynomialError(ValueError):
    """An operation needing a nonzero polynomial got zero."""


class TowerDepthError(ValueError):
    """A rational function field was stacked on another one."""


class EmptyRingError(ValueError):
    """The presented ring is the zero ring."""


class CertificateError(ValueError):
    """A primality or chain certificate is malformed or fails to verify."""


class BudgetExhaustedError(RuntimeError):
    """A Groebner computation hit its pair-reduction cap.

    This is always raised instead of returning a truncated (wrong) basis.
    """

    def __init__(self, used: int, limit: int):
        super().__init__(f"budget exhausted: {used} pair reductions (limit {limit})")
        self.used = used
        self.limit = limit


class InconsistentBoundsError(RuntimeError):
    """Two applicable dimension rules produced contradictory values.

    Reaching this is a bug detector, not a user error: it means a rule or
    the kernel computed something wrong.
    """


class ParseError(ValueError):
    """Input text that does not parse, with the position of the token at
    fault (line and column count from 1)."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column
