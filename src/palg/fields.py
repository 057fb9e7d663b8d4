"""Exact scalar arithmetic over the rationals and small prime fields.

Scalars are plain Python values: ``fractions.Fraction`` over the rationals
(kept in lowest terms with positive denominator automatically) and ``int``
residues in ``[0, p)`` over GF(p).  A :class:`FieldSpec` bundles the
arithmetic so that nothing downstream ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Iterator, Union

Scalar = Union[int, Fraction]

RATIONALS = "rationals"
PRIME = "prime-field"

MAX_MODULUS = 97


class FieldError(ValueError):
    """Raised for malformed field specifications or scalar values."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class _Frozen:
    """The base of palg's immutable value classes.

    A subclass names its fields in ``_fields``, in constructor order, and
    sets them in ``__init__`` past its own ``__setattr__``.  Two values are
    equal when they are of the same class and their fields, as a tuple, are
    equal; the hash is that tuple's.  ``repr`` shows those fields, copies
    and pickles are rebuilt through the constructor, and assigning or
    deleting any attribute raises ``AttributeError``.  A subclass that
    defines its own ``__eq__`` keeps it (``Subspace``, one object per value,
    compares and hashes by identity).  Plain result records are
    ``typing.NamedTuple`` classes instead.  Neither needs the standard
    library's class generator, whose import loads ``inspect`` and ``ast``
    and whose every class costs about a millisecond of start-up.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "__eq__" not in vars(cls):
            cls._values = attrgetter(*cls._fields)  # self -> the tuple of its fields

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FieldSpec(_Frozen):
    """The coefficient field: either Q or GF(p) for a prime 2 <= p <= 97."""

    __slots__ = _fields = ("kind", "modulus")

    def __init__(self, kind: str, modulus: int | None = None) -> None:
        if kind == RATIONALS:
            if modulus is not None:
                raise FieldError("rationals take no modulus")
        elif kind == PRIME:
            p = modulus
            if not isinstance(p, int):
                raise FieldError(f"modulus {p!r} is not prime")
            # the cap first: trial division of a huge modulus would not finish
            if p > MAX_MODULUS:
                raise FieldError(f"modulus {p} exceeds the cap {MAX_MODULUS}")
            if not is_prime(p):
                raise FieldError(f"modulus {p!r} is not prime")
        else:
            raise FieldError(f"unknown field kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "modulus", modulus)

    # -- constructors ------------------------------------------------------

    # These return one shared object per field, so that the field tests of
    # subspaces and cache keys succeed on identity; FieldSpec(...) built
    # directly still compares equal to it.

    @staticmethod
    def rationals() -> "FieldSpec":
        return _RATIONALS

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        spec = _PRIMES.get(p) if type(p) is int else None
        return spec if spec is not None else FieldSpec(PRIME, p)  # validates p as before

    # -- basic queries -----------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.kind == PRIME

    @property
    def characteristic(self) -> int:
        return self.modulus if self.kind == PRIME else 0

    @property
    def order(self) -> int:
        if self.kind != PRIME:
            raise FieldError("the rationals are infinite")
        return self.modulus  # type: ignore[return-value]

    def __str__(self) -> str:
        return "Q" if self.kind == RATIONALS else f"GF({self.modulus})"

    # -- arithmetic --------------------------------------------------------

    def zero(self) -> Scalar:
        return 0 if self.kind == PRIME else Fraction(0)

    def one(self) -> Scalar:
        return 1 if self.kind == PRIME else Fraction(1)

    def from_int(self, k: int) -> Scalar:
        return k % self.modulus if self.kind == PRIME else Fraction(k)

    def coerce(self, value) -> Scalar:
        """Normalise a raw value (int, Fraction, or num/den string) into the field."""
        if isinstance(value, float):
            raise FieldError("floating point values are forbidden")
        if isinstance(value, str):
            return self.parse_scalar(value)
        if isinstance(value, Fraction):
            if self.kind == RATIONALS:
                return value
            num = value.numerator % self.modulus
            den = value.denominator % self.modulus
            if den == 0:
                raise FieldError(f"denominator vanishes in {self}")
            return (num * self.inv(den)) % self.modulus
        if isinstance(value, int):
            return self.from_int(value)
        raise FieldError(f"cannot coerce {value!r} into {self}")

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.modulus if self.kind == PRIME else a + b

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return (a - b) % self.modulus if self.kind == PRIME else a - b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.modulus if self.kind == PRIME else a * b

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.modulus if self.kind == PRIME else -a

    def inv(self, a: Scalar) -> Scalar:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.kind == PRIME:
            return pow(a, self.modulus - 2, self.modulus)
        return Fraction(1) / a

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    # -- parsing and formatting --------------------------------------------

    def parse_scalar(self, text: str) -> Scalar:
        """Parse the one coefficient grammar: ``[+-]digits[/digits]`` in
        ASCII, with no surrounding space.  Floats and every other spelling
        are rejected."""
        num_s, slash, den_s = text.partition("/")
        if (not _is_decimal(num_s[1:] if num_s.startswith(("+", "-")) else num_s)
                or slash and not _is_decimal(den_s)):
            raise FieldError(f"not an integer literal or num/den: {text!r}")
        try:
            num, den = int(num_s), int(den_s) if slash else 1
        except ValueError as exc:  # more digits than int() converts
            raise FieldError(f"coefficient too long: {exc}") from None
        if den == 0:
            raise FieldError(f"zero denominator in {text!r}")
        if self.kind == RATIONALS:
            return Fraction(num, den)
        return self.coerce(Fraction(num, den) if slash else num)

    def format_scalar(self, a: Scalar) -> str:
        return str(a)

    # -- enumeration (finite fields) ----------------------------------------

    def elements(self) -> Iterator[Scalar]:
        if self.kind != PRIME:
            raise FieldError("cannot enumerate the rationals")
        return iter(range(self.modulus))  # type: ignore[arg-type]


_RATIONALS = FieldSpec(RATIONALS)
_PRIMES = {p: FieldSpec(PRIME, p) for p in range(MAX_MODULUS + 1) if is_prime(p)}


def _is_decimal(text: str) -> bool:
    """ASCII digits only: ``str.isdigit`` also accepts characters such as
    '²', which ``int`` rejects, and '٣', which ``int`` reads as 3."""
    return text.isascii() and text.isdigit()
