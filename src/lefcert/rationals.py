"""Exact Gaussian-rational scalars, and the two rules for numbers from outside.

A value enters the library as a rational only through `as_rat`: an int,
a Fraction, or an integer or "p/q" string.  A bool, a float or anything
else is refused, never read as a number, since nothing in this library
is approximate.  An integer argument (a dimension, a bidegree, a seed)
enters only through `as_int`, which passes a genuine int alone.
Rational parts are `fractions.Fraction` values, kept in canonical form
(reduced, positive denominator); `Rat` names that one backend.
"""

from __future__ import annotations

import re
from fractions import Fraction

Rat = Fraction

__all__ = ["Rat", "as_rat", "as_int", "rat_pair", "GaussianRational", "GR", "ZERO", "ONE", "I",
           "cpq_constant"]

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def as_rat(x):
    """x as a Fraction; a Fraction is returned as is.

    An int, a Fraction, or an integer or "p/q" string passes.  A string
    outside that grammar or with a zero denominator is a ValueError; a
    bool, a float (never rationalized) or any other type is a TypeError.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, bool):
        raise TypeError(f"boolean {x!r} is not a rational")
    if isinstance(x, float):
        raise TypeError(f"floating-point value {x!r} rejected; use int, Fraction or 'p/q'")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if not isinstance(x, str) or not _RATIONAL.fullmatch(x):
        error = ValueError if isinstance(x, str) else TypeError
        raise error(f"rational {x!r} is not an integer or a 'p/q' string")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


def as_int(value, what):
    """value if it is a genuine int; a bool, a float or anything else is a TypeError naming what."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def rat_pair(s):
    """(p, q) ints, q > 0, with p / q the rational `as_rat` reads from s.

    An exact int or a string in `as_rat`'s grammar is split by int() alone,
    so a "p/q" keeps any factor p and q share.  Everything else, a zero
    denominator or a digit string past int()'s length limit included, goes
    through `as_rat`, which raises its errors.
    """
    if type(s) is int:
        return s, 1
    if type(s) is str and _RATIONAL.fullmatch(s):
        num, _, den = s.partition("/")
        try:
            q = int(den) if den else 1
            if q:
                return int(num), q
        except ValueError:
            pass
    return as_rat(s).as_integer_ratio()


class GaussianRational:
    """Exact complex number a + b*i with rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", as_rat(re))
        object.__setattr__(self, "im", as_rat(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # ---- predicates ----

    def is_zero(self):
        return not self.re and not self.im

    def is_real(self):
        return not self.im

    # ---- arithmetic ----

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        den = c * c + d * d
        if not den:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational((a * c + b * d) / den, (b * c - a * d) / den)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, k):
        if type(k) is not int or k < 0:
            raise TypeError("only nonnegative integer powers")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # ---- comparison / hashing ----

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if not self.im:
            return f"GR({self.re})"
        return f"GR({self.re}, {self.im})"


def GR(re=0, im=0):
    """Shorthand constructor."""
    if isinstance(re, GaussianRational):
        if im:
            raise TypeError("cannot add imaginary part to a GaussianRational")
        return re
    return GaussianRational(re, im)


def _coerce(x):
    """x as a GaussianRational; NotImplemented unless x is one, an int or a Fraction."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        try:
            return GaussianRational(x)
        except TypeError:  # a bool, which `as_rat` refuses
            pass
    return NotImplemented


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def cpq_constant(p: int, q: int) -> GaussianRational:
    """The bidegree sign constant i^(q-p) * (-1)^((p+q)(p+q+1)/2)."""
    k = (q - p) % 4
    ipow = (ONE, I, -ONE, -I)[k]
    sign = -1 if ((p + q) * (p + q + 1) // 2) % 2 else 1
    return ipow * sign
