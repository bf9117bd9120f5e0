"""Exact Gaussian-rational scalars.

Every computation in the library happens over Q(i).  Rational parts are
`fractions.Fraction` values, kept in canonical form (reduced, positive
denominator); `Rat` names that one backend.  Floating-point input is
rejected outright: nothing in this library is approximate.
"""

from __future__ import annotations

import re
from fractions import Fraction

Rat = Fraction

__all__ = ["Rat", "as_rat", "rat_from_str", "rat_pair", "GaussianRational", "GR", "ZERO", "ONE",
           "I", "cpq_constant"]

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def as_rat(x):
    """Coerce x to a Fraction.

    Accepts ints, Fractions and integer or "p/q" strings (any other string is
    a ValueError); floats are rejected rather than rationalized.  A Fraction is returned as is.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"floating-point value {x!r} rejected; use int, Fraction or 'p/q'")
    if isinstance(x, str) and not _RATIONAL.fullmatch(x):
        raise ValueError(f"rational {x!r} is not an integer or a 'p/q' string")
    return Fraction(x)


def rat_from_str(s):
    """A JSON int, or an integer or "p/q" string in `as_rat`'s grammar, as a Fraction."""
    if isinstance(s, float):
        raise TypeError("floating-point input rejected")
    if isinstance(s, bool):
        raise TypeError(f"boolean {s!r} is not a rational")
    if not isinstance(s, (int, str)):
        raise ValueError(f"rational {s!r} is not an integer or a 'p/q' string")
    try:
        return as_rat(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def rat_pair(s):
    """(p, q) ints, q > 0, with p / q the rational `rat_from_str` reads from s.

    An exact int or a string in `as_rat`'s grammar is split by int() alone,
    so a "p/q" keeps any factor p and q share.  Everything else, a zero
    denominator or a digit string past int()'s length limit included, goes
    through `rat_from_str`, which raises its errors.
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
    x = rat_from_str(s)
    return x.numerator, x.denominator


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
        if not isinstance(k, int) or k < 0:
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
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
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
