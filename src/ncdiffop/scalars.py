"""Exact field elements: rationals, optionally with an adjoined imaginary unit.

All arithmetic in this package is exact.  A ``Scalar`` is a Gaussian rational
``re + im*i``.  Each part is kept in one normal form: a Python ``int`` when it
is integral, otherwise an arbitrary-precision rational (gmpy2 ``mpq`` when
available, ``fractions.Fraction`` otherwise).  Almost every entry of the
shipped bundles is an integer, so most arithmetic runs on plain ints; division
always goes through the rational type, so no part is ever a float.  Results,
``str``, ``==`` and ``hash`` are identical under both backends; a real
``Scalar`` equals, and hashes like, the int or rational of the same value.
Conjugation flips the sign of the imaginary part, so on the rational subfield
it is the identity.

A literal such as ``"-3"``, ``"1/2"`` or ``"1/2-1/3i"`` is parsed from the text
that matched the literal pattern: an integer part becomes ``int(text)`` and
``a/b`` becomes the rational ``a/b`` in the normal form above, so ``"4/2"``
gives the int ``2`` and ``"2/4"`` the rational ``1/2``.

Construction is canonical: every ``Scalar`` (the class, ``sc``, ``from_str``,
each arithmetic result, negation and ``conj``) comes from ``_scalar``, which
hands back one shared object for each real integer of absolute value at most
``SMALL``.  So every zero ``is ZERO``, every 1 ``is ONE`` and every -1 ``is
NEG_ONE``: a truth test is an identity test, and the matrix kernels skip
products with a unit by identity, on loaded and on computed values alike.
Negation returns the shared object of a negated shared integer straight from
the table, with no call to ``_scalar``; any other value is constructed.
"""

from __future__ import annotations

import numbers
import re as _re

try:
    from gmpy2 import mpq as _mpq
except ImportError:  # gmpy2 is the optional `ncdiffop[gmpy2]` extra
    from fractions import Fraction as _mpq

_RAT = type(_mpq(0))

_RAT_RE = _re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


class ScalarParseError(ValueError):
    pass


def _rat(x):
    """Normal form of a rational part: an ``int`` if integral, else ``_RAT``."""
    if type(x) is not _RAT:
        if isinstance(x, float):
            raise TypeError(f"inexact scalar part {x!r}")
        x = _mpq(x)
    if x.denominator == 1:
        return int(x.numerator)
    return x


def _parse_rat(text: str):
    text = text.lstrip("+")
    m = _RAT_RE.match(text)
    if not m:
        raise ScalarParseError(f"bad rational {text!r}")
    num, den = m.groups()
    if den is None:
        return int(num)
    den = int(den)
    if not den:
        raise ScalarParseError(f"zero denominator in {text!r}")
    return _rat(_mpq(int(num), den))


class Scalar:
    """An exact Gaussian rational with involutive conjugation."""

    __slots__ = ("re", "im")

    def __new__(cls, re=0, im=0):
        return _scalar(re, im)

    # the canonical object is shared, so a copy is the object itself, and unpickling constructs
    # it again (the default protocol would fill the slots of a fresh ``__new__`` result: ZERO)
    def __reduce__(self):
        return Scalar, (self.re, self.im)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_str(text: str) -> "Scalar":
        s = "".join(text.split())
        if not s:
            raise ScalarParseError("empty scalar")
        if s[-1] in "iI":
            body = s[:-1]
            # split off a real part at the last top-level sign (not at index 0)
            idx = max(body.rfind("+", 1), body.rfind("-", 1))
            if idx == -1:
                re_txt, im_txt = "", body
            else:
                re_txt, im_txt = body[:idx], body[idx:]
            if im_txt in ("", "+"):
                im_val = 1
            elif im_txt == "-":
                im_val = -1
            else:
                im_val = _parse_rat(im_txt)
            re_val = _parse_rat(re_txt) if re_txt else 0
            return _scalar(re_val, im_val)
        return _scalar(_parse_rat(s))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        return _scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        return _scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if b or d:
            return _scalar(a * c - b * d, a * d + b * c)
        return _scalar(a * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        c, d = other.re, other.im
        if other is ZERO:
            raise ZeroDivisionError("scalar division by zero")
        # the dividend goes through the rational type: int / int is a float
        if not d:
            return _scalar(_mpq(self.re) / c, _mpq(self.im) / c)
        n = c * c + d * d
        a, b = self.re, self.im
        return _scalar(_mpq(a * c + b * d) / n, _mpq(b * c - a * d) / n)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __neg__(self):
        # the negation of a shared integer is shared: a table lookup, no construction
        re = self.re
        if type(re) is int and not self.im:
            s = _SMALL.get(-re)
            if s is not None:
                return s
        return _scalar(-re, -self.im)

    def conj(self) -> "Scalar":
        if self.im:
            return _scalar(self.re, -self.im)
        return self

    def inv(self) -> "Scalar":
        return ONE / self

    # -- predicates & hashing ---------------------------------------------

    def __bool__(self):
        return self is not ZERO

    def is_real(self) -> bool:
        return not self.im

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is Scalar:
            return self.re == other.re and self.im == other.im
        if isinstance(other, (numbers.Rational, _RAT)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        # a real Scalar hashes like its rational value, since the two compare equal
        return hash((self.re, self.im)) if self.im else hash(self.re)

    # -- formatting --------------------------------------------------------

    def __str__(self):
        if not self.im:
            return str(self.re)
        im_txt = str(self.im)
        if not self.re:
            return f"{im_txt}i"
        if im_txt.startswith("-"):
            return f"{self.re}{im_txt}i"
        return f"{self.re}+{im_txt}i"

    def __repr__(self):
        return f"Scalar({self})"


# Real integers of absolute value at most SMALL are interned.  Before interning, over one
# default verify of the z3 and two-point bundles and a short run of each benchmark workload,
# the share of constructed values that were real integers in [-R, R] was, for R = 1 / 16 /
# 256 / 1024: verify 31 / 78 / 91 / 95%, z3-towers 24 / 58 / 84 / 92%, z3-crossing 82 / 99 /
# 99 / 99%, z3-apply 36 / 84 / 91 / 91% and small-bundles 21 / 37 / 70 / 82%; the rest are
# fractions, Gaussian values or larger integers.
SMALL = 1024

_new = object.__new__


def _scalar(re, im=0) -> Scalar:
    """The one constructor: both parts in normal form, and the shared object for a small
    real integer."""
    if type(re) is not int:
        re = _rat(re)
    if type(im) is not int:
        im = _rat(im)
    if not im and type(re) is int:
        s = _SMALL.get(re)
        if s is not None:
            return s
    s = _new(Scalar)
    s.re = re
    s.im = im
    return s


_SMALL: dict[int, Scalar] = {}
_SMALL.update((k, _scalar(k)) for k in range(-SMALL, SMALL + 1))


def _coerce(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    return _scalar(x)


ZERO = _SMALL[0]
ONE = _SMALL[1]
NEG_ONE = _SMALL[-1]
I = _scalar(0, 1)


def sc(x) -> Scalar:
    """Coerce an int, rational, string or Scalar into a Scalar."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, str):
        return Scalar.from_str(x)
    return _scalar(x)
