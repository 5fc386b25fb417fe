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
gives the int ``2`` and ``"2/4"`` the rational ``1/2``.  ``ZERO``, ``ONE`` and
``NEG_ONE`` are shared singletons: ``Mat.from_rows`` skips an entry that
``is`` ``ZERO``, and the matrix kernels skip a product with ``ONE`` or
``NEG_ONE`` (the latter becomes a negation), so a caller that reads many
literals (the bundle loader) hands 0, 1 and -1 back as the singletons.
Negation maps ``ONE`` and ``NEG_ONE`` onto each other.
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

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is int else _rat(re)
        self.im = im if type(im) is int else _rat(im)

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
            return Scalar(re_val, im_val)
        return Scalar(_parse_rat(s))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if b or d:
            return Scalar(a * c - b * d, a * d + b * c)
        return Scalar(a * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        c, d = other.re, other.im
        if not c and not d:
            raise ZeroDivisionError("scalar division by zero")
        # the dividend goes through the rational type: int / int is a float
        if not d:
            return Scalar(_mpq(self.re) / c, _mpq(self.im) / c)
        n = c * c + d * d
        a, b = self.re, self.im
        return Scalar(_mpq(a * c + b * d) / n, _mpq(b * c - a * d) / n)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __neg__(self):
        if self is ONE:
            return NEG_ONE
        if self is NEG_ONE:
            return ONE
        return Scalar(-self.re, -self.im)

    def conj(self) -> "Scalar":
        if self.im:
            return Scalar(self.re, -self.im)
        return self

    def inv(self) -> "Scalar":
        return ONE / self

    # -- predicates & hashing ---------------------------------------------

    def __bool__(self):
        # identity test first: dense matrices and vectors are mostly ZERO
        return self is not ZERO and bool(self.re or self.im)

    def is_real(self) -> bool:
        return not self.im

    def __eq__(self, other):
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


def _coerce(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    return Scalar(x)


ZERO = Scalar(0)
ONE = Scalar(1)
NEG_ONE = Scalar(-1)
I = Scalar(0, 1)


def sc(x) -> Scalar:
    """Coerce an int, rational, string or Scalar into a Scalar."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, str):
        return Scalar.from_str(x)
    return Scalar(x)
