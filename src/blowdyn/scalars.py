"""Exact Gaussian-rational scalars.

All exact coefficient arithmetic in the package runs over Q(i): a
GaussianRational holds its real and imaginary parts as fractions.Fraction
values (RAT), which are always kept in lowest terms.
"""

import math
import re as _re
from fractions import Fraction as RAT

import mpmath

from .errors import PreconditionViolated, SchemaError

_ZERO = RAT(0)
_ONE = RAT(1)


def _as_rat(x):
    if type(x) is RAT:
        return x  # already in lowest terms
    if isinstance(x, (int, str)):
        return RAT(x)
    return RAT(x.numerator, x.denominator) if hasattr(x, "numerator") else RAT(x)


class GaussianRational:
    """a + b*i with a, b exact rationals."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_rat(re))
        object.__setattr__(self, "im", _as_rat(im))

    def __setattr__(self, *a):
        raise AttributeError("GaussianRational is immutable")

    # -- arithmetic ------------------------------------------------------

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
        return other - self

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
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianRational((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, p):
        if not isinstance(p, int):
            return NotImplemented
        if p < 0:
            return (GaussianRational(1) / self) ** (-p)
        result = GaussianRational(1)
        base = self
        while p:
            if p & 1:
                result = result * base
            base = base * base
            p >>= 1
        return result

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def abs2(self):
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    # -- predicates / conversions ---------------------------------------

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def to_complex(self):
        return complex(self.re) + 1j * float(self.im)

    __complex__ = to_complex

    def to_mpc(self, prec=53):
        with mpmath.workprec(prec):
            re = mpmath.mpf(int(self.re.numerator)) / int(self.re.denominator)
            im = mpmath.mpf(int(self.im.numerator)) / int(self.im.denominator)
            return mpmath.mpc(re, im)

    def __repr__(self):
        return "GaussianRational(%r)" % format_scalar(self)

    def __str__(self):
        return format_scalar(self)


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, int) or hasattr(x, "numerator"):
        return GaussianRational(x)
    return NotImplemented


def _as_scalar(x):
    """x as a GaussianRational: strings are parsed, ints and fractions
    converted; anything else, floats included, is rejected."""
    c = parse_scalar(x) if isinstance(x, str) else _coerce(x)
    if c is NotImplemented:
        raise PreconditionViolated("cannot coerce %r into an exact scalar" % (x,))
    return c


QI_ZERO = GaussianRational(0)
QI_ONE = GaussianRational(1)
QI_I = GaussianRational(0, 1)


# -- parsing / formatting -----------------------------------------------

_TERM_SPLIT = _re.compile(r"(?<![eE/*^])([+-])")


def _parse_real(tok):
    tok = tok.strip()
    if tok in ("", "+"):
        return _ONE
    if tok == "-":
        return -_ONE
    try:
        if "/" in tok:
            num, den = tok.split("/")
            return RAT(int(num), int(den))
        if "." in tok or "e" in tok or "E" in tok:
            return RAT(tok)  # exact decimal -> rational
        return RAT(int(tok))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError("bad numeric literal %r (%s)" % (tok, exc))


def parse_scalar(text):
    """Parse "3", "-1/2", "0.25", "1/2+1/3i", "2i", "-i", "1-2i" into a
    GaussianRational.  Decimal literals are converted exactly."""
    if isinstance(text, GaussianRational):
        return text
    if isinstance(text, int):
        return GaussianRational(text)
    if isinstance(text, float):
        return GaussianRational(RAT(text))
    if not isinstance(text, str):
        raise PreconditionViolated("cannot parse scalar from %r" % (text,))
    s = text.replace(" ", "")
    if not s:
        raise SchemaError("empty scalar literal")
    # split into signed terms, keeping signs
    parts = _TERM_SPLIT.split(s)
    terms = []
    sign = "+"
    pending = False
    for piece in parts:
        if piece in ("+", "-"):
            if pending:
                raise SchemaError("consecutive signs in %r" % text)
            sign = piece
            pending = True
            continue
        if piece == "":
            continue
        terms.append(sign + piece)
        sign = "+"
        pending = False
    if pending:
        raise SchemaError("dangling sign in %r" % text)
    re_part = _ZERO
    im_part = _ZERO
    seen_re = seen_im = False
    for t in terms:
        if t.endswith(("i", "I", "j", "J")):
            if seen_im:
                raise SchemaError("two imaginary parts in %r" % text)
            body = t[:-1]
            if t[0] in "+-":
                sgn = -_ONE if t[0] == "-" else _ONE
                body = body[1:]
            else:
                sgn = _ONE
            if body.endswith("*"):
                body = body[:-1]
            im_part = sgn * _parse_real(body)
            seen_im = True
        else:
            if seen_re:
                raise SchemaError("two real parts in %r" % text)
            re_part = _parse_real(t)
            seen_re = True
    if not (seen_re or seen_im):
        raise SchemaError("unparseable scalar %r" % text)
    return GaussianRational(re_part, im_part)


def _fmt_rat(q):
    if q.denominator == 1:
        return str(q.numerator)
    return "%s/%s" % (q.numerator, q.denominator)


def format_scalar(z):
    """Canonical "p/q+r/si" text form (shortest faithful variant)."""
    z = _coerce(z)
    if z.im == 0:
        return _fmt_rat(z.re)
    imtxt = _fmt_rat(z.im) + "i" if z.im != 1 else "i"
    if z.im == -1:
        imtxt = "-i"
    elif z.im < 0:
        imtxt = _fmt_rat(z.im) + "i"
    if z.re == 0:
        return imtxt
    if z.im > 0 or imtxt.startswith("-"):
        sep = "" if imtxt.startswith("-") else "+"
        return _fmt_rat(z.re) + sep + imtxt
    return _fmt_rat(z.re) + "+" + imtxt


# -- exact square roots --------------------------------------------------

def sqrt_exact_rational(q):
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    num = int(q.numerator)
    den = int(q.denominator)
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return RAT(rn, rd)
    return None


def gaussian_sqrt(z):
    """Principal square root of z in Q(i) if it exists there, else None.

    Principal branch: result has re > 0, or re == 0 and im >= 0.
    """
    z = _coerce(z)
    if not z:
        return QI_ZERO
    a, b = z.re, z.im
    t = sqrt_exact_rational(a * a + b * b)
    if t is None:
        return None
    x2 = (a + t) / 2
    x = sqrt_exact_rational(x2)
    if x is None:
        return None
    if x == 0:
        y = sqrt_exact_rational(-a)
        if y is None:
            return None
        return GaussianRational(0, y)
    y = b / (2 * x)
    w = GaussianRational(x, y)
    # verify (guards rounding-free logic errors)
    if w * w != z:
        return None
    if w.re < 0 or (w.re == 0 and w.im < 0):
        w = -w
    return w
