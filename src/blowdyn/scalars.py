"""Exact Gaussian-rational scalars.

All exact coefficient arithmetic in the package runs over Q(i).  A
GaussianRational is stored as three integers (a + b i) / d with d > 0 and
gcd(a, b, d) = 1, so equal values have equal triples.  Every arithmetic
result is built by the one reducing constructor `_of`; the series kernel
reads the triple directly.  The real and imaginary parts are available as
fractions.Fraction values (RAT) through `.re` and `.im`.
"""

import math
import re as _re
import sys
from fractions import Fraction as RAT

from .errors import PreconditionViolated, SchemaError

_ZERO = RAT(0)
_ONE = RAT(1)


class GaussianRational:
    """(a + b*i) / d with integers a, b, d, d > 0 and gcd(a, b, d) = 1."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        re, im = RAT(re), RAT(im)
        d = math.lcm(re.denominator, im.denominator)
        _set_a(self, int(re.numerator) * (d // re.denominator))
        _set_b(self, int(im.numerator) * (d // im.denominator))
        _set_d(self, int(d))

    def __setattr__(self, *a):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through _of, not through __setattr__
        return _of, (self.a, self.b, self.d)

    @property
    def re(self):
        return RAT(self.a, self.d)

    @property
    def im(self):
        return RAT(self.b, self.d)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d, e = self.d, other.d
        return _of(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d, e = self.d, other.d
        return _of(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        return _of(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a + bi)/d / ((c + ei)/f) = f (a + bi)(c - ei) / (d (c^2 + e^2))
        f = other.d
        return _of(f * (a * c + b * e), f * (b * c - a * e), self.d * n)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _of(-self.a, -self.b, self.d)

    def __pow__(self, p):
        if not isinstance(p, int):
            return NotImplemented
        if p < 0:
            return (QI_ONE / self) ** (-p)
        result = QI_ONE
        base = self
        while p:
            if p & 1:
                result = result * base
            base = base * base
            p >>= 1
        return result

    def conjugate(self):
        return _of(self.a, -self.b, self.d)

    def abs2(self):
        """|z|^2 as an exact rational."""
        return RAT(self.a * self.a + self.b * self.b, self.d * self.d)

    # -- predicates / conversions ---------------------------------------

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.re, self.im)) if self.b else hash(self.re)

    def to_complex(self):
        return complex(self.a / self.d, self.b / self.d)

    __complex__ = to_complex

    def to_mpc(self, prec=53):
        import mpmath

        with mpmath.workprec(prec):
            re = mpmath.mpf(int(self.re.numerator)) / int(self.re.denominator)
            im = mpmath.mpf(int(self.im.numerator)) / int(self.im.denominator)
            return mpmath.mpc(re, im)

    def __repr__(self):
        return "GaussianRational(%r)" % format_scalar(self)

    def __str__(self):
        return format_scalar(self)


_set_a = GaussianRational.a.__set__
_set_b = GaussianRational.b.__set__
_set_d = GaussianRational.d.__set__


def _of(a, b, d):
    """The GaussianRational (a + b i) / d, for integers a, b, d with d != 0,
    in canonical form."""
    if d < 0:
        a, b, d = -a, -b, -d
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    z = object.__new__(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if hasattr(x, "numerator"):  # ints and fractions
        return _of(int(x.numerator), 0, int(x.denominator))
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
# "p" or "p/q" in ASCII digits: the form of nearly every map-file literal
_PLAIN_RATIONAL = _re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _parse_real(tok, written):
    """The rational tok; a SchemaError quotes `written`, the part of the
    literal it came from."""
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
            # the decimal exponent gets the digit limit int() puts on a
            # plain literal: RAT("1e10000000") would build 10^10000000
            exp = tok.lower().partition("e")[2]
            limit = sys.get_int_max_str_digits()
            if exp and limit and abs(int(exp)) > limit:
                raise ValueError("decimal exponent beyond %d" % limit)
            return RAT(tok)  # exact decimal -> rational
        return RAT(int(tok))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError("bad numeric literal %r (%s)" % (written, exc))


def parse_scalar(text):
    """Parse "3", "-1/2", "0.25", "1/2+1/3i", "2i", "-i", "1-2i" into a
    GaussianRational.  Decimal literals are converted exactly.  An int is
    taken as it is; a bool, or a float (its binary rounding would pass
    for an exact value), is refused like any other non-string."""
    if isinstance(text, GaussianRational):
        return text
    return _of(*parse_triple(text))


def parse_triple(text):
    """parse_scalar(text) as integers (a, b, d), d > 0, of the value
    (a + b i) / d, with the same refusals; the triple need not be
    reduced.  A GaussianRational is not accepted."""
    if type(text) is int:
        return text, 0, 1
    if not isinstance(text, str):
        raise PreconditionViolated(
            "%r is not a string literal or an integer; quote the literal"
            % (text,))
    m = _PLAIN_RATIONAL.fullmatch(text)
    if m is not None:
        try:
            num, den = int(m[1]), int(m[2] or 1)
        except ValueError:  # over int()'s digit limit: reported below
            den = 0
        if den:
            return num, 0, den
    s = text.replace(" ", "")
    if not s:
        raise SchemaError("empty scalar literal")
    # split into terms, each with the sign written before it ("" if none)
    parts = _TERM_SPLIT.split(s)
    terms = []
    sign = ""
    for piece in parts:
        if piece in ("+", "-"):
            if sign:
                raise SchemaError("consecutive signs in %r" % text)
            sign = piece
        elif piece:
            terms.append(sign + piece)
            sign = ""
    if sign:
        raise SchemaError("dangling sign in %r" % text)
    re_part = _ZERO
    im_part = _ZERO
    seen_re = seen_im = False
    for t in terms:
        if t.endswith(("i", "I", "j", "J")):
            if seen_im:
                raise SchemaError("two imaginary parts in %r" % text)
            body = t[:-1]
            if body.endswith("*"):
                body = body[:-1]
            im_part = _parse_real(body, t)
            seen_im = True
        else:
            if seen_re:
                raise SchemaError("two real parts in %r" % text)
            re_part = _parse_real(t, t)
            seen_re = True
    if not (seen_re or seen_im):
        raise SchemaError("unparseable scalar %r" % text)
    return (re_part.numerator * im_part.denominator,
            im_part.numerator * re_part.denominator,
            re_part.denominator * im_part.denominator)


def _fmt_part(n, d):
    """The rational n/d, d > 0, as "p" or "p/q" in lowest terms."""
    g = math.gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else "%d/%d" % (n, d)


def format_scalar(z):
    """Canonical "p/q+r/si" text form (shortest faithful variant)."""
    z = _coerce(z)
    return format_triple(z.a, z.b, z.d)


def format_triple(a, b, d):
    """format_scalar of (a + b i) / d for integers a, b, d with d > 0; the
    triple need not be reduced."""
    if not b:
        return _fmt_part(a, d)
    imtxt = "i" if b == d else "-i" if b == -d else _fmt_part(b, d) + "i"
    if not a:
        return imtxt
    return _fmt_part(a, d) + ("" if b < 0 else "+") + imtxt


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
