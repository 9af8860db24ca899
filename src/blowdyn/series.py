"""Exact truncated multivariate power series and polynomial map germs.

A TruncatedSeries is a finite multi-index -> coefficient map together with a
total-degree cap D; every arithmetic operation is exact modulo degree > D.
The cap travels with the value: combining series with different caps (or
different variable counts) raises instead of silently truncating.

Coefficients are Gaussian rationals, each the integer triple (a + b i)/d of
scalars.py.  The arithmetic runs on the same layout widened to a whole
series, in the content/primitive-part style of FLINT's fmpq_poly: one
common denominator `den`, the lcm of the coefficients' d, and two dicts of
integer numerators, one for the real and one for the imaginary parts.  A
dict is keyed by the packed exponent

    deg(e) * B**n + e_1 * B**(n-1) + ... + e_n,    B = cap + 1,

so adding keys multiplies monomials (no digit can carry below the cap),
and sorting keys sorts terms by degree.  A real series has an empty
imaginary dict and multiplies with one integer product per term pair.
Packing is linear, so a monomial map w^e -> w^(e M) moves a term to the
key sum_i e_i key(M_i) at the new cap, read off its old key's digits;
terms landing on one key are summed.  Re-capping, monomial products,
quotients and substitution are all this one re-key (_rekey).

The integer form is the only layout a series is built in: the
constructor packs a coefficient dict into it at once, and every
operation builds its result's form directly.  Series are never mutated
after construction.  Each form is normal (zero numerators dropped, the
content shared with `den` divided out), so equal series have equal
integer forms.  The public `coeffs` view, {exponent tuple:
GaussianRational}, is read-only; it is built from the integer form on
first use and cached.
"""

import functools
import math

from .errors import DivisionObstruction, PreconditionViolated
from .exactalg import invert_matrix
from .scalars import QI_ONE, QI_ZERO, _as_scalar, _of, format_triple

__all__ = [
    "TruncatedSeries",
    "PolyMapGerm",
    "series_add",
    "series_multiply",
    "series_compose",
    "series_reciprocal",
    "monomial_divide",
    "monomial_multiply",
    "monomial_substitute",
    "series_evaluate",
    "germ_solve",
    "germ_inverse",
]

# integer forms (den, re, im); their dicts are never mutated once built
_ZERO_FORM = (1, {}, {})
_ONE_FORM = (1, {0: 1}, {})  # key 0 is the zero exponent at every cap


class TruncatedSeries:
    __slots__ = ("nvars", "cap", "_coeffs", "_form")

    def __init__(self, nvars, cap, coeffs=None):
        self.nvars = nvars = int(nvars)
        self.cap = cap = int(cap)
        if cap < 0:
            raise PreconditionViolated("negative degree cap")
        terms = {}  # packed key -> nonzero GaussianRational
        for e, c in (coeffs or {}).items():
            e = _monomial(e, nvars)
            if sum(e) > cap:
                raise PreconditionViolated(
                    "multi-index %r above cap %d" % (e, cap)
                )
            c = _as_scalar(c)
            if c:
                terms[_pack(e, cap + 1)] = c
        # each c is reduced, so no prime divides den (the lcm of the c.d)
        # and every numerator: the form is already normal
        den = math.lcm(*[c.d for c in terms.values()])
        re, im = {}, {}
        for k, c in terms.items():
            s = den // c.d
            if c.a:
                re[k] = c.a * s
            if c.b:
                im[k] = c.b * s
        self._coeffs = None
        self._form = den, re, im

    @classmethod
    def _of_form(cls, nvars, cap, form):
        """Series whose value is the normalised integer form `form`."""
        s = cls.__new__(cls)
        s.nvars = nvars
        s.cap = cap
        s._coeffs = None
        s._form = form
        return s

    @property
    def coeffs(self):
        """{exponent tuple: GaussianRational}, nonzero terms only."""
        c = self._coeffs
        if c is None:
            c = self._coeffs = _coeffs_of(self._form, self.nvars, self.cap)
        return c

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nvars, cap):
        return cls(nvars, cap)

    @classmethod
    def constant(cls, value, nvars, cap):
        return cls(nvars, cap, {(0,) * nvars: value})

    @classmethod
    def variable(cls, i, nvars, cap):
        """The coordinate w_i (1-based)."""
        if not 1 <= i <= nvars:
            raise PreconditionViolated("variable index out of range")
        if cap < 1:
            raise PreconditionViolated("cap too small to hold a variable")
        return cls(nvars, cap, {_unit(i - 1, nvars): QI_ONE})

    @classmethod
    def monomial(cls, exps, nvars, cap, coeff=1):
        return cls(nvars, cap, {tuple(exps): coeff})

    # -- inspection -----------------------------------------------------

    def coefficient(self, exps):
        e = tuple(exps)
        if len(e) != self.nvars or min(e, default=0) < 0 or sum(e) > self.cap:
            return QI_ZERO  # no stored term has this exponent
        den, re, im = self._form
        k = _pack(e, self.cap + 1)
        return _of(re.get(k, 0), im.get(k, 0), den)

    def spelled_terms(self):
        """[(exponent as a list, str(coefficient))] for the nonzero terms,
        sorted by exponent, spelled straight from the integer form."""
        den, re, im = self._form
        base = self.cap + 1
        # below the degree digit a packed key is the exponent in base B,
        # so sorting keys modulo B**n sorts terms by exponent
        keys = sorted((re.keys() | im.keys()) if im else re,
                      key=_shift(self.nvars, self.cap).__rmod__)
        weights = [base ** i for i in range(self.nvars - 1, -1, -1)]
        return [([k // w % base for w in weights],
                 format_triple(re.get(k, 0), im.get(k, 0), den))
                for k in keys]

    def constant_term(self):
        den, re, im = self._form
        return _of(re.get(0, 0), im.get(0, 0), den)  # key 0: the zero exponent

    def low_degree(self):
        """Smallest total degree with a nonzero term; None for the zero series."""
        _, re, im = self._form
        if not re and not im:
            return None
        return min(re.keys() | im.keys()) // _shift(self.nvars, self.cap)

    def homogeneous_part(self, d):
        shift = _shift(self.nvars, self.cap)
        return TruncatedSeries._of_form(
            self.nvars, self.cap,
            _select(self._form, lambda k: k // shift == d),
        )

    def is_zero(self):
        _, re, im = self._form
        return not re and not im

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        if self.cap != other.cap:
            return self.coeffs == other.coeffs
        return self._form == other._form

    def __hash__(self):
        raise TypeError("TruncatedSeries is not hashable")

    def __repr__(self):
        if self.is_zero():
            body = "0"
        else:
            bits = []
            for e in sorted(self.coeffs, key=lambda t: (sum(t), t)):
                mono = "*".join(
                    "w%d^%d" % (i + 1, p) if p > 1 else "w%d" % (i + 1)
                    for i, p in enumerate(e)
                    if p
                )
                ctext = str(self.coeffs[e])
                bits.append("(%s)%s" % (ctext, "*" + mono if mono else ""))
            body = " + ".join(bits)
        return "<series cap=%d %s>" % (self.cap, body)

    # -- arithmetic (operator sugar delegates to module functions) -------

    def __add__(self, other):
        return series_add(self, other)

    def __sub__(self, other):
        return series_add(self, -other)

    def __neg__(self):
        return TruncatedSeries._of_form(
            self.nvars, self.cap, _negate(self._form)
        )

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return series_multiply(self, other)
        return series_scale(self, other)

    def __rmul__(self, other):
        return series_scale(self, other)

    def __pow__(self, p):
        return series_power(self, p)

    def truncated(self, cap):
        """Copy at a lower (or equal) cap."""
        if cap > self.cap:
            raise PreconditionViolated(
                "cannot raise cap %d -> %d without polynomial semantics"
                % (self.cap, cap)
            )
        return self.as_polynomial_cap(cap)

    def as_polynomial_cap(self, cap):
        """Reinterpret at any cap, treating the stored terms as the complete
        expansion (exact polynomial).  Only sound when the value really is a
        polynomial with no dropped terms — lifting uses this for input maps."""
        if cap < 0:
            raise PreconditionViolated("negative degree cap")
        if cap == self.cap:
            return self  # series are immutable
        return TruncatedSeries._of_form(self.nvars, cap, _rekey(self, cap))


# -- the integer form ------------------------------------------------------

def _shift(nvars, cap):
    """Weight of the degree digit in a packed key."""
    return (cap + 1) ** nvars


def _pack(e, base):
    k = sum(e)
    for x in e:
        k = k * base + x
    return k


def _unit(i, nvars):
    """The exponent of the coordinate w_(i+1)."""
    return (0,) * i + (1,) + (0,) * (nvars - 1 - i)


def _unpack(k, nvars, base):
    e = [0] * nvars
    for i in range(nvars - 1, -1, -1):
        k, e[i] = divmod(k, base)
    return tuple(e)


def _coeffs_of(form, nvars, cap):
    den, re, im = form
    base = cap + 1
    return {
        _unpack(k, nvars, base): _of(re.get(k, 0), im.get(k, 0), den)
        for k in ((re.keys() | im.keys()) if im else re)
    }


def _normal(den, re, im):
    """The integer form of (re + i im) / den: zero numerators dropped and
    the content shared with den divided out."""
    re = {k: v for k, v in re.items() if v}
    im = {k: v for k, v in im.items() if v}
    if not re and not im:
        return _ZERO_FORM
    if den != 1:
        g = math.gcd(den, *re.values(), *im.values())
        if g != 1:
            den //= g
            re = {k: v // g for k, v in re.items()}
            im = {k: v // g for k, v in im.items()}
    return den, re, im


def _select(form, keep):
    den, re, im = form
    return _normal(den, {k: v for k, v in re.items() if keep(k)},
                   {k: v for k, v in im.items() if keep(k)})


def _rekey(s, cap, factor=None, rows=None):
    """s's integer form under the monomial map w^e -> w^((e + factor) rows)
    at `cap` (factor zero and rows the identity by default), re-keyed as
    the module docstring says.  No row is zero, so a term is dropped
    unread where deg(e) + deg(factor) > cap; e_i + factor_i < 0 raises
    DivisionObstruction."""
    den, re, im = s._form
    n, base = s.nvars, s.cap + 1
    factor = factor or (0,) * n
    weights = ([_pack(row, cap + 1) for row in rows] if rows else
               [_shift(n, cap) + (cap + 1) ** (n - 1 - i) for i in range(n)])
    steps = list(zip(weights, factor))[::-1]
    start = sum(w * f for w, f in steps)
    top = (cap + 1) * _shift(len(rows[0]) if rows else n, cap)
    unread = (cap + 1 - sum(factor)) * _shift(n, s.cap)
    out = {}, {}
    for k in (re.keys() | im.keys()) if im else re:
        if k >= unread:
            continue
        new, rest = start, k
        for w, f in steps:
            rest, x = divmod(rest, base)
            if x + f < 0:
                raise DivisionObstruction("term w^%r is not divisible by w^%r" % (
                    _unpack(k, n, base), tuple(-d for d in factor)))
            new += x * w
        if new < top:
            for part, acc in zip((re, im), out):
                if k in part:
                    acc[new] = acc.get(new, 0) + part[k]
    return _normal(den, *out)


def _monomial(m, nvars):
    """m as a tuple of nvars nonnegative integers."""
    m = tuple(map(int, m))
    if len(m) != nvars or min(m, default=0) < 0:
        raise PreconditionViolated("bad monomial %r for n = %d" % (m, nvars))
    return m


def _negate(form):
    den, re, im = form
    return den, {k: -v for k, v in re.items()}, {k: -v for k, v in im.items()}


def _add(fa, fb):
    da, ra, ia = fa
    db, rb, ib = fb
    if not ra and not ia:
        return fb
    if not rb and not ib:
        return fa
    den = math.lcm(da, db)
    sa, sb = den // da, den // db
    re = {k: v * sa for k, v in ra.items()}
    im = {k: v * sa for k, v in ia.items()}
    for k, v in rb.items():
        re[k] = re.get(k, 0) + v * sb
    for k, v in ib.items():
        im[k] = im.get(k, 0) + v * sb
    return _normal(den, re, im)


def _scale(form, c):
    """form times the Gaussian rational c."""
    cr, ci, cd = c.a, c.b, c.d
    den, r, i = form
    re = {k: v * cr for k, v in r.items()} if cr else {}
    im = {k: v * cr for k, v in i.items()} if cr else {}
    if ci:
        for k, v in i.items():
            re[k] = re.get(k, 0) - v * ci
        for k, v in r.items():
            im[k] = im.get(k, 0) + v * ci
    return _normal(den * cd, re, im)


def _convolve(out, a, b, cap, shift):
    """out += a * b on numerator dicts, dropping products above the cap."""
    if not a or not b:
        return
    if len(a) < len(b):
        a, b = b, a  # the bigger one in the outer loop
    get = out.get
    terms = sorted(b.items())  # by degree, since the degree digit leads
    upto = [0] * (cap + 2)  # upto[d + 1]: how many terms have degree <= d
    for k in b:
        upto[k // shift + 1] += 1
    for d in range(1, cap + 2):
        upto[d] += upto[d - 1]
    for ka, ca in a.items():
        for kb, cb in terms[:upto[cap - ka // shift + 1]]:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb


def _mul(fa, fb, cap, shift):
    da, ra, ia = fa
    db, rb, ib = fb
    re, im = {}, {}
    _convolve(re, ra, rb, cap, shift)
    if ia and ib:
        _convolve(re, ia, {k: -v for k, v in ib.items()}, cap, shift)
    _convolve(im, ra, ib, cap, shift)
    _convolve(im, ia, rb, cap, shift)
    return _normal(da * db, re, im)


def _pow(form, p, cap, shift):
    result = _ONE_FORM
    while p:
        if p & 1:
            result = form if result is _ONE_FORM else _mul(result, form, cap, shift)
        p >>= 1
        if p:
            form = _mul(form, form, cap, shift)
    return result


# -- operations ------------------------------------------------------------

def _check_pair(a, b):
    if a.nvars != b.nvars:
        raise PreconditionViolated("variable count mismatch")
    if a.cap != b.cap:
        raise PreconditionViolated("cap mismatch: %d vs %d" % (a.cap, b.cap))


def series_add(a, b):
    _check_pair(a, b)
    return TruncatedSeries._of_form(
        a.nvars, a.cap, _add(a._form, b._form)
    )


def series_scale(a, scalar):
    c = _as_scalar(scalar)
    return TruncatedSeries._of_form(a.nvars, a.cap, _scale(a._form, c))


def series_multiply(a, b):
    _check_pair(a, b)
    cap = a.cap
    return TruncatedSeries._of_form(
        a.nvars, cap,
        _mul(a._form, b._form, cap, _shift(a.nvars, cap)),
    )


def series_power(a, p):
    p = int(p)
    if p < 0:
        raise PreconditionViolated("negative powers need series_reciprocal")
    return TruncatedSeries._of_form(
        a.nvars, a.cap,
        _pow(a._form, p, a.cap, _shift(a.nvars, a.cap)),
    )


def series_compose(outer, inner, _power_cache=None):
    """outer(inner_1, ..., inner_m), truncated at the shared cap.

    Every inner series must have zero constant term, so truncation order is
    preserved.  Terms of `outer` above the cap cannot contribute and are
    ignored, which also lets polynomial outers stored at higher caps be
    substituted directly.  `_power_cache` maps an exponent vector e to the
    integer form of prod_i inner_i^e_i; callers that substitute the same
    inner series into several outers may share one.
    """
    if len(inner) != outer.nvars:
        raise PreconditionViolated(
            "outer has %d variables but %d inner series given"
            % (outer.nvars, len(inner))
        )
    if not inner:
        raise PreconditionViolated("need at least one inner series")
    tmpl = inner[0]
    for s in inner:
        if s.nvars != tmpl.nvars or s.cap != tmpl.cap:
            raise PreconditionViolated("inner series disagree on nvars/cap")
        if s.constant_term():
            raise PreconditionViolated("inner series must vanish at the origin")
    cap = tmpl.cap
    shift = _shift(tmpl.nvars, cap)
    forms = [s._form for s in inner]
    cache = {} if _power_cache is None else _power_cache
    m = outer.nvars

    def monomial(e):
        """prod_i inner_i^e_i: one product on top of a cached smaller one."""
        hit = cache.get(e)
        if hit is None:
            last = max(i for i, p in enumerate(e) if p)
            head = e[:last] + (e[last] - 1,) + e[last + 1:]
            if any(head):
                hit = _mul(monomial(head), forms[last], cap, shift)
            else:
                hit = forms[last]
            cache[e] = hit
        return hit

    oden, ore, oim = outer._form
    obase = outer.cap + 1
    oshift = _shift(m, outer.cap)
    terms = []
    for k in (ore.keys() | oim.keys()) if oim else ore:
        if k // oshift > cap:
            continue
        e = _unpack(k, m, obase)
        terms.append((ore.get(k, 0), oim.get(k, 0),
                      monomial(e) if k else _ONE_FORM))
    # one integer accumulator over the common denominator of every term
    den = math.lcm(*[f[0] for _, _, f in terms]) if terms else 1
    re, im = {}, {}
    for cr, ci, (d, fr, fi) in terms:
        s = den // d
        cr, ci = cr * s, ci * s
        if cr:
            for k, v in fr.items():
                re[k] = re.get(k, 0) + cr * v
            for k, v in fi.items():
                im[k] = im.get(k, 0) + cr * v
        if ci:
            for k, v in fr.items():
                im[k] = im.get(k, 0) + ci * v
            for k, v in fi.items():
                re[k] = re.get(k, 0) - ci * v
    return TruncatedSeries._of_form(
        tmpl.nvars, cap, _normal(den * oden, re, im)
    )


def series_reciprocal(u):
    """1/u for a unit u (nonzero constant term), solved online.

    Write u = N / den with Gaussian-integer numerators N = c + N', c the
    constant and N' of positive order, and 1/c = (ca + cb i) / q with q a
    positive integer.  The degree-d part Y_d of 1/N solves
    c Y_d = -sum_{j=1..d} N'_j Y_(d-j), N'_j the degree-j part of N', so
    V_d = q^(d+1) Y_d has Gaussian-integer numerators:

        V_0 = ca + cb i,
        V_d = -(ca + cb i) sum_{j=1..d} q^(j-1) N'_j V_(d-j),

    and 1/u = den sum_d q^(cap-d) V_d / q^(cap+1).  Each product of a term
    of N' with a term of V is formed once, and the sum is normalised once
    (the online solution of u y = 1, as in J. van der Hoeven, "Relax, but
    don't be too lazy", J. Symbolic Comput. 34 (2002)).
    """
    den, ur, ui = u._form
    a, b = ur.get(0, 0), ui.get(0, 0)  # key 0: the zero exponent
    if not a and not b:
        raise PreconditionViolated("reciprocal of a non-unit (zero constant term)")
    cap = u.cap
    shift = _shift(u.nvars, cap)
    q = a * a + b * b
    g = math.gcd(a, b, q)  # |a| for a real c, so ca = +-1 and q = |a|
    ca, cb, q = a // g, -b // g, q // g
    # the terms of N' by degree j, each scaled by q^(j-1)
    terms = [[] for _ in range(cap + 1)]
    for k in (ur.keys() | ui.keys()) if ui else ur:
        if k:
            j = k // shift
            s = q ** (j - 1)
            terms[j].append((k, ur.get(k, 0) * s, ui.get(k, 0) * s))
    vr, vi = [{0: ca}], [{0: cb} if cb else {}]  # V_d's numerators
    for d in range(1, cap + 1):
        sr, si = {}, {}
        rget, iget = sr.get, si.get
        for j in range(1, d + 1):
            pr, pi = vr[d - j], vi[d - j]
            for k, nr, ni in terms[j]:
                if nr:
                    for kv, v in pr.items():
                        kv += k
                        sr[kv] = rget(kv, 0) + nr * v
                    for kv, v in pi.items():
                        kv += k
                        si[kv] = iget(kv, 0) + nr * v
                if ni:
                    for kv, v in pi.items():
                        kv += k
                        sr[kv] = rget(kv, 0) - ni * v
                    for kv, v in pr.items():
                        kv += k
                        si[kv] = iget(kv, 0) + ni * v
        if cb:
            keys = sr.keys() | si.keys()
            vr.append({k: x for k in keys
                       if (x := cb * iget(k, 0) - ca * rget(k, 0))})
            vi.append({k: x for k in keys
                       if (x := -ca * iget(k, 0) - cb * rget(k, 0))})
        else:
            vr.append({k: -ca * x for k, x in sr.items() if x})
            vi.append({k: -ca * x for k, x in si.items() if x})
    re, im = {}, {}
    for d in range(cap + 1):
        s = den * q ** (cap - d)
        re.update({k: x * s for k, x in vr[d].items()})
        im.update({k: x * s for k, x in vi[d].items()})
    return TruncatedSeries._of_form(u.nvars, cap,
                                    _normal(q ** (cap + 1), re, im))


def monomial_divide(s, m):
    """Divide by the monomial w^m; the result's cap drops by |m|."""
    m = _monomial(m, s.nvars)
    cap = s.cap - sum(m)
    if cap < 0:
        raise PreconditionViolated("divisor degree exceeds cap")
    return TruncatedSeries._of_form(s.nvars, cap,
                                    _rekey(s, cap, [-x for x in m]))


def monomial_multiply(s, m, coeff=1):
    """Multiply by coeff * w^m; exact, so the cap grows by |m|."""
    m = _monomial(m, s.nvars)
    cap = s.cap + sum(m)
    return TruncatedSeries._of_form(
        s.nvars, cap, _scale(_rekey(s, cap, m), _as_scalar(coeff)))


def monomial_substitute(f, forward, cap):
    """f(z) with each z_j replaced by the monomial w^forward[j], truncated
    at cap; terms of f that land on one monomial are summed.  The terms of
    f are read as a polynomial, whatever f's cap, and forward is f.nvars
    nonzero rows of nonnegative integers, all of one length."""
    rows = _table_rows(tuple(map(tuple, forward)))
    if rows is None or len(rows) != f.nvars or cap < 0:
        raise PreconditionViolated("bad table %r for %d variables at cap %d"
                                   % (forward, f.nvars, cap))
    return TruncatedSeries._of_form(len(rows[0]), cap,
                                    _rekey(f, cap, rows=rows))


@functools.lru_cache(maxsize=256)
def _table_rows(forward):
    """The rows of a substitution table as _monomial tuples, or None when
    one is zero; checked once per distinct table, since lift passes the
    same chart table many times."""
    rows = tuple(_monomial(row, len(forward[0])) for row in forward)
    return rows if all(map(any, rows)) else None


def series_evaluate(s, point):
    """Evaluate at a point given as a sequence of values that multiply
    with Gaussian rationals."""
    if len(point) != s.nvars:
        raise PreconditionViolated("point dimension mismatch")
    total = None
    for e, c in s.coeffs.items():
        val = c
        for x, p in zip(point, e):
            if p:
                val = val * x ** p
        total = val if total is None else total + val
    if total is None:
        return QI_ZERO
    return total


class PolyMapGerm:
    """A germ fixing the origin: n series components in n variables."""

    __slots__ = ("n", "components")

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise PreconditionViolated("empty germ")
        tmpl = components[0]
        for s in components:
            if not isinstance(s, TruncatedSeries):
                raise PreconditionViolated("germ components must be series")
            if s.nvars != tmpl.nvars or s.cap != tmpl.cap:
                raise PreconditionViolated("germ components disagree on nvars/cap")
            if s.constant_term():
                raise PreconditionViolated("germ must fix the origin")
        if len(components) != tmpl.nvars:
            raise PreconditionViolated(
                "self-map needs as many components as variables"
            )
        self.n = len(components)
        self.components = components

    @property
    def cap(self):
        return self.components[0].cap

    def linear_matrix(self):
        n, cap = self.n, self.cap
        # the packed key of w_(j+1) is B**n + B**(n-1-j)
        keys = [_shift(n, cap) + (cap + 1) ** (n - 1 - j) for j in range(n)]
        return [[_of(re.get(k, 0), im.get(k, 0), den) for k in keys]
                for den, re, im in (s._form for s in self.components)]

    def quadratic_coefficient(self, j, h, k):
        """Symmetrized quadratic coefficient a^j_{hk} (1-based); the z_h z_k
        monomial coefficient equals 2 a^j_{hk} for h != k."""
        e = [0] * self.n
        e[h - 1] += 1
        e[k - 1] += 1
        c = self.components[j - 1].coefficient(e)
        if h != k:
            c = c / 2
        return c

    def compose(self, other):
        """self after other (self ∘ other)."""
        cache = {}
        comps = [
            series_compose(s, list(other.components), _power_cache=cache)
            for s in self.components
        ]
        return PolyMapGerm(comps)

    def truncated(self, cap):
        return PolyMapGerm([s.truncated(cap) for s in self.components])

    def as_polynomial_cap(self, cap):
        return PolyMapGerm([s.as_polynomial_cap(cap) for s in self.components])

    def __eq__(self, other):
        if not isinstance(other, PolyMapGerm):
            return NotImplemented
        return self.components == other.components

    def __repr__(self):
        return "PolyMapGerm(%s)" % ", ".join(repr(s) for s in self.components)


def _quadratic_matrices(g):
    """The symmetric matrices of the quadratic part of the germ g, one per
    component: m[j-1][h-1][k-1] is g.quadratic_coefficient(j, h, k)."""
    n = g.n
    mats = []
    for comp in g.components:
        q = [[QI_ZERO] * n for _ in range(n)]
        for e, c in comp.homogeneous_part(2).coeffs.items():
            h, k = [i for i, p in enumerate(e) for _ in range(p)]
            q[h][k] = q[k][h] = c if h == k else c / 2
        mats.append(tuple(map(tuple, q)))
    return tuple(mats)


def _as_germ(f):
    """The PolyMapGerm f, or the one an input germ wraps as f.map."""
    if isinstance(f, PolyMapGerm):
        return f
    inner = getattr(f, "map", None)
    if isinstance(inner, PolyMapGerm):
        return inner
    raise PreconditionViolated("expected a polynomial germ or an input germ")


def identity_germ(n, cap):
    return PolyMapGerm(
        [TruncatedSeries.variable(i + 1, n, cap) for i in range(n)]
    )


def germ_solve(chi, h):
    """The germ N with chi o N = h, at h's cap.

    chi is read as a polynomial, and its linear part T must be invertible;
    h must fix the origin.  Write chi = T + R, with R the terms of degree
    >= 2.  Then N = T^-1 (h - R o N), and the part of R o N of degree d
    reads only the terms of N below degree d.  So N starts as T^-1 h at
    cap 1, and pass d = 2..cap solves again at cap d, with the previous
    pass's N inside R.
    """
    n, cap = h.n, h.cap
    if chi.n != n:
        raise PreconditionViolated("variable count mismatch")
    tinv = invert_matrix(chi.linear_matrix())
    shift = _shift(n, chi.cap)
    rest = [
        TruncatedSeries._of_form(n, s.cap, _select(s._form,
                                                   lambda k: k >= 2 * shift))
        for s in chi.components
    ]
    N = None
    for d in range(1, cap + 1):
        rhs = [s.truncated(d)._form for s in h.components]
        if N is not None:
            inner = [s.as_polynomial_cap(d) for s in N]
            cache = {}
            rhs = [_add(f, _negate(series_compose(r, inner, cache)._form))
                   for f, r in zip(rhs, rest)]
        N = []
        for row in tinv:
            acc = _ZERO_FORM
            for c, f in zip(row, rhs):
                if c:
                    acc = _add(acc, _scale(f, c))
            N.append(TruncatedSeries._of_form(n, d, acc))
    return PolyMapGerm(N)


def germ_inverse(chi, cap=None):
    """Compositional inverse of a germ with invertible linear part, to the
    requested cap (default: chi's cap): germ_solve with h the identity."""
    if cap is None:
        cap = chi.cap
    return germ_solve(chi, identity_germ(chi.n, cap))
