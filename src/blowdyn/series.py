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

Series are never mutated after construction.  Each operation normalises
its result once (zero numerators dropped, the content shared with `den`
divided out), so equal series have equal integer forms.  The public
`coeffs` view, {exponent tuple: GaussianRational}, is built from the
integer form on first use and cached, as the integer form of a series
built from coefficients is.
"""

import math

from .errors import DivisionObstruction, PreconditionViolated
from .scalars import QI_ONE, QI_ZERO, _as_scalar, _of

__all__ = [
    "TruncatedSeries",
    "PolyMapGerm",
    "series_add",
    "series_multiply",
    "series_compose",
    "series_reciprocal",
    "monomial_divide",
    "monomial_multiply",
    "series_evaluate",
    "germ_inverse",
]

# integer forms (den, re, im); their dicts are never mutated once built
_ZERO_FORM = (1, {}, {})
_ONE_FORM = (1, {0: 1}, {})  # key 0 is the zero exponent at every cap


class TruncatedSeries:
    __slots__ = ("nvars", "cap", "_coeffs", "_form")

    def __init__(self, nvars, cap, coeffs=None, _canonical=False):
        self.nvars = int(nvars)
        self.cap = int(cap)
        self._form = None
        if self.cap < 0:
            raise PreconditionViolated("negative degree cap")
        if coeffs is None:
            self._coeffs = {}
        elif _canonical:
            self._coeffs = coeffs
        else:
            clean = {}
            for e, c in coeffs.items():
                e = tuple(int(x) for x in e)
                if len(e) != self.nvars or any(x < 0 for x in e):
                    raise PreconditionViolated("bad multi-index %r" % (e,))
                if sum(e) > self.cap:
                    raise PreconditionViolated(
                        "multi-index %r above cap %d" % (e, self.cap)
                    )
                c = _as_scalar(c)
                if c:
                    clean[e] = c
            self._coeffs = clean

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

    def _int_form(self):
        f = self._form
        if f is None:
            f = self._form = _form_of(self._coeffs, self.cap)
        return f

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nvars, cap):
        return cls(nvars, cap, {}, _canonical=True)

    @classmethod
    def constant(cls, value, nvars, cap):
        c = _as_scalar(value)
        if not c:
            return cls.zero(nvars, cap)
        return cls(nvars, cap, {(0,) * nvars: c}, _canonical=True)

    @classmethod
    def variable(cls, i, nvars, cap):
        """The coordinate w_i (1-based)."""
        if not 1 <= i <= nvars:
            raise PreconditionViolated("variable index out of range")
        if cap < 1:
            raise PreconditionViolated("cap too small to hold a variable")
        e = [0] * nvars
        e[i - 1] = 1
        return cls(nvars, cap, {tuple(e): QI_ONE}, _canonical=True)

    @classmethod
    def monomial(cls, exps, nvars, cap, coeff=1):
        e = tuple(int(x) for x in exps)
        c = _as_scalar(coeff)
        if not c:
            return cls.zero(nvars, cap)
        return cls(nvars, cap, {e: c})

    # -- inspection -----------------------------------------------------

    def coefficient(self, exps):
        e = tuple(exps)
        if len(e) != self.nvars or min(e, default=0) < 0 or sum(e) > self.cap:
            return QI_ZERO  # no stored term has this exponent
        den, re, im = self._int_form()
        k = _pack(e, self.cap + 1)
        return _of(re.get(k, 0), im.get(k, 0), den)

    def constant_term(self):
        return self.coefficient((0,) * self.nvars)

    def low_degree(self):
        """Smallest total degree with a nonzero term; None for the zero series."""
        _, re, im = self._int_form()
        if not re and not im:
            return None
        return min(re.keys() | im.keys()) // _shift(self.nvars, self.cap)

    def homogeneous_part(self, d):
        shift = _shift(self.nvars, self.cap)
        return TruncatedSeries._of_form(
            self.nvars, self.cap,
            _select(self._int_form(), lambda k: k // shift == d),
        )

    def is_zero(self):
        _, re, im = self._int_form()
        return not re and not im

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        if self.cap != other.cap:
            return self.coeffs == other.coeffs
        return self._int_form() == other._int_form()

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
            self.nvars, self.cap, _negate(self._int_form())
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
        if cap == self.cap:
            return self  # series are immutable
        return TruncatedSeries._of_form(
            self.nvars, cap,
            _rekey(self, cap, lambda e: e if sum(e) <= cap else None),
        )


# -- the integer form ------------------------------------------------------

def _shift(nvars, cap):
    """Weight of the degree digit in a packed key."""
    return (cap + 1) ** nvars


def _pack(e, base):
    k = sum(e)
    for x in e:
        k = k * base + x
    return k


def _unpack(k, nvars, base):
    e = [0] * nvars
    for i in range(nvars - 1, -1, -1):
        k, e[i] = divmod(k, base)
    return tuple(e)


def _form_of(coeffs, cap):
    if not coeffs:
        return _ZERO_FORM
    den = math.lcm(*[c.d for c in coeffs.values()])
    base = cap + 1
    re, im = {}, {}
    for e, c in coeffs.items():
        k = _pack(e, base)
        s = den // c.d
        if c.a:
            re[k] = c.a * s
        if c.b:
            im[k] = c.b * s
    return den, re, im


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


def _rekey(s, cap, move):
    """s's integer form re-packed at `cap`, each exponent e moved to
    move(e); terms with move(e) None are dropped."""
    den, re, im = s._int_form()
    old, new = s.cap + 1, cap + 1
    keys = {}
    for k in (re.keys() | im.keys()) if im else re:
        e = move(_unpack(k, s.nvars, old))
        if e is not None:
            keys[k] = _pack(e, new)
    return _normal(den, {keys[k]: v for k, v in re.items() if k in keys},
                   {keys[k]: v for k, v in im.items() if k in keys})


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
        a.nvars, a.cap, _add(a._int_form(), b._int_form())
    )


def series_scale(a, scalar):
    c = _as_scalar(scalar)
    return TruncatedSeries._of_form(a.nvars, a.cap, _scale(a._int_form(), c))


def series_multiply(a, b):
    _check_pair(a, b)
    cap = a.cap
    return TruncatedSeries._of_form(
        a.nvars, cap,
        _mul(a._int_form(), b._int_form(), cap, _shift(a.nvars, cap)),
    )


def series_power(a, p):
    p = int(p)
    if p < 0:
        raise PreconditionViolated("negative powers need series_reciprocal")
    return TruncatedSeries._of_form(
        a.nvars, a.cap,
        _pow(a._int_form(), p, a.cap, _shift(a.nvars, a.cap)),
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
    forms = [s._int_form() for s in inner]
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

    oden, ore, oim = outer._int_form()
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
    c0 = u.constant_term()
    if not c0:
        raise PreconditionViolated("reciprocal of a non-unit (zero constant term)")
    cap = u.cap
    shift = _shift(u.nvars, cap)
    inv_c0 = QI_ONE / c0
    # u = c0 (1 - t) with t of positive order; 1/u = (1/c0) sum t^m
    t = _select(_scale(u._int_form(), -inv_c0), bool)  # drops the constant -1
    acc = p = _ONE_FORM
    for _ in range(cap):
        p = _mul(p, t, cap, shift)
        if not p[1] and not p[2]:
            break
        acc = _add(acc, p)
    return TruncatedSeries._of_form(u.nvars, cap, _scale(acc, inv_c0))


def monomial_divide(s, m):
    """Divide by the monomial w^m; the result's cap drops by |m|."""
    m = tuple(int(x) for x in m)
    if len(m) != s.nvars or any(x < 0 for x in m):
        raise PreconditionViolated("bad divisor multi-index %r" % (m,))
    deg = sum(m)
    if deg > s.cap:
        raise PreconditionViolated("divisor degree exceeds cap")

    def move(e):
        q = tuple(x - y for x, y in zip(e, m))
        if any(x < 0 for x in q):
            raise DivisionObstruction(
                "term w^%r is not divisible by w^%r" % (e, m)
            )
        return q

    return TruncatedSeries._of_form(s.nvars, s.cap - deg,
                                    _rekey(s, s.cap - deg, move))


def monomial_multiply(s, m, coeff=1):
    """Multiply by coeff * w^m; exact, so the cap grows by |m|."""
    m = tuple(int(x) for x in m)
    cap = s.cap + sum(m)
    moved = _rekey(s, cap, lambda e: tuple(x + y for x, y in zip(e, m)))
    return TruncatedSeries._of_form(s.nvars, cap,
                                    _scale(moved, _as_scalar(coeff)))


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
        n = self.n
        out = []
        for s in self.components:
            row = []
            for j in range(n):
                e = [0] * n
                e[j] = 1
                row.append(s.coefficient(e))
            out.append(row)
        return out

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


def germ_inverse(chi, cap=None):
    """Compositional inverse of a germ with invertible linear part, to the
    requested cap (default: chi's cap).  Degree-by-degree correction."""
    from .exactalg import invert_matrix

    if cap is None:
        cap = chi.cap
    n = chi.n
    L = chi.linear_matrix()
    Linv = invert_matrix(L)
    # start from the inverse linear part
    comps = []
    for i in range(n):
        coeffs = {}
        for j in range(n):
            if Linv[i][j]:
                e = [0] * n
                e[j] = 1
                coeffs[tuple(e)] = Linv[i][j]
        comps.append(TruncatedSeries(n, cap, coeffs=coeffs, _canonical=True))
    g = PolyMapGerm(comps)
    ident = identity_germ(n, cap)
    chi_cap = chi.as_polynomial_cap(cap)
    for _ in range(2, cap + 1):
        resid = [
            a - b for a, b in zip(chi_cap.compose(g).components, ident.components)
        ]
        if all(r.is_zero() for r in resid):
            break
        corr = []
        for i in range(n):
            acc = TruncatedSeries.zero(n, cap)
            for j in range(n):
                if Linv[i][j]:
                    acc = series_add(acc, series_scale(resid[j], Linv[i][j]))
            corr.append(acc)
        g = PolyMapGerm([a - b for a, b in zip(g.components, corr)])
    return g
