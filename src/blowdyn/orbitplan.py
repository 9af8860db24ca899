"""Compiled fixed-point orbit engine.

A polynomial germ is compiled once into a monomial plan over
Gaussian-integer coefficients (OrbitPlan) and then into straight-line
integer code.  A point is a block-floating-point pair (exp, man): one
binary exponent and the integer mantissas man = (re_1, im_1, ..., re_n,
im_n), so that z_j = 2^exp (re_j + i im_j).  After every step it is
renormalised so that its largest mantissa has work = precision_bits +
ORBIT_GUARD_BITS bits, whether the orbit passes near zero or far out.  The
forward step (OrbitPlan.step, the image and the renormalisation in one
compiled function) and the Newton preimage step (OrbitPlan.preimage, the
seed, the image, the Jacobian and the unrolled elimination in one compiled
function) run on the same plan, and nothing is converted to a float.
mpmath appears only where a point enters (OrbitPlan.point) or leaves as
mpmath values (rounded_parts, mpc_point), and is imported only there, so
a command that runs none of them never loads it.  The orbit CSV is
spelled from the integers, one point at a time (decimal_speller), with
the working sizes of each binary order computed once; it calls mpmath's
to_str only for values more than 3500 binary orders from 1.

dynamics.orbit_iterate and dynamics.standard_orbit_seed are the public
entry points.
"""

import functools
import math
from fractions import Fraction

from .errors import NonConvergent, PreconditionViolated
from .exactalg import invert_matrix
from .scalars import GaussianRational

# Precision policy (declared, not derived):
ORBIT_GUARD_BITS = 32           # bits carried beyond precision_bits
PREIMAGE_TOL_BITS = 8           # Newton residual goal, in units of w's last bit
PREIMAGE_MAX_ITER = 40          # Newton steps per preimage
PLAN_LINE_TERMS = 64            # summands per line of compiled plan code


def _exact_parts(x, prec):
    """(re, im) of a scalar as exact Fractions.  Values mpmath holds
    (mpf, mpc, float, complex) are dyadic and convert without rounding;
    anything else goes through mpmath.mpc at `prec` bits."""
    if isinstance(x, GaussianRational):
        return x.re, x.im
    if isinstance(x, (int, Fraction)):
        return Fraction(x), Fraction(0)
    import mpmath

    with mpmath.workprec(prec):
        parts = mpmath.mpc(x)._mpc_
    out = []
    for sign, man, exp, bc in parts:
        if not man and bc:
            raise PreconditionViolated("orbit points must be finite")
        v = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
        out.append(-v if sign else v)
    return tuple(out)


def rounded_parts(pt, prec):
    """The mpmath value tuples (re_1, im_1, ..., re_n, im_n) of an engine
    point, rounded to prec bits."""
    import mpmath

    libmp = mpmath.libmp
    exp, man = pt
    return [libmp.from_man_exp(m, exp, prec, libmp.round_nearest)
            for m in man]


_LOG2_10 = math.log(10, 2)     # the float mpmath.libmp.to_digits_exp uses


def decimal_speller(prec, dps):
    """spell(exp, man): the list of mpmath.libmp.to_str(from_man_exp(m,
    exp, prec, round_nearest), dps) over the mantissas m of one point,
    computed on integers.

    The steps are to_str's, on each integer mantissa: round |m| to prec
    bits, half to even; take D = floor(|x| 10^fixdps) from the fixed-point
    floor(|x| 2^fixprec), with mpmath's working sizes; round D to dps
    digits, half up on its next digit; write them fixed or scientific.
    Everything that depends only on the binary order top of the rounded
    value is computed once per top: fixprec, fixdps and 10^fixdps, the
    power of ten that tells D's two possible digit counts apart, and for
    each count the rounding unit and the layout.  Rounding is one divmod
    by a power of ten, and str runs once per value, on the rounded
    dps-digit integer.  Values more than 3500 binary
    orders from 1 are left to to_str, which rescales them by a power of
    ten first."""
    bitprec = int((dps + 3) * _LOG2_10) + 10
    min_fixed = min(-(dps // 3), -5)
    carried = 10 ** dps
    orders = {}                 # top -> its fixed-point sizes

    def layout(exponent, k):
        """(10^k, 10^k / 2, exponent, split, prefix, sign prefix, suffix)
        for a D of decimal exponent `exponent` with k digits past dps to
        round off: `split` digits go before the point, after the prefix
        (split 0 writes 0.<zeros><digits>), and the suffix follows."""
        if min_fixed < exponent < dps:
            if exponent < 0:
                split, prefix, suffix = 0, "0." + "0" * (-exponent - 1), ""
            else:
                split, prefix, suffix = exponent + 1, "", ""
        else:
            split, prefix, suffix = 1, "", "e%+d" % exponent
        if k <= 0:
            return None, None, exponent, split, prefix, "-" + prefix, suffix
        return (10 ** k, 5 * 10 ** (k - 1), exponent, split, prefix,
                "-" + prefix, suffix)

    def order(top):
        """fixprec, 10^fixdps, the power of ten between D's two possible
        digit counts, and the layout for each count."""
        if top > 3500 or top < -3500:
            return None
        fixprec = bitprec - top if bitprec > top else 0
        fixdps = int(fixprec / _LOG2_10 + 0.5)
        ten = 10 ** fixdps
        # 2^(top-1) <= |x| < 2^top, so D spans at most a factor of two
        digits = len(str((ten << (top - 1 + fixprec)) >> fixprec))
        entry = orders[top] = (fixprec, ten, 10 ** digits,
                               layout(digits - fixdps - 1, digits - dps),
                               layout(digits - fixdps, digits + 1 - dps))
        return entry

    def spell(exp, man):
        out = []
        append = out.append
        for m in man:
            if not m:
                append("0.0")
                continue
            a = -m if m < 0 else m
            e = exp
            n = a.bit_length() - prec
            if n > 0:
                t = a >> (n - 1)
                if t & 1 and (t & 2 or a & ((1 << (n - 1)) - 1)):
                    a = (t >> 1) + 1
                else:
                    a = t >> 1
                e += n
            top = e + a.bit_length()
            sizes = orders.get(top) or order(top)
            if sizes is None:
                from mpmath.libmp import from_man_exp, round_nearest, to_str

                append(to_str(from_man_exp(m, exp, prec, round_nearest), dps))
                continue
            fixprec, ten, above, low, high = sizes
            shift = e + fixprec
            if shift >= 0:
                # exact fixed point: floor(|x| 10^fixdps) in one shift
                d = a * ten << e if e >= 0 else a * ten >> -e
            else:
                d = (a >> -shift) * ten >> fixprec
            unit, half, exponent, split, prefix, minus, suffix = \
                high if d >= above else low
            if unit is not None:
                d, rest = divmod(d, unit)
                if rest >= half:
                    d += 1
                    if d == carried:        # 99...9 carried into 100...0
                        d //= 10
                        _, _, exponent, split, prefix, minus, suffix = \
                            layout(exponent + 1, 0)
            digits = str(d)
            if m < 0:
                prefix = minus
            if split:
                append("%s%s.%s%s" % (prefix, digits[:split],
                                      digits[split:].rstrip("0") or "0",
                                      suffix))
            else:
                append(prefix + digits.rstrip("0"))
        return out
    return spell


def mpc_point(parts):
    """The tuple of mpc coordinates with the given (re, im) value tuples."""
    import mpmath

    make = mpmath.mp.make_mpc
    return tuple(make(pair) for pair in zip(parts[::2], parts[1::2]))


def _renormalize(exp, man, work):
    """The point 2^exp man rescaled so that its largest mantissa has
    `work` bits (rounding toward -infinity).  The zero point gets the
    exponent of a point of size about 1."""
    s = max(map(int.bit_length, man)) - work
    if s == -work:
        return -work, tuple(man)
    if s > 0:
        return exp + s, tuple(m >> s for m in man)
    return exp + s, tuple(m << -s for m in man)


def _fixed(num, den, scale):
    """round(num / den * 2^scale) for integers num and den > 0."""
    return ((num << (scale + 1)) // den + 1) >> 1


def radius_test(radius):
    """Predicate on points: is some |z_j| > radius?  Decided exactly,
    on the exact rational value of `radius`.  Its attribute `safe` is the
    largest integer with 2^safe <= radius.  A point whose mantissas are
    at most 2^(safe - exp - 1) in absolute value is inside, so a
    renormalised point, whose mantissas are at most 2^work, needs the
    test only when exp > safe - work - 1."""
    try:
        r = Fraction(radius)
    except (OverflowError, ValueError, TypeError):
        r = None
    if r is None or r <= 0:
        raise PreconditionViolated("radius must be finite and positive")
    rn2, rd2 = r.numerator ** 2, r.denominator ** 2
    safe = r.numerator.bit_length() - r.denominator.bit_length()
    while Fraction(2) ** safe > r:
        safe -= 1

    def outside(pt):
        exp, man = pt
        if max(map(int.bit_length, man)) + exp + 1 <= safe:
            return False
        sq = max(x * x + y * y for x, y in zip(man[::2], man[1::2]))
        if exp >= 0:
            return (sq * rd2) << (2 * exp) > rn2
        return sq * rd2 > rn2 << (-2 * exp)
    outside.safe = safe
    return outside


class OrbitPlan:
    """A polynomial germ compiled for block-floating-point evaluation.

    Every coefficient is a Gaussian integer (re, im) at the declared scale
    2^-scale, chosen so that the smallest nonzero coefficient part keeps
    work = precision_bits + ORBIT_GUARD_BITS significant bits; dyadic
    coefficients, such as the Jordan part's, are exact.  The monomial
    plan lists the variables, the constant 1, and each product that the
    germ's terms and their partial derivatives need, built as a smaller
    monomial times one variable; every component and every Jacobian entry
    is a sum of (degree, [(slot, re, im), ...]) groups over it.

    The plan is compiled into straight-line integer code (_plan_source).
    Its image code gives F at the point 2^exp m on the grid
    2^(exp - work), and its Jacobian code gives DF there, as the matrices
    of real and of imaginary parts at scale 2^-scale.  Each degree's
    exact sum is rounded once (toward -infinity) onto that grid.  The
    grid lies work bits below the point's own last bit, so F(z) loses
    nothing at the point's precision unless |F(z)| < 2^-work |z|.
    step(exp, m) is the forward step: the image, renormalised inline as
    _renormalize does it, returned as a new point (exp, man).
    preimage(w, step) is the Newton preimage step, with the image and
    Jacobian code inlined.  step is compiled with the plan (its code is
    `source`); preimage, which only standard_orbit_seed needs, is
    compiled the first time it is read, once per plan.
    """

    def __init__(self, g, precision_bits):
        n = self.n = g.n
        work = self.work = precision_bits + ORBIT_GUARD_BITS
        terms = [(j, e, c) for j, comp in enumerate(g.components)
                 for e, c in sorted(comp.coeffs.items())]
        mags = [p.bit_length() - c.d.bit_length()
                for _, _, c in terms for p in (c.a, c.b) if p]
        scale = self.scale = work + max(0, -min(mags, default=0)) + 1
        products = {}           # slot -> (parent slot, variable)
        slots = {tuple(int(i == h) for h in range(n)): i for i in range(n)}
        slots[(0,) * n] = n

        def slot(e):
            k = slots.get(e)
            if k is None:
                i = max(h for h in range(n) if e[h])
                parent = slot(e[:i] + (e[i] - 1,) + e[i + 1:])
                k = slots[e] = n + 1 + len(products)
                products[k] = (parent, i)
            return k

        comps = [{} for _ in range(n)]
        jac = [[{} for _ in range(n)] for _ in range(n)]
        for j, e, c in terms:
            cr, ci = _fixed(c.a, c.d, scale), _fixed(c.b, c.d, scale)
            comps[j].setdefault(sum(e), []).append((slot(e), cr, ci))
            for i in range(n):
                if e[i]:
                    de = e[:i] + (e[i] - 1,) + e[i + 1:]
                    jac[j][i].setdefault(sum(de), []).append(
                        (slot(de), e[i] * cr, e[i] * ci))
        self._tables = (n, work, scale, products, comps, jac)
        self.source = _plan_source(*self._tables, "step")
        self.step = _compiled(self.source, "step")
        self._jordan = g.linear_matrix()

    def point(self, z):
        """Engine form of a point given by scalars of any supported kind."""
        parts = [q for x in z for q in _exact_parts(x, self.work)]
        mags = [q.numerator.bit_length() - q.denominator.bit_length()
                for q in parts if q]
        exp = max(mags, default=0) - self.work - 1   # then shifted right
        man = [(q.numerator << -exp) // q.denominator if exp <= 0
               else q.numerator // (q.denominator << exp) for q in parts]
        return _renormalize(exp, man, self.work)

    @functools.cached_property
    def _linear(self):
        """J^-1 for the germ's exact linear part J, inverted exactly, as
        rows of (column, re, im) at scale 2^-scale, and the bits by which
        |J| (the largest row sum of its rounded entries) may exceed 1."""
        sc = self.scale

        def fixed(x):
            return _fixed(x.a, x.d, sc), _fixed(x.b, x.d, sc)
        norm = max(sum(abs(r) + abs(i) for r, i in map(fixed, row))
                   for row in self._jordan)
        rows = [[(i, *p) for i, p in enumerate(map(fixed, row)) if any(p)]
                for row in invert_matrix(self._jordan)]
        return rows, max(0, norm.bit_length() - sc)

    @functools.cached_property
    def preimage(self):
        """preimage(w, step): the point z near w with F(z) = w, by
        Newton's method.

        The seed is the first Jordan back-substitution J^-1 (w - H(w)),
        with H the nonlinear part.  The iterates share one exponent, as
        many bits below w's as |J| exceeds 1, so that their last bit moves
        F by at most one unit of w's last bit.  Each Newton step must at
        least halve the residual F(z) - w, which is done once it is within
        2^PREIMAGE_TOL_BITS units of w's last bit; otherwise, or after
        PREIMAGE_MAX_ITER steps, NonConvergent is raised with `step`.
        The whole step is one compiled function (see _plan_source)."""
        return _compiled(_plan_source(*self._tables, "preimage",
                                      self._linear), "preimage")


def _compiled(source, name):
    """The function `name` that the plan source defines."""
    space = {"NonConvergent": NonConvergent}
    exec(compile(source, "<orbit plan>", "exec"), space)
    return space[name]


def _plan_source(n, work, scale, products, comps, jac, function,
                 linear=None):
    """Python source of one plan function: image, step, jacobian or
    preimage (which takes the plan's _linear as `linear`).

    Slot k's value is x<k> + i y<k>; slot n is the constant 1 and is
    folded into the coefficients.  Only the slots a function reads are
    computed, and zero coefficient parts are left out."""

    def needed(groups):
        out = set()
        for _, terms in groups:
            for k, _, _ in terms:
                while k > n:
                    out.add(k)
                    k = products[k][0]
        return out

    def table(slots):
        lines = []
        for k in sorted(slots):
            p, i = products[k]
            lines.append("    x%d = x%d * x%d - y%d * y%d"
                         % (k, p, i, p, i))
            lines.append("    y%d = x%d * y%d + y%d * x%d"
                         % (k, p, i, p, i))
        return lines

    def times(cr, ci, x, y, im):
        """Summands of the real or imaginary part of (cr + i ci)(x + i y)
        for integer constants cr, ci."""
        pairs = [(cr, y), (ci, x)] if im else [(cr, x), (-ci, y)]
        return ["%d * %s" % (c, v) for c, v in pairs if c]

    def part(terms, im):
        """Summands of the real or imaginary part of sum c v_slot."""
        out = []
        for k, cr, ci in terms:
            if k == n:
                c = ci if im else cr
                out += ["%d" % c] if c else []
            else:
                out += times(cr, ci, "x%d" % k, "y%d" % k, im)
        return out

    def assign(name, summands):
        """Lines setting name to the sum, PLAN_LINE_TERMS summands a line
        (one long expression would nest too deep for the compiler)."""
        if not summands:
            return ["    %s = 0" % name]
        return ["    %s %s %s" % (name, "+=" if i else "=", " + ".join(
            summands[i:i + PLAN_LINE_TERMS]))
            for i in range(0, len(summands), PLAN_LINE_TERMS)]

    def rounded(groups, name, im, const=(), fixed=None, shift="s"):
        """Lines setting `name` to the constant terms plus the sum of the
        groups, each degree's exact sum shifted right by <shift><degree>
        (left when that is negative); degree 1's shift is the constant
        `fixed` when that is given."""
        lines = assign(name, part(const, im))
        for d, terms in groups:
            lines += assign("a", part(terms, im))
            if d == 1 and fixed is not None:
                lines.append("    %s += a >> %d" % (name, fixed))
            else:
                lines.append("    %s += a >> %s%d if %s%d >= 0 else a << -%s%d"
                             % (name, shift, d, shift, d, shift, d))
        return lines

    def renormalized(values, at):
        """Lines returning the point of mantissas `values` renormalised as
        _renormalize does it, with exponent `at` (an expression in s); the
        largest bit length is that of the OR of the absolute values."""
        def mantissas(fmt):
            return "(%s,)" % ", ".join(fmt % v for v in values)
        return ["    s = (%s).bit_length() - %d" % (
                    " | ".join("abs(%s)" % v for v in values), work),
                "    if s > 0:",
                "        return %s, %s" % (at, mantissas("%s >> s")),
                "    if s == -%d:" % work,
                "        return -%d, %s" % (work, mantissas("%s")),
                "    return %s, %s" % (at, mantissas("%s << -s"))]

    unpack = "    %s = m" % ", ".join("x%d, y%d" % (i, i) for i in range(n))
    # the image: degree d's sum is shifted by scale - work - (d - 1) exp;
    # for d = 1 that is the constant scale - work > 0
    groups = [g for row in comps for g in row.values()]
    image_shifts = ["    s%d = %d - %d * exp" % (d, scale - work, d - 1)
                    for d in sorted({d for row in comps for d in row} - {1})]
    image_slots = needed([(0, t) for t in groups])
    image = table(image_slots)
    for j, row in enumerate(comps):
        items = sorted(row.items())
        image += (rounded(items, "r%d" % j, False, fixed=scale - work)
                  + rounded(items, "i%d" % j, True, fixed=scale - work))
    parts = [v for j in range(n) for v in ("r%d" % j, "i%d" % j)]

    if function == "image":
        src = ["def image(m, exp, target):", unpack] + image_shifts + image
        src.append("    return [%s]" % ", ".join(
            "%s - target[%d]" % (v, k) for k, v in enumerate(parts)))
        return "\n".join(src) + "\n"
    if function == "step":
        src = ["def step(exp, m):", unpack] + image_shifts + image
        src += renormalized(parts, "exp + s - %d" % work)
        return "\n".join(src) + "\n"

    # the Jacobian: entry (j, i) of degree d is shifted by t<d> = -d exp
    entries = [g for row in jac for entry in row for g in entry.items()
               if g[0]]
    jacobian_shifts = ["    t%d = %d * exp" % (d, -d)
                       for d in sorted({d for d, _ in entries})]
    entry = [[("re%d_%d" % (j, i), "im%d_%d" % (j, i)) for i in range(n)]
             for j in range(n)]

    def jacobian(known):
        """Lines setting every entry; slots in `known` are already set."""
        lines = table(needed(entries) - known)
        for j in range(n):
            for i in range(n):
                const = jac[j][i].get(0, [])
                rest = sorted((d, t) for d, t in jac[j][i].items() if d)
                for im in (0, 1):
                    lines += rounded(rest, entry[j][i][im], im, const,
                                     shift="t")
        return lines

    if function == "jacobian":
        src = (["def jacobian(m, exp):", unpack] + jacobian_shifts
               + jacobian(set()))
        for im in (0, 1):
            src.append("    %s = [%s]" % ("mi" if im else "mr", ", ".join(
                "[%s]" % ", ".join(v[im] for v in row) for row in entry)))
        src.append("    return mr, mi")
        return "\n".join(src) + "\n"

    # preimage: the iterate z is x0 + i y0, ..., the slots of the variables;
    # w is kept on the image grid as w<k>, and e<k> is the residual F(z) - w
    back, gain = linear
    sc, half = scale, 1 << (work - 1)
    point = [v for i in range(n) for v in ("x%d" % i, "y%d" % i)]
    res = [("e%d" % (2 * j), "e%d" % (2 * j + 1)) for j in range(n)]
    residual = ["    e%d = %s - w%d" % (k, v, k) for k, v in enumerate(parts)]
    src = ["def preimage(w, step):", "    exp, m = w", unpack]
    if gain:
        src.append("    exp -= %d" % gain)
        src += ["    %s <<= %d" % (v, gain) for v in point]
    src += ["    w%d = %s << %d" % (k, v, work) for k, v in enumerate(point)]
    src += image_shifts + jacobian_shifts + image
    # the seed: z = w - J^-1 (F(w) - w), the residual rounded to w's grid
    src += ["    e%d = (%s - w%d + %d) >> %d" % (k, v, k, half, work)
            for k, v in enumerate(parts)]
    for j, row in enumerate(back):
        for im in (0, 1):
            src.append("    %s -= %s" % (point[2 * j + im], " + ".join(
                "((%s) >> %d)" % (" + ".join(times(cr, ci, *res[i], im)), sc)
                for i, cr, ci in row)))
    loop = image + residual
    loop.append("    size = (%s).bit_length()"
                % " | ".join("abs(e%d)" % k for k in range(2 * n)))
    loop.append("    if size <= %d:" % (work + gain + PREIMAGE_TOL_BITS))
    loop += ["    " + line for line in renormalized(point, "exp + s")]
    loop += ["    if last is not None and size > last - 1:",
             "        raise NonConvergent(%r, step=step)"
             % "preimage Newton iteration stopped contracting",
             "    last = size"]
    loop += jacobian(image_slots)
    loop += ["    e%d = (e%d + %d) >> %d" % (k, k, half, work)
             for k in range(2 * n)]
    # DF(z) d = e by Gaussian elimination with partial pivoting, the pivot
    # row swapped in by one tuple assignment; multipliers and the pivot
    # reciprocals u<k> are held at scale 2^-scale
    for k in range(n):
        pr, pi = entry[k][k]
        loop.append("    den = %s * %s + %s * %s" % (pr, pr, pi, pi))
        if k < n - 1:
            loop.append("    p = %d" % k)
        for q in range(k + 1, n):
            x, y = entry[q][k]
            loop += ["    mag = %s * %s + %s * %s" % (x, x, y, y),
                     "    if mag > den:",
                     "        p, den = %d, mag" % q]
        loop += ["    if not den:",
                 "        raise NonConvergent(%r, step=step)"
                 % "singular Jacobian in the preimage Newton iteration"]

        def row(q):
            return [v for c in range(k, n) for v in entry[q][c]] + [*res[q]]
        for q in range(k + 1, n):
            loop += ["    %s p == %d:" % ("elif" if q > k + 1 else "if", q),
                     "        %s = %s" % (", ".join(row(k) + row(q)),
                                          ", ".join(row(q) + row(k)))]
        loop += ["    ur%d = (%s << %d) // den" % (k, pr, 2 * sc),
                 "    ui%d = (-%s << %d) // den" % (k, pi, 2 * sc)]
        for q in range(k + 1, n):
            x, y = entry[q][k]
            loop += ["    mr = (%s * ur%d - %s * ui%d) >> %d"
                     % (x, k, y, k, sc),
                     "    mi = (%s * ui%d + %s * ur%d) >> %d"
                     % (x, k, y, k, sc)]
            pairs = [(entry[k][c], entry[q][c]) for c in range(k + 1, n)]
            for (xr, xi), (tr, ti) in pairs + [(res[k], res[q])]:
                loop += ["    %s -= (mr * %s - mi * %s) >> %d"
                         % (tr, xr, xi, sc),
                         "    %s -= (mr * %s + mi * %s) >> %d"
                         % (ti, xi, xr, sc)]
    for k in range(n - 1, -1, -1):
        tr, ti = res[k]
        for c in range(k + 1, n):
            xr, xi = entry[k][c]
            loop += ["    %s -= (%s * dr%d - %s * di%d) >> %d"
                     % (tr, xr, c, xi, c, sc),
                     "    %s -= (%s * di%d + %s * dr%d) >> %d"
                     % (ti, xr, c, xi, c, sc)]
        loop += ["    dr%d = (%s * ur%d - %s * ui%d) >> %d"
                 % (k, tr, k, ti, k, sc),
                 "    di%d = (%s * ui%d + %s * ur%d) >> %d"
                 % (k, tr, k, ti, k, sc)]
    loop += ["    x%d -= dr%d" % (k, k) for k in range(n)]
    loop += ["    y%d -= di%d" % (k, k) for k in range(n)]
    src += ["    last = None",
            "    for _ in range(%d):" % PREIMAGE_MAX_ITER]
    src += ["    " + line for line in loop]
    src.append("    raise NonConvergent(%r, step=step)"
               % "preimage Newton iteration stalled")
    return "\n".join(src) + "\n"
