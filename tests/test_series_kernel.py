"""Cross-checks of the integer-numerator series kernel against schoolbook
Gaussian-rational arithmetic written out here, on seeded random series."""

import math
import random
from fractions import Fraction

import pytest

from blowdyn.blowup import projection_formulas
from blowdyn.errors import DivisionObstruction, PreconditionViolated
from blowdyn.partition import build_structure
from blowdyn.scalars import QI_ONE, GaussianRational
from blowdyn.series import (
    _ONE_FORM,
    TruncatedSeries,
    _add,
    _mul,
    _normal,
    _pack,
    _scale,
    _select,
    _shift,
    _unpack,
    monomial_divide,
    monomial_multiply,
    monomial_substitute,
    series_compose,
    series_multiply,
    series_power,
    series_reciprocal,
)

from conftest import TOWER_SHAPES

ZERO = GaussianRational(0)
PRIMES = [101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157]


def rand_exponent(rng, nvars, cap, low):
    """A random multi-index of total degree in [low, cap]."""
    d = rng.randint(low, cap)
    cuts = sorted(rng.randint(0, d) for _ in range(nvars - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))


def rand_scalar(rng, kind):
    def part():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 8))

    if kind == "real":
        return GaussianRational(part())
    if kind == "imaginary":
        return GaussianRational(0, part())
    if kind == "coprime":  # every term brings a new prime denominator
        return GaussianRational(Fraction(rng.randint(1, 50), rng.choice(PRIMES)),
                                Fraction(rng.randint(-50, 50), rng.choice(PRIMES)))
    return GaussianRational(part(), part())


def rand_coeffs(rng, nvars, cap, terms, kind="complex", low=0):
    """Up to `terms` random terms (repeated multi-indices collapse)."""
    return {rand_exponent(rng, nvars, cap, low): rand_scalar(rng, kind)
            for _ in range(terms)}


def series(nvars, cap, coeffs):
    return TruncatedSeries(nvars, cap, coeffs=coeffs)


# -- schoolbook reference -------------------------------------------------

def ref_mul(a, b, cap):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= cap:
                out[e] = out.get(e, ZERO) + ca * cb
    return {e: c for e, c in out.items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, ZERO) + c
    return {e: c for e, c in out.items() if c}


def ref_pow(a, p, nvars, cap):
    out = {(0,) * nvars: GaussianRational(1)}
    for _ in range(p):
        out = ref_mul(out, a, cap)
    return out


def assert_canonical(s):
    """No stored zero, nothing above the cap, and the integer form's
    denominator is the lcm of every part's denominator."""
    assert all(c for c in s.coeffs.values())
    assert all(sum(e) <= s.cap for e in s.coeffs)
    den, re, im = s._form
    assert 0 not in re.values() and 0 not in im.values()
    parts = [q.denominator for c in s.coeffs.values() for q in (c.re, c.im)]
    assert den == math.lcm(1, *parts)


# -- products -------------------------------------------------------------

CASES = [(nvars, cap, kind)
         for nvars in range(1, 7)
         for cap, kind in ((2, "real"), (5, "complex"), (10, "imaginary"),
                           (7, "coprime"))]


@pytest.mark.parametrize("nvars,cap,kind", CASES)
def test_multiply_matches_schoolbook(nvars, cap, kind):
    rng = random.Random(1000 * nvars + cap)
    for _ in range(4):
        a = rand_coeffs(rng, nvars, cap, rng.randint(0, 12), kind)
        b = rand_coeffs(rng, nvars, cap, rng.randint(0, 12), kind)
        got = series_multiply(series(nvars, cap, a), series(nvars, cap, b))
        assert got.coeffs == ref_mul(a, b, cap)
        assert_canonical(got)


def test_coprime_denominators_with_a_large_lcm():
    rng = random.Random(7)
    a = rand_coeffs(rng, 3, 6, 12, "coprime")
    b = rand_coeffs(rng, 3, 6, 12, "coprime")
    sa, sb = series(3, 6, a), series(3, 6, b)
    assert sa._form[0] > 10 ** 12
    got = sa * sb
    assert got.coeffs == ref_mul(a, b, 6)
    assert_canonical(got)


def test_pure_imaginary_products_are_real():
    rng = random.Random(11)
    a = rand_coeffs(rng, 2, 6, 8, "imaginary")
    b = rand_coeffs(rng, 2, 6, 8, "imaginary")
    got = series(2, 6, a) * series(2, 6, b)
    assert got.coeffs == ref_mul(a, b, 6)
    assert all(c.im == 0 for c in got.coeffs.values())
    assert not got._form[2]


def test_exact_cancellation_is_not_stored():
    one, half = GaussianRational(1), GaussianRational(Fraction(1, 2))
    i = GaussianRational(0, 1)
    # (x + i y / 2)(x - i y / 2) = x^2 + y^2 / 4: the x y terms cancel
    a = series(2, 4, {(1, 0): one, (0, 1): i * half})
    b = series(2, 4, {(1, 0): one, (0, 1): -i * half})
    got = a * b
    assert got.coeffs == {(2, 0): one, (0, 2): half * half}
    assert_canonical(got)
    # a product that cancels completely is the zero series
    c = series(2, 4, {(1, 0): one, (0, 1): one})
    d = series(2, 4, {(1, 0): one, (0, 1): -one})
    e = series(2, 4, {(1, 0): one, (0, 1): one})
    diff = c * e - d * e - series(2, 4, {(1, 1): 2 * one, (0, 2): 2 * one})
    assert diff.is_zero() and diff.coeffs == {}
    assert diff == TruncatedSeries.zero(2, 4)


def test_terms_above_the_cap_are_dropped():
    rng = random.Random(5)
    for cap in (2, 3, 6):
        a = rand_coeffs(rng, 3, cap, 10, low=cap - 1)
        b = rand_coeffs(rng, 3, cap, 10, low=1)
        got = series(3, cap, a) * series(3, cap, b)
        assert all(sum(e) <= cap for e in got.coeffs)
        assert got.coeffs == ref_mul(a, b, cap)
    top = series(2, 4, {(4, 0): GaussianRational(3)})
    assert (top * top).is_zero()


def test_coefficient_reads_stored_terms_only():
    rng = random.Random(6)
    coeffs = rand_coeffs(rng, 2, 2, 8)
    built = series(2, 2, coeffs)
    product = built * TruncatedSeries.constant(1, 2, 2)
    for s in (built, product):
        for e in [(a, b) for a in range(3) for b in range(3 - a)]:
            assert s.coefficient(e) == coeffs.get(e, ZERO)
        # exponents no term can have: negative, above the cap, wrong length
        for e in [(-3, 6), (2, -2), (3, 0), (1, 2), (0,), (0, 0, 0)]:
            assert s.coefficient(e) == ZERO


# -- power, reciprocal, composition --------------------------------------

@pytest.mark.parametrize("nvars,cap", [(1, 10), (2, 8), (3, 6), (4, 4), (6, 3)])
def test_power_matches_repeated_multiplication(nvars, cap):
    rng = random.Random(nvars * 31 + cap)
    for kind in ("real", "complex"):
        a = rand_coeffs(rng, nvars, cap, 5, kind)
        s = series(nvars, cap, a)
        for p in range(0, 6):
            got = series_power(s, p)
            assert got.coeffs == ref_pow(a, p, nvars, cap)
            assert_canonical(got)


@pytest.mark.parametrize("nvars,cap", [(1, 10), (2, 7), (3, 5), (5, 3), (6, 2)])
def test_reciprocal_is_an_inverse(nvars, cap):
    rng = random.Random(97 * nvars + cap)
    one = TruncatedSeries.constant(1, nvars, cap)
    for kind in ("real", "complex", "imaginary", "coprime"):
        u = rand_coeffs(rng, nvars, cap, 8, kind, low=1)
        u[(0,) * nvars] = rand_scalar(rng, kind) or GaussianRational(-3)
        s = series(nvars, cap, u)
        inv = series_reciprocal(s)
        assert_canonical(inv)
        assert s * inv == one
        assert ref_mul(u, inv.coeffs, cap) == {(0,) * nvars: GaussianRational(1)}


def geometric_reciprocal_form(u):
    """The integer form of 1/u summed as a geometric series: u = c0 (1 - t)
    with t of positive order, and 1/u = (1/c0) sum_m t^m."""
    c0 = u.constant_term()
    cap = u.cap
    shift = _shift(u.nvars, cap)
    inv_c0 = QI_ONE / c0
    t = _select(_scale(u._form, -inv_c0), bool)  # drops the constant -1
    acc = p = _ONE_FORM
    for _ in range(cap):
        p = _mul(p, t, cap, shift)
        if not p[1] and not p[2]:
            break
        acc = _add(acc, p)
    return _scale(acc, inv_c0)


CONSTANTS = {
    "positive": GaussianRational(Fraction(7, 3)),
    "negative": GaussianRational(-5),
    "complex": GaussianRational(Fraction(-2, 5), Fraction(3, 4)),
    "imaginary": GaussianRational(0, Fraction(-6, 7)),
}


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
@pytest.mark.parametrize("terms", [3, 30], ids=["sparse", "dense"])
def test_reciprocal_matches_the_geometric_series(nvars, terms):
    rng = random.Random(17 * nvars + terms)
    for cap in range(11):
        for name, c0 in CONSTANTS.items():
            kind = "real" if name in ("positive", "negative") else "complex"
            u = rand_coeffs(rng, nvars, cap, terms if cap else 0, kind, low=1)
            u[(0,) * nvars] = c0
            s = series(nvars, cap, u)
            inv = series_reciprocal(s)
            assert inv._form == geometric_reciprocal_form(s), (cap, name)
            assert_canonical(inv)
    with pytest.raises(PreconditionViolated):
        series_reciprocal(series(nvars, 3, {(1,) + (0,) * (nvars - 1): c0}))


@pytest.mark.parametrize("nvars,cap", [(1, 8), (2, 6), (3, 4), (4, 3)])
def test_compose_matches_term_by_term_substitution(nvars, cap):
    rng = random.Random(13 * nvars + cap)
    for kind in ("real", "complex"):
        outer = rand_coeffs(rng, nvars, cap, 8, kind)
        inner = [rand_coeffs(rng, nvars, cap, 4, kind, low=1)
                 for _ in range(nvars)]
        want = {}
        for e, c in outer.items():
            term = {(0,) * nvars: c}
            for i, p in enumerate(e):
                term = ref_mul(term, ref_pow(inner[i], p, nvars, cap), cap)
            want = ref_add(want, term)
        got = series_compose(series(nvars, cap, outer),
                             [series(nvars, cap, f) for f in inner])
        assert got.coeffs == want
        assert_canonical(got)


def test_compose_ignores_outer_terms_above_the_inner_cap():
    one = GaussianRational(1)
    outer = series(2, 6, {(1, 0): one, (3, 3): one, (0, 2): one})
    w1 = TruncatedSeries.variable(1, 2, 3)
    w2 = TruncatedSeries.variable(2, 2, 3)
    got = series_compose(outer, [w1 + w2 * w2, w2])
    assert got.coeffs == {(1, 0): one, (0, 2): 2 * one}


@pytest.mark.parametrize("nvars,cap", [(1, 2), (2, 10), (3, 6), (5, 4), (6, 3)])
@pytest.mark.parametrize("kind", ["real", "imaginary", "coprime", "complex"])
def test_spelled_terms_match_the_coefficient_view(nvars, cap, kind):
    rng = random.Random("spell/%d/%d/%s" % (nvars, cap, kind))
    for _ in range(10):
        a = series(nvars, cap, rand_coeffs(rng, nvars, cap, 12, kind))
        b = series(nvars, cap, rand_coeffs(rng, nvars, cap, 12, kind))
        for s in (a, b, series_multiply(a, b), a - a):  # integer-form results
            assert s.spelled_terms("%d," * nvars + "<%s>") == [
                "".join("%d," % x for x in e) + "<%s>" % c
                for e, c in sorted(s.coeffs.items())]


# -- monomial maps ----------------------------------------------------------
# The callback re-keying the four monomial maps ran on before they became
# one data-driven rule, kept as the oracle: move(e) is the new packed key
# of the term w^e, or None to drop it, and must be one-to-one.

def callback_rekey(s, move, below=None):
    den, re, im = s._form
    base = s.cap + 1
    keys = {}
    for k in (re.keys() | im.keys()) if im else re:
        if below is not None and k >= below:
            continue
        new = move(_unpack(k, s.nvars, base))
        if new is not None:
            keys[k] = new
    return _normal(den, {keys[k]: v for k, v in re.items() if k in keys},
                   {keys[k]: v for k, v in im.items() if k in keys})


def callback_recap_form(s, cap):
    return callback_rekey(s, lambda e: _pack(e, cap + 1),
                          below=(cap + 1) * _shift(s.nvars, s.cap))


def callback_divide_form(s, m):
    cap = s.cap - sum(m)

    def move(e):
        q = [x - y for x, y in zip(e, m)]
        if any(x < 0 for x in q):
            raise DivisionObstruction(
                "term w^%r is not divisible by w^%r" % (e, m))
        return _pack(q, cap + 1)

    return callback_rekey(s, move)


def callback_multiply_form(s, m, coeff):
    cap = s.cap + sum(m)
    km = _pack(m, cap + 1)
    return _scale(callback_rekey(s, lambda e: _pack(e, cap + 1) + km), coeff)


def callback_substitute_form(f, forward, cap):
    weights = [_pack(row, cap + 1) for row in forward]
    top = (cap + 1) * _shift(len(forward[0]), cap)

    def move(e):
        k = sum(p * w for p, w in zip(e, weights))
        return k if k < top else None

    return callback_rekey(f, move)


def rand_series_pairs(seed):
    """(kind, random series) over 1-4 variables and caps 0-8."""
    rng = random.Random(seed)
    for nvars in range(1, 5):
        for cap in range(9):
            for kind in ("real", "complex"):
                yield rng, series(nvars, cap, rand_coeffs(
                    rng, nvars, cap, rng.randint(0, 15), kind))


def test_recap_matches_the_callback_rekey():
    for _, s in rand_series_pairs("recap"):
        for cap in range(9):
            got = s.as_polynomial_cap(cap)
            assert (got.nvars, got.cap) == (s.nvars, cap)
            assert got._form == callback_recap_form(s, cap), (s, cap)
            if cap <= s.cap:
                assert s.truncated(cap)._form == got._form


def test_monomial_multiply_and_divide_match_the_callback_rekey():
    divided = obstructed = 0
    for rng, s in rand_series_pairs("muldiv"):
        for _ in range(3):
            m = rand_exponent(rng, s.nvars, 3, 0)
            c = rand_scalar(rng, "complex")
            prod = monomial_multiply(s, m, c)
            assert prod.cap == s.cap + sum(m)
            assert prod._form == callback_multiply_form(s, m, c)
            # divide both a multiple of w^m and s itself, which mostly is not
            for t in (prod, s):
                if sum(m) > t.cap:
                    continue
                try:
                    want = callback_divide_form(t, m)
                except DivisionObstruction as exc:
                    with pytest.raises(DivisionObstruction) as got:
                        monomial_divide(t, m)
                    assert str(got.value) == str(exc)
                    obstructed += 1
                else:
                    assert monomial_divide(t, m)._form == want
                    divided += 1
    assert divided > 250 and obstructed > 90


def test_tower_substitutions_match_the_callback_rekey():
    rng = random.Random("tower")
    for mu in TOWER_SHAPES:
        S = build_structure(mu, [1] * len(mu))
        for k in range(1, S.ell + 1):
            forward = projection_formulas(S, k).forward
            for kind in ("real", "complex"):
                f = series(S.n, 4, rand_coeffs(rng, S.n, 4, 12, kind))
                for cap in range(9):
                    got = monomial_substitute(f, forward, cap)
                    assert (got.nvars, got.cap) == (S.n, cap)
                    assert got._form == callback_substitute_form(
                        f, forward, cap), (mu, k, cap)


def test_colliding_substitution_sums_the_terms():
    one = GaussianRational(1)
    z = series(2, 3, {(1, 0): one, (0, 1): one, (1, 1): 7 * one})
    got = monomial_substitute(z, [(1, 0), (1, 0)], 3)
    assert got.coeffs == {(1, 0): 2 * one, (2, 0): 7 * one}
    # a collision that cancels leaves nothing behind
    z = series(2, 3, {(1, 0): one, (0, 1): -one})
    assert monomial_substitute(z, [(0, 1), (0, 1)], 3).is_zero()


@pytest.mark.parametrize("m", [(1,), (1, 0, 0), (-1, 0), (0, -2)])
def test_a_bad_monomial_is_refused(m):
    w2 = TruncatedSeries.variable(2, 2, 3)
    with pytest.raises(PreconditionViolated):
        monomial_multiply(w2, m)
    with pytest.raises(PreconditionViolated):
        monomial_divide(monomial_multiply(w2, (2, 2)), m)


@pytest.mark.parametrize("table", [
    [(1, 1)],                      # one row for two variables
    [(1, 0), (0, 1), (1, 1)],      # three rows for two variables
    [(1, 0), (0, 1, 1)],           # ragged rows
    [(1, 0), (2, -1)],             # a negative entry
    [(1, 0), (0, 0)],              # a zero row
    [],
])
def test_a_bad_substitution_table_is_refused(table):
    one = GaussianRational(1)
    z = series(2, 3, {(1, 0): one, (0, 1): 5 * one, (1, 1): 7 * one})
    with pytest.raises(PreconditionViolated):
        monomial_substitute(z, table, 3)


# -- constructors ---------------------------------------------------------

@pytest.mark.parametrize("nvars,cap", [(1, 0), (2, 3), (3, 6), (6, 2)])
def test_constructors_build_normal_forms(nvars, cap):
    rng = random.Random("ctor/%d/%d" % (nvars, cap))
    one = TruncatedSeries.constant(1, nvars, cap)
    built = [TruncatedSeries.zero(nvars, cap),
             TruncatedSeries.constant(Fraction(-6, 4), nvars, cap),
             TruncatedSeries.constant("2/3 - 5/6*i", nvars, cap)]
    if cap >= 1:
        built += [TruncatedSeries.variable(i, nvars, cap)
                  for i in range(1, nvars + 1)]
    for kind in ("real", "imaginary", "coprime", "complex"):
        c = rand_scalar(rng, kind)
        built.append(TruncatedSeries.constant(c, nvars, cap))
        built.append(TruncatedSeries.monomial(
            rand_exponent(rng, nvars, cap, 0), nvars, cap, c))
        built.append(series(nvars, cap, rand_coeffs(rng, nvars, cap, 9, kind)))
    for s in built:
        assert_canonical(s)
        # the form an operation normalises is the one built
        assert (s * one)._form == s._form
        assert series(nvars, cap, s.coeffs)._form == s._form


def test_zero_coefficients_build_the_zero_series():
    zero = TruncatedSeries.zero(3, 2)
    for s in (TruncatedSeries.constant(0, 3, 2),
              TruncatedSeries.constant(ZERO, 3, 2),
              TruncatedSeries.constant("0", 3, 2),
              TruncatedSeries.monomial((1, 0, 1), 3, 2, 0),
              TruncatedSeries.monomial([0, 2, 0], 3, 2, Fraction(0)),
              series(3, 2, {(1, 0, 0): ZERO, (0, 0, 0): 0}),
              series(3, 2, {})):
        assert s.is_zero() and s.coeffs == {} and s == zero
        assert s._form == (1, {}, {})


@pytest.mark.parametrize("exps", [(1, -1), (1, 0, 0), (1,), (2, 2), (0, 4)])
@pytest.mark.parametrize("coeff", [1, 0])
def test_bad_or_above_cap_multi_index_raises(exps, coeff):
    with pytest.raises(PreconditionViolated):
        TruncatedSeries.monomial(exps, 2, 3, coeff)
    with pytest.raises(PreconditionViolated):
        series(2, 3, {(0, 1): 1, exps: coeff})


def test_constructor_rejects_what_is_not_exact():
    for bad in (0.5, 1j, None, object()):
        with pytest.raises(PreconditionViolated):
            TruncatedSeries.constant(bad, 2, 2)
        with pytest.raises(PreconditionViolated):
            series(2, 2, {(1, 0): bad})
    with pytest.raises(PreconditionViolated):
        TruncatedSeries(2, -1)
    for i, cap in ((0, 2), (3, 2), (1, 0)):
        with pytest.raises(PreconditionViolated):
            TruncatedSeries.variable(i, 2, cap)
