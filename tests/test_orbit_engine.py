"""The compiled fixed-point orbit engine against mpmath.

The oracle evaluates the germ with mpmath at twice the working precision
and must agree with every forward step and every preimage step to
2^(16 - prec) relative to |F(z)|, the bound the benchmark's orbit check
uses.  The fatou germ's literal profile seed and its refined standard seed
are compared with straightforward mpmath references.
"""

import random
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import from_man_exp, round_nearest, to_digits_exp, to_str

from blowdyn import dynamics as dyn
from blowdyn.errors import NonConvergent, PreconditionViolated
from blowdyn.lifting import germ_from_terms
from blowdyn.orbitplan import OrbitPlan, decimal_formatter
from blowdyn.partition import build_structure
from blowdyn.scalars import GaussianRational as G
from blowdyn.series import _as_germ

from conftest import fatou_germ

SLACK_BITS = 16
LAMBDAS = (G(1), G(Fraction(3, 5), Fraction(4, 5)), G(Fraction(1, 3), 1),
           G(-1), G(Fraction(7, 8)), G(2, -1))


def _q(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 4))


def random_germ(rng, mu, cap):
    """Jordan blocks mu with complex eigenvalues, plus Gaussian-rational
    terms of every degree 2..cap (each monomial kept with probability
    one half)."""
    S = build_structure(mu, [rng.choice(LAMBDAS) for _ in mu])
    n = S.n
    terms = {}
    for deg in range(2, cap + 1):
        for e in _exponents(n, deg):
            for j in range(1, n + 1):
                if rng.random() < 0.5:
                    c = G(_q(rng), _q(rng))
                    if c:
                        terms[(j, e)] = c
    return germ_from_terms(S, terms, cap=cap)


def _exponents(n, deg):
    if n == 1:
        yield (deg,)
        return
    for first in range(deg, -1, -1):
        for rest in _exponents(n - 1, deg - first):
            yield (first,) + rest


def mp_image(F, z):
    """F(z) in the current mpmath precision."""
    prec = mpmath.mp.prec
    out = []
    for comp in _as_germ(F).components:
        tot = mpmath.mpc(0)
        for e, c in comp.coeffs.items():
            t = c.to_mpc(prec)
            for x, p in zip(z, e):
                if p:
                    t *= x ** p
            tot += t
        out.append(tot)
    return out


def norm(z):
    return max(abs(x) for x in z)


def exact_point(pt):
    """The exact mpc value of an engine point."""
    exp, man = pt
    parts = [mpmath.mpf(from_man_exp(m, exp)) for m in man]
    return [mpmath.mpc(a, b) for a, b in zip(parts[::2], parts[1::2])]


CASES = [((2, 1), 2, 64), ((2, 1), 3, 128), ((2, 2), 4, 256),
         ((3, 1), 3, 64), ((2, 1, 1), 2, 256), ((3, 2), 2, 128),
         ((2,), 4, 128), ((4,), 3, 64)]


@pytest.mark.parametrize("mu,cap,prec", CASES)
def test_forward_steps_match_mpmath(mu, cap, prec):
    rng = random.Random("forward/%s/%d/%d" % (mu, cap, prec))
    F = random_germ(rng, mu, cap)
    z0 = [G(_q(rng) / 8, _q(rng) / 8) for _ in range(sum(mu))]
    tr = dyn.orbit_iterate(F, z0, 60, precision_bits=prec)
    pts = tr.points
    assert len(tr) == len(pts) and tr.n == sum(mu)
    with mpmath.workprec(2 * prec):
        tol = mpmath.mpf(2) ** (SLACK_BITS - prec)
        start = [x.to_mpc(2 * prec) for x in z0]
        assert norm([a - b for a, b in zip(pts[0], start)]) <= tol * norm(start)
        for a, b in zip(pts, pts[1:]):
            want = mp_image(F, a)
            assert norm([x - y for x, y in zip(b, want)]) <= tol * norm(want)
        if tr.diverged:
            assert tr.diverged_at == len(pts)
            assert norm(mp_image(F, pts[-1])) > dyn.DEFAULT_RADIUS


@pytest.mark.parametrize("mu,cap,prec", CASES)
def test_preimage_steps_match_mpmath(mu, cap, prec):
    rng = random.Random("preimage/%s/%d/%d" % (mu, cap, prec))
    F = random_germ(rng, mu, cap)
    plan = OrbitPlan(_as_germ(F), prec)
    for step in range(1, 6):
        w = [G(_q(rng) / 64, _q(rng) / 64) for _ in range(sum(mu))]
        z = plan.preimage(plan.point(w), step)
        with mpmath.workprec(2 * prec):
            tol = mpmath.mpf(2) ** (SLACK_BITS - prec)
            target = [x.to_mpc(2 * prec) for x in w]
            got = mp_image(F, exact_point(z))
            assert norm([a - b for a, b in zip(got, target)]) \
                <= tol * norm(target)


def test_growing_orbit_with_a_huge_radius():
    # far beyond 2^(prec + guard): the exponents turn positive and the
    # degree shifts change sign
    F = fatou_germ()
    tr = dyn.orbit_iterate(F, (Fraction(3), Fraction(2)), 40,
                           precision_bits=64, radius=1e300)
    assert tr.diverged and 5 < tr.diverged_at < 40
    pts = tr.points
    assert norm(pts[-1]) > mpmath.mpf(2) ** 200
    with mpmath.workprec(128):
        tol = mpmath.mpf(2) ** (SLACK_BITS - 64)
        for a, b in zip(pts, pts[1:]):
            want = mp_image(F, a)
            assert norm([x - y for x, y in zip(b, want)]) <= tol * norm(want)
        assert norm(mp_image(F, pts[-1])) > mpmath.mpf(1e300)


def test_zero_start_point_and_orbit_through_zero():
    F = fatou_germ()
    tr = dyn.orbit_iterate(F, (0, 0), 5, precision_bits=64)
    assert not tr.diverged and len(tr) == 6
    assert all(x == 0 for z in tr.points for x in z)
    # (z1 + z2, z2 + z1^2) sends (1, -1) exactly to the origin
    tr = dyn.orbit_iterate(F, (1, -1), 4, precision_bits=64)
    assert tr.points[0] == (1, -1)
    assert all(x == 0 for z in tr.points[1:] for x in z)
    # one coordinate at zero
    tr = dyn.orbit_iterate(F, (0, Fraction(1, 8)), 2, precision_bits=64)
    assert tr.points[1] == (0.125, 0.125)
    assert tr.points[2] == (0.25, 0.125 + 0.015625)


def test_literal_profile_seed_diverges_where_mpmath_does():
    F = fatou_germ()
    z0 = (Fraction(6, 2500), Fraction(-12, 125000))
    tr = dyn.orbit_iterate(F, z0, 5000, precision_bits=128)
    with mpmath.workprec(256):
        z = [mpmath.mpc(mpmath.mpf(x.numerator) / x.denominator) for x in z0]
        ref = None
        for step in range(1, 5001):
            z = mp_image(F, z)
            if norm(z) > dyn.DEFAULT_RADIUS:
                ref = step
                break
    assert ref == 229
    assert tr.diverged and tr.diverged_at == ref and len(tr) == ref


def _mpmath_standard_seed(F, k0, settle, prec):
    """The fixed-point sweep z <- J^-1 (w - H(z)) in mpmath, settle times
    from the profile point at k0 + settle."""
    g = _as_germ(F)
    higher = [[(e, c.to_mpc(prec)) for e, c in comp.coeffs.items()
               if sum(e) >= 2] for comp in g.components]
    w = list(dyn.profile_point(F, k0 + settle, precision_bits=prec))
    tol = mpmath.mpf(2) ** (8 - prec)
    for _ in range(settle):
        z = list(w)
        for _ in range(80):
            y = []
            for j, terms in enumerate(higher):
                h = mpmath.mpc(0)
                for e, c in terms:
                    t = c
                    for x, p in zip(z, e):
                        if p:
                            t *= x ** p
                    h += t
                y.append(w[j] - h)
            # the fatou germ's linear part is the unipotent 2x2 block
            x = [y[0] - y[1], y[1]]
            delta = norm([a - b for a, b in zip(x, z)])
            z = x
            if delta <= tol * norm(z):
                break
        else:
            raise AssertionError("reference sweep stalled")
        w = z
    return w


def test_standard_seed_agrees_with_the_mpmath_sweep():
    F = fatou_germ()
    seed = dyn.standard_orbit_seed(F, k0=50, settle=10000,
                                   precision_bits=128)
    with mpmath.workprec(256):
        ref = _mpmath_standard_seed(F, 50, 10000, 256)
        err = norm([a - b for a, b in zip(seed, ref)]) / norm(ref)
    assert err <= mpmath.mpf(2) ** -120


def test_preimage_radius_exit_carries_the_step():
    F = fatou_germ()
    with pytest.raises(NonConvergent) as info:
        dyn.standard_orbit_seed(F, k0=50, settle=200, radius=1e-3)
    # z_1 ~ 6/k^2 passes 1e-3 near k = 77, that is step 250 - 77
    step = info.value.step
    assert 165 <= step <= 180
    assert "[step %d]" % step in str(info.value)


def test_preimage_stall_exit_carries_the_step():
    # F(z) = (0, -1) has only the complex preimages z1 = (1 +- i sqrt 3)/2;
    # from a real seed every Newton iterate stays real
    plan = OrbitPlan(_as_germ(fatou_germ()), 64)
    with pytest.raises(NonConvergent) as info:
        plan.preimage(plan.point((0, -1)), 7)
    assert info.value.step == 7
    assert "stopped contracting [step 7]" in str(info.value)


def test_radius_must_be_finite_and_positive():
    F = fatou_germ()
    for radius in (float("inf"), float("nan"), 0.0, -1.0):
        with pytest.raises(PreconditionViolated):
            dyn.orbit_iterate(F, (0, 0), 3, radius=radius)
        with pytest.raises(PreconditionViolated):
            dyn.standard_orbit_seed(F, settle=3, radius=radius)


def test_points_view_rounds_the_integer_form():
    F = fatou_germ()
    tr = dyn.orbit_iterate(F, (Fraction(1, 3), Fraction(-1, 7)), 3,
                           precision_bits=64)
    before = list(dyn.orbit_iterate(F, (Fraction(1, 3), Fraction(-1, 7)),
                                    3, precision_bits=64).raw_points())
    assert all(isinstance(x, mpmath.mpc) for z in tr.points for x in z)
    assert tr.points is tr.points          # built once
    raw = list(tr.raw_points())
    assert [[x._mpc_ for x in z] for z in tr.points] == \
        [list(zip(r[::2], r[1::2])) for r in raw]
    # reading the points first does not change the raw values
    assert raw == before
    # a trace built from caller points keeps them as given, and only them
    syn = dyn.OrbitTrace(points=((1.0, 2j), (0.5, 1j)), precision_bits=53)
    assert syn.points == ((1.0, 2j), (0.5, 1j)) and len(syn) == 2
    assert syn.n == 2
    with pytest.raises(PreconditionViolated):
        syn.raw_points()
    with pytest.raises(PreconditionViolated):
        syn.decimal_points(10)


# -- the CSV formatter against mpmath's to_str ------------------------------

FORMAT_PRECS = (24, 53, 64, 96, 128, 256, 4096)
# (prec, k): the prec-bit floor of 10^k spells as 99...9 to dps digits and
# carries into "1.0e<k>", found by a search over |k| <= 1050
CARRIES = ((53, 153), (64, 542), (96, -272), (96, -954), (128, 390),
           (128, -521), (4096, -297))


def _dps(prec):
    return int(0.30103 * prec) + 3


def _mp_spell(m, exp, prec, dps):
    return to_str(from_man_exp(m, exp, prec, round_nearest), dps)


def _near(x, prec, up=False):
    """(m, exp): the prec-bit floor (or ceiling) of the positive rational
    x, as mantissa and exponent."""
    x = Fraction(x)
    s = prec - (x.numerator.bit_length() - x.denominator.bit_length())
    while True:
        num, den = (x.numerator << s, x.denominator) if s >= 0 else (
            x.numerator, x.denominator << -s)
        m = -(-num // den) if up else num // den
        if m.bit_length() <= prec:
            return m, -s
        s -= 1


def _format_cases(prec, rng):
    """(m, exp) pairs covering each rounding and layout case of to_str."""
    dps = _dps(prec)
    cases = [(0, 0), (0, -70), (1, 0), (-1, 5)]
    # mantissas shorter and longer than prec bits
    for _ in range(200):
        m = rng.getrandbits(rng.randint(1, prec + 80)) * rng.choice((1, -1))
        cases.append((m, rng.randint(-300, 300)))
    # exact binary halfway cases, to an even and to an odd last bit, one
    # just above halfway, and the one that carries into a new binary digit
    for _ in range(10):
        head = rng.getrandbits(prec - 1) | 1 << (prec - 1)
        k = rng.randint(1, 40)
        for h in (head & ~1, head | 1):
            cases.append(((h << k) | 1 << (k - 1), rng.randint(-200, 0)))
        cases.append(((head << k) | 1 << (k - 1) | 1, 3))
    cases.append((((1 << prec) - 1 << 3) | 4, -prec))
    # decimal exponents on both sides of the fixed/scientific boundaries
    for e10 in (min(-(dps // 3), -5), dps):
        for e in range(e10 - 2, e10 + 3):
            for _ in range(4):
                x = Fraction(rng.randint(10 ** 6, 10 ** 7 - 1), 10 ** 6)
                cases.append(_near(x * Fraction(10) ** e, prec))
    # powers of ten just below and above, and the 3500-bit rescaling
    # boundary of to_digits_exp on both sides
    for k in (-40, -7, -1, 0, 1, 6, 25, 300):
        cases += [_near(Fraction(10) ** k, prec, up) for up in (False, True)]
    for top in (-3502, -3501, -3500, -3499, 3499, 3500, 3501, 4000):
        cases.append((rng.getrandbits(prec) | 1 << (prec - 1), top - prec))
    return cases + [(-m, e) for m, e in cases]


@pytest.mark.parametrize("prec", FORMAT_PRECS)
def test_decimal_formatter_matches_to_str(prec):
    rng = random.Random("format/%d" % prec)
    dps = _dps(prec)
    spell = decimal_formatter(prec, dps)
    cases = _format_cases(prec, rng)
    # values whose digit dps (after the dps kept) is a 5
    fives = 0
    while fives < 10:
        m = rng.getrandbits(prec + rng.randint(-5, 5))
        e = rng.randint(-100, 100)
        _, digits, _ = to_digits_exp(from_man_exp(m, e, prec, round_nearest),
                                     dps + 3)
        if len(digits) > dps and digits[dps] == "5":
            cases.append((m, e))
            fives += 1
    for m, e in cases:
        assert spell(m, e) == _mp_spell(m, e, prec, dps), (m, e)
    spelled = {spell(m, e) for m, e in cases}
    assert any("e" in t for t in spelled)
    assert any("e" not in t and t != "0.0" for t in spelled)
    assert "0.0" in spelled and "1.0" in spelled


@pytest.mark.parametrize("prec,k", CARRIES)
def test_decimal_formatter_carries_all_nines(prec, k):
    dps = _dps(prec)
    m, e = _near(Fraction(10) ** k, prec)
    _, digits, _ = to_digits_exp(from_man_exp(m, e), dps + 3)
    assert digits[:dps] == "9" * dps and digits[dps] >= "5"
    for sign in (1, -1):
        got = decimal_formatter(prec, dps)(sign * m, e)
        assert got == _mp_spell(sign * m, e, prec, dps)
        assert Fraction(got) == sign * Fraction(10) ** k


def test_decimal_formatter_at_other_digit_counts():
    rng = random.Random("format/dps")
    for _ in range(2000):
        prec = rng.choice((24, 53, 113))
        dps = rng.randint(1, 60)
        m = rng.getrandbits(rng.randint(1, prec + 10)) * rng.choice((1, -1))
        e = rng.randint(-150, 150)
        assert decimal_formatter(prec, dps)(m, e) == \
            _mp_spell(m, e, prec, dps), (m, e, prec, dps)
    # 1 - 2^-20 carries at 5 digits
    assert decimal_formatter(24, 5)((1 << 20) - 1, -20) == "1.0"


def test_decimal_points_spell_raw_points():
    F = fatou_germ()
    dps = _dps(96)
    tr = dyn.orbit_iterate(F, (Fraction(1, 3), Fraction(-2, 7)), 5,
                           precision_bits=96)
    want = [[to_str(x, dps) for x in raw] for raw in tr.raw_points()]
    assert list(tr.decimal_points(dps)) == want
    tr.points                              # the integers are kept
    assert list(tr.decimal_points(dps)) == want
