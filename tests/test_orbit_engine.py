"""The compiled fixed-point orbit engine against mpmath.

The oracle evaluates the germ with mpmath at twice the working precision
and must agree with every forward step and every preimage step to
2^(16 - prec) relative to |F(z)|, the bound the benchmark's orbit check
uses.  The fatou germ's literal profile seed and its refined standard seed
are compared with straightforward mpmath references.
"""

import functools
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import from_man_exp, round_nearest, to_digits_exp, to_str

from blowdyn import dynamics as dyn
from blowdyn import orbitplan
from blowdyn.errors import NonConvergent, PreconditionViolated
from blowdyn.lifting import germ_from_terms
from blowdyn.orbitplan import (PREIMAGE_MAX_ITER, PREIMAGE_TOL_BITS,
                               OrbitPlan, _compiled, _plan_source,
                               _renormalize, decimal_speller)
from blowdyn.partition import build_structure
from blowdyn.scalars import GaussianRational as G
from blowdyn.series import PolyMapGerm, TruncatedSeries, _as_germ

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


# -- the interpreted Newton step, kept as the reference ----------------------

@functools.cache
def plan_function(plan, kind):
    """The plan's image or jacobian, compiled on its own."""
    return _compiled(_plan_source(*plan._tables, kind), kind)


def reference_solve(plan, jac, r, swaps=None):
    """x with A x = r, for A = jac (as returned by jacobian, and
    overwritten) and r, x flat re/im mantissa lists on one grid.
    Gaussian elimination with partial pivoting; multipliers and pivot
    reciprocals are held at scale 2^-scale.  None when A is singular.
    Each row swap (k, p) is appended to `swaps` when that is given."""
    n, sc = plan.n, plan.scale
    ar, ai = jac
    rr, ri = r[::2], r[1::2]
    inv = []
    for k in range(n):
        p, den = k, 0
        for q in range(k, n):
            x, y = ar[q][k], ai[q][k]
            m = x * x + y * y
            if m > den:
                p, den = q, m
        if not den:
            return None
        if p != k:
            if swaps is not None:
                swaps.append((k, p))
            for v in (ar, ai, rr, ri):
                v[k], v[p] = v[p], v[k]
        kr, ki = ar[k], ai[k]
        # 1/pivot = conj(pivot) / |pivot|^2
        ur = (kr[k] << 2 * sc) // den
        ui = (-ki[k] << 2 * sc) // den
        inv.append((ur, ui))
        for q in range(k + 1, n):
            qr, qi = ar[q], ai[q]
            x, y = qr[k], qi[k]
            if not (x or y):
                continue
            mr = (x * ur - y * ui) >> sc
            mi = (x * ui + y * ur) >> sc
            for c in range(k + 1, n):
                x, y = kr[c], ki[c]
                qr[c] -= (mr * x - mi * y) >> sc
                qi[c] -= (mr * y + mi * x) >> sc
            x, y = rr[k], ri[k]
            rr[q] -= (mr * x - mi * y) >> sc
            ri[q] -= (mr * y + mi * x) >> sc
    out = [0] * (2 * n)
    for k in range(n - 1, -1, -1):
        kr, ki = ar[k], ai[k]
        tr, ti = rr[k], ri[k]
        for c in range(k + 1, n):
            x, y = out[2 * c], out[2 * c + 1]
            tr -= (kr[c] * x - ki[c] * y) >> sc
            ti -= (kr[c] * y + ki[c] * x) >> sc
        ur, ui = inv[k]
        out[2 * k] = (tr * ur - ti * ui) >> sc
        out[2 * k + 1] = (tr * ui + ti * ur) >> sc
    return out


def reference_preimage(plan, w, step, swaps=None):
    """OrbitPlan.preimage as an interpreted loop over the plan's image and
    jacobian and reference_solve."""
    work, sc = plan.work, plan.scale
    back, gain = plan._linear
    half = 1 << (work - 1)
    image = plan_function(plan, "image")
    jacobian = plan_function(plan, "jacobian")
    exp, wm = w
    exp -= gain
    wm = [m << gain for m in wm]
    target = [m << work for m in wm]     # w on the image grid
    res = [(x + half) >> work for x in image(wm, exp, target)]
    z = list(wm)
    for j, row in enumerate(back):
        for i, cr, ci in row:
            xr, xi = res[2 * i], res[2 * i + 1]
            z[2 * j] -= (cr * xr - ci * xi) >> sc
            z[2 * j + 1] -= (cr * xi + ci * xr) >> sc
    goal = work + gain + PREIMAGE_TOL_BITS
    last = None
    for _ in range(PREIMAGE_MAX_ITER):
        res = image(z, exp, target)
        size = max(map(int.bit_length, res))
        if size <= goal:
            return _renormalize(exp, z, work)
        if last is not None and size > last - 1:
            raise NonConvergent(
                "preimage Newton iteration stopped contracting", step=step)
        last = size
        delta = reference_solve(plan, jacobian(z, exp),
                                [(x + half) >> work for x in res], swaps)
        if delta is None:
            raise NonConvergent(
                "singular Jacobian in the preimage Newton iteration",
                step=step)
        z = [m - d for m, d in zip(z, delta)]
    raise NonConvergent("preimage Newton iteration stalled", step=step)


def outcome(preimage, *args):
    """The point preimage(*args) returns, or the message and step it
    raises."""
    try:
        return preimage(*args)
    except NonConvergent as exc:
        return str(exc), exc.step


def reference_step(plan, exp, man):
    """The forward step as the image followed by _renormalize."""
    image = plan_function(plan, "image")(man, exp, [0] * len(man))
    return _renormalize(exp - plan.work, image, plan.work)


def test_step_matches_image_then_renormalize():
    rng = random.Random("step")
    kinds = {"grow": 0, "shrink": 0, "keep": 0, "zero": 0}
    for mu, cap, prec in CASES:
        F = random_germ(rng, mu, cap)
        plan = OrbitPlan(_as_germ(F), prec)
        n2 = 2 * sum(mu)
        starts = [(0, (0,) * n2)]
        for _ in range(300):
            bits = rng.choice((0, 1, 2, 3, 8, plan.work - 1, plan.work,
                               plan.work + 40))
            man = tuple(rng.getrandbits(bits) * rng.choice((1, -1))
                        if rng.random() < 0.8 else 0 for _ in range(n2))
            starts.append((rng.randint(-plan.work - 200, 50), man))
        for exp, man in starts:
            want = reference_step(plan, exp, man)
            assert plan.step(exp, man) == want, (mu, exp, man)
            image = plan_function(plan, "image")(man, exp, [0] * n2)
            s = max(map(int.bit_length, image)) - plan.work
            kinds["zero" if s == -plan.work else "grow" if s > 0
                  else "keep" if s == 0 else "shrink"] += 1
    # the fatou germ sends (1 + d, -1) to (d, 2d + d^2): the image is far
    # below the point's size, and (1, -1) goes exactly to the origin
    plan = OrbitPlan(_as_germ(fatou_germ()), 64)
    for d in (0, 1, 3, 1 << 20, -(1 << 40)):
        exp, man = plan.point((Fraction(1) + Fraction(d, 1 << 95), -1))
        want = reference_step(plan, exp, man)
        assert plan.step(exp, man) == want
        kinds["zero" if not any(want[1]) else "shrink"] += 1
    assert all(count >= 3 for count in kinds.values()), kinds


@pytest.mark.parametrize("mu,cap,prec", CASES)
def test_compiled_preimage_matches_the_interpreted_loop(mu, cap, prec):
    rng = random.Random("compiled preimage/%s/%d/%d" % (mu, cap, prec))
    F = random_germ(rng, mu, cap)
    plan = OrbitPlan(_as_germ(F), prec)
    n = sum(mu)
    points = 0
    for step in range(1, 41):
        # small w converge; w of size about 1 often raise
        den = rng.choice((64, 64, 8, 1))
        w = plan.point([G(_q(rng) / den, _q(rng) / den) for _ in range(n)])
        want = outcome(reference_preimage, plan, w, step)
        assert outcome(plan.preimage, w, step) == want, (w, step)
        points += isinstance(want[1], tuple)
    assert 20 <= points < 40


def test_compiled_preimage_with_and_without_a_gain():
    # |J| > 1 for a Jordan block of size 2 or more: the iterates sit gain
    # bits below w; a contracting diagonal germ keeps w's exponent
    rng = random.Random("compiled preimage/gain")
    diagonal = PolyMapGerm([
        TruncatedSeries(2, 2, {(1, 0): G(Fraction(1, 2)),
                               (1, 1): G(1, -2)}),
        TruncatedSeries(2, 2, {(0, 1): G(Fraction(-1, 4), Fraction(1, 4)),
                               (2, 0): G(Fraction(1, 3))})])
    gains = {}
    for F in (fatou_germ(), random_germ(rng, (3, 1), 3), diagonal):
        for prec in (64, 128):
            plan = OrbitPlan(_as_germ(F), prec)
            points = 0
            for step in range(1, 21):
                w = plan.point([G(_q(rng) / 32, _q(rng) / 32)
                                for _ in range(plan.n)])
                want = outcome(reference_preimage, plan, w, step)
                assert outcome(plan.preimage, w, step) == want
                points += isinstance(want[1], tuple)
            gain = plan._linear[1]
            gains[gain] = gains.get(gain, 0) + points
    assert gains[0] >= 30 and sum(gains.values()) - gains[0] >= 60, gains


def test_compiled_preimage_swaps_rows_as_the_elimination_does():
    # DF(z) = [[1, 1], [2 z1, 1]] for the fatou germ: the pivot search
    # takes the second row once 2 |z1| > 1
    swapped = 0
    for prec in (64, 128, 256):
        plan = OrbitPlan(_as_germ(fatou_germ()), prec)
        for w in ((0, 2), (Fraction(1, 3), 3), (G(1, 1), G(-1, 2)),
                  (Fraction(-2, 5), Fraction(5, 4))):
            swaps = []
            w = plan.point(w)
            want = reference_preimage(plan, w, 1, swaps)
            assert plan.preimage(w, 1) == want
            swapped += bool(swaps)
    assert swapped == 12
    # a 4 x 4 Jacobian: each row below the pivot is swapped in somewhere
    rng = random.Random("compiled preimage/swaps")
    plan = OrbitPlan(_as_germ(random_germ(rng, (3, 1), 3)), 64)
    swaps = []
    for step in range(1, 41):
        w = plan.point([G(_q(rng) / 2, _q(rng) / 2) for _ in range(4)])
        want = outcome(reference_preimage, plan, w, step, swaps)
        assert outcome(plan.preimage, w, step) == want
    assert set(swaps) == {(k, p) for p in range(4) for k in range(p)}


@pytest.mark.parametrize("w,message", [
    ((0, -1), "stopped contracting"),
    # z1 = 1/2 exactly: the seed lands on the fold det DF = 1 - 2 z1 = 0
    ((0, Fraction(-1, 2)), "singular Jacobian"),
    # a double root at z1 = 1/2: Newton only halves the error each step
    ((Fraction(1, 4), 0), "stalled")])
def test_compiled_preimage_exits_as_the_interpreted_loop(w, message):
    for prec in (64, 128):
        plan = OrbitPlan(_as_germ(fatou_germ()), prec)
        for step in (1, 7, 10000):
            want = outcome(reference_preimage, plan, plan.point(w), step)
            assert message in want[0] and want[1] == step
            assert outcome(plan.preimage, plan.point(w), step) == want


def test_plan_compiles_the_preimage_once_on_first_use(monkeypatch):
    compiled = []

    def spy(source, name):
        compiled.append(name)
        return real(source, name)
    real = orbitplan._compiled
    monkeypatch.setattr(orbitplan, "_compiled", spy)
    F = fatou_germ()
    dyn.orbit_iterate(F, (Fraction(1, 3), Fraction(-1, 7)), 20,
                      precision_bits=64)
    assert compiled == ["step"]
    plan = OrbitPlan(_as_germ(F), 64)
    # only step is compiled with the plan, its degree-1 shift a constant
    assert "def step(" in plan.source and "def preimage(" not in plan.source
    assert "s1" not in plan.source
    assert "preimage" not in vars(plan)
    preimage = plan.preimage
    for step in range(1, 4):
        plan.preimage(plan.point((Fraction(1, 8), 0)), step)
    assert plan.preimage is preimage
    assert compiled == ["step", "step", "preimage"]
    compiled.clear()
    dyn.standard_orbit_seed(F, k0=50, settle=30, precision_bits=64)
    assert compiled == ["step", "preimage"]


@pytest.mark.parametrize("mu", [(2,), (3,), (4,), (5,), (2, 1), (2, 2),
                                (3, 1), (3, 2), (3, 3), (4, 1), (2, 1, 1)])
def test_linear_inverse_matches_the_fixed_point_solve_on_unipotent_germs(mu):
    # on a unipotent J the fixed-point elimination of DF(0) is exact, so it
    # gives the rounded exact inverse the plan keeps, and the same gain
    S = build_structure(mu, [G(1)] * len(mu))
    n = S.n
    F = germ_from_terms(S, {(n, (2,) + (0,) * (n - 1)): G(1)}, cap=3)
    for prec in (64, 128, 256):
        plan = OrbitPlan(_as_germ(F), prec)
        jacobian = plan_function(plan, "jacobian")
        sc, zero = plan.scale, (0,) * (2 * n)
        jr, ji = jacobian(zero, 0)
        norm = max(sum(abs(x) + abs(y) for x, y in zip(r, i))
                   for r, i in zip(jr, ji))
        cols = []
        for i in range(n):
            unit = [0] * (2 * n)
            unit[2 * i] = 1 << sc
            cols.append(reference_solve(plan, jacobian(zero, 0), unit))
        rows = [[(i, c[2 * j], c[2 * j + 1]) for i, c in enumerate(cols)
                 if c[2 * j] or c[2 * j + 1]] for j in range(n)]
        assert plan._linear == (rows, max(0, norm.bit_length() - sc))


def _exact_outside(pt, radius):
    exp, man = pt
    scale = Fraction(2) ** exp
    return any((x * scale) ** 2 + (y * scale) ** 2 > radius ** 2
               for x, y in zip(man[::2], man[1::2]))


@pytest.mark.parametrize("radius", (Fraction(10), Fraction(1, 3),
                                    Fraction(1, 1 << 20)))
def test_diverged_at_matches_the_exact_radius_test(radius):
    F = fatou_germ()
    # (0, r) steps to (r, r) exactly, on the circle |z_1| = r; (r, 0)
    # starts on it; (0, c r (1 + i)) steps to a z_1 whose parts lie in
    # [2^(safe-1), 2^safe), just inside the circle for c = 0.70 and just
    # outside for c = 0.72; the others cross it after a few or many steps
    starts = [(0, radius), (radius, 0), (radius / 2, radius / 4),
              (radius / 64, 0), (radius / 1024, radius / 4096),
              (radius / 3, -radius / 5)]
    starts += [(0, G(c * radius, c * radius))
               for c in (Fraction(7, 10), Fraction(18, 25))]
    crossed = 0
    for prec in (64, 128):
        plan = OrbitPlan(_as_germ(F), prec)
        for z0 in starts:
            tr = dyn.orbit_iterate(F, z0, 300, precision_bits=prec,
                                   radius=radius)
            pt, want = plan.point(z0), None
            for k in range(1, 301):
                pt = reference_step(plan, *pt)
                if _exact_outside(pt, radius):
                    want = k
                    break
            assert tr.diverged_at == want, (prec, z0)
            assert tr.diverged == (want is not None)
            assert len(tr) == (want or 301)
            crossed += want is not None
    assert crossed >= 6
    # the point on the circle is inside
    tr = dyn.orbit_iterate(F, (0, radius), 1, radius=radius)
    if radius.denominator & (radius.denominator - 1) == 0:
        assert tr.points[1] == (radius, radius)
    assert not tr.diverged


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


def _spell_value(prec, dps):
    """spell(m, exp) of one value, through one decimal_speller (so its
    caches carry over from value to value)."""
    spell = decimal_speller(prec, dps)
    return lambda m, exp: spell(exp, [m])[0]


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
    spell = _spell_value(prec, dps)
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
        got = _spell_value(prec, dps)(sign * m, e)
        assert got == _mp_spell(sign * m, e, prec, dps)
        assert Fraction(got) == sign * Fraction(10) ** k


def test_decimal_formatter_at_other_digit_counts():
    rng = random.Random("format/dps")
    for _ in range(2000):
        prec = rng.choice((24, 53, 113))
        dps = rng.randint(1, 60)
        m = rng.getrandbits(rng.randint(1, prec + 10)) * rng.choice((1, -1))
        e = rng.randint(-150, 150)
        assert _spell_value(prec, dps)(m, e) == \
            _mp_spell(m, e, prec, dps), (m, e, prec, dps)
    # 1 - 2^-20 carries at 5 digits
    assert _spell_value(24, 5)((1 << 20) - 1, -20) == "1.0"


def test_decimal_speller_rows_with_one_exponent_far_apart():
    # one exponent per point, as the engine stores it: values of work bits
    # beside values many binary orders smaller, and values past the
    # to_str rescaling boundary
    rng = random.Random("format/rows")
    for prec in FORMAT_PRECS:
        dps = _dps(prec)
        spell = decimal_speller(prec, dps)
        work = prec + 32
        for _ in range(60):
            exp = rng.choice((rng.randint(-work - 400, 100),
                              rng.randint(-3600 - work, -3400 - work)))
            man = [rng.getrandbits(max(1, work - drop))
                   * rng.choice((1, -1)) for drop in
                   (0, 1, 33, rng.randint(0, work + 60), 300, work - 1)]
            man += [0, rng.getrandbits(4)]
            rng.shuffle(man)
            assert spell(exp, man) == [_mp_spell(m, exp, prec, dps)
                                       for m in man], (prec, exp, man)


def test_decimal_speller_digit_count_changes_within_one_binary_order():
    # 2^(top-1) <= 10^k < 2^top: values just below and just above 10^k
    # share their binary order, and floor(|x| 10^fixdps) gains a digit
    # between them; the rows alternate so one cached order serves both
    for prec in FORMAT_PRECS:
        dps = _dps(prec)
        spell = decimal_speller(prec, dps)
        for k in (-30, -4, -1, 1, 2, 9, 40):
            power = Fraction(10) ** k
            below = _near(power * (1 - Fraction(1, 10 ** 6)), prec)
            above = _near(power * (1 + Fraction(1, 10 ** 6)), prec)
            tops = {e + m.bit_length() for m, e in (below, above)}
            assert len(tops) == 1
            exps = set()
            for m, e in (below, above, below, above):
                for sign in (1, -1):
                    got = spell(e, [sign * m, 0])
                    assert got == [_mp_spell(sign * m, e, prec, dps), "0.0"]
                exps.add(to_digits_exp(from_man_exp(m, e, prec), dps)[2])
            assert exps == {k - 1, k}, (prec, k)


def test_decimal_points_spell_raw_points():
    F = fatou_germ()
    dps = _dps(96)
    tr = dyn.orbit_iterate(F, (Fraction(1, 3), Fraction(-2, 7)), 5,
                           precision_bits=96)
    want = [[to_str(x, dps) for x in raw] for raw in tr.raw_points()]
    assert list(tr.decimal_points(dps)) == want
    tr.points                              # the integers are kept
    assert list(tr.decimal_points(dps)) == want
