"""Acceptance gate: ten release criteria, one printed pass/fail line each.

Each test exercises one end-to-end guarantee of the package at its stated
tolerance and prints a single ``[NN] PASS/FAIL`` line (run with ``pytest
tests/test_acceptance.py -s`` to see the lines as they appear; on failure
the line is also the pytest failure message).  Expected values come from
independent closed forms recomputed inline, from exact identities, or
from direct numerical iteration -- never from the code under test.
"""

import random
import time
from fractions import Fraction

import pytest

from blowdyn.dynamics import (
    OrbitTrace,
    asymptotic_fit,
    characteristic_directions,
    hakim_matrix,
    orbit_iterate,
    parabolic_classification,
    regularity_classify,
    standard_orbit_seed,
)
from blowdyn.errors import (
    BlowdynError,
    DivisionObstruction,
    NonConvergent,
)
from blowdyn.lifting import (
    compare_quadratic_with_prediction,
    expected_eigenvalue_multiset,
    germ_from_terms,
    lift,
    lifted_linear_part,
    lifted_quadratic_part,
    verify_semiconjugacy,
)
from blowdyn.normalform import epsilon_vector, normal_form, toeplitz_upper
from blowdyn.partition import build_structure
from blowdyn.scalars import GaussianRational
from blowdyn.series import (
    PolyMapGerm,
    TruncatedSeries,
    germ_inverse,
    monomial_divide,
    monomial_multiply,
    series_reciprocal,
)

from conftest import STRUCTURES, fatou_germ, random_germ

G = GaussianRational
ONE = G(1)
ZERO = G(0)


def _report(num, name, ok, detail=""):
    """Print the per-criterion verdict line; fail the test if not ok."""
    line = "[%02d] %s  %s" % (num, "PASS" if ok else "FAIL", name)
    if detail:
        line += " -- " + detail
    print(line)
    if not ok:
        pytest.fail(line, pytrace=False)


def _real_part(x):
    try:
        return x.to_complex().real
    except AttributeError:
        return complex(x).real


def _block_shapes(max_n):
    """All non-increasing block-size tuples with a nontrivial top block
    and total dimension at most max_n."""
    out = []

    def rec(prefix, total, last):
        if prefix:
            out.append(tuple(prefix))
        m = min(last, max_n - total)
        while m >= 1:
            rec(prefix + [m], total + m, m)
            m -= 1

    rec([], 0, max_n)
    return [s for s in out if s[0] >= 2]


# -- 1: the lift is an exact semiconjugacy at every stage ------------------

def test_criterion_01_lift_semiconjugacy_exact():
    rng = random.Random(20260823)
    t0 = time.perf_counter()
    checks = 0
    for mu in STRUCTURES:
        for _ in range(50):
            F = random_germ(rng, mu, cap=3)
            S = F.structure
            for k in range(1, S.ell + 1):
                L = lift(F, k, 4)
                if not verify_semiconjugacy(F, L):
                    _report(1, "lift semiconjugacy exact at degree cap 4",
                            False, "stage %d failure on blocks %r" % (k, mu))
                checks += 1
    dt = time.perf_counter() - t0
    _report(1, "lift semiconjugacy exact at degree cap 4", dt < 60.0,
            "%d stage checks over %d structures x 50 germs in %.1fs "
            "(budget 60s)" % (checks, len(STRUCTURES), dt))


# -- 2: eigenvalues of the fully lifted linear part ------------------------

def test_criterion_02_final_stage_eigenvalues():
    rng = random.Random(2)
    shapes = _block_shapes(7)
    checked = []
    for _ in range(50):
        mu = shapes[rng.randrange(len(shapes))]
        F = random_germ(rng, mu, cap=2)
        S = F.structure
        L = lift(F, S.ell, 2)
        _, multis = lifted_linear_part(L)
        want = expected_eigenvalue_multiset(S)
        if multis != want:
            _report(2, "final-stage eigenvalue multiset", False,
                    "blocks %r eigenvalues %r expected %r (eigenvalues %r)"
                    % (mu, S.lam, want, multis))
        checked.append(mu)
    tied = sum(1 for mu in checked if len(mu) > 1 and mu[0] == mu[1])
    _report(2, "final-stage eigenvalue multiset", True,
            "50 random structures (n <= 7, %d with tied top blocks), "
            "random rational eigenvalues, exact multiset match" % tied)


# -- 3: closed-form quadratic part of the full lift ------------------------

def test_criterion_03_final_stage_quadratic_closed_forms():
    rng = random.Random(3)
    shapes = [s for s in _block_shapes(7)
              if len(s) == 1 or s[0] > s[1]]
    amb_rows = 0
    amb_disagreements = []
    for _ in range(50):
        mu = shapes[rng.randrange(len(shapes))]
        lam = ("1",) * len(mu)
        F = random_germ(rng, mu, lam=lam, cap=2)
        S = F.structure
        L = lift(F, S.ell, 2)
        res = compare_quadratic_with_prediction(L, F)
        if res["mismatches"]:
            _report(3, "final-stage quadratic part matches closed forms",
                    False, "blocks %r hard mismatches %r"
                    % (mu, res["mismatches"][:3]))
        amb_rows += len(res["ambiguous_rows"])
        amb_disagreements.extend(
            (mu,) + item for item in res["ambiguous_mismatches"])
    detail = ("50 random unipotent germs with untied top blocks, all "
              "unambiguous monomials exact; %d ambiguous short-tail rows "
              "seen, %d computed-vs-printed disagreements there (reported, "
              "not enforced)" % (amb_rows, len(amb_disagreements)))
    if amb_disagreements:
        detail += "; first: %r" % (amb_disagreements[0],)
    _report(3, "final-stage quadratic part matches closed forms", True,
            detail)


# -- 4: closed form of the allowable fixed direction -----------------------

def _closed_form_direction(F):
    """The allowable fixed direction recomputed from the input germ's
    coefficients alone: first coordinate (2 mu1 - 1)/a, then the ramp
    mu1, ..., 2 mu1 - 2, ramps scaled by the block's own leading
    coefficient on blocks of size mu1 - 1, zeros on smaller blocks."""
    S = F.structure
    mu1 = S.mu[0]
    a = F.a(mu1, 1, 1)
    v = [None] * S.n
    v[0] = G(2 * mu1 - 1) / a
    for j in range(2, mu1 + 1):
        v[j - 1] = G(mu1 + j - 2)
    for l in range(2, S.rho + 1):
        mul, nul = S.mu[l - 1], S.nu[l - 1]
        if mul == mu1 - 1:
            al = F.a(nul + mul, 1, 1)
            for h in range(1, mul + 1):
                v[nul + h - 1] = (al / a) * G(mul + h)
        else:
            for h in range(1, mul + 1):
                v[nul + h - 1] = ZERO
    return tuple(v)


def test_criterion_04_allowable_direction_closed_form():
    rng = random.Random(4)
    shapes = [(2,), (3,), (4,), (5,), (6,), (2, 1), (3, 2), (3, 1),
              (4, 3), (4, 2), (5, 4), (6, 5), (3, 2, 1), (4, 3, 2),
              (2, 1, 1)]
    exact_checks = 0
    for mu in shapes:
        for draw in range(4):
            F = random_germ(rng, mu, lam=("1",) * len(mu), cap=2)
            S = F.structure
            L = lift(F, S.ell, 2)
            Q = lifted_quadratic_part(L)
            dirs = characteristic_directions(Q, mode="structured",
                                             structure=S)
            want = _closed_form_direction(F)
            d = dirs[0]
            if not (len(dirs) == 1 and d.v == want and d.lam == ONE):
                _report(4, "structured fixed-direction closed form", False,
                        "blocks %r got %r expected %r" % (mu, d.v, want))
            # the closed form must be one of the isolated directions the
            # factored solver finds, equal as exact vectors
            found = characteristic_directions(Q, mode="factored")
            if not any(x.v == want and x.lam == ONE and not x.span
                       for x in found):
                _report(4, "structured fixed-direction closed form", False,
                        "blocks %r: the factored solver's %d directions "
                        "miss %r" % (mu, len(found), want))
            exact_checks += 1
    _report(4, "structured fixed-direction closed form", True,
            "%d exact checks (%d structures with top block <= 6, 4 random "
            "coefficient draws each), each closed form also found exactly "
            "by the factored solver" % (exact_checks, len(shapes)))


# -- 5: orbit asymptotics from the raw profile seed ------------------------

def test_criterion_05_profile_seed_orbit_asymptotics():
    name = "profile-seed orbit fits decay exponents 2 and 3"
    F = fatou_germ()
    z0 = (Fraction(6, 2500), Fraction(-12, 125000))
    t0 = time.perf_counter()
    trace = orbit_iterate(F, z0, 5000, precision_bits=128)
    try:
        f1 = asymptotic_fit(trace, 1, k0=50)
        f2 = asymptotic_fit(trace, 2, k0=50)
    except (NonConvergent, BlowdynError) as exc:
        dt = time.perf_counter() - t0
        detail = "%s: %s" % (type(exc).__name__, exc)
        if trace.diverged:
            detail += (" [orbit left the safety radius at step %d of 5000: "
                       "the modes transverse to the invariant curve repel "
                       "under forward iteration, so the order-one profile "
                       "point drifts off the curve and escapes; a seed "
                       "refined onto the curve does satisfy these fits -- "
                       "see criterion 8; %.1fs]" % (trace.diverged_at, dt))
        _report(5, name, False, detail)
        return
    dt = time.perf_counter() - t0
    ok = (f1.exponent == 2 and abs(f1.exponent_fitted - 2) <= 0.02
          and abs(f1.constant - 6) <= 0.05 * 6
          and f2.exponent == 3 and abs(f2.exponent_fitted - 3) <= 0.02
          and abs(f2.constant + 12) <= 0.05 * 12
          and dt < 10.0)
    _report(5, name, ok,
            "fitted exponents %.4f, %.4f; constants %.3f, %.3f; %.1fs "
            "(budget 10s)" % (f1.exponent_fitted, f2.exponent_fitted,
                              f1.constant, f2.constant, dt))


# -- 6: parabolic-curve counts for planar nongeneric maps ------------------

def _nongeneric_planar(a111, a212, a2111):
    S = build_structure((2,), (ONE,))
    return germ_from_terms(S, {
        (1, (2, 0)): G(a111),
        (2, (1, 1)): G(2) * G(a212),
        (2, (3, 0)): G(a2111),
    }, cap=3)


def test_criterion_06_planar_nongeneric_curve_counts():
    name = "planar nongeneric curve counts and special attraction values"
    counts = {"two": 0, "coincident": 0, "zero-second": 0, "unresolved": 0}
    pairs = [(Fraction(1), Fraction(1, 3)), (Fraction(2), Fraction(-1)),
             (Fraction(1, 2), Fraction(3, 2)), (Fraction(-1), Fraction(2)),
             (Fraction(1), Fraction(0)), (Fraction(2, 3), Fraction(-1, 2))]

    # second invariant off both special values: two transverse curves
    for a111, a212 in pairs:
        rep = parabolic_classification(
            _nongeneric_planar(a111, a212, 2 * a111 * a212 + 1))
        if not (rep.kind == "planar-nongeneric" and rep.curves == 2):
            _report(6, name, False,
                    "expected 2 curves at (%s, %s), got %r/%r"
                    % (a111, a212, rep.kind, rep.curves))
        counts["two"] += 1
    rep = parabolic_classification(_nongeneric_planar(
        Fraction(1), Fraction(-1), Fraction(1)))
    if not (rep.kind == "planar-nongeneric" and rep.curves == 2):
        _report(6, name, False,
                "expected 2 curves in the zero-trace case, got %r/%r"
                % (rep.kind, rep.curves))
    counts["two"] += 1

    # second invariant equal to the squared first: one curve, attraction -1
    for a111, a212 in pairs:
        if a111 + a212 == 0:
            continue
        rep = parabolic_classification(
            _nongeneric_planar(a111, a212, 2 * a111 * a212))
        live = [d for d in rep.directions if not d.degenerate]
        okc = (rep.kind == "planar-nongeneric" and rep.curves == 1
               and len(live) == 1
               and live[0].hakim_spectrum == (G(-1),)
               and rep.invariants.eta == rep.invariants.epsilon ** 2)
        if not okc:
            _report(6, name, False,
                    "coincident case (%s, %s): curves %r attraction %r"
                    % (a111, a212, rep.curves,
                       live[0].hakim_spectrum if live else None))
        counts["coincident"] += 1

    # vanishing second invariant: one curve, attraction 0
    for a111, a212 in pairs:
        if a111 + a212 == 0:
            continue
        rep = parabolic_classification(
            _nongeneric_planar(a111, a212, -Fraction((a111 - a212) ** 2, 2)))
        okc = (rep.kind == "planar-nongeneric" and rep.curves == 1
               and len(rep.directions) == 1
               and rep.directions[0].hakim_spectrum == (ZERO,)
               and not rep.invariants.eta)
        if not okc:
            _report(6, name, False,
                    "vanishing-invariant case (%s, %s): curves %r "
                    "directions %r" % (a111, a212, rep.curves,
                                       rep.directions))
        counts["zero-second"] += 1

    # both refined invariants vanish: honestly unresolved
    for a111 in (Fraction(1), Fraction(1, 2), Fraction(-2)):
        rep = parabolic_classification(
            _nongeneric_planar(a111, -a111, -2 * a111 ** 2))
        if rep.kind != "unresolved":
            _report(6, name, False,
                    "expected unresolved at a=%s, got %r" % (a111, rep.kind))
        counts["unresolved"] += 1
    _report(6, name, True,
            "two-curve:%d coincident:%d (attraction -1 exact) "
            "vanishing:%d (attraction 0 exact) unresolved:%d"
            % (counts["two"], counts["coincident"], counts["zero-second"],
               counts["unresolved"]))


# -- 7: attraction spectra on single blocks stay in the closed left plane --

def test_criterion_07_single_block_attraction_spectra():
    t0 = time.perf_counter()
    worst = float("-inf")
    for n in range(2, 11):
        S = build_structure((n,), (ONE,))
        e = [0] * n
        e[0] = 2
        F = germ_from_terms(S, {(n, tuple(e)): ONE}, cap=2)
        L = lift(F, S.ell, 2)
        Q = lifted_quadratic_part(L)
        d = characteristic_directions(Q, mode="structured", structure=S)[0]
        H = hakim_matrix(Q, d.v)
        worst = max(worst, max(_real_part(s) for s in H.spectrum))
    dt = time.perf_counter() - t0
    _report(7, "single-block attraction spectra have Re <= 1e-8",
            worst <= 1e-8 and dt < 30.0,
            "n = 2..10, unit leading coefficient; max real part %.3e "
            "in %.1fs (budget 30s)" % (worst, dt))


# -- 8: regular orbits are standard; synthetic oscillation is not ----------

def test_criterion_08_regular_orbit_standard_classification():
    name = "refined orbit classified standard; oscillating orbit rejected"
    F = fatou_germ()
    seed = standard_orbit_seed(F, k0=50, settle=10000, precision_bits=128)
    trace = orbit_iterate(F, seed, 2500, precision_bits=128)
    rep = regularity_classify(trace, F.structure, k0=50)
    ok = (rep.classification == "standard" and rep.standard is True
          and all(v.verdict == "second-kind" for v in rep.verdicts)
          and rep.match_distance is not None and rep.match_distance < 1e-4
          and rep.matched_direction is not None
          and rep.matched_direction.v == (G(3), G(2)))
    if not ok:
        _report(8, name, False,
                "verdicts %r classification %r match %r"
                % ([v.verdict for v in rep.verdicts], rep.classification,
                   rep.match_distance))

    pts = [((1.0 if k % 2 == 0 else 0.1) / k + 0j, 1.0 / k + 0j)
           for k in range(1, 1201)]
    syn = OrbitTrace(points=tuple(pts), precision_bits=53)
    rep2 = regularity_classify(syn, F.structure, k0=1)
    if not (rep2.verdicts[0].verdict == "not-regular"
            and rep2.classification == "irregular"):
        _report(8, name, False,
                "oscillating trace gave %r/%r"
                % (rep2.verdicts[0].verdict, rep2.classification))

    # scalar recursion w' = w + c w^2: the reciprocal grows linearly
    # with slope -c, so 1/(k w_k) approaches -c = 2
    w, c = 0.1, -2.0
    steps = 10 ** 4
    for _ in range(steps):
        w = w + c * w * w
    slope = 1.0 / (steps * w)
    if abs(slope - 2.0) > 0.02 * 2.0:
        _report(8, name, False,
                "reciprocal slope %.4f not within 2%% of 2" % slope)
    _report(8, name, True,
            "standard orbit matched direction [3 : 2] at projective "
            "distance %.1e (< 1e-4); oscillating trace not 0-regular; "
            "reciprocal slope %.4f within 2%% of 2"
            % (rep.match_distance, slope))


# -- 9: quadratic normal form shape and conjugation covariance -------------

def _toeplitz_germ(alpha, n, cap):
    T = toeplitz_upper(alpha)
    comps = []
    for i in range(n):
        coeffs = {}
        for j in range(n):
            if T[i][j]:
                e = [0] * n
                e[j] = 1
                coeffs[tuple(e)] = T[i][j]
        comps.append(TruncatedSeries(n, cap, coeffs))
    return PolyMapGerm(comps)


def test_criterion_09_quadratic_normal_form_invariants():
    name = "quadratic normal form shape exact; first-order data covariant"
    rng = random.Random(9)
    germs = proportional = 0
    for n in (2, 3, 4):
        cut = (n + 1) // 2
        for _ in range(100):
            F = random_germ(rng, (n,), lam=("1",), cap=2,
                            force_generic=False)
            nf = normal_form(F)
            g = nf.normalized
            for h in range(1, n + 1):
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        c = g.quadratic_coefficient(h, i, j)
                        if (i != j and c) or (i == j and i > cut and c):
                            _report(9, name, False,
                                    "shape violation n=%d component %d "
                                    "monomial (%d,%d): %r" % (n, h, i, j, c))
            last_sq = [k for k in range(1, n + 1)
                       if g.quadratic_coefficient(n, k, k)]
            if len(last_sq) > 1 or (last_sq
                                    and not nf.j0 == last_sq[0] <= cut):
                _report(9, name, False,
                        "last-component squares %r vs pivot %r (n=%d)"
                        % (last_sq, nf.j0, n))
            if (nf.conjugator.compose(nf.normalized)
                    != F.map.compose(nf.conjugator)):
                _report(9, name, False,
                        "conjugation identity broken at n=%d" % n)
            germs += 1

            v1 = epsilon_vector(nf)
            alpha = [G(Fraction(rng.randint(1, 5), rng.randint(1, 4)))]
            alpha += [G(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                      for _ in range(n - 1)]
            Tg = _toeplitz_germ(alpha, n, 2)
            conj = germ_inverse(Tg, 2).compose(F.map.compose(Tg))
            v2 = epsilon_vector(normal_form(conj))
            pairs = [(a, b) for a, b in zip(v1, v2) if a or b]
            if pairs:
                a0, b0 = pairs[0]
                if not (a0 and b0):
                    _report(9, name, False,
                            "first-order vectors not proportional (n=%d): "
                            "%r vs %r" % (n, v1, v2))
                r = b0 / a0
                if any(b != r * a for a, b in pairs):
                    _report(9, name, False,
                            "first-order vectors not exact multiples "
                            "(n=%d): %r vs %r" % (n, v1, v2))
                proportional += 1
    _report(9, name, True,
            "%d germs (100 per dimension 2..4): shape and conjugation "
            "identity exact; %d nonzero first-order vectors exact scalar "
            "multiples under random triangular-Toeplitz conjugation"
            % (germs, proportional))


# -- 10: randomized series-engine suites -----------------------------------

_EXPS3 = [(i, j) for i in range(4) for j in range(4) if i + j <= 3]


def _rand_series(rng, max_terms=4, unit=False):
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        e = _EXPS3[rng.randrange(len(_EXPS3))]
        coeffs[e] = G(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                      Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    if unit:
        coeffs[(0, 0)] = G(Fraction(rng.randint(1, 9), rng.randint(1, 5)))
    return TruncatedSeries(2, 3, coeffs)


def _rand_origin_germ(rng):
    comps = []
    for _ in range(2):
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            e = _EXPS3[rng.randrange(len(_EXPS3))]
            if sum(e) == 0:
                continue
            coeffs[e] = G(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        comps.append(TruncatedSeries(2, 3, coeffs))
    return PolyMapGerm(comps)


def test_criterion_10_series_engine_randomized_suites():
    name = "series engine randomized suites (1000 cases each, exact)"
    one = TruncatedSeries.constant(1, 2, 3)

    rng = random.Random(101)
    for _ in range(1000):
        a, b, c = (_rand_series(rng) for _ in range(3))
        if not ((a + b) + c == a + (b + c) and a * b == b * a
                and (a * b) * c == a * (b * c)
                and a * (b + c) == a * b + a * c
                and a * one == a and a + a.zero(2, 3) == a
                and a - a == a.zero(2, 3)):
            _report(10, name, False, "ring axiom violated: %r %r %r"
                    % (a, b, c))

    rng = random.Random(102)
    for _ in range(1000):
        f, g, h = (_rand_origin_germ(rng) for _ in range(3))
        if f.compose(g).compose(h) != f.compose(g.compose(h)):
            _report(10, name, False,
                    "composition associativity violated")

    rng = random.Random(103)
    for _ in range(1000):
        u = _rand_series(rng, unit=True)
        v = _rand_series(rng, unit=True)
        iu = series_reciprocal(u)
        if not (u * iu == one and series_reciprocal(iu) == u
                and series_reciprocal(u * v) == iu * series_reciprocal(v)):
            _report(10, name, False, "reciprocal identity violated: %r" % u)

    rng = random.Random(104)
    obstructed = 0
    for _ in range(1000):
        s = _rand_series(rng)
        m = (rng.randint(0, 2), rng.randint(0, 2))
        prod = monomial_multiply(s, m)
        if not (monomial_divide(prod, m) == s
                and monomial_divide(s, (0, 0)) == s):
            _report(10, name, False,
                    "monomial round trip violated: %r / %r" % (s, m))
        if sum(m) and not s.is_zero():
            blocked = prod + TruncatedSeries.constant(1, 2, prod.cap)
            try:
                monomial_divide(blocked, m)
            except DivisionObstruction:
                obstructed += 1
            else:
                _report(10, name, False,
                        "missed division obstruction: %r / %r" % (s, m))
    _report(10, name, True,
            "ring axioms, composition associativity, reciprocal and "
            "monomial-division suites all exact (%d obstruction cases "
            "raised as required)" % obstructed)
