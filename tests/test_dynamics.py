import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from blowdyn import dynamics as dyn
from blowdyn.blowup import on_singular_divisor, projection_formulas
from blowdyn.errors import (
    DegenerateDirection,
    InsufficientData,
    NoAllowableDirection,
    NonConvergent,
    NonGeneric,
    PreconditionViolated,
    UnsupportedSpectrum,
)
from blowdyn.exactalg import solve_linear
from blowdyn.lifting import (
    ChartQuadraticForm,
    germ_from_terms,
    lift,
    lifted_quadratic_part,
)
from blowdyn.partition import build_structure
from blowdyn.scalars import GaussianRational as G
from blowdyn.series import TruncatedSeries, series_reciprocal

from conftest import (fatou_germ, partitions, quadratic_monomials,
                      rand_rat, random_germ)

S2 = build_structure((2,), (G(1),))
S3 = build_structure((3,), (G(1),))


def mk(S, terms, cap=2):
    return germ_from_terms(S, {k: G(v) if not isinstance(v, G) else v
                               for k, v in terms.items()}, cap=cap)


@pytest.fixture(scope="module")
def fatou():
    return fatou_germ()


@pytest.fixture(scope="module")
def refined_trace(fatou):
    seed = dyn.standard_orbit_seed(fatou, k0=50, settle=6000,
                                   precision_bits=128)
    return dyn.orbit_iterate(fatou, seed, 2500, precision_bits=128)


# -- projective distance ---------------------------------------------------

def test_projective_distance_basics():
    assert dyn.projective_distance((3, 2), (3, 2)) == 0
    assert dyn.projective_distance((3, 2), (6, 4)) < 1e-15
    # complex rescaling is free
    assert dyn.projective_distance((1, 1j), (1j, -1)) < 1e-15
    assert abs(dyn.projective_distance((1, 0), (0, 1))
               - math.sqrt(2)) < 1e-15


def test_projective_distance_no_cancellation_floor():
    # phase-aligned chord form keeps tiny separations resolvable
    d = dyn.projective_distance((1.0, 1e-9), (1.0, 0.0))
    assert 0.5e-9 < d < 2e-9
    d2 = dyn.projective_distance((1.0, 1e-9), (1.0, 2e-9))
    assert 0.5e-9 < d2 < 2e-9


def test_argmax_abs_outside_the_squared_double_range():
    # |x|^2 overflows above ~1.3e154 and underflows to 0 below ~1e-162
    assert dyn._argmax_abs((1e160, 1e170j)) == 1
    assert dyn._argmax_abs((1e-170, -1e-165)) == 1
    assert dyn._argmax_abs((G(1, 1), G(0, 1))) == 0


# -- characteristic directions --------------------------------------------

def test_structured_direction_planar(fatou):
    Q = lifted_quadratic_part(lift(fatou, 2, 2))
    ds = dyn.characteristic_directions(Q, mode="structured", structure=S2)
    assert len(ds) == 1
    d = ds[0]
    assert d.v == (G(3), G(2))
    assert d.lam == G(1)
    assert d.allowable is True
    assert not d.degenerate


def test_structured_direction_triple_block():
    g = mk(S3, {(3, (2, 0, 0)): 2})
    Q = lifted_quadratic_part(lift(g, 3, 2))
    d = dyn.characteristic_directions(Q, mode="structured", structure=S3)[0]
    # leading entry (2 mu_1 - 1) lam / a = 5/2, then (mu_1 + j - 2) lam
    assert d.v == (G(Fraction(5, 2)), G(3), G(4))


def test_structured_direction_trailing_blocks():
    S32 = build_structure((3, 2), (G(1), G(1)))
    g = mk(S32, {(3, (2, 0, 0, 0, 0)): 1, (5, (2, 0, 0, 0, 0)): 3})
    Q = lifted_quadratic_part(lift(g, S32.ell, 2))
    d = dyn.characteristic_directions(Q, mode="structured", structure=S32)[0]
    assert d.v == (G(5), G(3), G(4), G(9), G(12))

    S31 = build_structure((3, 1), (G(1), G(1)))
    g2 = mk(S31, {(3, (2, 0, 0, 0)): 1})
    Q2 = lifted_quadratic_part(lift(g2, S31.ell, 2))
    d2 = dyn.characteristic_directions(Q2, mode="structured",
                                       structure=S31)[0]
    # blocks shorter than mu_1 - 1 get zero entries
    assert d2.v == (G(5), G(3), G(4), G(0))


def test_structured_tied_tops_has_no_allowable_direction():
    S22 = build_structure((2, 2), (G(1), G(1)))
    g = mk(S22, {(2, (2, 0, 0, 0)): 1})
    Q = lifted_quadratic_part(lift(g, S22.ell, 2))
    with pytest.raises(NoAllowableDirection):
        dyn.characteristic_directions(Q, mode="structured", structure=S22)


def planar_stage1(a111, a212_monomial, a2111):
    g = mk(S2, {(1, (2, 0)): a111, (2, (1, 1)): a212_monomial,
                (2, (3, 0)): a2111}, cap=3)
    return g, lifted_quadratic_part(lift(g, 1, 2))


def test_exact2d_rational_roots():
    # a111 = 1, a212 = 2, cubic 4: second invariant 1 + 8 = 9, rational root
    _, Q = planar_stage1(1, 4, 4)
    ds = dyn.characteristic_directions(Q, mode="exact2d")
    slopes = sorted(str(d.v[1]) for d in ds if d.v[0])
    assert slopes == ["-1", "2"]
    lam_by = {str(d.v[1]): d for d in ds if d.v[0]}
    assert lam_by["2"].lam == G(3)
    assert lam_by["-1"].lam == G(0)
    assert lam_by["-1"].degenerate
    vertical = [d for d in ds if not d.v[0]][0]
    assert vertical.lam == G(-1)


def test_exact2d_irrational_discriminant_rejected():
    _, Q = planar_stage1(1, 4, 3)  # discriminant 7: no rational root
    with pytest.raises(PreconditionViolated):
        dyn.characteristic_directions(Q, mode="exact2d")


def final_q(F):
    return lifted_quadratic_part(lift(F, F.structure.ell, 2))


def same_ray(a, b):
    """Whether the exact vectors a and b span the same complex line."""
    n = len(a)
    return all(a[h] * b[k] == a[k] * b[h] for h in range(n) for k in range(n))


def assert_fixed(Q, d):
    """Q(w) = lam w on v + t span_i for three values of t per span vector,
    which makes the quadratic identity in t hold for every t."""
    for b in d.span or ((G(0),) * Q.n,):
        for t in (0, 1, 2):
            w = [x + t * y for x, y in zip(d.v, b)]
            assert any(w)
            assert all(Q.value(j, w) == d.lam * w[j - 1]
                       for j in range(1, Q.n + 1))


def test_factored_agrees_with_exact2d_on_final_stage(fatou):
    rng = random.Random(21)
    germs = [fatou] + [random_germ(rng, (2,)) for _ in range(6)] + [
        random_germ(rng, (2,), lam=("1",)) for _ in range(6)]
    for F in germs:
        Q = final_q(F)
        exact = dyn.characteristic_directions(Q, mode="exact2d")
        fact = dyn.characteristic_directions(Q, mode="factored")
        assert len(fact) == len(exact)
        for d in exact:
            (e,) = [x for x in fact if same_ray(x.v, d.v)]
            assert e.degenerate == d.degenerate and not e.span
    assert (G(3), G(2)) in [d.v for d in dyn.characteristic_directions(
        final_q(fatou), mode="factored")]


def test_factored_gives_no_fabricated_direction_on_recorded_21_case():
    # the third draw of random_germ(Random(3)) over (3,), (4,), (2, 1):
    # lambda = (2, 3/5), three nondegenerate and one degenerate direction
    rng = random.Random(3)
    for mu in ((3,), (4,), (2, 1)):
        F = random_germ(rng, mu)
    assert F.structure.lam == (G(2), G(Fraction(3, 5)))
    Q = final_q(F)
    ds = dyn.characteristic_directions(Q, mode="auto", structure=F.structure)
    got = [([str(x) for x in d.v], str(d.lam), d.degenerate, d.span)
           for d in ds]
    assert got == [
        (["-25/2", "3", "0"], "1", False, ()),
        (["0", "-2", "0"], "1", False, ()),
        (["5/2", "0", "0"], "1", False, ()),
        (["0", "0", "1"], "0", True, ()),
    ]
    for d in ds:
        assert_fixed(Q, d)


def test_factored_unipotent_22_degenerate_plane_is_one_span_entry():
    S22 = build_structure((2, 2), (G(1), G(1)))
    F = mk(S22, {(2, (2, 0, 0, 0)): 1, (4, (2, 0, 0, 0)): 1,
                 (1, (1, 1, 0, 0)): 1})
    Q = final_q(F)
    ds = dyn.characteristic_directions(Q, mode="auto", structure=S22)
    assert all(d.mode == "factored" for d in ds)
    (plane,) = [d for d in ds if d.degenerate]
    zero, one = G(0), G(1)
    assert plane.v == (zero, zero, one, zero)
    assert plane.span == ((zero, zero, zero, one),)
    for d in ds:
        assert_fixed(Q, d)
    # with tied leading blocks the final chart's divisor is v1 v2 v4 = 0,
    # and every entry lies in it (the lines in v4 = 0 too): none is
    # allowable, as the closed form's refusal says
    assert [d.allowable for d in ds] == [False] * len(ds)
    with pytest.raises(NoAllowableDirection):
        dyn.characteristic_directions(Q, mode="structured", structure=S22)


def test_factored_every_direction_fixed_is_one_family():
    # Q(v) = (v1 + v2) v fixes every direction: the nondegenerate ones
    # form the line u1 + u2 = 1, and the branches that pin u1 = 0 or
    # u2 = 0 give points on that line, which must not be listed again
    half, zero, one = G(Fraction(1, 2)), G(0), G(1)
    Q = ChartQuadraticForm(n=2, matrices=(((one, half), (half, zero)),
                                          ((zero, half), (half, one))))
    ds = dyn.characteristic_directions(Q, mode="factored")
    got = [(d.v, d.lam, d.span) for d in ds]
    assert got == [((one, zero), one, ((G(-1), one),)),
                   ((G(-1), one), zero, ())]
    for d in ds:
        assert_fixed(Q, d)
    # a generic member of the line is transverse to the divisor, though
    # its representative v is not
    ds = dyn.characteristic_directions(Q, mode="factored", structure=S2)
    assert [(d.v, d.allowable) for d in ds] == [
        ((one, zero), True), ((G(-1), one), True)]


def test_factored_rejects_stage1_planar_and_auto_falls_back():
    _, Q = planar_stage1(1, 4, 4)
    with pytest.raises(PreconditionViolated, match="linear form"):
        dyn.characteristic_directions(Q, mode="factored")
    ds = dyn.characteristic_directions(Q, mode="auto")
    assert [d.mode for d in ds] == ["exact2d"] * 3


def in_family(v, d):
    """Whether v lies on the set of entry d: in the affine space
    d.v + span(d.span) when d is nondegenerate (lam = 1 fixes the scale),
    in the linear span of d.v and d.span when it is degenerate."""
    gens = d.span if not d.degenerate else (d.v,) + d.span
    target = [x - y for x, y in zip(v, d.v)] if not d.degenerate else v
    return solve_linear([list(col) for col in zip(*gens)], target) is not None


def test_factored_entries_are_fixed_distinct_and_maximal():
    rng = random.Random(8)
    families = 0
    for mu in ((3,), (2, 1), (2, 2), (3, 1), (2, 1, 1), (2, 2, 1), (3, 2),
               (2, 1, 1, 1)):
        for _ in range(3):
            Q = final_q(random_germ(rng, mu, density=0.9))
            ds = dyn.characteristic_directions(Q, mode="factored")
            for d in ds:
                assert d.lam in (G(0), G(1)) and d.degenerate == (not d.lam)
                assert_fixed(Q, d)
            for d in ds:
                for e in ds:
                    if e is d or e.degenerate != d.degenerate or d.span:
                        continue
                    # an isolated direction is listed once, on no family
                    assert not (same_ray(d.v, e.v) or e.span
                                and in_family(d.v, e))
            families += sum(1 for d in ds if d.span and not d.degenerate)
    assert families


def reference_solution_spaces(factors, t):
    """_solution_spaces with every branch solved from scratch by
    solve_linear (reference only).  Returns (spaces, number of
    inconsistent branches)."""
    n = len(factors)
    found, inconsistent = set(), 0
    todo = [([[G(0)] * n], [G(0)], list(range(n)))]
    while todo:
        rows, rhs, pending = todo.pop()
        sol = solve_linear(rows, rhs)
        if sol is None:
            inconsistent += 1
            continue
        p, basis = sol
        new = None
        for j in list(pending):
            k, l = factors[j]
            a = None if any(b[k] for b in basis) else p[k]
            if t and k != j:
                if a is None:
                    continue
                row = [a * x for x in l]
                row[j] -= G(1)
                new = [(row, G(0))]
            elif a == G(0) or dyn._dot(l, p) == t and not any(
                    dyn._dot(l, b) for b in basis):
                pending.remove(j)
                continue
            else:
                unit = [G(0)] * n
                unit[k] = G(1)
                new = [(unit, G(0)), (l, t)]
            pending.remove(j)
            break
        if new is not None:
            todo += [(rows + [row], rhs + [r], list(pending))
                     for row, r in new]
        elif pending:
            raise PreconditionViolated(
                "component %d stays quadratic on a branch" % (pending[0] + 1))
        else:
            found.add((tuple(p), tuple(map(tuple, basis))))
    kept = []
    for p, basis in sorted(found, key=lambda s: -len(s[1])):
        if not any(dyn._in_space(p, *o) and all(
                dyn._in_space([x + y for x, y in zip(p, b)], *o)
                for b in basis) for o in kept):
            kept.append((p, basis))
    return kept, inconsistent


def test_solution_spaces_match_from_scratch_branches():
    rng = random.Random(9)
    spans = inconsistent = raised = 0
    for n in range(2, 8):
        for _ in range(12):
            factors = []
            for j in range(n):
                k = j if rng.random() < 0.4 else rng.randrange(n)
                l = [G(rng.randint(-2, 2), rng.randint(-1, 1))
                     if rng.random() < 0.4 else G(0) for _ in range(n)]
                factors.append((k, l))
            for t in (G(1), G(0)):
                try:
                    want, bad = reference_solution_spaces(factors, t)
                except PreconditionViolated as e:
                    with pytest.raises(PreconditionViolated,
                                       match=str(e)):
                        dyn._solution_spaces(factors, t)
                    raised += 1
                    continue
                got = dyn._solution_spaces(factors, t)
                assert [(tuple(p), tuple(map(tuple, b))) for p, b in got] \
                    == want, (n, factors, t)
                spans += sum(1 for _, b in want if b)
                inconsistent += bad
    assert spans and inconsistent and raised


@pytest.mark.parametrize("mu", [(3,), (2, 1), (2, 2), (3, 1)])
def test_factored_matches_sympy_solve(mu):
    sp = pytest.importorskip("sympy")
    rng = random.Random("sympy/%s" % (mu,))
    for _ in range(2):
        Q = final_q(random_germ(rng, mu, density=0.9))
        u = sp.symbols("u1:%d" % (Q.n + 1))

        def exact(x):
            return sp.Rational(x.re) + sp.I * sp.Rational(x.im)

        eqs = [sp.expand(sum(exact(Q.matrices[j][h][k]) * u[h] * u[k]
                             for h in range(Q.n) for k in range(Q.n)) - u[j])
               for j in range(Q.n)]
        points, families = set(), 0
        for sol in sp.solve(eqs, u, dict=True):
            vals = [sp.sympify(sol.get(x, x)) for x in u]
            if any(v.free_symbols for v in vals):
                families += 1
            elif any(vals):
                points.add(tuple(vals))
        ds = [d for d in dyn.characteristic_directions(Q, mode="factored")
              if not d.degenerate]
        assert {tuple(exact(x) for x in d.v) for d in ds if not d.span} \
            == points
        assert sum(1 for d in ds if d.span) == families


def test_exact2d_directions_carry_divisor_transversality():
    _, Q = planar_stage1(1, 4, 4)
    assert {d.allowable for d in dyn.characteristic_directions(
        Q, mode="exact2d")} == {None}
    ds = dyn.characteristic_directions(Q, mode="exact2d", structure=S2)
    assert all(type(d.allowable) is bool for d in ds)
    kept = [d for d in ds if d.allowable]
    assert {str(d.v[1]) for d in kept if d.v[0]} == {"-1", "2"}
    assert all(d.v[0] for d in kept)


def test_unipotent_tied_germs_have_no_allowable_nondegenerate_direction():
    rng = random.Random(23)
    for mu in [(2, 2), (2, 2, 1), (3, 3)] * 4:
        F = random_germ(rng, mu, lam=("1",) * len(mu))
        S, Q = F.structure, final_q(F)
        with pytest.raises(NoAllowableDirection):
            dyn.characteristic_directions(Q, mode="structured", structure=S)
        ds = dyn.characteristic_directions(Q, structure=S)
        assert ds and all(type(d.allowable) is bool for d in ds)
        assert not any(d.allowable and not d.degenerate for d in ds)


def test_allowable_means_off_the_final_divisor():
    """On random germs with random eigenvalues, tied or not, a direction
    is allowable iff it (for a set, a random member) is off the final
    chart's divisor."""
    rng = random.Random(24)
    verdicts = set()
    for mu in [(2, 2), (2, 2, 1), (3, 3), (2, 1), (3, 2)] * 3:
        F = random_germ(rng, mu)
        S = F.structure
        for d in dyn.characteristic_directions(final_q(F), structure=S):
            w = list(d.v)
            for b in d.span:
                t = G(Fraction(rng.randint(1, 99), rng.randint(1, 99)))
                w = [x + t * y for x, y in zip(w, b)]
            assert d.allowable is not on_singular_divisor(S, S.ell, w)
            verdicts.add((len(mu) > 1 and mu[1] == mu[0], d.allowable))
    assert verdicts == {(True, False), (False, False), (False, True)}


# -- attraction spectra ----------------------------------------------------

def test_hakim_spectrum_planar_example(fatou):
    Q = lifted_quadratic_part(lift(fatou, 2, 2))
    h = dyn.hakim_matrix(Q, (G(3), G(2)))
    assert h.spectrum == (G(-3),)


def test_hakim_scale_and_chart_invariance(fatou):
    Q = lifted_quadratic_part(lift(fatou, 2, 2))
    a = dyn.hakim_matrix(Q, (G(3), G(2)))
    b = dyn.hakim_matrix(Q, (G(6), G(4)))
    assert a.spectrum == b.spectrum
    c = dyn.hakim_matrix(Q, (G(3), G(2)), chart=2)
    assert (a.chart, c.chart) == (1, 2)
    assert a.spectrum == c.spectrum


def test_hakim_degenerate_planar_family_values():
    # coincident-root family: single attraction rate -1
    ge, Qe = planar_stage1(1, 2, 2)
    vplus = [d for d in dyn.characteristic_directions(Qe, mode="exact2d")
             if d.v[0] and d.lam][0]
    assert dyn.hakim_matrix(Qe, vplus.v).spectrum == (G(-1),)
    # vanishing-second-invariant family: attraction rate 0
    g0, Q0 = planar_stage1(1, 2, 0)
    v0 = [d for d in dyn.characteristic_directions(Q0, mode="exact2d")
          if d.v[0]][0]
    assert dyn.hakim_matrix(Q0, v0.v).spectrum == (G(0),)


# Exact input gets the exact checks' messages.  Float input is rejected
# before any check: the float case names the messages of the tolerance
# checks hakim_matrix once made, and asserts that they are not reached.
@pytest.mark.parametrize("to_input, degenerate_msg, unfixed_msg", [
    (lambda x: x, "multiplier vanishes", r"\(component 2\)"),
    (lambda x: x.to_complex(), "multiplier numerically zero",
     "component 2 residual too large"),
])
def test_hakim_rejects_degenerate_and_unfixed_directions(
        to_input, degenerate_msg, unfixed_msg):
    _, Q = planar_stage1(1, 4, 4)
    # [1 : -1] is fixed with multiplier 0; [1 : 1] is not fixed
    degenerate = (to_input(G(1)), to_input(G(-1)))
    unfixed = (to_input(G(1)), to_input(G(1)))
    if isinstance(degenerate[0], G):
        with pytest.raises(DegenerateDirection, match=degenerate_msg):
            dyn.hakim_matrix(Q, degenerate)
        with pytest.raises(PreconditionViolated, match=unfixed_msg):
            dyn.hakim_matrix(Q, unfixed)
        return
    # float directions, mixed directions and float matrices are rejected,
    # not compared within a tolerance
    Qf = replace(Q, matrices=tuple(tuple(tuple(to_input(x) for x in row)
                                         for row in m) for m in Q.matrices))
    for q, v, old_msg in ((Q, degenerate, degenerate_msg),
                          (Q, unfixed, unfixed_msg),
                          (Q, (degenerate[0], G(-1)), degenerate_msg),
                          (Qf, (G(1), G(-1)), degenerate_msg)):
        with pytest.raises(PreconditionViolated,
                           match="exact input only") as err:
            dyn.hakim_matrix(q, v)
        assert old_msg not in str(err.value)


def chart_half_deviation(Q, v, i0):
    """(D phi - I) / 2 at u = 0 for the chart map u -> (Q_j / Q_{i0})(w + u),
    j != i0, with w = v / v_{i0} and u_{i0} = 0, differentiated as
    truncated series."""
    n = Q.n
    idxs = [t for t in range(n) if t != i0]
    m = len(idxs)
    z = [TruncatedSeries.constant(x / v[i0], m, 2) for x in v]
    for c, t in enumerate(idxs, 1):
        z[t] = z[t] + TruncatedSeries.variable(c, m, 2)

    def value(M):
        return sum((z[h] * z[k] * M[h][k] for h in range(n) for k in range(n)
                    if M[h][k]), TruncatedSeries.zero(m, 2))

    recip = series_reciprocal(value(Q.matrices[i0]))
    rows = []
    for j in idxs:
        phi = value(Q.matrices[j]) * recip
        row = []
        for c, k in enumerate(idxs):
            e = [0] * m
            e[c] = 1
            row.append((phi.coefficient(e) - (1 if j == k else 0)) / 2)
        rows.append(tuple(row))
    return tuple(rows)


def test_hakim_matrix_is_half_the_chart_derivative_deviation():
    rng = random.Random(31)
    checked = 0
    # the tower shapes with a closed-form direction, lifted to the last stage
    for mu in ((2,), (3,), (4,), (2, 1), (3, 1), (3, 2), (4, 2)):
        F = random_germ(rng, mu, lam=("1",) * len(mu))
        Q = final_q(F)
        (d,) = dyn.characteristic_directions(Q, mode="structured",
                                             structure=F.structure)
        h = dyn.hakim_matrix(Q, d.v)
        assert h.matrix == chart_half_deviation(Q, d.v, h.chart - 1)
        checked += 1
    # random eigenvalues: every isolated nondegenerate factored direction
    for mu in ((2,), (3,), (2, 1), (2, 2), (3, 1), (2, 2, 1)):
        for _ in range(2):
            Q = final_q(random_germ(rng, mu, density=0.9))
            for d in dyn.characteristic_directions(Q, mode="factored"):
                if d.degenerate or d.span:
                    continue
                h = dyn.hakim_matrix(Q, d.v)
                assert h.lam == Q.value(h.chart, [x / d.v[h.chart - 1]
                                                  for x in d.v])
                assert h.matrix == chart_half_deviation(Q, d.v, h.chart - 1)
                checked += 1
    assert checked > 20


def reference_hakim(Q, v, i0):
    """(matrix, lam) of the attraction matrix in GaussianRational
    arithmetic, the formula of hakim_matrix's docstring term by term."""
    n = Q.n
    w = [x / v[i0] for x in v]
    A = [[sum((a * b for a, b in zip(row, w)), G(0)) for row in m]
         for m in Q.matrices]
    qs = [sum((a * b for a, b in zip(w, row)), G(0)) for row in A]
    lam = qs[i0]
    unfixed = [j for j in range(n) if qs[j] != lam * w[j]]
    idxs = [t for t in range(n) if t != i0]
    half = G(Fraction(1, 2))
    mat = tuple(tuple((A[j][k] - w[j] * A[i0][k]) / lam
                      - (half if j == k else G(0)) for k in idxs)
                for j in idxs) if lam and not unfixed else None
    return mat, lam, unfixed


def complex_fixed_form(rng, n, lam):
    """(Q, v): random symmetric complex matrices M_j, each corrected by a
    multiple of e_a e_a^t so that the complex direction v is fixed,
    with Q_j(v) = lam v_j."""
    def rq():
        return G(rand_rat(rng, span=5), rand_rat(rng, span=5))
    v = [rq() if rng.random() < 0.8 else G(0) for _ in range(n)]
    a = rng.randrange(n)
    v[a] = G(rand_rat(rng, nonzero=True, span=5), rand_rat(rng, span=5))
    mats = []
    for j in range(n):
        m = [[G(0)] * n for _ in range(n)]
        for h in range(n):
            for k in range(h, n):
                if rng.random() < 0.6:
                    m[h][k] = m[k][h] = rq()
        value = sum((m[h][k] * v[h] * v[k] for h in range(n)
                     for k in range(n)), G(0))
        m[a][a] = m[a][a] + (lam * v[j] - value) / (v[a] * v[a])
        mats.append(tuple(map(tuple, m)))
    return ChartQuadraticForm(n, tuple(mats)), tuple(v)


def test_hakim_matrix_matches_the_scalar_formula_on_complex_forms():
    rng = random.Random(32)
    for n in range(2, 7):
        for _ in range(4):
            lam = G(rand_rat(rng, nonzero=True, span=4), rand_rat(rng, span=4))
            Q, v = complex_fixed_form(rng, n, lam)
            i0 = dyn._argmax_abs(v)
            charts = [None] + [c + 1 for c in range(n) if v[c]]
            for chart in charts:
                h = dyn.hakim_matrix(Q, v, chart=chart)
                at = i0 if chart is None else chart - 1
                mat, lam_w, _ = reference_hakim(Q, v, at)
                assert h.chart == at + 1
                assert (h.matrix, h.lam) == (mat, lam_w), (n, chart)
                assert h.lam == lam / v[at]


def test_hakim_matrix_refusals_on_complex_forms():
    rng = random.Random(33)
    for n in range(2, 6):
        for _ in range(4):
            # a multiplier of zero
            Q, v = complex_fixed_form(rng, n, G(0))
            with pytest.raises(DegenerateDirection,
                               match="multiplier vanishes"):
                dyn.hakim_matrix(Q, v)
            # one matrix moved off the fixed-point equation
            Q, v = complex_fixed_form(rng, n, G(rand_rat(rng, nonzero=True)))
            j = rng.randrange(n)
            c = rng.randrange(n)
            if not v[c]:
                continue
            mats = [list(map(list, m)) for m in Q.matrices]
            mats[j][c][c] = mats[j][c][c] + G(1, 1)
            bad = ChartQuadraticForm(n, tuple(tuple(map(tuple, m))
                                              for m in mats))
            for chart in (None, c + 1):
                at = dyn._argmax_abs(v) if chart is None else chart - 1
                _, _, unfixed = reference_hakim(bad, v, at)
                assert unfixed
                with pytest.raises(PreconditionViolated,
                                   match=r"\(component %d\)"
                                   % (unfixed[0] + 1)):
                    dyn.hakim_matrix(bad, v, chart=chart)


def test_single_block_attraction_spectra_nonpositive():
    worst = -1.0
    for n in range(2, 8):
        Sn = build_structure((n,), (G(1),))
        e = [0] * n
        e[0] = 2
        g = mk(Sn, {(n, tuple(e)): 1})
        Q = lifted_quadratic_part(lift(g, n, 2))
        d = dyn.characteristic_directions(Q, mode="structured",
                                          structure=Sn)[0]
        h = dyn.hakim_matrix(Q, d.v)
        for s in h.spectrum:
            worst = max(worst, complex(s).real)
    assert worst <= 1e-8


# -- decay profiles --------------------------------------------------------

def test_expected_asymptotics_planar(fatou):
    rows = dyn.expected_asymptotics(fatou)
    assert [(r.j, r.exponent, str(r.constant)) for r in rows] == [
        (1, 2, "6"), (2, 3, "-12")]


def test_expected_asymptotics_deeper_block():
    rows = dyn.expected_asymptotics(mk(S3, {(3, (2, 0, 0)): 1}))
    assert rows[0].exponent == 3
    assert str(rows[0].constant) == "-60"


def test_expected_asymptotics_trailing_blocks():
    S32 = build_structure((3, 2), (G(1), G(1)))
    g = mk(S32, {(3, (2, 0, 0, 0, 0)): 1, (5, (2, 0, 0, 0, 0)): 3})
    rows = {r.j: r for r in dyn.expected_asymptotics(g)}
    assert str(rows[5].constant) == str(G(-1 * 5 * 4 * 6 * 6) * G(3))
    assert rows[4].exponent == 4 and not rows[4].upper_bound_only

    S31 = build_structure((3, 1), (G(1), G(1)))
    rows31 = {r.j: r for r in
              dyn.expected_asymptotics(mk(S31, {(3, (2, 0, 0, 0)): 1}))}
    assert rows31[4].upper_bound_only and rows31[4].constant is None

    # a != 1: the trailing constants carry a_l / a^2, block 1 carries 1 / a
    # (a = 1 above cannot tell a_l / a from a_l / a^2)
    I = G(0, 1)
    cases = [
        ((3, 2), G(3), G(5), [(3, G(-20)), (4, G(60)), (5, G(-240)),
                              (4, G(100)), (5, G(-400))]),
        ((3, 2), I, G(5), [(3, G(0, 60)), (4, G(0, -180)), (5, G(0, 720)),
                           (4, G(-900)), (5, G(3600))]),
        ((2, 1), G(3), G(1), [(2, G(2)), (3, G(-4)),
                              (3, G(Fraction(-4, 3)))]),
        ((2, 1), G(2), G(5), [(2, G(3)), (3, G(-6)), (3, G(-15))]),
        ((2, 1), I, G(1), [(2, G(0, -6)), (3, G(0, 12)), (3, G(12))]),
    ]
    for mu, a, al, want in cases:
        S = build_structure(mu, (G(1), G(1)))
        lead = tuple([2] + [0] * (S.n - 1))
        g = mk(S, {(mu[0], lead): a, (S.n, lead): al})
        got = [(r.exponent, r.constant) for r in dyn.expected_asymptotics(g)]
        assert got == want, (mu, a, al)


def test_trailing_block_orbit_matches_its_constant():
    # (z1 + z2, z2 + 3 z1^2, z3 + z1^2): a = 3, a_2 = 1, so z3 ~ -4/3 / k^3.
    # A seed built from a wrong constant starts off the curve, and the
    # fitted z3 decay is then far from k^-3.
    S21 = build_structure((2, 1), (G(1), G(1)))
    g = mk(S21, {(2, (2, 0, 0)): 3, (3, (2, 0, 0)): 1})
    assert dyn.expected_asymptotics(g)[2].constant == G(Fraction(-4, 3))
    seed = dyn.standard_orbit_seed(g, k0=200, settle=2000, precision_bits=64)
    tr = dyn.orbit_iterate(g, seed, 2000, precision_bits=64)
    f3 = dyn.asymptotic_fit(tr, 3, window=400, k0=200)
    assert abs(f3.exponent_fitted - 3) <= 0.01
    assert abs(f3.constant + 4 / 3) <= 1e-3 * 4 / 3


def _reference_asymptotics(F):
    """The decay table as transcribed from the closed form: block 1 by
    binomials and factorials over a, blocks of size mu_1 - 1 the same
    with the factor a_l / a^2, smaller blocks an upper bound only."""
    S = F.structure
    mu1 = S.mu[0]
    a = F.a(mu1, 1, 1)
    binom = math.comb(2 * mu1 - 2, mu1 - 1)
    rows = []
    for j in range(1, mu1 + 1):
        numer = ((-1) ** (mu1 + j - 1) * (2 * mu1 - 1) * binom
                 * math.factorial(mu1 + j - 2))
        rows.append((mu1 + j - 1, G(numer) / a))
    for mul, nul in zip(S.mu[1:], S.nu[1:]):
        for h in range(1, mul + 1):
            if mul < mu1 - 1:
                rows.append((mu1 + h, None))
                continue
            numer = ((-1) ** (mu1 + h) * (2 * mu1 - 1) * (mul + h) * binom
                     * math.factorial(mu1 + h - 2))
            rows.append((mu1 + h, G(numer) * F.a(nul + mul, 1, 1) / a / a))
    return rows


def test_decay_table_is_the_chart_image_of_the_direction():
    # expected_asymptotics is the forward image of -v/k; compared here with
    # the transcribed table, and the structured v is recovered from the
    # table's constants through the inverse table (rows with only an upper
    # bound read as 0: v vanishes on the blocks they belong to).
    rng = random.Random(24)
    shapes = [mu for n in range(2, 8) for mu in partitions(n)
              if mu[0] >= 2 and (len(mu) == 1 or mu[1] < mu[0])]
    assert len(shapes) == 29
    for mu in shapes:
        terms = {}
        S = build_structure(mu, (G(1),) * len(mu))
        for j in range(1, S.n + 1):
            for e in quadratic_monomials(S.n):
                if rng.random() < 0.5:
                    terms[(j, e)] = G(rand_rat(rng), rand_rat(rng))
        lead = tuple([2] + [0] * (S.n - 1))
        for j in (mu[0],) + tuple(nu + m for nu, m in zip(S.nu[1:], mu[1:])):
            terms[(j, lead)] = G(rand_rat(rng, nonzero=True),
                                 rand_rat(rng, nonzero=True))
        F = germ_from_terms(S, terms, cap=2)
        want = _reference_asymptotics(F)
        rows = dyn.expected_asymptotics(F)
        assert [(r.exponent, r.constant) for r in rows] == want, mu
        assert all(r.upper_bound_only == (c is None)
                   for r, (_, c) in zip(rows, want))
        Q = lifted_quadratic_part(lift(F, S.ell, 2))
        (d,) = dyn.characteristic_directions(Q, mode="structured",
                                             structure=S)
        consts = [G(0) if c is None else c for _, c in want]
        inverse = projection_formulas(S, S.ell).inverse
        assert d.v == tuple(-math.prod((c ** p for c, p in zip(consts, row)
                                        if p), start=G(1))
                            for row in inverse), mu


def test_profile_point_values(fatou):
    z = dyn.profile_point(fatou, 50)
    assert abs(complex(z[0]) - 6 / 2500) < 1e-30
    assert abs(complex(z[1]) + 12 / 125000) < 1e-30


# -- orbits and fits -------------------------------------------------------

def test_orbit_iterate_exact_step(fatou):
    tr = dyn.orbit_iterate(fatou, (Fraction(1, 8), Fraction(1, 16)), 2,
                           precision_bits=64)
    z1 = tr.points[1]
    # (z1 + z2, z2 + z1^2) at (1/8, 1/16) = (3/16, 1/16 + 1/64)
    assert abs(complex(z1[0]) - 3 / 16) < 1e-18
    assert abs(complex(z1[1]) - (1 / 16 + 1 / 64)) < 1e-18


def test_orbit_divergence_truncates(fatou):
    tr = dyn.orbit_iterate(fatou, (Fraction(3, 1), Fraction(2, 1)), 50,
                           precision_bits=64, radius=10.0)
    assert tr.diverged
    assert tr.diverged_at is not None
    assert len(tr.points) <= 51


def test_literal_profile_seed_escapes(fatou):
    # the curve is transversally repelling, so seeding on the truncated
    # profile cannot persist: the deviation blows up around step 230
    z0 = (Fraction(6, 2500), Fraction(-12, 125000))
    tr = dyn.orbit_iterate(fatou, z0, 5000, precision_bits=128)
    assert tr.diverged
    assert 150 < tr.diverged_at < 400
    with pytest.raises(NonConvergent):
        dyn.asymptotic_fit(tr, 1, window=400, k0=50)


def test_refined_seed_tracks_thousands_of_steps(refined_trace):
    assert not refined_trace.diverged
    assert len(refined_trace) == 2501


def test_asymptotic_fit_on_refined_orbit(refined_trace):
    f1 = dyn.asymptotic_fit(refined_trace, 1, window=400, k0=50)
    f2 = dyn.asymptotic_fit(refined_trace, 2, window=400, k0=50)
    assert f1.exponent == 2 and abs(f1.exponent_fitted - 2) <= 0.02
    assert f2.exponent == 3 and abs(f2.exponent_fitted - 3) <= 0.02
    assert abs(f1.constant - 6) / 6 < 0.05
    assert abs(f2.constant + 12) / 12 < 0.05
    assert f1.power_law and f2.power_law


def test_log_corrections_flagged_not_power_law():
    pts = [((1.0 / (k * math.log(k))) + 0j, 0j) for k in range(2, 1500)]
    syn = dyn.OrbitTrace(points=tuple(pts), precision_bits=53)
    f = dyn.asymptotic_fit(syn, 1, window=400, k0=2)
    assert not f.power_law


def test_fit_slope_is_the_least_squares_slope():
    pts = [((1.0 / (k * math.log(k))) + 0j, 0j) for k in range(2, 1500)]
    syn = dyn.OrbitTrace(points=tuple(pts), precision_bits=53)
    f = dyn.asymptotic_fit(syn, 1, window=400, k0=2)
    tail = range(len(pts) - 400, len(pts))
    xs = [math.log(float(2 + i)) for i in tail]
    ys = [math.log(abs(pts[i][0])) for i in tail]
    xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
             / sum((x - xbar) ** 2 for x in xs))
    assert f.exponent_fitted == -slope
    # beyond 2^53 every time in the window has the same log: no slope,
    # even where the mean of those logs rounds off them
    for k0 in (2 ** 62 - 2 ** 20, 2 ** 64):
        with pytest.raises(InsufficientData):
            dyn.asymptotic_fit(syn, 1, window=400, k0=k0)


def test_fit_rejects_flat_orbit(fatou):
    tr = dyn.orbit_iterate(fatou, (0, 0), 300)
    with pytest.raises(Exception):
        dyn.asymptotic_fit(tr, 1, window=100)


# -- regularity ------------------------------------------------------------

def test_regularity_standard_orbit(refined_trace):
    rep = dyn.regularity_classify(refined_trace, S2, k0=50)
    assert [v.verdict for v in rep.verdicts] == ["second-kind"] * 3
    assert rep.classification == "standard"
    assert rep.standard is True
    assert rep.match_distance is not None and rep.match_distance < 1e-4
    assert rep.matched_direction.v == (G(3), G(2))


def test_regularity_synthetic_power_law():
    a, b = 2.0, 3.0
    pts = [(a / k ** 2 + 0j, b / k ** 3 + 0j) for k in range(1, 2001)]
    syn = dyn.OrbitTrace(points=tuple(pts), precision_bits=53)
    rep = dyn.regularity_classify(syn, S2, k0=1)
    assert [v.verdict for v in rep.verdicts] == ["second-kind"] * 3
    # without a source germ there is no direction table to match against
    assert rep.classification == "inconclusive"
    got = rep.verdicts[2].limit
    assert dyn.projective_distance(got, (a * a / b, b / a)) < 1e-3


def test_regularity_oscillating_direction_is_irregular():
    pts = [((1.0 if k % 2 == 0 else 0.1) / k + 0j, 1.0 / k + 0j)
           for k in range(1, 1201)]
    syn = dyn.OrbitTrace(points=tuple(pts), precision_bits=53)
    rep = dyn.regularity_classify(syn, S2, k0=1)
    assert rep.verdicts[0].verdict == "not-regular"
    assert rep.classification == "irregular"


def test_regularity_first_kind_branch():
    pts = [(1.0 / k + 0j, 1.0 / k + 1.0 / k ** 2 + 0j)
           for k in range(1, 1201)]
    syn = dyn.OrbitTrace(points=tuple(pts), precision_bits=53)
    rep = dyn.regularity_classify(syn, S2, k0=1)
    assert rep.verdicts[1].verdict == "first-kind"
    assert rep.verdicts[2].verdict == "first-kind"
    assert rep.classification == "regular-nonstandard"


def test_regularity_window_overrides(refined_trace):
    rep = dyn.regularity_classify(refined_trace, S2, k0=50, tau=1e-2,
                                  window=40)
    assert rep.classification == "standard"
    with pytest.raises(PreconditionViolated):
        dyn.regularity_classify(refined_trace, S2, k0=50, window=2)


# -- end-to-end parabolic classification ----------------------------------

def test_classification_generic(fatou):
    cr = dyn.parabolic_classification(fatou)
    assert cr.kind == "generic"
    assert cr.curves == 1
    assert cr.stage == 2
    assert cr.directions[0].v == (G(3), G(2))
    assert [r.exponent for r in cr.asymptotics] == [2, 3]


def test_classification_planar_two_curves():
    g = mk(S2, {(1, (2, 0)): 1, (2, (1, 1)): 1}, cap=3)
    cr = dyn.parabolic_classification(g)
    assert cr.kind == "planar-nongeneric"
    assert cr.curves == 2
    assert str(cr.invariants.epsilon) == "3/2"
    assert str(cr.invariants.eta) == "1/4"
    slopes = sorted(str(d.v[1]) for d in cr.directions)
    assert slopes == ["-1/2", "0"]
    rates = sorted(str(d.hakim_spectrum[0]) for d in cr.directions)
    assert rates == ["-1/2", "1"]


def test_classification_planar_closed_form_matches_chart_matrix():
    rational = {(1, (2, 0)): 1, (2, (1, 1)): 1}
    # a111 = 1, a212 = 1/3: the second invariant 34/9 has no rational
    # root, so the closed form runs in floating point
    irrational = {(1, (2, 0)): 1, (2, (1, 1)): Fraction(2, 3),
                  (2, (3, 0)): Fraction(5, 3)}
    for terms, exact in ((rational, True), (irrational, False)):
        g = mk(S2, terms, cap=3)
        cr = dyn.parabolic_classification(g)
        assert cr.curves == 2
        assert any("irrational" in note for note in cr.notes) is not exact
        Q = lifted_quadratic_part(lift(g, 1, 2))
        m11, m12, c11, c12, c22 = (
            Q.monomial_coefficient(*jhk).to_complex()
            for jhk in ((1, 1, 1), (1, 1, 2), (2, 1, 1), (2, 1, 2), (2, 2, 2)))
        for d in cr.directions:
            if exact:
                h = dyn.hakim_matrix(Q, d.v, chart=1)
                assert h.spectrum == d.hakim_spectrum
                assert h.lam == d.lam
                continue
            t = d.v[1]
            # the slope solves Q_2(1, t) = t Q_1(1, t)
            assert abs(c11 + (c12 - m11) * t + (c22 - m12) * t * t) < 1e-12
            # hakim_matrix takes exact input only; its chart-1 formula in
            # floats: A_j = M_j (1, t), lam = (1, t) . A_1 and
            # H = (A_2[2] - t A_1[2]) / lam - 1/2
            A = [[row[0].to_complex() + row[1].to_complex() * t for row in m]
                 for m in Q.matrices]
            lam = A[0][0] + t * A[0][1]
            assert abs(lam - d.lam) < 1e-12
            h = (A[1][1] - t * A[0][1]) / lam - 0.5
            assert abs(h - d.hakim_spectrum[0]) < 1e-12


def test_classification_planar_one_curve_cases():
    # coincident roots: one curve, attraction rate -1
    ge = mk(S2, {(1, (2, 0)): 1, (2, (1, 1)): 2, (2, (3, 0)): 2}, cap=3)
    cre = dyn.parabolic_classification(ge)
    assert cre.curves == 1
    rate = [d.hakim_spectrum for d in cre.directions if not d.degenerate][0]
    assert rate == (G(-1),)
    # vanishing second invariant with nonzero first: one curve
    g0 = mk(S2, {(1, (2, 0)): 1, (2, (1, 1)): 2}, cap=3)
    cr0 = dyn.parabolic_classification(g0)
    assert cr0.curves == 1
    rate0 = [d.hakim_spectrum for d in cr0.directions if not d.degenerate][0]
    assert rate0 == (G(0),)


def test_classification_unresolved_cases():
    gu = mk(S2, {(1, (2, 0)): 1, (2, (1, 1)): -2, (2, (3, 0)): -2}, cap=3)
    assert dyn.parabolic_classification(gu).kind == "unresolved"
    gU = mk(S3, {(1, (0, 2, 0)): 1})
    assert dyn.parabolic_classification(gU).kind == "unresolved"
    S22 = build_structure((2, 2), (G(1), G(1)))
    g22 = mk(S22, {(2, (2, 0, 0, 0)): 1})
    assert dyn.parabolic_classification(g22).kind == "unresolved"
    S31 = build_structure((3, 1), (G(1), G(1)))
    gT = mk(S31, {(2, (2, 0, 0, 0)): 1})
    assert dyn.parabolic_classification(gT).kind == "unresolved"


def test_classification_early_stage():
    gE = mk(S3, {(2, (2, 0, 0)): 1})
    cr = dyn.parabolic_classification(gE)
    assert cr.kind == "early-stage"
    assert cr.curves == 1
    assert cr.stage == 2


# -- documented refusals ---------------------------------------------------

def _refusal_cases():
    lam2 = build_structure((2,), (G(2),))
    S22 = build_structure((2, 2), (G(1), G(1)))
    off = mk(lam2, {(2, (2, 0)): 1})                 # eigenvalue 2
    tied = mk(S22, {(2, (2, 0, 0, 0)): 1})
    flat = mk(S2, {(2, (1, 1)): 1})                  # a(2, 1, 1) = 0
    growing = dyn.OrbitTrace(
        points=tuple((k + 0j, 1j * k) for k in range(1, 301)),
        precision_bits=53)
    decaying = dyn.OrbitTrace(
        points=tuple((1 / k + 0j, 0j) for k in range(1, 301)),
        precision_bits=53)
    # not factored (component 1 is w1^2 + w2^2) and with a w2^2 term in
    # component 1, for a structure whose eigenvalue is not 1
    neither = ChartQuadraticForm(2, (
        ((G(1), G(0)), (G(0), G(1))),
        ((G(0), G(1)), (G(1), G(0)))))
    return [
        ("asymptotics-spectrum", UnsupportedSpectrum,
         "require every block eigenvalue equal to 1",
         lambda F: dyn.expected_asymptotics(off)),
        ("asymptotics-tied", NonGeneric, "tied leading blocks",
         lambda F: dyn.expected_asymptotics(tied)),
        ("asymptotics-vanishing", NonGeneric,
         "leading quadratic coefficient vanishes",
         lambda F: dyn.expected_asymptotics(flat)),
        ("classification-spectrum", UnsupportedSpectrum,
         "covers germs with every block eigenvalue equal to 1",
         lambda F: dyn.parabolic_classification(off)),
        ("classification-planar-cap-2", PreconditionViolated,
         r"needs cubic terms \(cap >= 3\)",
         lambda F: dyn.parabolic_classification(flat)),
        ("seed-no-structure", PreconditionViolated,
         "declared linear structure",
         lambda F: dyn.standard_orbit_seed(F.map, settle=10)),
        ("seed-settle", PreconditionViolated, "settle must be positive",
         lambda F: dyn.standard_orbit_seed(F, settle=0)),
        ("orbit-start", PreconditionViolated, "wrong dimension",
         lambda F: dyn.orbit_iterate(F, (G(0),), 5)),
        ("orbit-steps", PreconditionViolated, "at least one step",
         lambda F: dyn.orbit_iterate(F, (G(0), G(0)), 0)),
        ("profile-time", PreconditionViolated, "profile time must be positive",
         lambda F: dyn.profile_point(F, 0)),
        ("fit-coordinate", PreconditionViolated,
         "coordinate index out of range",
         lambda F: dyn.asymptotic_fit(growing, 3, window=100)),
        ("fit-growing", NonConvergent, "window norms are not decreasing",
         lambda F: dyn.asymptotic_fit(growing, 1, window=100)),
        ("fit-nonpositive-time", InsufficientData,
         r"window starts at time -50; the fit needs times k >= 1",
         lambda F: dyn.asymptotic_fit(decaying, 1, window=250, k0=-100)),
        ("directions-mode", PreconditionViolated, "unknown mode 'newton'",
         lambda F: dyn.characteristic_directions(neither, mode="newton")),
        ("directions-auto", PreconditionViolated,
         "^structured: .*eigenvalue equal to 1; "
         "factored: component 1 is not one coordinate times a linear form; "
         "exact2d: component 1 has a w_2\\^2 term",
         lambda F: dyn.characteristic_directions(neither, structure=lam2)),
    ]


@pytest.mark.parametrize("case", _refusal_cases(), ids=lambda c: c[0])
def test_documented_refusals(case, fatou):
    _, error, fragment, call = case
    with pytest.raises(error, match=fragment):
        call(fatou)
