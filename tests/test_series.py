"""Exact-arithmetic property suites for the truncated series engine.

Four randomized suites (ring axioms, composition associativity,
reciprocal, monomial division) run 1000 deterministic cases each; the
remaining tests pin down constructors and the germ-level helpers.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blowdyn.errors import DivisionObstruction, PreconditionViolated
from blowdyn.scalars import GaussianRational
from blowdyn.series import (
    PolyMapGerm,
    TruncatedSeries,
    germ_inverse,
    identity_germ,
    monomial_divide,
    monomial_multiply,
    series_compose,
    series_reciprocal,
)

NVARS = 2
CAP = 4
EXPS = [
    (i, j) for i in range(CAP + 1) for j in range(CAP + 1) if i + j <= CAP
]

SUITE = settings(
    max_examples=1000,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                           HealthCheck.filter_too_much],
)

small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=5)
scalars = st.builds(GaussianRational, small_fraction,
                    st.one_of(st.just(Fraction(0)), small_fraction))


def _series(coeff_map):
    return TruncatedSeries(NVARS, CAP, coeff_map)


series_strategy = st.builds(
    _series,
    st.dictionaries(st.sampled_from(EXPS), scalars, max_size=6),
)

ZERO = TruncatedSeries.zero(NVARS, CAP)
ONE = TruncatedSeries.constant(1, NVARS, CAP)


@SUITE
@given(series_strategy, series_strategy, series_strategy)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert (a - a).is_zero()
    assert -(-a) == a


def _germ(rows):
    """Origin-fixing germ from two lists of (exponent, coefficient)."""
    comps = []
    for row in rows:
        coeffs = {}
        for e, c in row:
            if sum(e) == 0:
                continue
            coeffs[e] = coeffs.get(e, GaussianRational(0)) + c
        comps.append(TruncatedSeries(NVARS, 3, coeffs))
    return PolyMapGerm(comps)


germ_rows = st.lists(
    st.tuples(st.sampled_from([e for e in EXPS if 1 <= sum(e) <= 3]),
              scalars),
    max_size=5,
)
germ_strategy = st.builds(_germ, st.tuples(germ_rows, germ_rows))


@SUITE
@given(germ_strategy, germ_strategy, germ_strategy)
def test_composition_associativity(f, g, h):
    left = f.compose(g).compose(h)
    right = f.compose(g.compose(h))
    assert left == right


def _with_unit_constant(s, c):
    # replace the constant term outright so cancellation cannot zero it
    shifted = s - TruncatedSeries.constant(s.constant_term(), NVARS, CAP)
    return shifted + TruncatedSeries.constant(c, NVARS, CAP)


unit_series = st.builds(
    _with_unit_constant,
    series_strategy,
    st.builds(GaussianRational,
              small_fraction.filter(bool),
              st.just(Fraction(0))),
)


@SUITE
@given(unit_series, unit_series)
def test_reciprocal(u, v):
    iu = series_reciprocal(u)
    assert u * iu == ONE
    assert series_reciprocal(iu) == u
    assert series_reciprocal(u * v) == iu * series_reciprocal(v)


small_monomial = st.sampled_from([e for e in EXPS if sum(e) <= 2])


@SUITE
@given(series_strategy, small_monomial)
def test_monomial_division(s, m):
    prod = monomial_multiply(s, m)
    assert monomial_divide(prod, m) == s
    assert monomial_divide(s, (0,) * NVARS) == s
    if sum(m) and not s.is_zero():
        blocked = prod + TruncatedSeries.constant(1, NVARS, prod.cap)
        with pytest.raises(DivisionObstruction):
            monomial_divide(blocked, m)


# -- non-randomized checks ------------------------------------------------

def test_constructors_and_inspection():
    w1 = TruncatedSeries.variable(1, 2, 3)
    w2 = TruncatedSeries.variable(2, 2, 3)
    s = w1 * w1 + 2 * w2
    assert s.coefficient((2, 0)) == GaussianRational(1)
    assert s.coefficient((0, 1)) == GaussianRational(2)
    assert s.low_degree() == 1
    assert s.homogeneous_part(2) == w1 * w1
    assert TruncatedSeries.zero(2, 3).low_degree() is None
    assert not s.is_zero()
    assert s.constant_term() == GaussianRational(0)


def test_cap_is_enforced():
    with pytest.raises(PreconditionViolated):
        TruncatedSeries(2, 2, {(3, 0): GaussianRational(1)})
    w1 = TruncatedSeries.variable(1, 2, 4)
    s = (w1 * w1) * (w1 * w1)
    assert s.coefficient((4, 0)) == GaussianRational(1)
    assert (s * w1).is_zero()  # degree 5 falls off the cap


def test_truncated_vs_polynomial_reinterpretation():
    w1 = TruncatedSeries.variable(1, 2, 4)
    s = w1 * w1 * w1
    t = s.truncated(2)
    assert t.is_zero() and t.cap == 2
    u = s.as_polynomial_cap(6)
    assert u.cap == 6 and u.coefficient((3, 0)) == GaussianRational(1)
    with pytest.raises(PreconditionViolated):
        s.truncated(5)


def test_reciprocal_needs_a_unit():
    w1 = TruncatedSeries.variable(1, 2, 3)
    with pytest.raises(PreconditionViolated):
        series_reciprocal(w1)


def test_reciprocal_geometric_example():
    # 1/(1 - w1) = 1 + w1 + w1^2 + ... up to the cap
    w1 = TruncatedSeries.variable(1, 2, 4)
    one = TruncatedSeries.constant(1, 2, 4)
    inv = series_reciprocal(one - w1)
    for p in range(5):
        e = (p, 0)
        assert inv.coefficient(e) == GaussianRational(1)


def test_compose_respects_cap_and_origin():
    w1 = TruncatedSeries.variable(1, 2, 3)
    w2 = TruncatedSeries.variable(2, 2, 3)
    outer = w1 * w2
    inner = [w1 + w1 * w1, w2]
    got = series_compose(outer, inner)
    assert got.coefficient((1, 1)) == GaussianRational(1)
    assert got.coefficient((2, 1)) == GaussianRational(1)
    with pytest.raises(PreconditionViolated):
        series_compose(outer, [w1 + TruncatedSeries.constant(1, 2, 3), w2])


def test_germ_inverse_round_trip():
    n, cap = 2, 4
    ident = identity_germ(n, cap)
    w1 = TruncatedSeries.variable(1, n, cap)
    w2 = TruncatedSeries.variable(2, n, cap)
    chi = PolyMapGerm([w1 + w2 * w2, w2 - w1 * w1 + w1 * w2])
    inv = germ_inverse(chi)
    assert chi.compose(inv) == ident
    assert inv.compose(chi) == ident


def test_germ_inverse_needs_invertible_linear_part():
    n, cap = 2, 3
    w1 = TruncatedSeries.variable(1, n, cap)
    w2 = TruncatedSeries.variable(2, n, cap)
    with pytest.raises(PreconditionViolated):
        germ_inverse(PolyMapGerm([w1, w1 + w2 * w2 - w2 * w2]))


def test_quadratic_coefficient_symmetrization():
    n, cap = 2, 2
    w1 = TruncatedSeries.variable(1, n, cap)
    w2 = TruncatedSeries.variable(2, n, cap)
    g = PolyMapGerm([w1 + 6 * (w1 * w2), w2 + w1 * w1])
    # the w1*w2 monomial carries 2 a_{12}, so a_{12} = 3
    assert g.quadratic_coefficient(1, 1, 2) == GaussianRational(3)
    assert g.quadratic_coefficient(1, 2, 1) == GaussianRational(3)
    assert g.quadratic_coefficient(2, 1, 1) == GaussianRational(1)


def test_evaluate_matches_polynomial():
    w1 = TruncatedSeries.variable(1, 2, 3)
    w2 = TruncatedSeries.variable(2, 2, 3)
    s = w1 * w1 * w2 + 3 * w1
    val = s.coefficient  # silence linters; direct arithmetic check below
    x = GaussianRational(Fraction(1, 2))
    y = GaussianRational(Fraction(-2, 3))
    from blowdyn.series import series_evaluate

    got = series_evaluate(s, [x, y])
    assert got == x * x * y + 3 * x
