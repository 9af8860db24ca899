import random
from fractions import Fraction

import pytest

from blowdyn import blowup
from blowdyn.blowup import (
    chart_step,
    compare_printed_tables,
    on_singular_divisor,
    pi_forward,
    pi_inverse,
    projection_formulas,
)
from blowdyn.errors import PreconditionViolated, ZeroCoordinate
from blowdyn.partition import build_structure, splitting
from blowdyn.scalars import GaussianRational

from conftest import STRUCTURES, partitions, rand_lambdas


def S_of(mu, lam=None):
    if lam is None:
        lam = tuple(GaussianRational(1) for _ in mu)
    return build_structure(mu, lam)


def test_single_step_planar_chart():
    S = S_of((2,))
    # chart 1 -> base: (w1, w2) -> (w1, w1 w2)
    assert chart_step(S, 1, [3, 5]) == [3, 15]
    # chart 2 -> chart 1: the first coordinate picks up the new divisor
    assert chart_step(S, 2, [3, 5]) == [15, 5]


def test_forward_tables_match_known_planar_charts():
    S = S_of((2,))
    p1 = projection_formulas(S, 1)
    assert p1.forward == ((1, 0), (1, 1))
    assert p1.inverse == ((1, 0), (-1, 1))
    assert p1.required_nonzero == (1,)
    p2 = projection_formulas(S, 2)
    assert p2.forward == ((1, 1), (1, 2))
    assert p2.inverse == ((2, -1), (-1, 1))
    assert p2.required_nonzero == (1, 2)


def test_forward_times_inverse_is_identity():
    for mu in STRUCTURES:
        S = S_of(mu)
        for k in range(1, S.ell + 1):
            pf = projection_formulas(S, k)
            n = S.n
            for a in range(n):
                for b in range(n):
                    got = sum(pf.forward[a][t] * pf.inverse[t][b]
                              for t in range(n))
                    assert got == (1 if a == b else 0), (mu, k)


def test_every_inverse_row_has_one_of_the_three_chart_shapes():
    """Every stage of every structure a map file or --mu accepts (n up to
    12), as pf.shapes spells it: row 1 is z_1 at stage 1 and z_1^2/z_h
    after it, and every other row is z_j/z_h."""
    tally = {"z_j/z_h": 0, "z_1^2/z_h": 0, "z_j": 0}
    pairs = 0
    for n in range(2, 13):
        for mu in partitions(n):
            if mu[0] < 2:
                continue
            S = S_of(mu)
            for k in range(1, S.ell + 1):
                pf = projection_formulas(S, k)
                pairs += 1
                for i, (row, (j, t, h)) in enumerate(
                        zip(pf.inverse, pf.shapes), start=1):
                    want = [0] * n
                    want[j] += t
                    if h is not None:
                        want[h] -= 1
                    assert tuple(want) == row, (mu, k, i)
                    if (i, k, j, t, h) == (1, 1, 0, 1, None):
                        shape = "z_j"
                    elif i == 1 < k and (j, t) == (0, 2) and h is not None:
                        shape = "z_1^2/z_h"
                    elif i > 1 and t == 1 and h is not None:
                        shape = "z_j/z_h"
                    else:
                        pytest.fail("stage %d row %d of %r" % (k, i, mu))
                    tally[shape] += 1
    assert pairs == 1264
    assert tally == {"z_j/z_h": 11644, "z_1^2/z_h": 1005, "z_j": 259}


@pytest.mark.parametrize("bad", [(1, 1), (-1, 2), (1, -2), (0, 0)])
def test_an_inverse_row_of_another_shape_is_refused(monkeypatch, bad):
    S = S_of((2,))
    monkeypatch.setattr(blowup, "invert_unimodular_int_matrix",
                        lambda forward: [[1, 0], list(bad)])
    blowup._projection_formulas.cache_clear()
    try:
        with pytest.raises(PreconditionViolated) as info:
            projection_formulas(S, 1)
    finally:
        blowup._projection_formulas.cache_clear()
    assert str(info.value).startswith(
        "stage 1 inverse row 2 is %r" % (tuple(bad),))


def test_round_trip_at_random_points():
    rng = random.Random(5)
    for mu in STRUCTURES:
        S = S_of(mu)
        for k in range(1, S.ell + 1):
            w = [GaussianRational(Fraction(rng.randint(1, 9),
                                           rng.randint(1, 9)))
                 for _ in range(S.n)]
            z = pi_forward(S, k, w)
            back = pi_inverse(S, k, z)
            assert back == w
            again = pi_forward(S, k, back)
            assert again == z


def test_inverse_requires_nonzero_coordinates():
    S = S_of((2,))
    with pytest.raises(ZeroCoordinate):
        pi_inverse(S, 1, [GaussianRational(0), GaussianRational(1)])
    # z_2 is not required at stage 1
    out = pi_inverse(S, 1, [GaussianRational(2), GaussianRational(0)])
    assert out == [GaussianRational(2), GaussianRational(0)]


def test_projection_only_involves_distinguished_coordinates():
    # forward rows must be genuine monomials with nonnegative exponents
    for mu in STRUCTURES:
        S = S_of(mu)
        for k in range(1, S.ell + 1):
            pf = projection_formulas(S, k)
            for row in pf.forward:
                assert all(p >= 0 for p in row)
                assert sum(row) >= 1
            # degrees grow with the stage: total degree of the table is
            # strictly larger than at the previous stage
            if k > 1:
                prev = projection_formulas(S, k - 1)
                assert (sum(sum(r) for r in pf.forward)
                        > sum(sum(r) for r in prev.forward))


def test_singular_divisor_detection():
    S = S_of((2,))
    assert on_singular_divisor(S, 1, [GaussianRational(0),
                                      GaussianRational(2)])
    assert not on_singular_divisor(S, 1, [GaussianRational(1),
                                          GaussianRational(0)])
    assert on_singular_divisor(S, 2, [GaussianRational(1),
                                      GaussianRational(0)])
    # tied leading blocks: the last stage's divisor adds the pivot w_4
    S22 = S_of((2, 2))
    one, zero = GaussianRational(1), GaussianRational(0)
    assert on_singular_divisor(S22, 3, [one, one, one, zero])
    assert not on_singular_divisor(S22, 3, [one, one, zero, one])


def test_divisor_is_the_first_block_of_the_splitting():
    """The divisor read off the folded forward table (columns summing
    above 1) against the splitting's closed form, at every stage of every
    structure with n <= 7."""
    pairs = 0
    for n in range(2, 8):
        for mu in partitions(n):
            if mu[0] < 2:
                continue
            S = S_of(mu)
            for k in range(1, S.ell + 1):
                pairs += 1
                assert (projection_formulas(S, k).divisor
                        == splitting(S, k).per_block[0]), (mu, k)
    assert pairs == 132


def test_printed_tables_agree_with_generated():
    rng = random.Random(9)
    for mu in STRUCTURES:
        S = S_of(mu, rand_lambdas(rng, len(mu)))
        for k in range(1, S.ell + 1):
            assert compare_printed_tables(S, k) == [], (mu, k)


def test_stage_bounds():
    S = S_of((2,))
    with pytest.raises(PreconditionViolated):
        projection_formulas(S, 0)
    with pytest.raises(PreconditionViolated):
        projection_formulas(S, S.ell + 1)
    with pytest.raises(PreconditionViolated):
        chart_step(S, 3, [1, 2])
