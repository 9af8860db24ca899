import random
from fractions import Fraction

import pytest

from blowdyn.errors import PreconditionViolated, SchemaError
from blowdyn.scalars import (
    GaussianRational,
    _as_scalar,
    format_scalar,
    gaussian_sqrt,
    parse_scalar,
    sqrt_exact_rational,
)


def test_parse_basic_literals():
    assert parse_scalar("3") == GaussianRational(3)
    assert parse_scalar("-1/2") == GaussianRational(Fraction(-1, 2))
    assert parse_scalar("0.25") == GaussianRational(Fraction(1, 4))
    assert parse_scalar("1e-3") == GaussianRational(Fraction(1, 1000))
    assert parse_scalar("2i") == GaussianRational(0, 2)
    assert parse_scalar("-i") == GaussianRational(0, -1)
    assert parse_scalar("1-2i") == GaussianRational(1, -2)
    assert parse_scalar("1/2+1/3i") == GaussianRational(
        Fraction(1, 2), Fraction(1, 3))


def test_parse_accepts_uppercase_and_j_suffix():
    assert parse_scalar("2J") == parse_scalar("2i") == parse_scalar("2I")


@pytest.mark.parametrize("bad", ["", "1+", "x", "1//2", "i2", "1 + + 2i"])
def test_parse_rejects_junk(bad):
    with pytest.raises(SchemaError):
        parse_scalar(bad)


def test_format_parse_round_trip_random():
    rng = random.Random(7)
    for _ in range(300):
        z = GaussianRational(
            Fraction(rng.randint(-40, 40), rng.randint(1, 17)),
            Fraction(rng.randint(-40, 40), rng.randint(1, 17)),
        )
        assert parse_scalar(format_scalar(z)) == z


def test_field_arithmetic_spot_checks():
    a = parse_scalar("1/2+1/3i")
    b = parse_scalar("-2+i")
    assert a + b == parse_scalar("-3/2+4/3i")
    assert a * b == b * a
    assert (a - b) + b == a
    assert a / b * b == a
    assert a ** 3 == a * a * a
    assert a ** -2 == GaussianRational(1) / (a * a)
    assert (-a) + a == GaussianRational(0)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        parse_scalar("1") / GaussianRational(0)


def test_mixed_type_coercion():
    a = parse_scalar("1/2")
    assert a + 1 == parse_scalar("3/2")
    assert 2 * a == parse_scalar("1")
    assert a + Fraction(1, 2) == GaussianRational(1)
    assert 1 / a == GaussianRational(2)


def test_sqrt_exact_rational():
    assert sqrt_exact_rational(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_exact_rational(Fraction(2)) is None
    assert sqrt_exact_rational(Fraction(-1)) is None
    assert sqrt_exact_rational(Fraction(0)) == 0


def test_gaussian_sqrt_principal_branch():
    # (1+i)^2 = 2i, and the principal root of 2i must be 1+i, not -1-i
    assert gaussian_sqrt(parse_scalar("2i")) == parse_scalar("1+i")
    assert gaussian_sqrt(GaussianRational(4)) == GaussianRational(2)
    assert gaussian_sqrt(GaussianRational(-4)) == parse_scalar("2i")
    assert gaussian_sqrt(GaussianRational(2)) is None
    r = gaussian_sqrt(parse_scalar("-3/4-i"))
    assert r is not None and r * r == parse_scalar("-3/4-i")
    assert r.re > 0


def test_gaussian_sqrt_random_squares():
    rng = random.Random(11)
    for _ in range(200):
        z = GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        )
        w = gaussian_sqrt(z * z)
        assert w is not None
        assert w * w == z * z
        assert w.re > 0 or (w.re == 0 and w.im >= 0)


def test_scalar_coercion():
    x = _as_scalar("3/4")
    assert x == parse_scalar("3/4")
    assert _as_scalar(x) is x
    assert _as_scalar(3) == GaussianRational(3)
    assert _as_scalar(Fraction(-1, 2)) == GaussianRational(Fraction(-1, 2))
    for bad in (0.5, 1j, None, [1]):
        with pytest.raises(PreconditionViolated):
            _as_scalar(bad)


def test_exact_conversions():
    z = parse_scalar("1/3+2i")
    assert abs(z.to_complex() - (1 / 3 + 2j)) < 1e-15
    m = z.to_mpc(113)
    assert abs(complex(m) - (1 / 3 + 2j)) < 1e-15
    assert z.conjugate() == parse_scalar("1/3-2i")
    assert z.abs2() == Fraction(1, 9) + 4
