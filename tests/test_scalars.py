import copy
import math
import pickle
import random
import re
from fractions import Fraction

import pytest

from blowdyn import dynamics as dyn
from blowdyn import scalars
from blowdyn.errors import PreconditionViolated, SchemaError
from blowdyn.lifting import lift, lifted_quadratic_part
from blowdyn.partition import build_structure
from blowdyn.scalars import (
    GaussianRational,
    _as_scalar,
    _of,
    format_scalar,
    gaussian_sqrt,
    parse_scalar,
    sqrt_exact_rational,
)

from conftest import fatou_germ


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


@pytest.mark.parametrize("big", ["1e5000", "-1e-5000", "2.5e9999i",
                                 "1/2+1E+4301i"])
def test_parse_refuses_decimal_exponents_beyond_the_digit_limit(big):
    # "1e10000000" would otherwise build a numerator of 33 million bits
    with pytest.raises(SchemaError, match="decimal exponent beyond 4300"):
        parse_scalar(big)


def test_parse_keeps_decimal_exponents_within_the_limit():
    assert parse_scalar("1e4300") == GaussianRational(10 ** 4300)
    assert parse_scalar("-1e-4300") == GaussianRational(
        Fraction(-1, 10 ** 4300))
    assert parse_scalar("1.5e-3") == GaussianRational(Fraction(3, 2000))


def _plain_literals(rng, count):
    """Signed "p" and "p/q" literals with leading zeros, zero numerators
    and numerators of up to 200 digits."""
    out = ["0", "-0", "+0", "0/5", "-0/7", "007", "-007/0014", "1" * 200,
           "-" + "9" * 200 + "/" + "6" * 50]
    for _ in range(count):
        lit = rng.choice(["", "+", "-"]) + "0" * rng.randint(0, 2) + str(
            rng.randint(0, 10 ** rng.choice([1, 3, 20, 200])))
        if rng.random() < 0.6:
            lit += "/" + "0" * rng.randint(0, 2) + str(
                rng.randint(1, 10 ** rng.choice([1, 5, 60])))
        out.append(lit)
    return out


def test_plain_literals_parse_as_the_general_path(monkeypatch):
    lits = _plain_literals(random.Random(13), 400)
    fast = [parse_scalar(t) for t in lits]
    # a pattern that matches nothing sends every literal down the general path
    monkeypatch.setattr(scalars, "_PLAIN_RATIONAL", re.compile(r"(?!)"))
    slow = [parse_scalar(t) for t in lits]
    for t, f, g in zip(lits, fast, slow):
        p, _, q = t.partition("/")
        want = Fraction(int(p), int(q or 1))
        assert (f.a, f.b, f.d) == (g.a, g.b, g.d) == (
            want.numerator, 0, want.denominator), t


def test_literals_outside_the_plain_form_keep_their_results(monkeypatch):
    for bad, message in [
            ("1/0", "bad numeric literal '+1/0' (Fraction(1, 0))"),
            ("1/00", "bad numeric literal '+1/00' (Fraction(1, 0))"),
            ("-3/000", "bad numeric literal '-3/000' (Fraction(-3, 0))")]:
        with pytest.raises(SchemaError) as info:
            parse_scalar(bad)
        assert str(info.value) == message
    # int() reads underscores and non-ASCII digits; the plain form does not
    assert parse_scalar("1_000") == GaussianRational(1000)
    assert parse_scalar("\u0663") == GaussianRational(3)
    assert parse_scalar("\u0663/\u0666") == GaussianRational(Fraction(1, 2))
    assert parse_scalar(" 3/4 ") == GaussianRational(Fraction(3, 4))
    # past int()'s digit limit both paths report the same error
    big = "1" * 5000
    with pytest.raises(SchemaError) as fast:
        parse_scalar(big)
    monkeypatch.setattr(scalars, "_PLAIN_RATIONAL", re.compile(r"(?!)"))
    with pytest.raises(SchemaError) as slow:
        parse_scalar(big)
    assert str(fast.value) == str(slow.value)


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


# -- differential check against a pair-of-Fractions reference ---------------

def _rand_part(rng):
    kind = rng.random()
    if kind < 0.2:
        return Fraction(0)
    if kind < 0.4:
        return Fraction(rng.randint(-5, 5))
    big = rng.choice((8, 64, 200))
    return Fraction(rng.randint(-2 ** big, 2 ** big),
                    rng.randint(1, 2 ** rng.choice((1, 8, 100))))


def _ref_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


def _ref_div(x, y):
    (a, b), (c, d) = x, y
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


def _ref_pow(x, p):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(p)):
        out = _ref_mul(out, x)
    return _ref_div((Fraction(1), Fraction(0)), out) if p < 0 else out


def _ref_str(x):
    a, b = x
    if not b:
        return str(a)
    im = "i" if b == 1 else "-i" if b == -1 else "%si" % b
    if not a:
        return im
    return str(a) + ("" if b < 0 else "+") + im


def _pair(z):
    return z.re, z.im


def _assert_canonical(z):
    assert all(type(t) is int for t in (z.a, z.b, z.d))
    assert z.d > 0 and math.gcd(z.a, z.b, z.d) == 1
    assert (Fraction(z.a, z.d), Fraction(z.b, z.d)) == _pair(z)


def test_arithmetic_matches_fraction_pairs():
    rng = random.Random(20261018)
    for _ in range(400):
        x = (_rand_part(rng), _rand_part(rng))
        y = (_rand_part(rng), _rand_part(rng))
        zx, zy = GaussianRational(*x), GaussianRational(*y)
        _assert_canonical(zx)
        assert _pair(zx) == x
        results = {
            "+": (zx + zy, (x[0] + y[0], x[1] + y[1])),
            "-": (zx - zy, (x[0] - y[0], x[1] - y[1])),
            "*": (zx * zy, _ref_mul(x, y)),
            "neg": (-zx, (-x[0], -x[1])),
            "conj": (zx.conjugate(), (x[0], -x[1])),
        }
        if any(y):
            results["/"] = (zx / zy, _ref_div(x, y))
        p = rng.randint(-3, 4)
        if any(x) or p >= 0:
            results["**"] = (zx ** p, _ref_pow(x, p))
        else:
            with pytest.raises(ZeroDivisionError):
                zx ** p
        for op, (got, want) in results.items():
            _assert_canonical(got)
            assert _pair(got) == want, op
        assert zx.abs2() == x[0] ** 2 + x[1] ** 2
        assert bool(zx) == bool(x[0] or x[1])
        assert str(zx) == _ref_str(x)


def test_mixed_operands_match_fraction_pairs():
    rng = random.Random(5)
    for _ in range(200):
        x = (_rand_part(rng), _rand_part(rng))
        zx = GaussianRational(*x)
        q = _rand_part(rng)
        k = rng.randint(-9, 9)
        assert _pair(zx + k) == _pair(k + zx) == (x[0] + k, x[1])
        assert _pair(k - zx) == (k - x[0], -x[1])
        assert _pair(zx - q) == (x[0] - q, x[1])
        assert _pair(q * zx) == _pair(zx * q) == (q * x[0], q * x[1])
        if any(x):
            assert _pair(k / zx) == _ref_div((Fraction(k), Fraction(0)), x)
        if q:
            assert _pair(zx / q) == (x[0] / q, x[1] / q)


def test_equality_and_hash_against_int_and_fraction():
    rng = random.Random(9)
    for _ in range(300):
        x = (_rand_part(rng), _rand_part(rng) if rng.random() < 0.5 else 0)
        z = GaussianRational(*x)
        if x[1]:
            assert hash(z) == hash(x)
            assert z != x[0]
        else:
            assert z == x[0] and x[0] == z
            assert hash(z) == hash(x[0])
            if x[0].denominator == 1:
                assert z == int(x[0]) and hash(z) == hash(int(x[0]))
        assert z != x[0] + 1


def test_canonical_triples():
    rng = random.Random(3)
    for _ in range(200):
        x = (_rand_part(rng), _rand_part(rng))
        y = (_rand_part(rng), _rand_part(rng) or Fraction(1))
        z, w = GaussianRational(*x), GaussianRational(*y)
        # equal values reached along different paths: equal triples
        for same in (z * w / w, (z + w) - w, -(-z), z.conjugate().conjugate()):
            assert (same.a, same.b, same.d) == (z.a, z.b, z.d)
            assert hash(same) == hash(z)
        # _of reduces any triple with the same value, sign of d included
        k = rng.choice((1, -1)) * rng.randint(1, 2 ** 70)
        u = _of(z.a * k, z.b * k, z.d * k)
        _assert_canonical(u)
        assert (u.a, u.b, u.d) == (z.a, z.b, z.d)
    assert (GaussianRational(0).a, GaussianRational(0).b,
            GaussianRational(0).d) == (0, 0, 1)
    assert _of(0, 0, -7).d == 1
    z = GaussianRational(1, 2)
    for attr in ("a", "b", "d", "re", "im"):
        with pytest.raises(AttributeError):
            setattr(z, attr, 5)


def _copies(x):
    return (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x)))


def test_copy_and_pickle_keep_value_and_hash():
    rng = random.Random(11)
    for _ in range(200):
        z = GaussianRational(_rand_part(rng), _rand_part(rng))
        for w in _copies(z):
            assert type(w) is GaussianRational
            _assert_canonical(w)
            assert (w.a, w.b, w.d) == (z.a, z.b, z.d)
            assert w == z and hash(w) == hash(z)
            assert {w: 1}[z] == 1
            with pytest.raises(AttributeError):
                w.a = 5


def test_deepcopy_of_objects_holding_scalars():
    L = lift(fatou_germ(), 2, 4)
    Q = lifted_quadratic_part(L)
    ds = dyn.characteristic_directions(Q, mode="structured",
                                       structure=build_structure([2], [1]))
    dup_map, dup_dir = copy.deepcopy((L, ds[0]))
    assert dup_map == L and dup_map is not L
    assert dup_dir == ds[0] and hash(dup_dir.v) == hash(ds[0].v)
