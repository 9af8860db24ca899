"""Shared builders for the test suite: random germs over the supported
Jordan structures, with exact rational coefficients throughout."""

from fractions import Fraction

from blowdyn.lifting import germ_from_terms
from blowdyn.partition import build_structure
from blowdyn.scalars import GaussianRational

# every non-diagonalizable arrangement shape exercised by the suite
STRUCTURES = [(2,), (3,), (2, 1), (2, 2), (3, 2), (2, 2, 1)]

# the nine tower shapes of the benchmark pool
TOWER_SHAPES = [(2,), (3,), (2, 1), (2, 2), (3, 2), (2, 2, 1), (4,), (3, 1),
                (4, 2)]


def partitions(n, largest=None):
    """The partitions of n, as non-increasing tuples."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def rand_rat(rng, nonzero=False, span=6):
    while True:
        q = Fraction(rng.randint(-span, span), rng.randint(1, span))
        if q or not nonzero:
            return q


def rand_lambdas(rng, count):
    return tuple(GaussianRational(rand_rat(rng, nonzero=True))
                 for _ in range(count))


def quadratic_monomials(n):
    out = []
    for h in range(n):
        for k in range(h, n):
            e = [0] * n
            e[h] += 1
            e[k] += 1
            out.append(tuple(e))
    return out


def random_germ(rng, mu, lam=None, cap=2, density=0.5, force_generic=True,
                span=6):
    """Random exact germ with the Jordan linear part of (mu, lam) and a
    random sprinkling of quadratic terms.

    force_generic pins the quadratic coefficient that drives the whole
    construction (and, when the top two blocks tie, the tied-block copy
    of it) to a nonzero value.
    """
    if lam is None:
        lam = rand_lambdas(rng, len(mu))
    S = build_structure(tuple(mu), tuple(lam))
    n = S.n
    terms = {}
    for j in range(1, n + 1):
        for e in quadratic_monomials(n):
            if rng.random() < density:
                c = rand_rat(rng, span=span)
                if c:
                    terms[(j, e)] = GaussianRational(c)
    if force_generic:
        lead = [0] * n
        lead[0] = 2
        lead = tuple(lead)
        terms[(S.mu[0], lead)] = GaussianRational(
            rand_rat(rng, nonzero=True, span=span))
        if S.has_equal_top_blocks():
            pivot = S.nu[1] + S.mu[1]
            terms[(pivot, lead)] = GaussianRational(
                rand_rat(rng, nonzero=True, span=span))
    return germ_from_terms(S, terms, cap=cap)


def mat_mul(a, b):
    """The product of two matrices of exact scalars, as lists of rows."""
    zero = GaussianRational(0)
    return [[sum((x * y for x, y in zip(row, col)), zero) for col in zip(*b)]
            for row in a]


def fatou_germ(cap=4):
    """The classical planar example (z1 + z2, z2 + z1^2)."""
    S = build_structure((2,), (GaussianRational(1),))
    return germ_from_terms(S, {(2, (2, 0)): GaussianRational(1)}, cap=cap)
