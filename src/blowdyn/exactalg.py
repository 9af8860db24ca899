"""Small exact linear-algebra toolkit over the Gaussian rationals.

Everything here is dense and meant for the small dimensions this package
works at (n <= 10 or so); clarity and exactness beat asymptotics.

There is one elimination: extend_reduced adds one equation to a reduced
row echelon form.  solve_linear and invert_matrix fold it over their
rows, callers that branch on a shared prefix of equations extend the
prefix's form once per branch, and folded over a matrix's rows alone it
gives the rank, hence kernel dimensions.  Spectra are read off the
diagonal of matrices that some ordering of the indices makes triangular.
These take matrices as lists of rows of GaussianRational.

Matrix arithmetic runs on the layout the series kernel uses for a whole
series: one common denominator and Gaussian-integer numerators.  An
integer matrix is (den, re, im), den a positive integer, re and im tuples
of rows of integers, and im None for a real matrix; the matrix is
(re + im i) / den.  Products and linear combinations are integer
arithmetic, and each result is normalised once (the content it shares
with den divided out), so equal matrices have equal triples.
GaussianRational entries are built only where a caller converts back.
The private _gaussian_mul and _gaussian_dot are the same arithmetic entry
by entry, for the package's callers that read single entries of such
matrices.
"""

import math
from itertools import chain
from operator import mul

from .errors import PreconditionViolated
from .scalars import GaussianRational, QI_ONE, QI_ZERO, _of


def qi(x):
    return x if isinstance(x, GaussianRational) else GaussianRational(x)


def identity(n):
    return [[QI_ONE if i == j else QI_ZERO for j in range(n)]
            for i in range(n)]


# -- integer matrices over one denominator ----------------------------------

def imat(rows):
    """The integer matrix (den, re, im) of rows of GaussianRational."""
    flat = [x for row in rows for x in row]
    # each entry is reduced, so no prime divides den (the lcm of the
    # entries' d) and every numerator: the triple is already normal
    den = math.lcm(*[x.d for x in flat])
    width = len(rows[0])
    re = tuple(zip(*[iter([x.a * (den // x.d) for x in flat])] * width))
    im = None
    if any([x.b for x in flat]):
        im = tuple(zip(*[iter([x.b * (den // x.d) for x in flat])] * width))
    return den, re, im


def imat_of(den, re, im):
    """The integer matrix (re + im i) / den, for den > 0 and re and im
    rows of integers (im None or all 0 for a real matrix), normalised."""
    if im is not None and not any(map(any, im)):
        im = None
    g = math.gcd(den, *chain.from_iterable(re),
                 *(chain.from_iterable(im) if im is not None else ()))
    if g == 1:
        return den, tuple(map(tuple, re)), im and tuple(map(tuple, im))
    return den // g, tuple(tuple([x // g for x in row]) for row in re), (
        im and tuple(tuple([x // g for x in row]) for row in im))


def imat_rows(m):
    """The integer matrix m as a tuple of rows of GaussianRational."""
    den, re, im = m
    if im is None:
        return tuple(tuple(_of(a, 0, den) if a else QI_ZERO for a in row)
                     for row in re)
    return tuple(tuple(_of(a, b, den) if a or b else QI_ZERO
                       for a, b in zip(ra, rb)) for ra, rb in zip(re, im))


def imat_entry(m, i, j):
    """Entry (i, j) of the integer matrix m, as a GaussianRational."""
    den, re, im = m
    return _of(re[i][j], 0 if im is None else im[i][j], den)


def imat_transpose(m):
    """The transpose of the integer matrix m."""
    den, re, im = m
    return den, tuple(zip(*re)), im and tuple(zip(*im))


def imat_mul(x, y):
    """The product x y of two integer matrices."""
    dx, xr, xi = x
    dy, yr, yi = y
    re = _product(xr, yr)
    im = None if xi is None else _product(xi, yr)
    if yi is not None:
        im = _axpy(im, 1, _product(xr, yi))
        if xi is not None:
            re = _axpy(re, -1, _product(xi, yi))
    return imat_of(dx * dy, re, im)


def imat_combine(terms, den=1):
    """The integer matrix of sum (cr + ci i) X / den over the (cr, ci, X)
    in terms (at least one), with cr and ci integers and the X integer
    matrices of one shape: one accumulator over the X's common
    denominator."""
    lcm = math.lcm(*[x[0] for _, _, x in terms])
    re = [[0] * len(row) for row in terms[0][2][1]]
    im = None
    for cr, ci, (d, xr, xi) in terms:
        s = lcm // d
        cr, ci = cr * s, ci * s
        if cr:
            re = _axpy(re, cr, xr)
            if xi is not None:
                im = _axpy(im, cr, xi)
        if ci:
            im = _axpy(im, ci, xr)
            if xi is not None:
                re = _axpy(re, -ci, xi)
    return imat_of(lcm * den, re, im)


def _gaussian_mul(x, y):
    """The product of two Gaussian integers given as (re, im) pairs."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _gaussian_dot(xr, xi, yr, yi):
    """sum_k x_k y_k, as a (re, im) pair, for two Gaussian-integer vectors
    given by their real and imaginary parts (xi or yi None: all 0)."""
    re, im = sum(map(mul, xr, yr)), 0
    if xi is not None:
        im = sum(map(mul, xi, yr))
        if yi is not None:
            re -= sum(map(mul, xi, yi))
    if yi is not None:
        im += sum(map(mul, xr, yi))
    return re, im


def _product(p, q):
    """The product of two matrices of integers, as lists of rows."""
    cols = list(zip(*q))
    return [[sum(map(mul, row, col)) for col in cols] for row in p]


def _axpy(acc, c, x):
    """acc + c x for matrices of integers (acc None: the zero matrix)."""
    if acc is None:
        return [[c * b for b in row] for row in x]
    return [[a + c * b for a, b in zip(ra, rx)] for ra, rx in zip(acc, x)]


def extend_reduced(reduced, row, ncols):
    """The reduced row echelon form of a system with one equation more.

    reduced: the pivot rows so far, as (pivot column, row) pairs sorted by
    pivot column; each row holds ncols coefficients, 1 at its pivot and 0
    at every other pivot, and then its right-hand side entries.  row: the
    new equation in the same layout.  Returns the pairs of the extended
    system, or None when the new equation contradicts the old ones (its
    coefficients reduce to 0 but its right-hand side does not).  No row
    is changed in place, so branches may share their parent's pairs.
    """
    new = list(row)
    for col, prow in reduced:
        f = new[col]
        if f:
            for j, x in enumerate(prow):
                if x:
                    new[j] = new[j] - f * x
    piv = next((j for j in range(ncols) if new[j]), None)
    if piv is None:
        return None if any(new[ncols:]) else reduced
    inv = QI_ONE / new[piv]
    support = [j for j, x in enumerate(new) if x]
    for j in support:
        new[j] = new[j] * inv
    out = []
    for col, prow in reduced:
        f = prow[piv]
        if f:
            prow = list(prow)
            for j in support:
                prow[j] = prow[j] - f * new[j]
        out.append((col, prow))
    at = sum(1 for col, _ in reduced if col < piv)
    out.insert(at, (piv, new))
    return out


def reduced_solution(reduced, ncols):
    """(x, basis) of a consistent system in the reduced form that
    extend_reduced builds: the solution with every free unknown 0, and one
    null-space vector per free unknown (1 there, 0 at the others)."""
    x = [QI_ZERO] * ncols
    for col, row in reduced:
        x[col] = row[ncols]
    pivots = {col for col, _ in reduced}
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        b = [QI_ZERO] * ncols
        b[f] = QI_ONE
        for col, row in reduced:
            b[col] = -row[f]
        basis.append(b)
    return x, basis


def solve_linear(rows, rhs):
    """Solve rows * x = rhs exactly.

    rows: list of coefficient lists (possibly overdetermined), rhs: list.
    Returns None if the system is inconsistent, else reduced_solution's
    (x, basis).  The reduced row echelon form is unique, so equal
    solution sets give equal pairs.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    reduced = []
    for r, b in zip(rows, rhs):
        reduced = extend_reduced(reduced, list(map(qi, r)) + [qi(b)], ncols)
        if reduced is None:
            return None
    return reduced_solution(reduced, ncols)


def invert_matrix(a):
    n = len(a)
    reduced = []
    for row, e in zip(a, identity(n)):
        # a row that reduces to 0 still carries its identity part
        reduced = extend_reduced(reduced, list(map(qi, row)) + e, n)
        if reduced is None:
            raise PreconditionViolated("matrix is singular")
    return [row[n:] for _, row in reduced]


def invert_unimodular_int_matrix(e):
    """Inverse of an integer matrix whose inverse is again integral, as
    lists of ints."""
    out = []
    for row in invert_matrix(e):
        if any(x.d != 1 for x in row):
            raise PreconditionViolated("matrix inverse is not integral")
        out.append([x.a for x in row])
    return out


def triangular_diagonal(a):
    """The eigenvalue multiset {value: count} of a matrix that some
    ordering of its indices makes triangular: its diagonal, in diagonal
    order.  The ordering is found by repeatedly removing the indices whose
    off-diagonal entries among the indices left are all zero; when that
    stalls, no ordering exists and PreconditionViolated is raised."""
    left = set(range(len(a)))
    while left:
        done = {i for i in left if not any(a[i][j] for j in left if j != i)}
        if not done:
            raise PreconditionViolated(
                "no ordering of the indices makes the matrix triangular")
        left -= done
    multis = {}
    for i, row in enumerate(a):
        multis[row[i]] = multis.get(row[i], 0) + 1
    return multis
