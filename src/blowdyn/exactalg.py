"""Small exact linear-algebra toolkit over the Gaussian rationals.

Matrices are plain lists of lists of GaussianRational.  Everything here is
dense and meant for the small dimensions this package works at (n <= 10 or
so); clarity and exactness beat asymptotics.

There is one elimination: extend_reduced adds one equation to a reduced
row echelon form.  solve_linear and invert_matrix fold it over their
rows, callers that branch on a shared prefix of equations extend the
prefix's form once per branch, and folded over a matrix's rows alone it
gives the rank, hence kernel dimensions.  Spectra are read off the
diagonal of matrices that some ordering of the indices makes triangular.
"""

from .errors import PreconditionViolated
from .scalars import GaussianRational, QI_ONE, QI_ZERO


def qi(x):
    return x if isinstance(x, GaussianRational) else GaussianRational(x)


def zeros(r, c):
    return [[QI_ZERO for _ in range(c)] for _ in range(r)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = QI_ONE
    return m


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if not aik:
                continue
            bk = b[k]
            for j in range(cols):
                if bk[j]:
                    oi[j] = oi[j] + aik * bk[j]
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


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
