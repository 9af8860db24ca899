"""Small exact linear-algebra toolkit over the Gaussian rationals.

Matrices are plain lists of lists of GaussianRational.  Everything here is
dense and meant for the small dimensions this package works at (n <= 10 or
so); clarity and exactness beat asymptotics.

There is one elimination: extend_reduced adds one equation to a reduced
row echelon form.  solve_linear and invert_matrix fold it over their
rows, and callers that branch on a shared prefix of equations extend the
prefix's form once per branch.
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


def trace(a):
    return sum((a[i][i] for i in range(len(a))), QI_ZERO)


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


# -- univariate polynomials (coefficient lists, lowest degree first) ------

def poly_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def poly_divmod(p, q):
    p = list(p)
    q = poly_trim(list(q))
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    out = [QI_ZERO] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    while len(poly_trim(p)) >= len(q):
        shift = len(p) - len(q)
        c = p[-1] / lead
        out[shift] = c
        for i, b in enumerate(q):
            p[shift + i] = p[shift + i] - c * b
        poly_trim(p)
    return poly_trim(out), poly_trim(p)


def poly_gcd(p, q):
    p = poly_trim(list(p))
    q = poly_trim(list(q))
    while q:
        _, r = poly_divmod(p, q)
        p, q = q, r
    if p:
        lead = p[-1]
        p = [c / lead for c in p]
    return p


def poly_deriv(p):
    return poly_trim([GaussianRational(i) * c for i, c in enumerate(p)][1:])


def poly_eval(p, x):
    acc = QI_ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def is_squarefree(p):
    g = poly_gcd(p, poly_deriv(p))
    return len(g) <= 1


def charpoly(a):
    """Characteristic polynomial det(xI - A), exact, lowest degree first.

    Faddeev-LeVerrier recursion; fine for the small sizes used here.
    """
    n = len(a)
    coeffs = [QI_ZERO] * (n + 1)
    coeffs[n] = QI_ONE
    m = identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        c = -(trace(am) / k)
        coeffs[n - k] = c
        m = mat_add(am, mat_scale(identity(n), c))
    return coeffs


def minimal_polynomial(a):
    """Monic minimal polynomial of A via the first dependence of matrix
    powers, exact."""
    n = len(a)
    powers = [identity(n)]
    for _ in range(n):
        powers.append(mat_mul(powers[-1], a))
    flat = [[x for row in p for x in row] for p in powers]
    for deg in range(1, n + 1):
        # solve sum_{i<deg} c_i A^i = -A^deg
        cols = deg
        rows = []
        rhs = []
        for pos in range(n * n):
            rows.append([flat[i][pos] for i in range(cols)])
            rhs.append(-flat[deg][pos])
        sol = solve_linear(rows, rhs)
        if sol is not None:
            return poly_trim(sol[0] + [QI_ONE])
    raise PreconditionViolated("no minimal polynomial found (broken matrix?)")


def eigenvalues_from_diagonal_candidates(a):
    """Exact eigenvalue multiset when every eigenvalue appears on the
    diagonal (true for triangular and for the lifted linear parts this
    package produces).  Returns a dict value->multiplicity, or None when the
    characteristic polynomial does not split over the diagonal candidates.
    """
    p = charpoly(a)
    candidates = []
    for i in range(len(a)):
        d = a[i][i]
        if d not in candidates:
            candidates.append(d)
    multis = {}
    for c in candidates:
        count = 0
        while len(p) > 1 and not poly_eval(p, c):
            p, rem = poly_divmod(p, [-c, QI_ONE])
            assert not rem
            count += 1
        if count:
            multis[c] = count
    if len(p) > 1:
        return None
    return multis
