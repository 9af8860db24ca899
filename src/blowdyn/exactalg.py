"""Small exact linear-algebra toolkit over the Gaussian rationals.

Matrices are plain lists of lists of GaussianRational.  Everything here is
dense and meant for the small dimensions this package works at (n <= 10 or
so); clarity and exactness beat asymptotics.
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


def _eliminate(m, p, col):
    """Scale row p of m to a unit pivot in column col, then clear that
    column in every other row.  Only the pivot row's nonzero entries take
    part, as in mat_mul."""
    row = m[p]
    inv = QI_ONE / row[col]
    support = [j for j, x in enumerate(row) if x]
    for j in support:
        row[j] = row[j] * inv
    for r, other in enumerate(m):
        if r != p and other[col]:
            f = other[col]
            for j in support:
                other[j] = other[j] - f * row[j]


def solve_linear(rows, rhs):
    """Solve rows * x = rhs exactly.

    rows: list of coefficient lists (possibly overdetermined), rhs: list.
    Returns None if the system is inconsistent, else (x, basis): the
    solution with every free unknown 0, and one null-space vector per free
    unknown (1 there, 0 at the others).  Equal solution sets give equal
    pairs.
    """
    if not rows:
        return [], []
    m = [list(map(qi, r)) + [qi(b)] for r, b in zip(rows, rhs)]
    nrows = len(m)
    ncols = len(rows[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        _eliminate(m, rank, col)
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    for r in range(rank, nrows):
        if m[r][ncols]:
            return None  # inconsistent
    x = [QI_ZERO] * ncols
    for r, col in enumerate(pivots):
        x[col] = m[r][ncols]
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        b = [QI_ZERO] * ncols
        b[f] = QI_ONE
        for r, col in enumerate(pivots):
            b[col] = -m[r][f]
        basis.append(b)
    return x, basis


def invert_matrix(a):
    n = len(a)
    aug = [list(map(qi, row)) + e for row, e in zip(a, identity(n))]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if aug[r][col]:
                piv = r
                break
        if piv is None:
            raise PreconditionViolated("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        _eliminate(aug, col, col)
    return [row[n:] for row in aug]


def invert_unimodular_int_matrix(e):
    """Inverse of an integer matrix whose inverse is again integral.

    Fraction-free (Bareiss) Gauss-Jordan elimination on [e | I] in
    integers: every division by the previous pivot is exact, and at the
    end the left block is d I and the right block d e^-1, d = +-det e.
    """
    n = len(e)
    m = [[int(x) for x in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(e)]
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            raise PreconditionViolated("matrix is singular")
        m[col], m[piv] = m[piv], m[col]
        prow = m[col]
        p = prow[col]
        for r in range(n):
            if r != col:
                row = m[r]
                f = row[col]
                m[r] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
        prev = p
    out = []
    for row in m:
        introw = []
        for x in row[n:]:
            q, rem = divmod(x, prev)
            if rem:
                raise PreconditionViolated("matrix inverse is not integral")
            introw.append(q)
        out.append(introw)
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
