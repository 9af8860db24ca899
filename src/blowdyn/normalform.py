"""Quadratic normal forms at a fixed point with a single unipotent Jordan block.

For a germ F(z) = Jz + P2(z) + O3, where J is the n-dimensional Jordan block
with eigenvalue 1, there is a degree-2 polynomial change of coordinates chi
such that chi^{-1} o F o chi has every component's quadratic form diagonal,
with no square terms beyond index ceil(n/2), and the last component carrying
at most one square term.  Everything here is exact over the Gaussian
rationals.

The two building blocks operate on symmetric coefficient matrices:

* ``eliminate_offdiagonal`` kills all off-diagonal entries of one quadratic
  form, and the diagonal entries beyond ceil(n/2), by subtracting the image
  of a symmetric matrix B under the shift-correction operator
  ``L(B)_{hk} = B_{h-1,k-1} + B_{h,k-1} + B_{h-1,k}``.  The (1,1) entry can
  never be altered this way, and the surviving diagonal entries do not
  depend on which solution B is picked.
* ``reduce_diagonal_tail`` additionally kills the surviving diagonal of the
  *last* component using an upper-triangular Toeplitz change of variables,
  leaving at most the single earliest square term.

``normal_form`` runs every reduction on the n quadratic matrices alone.  A
step chi(z) = Tz + e_m z^t B z, with T upper Toeplitz and so commuting with
J, changes them by the closed rule of ``transform_forms``, which is
``_shift_correct`` alone when T = I; T^{-1} is the Toeplitz matrix of one
power-series reciprocal (``toeplitz_inverse_row``).  Every step function
takes and returns integer matrices over one common denominator
(exactalg.imat), so the step choice builds no GaussianRational from the
germ's quadratic part to the last step but the secant solve's few
scalars.  Each step is kept as the data (T or None, m, B), and
``compose_steps`` builds the one conjugator chi from them at the germ's
cap, one quadratic form per step, with no series composition.  The
normalized series N is solved for once, online, from chi o N = F o chi
(chi is never inverted), and the quadratic matrices of N are compared
with the tracked prediction.  ``eliminate_offdiagonal`` eliminates its
linear system once per n and reuses it for every form.
"""

import functools
from dataclasses import dataclass

from .errors import BlowdynError, GenericInput, NotJordan, PreconditionViolated
from .exactalg import (
    extend_reduced, identity, imat, imat_combine, imat_entry, imat_mul,
    imat_of, imat_transpose, qi,
)
from .scalars import QI_ONE, QI_ZERO
from .series import (
    PolyMapGerm, TruncatedSeries, _as_germ, _quadratic_forms, _series_row,
    germ_solve, series_reciprocal,
)


def diagonal_cutoff(n):
    """Largest index that may carry a square term in the normal form."""
    return (n + 1) // 2


# ---------------------------------------------------------------------------
# integer coefficient matrices


def correction_image(b):
    """L(B) of the symmetric integer matrix b, over b's denominator and
    not normalised: only the in-range entries are added, so row 0 and
    column 0 are shifted copies of b."""
    den, re, im = b
    return den, _correction_rows(re), im and _correction_rows(im)


def _correction_rows(b):
    out = [(0,) + tuple(b[0][:-1])]
    for up, row in zip(b, b[1:]):
        out.append((up[0],) + tuple(
            x + y + z for x, y, z in zip(up, row, up[1:])))
    return tuple(out)


def toeplitz_upper(alpha):
    """Upper-triangular Toeplitz matrix with first row alpha; it commutes
    with the Jordan block whenever alpha_0 != 0."""
    alpha = [qi(x) for x in alpha]
    n = len(alpha)
    return tuple(
        tuple(alpha[k - h] if k >= h else QI_ZERO for k in range(n))
        for h in range(n)
    )


def toeplitz_inverse_row(alpha):
    """The first row of T^{-1}, T = toeplitz_upper(alpha), alpha_0 != 0.

    Upper Toeplitz matrices multiply as power series truncated at x^n,
    so T^{-1} is the Toeplitz matrix of the reciprocal of
    alpha_0 + alpha_1 x + ... + alpha_{n-1} x^{n-1} (D. Bini and V. Pan,
    Polynomial and Matrix Computations, vol. 1, Birkhauser 1994)."""
    n = len(alpha)
    r = series_reciprocal(TruncatedSeries(
        1, n - 1, {(k,): a for k, a in enumerate(alpha)}))
    return tuple(r.coefficient((k,)) for k in range(n))


def conjugate_form(a, t):
    """T^t A T, the coefficient matrix of z -> phi(Tz), for integer
    matrices a (of phi) and t."""
    return imat_mul(imat_transpose(t), imat_mul(a, t))


def _shift_correct(forms, m, b):
    """The integer quadratic matrices after the step chi(z) = z + e_m z^t B z:
    L(B) is subtracted from component m and B added to component m-1."""
    out = list(forms)
    out[m - 1] = imat_combine([(1, 0, forms[m - 1]),
                               (-1, 0, correction_image(b))])
    if m > 1:
        out[m - 2] = imat_combine([(1, 0, forms[m - 2]), (1, 0, b)])
    return tuple(out)


def transform_forms(forms, t, tinv, m, b):
    """Quadratic matrices of chi^{-1} o F o chi for a germ F with the
    unipotent Jordan linear part J and quadratic matrices forms (forms[k-1]
    for component k), and the step chi(z) = Tz + e_m z^t B z with T upper
    Toeplitz, so that T commutes with J.  All matrices are integer
    matrices; tinv is the first row of T^{-1}, as a 1 x n integer matrix
    (toeplitz_inverse_row of T's first row).

    With W_k = T^t P_k T, the step applies _shift_correct to the W_k; the
    new matrices are P'_i = sum_{k>=i} (T^{-1})_{ik} W_k.
    """
    w = _shift_correct([conjugate_form(p, t) for p in forms], m, b)
    den, (br,), bi = tinv
    bi = bi[0] if bi else (0,) * len(br)
    return tuple(
        imat_combine([(br[k - i], bi[k - i], w[k]) for k in range(i, len(w))
                      if br[k - i] or bi[k - i]], den)
        for i in range(len(w)))


# ---------------------------------------------------------------------------
# the two reduction steps


@functools.lru_cache(maxsize=None)
def _offdiagonal_operator(n):
    """The solution operator of eliminate_offdiagonal's system at dimension n.

    The unknowns are the entries B_ij, i <= j; the equations say that
    L(B) has phi's entries at every off-diagonal (h, k), h < k, and at
    every diagonal (h, h) beyond the cutoff.  The system has full row
    rank, so it is consistent for every phi.  Eliminating it with an
    identity block as its right-hand side gives, for each pivot unknown,
    its value as a combination of those entries of phi; the free unknowns
    are 0, as in solve_linear.  The weights are real rationals.  Returns
    (den, rows), with one row ((i, j), ((h, k), weight), ...) for each
    pivot unknown with a nonzero combination, each weight an integer
    over den.
    """
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {p: c for c, p in enumerate(pairs)}
    targets = [(h, k) for h in range(n) for k in range(h + 1, n)]
    targets += [(h, h) for h in range(diagonal_cutoff(n), n)]
    reduced = []
    for r, (h, k) in enumerate(targets):
        row = [QI_ZERO] * (len(pairs) + len(targets))
        for (i, j) in ((h - 1, k - 1), (h, k - 1), (h - 1, k)):
            if i >= 0 and j >= 0:
                c = index[(i, j) if i <= j else (j, i)]
                row[c] = row[c] + QI_ONE
        row[len(pairs) + r] = QI_ONE
        reduced = extend_reduced(reduced, row, len(pairs))
        if reduced is None:
            raise BlowdynError("off-diagonal elimination system is "
                               "inconsistent for some quadratic forms")
    den, weights, _ = imat([row[len(pairs):] for _, row in reduced])
    return den, tuple(
        (pairs[col], tuple((t, w) for t, w in zip(targets, row) if w))
        for (col, _), row in zip(reduced, weights)
    )


def eliminate_offdiagonal(a):
    """Pick a symmetric B with A - L(B) diagonal and free of square terms
    beyond index ceil(n/2), for the symmetric integer matrix a of A.
    Returns (B, reduced matrix), both integer matrices.

    The (1,1) entry is preserved; the surviving diagonal entries up to the
    cutoff are the same for every valid choice of B, so setting the free
    unknowns to zero keeps the output deterministic without losing anything.
    B is one product of A's entries with the operator that
    _offdiagonal_operator eliminates once per n.
    """
    den, ar, ai = a
    n = len(ar)
    wden, operator = _offdiagonal_operator(n)
    parts = [ar] if ai is None else [ar, ai]
    b = [[[0] * n for _ in range(n)] for _ in parts]
    for (i, j), weights in operator:
        for bp, p in zip(b, parts):
            bp[i][j] = bp[j][i] = sum(w * p[h][k] for (h, k), w in weights)
    b = imat_of(wden * den, b[0], b[1] if ai else None)
    red = imat_combine([(1, 0, a), (-1, 0, correction_image(b))])
    _check_trimmed_diagonal(red)
    if imat_entry(red, 0, 0) != imat_entry(a, 0, 0):
        raise BlowdynError("leading square coefficient was not preserved")
    return b, red


def _check_trimmed_diagonal(red):
    """Raise unless the integer matrix red is diagonal with no square
    beyond the cutoff."""
    _, re, im = red
    n = len(re)
    cut = diagonal_cutoff(n)
    for h in range(n):
        for k in range(n):
            if h != k and (re[h][k] or im and im[h][k]):
                raise BlowdynError(
                    "off-diagonal entry (%d,%d) survived elimination" % (h + 1, k + 1)
                )
        if h >= cut and (re[h][h] or im and im[h][h]):
            raise BlowdynError(
                "square term beyond the cutoff survived at index %d" % (h + 1,)
            )


def reduce_diagonal_tail(a):
    """Reduce a diagonal quadratic form, given by its integer matrix a, to
    its earliest square term.

    Returns (alpha, B, reduced), B and reduced integer matrices: with T
    the Toeplitz matrix of alpha, the matrix ``T^t . A . T - L(B)`` equals
    reduced, which is alpha_0^2 * eps_{j0} at position (j0, j0) when the
    earliest nonzero diagonal index j0 is at most ceil(n/2), and zero
    otherwise.  alpha_0 is fixed to 1 and the odd-index alphas stay 0;
    each even-index alpha is determined by an exact secant solve, valid
    because the surviving square term at position j0+m depends affinely
    on alpha_{2m}.
    """
    _, re, im = a
    n = len(re)
    if any(re[h][k] or im and im[h][k]
           for h in range(n) for k in range(n) if h != k):
        raise PreconditionViolated("diagonal quadratic form expected")
    eps = [imat_entry(a, j, j) for j in range(n)]
    alpha = [QI_ONE] + [QI_ZERO] * (n - 1)
    j0 = next((j for j, e in enumerate(eps) if e), None)
    if j0 is None:
        zero = (1, ((0,) * n,) * n, None)
        return tuple(alpha), zero, zero
    cut = diagonal_cutoff(n)

    def retained(al, pos):
        _, red = eliminate_offdiagonal(conjugate_form(a, imat(toeplitz_upper(al))))
        return imat_entry(red, pos, pos)

    for pos in range(j0 + 1, cut):
        idx = 2 * (pos - j0)
        g0 = retained(alpha, pos)
        probe = list(alpha)
        probe[idx] = probe[idx] + QI_ONE
        slope = retained(probe, pos) - g0
        if slope:
            alpha[idx] = alpha[idx] - g0 / slope
        elif g0:
            raise BlowdynError(
                "surviving square term at index %d cannot be removed" % (pos + 1,)
            )
    b, red = eliminate_offdiagonal(conjugate_form(a, imat(toeplitz_upper(alpha))))
    expect_val = alpha[0] * alpha[0] * eps[j0] if j0 < cut else QI_ZERO
    _, re, im = red
    for h in range(n):
        for k in range(n):
            if h == k == j0 and j0 < cut:
                bad = imat_entry(red, h, k) != expect_val
            else:
                bad = re[h][k] or im and im[h][k]
            if bad:
                raise BlowdynError(
                    "diagonal tail reduction left an unexpected entry at (%d,%d)"
                    % (h + 1, k + 1)
                )
    return tuple(alpha), b, red


# ---------------------------------------------------------------------------
# full pipeline


@dataclass(frozen=True)
class NormalFormResult:
    """normalized is solved for from chi o normalized = F o chi, with chi
    the full composition of the reduction steps, and its quadratic
    matrices are the ones the step rule predicted; conjugator is only the
    degree-2 truncation of chi.
    conjugator o normalized == F o conjugator therefore holds modulo
    degree 3, and exactly only at cap 2."""

    normalized: PolyMapGerm
    conjugator: PolyMapGerm  # degree-2 polynomial germ
    alpha: tuple
    epsilon: tuple  # epsilon[h-1][k-1] = coefficient of z_k^2 in component h
    j0: int  # 1-based index of the surviving square in the last component, or None

    @property
    def n(self):
        return self.normalized.n

    def epsilon_entry(self, h, k):
        return self.epsilon[h - 1][k - 1]


def _require_unipotent_block(g):
    for i, row in enumerate(g.linear_matrix()):
        for j, x in enumerate(row):
            if x != (QI_ONE if j in (i, i + 1) else QI_ZERO):
                raise NotJordan(
                    "linear part is not the unipotent Jordan block: entry (%d,%d)"
                    % (i + 1, j + 1)
                )


def compose_steps(steps, n, cap):
    """chi = chi_1 o ... o chi_s at cap, for the steps (T or None, m, B)
    of chi_s(z) = Tz + e_m z^t B z (T = I for None), T and B integer
    matrices, built from the right: from the identity, each step, last to
    first, acts on the running map M on the left.  It mixes M's components
    by T when it has one, and adds the quadratic form of the old M,
    sum_h M_h (sum_k B_hk M_k), to component m."""
    M = [TruncatedSeries.variable(i + 1, n, cap) for i in range(n)]
    for t, m, (den, br, bi) in reversed(steps):
        quad = [M[h] * _series_row(1, row, bi and bi[h], M)
                for h, row in enumerate(br) if any(row) or bi and any(bi[h])]
        if t is not None:
            tden, tr, ti = t
            M = [_series_row(tden, row, ti and ti[h], M)
                 for h, row in enumerate(tr)]
        if quad:
            M[m - 1] = M[m - 1] + _series_row(den, (1,) * len(quad), None,
                                              quad)
    return PolyMapGerm(M)


def normal_form(F):
    """Conjugate a germ with unipotent Jordan linear part into quadratic
    normal form.  Exact; the conjugator is a degree-2 polynomial map whose
    linear part is upper Toeplitz.

    Each reduction step chi_s(z) = T_s z + e_m z^t B_s z is chosen on the
    tracked quadratic matrices, kept as integer matrices over one
    denominator (exactalg.imat) from the germ's quadratic part to the
    last step, and kept as (T_s or None, m, B_s).  The one Toeplitz step
    goes through the rule of ``transform_forms``; the n steps with
    T_s = I only shift-correct.  T_s^{-1} is computed once, as the
    Toeplitz row ``toeplitz_inverse_row``, for both that rule and the
    solve.  ``compose_steps`` builds chi = chi_1 o ... o chi_{n+1} from
    the step data, normalized is solved for once from
    chi o normalized = F o chi by ``germ_solve``, degree by degree, and
    every component's quadratic matrix in that series must equal the
    tracked prediction.  At cap >= 3 the reported conjugator is the
    degree-2 truncation of chi, so it conjugates F to normalized only
    modulo degree 3."""
    g = _as_germ(F)
    n, cap = g.n, g.cap
    if n < 2:
        raise PreconditionViolated("dimension must be at least 2")
    if cap < 2:
        raise PreconditionViolated("truncation cap must be at least 2")
    _require_unipotent_block(g)

    forms = _quadratic_forms(g)
    steps = []

    def shift_step(forms, m):
        psi, _ = eliminate_offdiagonal(forms[m - 1])
        steps.append((None, m, psi))
        return _shift_correct(forms, m, psi)

    # diagonalize the last component's quadratic form
    forms = shift_step(forms, n)

    # Toeplitz reduction of that diagonal to a single square term
    alpha, psi, _ = reduce_diagonal_tail(forms[n - 1])
    if any(alpha[1:]):
        t = imat(toeplitz_upper(alpha))
        beta = toeplitz_inverse_row(alpha)
        tinv = toeplitz_upper(beta)
        forms = transform_forms(forms, t, imat([beta]), n, psi)
    else:  # T = I
        t, tinv = None, identity(n)
        forms = _shift_correct(forms, n, psi)
    steps.append((t, n, psi))

    # sweep the remaining components; cleaning component h pollutes only h-1
    for h in range(n - 1, 0, -1):
        forms = shift_step(forms, h)

    chi = compose_steps(steps, n, cap)
    work = germ_solve(chi, g.compose(chi), linear_inverse=tinv)
    _require_unipotent_block(work)
    for h, (got, want) in enumerate(zip(_quadratic_forms(work), forms), 1):
        if got != want:
            raise BlowdynError(
                "quadratic part of component %d differs from the step-rule "
                "prediction" % (h,)
            )
    chi = chi.truncated(2).as_polynomial_cap(cap)

    for m in forms:
        _check_trimmed_diagonal(m)
    epsilon = tuple(tuple(imat_entry(m, k, k) for k in range(n))
                    for m in forms)
    nonzero = [i for i in range(n) if epsilon[n - 1][i]]
    if len(nonzero) > 1:
        raise BlowdynError("last component carries more than one square term")
    j0 = nonzero[0] + 1 if nonzero else None
    return NormalFormResult(work, chi, alpha, epsilon, j0)


def epsilon_vector(nf):
    """The z_1^2 coefficients of all components of the normal form; this
    vector is determined by the original germ up to one overall factor."""
    return tuple(nf.epsilon[h][0] for h in range(nf.n))


def leading_epsilon_column(nf):
    """First index k whose square z_k^2 appears anywhere in the normal form,
    with the tail (components 2k-1..n) of that coefficient column.  Returns
    (None, ()) when the whole quadratic part vanishes."""
    n = nf.n
    for k in range(1, diagonal_cutoff(n) + 1):
        col = tuple(nf.epsilon[h][k - 1] for h in range(n))
        if any(col):
            return k, col[2 * k - 2:]
    return None, ()


# ---------------------------------------------------------------------------
# planar invariants


@dataclass(frozen=True)
class Invariants2D:
    epsilon: object
    eta: object
    xi: object  # None when epsilon vanishes


def invariants_2d(F):
    """The two planar coefficients (and their ratio) that survive every
    Jordan-preserving change of coordinates, for 2D germs whose last
    component has no z_1^2 term.

    epsilon scales linearly and eta quadratically under z -> alpha_0 z, so
    xi = eta/epsilon^2 is a genuine invariant when epsilon != 0.  The values
    are cross-checked against the same data read off the computed normal
    form; any disagreement raises.
    """
    g = _as_germ(F)
    if g.n != 2:
        raise PreconditionViolated("planar invariants require dimension 2")
    if g.cap < 3:
        raise PreconditionViolated("third-order data needed: cap must be >= 3")
    _require_unipotent_block(g)
    if g.quadratic_coefficient(2, 1, 1):
        raise GenericInput(
            "second component has a z_1^2 term; these invariants only exist "
            "in the degenerate case"
        )
    a111 = g.quadratic_coefficient(1, 1, 1)
    a212 = g.quadratic_coefficient(2, 1, 2)
    a2111 = g.components[1].coefficient([3, 0])
    eps = a111 + a212
    eta = (a111 - a212) ** 2 + qi(2) * a2111
    xi = eta / (eps * eps) if eps else None

    nf = normal_form(g)
    alpha0 = nf.alpha[0]
    e11 = nf.epsilon_entry(1, 1)
    if nf.epsilon_entry(2, 1) != QI_ZERO:
        raise BlowdynError("normal form unexpectedly produced a leading square "
                           "term in the second component")
    if e11 != alpha0 * eps:
        raise BlowdynError("normal-form route disagrees on the linear invariant")
    eta2 = nf.normalized.components[1].coefficient([3, 0])
    if eta2 != alpha0 * alpha0 * (a2111 - qi(2) * a111 * a212):
        raise BlowdynError("normal-form route disagrees on the third-order term")
    if eps:
        if QI_ONE + qi(2) * eta2 / (e11 * e11) != xi:
            raise BlowdynError("the two evaluations of the quadratic invariant differ")
    return Invariants2D(eps, eta, xi)
