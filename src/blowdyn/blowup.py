"""Chart calculus for the canonical blow-up sequence.

Each stage k has a distinguished chart centered at the marked point e_k; the
transition to the previous chart is a fixed per-step map (chart_step).  The
composite projection down to the original coordinates is a pure monomial
map, so we generate its exponent table by folding chart_step symbolically
and invert it with integer linear algebra.  The closed-form tables that are
usually quoted for these projections are implemented separately
(printed_forward_table / printed_inverse_table) and compared against the
generated ones — the fold is the source of truth.
"""

import functools
from dataclasses import dataclass

from .errors import PreconditionViolated, ZeroCoordinate
from .exactalg import invert_unimodular_int_matrix
from .partition import splitting


class _SymMono:
    """Internal: a monomial in w, represented by its exponent vector, used to
    run chart_step symbolically."""

    __slots__ = ("e",)

    def __init__(self, e):
        self.e = tuple(e)

    def __mul__(self, other):
        return _SymMono(a + b for a, b in zip(self.e, other.e))


def chart_step(S, k, w):
    """Coordinates in chart k-1 of the point with coordinates w in chart k.

    Works on anything multiplicative: numbers, exact scalars, series, or the
    internal symbolic monomials.
    """
    if not 1 <= k <= S.ell:
        raise PreconditionViolated("stage %d out of range 1..%d" % (k, S.ell))
    n = S.n
    if len(w) != n:
        raise PreconditionViolated("expected %d coordinates" % n)
    mu1 = S.mu[0]
    if S.has_equal_top_blocks() and k == mu1 + 1:
        pivot = S.nu[1] + S.mu[1]
        return [w[0] * w[pivot - 1]] + [w[h] for h in range(1, n)]
    prev = splitting(S, k - 1)
    keep = (set(prev.primed) - {1}) | {k}
    out = []
    for h in range(1, n + 1):
        if h in keep:
            out.append(w[h - 1])
        else:
            out.append(w[k - 1] * w[h - 1])
    return out


@dataclass(frozen=True)
class ProjectionFormulas:
    structure: object
    k: int
    forward: tuple   # n rows; row j = exponents of z_j as a monomial in w
    inverse: tuple   # n rows; row i = (possibly negative) exponents of w_i in z
    required_nonzero: tuple  # 1-based z-indices that must not vanish for inverse
    shapes: tuple    # row i of inverse as (j, t, h), 0-based: w_i = z_j^t/z_h,
                     # or w_i = z_j when h is None
    divisor: tuple   # 1-based w-indices h whose forward column sums above
                     # 1: the Jacobian of w -> w^A is +-w^(1A - 1), so the
                     # exceptional divisor is the union of these w_h = 0


def projection_formulas(S, k):
    """The exponent tables of the stage-k projection, computed once per
    (structure, stage): the returned object is frozen and shared."""
    if not 1 <= k <= S.ell:
        raise PreconditionViolated("stage %d out of range 1..%d" % (k, S.ell))
    return _projection_formulas(S, k)


@functools.lru_cache(maxsize=256)
def _projection_formulas(S, k):
    """Fold chart_step into the forward table, invert it, and check that
    every inverse row has one of the three chart shapes: w_i = z_j,
    z_j/z_h or z_1^2/z_h.  That is, one positive entry, equal to 1 or to
    2 at index 0, and at most one negative entry, equal to -1.  Any other
    row raises PreconditionViolated naming the stage and the row; lift
    reads the rows as these shapes."""
    n = S.n
    coords = [_SymMono([1 if i == j else 0 for i in range(n)]) for j in range(n)]
    for stage in range(k, 0, -1):
        coords = chart_step(S, stage, coords)
    forward = tuple(m.e for m in coords)
    inverse_rows = invert_unimodular_int_matrix([list(r) for r in forward])
    inverse = tuple(tuple(r) for r in inverse_rows)
    shapes = []
    for i, row in enumerate(inverse, start=1):
        pos = [(j, t) for j, t in enumerate(row) if t > 0]
        neg = [h for h, t in enumerate(row) if t < 0]
        if not (len(pos) == 1 and (pos[0][1] == 1 or pos[0] == (0, 2))
                and len(neg) <= 1 and all(row[h] == -1 for h in neg)):
            raise PreconditionViolated(
                "stage %d inverse row %d is %r, not z_j, z_j/z_h or "
                "z_1^2/z_h" % (k, i, row))
        shapes.append(pos[0] + (neg[0] if neg else None,))
    required = sorted({h + 1 for _, _, h in shapes if h is not None})
    return ProjectionFormulas(
        structure=S,
        k=k,
        forward=forward,
        inverse=inverse,
        required_nonzero=tuple(required),
        shapes=tuple(shapes),
        divisor=tuple(h for h, col in enumerate(zip(*forward), start=1)
                      if sum(col) > 1),
    )


def _eval_monomial(values, exps):
    """The product of values[h] ** exps[h] over the nonzero exponents; every
    row of an invertible table has one."""
    out = None
    for x, p in zip(values, exps):
        if not p:
            continue
        f = x ** p
        out = f if out is None else out * f
    return out


def pi_forward(S, k, w):
    """Project chart-k coordinates down to the original coordinates."""
    pf = projection_formulas(S, k)
    if len(w) != S.n:
        raise PreconditionViolated("expected %d coordinates" % S.n)
    return [_eval_monomial(w, row) for row in pf.forward]


def pi_inverse(S, k, z):
    """Chart-k coordinates of a point given in the original coordinates.

    Defined only off the relevant coordinate hyperplanes; raises
    ZeroCoordinate when a required z_h vanishes.
    """
    pf = projection_formulas(S, k)
    if len(z) != S.n:
        raise PreconditionViolated("expected %d coordinates" % S.n)
    for j in pf.required_nonzero:
        if not z[j - 1]:
            raise ZeroCoordinate("z_%d = 0: chart transition undefined" % j)
    return [_eval_monomial(z, row) for row in pf.inverse]


@functools.lru_cache(maxsize=256)
def compiled_pi_inverse(S, k):
    """pi_inverse(S, k, .) compiled once per (structure, stage) into one
    straight-line function of a sequence of exactly n numbers.

    Each chart coordinate is the product pi_inverse forms: z_h ** p for
    every nonzero exponent p of its row, multiplied left to right, so the
    results are the same numbers.  The required coordinates are not
    tested: a zero one raises ZeroDivisionError, not ZeroCoordinate."""
    pf = projection_formulas(S, k)
    names = ["z%d" % h for h in range(S.n)]
    # every row of the unimodular inverse has a nonzero exponent
    rows = [" * ".join("%s ** %d" % (names[h], p)
                       for h, p in enumerate(row) if p)
            for row in pf.inverse]
    source = "def pull(z):\n    %s, = z\n    return [%s]\n" % (
        ", ".join(names), ", ".join(rows))
    space = {}
    exec(compile(source, "<stage %d pull-back>" % k, "exec"), space)
    return space["pull"]


def on_singular_divisor(S, k, w):
    """Whether the chart-k point w lies on the exceptional divisor."""
    return any(not w[h - 1] for h in projection_formulas(S, k).divisor)


# -- literal transcriptions of the quoted closed forms -------------------
#
# These reproduce, index for index, the closed-form tables usually stated
# for the composite projection and its inverse.  They exist purely to be
# compared against the generated tables; compare_printed_tables reports any
# disagreement instead of hiding it.

def printed_forward_table(S, k):
    n = S.n
    mu1 = S.mu[0]

    def basis(i):
        return tuple(1 if j == i - 1 else 0 for j in range(n))

    def add(*vecs):
        out = [0] * n
        for v in vecs:
            for i, x in enumerate(v):
                out[i] += x
        return tuple(out)

    def scale(c, v):
        return tuple(c * x for x in v)

    def span(a, b):  # sum of basis exponents for h in a..b
        out = [0] * n
        for h in range(a, b + 1):
            out[h - 1] += 1
        return tuple(out)

    rows = []
    if 1 <= k <= mu1:
        sp = splitting(S, k)
        block_of = {}
        for l, blk in enumerate(sp.per_block, start=1):
            for j in blk:
                block_of[j] = l
        for j in range(1, n + 1):
            l = block_of.get(j)
            if l == 1:
                rows.append(add(basis(1), scale(2, span(2, j)), span(j + 1, k)))
            elif l is not None:
                jl = j - S.nu[l - 1]
                rows.append(
                    add(basis(1), scale(2, span(2, jl)), span(jl + 1, k), basis(j))
                )
            else:
                rows.append(add(basis(1), scale(2, span(2, k)), basis(j)))
    elif S.has_equal_top_blocks() and k == mu1 + 1:
        sp = splitting(S, mu1)
        pivot = S.nu[1] + S.mu[1]
        literal_pivot = S.mu[1] + S.mu[1]  # printed as mu_2 + mu_2
        block_of = {}
        for l, blk in enumerate(sp.per_block, start=1):
            for j in blk:
                block_of[j] = l
        for j in range(1, n + 1):
            l = block_of.get(j)
            if l == 1:
                rows.append(
                    add(basis(1), scale(2, span(2, j)), span(j + 1, mu1), basis(pivot))
                )
            elif l is not None:
                jl = j - S.nu[l - 1]
                rows.append(
                    add(
                        basis(1),
                        scale(2, span(2, jl)),
                        span(jl + 1, mu1),
                        basis(j),
                        basis(pivot),
                    )
                )
            else:
                rows.append(
                    add(basis(1), scale(2, span(2, mu1)), scale(2, basis(literal_pivot)))
                )
    else:
        raise PreconditionViolated("stage %d out of range for printed table" % k)
    return tuple(rows)


def printed_inverse_table(S, k):
    n = S.n
    mu1 = S.mu[0]

    def row(pos=None, neg=None):
        out = [0] * n
        if pos:
            out[pos - 1] += 1
        if neg:
            out[neg - 1] -= 1
        return out

    rows = []
    if 1 <= k <= mu1:
        sp = splitting(S, k)
        block_of = {}
        for l, blk in enumerate(sp.per_block, start=1):
            for j in blk:
                block_of[j] = l
        for j in range(1, n + 1):
            l = block_of.get(j)
            if j == 1:
                r = row(neg=k)
                r[0] += 2
                rows.append(tuple(r))
            elif l == 1:
                rows.append(tuple(row(pos=j, neg=j - 1)))
            elif l is not None:
                rows.append(tuple(row(pos=j, neg=j - S.nu[l - 1])))
            else:
                rows.append(tuple(row(pos=j, neg=k)))
    elif S.has_equal_top_blocks() and k == mu1 + 1:
        sp = splitting(S, mu1)
        pivot = S.nu[1] + S.mu[1]
        block_of = {}
        for l, blk in enumerate(sp.per_block, start=1):
            for j in blk:
                block_of[j] = l
        for j in range(1, n + 1):
            l = block_of.get(j)
            if j == 1:
                r = row(neg=pivot)
                r[0] += 2
                rows.append(tuple(r))
            elif l == 1:
                rows.append(tuple(row(pos=j, neg=j - 1)))
            elif l is not None:
                rows.append(tuple(row(pos=j, neg=j - S.nu[l - 1])))
            else:
                rows.append(tuple(row(pos=j, neg=mu1)))
    else:
        raise PreconditionViolated("stage %d out of range for printed table" % k)
    return tuple(rows)


def compare_printed_tables(S, k):
    """Differences between the generated projection tables and the literal
    closed forms; empty list means full agreement."""
    pf = projection_formulas(S, k)
    issues = []
    fwd = printed_forward_table(S, k)
    for j in range(S.n):
        if tuple(fwd[j]) != tuple(pf.forward[j]):
            issues.append(
                "forward z_%d: printed %r vs generated %r"
                % (j + 1, fwd[j], pf.forward[j])
            )
    inv = printed_inverse_table(S, k)
    for i in range(S.n):
        if tuple(inv[i]) != tuple(pf.inverse[i]):
            issues.append(
                "inverse w_%d: printed %r vs generated %r"
                % (i + 1, inv[i], pf.inverse[i])
            )
    return issues
