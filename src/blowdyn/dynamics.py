"""Dynamics read off from the lifted quadratic part.

Once a germ has been lifted through the full blow-up tower, its quadratic
part in the distinguished chart drives everything dynamical that this
package computes: fixed directions of the projectivized quadratic form
(with their multipliers and the allowability cut against the singular
divisor), the attraction matrix at a fixed direction, the closed-form
orbit asymptotics in the generic case, and the planar refined invariants
in the nongeneric one.

Every direction solver is exact.  Besides the paper's closed form and a
planar quadratic formula, the factored solver finds every fixed
direction, and every positive-dimensional set of them, by linear
branching on the factors the lifted quadratic part has.

The generic parabolic curve has one closed form, the fixed direction v
of _generic_direction.  The structured solver checks Q(v) = v exactly;
the decay table is its chart image: orbits on the curve approach -v/k in
the final chart, so z_j ~ prod_i (-v_i)^{F_ji} / k^{sum_i F_ji} with F
the final stage's forward table.

The second half of the module is numerical plumbing around actual orbits:
high-precision iteration, power-law fitting of coordinate decay, and
the stage-by-stage regularity verdicts obtained by pulling an orbit back
through the chart transitions.

Orbits run on the fixed-point engine of orbitplan: the germ compiled
into a monomial plan over Gaussian-integer coefficients, evaluated on
block-floating-point points with orbitplan.ORBIT_GUARD_BITS bits beyond
the requested precision.  Each stored orbit point is the image of the one
before it to 2^-precision_bits relative to its sup norm; divergence past
the radius is decided exactly; a preimage step is Newton's method on the
plan's Jacobian, checked to contract at every iteration.  mpmath is used
only at the boundaries: input conversion, the decay profile and the mpc
view of a trace.  The CLI's decimal output is spelled from the engine's
integers.

Conventions.  Directions are stored as projective representatives; the
multiplier lam scales linearly with the representative (Q(cv) = c lam on
cv).  All numeric thresholds are module constants, declared once below;
nothing is inferred at run time.
"""

import cmath
import functools
import itertools
import math
import statistics
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath

from .blowup import compiled_pi_inverse, pi_forward, projection_formulas
from .errors import (
    BlowdynError,
    DegenerateDirection,
    InsufficientData,
    NoAllowableDirection,
    NonConvergent,
    NonGeneric,
    PreconditionViolated,
    UnsupportedSpectrum,
)
from .exactalg import (
    extend_reduced, imat, qi, reduced_solution, _gaussian_dot, _gaussian_mul,
)
from .lifting import (
    is_diagonalizable,
    lift,
    lifted_linear_part,
    lifted_quadratic_part,
)
from .orbitplan import (
    OrbitPlan,
    decimal_speller,
    mpc_point,
    radius_test,
    rounded_parts,
)
from .scalars import QI_ONE, QI_ZERO, GaussianRational, _of, gaussian_sqrt
from .series import _as_germ

# Numeric policy (declared, not derived):
DEGENERATE_EPS = 1e-8           # |lam| below this counts as degenerate (floats)
POWERLAW_RESIDUAL_TOL = 0.02
EXPONENT_SNAP = 0.125           # snap fitted exponents this close to an integer
REG_WINDOW = 50                 # samples per window in regularity verdicts
REG_WINDOWS = 6                 # trailing windows a windowed verdict reads
FIT_TAIL = 1000                 # trailing samples of the direction fit
DIRECTION_TOL = 1e-3            # tau: Cauchy threshold on window means
DIRECTION_SCATTER_TOL = 5e-2    # intra-window spread; oscillation detector
STANDARD_MATCH_TOL = 1e-4       # projective match against a reference direction
DEFAULT_RADIUS = 10.0           # orbit divergence radius (sup norm)


def projective_distance(a, b):
    """Distance between the complex lines spanned by a and b.

    Equals min over a phase theta of ||a/|a| - e^{i theta} b/|b| ||, i.e.
    the chord sqrt(2 (1 - |<a,b>| / (|a| |b|))), evaluated as the norm of
    the phase-aligned difference so that distances far below sqrt(eps)
    remain resolvable.  Zero iff the lines agree.
    """
    za = [complex(x) for x in a]
    zb = [complex(x) for x in b]
    if len(za) != len(zb):
        raise PreconditionViolated("dimension mismatch")
    return _unit_distance(_normalised(za), _normalised(zb))


def _normalised(z):
    """The list z of complex numbers divided by its Euclidean norm."""
    norm = math.sqrt(sum([abs(x) ** 2 for x in z]))
    if norm == 0.0:
        raise PreconditionViolated("zero vector has no projective class")
    return [x / norm for x in z]


def _unit_distance(za, zb):
    """projective_distance of two unit vectors of one length."""
    inner = sum([x * y.conjugate() for x, y in zip(za, zb)])
    if inner == 0:
        return math.sqrt(2.0)
    phase = inner / abs(inner)
    return math.sqrt(sum([abs(x - phase * y) ** 2 for x, y in zip(za, zb)]))


def _argmax_abs(v):
    """Index of the largest-modulus coordinate (first on ties)."""
    best, besta = 0, None
    for i, x in enumerate(v):
        ax = x.abs2() if isinstance(x, GaussianRational) else abs(x)
        if besta is None or ax > besta:
            best, besta = i, ax
    return best


def _rep(v):
    """Canonical projective representative v / v_{i0} of a complex vector,
    i0 the largest coordinate; entries bounded by 1, coordinate i0
    exactly 1."""
    i0 = _argmax_abs(v)
    piv = v[i0]
    return tuple(x / piv for x in v), i0


# -- characteristic directions -------------------------------------------

@dataclass(frozen=True)
class CharDirection:
    """A fixed direction of the quadratic part: Q(v) = lam * v.

    v is a projective representative; lam is tied to it (rescaling v by c
    rescales lam by c).  span is empty for an isolated direction; for a
    positive-dimensional set of fixed directions it holds exact vectors
    with Q(v + sum t_i span_i) = lam (v + sum t_i span_i) for all t, and
    the set is the directions of those vectors.  allowable: whether the
    direction (for a set, its generic member) is transverse to the
    exceptional divisor, i.e. some vector among v and span is nonzero at
    each ProjectionFormulas.divisor coordinate; None without a structure.
    """

    v: tuple
    lam: object
    degenerate: bool
    mode: str
    span: tuple = ()
    allowable: object = None
    hakim_spectrum: object = None

    @property
    def n(self):
        return len(self.v)


def _structured_directions(Q, S):
    """The closed-form allowable nondegenerate direction of a fully lifted
    unipotent germ, normalized to lam = 1, verified exactly against the
    fixed-direction equations before being returned."""
    if S is None:
        raise PreconditionViolated("structured mode needs the block structure")
    if any(x != QI_ONE for x in S.lam):
        raise UnsupportedSpectrum(
            "structured closed form requires every block eigenvalue equal to 1"
        )
    if S.has_equal_top_blocks():
        raise NoAllowableDirection(
            "tied leading blocks: no allowable nondegenerate direction exists "
            "at the final stage"
        )
    # The leading coefficient reappears in the lifted chart as minus the
    # w_1^2 coefficient of component 1, and a trailing block's own leading
    # coefficient as the w_1 w_{mu_1} monomial of its last component.
    a = -Q.monomial_coefficient(1, 1, 1)
    if not a:
        raise NoAllowableDirection(
            "leading quadratic coefficient vanishes; the closed form degenerates"
        )
    lam = QI_ONE
    v = _generic_direction(
        S, a, lambda j: Q.monomial_coefficient(j, 1, S.mu[0]))
    for j in range(1, S.n + 1):
        if Q.value(j, v) != lam * v[j - 1]:
            raise PreconditionViolated(
                "closed-form direction fails the fixed-direction equations "
                "(component %d); is Q the final-stage quadratic part?" % j
            )
    return [
        CharDirection(
            v=tuple(v), lam=lam, degenerate=False, mode="structured",
        )
    ]


def _generic_direction(S, a, lead):
    """The closed-form fixed direction v, Q(v) = v, of a generic unipotent
    germ at the final stage of S: a is the leading coefficient
    a^{mu_1}_{11}, and lead(j) is the leading coefficient a_l of the block
    of size mu_1 - 1 whose last coordinate is j.  Blocks shorter than
    mu_1 - 1 stay zero."""
    mu1 = S.mu[0]
    v = [QI_ZERO] * S.n
    v[0] = GaussianRational(2 * mu1 - 1) / a
    for j in range(2, mu1 + 1):
        v[j - 1] = GaussianRational(mu1 + j - 2)
    for mul, nul in zip(S.mu[1:], S.nu[1:]):
        if mul == mu1 - 1:
            al = lead(nul + mul)
            for h in range(1, mul + 1):
                v[nul + h - 1] = (al / a) * GaussianRational(mul + h)
    return v


def _exact2d_directions(Q):
    """Exact fixed directions for n = 2 via the slope equation.

    Writing directions [1 : t], the slope t must kill
    sigma(t) = Q_2(1,t) - t Q_1(1,t).  When component 1 has no w_2^2 term
    (the shape every once-blown-up planar germ has) sigma has degree <= 2
    and the roots are radical expressions; they are returned exactly when
    the discriminant has a square root in Q(i).
    """
    if Q.n != 2:
        raise PreconditionViolated("exact2d mode requires n = 2")
    ent = []
    for j in (1, 2):
        for hk in ((1, 1), (1, 2), (2, 2)):
            c = Q.monomial_coefficient(j, *hk)
            if not isinstance(c, GaussianRational):
                raise PreconditionViolated("exact2d mode needs exact coefficients")
            ent.append(c)
    m11, m12, m22, c11, c12, c22 = ent
    if m22:
        raise PreconditionViolated(
            "component 1 has a w_2^2 term; the slope equation is cubic and "
            "is not handled exactly"
        )
    s0, s1, s2 = c11, c12 - m11, c22 - m12
    roots = []
    if s2:
        disc = s1 * s1 - 4 * s0 * s2
        r = gaussian_sqrt(disc)
        if r is None:
            raise PreconditionViolated(
                "slope discriminant has no exact square root in Q(i)"
            )
        roots.append((-s1 + r) / (2 * s2))
        if r:
            roots.append((-s1 - r) / (2 * s2))
    elif s1:
        roots.append(-s0 / s1)
    elif not s0:
        raise PreconditionViolated(
            "slope equation vanishes identically: every direction is fixed"
        )
    roots.sort(key=lambda t: (t.to_complex().real, t.to_complex().imag))
    dirs = []
    for t in roots:
        lam = m11 + m12 * t
        dirs.append(
            CharDirection(
                v=(QI_ONE, t), lam=lam, degenerate=not lam, mode="exact2d",
            )
        )
    # [0 : 1] is always fixed once component 1 has no w_2^2 term
    lam01 = c22
    dirs.append(
        CharDirection(
            v=(QI_ZERO, QI_ONE), lam=lam01, degenerate=not lam01, mode="exact2d",
        )
    )
    return dirs


def _dot(l, x):
    return sum((a * b for a, b in zip(l, x) if a and b), QI_ZERO)


def _in_space(x, p, basis):
    """Whether x lies in the affine space (p, basis) that reduced_solution
    returned: each basis vector ends in the 1 at its free unknown."""
    d = [a - b for a, b in zip(x, p)]
    for b in basis:
        f = max(i for i, c in enumerate(b) if c)
        d = [y - d[f] * c for y, c in zip(d, b)]
    return not any(d)


def _solution_spaces(factors, t):
    """The maximal affine spaces, as reduced_solution's (p, basis), whose
    union solves u_k l(u) = t u_j for every (k, l) = factors[j], t = 1 or 0.

    If k = j or t = 0 the equation is u_k (l(u) - t) = 0 and branches into
    u_k = 0 or l(u) = t; otherwise it is one linear row once u_k is
    constant on the branch, and a branch where it never is raises.  Each
    branch extends its parent's reduced rows by its one new row, and an
    inconsistent branch is dropped."""
    n = len(factors)
    found = set()
    todo = [([], list(range(n)))]
    while todo:
        reduced, pending = todo.pop()
        p, basis = reduced_solution(reduced, n)
        new = None
        for j in list(pending):
            k, l = factors[j]
            a = None if any(b[k] for b in basis) else p[k]
            if t and k != j:
                if a is None:
                    continue
                row = [a * x for x in l]
                row[j] -= QI_ONE
                new = [(row, QI_ZERO)]
            elif a == QI_ZERO or _dot(l, p) == t and not any(
                    _dot(l, b) for b in basis):
                pending.remove(j)           # holds on the whole branch
                continue
            else:
                unit = [QI_ZERO] * n
                unit[k] = QI_ONE
                new = [(unit, QI_ZERO), (l, t)]
            pending.remove(j)
            break
        if new is not None:
            for row, r in new:
                child = extend_reduced(reduced, row + [r], n)
                if child is not None:
                    todo.append((child, list(pending)))
        elif pending:
            raise PreconditionViolated(
                "component %d stays quadratic on a branch" % (pending[0] + 1))
        else:
            found.add((tuple(p), tuple(map(tuple, basis))))
    kept = []
    for p, basis in sorted(found, key=lambda s: -len(s[1])):
        if not any(_in_space(p, *o) and all(
                _in_space([x + y for x, y in zip(p, b)], *o) for b in basis)
                for o in kept):
            kept.append((p, basis))
    return kept


def _factored_directions(Q):
    """Every fixed direction, exactly, of a quadratic part whose every
    component is one coordinate times a linear form, Q_j(v) = v_k l(v).

    Nondegenerate directions are the nonzero solutions of Q(u) = u, u =
    v/lam, degenerate ones those of Q(v) = 0 (see _solution_spaces).  An
    isolated direction gets lam = 1 or 0, a positive-dimensional set one
    entry with a span."""
    factors = []
    for j, M in enumerate(Q.matrices):
        n = len(M)
        ks = [k for k in [j] + list(range(n)) if not any(
            M[h][m] for h in range(n) if h != k for m in range(n) if m != k)]
        if not ks:
            raise PreconditionViolated(
                "component %d is not one coordinate times a linear form"
                % (j + 1))
        factors.append((ks[0], [qi(M[ks[0]][m]) * (2 - (m == ks[0]))
                                for m in range(n)]))
    dirs = [
        CharDirection(v=p, lam=QI_ONE, degenerate=False, mode="factored",
                      span=basis)
        for p, basis in _solution_spaces(factors, QI_ONE) if any(p) or basis
    ] + [
        CharDirection(v=basis[0], lam=QI_ZERO, degenerate=True,
                      mode="factored", span=basis[1:])
        for _, basis in _solution_spaces(factors, QI_ZERO) if basis
    ]
    dirs.sort(key=lambda d: (d.degenerate, len(d.span),
                             [(x.re, x.im) for x in d.v]))
    return dirs


def characteristic_directions(Q, mode="auto", structure=None):
    """Fixed directions of the n-tuple quadratic form Q: Q(v) = lam v.

    mode "structured" builds the closed-form direction of a fully lifted
    unipotent germ (needs structure); "factored" finds every direction
    exactly when each component of Q is one coordinate times a linear
    form, as in every lifted quadratic part measured so far; "exact2d"
    solves the planar slope quadratic in Q(i).  "auto" tries them in that
    order, falling through on preconditions.

    With a structure, Q is its final-stage quadratic part, and every
    direction returned has allowable decided against the final chart's
    divisor (see CharDirection).
    """
    if structure is not None and Q.n != structure.n:
        raise PreconditionViolated(
            "quadratic form / structure dimension mismatch")
    solvers = {"structured": lambda: _structured_directions(Q, structure),
               "factored": lambda: _factored_directions(Q),
               "exact2d": lambda: _exact2d_directions(Q)}
    if mode == "auto":
        order = (["structured"] * (structure is not None) + ["factored"]
                 + ["exact2d"] * (Q.n == 2))
    elif mode in solvers:
        order = [mode]
    else:
        raise PreconditionViolated("unknown mode %r" % (mode,))
    failures = []
    for name in order:
        try:
            dirs = solvers[name]()
            break
        except (PreconditionViolated, UnsupportedSpectrum,
                NoAllowableDirection) as e:
            if mode != "auto":
                raise
            failures.append("%s: %s" % (name, e))
    else:
        raise PreconditionViolated("; ".join(failures))
    if structure is not None:
        dirs = _decide_allowable(dirs, structure, structure.ell)
    return dirs


def _decide_allowable(dirs, S, k):
    """dirs with allowable decided against the stage-k divisor of S."""
    divisor = projection_formulas(S, k).divisor
    return [replace(d, allowable=all(any(x[h - 1] for x in (d.v,) + d.span)
                                     for h in divisor)) for d in dirs]


# -- attraction matrix at a fixed direction ------------------------------

@dataclass(frozen=True)
class HakimData:
    """Attraction data at a nondegenerate fixed direction.

    matrix is half the deviation of the projectivized tangent map from the
    identity, written in the affine chart of coordinate `chart` (1-based);
    its spectrum governs attraction rates transverse to the direction and
    does not depend on the chart or on the representative's scale.
    """

    matrix: tuple
    spectrum: tuple
    chart: int
    lam: object


def hakim_matrix(Q, v, chart=None):
    """Attraction matrix at the fixed direction v, plus its spectrum.

    The direction is normalized in the affine chart of its largest-modulus
    coordinate (or the 1-based `chart` if given); the matrix is half the
    deviation of the projectivized tangent map from the identity there.
    v and the matrices of Q must be exact (GaussianRational), and the
    matrix is exact; eigenvalues of blocks larger than 1x1 are computed in
    floating point.

    With w = v / v_{i0} and A_j = M_j w for the matrices M_j of Q: q_j =
    w . A_j, lam = q_{i0}, H_jk = (A_jk - w_j A_{i0,k}) / lam - delta_jk / 2.
    The work runs on Gaussian integers: u is v times its common
    denominator, p = u_{i0}, and A'_j = M_j u is read off Q.stacked, the
    matrices over one denominator D.  With s_j = u . A'_j (over D),
    A_j = A'_j / p and q_j = s_j / p^2, so v is fixed when
    p s_j = u_j s_{i0} for every j, lam = s_{i0} / p^2 and
    H_jk = (p A'_jk - u_j A'_{i0,k}) / s_{i0} - delta_jk / 2, in which D
    cancels.  Only lam and H's entries are built as GaussianRational.
    """
    n = Q.n
    if len(v) != n:
        raise PreconditionViolated("direction has wrong length")
    mats = Q.matrices
    if not all(isinstance(x, GaussianRational)
               for x in (*v, *(x for m in mats for row in m for x in row))):
        raise PreconditionViolated(
            "the attraction matrix is computed for exact input only")
    _, (ur,), ui = imat([v])
    ui = ui and ui[0]
    u = list(zip(ur, ui or (0,) * n))
    if chart is not None:
        if not 1 <= chart <= n:
            raise PreconditionViolated("chart index out of range")
        i0 = chart - 1
        if not v[i0]:
            raise PreconditionViolated("chosen chart coordinate of v vanishes")
    else:  # the largest modulus, first on ties
        i0 = max(range(n), key=lambda i: u[i][0] ** 2 + u[i][1] ** 2)
    p = u[i0]
    # row j*n + k of Q.stacked is row k of M_j, so A'_jk is at j*n + k
    den, sr, si = Q.stacked
    A = [_gaussian_dot(row, si and si[r], ur, ui)
         for r, row in enumerate(sr)]
    s = [_gaussian_dot(*zip(*A[j * n:j * n + n]), ur, ui) for j in range(n)]
    for j, sj in enumerate(s):
        if _gaussian_mul(p, sj) != _gaussian_mul(u[j], s[i0]):
            raise PreconditionViolated(
                "v is not a fixed direction of this quadratic part (component %d)"
                % (j + 1)
            )
    s0 = s[i0]
    if s0 == (0, 0):
        raise DegenerateDirection("multiplier vanishes at this direction")
    lamp = _of(*s0, den) / _of(*_gaussian_mul(p, p), 1)
    # H_jk = (2 N_jk - delta_jk s0) conj(s0) / (2 |s0|^2), with s0 = s_{i0}
    # and N_jk = p A'_jk - u_j A'_{i0,k}
    conj = (s0[0], -s0[1])
    norm = 2 * (s0[0] * s0[0] + s0[1] * s0[1])
    idxs = [t for t in range(n) if t != i0]
    rows = []
    for j in idxs:
        out = []
        for k in idxs:
            (ar, ai), (br, bi) = (_gaussian_mul(p, A[j * n + k]),
                                  _gaussian_mul(u[j], A[i0 * n + k]))
            nr, ni = 2 * (ar - br), 2 * (ai - bi)
            if j == k:
                nr, ni = nr - s0[0], ni - s0[1]
            out.append(_of(*_gaussian_mul((nr, ni), conj), norm))
        rows.append(tuple(out))
    mat = tuple(rows)
    m = len(mat)
    if m == 0:
        spectrum = ()
    elif m == 1:
        spectrum = (mat[0][0],)
    else:
        import numpy as np

        arr = np.array(
            [[complex(x) for x in row] for row in mat], dtype=complex
        )
        vals = sorted(np.linalg.eigvals(arr), key=lambda z: (z.real, z.imag))
        spectrum = tuple(complex(z) for z in vals)
    return HakimData(matrix=mat, spectrum=spectrum, chart=i0 + 1, lam=lamp)


# -- closed-form orbit asymptotics ---------------------------------------

@dataclass(frozen=True)
class AsymptoticRow:
    """Predicted decay of one coordinate along the parabolic-curve orbits:
    z_j ~ constant / k^exponent, or only o(1/k^exponent) when the theory
    gives no constant (upper_bound_only)."""

    j: int
    exponent: int
    constant: object
    upper_bound_only: bool = False


def expected_asymptotics(F):
    """The closed-form orbit decay table of a generic unipotent germ.

    It is the chart image of the closed-form direction: orbits on the
    parabolic curve approach -v/k in the final chart (Hakim), so with F
    the final stage's forward table, z_j ~ c_j / k^{m_j} with
    c_j = prod_i (-v_i)^{F_ji} and m_j = sum_i F_ji.  v is built from the
    leading coefficient a = a^{mu_1}_{11} and, for each trailing block of
    size mu_1 - 1, its own leading coefficient a^{nu_l+mu_l}_{11}.  Rows of
    blocks shorter than mu_1 - 1 have v_i = 0 and only get an upper bound.
    """
    S = F.structure
    if any(x != QI_ONE for x in S.lam):
        raise UnsupportedSpectrum(
            "closed-form asymptotics require every block eigenvalue equal to 1"
        )
    if S.has_equal_top_blocks():
        raise NonGeneric(
            "tied leading blocks: the single-curve asymptotics do not apply"
        )
    a = F.leading_quadratic_coefficient()
    if not a:
        raise NonGeneric("leading quadratic coefficient vanishes")
    v = _generic_direction(S, a, lambda j: F.a(j, 1, 1))
    forward = projection_formulas(S, S.ell).forward
    image = pi_forward(S, S.ell, [-x for x in v])
    rows = []
    for j, (c, row) in enumerate(zip(image, forward), start=1):
        short = S.mu[S.block_of(j) - 1] < S.mu[0] - 1
        rows.append(AsymptoticRow(j=j, exponent=sum(row),
                                  constant=None if short else c,
                                  upper_bound_only=short))
    return tuple(rows)


# -- orbit iteration ------------------------------------------------------

class OrbitTrace:
    """A finite orbit z^0, ..., z^N stored at fixed binary precision.

    A diverged orbit is truncated at the last in-radius point, with the
    offending step recorded.  `points` is a tuple of points, each a tuple
    of coordinates: whatever the caller passed in or, for a trace made by
    orbit_iterate, mpc values rounded to precision_bits that are built on
    first read from the engine's integer form, which the trace keeps.  An
    (N, n) numpy array passed in is kept as it is, not made a tuple.
    """

    __slots__ = ("_points", "_blocks", "precision_bits", "source",
                 "diverged", "diverged_at")

    def __init__(self, points, precision_bits, source=None, diverged=False,
                 diverged_at=None):
        self._points = (points if getattr(points, "ndim", None) == 2
                        else tuple(points))
        self._blocks = None
        self.precision_bits = precision_bits
        self.source = source
        self.diverged = diverged
        self.diverged_at = diverged_at

    @classmethod
    def _of_blocks(cls, blocks, precision_bits, source, diverged,
                   diverged_at):
        trace = cls((), precision_bits, source, diverged, diverged_at)
        trace._points = None
        trace._blocks = blocks
        return trace

    @property
    def points(self):
        pts = self._points
        if pts is None:
            pts = self._points = tuple(map(mpc_point, self.raw_points()))
        return pts

    def _engine_blocks(self):
        if self._blocks is None:
            raise PreconditionViolated("trace keeps no engine points")
        return self._blocks

    def raw_points(self):
        """Per point, in order, the list of mpmath value tuples (re_1,
        im_1, ..., re_n, im_n) of its coordinates, rounded to
        precision_bits.  Only a trace made by orbit_iterate has this
        form."""
        bits = self.precision_bits
        return (rounded_parts(pt, bits) for pt in self._engine_blocks())

    def decimal_points(self, dps):
        """Per point, in order, the list of strings that
        mpmath.libmp.to_str(x, dps) gives for each value x of its
        raw_points entry, spelled from the integers by one
        orbitplan.decimal_speller for the whole trace, so that points of
        one binary order share its cached sizes."""
        return itertools.starmap(decimal_speller(self.precision_bits, dps),
                                 self._engine_blocks())

    def __len__(self):
        return len(self._points if self._blocks is None else self._blocks)

    @property
    def n(self):
        if self._blocks is None:
            return len(self._points[0])
        return len(self._blocks[0][1]) // 2


def orbit_iterate(F, z0, steps, precision_bits=128, radius=DEFAULT_RADIUS):
    """Iterate the polynomial germ F from z0 for `steps` steps.

    The orbit runs on the compiled fixed-point engine with
    orbitplan.ORBIT_GUARD_BITS bits beyond precision_bits, so each stored
    point is the image of the one before it to 2^-precision_bits relative
    to its sup norm; each step is one call of the compiled OrbitPlan.step.
    If a coordinate leaves the disc of the given radius (|z_j| > radius,
    decided exactly) the trace is truncated before that point and flagged
    with the offending step; no exception is raised.  The exact test runs
    only on points whose exponent is above the radius test's safe bound
    (orbitplan.radius_test), since a renormalised point below it is
    inside.  The radius must be finite and positive.
    """
    g = _as_germ(F)
    if len(z0) != g.n:
        raise PreconditionViolated("start point has wrong dimension")
    if steps < 1:
        raise PreconditionViolated("need at least one step")
    outside = radius_test(radius)
    plan = OrbitPlan(g, precision_bits)
    step = plan.step
    inside = outside.safe - plan.work - 1
    pt = plan.point(z0)
    pts = [pt]
    append = pts.append
    diverged_at = None
    for k in range(1, steps + 1):
        pt = step(*pt)
        if pt[0] > inside and outside(pt):
            diverged_at = k
            break
        append(pt)
    return OrbitTrace._of_blocks(
        pts, precision_bits, F, diverged_at is not None, diverged_at)


def profile_point(F, k, precision_bits=128):
    """Evaluate the predicted leading-order decay profile at time k.

    Components whose constant is known only as an upper bound are seeded
    at zero.  Returns a tuple of mpc values at the requested precision.
    """
    rows = expected_asymptotics(F)
    if k < 1:
        raise PreconditionViolated("profile time must be positive")
    with mpmath.workprec(precision_bits):
        z = []
        for row in rows:
            if row.constant is None:
                z.append(mpmath.mpc(0))
            else:
                c = row.constant.to_mpc(precision_bits)
                z.append(c / mpmath.mpf(k) ** row.exponent)
        return tuple(z)


def standard_orbit_seed(F, k0=50, settle=20000, precision_bits=128,
                        radius=DEFAULT_RADIUS):
    """Starting point of a standard orbit at time k0, refined onto the
    invariant curve by backward iteration.

    The leading-order profile alone is off the curve by a relative
    O(1/k0), and the transverse modes grow polynomially under the forward
    map, so a profile seed drifts off and eventually escapes.  Running the
    germ backwards contracts exactly those modes: starting from the
    profile far out at K = k0 + settle and taking `settle` preimage steps
    lands on a genuine orbit point at time k0 whose distance to the curve
    is smaller by roughly (k0/K)^p.  Forward iteration from the returned
    point then tracks the predicted decay over a span that grows with
    `settle`, without ever computing a curve parametrization.

    Each preimage step solves F(z) = w by Newton's method on the compiled
    engine at precision_bits + orbitplan.ORBIT_GUARD_BITS bits (see
    OrbitPlan.preimage).  A step whose Newton iteration stops contracting,
    or whose result leaves the radius, raises NonConvergent with that
    step's number (1 for the first preimage taken from the profile
    point).  The result is rounded to precision_bits.
    """
    S = getattr(F, "structure", None)
    if S is None:
        raise PreconditionViolated(
            "need an input germ with a declared linear structure")
    if settle < 1:
        raise PreconditionViolated("settle must be positive")
    outside = radius_test(radius)
    plan = OrbitPlan(_as_germ(F), precision_bits)
    inside = outside.safe - plan.work - 1
    z = plan.point(profile_point(F, k0 + settle, precision_bits=plan.work))
    for step in range(1, settle + 1):
        z = plan.preimage(z, step)
        if z[0] > inside and outside(z):
            raise NonConvergent(
                "backward refinement left the orbit radius; "
                "reduce settle or start further out", step=step)
    return mpc_point(rounded_parts(z, precision_bits))


# -- power-law fitting ----------------------------------------------------

@dataclass(frozen=True)
class AsymptoticFit:
    """Fitted decay of one coordinate over a declared tail window:
    z_j ~ constant / k^exponent.  exponent_fitted is the raw least-squares
    slope; exponent is snapped to the nearest integer when within
    EXPONENT_SNAP of it.  power_law records whether the decay matched an
    integer power law: the exponent snapped AND the relative spread of
    k^exponent z_j over the window stayed below POWERLAW_RESIDUAL_TOL
    (slow corrections such as log factors leave the raw slope strictly
    between integers, so they fail the first condition)."""

    j: int
    exponent: float
    exponent_fitted: float
    constant: complex
    residual: float
    power_law: bool
    window: int


def _log_slope(ks, vals):
    """Least-squares slope of log v against log k over the samples with
    v > 0; None with fewer than 10 of them or when every log k is equal."""
    pts = [(math.log(k), math.log(v)) for k, v in zip(ks, vals) if v > 0.0]
    if len(pts) < 10:
        return None
    xbar = sum(p[0] for p in pts) / len(pts)
    ybar = sum(p[1] for p in pts) / len(pts)
    var = sum((p[0] - xbar) ** 2 for p in pts)
    if var == 0.0:
        return None
    return sum((p[0] - xbar) * (p[1] - ybar) for p in pts) / var


def _complex_median(zs):
    """Median of the real parts and median of the imaginary parts."""
    return complex(statistics.median(z.real for z in zs),
                   statistics.median(z.imag for z in zs))


def asymptotic_fit(trace, j, window=200, k0=0):
    """Fit |z_j^k| ~ |c| k^{-m} on the last `window` points of the trace.

    The iteration index of trace.points[i] is k0 + i; pass the k0 used to
    seed the orbit so the fitted constants refer to the true index.  The
    log-log fit needs every time in the window to be at least 1.
    """
    if trace.diverged:
        raise NonConvergent(
            "orbit diverged; no asymptotic fit", step=trace.diverged_at
        )
    pts = trace.points
    m = len(pts)
    if not 1 <= j <= trace.n:
        raise PreconditionViolated("coordinate index out of range")
    start = m - window
    if start < 0:
        raise InsufficientData(
            "trace has %d points; cannot form a %d-point window" % (m, window)
        )
    if k0 + start < 1:
        raise InsufficientData(
            "the window starts at time %d; the fit needs times k >= 1"
            % (k0 + start,))
    ks, norms, zs = [], [], []
    for i in range(start, m):
        x = pts[i][j - 1]
        ax = float(abs(x))
        if ax > 0.0:
            ks.append(float(k0 + i))
            norms.append(ax)
            zs.append(complex(x))
    if len(ks) < 20:
        raise InsufficientData("fewer than 20 usable points in the window")
    half = len(norms) // 2
    first = sum(norms[:half]) / half
    second = sum(norms[half:]) / (len(norms) - half)
    if not second < first:
        raise NonConvergent("window norms are not decreasing")
    slope = _log_slope(ks, norms)
    if slope is None:
        raise InsufficientData("window times too close for a log-log fit")
    fitted = -slope
    snapped_ok = abs(fitted - round(fitted)) < EXPONENT_SNAP
    snapped = float(round(fitted)) if snapped_ok else fitted
    scaled = [z * (k ** snapped) for k, z in zip(ks, zs)]
    const = _complex_median(scaled)
    denom = max(abs(const), max(abs(c) for c in scaled), 1e-300)
    residual = max(abs(c - const) for c in scaled) / denom
    return AsymptoticFit(
        j=j, exponent=snapped, exponent_fitted=fitted, constant=const,
        residual=residual,
        power_law=snapped_ok and residual <= POWERLAW_RESIDUAL_TOL,
        window=window,
    )


# -- regularity through the tower ----------------------------------------

@dataclass(frozen=True)
class StageVerdict:
    stage: int
    verdict: str          # first-kind | second-kind | not-regular | inconclusive
    limit: object = None  # direction rep (second kind) or limit point (first kind)
    note: str = ""


@dataclass(frozen=True)
class RegularityReport:
    """Stage-by-stage behaviour of an orbit pulled back through the tower.

    Verdicts run r = 0..n.  Stage 0 records whether the direction of the
    base orbit converges; stage r whether the stage-r chart copy tends to
    the chart center with converging direction (second kind) or to a
    point off the center (first kind).  classification is one of standard,
    regular-nonstandard, irregular, inconclusive.
    """

    structure: object
    verdicts: tuple
    classification: str
    standard: object = None
    matched_direction: object = None
    match_distance: object = None
    notes: tuple = ()


def _windows(seq, width):
    """The trailing full windows of seq, oldest first, at most
    REG_WINDOWS."""
    use = min(len(seq) // width, REG_WINDOWS)
    if use < 2:
        return []
    end = len(seq)
    return [seq[end - t * width:end - (t - 1) * width]
            for t in range(use, 0, -1)]


def _mean_vec(vecs):
    return tuple(sum(col) / len(vecs) for col in zip(*vecs))


def _scatter(vecs, center):
    """max(projective_distance(v, center) for v in vecs) over vectors of
    center's length, with center normalised once."""
    zb = _normalised([complex(x) for x in center])
    return max(_unit_distance(_normalised([complex(x) for x in a]), zb)
               for a in vecs)


def _direction_cauchy(latest, tol, width):
    """Test projective convergence of a sequence of complex vectors.

    latest yields the vectors newest first.  Zero vectors are skipped and
    only the newest REG_WINDOWS * width others are drawn, as no window
    reaches further back.  Each is replaced by its canonical
    representative, window means are formed, and the distance between the
    last two means is compared against tol.  Window means alone would
    average away a direction that keeps oscillating, so the spread of the
    last window around its mean must also stay below
    DIRECTION_SCATTER_TOL.  Returns (converged, last mean rep, distances).

    Each vector's moduli are taken once, for the zero test and for the
    pivot of its representative (the first largest, as _rep picks it).
    """
    reps = []
    need = REG_WINDOWS * width
    for w in latest:
        a = list(map(abs, w))
        top = max(a)
        if top == 0.0:
            continue
        piv = w[a.index(top)]
        reps.append(tuple([x / piv for x in w]))
        if len(reps) == need:
            break
    reps.reverse()
    wins = _windows(reps, width)
    if not wins:
        return None, None, ()
    means = [_mean_vec(w) for w in wins]
    dists = tuple(
        projective_distance(means[t], means[t + 1]) for t in range(len(means) - 1)
    )
    scatter = _scatter(wins[-1], means[-1])
    rep, _ = _rep(means[-1])
    converged = dists[-1] < tol and scatter < DIRECTION_SCATTER_TOL
    return converged, rep, dists


def _extrapolated_direction(ks, ws):
    """Direction limit of a vanishing sequence, given by its trailing
    samples, refined by fitting each affine coordinate as A + B/k and
    keeping the intercepts."""
    meanrep = _mean_vec([_rep(w)[0] for w in ws[-REG_WINDOW:]])
    i0 = _argmax_abs(meanrep)
    xs, us = [], []
    for k, w in zip(ks, ws):
        if w[i0] == 0:
            continue
        xs.append(1.0 / k)
        us.append([x / w[i0] for x in w])
    if len(xs) < 10:
        return meanrep
    s0 = float(len(xs))
    s1 = sum(xs)
    s2 = sum(x * x for x in xs)
    det = s0 * s2 - s1 * s1
    if det == 0.0:
        return meanrep
    out = []
    for jj in range(len(meanrep)):
        t0 = sum(u[jj] for u in us)
        t1 = sum(u[jj] * x for u, x in zip(us, xs))
        out.append((s2 * t0 - s1 * t1) / det)
    out[i0] = 1.0 + 0.0j
    return tuple(out)


class _ChartTail:
    """The samples of a trace that one chart sees, pulled back on demand
    from the newest backwards, so that only samples a verdict reads are
    ever converted.

    Z is the trace as an (N, n) complex array, rows the indices of the
    samples (oldest first, time k = k0 + index) and pull maps a point, a
    list of Python complex numbers, to its chart coordinates (None:
    identity); regularity_classify passes the stage's compiled pull-back
    through _chart_point.  Only the rows read are made Python numbers.
    """

    def __init__(self, Z, rows, k0, pull=None):
        self._Z = Z
        self._rows = rows
        self._k0 = k0
        self._pull = pull
        self._pts = []      # chart points of the trailing len(_pts) rows

    def __len__(self):
        return len(self._rows)

    def _pull_back(self, m):
        """Make sure the trailing min(m, len) samples are pulled back."""
        total = len(self._rows)
        m = min(m, total)
        have = len(self._pts)
        if m > have:
            new = self._Z[self._rows[total - m:total - have]].tolist()
            if self._pull is not None:
                new = [self._pull(z) for z in new]
            self._pts[:0] = new
        return m

    def last(self, m):
        """(ks, points) of the trailing min(m, len) samples, oldest first."""
        m = self._pull_back(m)
        ks = [self._k0 + i for i in self._rows[len(self._rows) - m:].tolist()]
        return ks, self._pts[len(self._pts) - m:]

    def newest_first(self, step):
        """Every point, newest first, pulled back step samples at a time."""
        for i in range(len(self._rows)):
            if i == len(self._pts):
                self._pull_back(i + step)
            yield self._pts[-1 - i]


def _chart_point(pull, r, z):
    """The stage-r chart coordinates pull(z) of the complex point z, pull
    being compiled_pi_inverse of the stage; raises NonConvergent where one
    of them does not fit in a double."""
    try:
        w = pull(z)
        if all(map(cmath.isfinite, w)):
            return w
    except (OverflowError, ZeroDivisionError):  # x ** p out of range
        pass
    raise NonConvergent("stage %d chart coordinates overflow double "
                        "precision" % r)


def _reference_directions(trace, S):
    src = trace.source
    if src is None or getattr(src, "structure", None) is None:
        return None, "no source germ attached to the trace"
    if src.structure != S:
        return None, "trace source has a different block structure"
    try:
        Q = lifted_quadratic_part(lift(src, S.ell, 2))
        dirs = characteristic_directions(Q, mode="auto", structure=S)
        dirs = [d for d in dirs if d.allowable and not d.span]
    except BlowdynError as e:
        return None, "reference directions unavailable: %s" % e
    if not dirs:
        return None, "no allowable reference direction exists"
    return dirs, None


def _stage_verdict(r, lifted, tol, width):
    """Verdict at stage r >= 1 from the stage-r chart copy of the orbit."""
    if len(lifted) < 3 * width:
        return StageVerdict(r, "inconclusive", None, "too few liftable points")
    ks, ws = lifted.last(REG_WINDOWS * width)
    slope = _log_slope(ks, [max(map(abs, w)) for w in ws])
    if slope is None:
        return StageVerdict(r, "inconclusive", None, "degenerate norm data")
    if slope < -0.2:
        conv, rep, _ = _direction_cauchy(lifted.newest_first(width), tol,
                                         width)
        if conv is None:
            return StageVerdict(r, "inconclusive", None,
                                "not enough points for windows")
        if not conv:
            return StageVerdict(
                r, "not-regular", None,
                "chart copy vanishes but its direction does not settle")
        return StageVerdict(r, "second-kind", rep,
                            "chart copy vanishes with settling direction")
    if slope > 0.2:
        return StageVerdict(
            r, "first-kind", None,
            "chart copy grows: the limit lies outside this chart")
    if abs(slope) <= 0.05:
        wins = _windows(ws, width)      # none, or at least two
        if wins:
            means = [_mean_vec(w) for w in wins]
            scale = max(abs(x) for x in means[-1])
            gap = max(abs(a - b) for a, b in zip(means[-1], means[-2]))
            if scale > 1e-8 and gap / scale < tol:
                return StageVerdict(
                    r, "first-kind", tuple(means[-1]),
                    "chart copy settles away from the chart center")
    return StageVerdict(r, "inconclusive", None,
                        "norm trend is ambiguous (slope %.3f)" % slope)


def regularity_classify(trace, structure, k0=0, tau=None, window=None):
    """Classify an orbit through the regularity hierarchy of the tower.

    Only single-block structures are handled (the tower then has stages
    1..n and the hierarchy tests one chart per stage).  At each stage the
    chart copy must either approach a point away from the chart center
    (first kind, which then persists) or approach the center with
    converging direction (second kind, which sends the test to the next
    stage).  An orbit second-kind through stage n is standard when its
    stage-n direction matches an isolated allowable fixed direction of the
    lifted quadratic part within STANDARD_MATCH_TOL; reference directions
    are taken from the germ attached to the trace.  tau and window
    override DIRECTION_TOL and REG_WINDOW for the windowed verdicts.

    Every verdict is a floating-point test on the end of the trace.  A
    trace whose points are an (N, n) complex array, as the CLI reads a
    CSV, is used as it is; other points are converted to complex floats
    once, into one array.  One array pass finds, per stage, which points
    are liftable (and how many sit on coordinate hyperplanes); only the
    trailing max(REG_WINDOWS * window, FIT_TAIL) liftable samples of a
    stage (and, past zero vectors, the few more the direction test skips)
    are made Python complex numbers and pulled back by the stage's
    compiled_pi_inverse, which computes pi_inverse's floats.
    """
    import numpy as np

    S = structure
    tol = DIRECTION_TOL if tau is None else tau
    width = REG_WINDOW if window is None else window
    if width < 5:
        raise PreconditionViolated("window width must be at least 5")
    if S.rho != 1:
        raise PreconditionViolated(
            "regularity classification is implemented for single-block structures"
        )
    n = S.n
    if trace.n != n:
        raise PreconditionViolated("trace dimension does not match the structure")
    if len(trace) < 3 * width:
        raise InsufficientData(
            "need at least %d points for windowed verdicts" % (3 * width)
        )
    notes = []
    if trace.diverged:
        notes.append("trace truncated by divergence at step %s" % trace.diverged_at)
    pts = trace.points
    if isinstance(pts, np.ndarray) and pts.dtype == complex:
        Z = pts
        base = (Z != 0).any(axis=1)
    else:
        # an mpc too small for a double is nonzero but converts to 0j
        Z = np.array(pts, dtype=complex)
        base = np.fromiter(map(any, pts), bool, len(pts))
    base[:max(0, 1 - k0)] = False       # times k < 1 carry no verdict
    base_rows = np.flatnonzero(base)
    verdicts = []

    def report(classification, standard, **match):
        return RegularityReport(S, tuple(verdicts), classification, standard,
                                notes=tuple(notes), **match)

    frozen_at = None
    for r in range(n + 1):
        if r == 0:
            conv, rep, _ = _direction_cauchy(
                _ChartTail(Z, base_rows, k0).newest_first(width), tol, width)
            if conv is None:
                v = StageVerdict(0, "inconclusive", None,
                                 "not enough nonzero points for windows")
            elif conv:
                v = StageVerdict(0, "second-kind", rep,
                                 "direction of the base orbit converges")
            else:
                v = StageVerdict(0, "not-regular", None,
                                 "direction of the base orbit does not settle")
        elif frozen_at is not None:
            v = StageVerdict(r, "first-kind", None,
                             "inherited from stage %d" % frozen_at)
        else:
            pf = projection_formulas(S, r)
            req = [j - 1 for j in pf.required_nonzero]
            rows = base_rows[(Z[np.ix_(base_rows, req)] != 0).all(axis=1)]
            skipped = len(base_rows) - len(rows)
            if skipped:
                notes.append("stage %d: %d points on coordinate hyperplanes "
                             "skipped" % (r, skipped))
            pull = functools.partial(_chart_point, compiled_pi_inverse(S, r),
                                     r)
            lifted = _ChartTail(Z, rows, k0, pull)
            v = _stage_verdict(r, lifted, tol, width)
            if v.verdict == "first-kind":
                frozen_at = r
        verdicts.append(v)
        if v.verdict in ("first-kind", "second-kind"):
            continue
        # the orbit fails or stays undecided here; later stages are not tested
        failed = v.verdict == "not-regular"
        if failed:
            rest = "fails at stage %d" % r if r else "fails already at stage 0"
        else:
            rest = "undecided at stage %d" % r if r else v.note
        verdicts.extend(StageVerdict(later, v.verdict, None, rest)
                        for later in range(r + 1, n + 1))
        return (report("irregular", False) if failed
                else report("inconclusive", None))

    # every stage decided first or second kind: the orbit is regular
    if frozen_at is not None:
        notes.append("regular of first kind from stage %d on; no direction to "
                     "match against the fixed directions" % frozen_at)
        return report("regular-nonstandard", False)
    # second kind through stage n: lifted is the stage-n chart copy
    v_est = _extrapolated_direction(*lifted.last(FIT_TAIL))
    dirs, why = _reference_directions(trace, S)
    if dirs is None:
        notes.append("standardness not evaluated: %s" % why)
        return report("inconclusive", None)
    best_d = min(dirs, key=lambda d: projective_distance(v_est, d.v))
    best = projective_distance(v_est, best_d.v)
    standard = best < STANDARD_MATCH_TOL
    return report("standard" if standard else "regular-nonstandard", standard,
                  matched_direction=best_d, match_distance=best)


# -- parabolic-curve classification --------------------------------------

@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of the parabolic-curve analysis of a unipotent germ.

    kind is one of generic, planar-nongeneric, early-stage, unresolved.
    curves counts the parabolic curves the analysis certifies (None when
    unresolved); stage is the blow-up stage where the certifying direction
    lives.  directions holds the fixed directions involved, asymptotics
    the closed-form decay table (generic case), invariants the planar
    refined pair when applicable.
    """

    kind: str
    curves: object = None
    stage: object = None
    directions: tuple = ()
    asymptotics: tuple = ()
    invariants: object = None
    reason: str = ""
    notes: tuple = ()


def _unresolved(reason, invariants=None):
    return ClassificationReport(kind="unresolved", reason=reason,
                                invariants=invariants)


def planar_classification(F):
    """Parabolic curves of a planar unipotent germ whose leading quadratic
    coefficient vanishes, decided by the refined invariant pair.

    The pair comes from normalform.invariants_2d, so its checks (dimension
    2, cap >= 3, one unipotent block, no z_1^2 term in the second
    component) and its normal-form cross-check run first.  The report is
    planar-nongeneric with one or two curves, or unresolved when both
    invariants vanish; either way it carries the invariants.
    """
    from .normalform import invariants_2d

    inv = invariants_2d(F)
    eps, eta = inv.epsilon, inv.eta
    if not eps and not eta:
        return _unresolved(
            "both refined invariants vanish; the analysis does not decide "
            "this case", invariants=inv,
        )
    a111 = F.a(1, 1, 1)
    a212 = F.a(2, 1, 2)
    root = gaussian_sqrt(eta)
    notes = []
    if root is not None:
        branches = [root] if not root else [root, -root]
        one, half = QI_ONE, GaussianRational(Fraction(1, 2))
    else:
        rc = cmath.sqrt(complex(eta.to_complex()))
        branches = [rc, -rc]
        a111 = a111.to_complex()
        a212 = a212.to_complex()
        eps = eps.to_complex()
        one, half = 1.0 + 0.0j, 0.5
        notes.append("square root of the second invariant is irrational; "
                     "directions reported in floating point")
    dirs = []
    for s in branches:
        t = (a212 - a111 + s) * half
        lam = (eps + s) * half
        deg = not lam if root is not None else abs(lam) <= DEGENERATE_EPS
        dirs.append(CharDirection(
            v=(one, t), lam=lam, degenerate=deg, mode="closed-form",
            hakim_spectrum=None if deg else ((-2 * s) / (eps + s),),
        ))
    curves = sum(1 for d in dirs if not d.degenerate)
    return ClassificationReport(
        kind="planar-nongeneric", curves=curves, stage=1,
        directions=tuple(_decide_allowable(dirs, F.structure, 1)),
        invariants=inv, notes=tuple(notes),
    )


def parabolic_classification(F):
    """Decide what the blow-up analysis certifies about parabolic curves.

    Requires every block eigenvalue equal to 1.  Branches:
    - generic leading coefficient: one curve, explicit direction and decay;
    - planar nongeneric: the refined invariant pair decides one or two
      curves (or stays silent when both vanish);
    - single block with vanishing leading coefficient: when the previous
      stage's coefficient survives, the tower ends one stage early with a
      diagonalizable linear part and one curve;
    - everything else is reported unresolved, never guessed.
    """
    S = F.structure
    if any(x != QI_ONE for x in S.lam):
        raise UnsupportedSpectrum(
            "classification covers germs with every block eigenvalue equal to 1"
        )
    if S.has_equal_top_blocks():
        return _unresolved(
            "tied leading blocks: no allowable nondegenerate direction exists "
            "at the final stage"
        )
    a = F.leading_quadratic_coefficient()
    if a:
        L = lift(F, S.ell, 2)
        Q = lifted_quadratic_part(L)
        dirs = characteristic_directions(Q, mode="structured", structure=S)
        return ClassificationReport(
            kind="generic", curves=1, stage=S.ell,
            directions=tuple(dirs), asymptotics=expected_asymptotics(F),
            notes=("one parabolic curve tangent to the first axis",),
        )
    if S.n == 2:
        if F.map.cap < 3:
            raise PreconditionViolated(
                "planar nongeneric classification needs cubic terms (cap >= 3)"
            )
        return planar_classification(F)
    if S.rho == 1:
        b = F.a(S.mu[0] - 1, 1, 1)
        if b:
            stage = S.mu[0] - 1
            M, _ = lifted_linear_part(lift(F, stage, 2))
            if not is_diagonalizable(M):
                raise BlowdynError(
                    "stage %d linear part unexpectedly non-diagonalizable" % stage
                )
            return ClassificationReport(
                kind="early-stage", curves=1, stage=stage,
                notes=("the stage-%d lift already has diagonalizable linear "
                       "part; one parabolic curve arises there" % stage,),
            )
        return _unresolved(
            "leading quadratic coefficients at the last two stages both vanish"
        )
    return _unresolved(
        "leading quadratic coefficient vanishes (several blocks, untied tops)"
    )
