"""regularity_classify reads only the end of a trace; these tests pin it to
a whole-trace reference.

_reference_classify below is the whole-trace algorithm on Python
numbers: it converts and pulls back every point of the trace at every
stage, and its windows and fits slice the trailing samples out of the full
lists.  A chart point that overflows raises only where a verdict reads it.
The library must give the same report, float for float, on every trace
here.  The steps the library computes differently (the compiled pull-back,
the representatives, window means and moduli on arrays, and the array
form of a trace) are pinned to their plain forms the same way; the
scatter and the norm slope, which feed only threshold tests, are pinned
to a tolerance.
"""

import cmath
import math
import random

import numpy as np
import pytest

from blowdyn import dynamics as dyn
from blowdyn.blowup import compiled_pi_inverse, pi_inverse, projection_formulas
from blowdyn.errors import (
    InsufficientData,
    NonConvergent,
    PreconditionViolated,
    ZeroCoordinate,
)
from blowdyn.partition import build_structure
from blowdyn.scalars import GaussianRational as G

from conftest import fatou_germ

S2 = build_structure((2,), (G(1),))


# -- the whole-trace reference ---------------------------------------------

def _ref_windows(seq, width, maxwin=6):
    total = len(seq) // width
    use = min(total, maxwin)
    if use < 2:
        return []
    out = []
    for t in range(use, 0, -1):
        hi = len(seq) - (t - 1) * width
        out.append(seq[hi - width:hi])
    return out


def _mean_vec(vecs):
    return tuple(sum(col) / len(vecs) for col in zip(*vecs))


def _ref_direction_cauchy(points, tol, width):
    reps = []
    for w in points:
        vals = [complex(x) for x in w]
        if max(abs(x) for x in vals) == 0.0:
            continue
        reps.append(dyn._rep(vals)[0])
    wins = _ref_windows(reps, width)
    if not wins:
        return None, None, ()
    means = [_mean_vec(w) for w in wins]
    dists = tuple(dyn.projective_distance(means[t], means[t + 1])
                  for t in range(len(means) - 1))
    scatter = max(dyn.projective_distance(r, means[-1]) for r in wins[-1])
    rep, _ = dyn._rep(means[-1])
    converged = dists[-1] < tol and scatter < dyn.DIRECTION_SCATTER_TOL
    return converged, rep, dists


def _ref_extrapolated_direction(ks, ws):
    tail = min(len(ws), 1000)
    ks = ks[-tail:]
    ws = [[complex(x) for x in w] for w in ws[-tail:]]
    meanrep = _mean_vec([dyn._rep(w)[0] for w in ws[-dyn.REG_WINDOW:]])
    i0 = dyn._argmax_abs(meanrep)
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


def _read(lifted, r):
    """The (k, chart point) pairs of lifted, a verdict's read; a point
    that overflowed raises as the library's pull-back does."""
    if any(w is None for _, w in lifted):
        raise NonConvergent("stage %d chart coordinates overflow double "
                            "precision" % r)
    return lifted


def _ref_newest_nonzero(lifted, need, r):
    """The chart points the direction test reads: newest first back to the
    need-th nonzero one, returned oldest first."""
    out, count = [], 0
    for pair in reversed(lifted):
        _read([pair], r)
        out.append(pair[1])
        count += any(pair[1])
        if count == need:
            break
    return out[::-1]


def _reference_classify(trace, S, k0=0, tau=None, window=None):
    Verdict, Report = dyn.StageVerdict, dyn.RegularityReport
    tol = dyn.DIRECTION_TOL if tau is None else tau
    width = dyn.REG_WINDOW if window is None else window
    if width < 5:
        raise PreconditionViolated("window width must be at least 5")
    n = S.n
    if len(trace) < 3 * width:
        raise InsufficientData("too short")
    notes = []
    if trace.diverged:
        notes.append("trace truncated by divergence at step %s"
                     % trace.diverged_at)
    base = []
    for i, z in enumerate(trace.points):
        k = k0 + i
        if k < 1 or not any(z):
            continue
        base.append((k, tuple(map(complex, z))))
    verdicts = []

    def fill_rest(from_stage, verdict, note):
        for r in range(from_stage, n + 1):
            verdicts.append(Verdict(r, verdict, None, note))

    def stop(classification, standard):
        return Report(S, tuple(verdicts), classification, standard,
                      notes=tuple(notes))

    conv, rep0, _ = _ref_direction_cauchy([z for _, z in base], tol, width)
    if conv is None:
        fill_rest(0, "inconclusive", "not enough nonzero points for windows")
        return stop("inconclusive", None)
    if not conv:
        verdicts.append(Verdict(0, "not-regular", None,
                                "direction of the base orbit does not settle"))
        fill_rest(1, "not-regular", "fails already at stage 0")
        return stop("irregular", False)
    verdicts.append(Verdict(0, "second-kind", rep0,
                            "direction of the base orbit converges"))
    frozen_at = None
    last_lifted = None
    for r in range(1, n + 1):
        if frozen_at is not None:
            verdicts.append(Verdict(r, "first-kind", None,
                                    "inherited from stage %d" % frozen_at))
            continue
        lifted = []
        skipped = 0
        for k, z in base:
            try:
                w = _reference_chart_point(S, r, z)
            except ZeroCoordinate:
                skipped += 1
                continue
            except NonConvergent:
                w = None            # raises in _read if a verdict reads it
            lifted.append((k, w))
        if skipped:
            notes.append("stage %d: %d points on coordinate hyperplanes "
                         "skipped" % (r, skipped))
        if len(lifted) < 3 * width:
            verdicts.append(Verdict(r, "inconclusive", None,
                                    "too few liftable points"))
            fill_rest(r + 1, "inconclusive", "undecided at stage %d" % r)
            return stop("inconclusive", None)
        read = _read(lifted[-6 * width:], r)
        slope = dyn._log_slope(
            [k for k, _ in read],
            [max(float(abs(complex(x))) for x in w) for _, w in read])
        if slope is None:
            verdicts.append(Verdict(r, "inconclusive", None,
                                    "degenerate norm data"))
            fill_rest(r + 1, "inconclusive", "undecided at stage %d" % r)
            return stop("inconclusive", None)
        if slope < -0.2:
            conv, rep, _ = _ref_direction_cauchy(
                _ref_newest_nonzero(lifted, 6 * width, r), tol, width)
            if conv is None:
                verdicts.append(Verdict(r, "inconclusive", None,
                                        "not enough points for windows"))
                fill_rest(r + 1, "inconclusive", "undecided at stage %d" % r)
                return stop("inconclusive", None)
            if not conv:
                verdicts.append(Verdict(
                    r, "not-regular", None,
                    "chart copy vanishes but its direction does not settle"))
                fill_rest(r + 1, "not-regular", "fails at stage %d" % r)
                return stop("irregular", False)
            verdicts.append(Verdict(r, "second-kind", rep,
                                    "chart copy vanishes with settling "
                                    "direction"))
            last_lifted = lifted
            continue
        if slope > 0.2:
            verdicts.append(Verdict(
                r, "first-kind", None,
                "chart copy grows: the limit lies outside this chart"))
            frozen_at = r
            continue
        if abs(slope) <= 0.05:
            vecs = [[complex(x) for x in w] for _, w in read]
            wins = _ref_windows(vecs, width)
            if wins:
                means = [_mean_vec(w) for w in wins]
                scale = max(abs(x) for x in means[-1])
                gap = max(abs(a - b) for a, b in zip(means[-1], means[-2]))
                if scale > 1e-8 and gap / scale < tol:
                    verdicts.append(Verdict(
                        r, "first-kind", tuple(means[-1]),
                        "chart copy settles away from the chart center"))
                    frozen_at = r
                    continue
        verdicts.append(Verdict(r, "inconclusive", None,
                                "norm trend is ambiguous (slope %.3f)"
                                % slope))
        fill_rest(r + 1, "inconclusive", "undecided at stage %d" % r)
        return stop("inconclusive", None)

    if verdicts[n].verdict != "second-kind":
        notes.append("regular of first kind from stage %d on; no direction "
                     "to match against the fixed directions" % frozen_at)
        return stop("regular-nonstandard", False)
    read = _read(last_lifted[-1000:], n)
    v_est = _ref_extrapolated_direction([k for k, _ in read],
                                        [w for _, w in read])
    dirs, why = dyn._reference_directions(trace, S)
    if dirs is None:
        notes.append("standardness not evaluated: %s" % why)
        return stop("inconclusive", None)
    best = best_d = None
    for d in dirs:
        dist = dyn.projective_distance(v_est, d.v)
        if best is None or dist < best:
            best, best_d = dist, d
    label = "standard" if best < dyn.STANDARD_MATCH_TOL else \
        "regular-nonstandard"
    return Report(S, tuple(verdicts), label, label == "standard",
                  matched_direction=best_d, match_distance=best,
                  notes=tuple(notes))


def assert_same_report(trace, k0, window):
    got = dyn.regularity_classify(trace, S2, k0=k0, window=window)
    want = _reference_classify(trace, S2, k0=k0, window=window)
    assert got == want
    # repr spells every float exactly, so this is bit equality
    assert repr(got) == repr(want)
    return got


# -- traces ----------------------------------------------------------------

def _trace(pts, source=None):
    return dyn.OrbitTrace(points=tuple(pts), precision_bits=53, source=source)


def power_law(count=2000):
    return [(2.0 / k ** 2 + 0j, 3.0 / k ** 3 + 0j)
            for k in range(1, count + 1)]


def oscillating():
    return [((1.0 if k % 2 == 0 else 0.1) / k + 0j, 1.0 / k + 0j)
            for k in range(1, 1201)]


def first_kind():
    return [(1.0 / k + 0j, 1.0 / k + 1.0 / k ** 2 + 0j)
            for k in range(1, 1201)]


def on_hyperplanes(width):
    """A power law with points on z1 = 0 (unliftable at both stages) and at
    the origin (no verdict at all), early in the trace and among the
    samples the verdicts read, and early points on z2 = 0 (unliftable at
    stage 2 only).  The late z1 = 0 points sit in the third and fourth
    windows from the end: in the last two they would be outliers of the
    base direction and stop the classification at stage 0."""
    pts = power_law(1500)
    for i in (3, 40, 41, 700, 1499 - 3 * width, 1499 - 4 * width + 1):
        pts[i] = (0j, pts[i][1])
    for i in (90, 95):
        pts[i] = (pts[i][0], 0j)
    for i in (500, 1499 - 1, 1499 - 77):
        pts[i] = (0j, 0j)
    return pts


def kinked(width, count=1200):
    """Base direction fixed at [1 : 1e-4]; the stage-1 norm falls as
    k^-0.25 up to the last 5 windows and as k^-0.1 within them, so the
    fitted slope is ambiguous and depends on how many windows it reads."""
    kb = count - 5 * width
    pts = []
    for k in range(1, count + 1):
        if k <= kb:
            f = 0.5 * k ** -0.25
        else:
            f = 0.5 * kb ** -0.25 * (k / kb) ** -0.1
        pts.append((f + 0j, 1e-4 * f + 0j))
    return pts


def sparse():
    """Nonzero at k = 1..8 only: too few for two windows at stage 0."""
    return [(1.0 / k + 0j, 1.0 / k ** 2 + 0j) if k <= 8 else (0j, 0j)
            for k in range(1, 201)]


def on_second_axis():
    """Direction [0 : 1]: the base direction settles, but no point has
    z1 != 0, so none lifts to stage 1."""
    return [(0j, 1.0 / k + 0j) for k in range(1, 1201)]


def fixed_direction():
    """Direction [1 : 1e-3] at every point; run at times near 2^62, where
    every log k rounds to one double, so the stage-1 log-log fit has zero
    variance."""
    return [(1.0 / i + 0j, 1e-3 / i + 0j) for i in range(1, 401)]


def unsettled():
    """The stage-1 chart copy (1/k, 2/k or 2i/k) vanishes as 1/k, but its
    direction alternates between [1 : 2] and [1 : 2i]."""
    return [(1.0 / k + 0j, (2.0 if k % 2 == 0 else 2.0j) / k ** 2)
            for k in range(1, 1201)]


def growing():
    """The stage-1 chart copy (1/k, k^0.5) grows."""
    return [(1.0 / k + 0j, k ** -0.5 + 0j) for k in range(1, 1201)]


def signed_zeros(width, count=1200, overflow_read=False):
    """z = (i/k, i(1/k + 1/k^2)) with every real part -0.0, so the base
    direction settles at [1 : 1], through the division branch by Im, and
    the stage-1 chart copy (z1, z2/z1) settles off its center, with
    windows whose entries all have Re z1 = -0.0.  Zero rows (of +0.0 and
    -0.0 parts) sit inside the last six windows.  The point just before
    the newest 6 * width nonzero ones has z1 = 1e-320 i, whose stage-1
    chart point overflows; no verdict reads it, unless overflow_read
    moves it one point later."""
    pts = [(complex(-0.0, 1.0 / k), complex(-0.0, 1.0 / k + 1.0 / k ** 2))
           for k in range(1, count + 1)]
    for i in (count - 2, count - 4 - width, count - 1 - 4 * width):
        pts[i] = (complex(-0.0, -0.0), 0j)
    nonzero = [i for i, z in enumerate(pts) if any(z)]
    i = nonzero[-6 * width - (0 if overflow_read else 1)]
    pts[i] = (complex(-0.0, 1e-320), pts[i][1])
    return pts


@pytest.fixture(scope="module")
def refined_trace():
    F = fatou_germ()
    seed = dyn.standard_orbit_seed(F, k0=50, settle=6000, precision_bits=128)
    return dyn.orbit_iterate(F, seed, 2500, precision_bits=128)


# -- tail-only classification equals the whole-trace reference ------------

@pytest.mark.parametrize("window", [None, 5, 40, 100])
def test_tail_matches_reference_on_refined_orbit(refined_trace, window):
    rep = assert_same_report(refined_trace, 50, window)
    if window is None:
        assert rep.classification == "standard"


@pytest.mark.parametrize("window", [5, 40, 50, 100, 400])
def test_tail_matches_reference_on_power_law(window):
    # at width 400 the stage tails (6 windows) cover the whole trace
    assert_same_report(_trace(power_law()), 1, window)


@pytest.mark.parametrize("make", [oscillating, first_kind])
@pytest.mark.parametrize("window", [5, 40, 50, 100])
def test_tail_matches_reference_on_synthetic_traces(make, window):
    assert_same_report(_trace(make()), 1, window)


@pytest.mark.parametrize("window", [5, 40, 50, 100])
def test_tail_matches_reference_with_hyperplane_points(window):
    rep = assert_same_report(_trace(on_hyperplanes(window)), -4, window)
    # 5 z1 = 0 points at both stages (the one at k = -1 has no verdict),
    # plus 2 z2 = 0 points at stage 2; the origin never counts
    assert [v.verdict for v in rep.verdicts] == ["second-kind"] * 3
    assert rep.notes[:2] == (
        "stage 1: 5 points on coordinate hyperplanes skipped",
        "stage 2: 7 points on coordinate hyperplanes skipped",
    )


@pytest.mark.parametrize("window", [5, 40, 50, 100])
def test_slope_reads_six_windows(window):
    rep = assert_same_report(_trace(kinked(window)), 1, window)
    assert rep.verdicts[1].verdict == "inconclusive"
    assert rep.verdicts[1].note.startswith("norm trend is ambiguous")


@pytest.mark.parametrize("window", [5, 40, 50, 100])
def test_tail_matches_reference_with_signed_zeros(window):
    rep = assert_same_report(_trace(signed_zeros(window)), 1, window)
    assert [v.verdict for v in rep.verdicts] == [
        "second-kind", "first-kind", "first-kind"]
    # every window entry has Re z1 = -0.0; the sum from 0 makes it 0.0
    assert repr(rep.verdicts[1].limit[0].real) == "0.0"


@pytest.mark.parametrize("window", [5, 50])
def test_overflow_raises_once_a_verdict_reads_it(window):
    pts = signed_zeros(window, overflow_read=True)
    for classify in (dyn.regularity_classify, _reference_classify):
        with pytest.raises(NonConvergent, match="stage 1 chart coordinates"):
            classify(_trace(pts), S2, k0=1, window=window)


def test_times_beyond_the_int64_range():
    # every time rounds to the double 2^64, so every log k is equal
    rep = assert_same_report(_trace(power_law(600)), 2 ** 64, 50)
    assert rep.verdicts[1].note == "degenerate norm data"


def test_direction_test_walks_back_past_zero_vectors():
    # the newest 400 chart points are zero but for every fifth, so the
    # direction test must pull back beyond its six windows: 120 nonzero
    # points are the 80 among the newest 400 and the 40 before them, and
    # they are pulled back 20 at a time
    width = 20
    count = 1000
    Z = np.array([(1.0 / k + 0.5j / k ** 2, 1.0 / k ** 1.5 + 0j)
                  for k in range(1, count + 1)])

    def pull_one(z):
        k = round(1.0 / z[0].real)
        return [0j, 0j] if k > count - 400 and k % 5 else z

    def pull(points):
        return np.array([pull_one(z) for z in points], complex)

    want = _ref_direction_cauchy([pull_one(z) for z in Z.tolist()],
                                 dyn.DIRECTION_TOL, width)
    tail = dyn._ChartTail(Z, np.arange(count), 1, pull)
    got = dyn._direction_cauchy(tail, dyn.DIRECTION_TOL, width)
    assert repr(got) == repr(want)
    assert len(got[2]) == 5
    assert len(tail._W) == 440


def test_tail_pulls_back_only_what_the_verdicts_read():
    calls = []

    def pull(points):
        calls.extend(points)
        return np.array(points, complex)

    Z = np.array(power_law(3000))
    tail = dyn._ChartTail(Z, np.arange(3000), 1, pull)
    ks, W = tail.last(300)
    assert ks.tolist() == list(range(2701, 3001))
    assert W.tolist() == Z[2700:].tolist()
    # the pull-back sees Python complex numbers, so its floats are CPython's
    assert all(type(x) is complex for z in calls for x in z)
    assert len(calls) == 300
    tail.last(250)
    tail.nonzero_last(300, 50)
    assert len(calls) == 300
    ks, _ = tail.last(1000)
    assert ks[0] == 2001 and len(calls) == 1000
    assert len(tail) == 3000


# Each trace ends the classification at a different exit; the notes of the
# verdicts from the first undecided or failing stage on are pinned, so an
# exit that stops filling the later stages as before fails here.  The
# dicts are keyword arguments of the trace: the power law's stage-2
# direction is far from the planar example's [3 : 2].
EXITS = [
    ("stage-0-windows", sparse, 1, {}, "inconclusive",
     ["not enough nonzero points for windows"] * 3),
    ("no-nonzero-point", lambda: [(0j, complex(-0.0, 0.0))] * 200, 1, {},
     "inconclusive", ["not enough nonzero points for windows"] * 3),
    ("too-few-liftable", on_second_axis, 1, {}, "inconclusive",
     ["direction of the base orbit converges", "too few liftable points",
      "undecided at stage 1"]),
    ("degenerate-norms", fixed_direction, 2 ** 62 - 2 ** 20, {},
     "inconclusive",
     ["direction of the base orbit converges", "degenerate norm data",
      "undecided at stage 1"]),
    ("unsettled-chart-direction", unsettled, 1, {}, "irregular",
     ["direction of the base orbit converges",
      "chart copy vanishes but its direction does not settle",
      "fails at stage 1"]),
    ("chart-copy-grows", growing, 1, {}, "regular-nonstandard",
     ["direction of the base orbit converges",
      "chart copy grows: the limit lies outside this chart",
      "inherited from stage 1"]),
    ("matched-nonstandard", power_law, 1, {"source": fatou_germ()},
     "regular-nonstandard", None),
]


@pytest.mark.parametrize("window", [None, 5])
@pytest.mark.parametrize("name,make,k0,kwargs,label,notes", EXITS,
                         ids=[e[0] for e in EXITS])
def test_every_exit_matches_reference(name, make, k0, kwargs, label, notes,
                                      window):
    trace = _trace(make(), **kwargs)
    got = dyn.regularity_classify(trace, S2, k0=k0, window=window)
    want = _reference_classify(trace, S2, k0=k0, window=window)
    assert got == want and repr(got) == repr(want)
    assert got.classification == label
    if notes is not None:
        assert [v.note for v in got.verdicts] == notes
    else:
        assert got.matched_direction.v == (G(3), G(2))
        assert got.match_distance > dyn.STANDARD_MATCH_TOL
        assert [v.verdict for v in got.verdicts] == ["second-kind"] * 3


@pytest.mark.parametrize("window", [None, 5])
def test_divergence_note_leads_the_notes(window):
    trace = dyn.OrbitTrace(points=tuple(growing()), precision_bits=53,
                           diverged=True, diverged_at=1201)
    got = dyn.regularity_classify(trace, S2, k0=1, window=window)
    want = _reference_classify(trace, S2, k0=1, window=window)
    assert got == want and repr(got) == repr(want)
    assert got.notes[0] == "trace truncated by divergence at step 1201"


# -- the compiled steps equal their plain forms ------------------------------

def _reference_chart_point(S, r, z):
    """The stage-r chart point as pi_inverse gives it, with _chart_points's
    overflow rule."""
    try:
        w = pi_inverse(S, r, z)
        if all(map(cmath.isfinite, w)):
            return w
    except (OverflowError, ZeroDivisionError):
        pass
    raise NonConvergent("stage %d chart coordinates overflow double "
                        "precision" % r)


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except NonConvergent as e:
        return "NonConvergent: %s" % e


def _random_part(rng):
    """A double of any sign and size, now and then a signed zero."""
    u = rng.random()
    if u < 0.1:
        return rng.choice((0.0, -0.0))
    mag = 10.0 ** rng.uniform(-320, 308) if u < 0.4 else \
        10.0 ** rng.uniform(-3, 3)
    return mag if rng.random() < 0.5 else -mag


def _random_point(rng, n, required):
    pts = []
    for j in range(1, n + 1):
        while True:
            z = complex(_random_part(rng), _random_part(rng))
            if z or j not in required:
                break
        pts.append(z)
    return pts


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_compiled_pull_back_equals_pi_inverse(n):
    S = build_structure((n,), (G(1),))
    rng = random.Random(n)
    overflows = 0
    for r in range(1, S.ell + 1):
        pull = compiled_pi_inverse(S, r)
        assert compiled_pi_inverse(S, r) is pull        # compiled once
        required = projection_formulas(S, r).required_nonzero
        for _ in range(2000):
            z = _random_point(rng, n, required)
            got = _outcome(
                lambda z: dyn._chart_points(pull, r, [z])[0].tolist(), z)
            assert got == _outcome(_reference_chart_point, S, r, z), (r, z)
            overflows += got.startswith("NonConvergent")
    assert overflows > 100


def _reference_projective_distance(a, b):
    """projective_distance written out in one function, each vector
    normalised where it is used."""
    za = [complex(x) for x in a]
    zb = [complex(x) for x in b]
    assert len(za) == len(zb)
    na = math.sqrt(sum(abs(x) ** 2 for x in za))
    nb = math.sqrt(sum(abs(x) ** 2 for x in zb))
    if na == 0.0 or nb == 0.0:
        raise PreconditionViolated("zero vector has no projective class")
    za = [x / na for x in za]
    zb = [x / nb for x in zb]
    inner = sum(x * y.conjugate() for x, y in zip(za, zb))
    if inner == 0:
        return math.sqrt(2.0)
    phase = inner / abs(inner)
    return math.sqrt(sum(abs(x - phase * y) ** 2 for x, y in zip(za, zb)))


def test_scatter_equals_projective_distances():
    # the scatter feeds only a threshold test, so numpy's arithmetic need
    # only agree to rounding
    rng = random.Random(5)
    for n in (2, 3, 5):
        for _ in range(300):
            scale = 10.0 ** rng.uniform(-150, 150)
            center = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) * scale
                      for _ in range(n)]
            vecs = [[x * complex(1 + rng.gauss(0, 1e-3), rng.gauss(0, 1e-3))
                     for x in center] for _ in range(rng.randint(1, 20))]
            vecs.append(center)
            vecs.append([complex(rng.gauss(0, 1), 0.0) for _ in range(n)])
            vecs.append([1j] + [0j] * (n - 1))
            want = [_reference_projective_distance(v, center) for v in vecs]
            got = [dyn.projective_distance(v, center) for v in vecs]
            assert repr(got) == repr(want)
            for v, d in zip(vecs, want):
                assert abs(dyn._scatter(np.array([v]), center) - d) < 1e-14
            assert abs(dyn._scatter(np.array(vecs), center)
                       - max(want)) < 1e-14
    assert dyn._scatter(np.array([(1.0, 0j)]), (0j, 1.0)) == math.sqrt(2.0)
    with pytest.raises(PreconditionViolated, match="no projective class"):
        dyn._scatter(np.array([(1j, 1.0)]), (0j, 0j))


def _tied_vectors(rng, count, n):
    """Vectors whose largest moduli often tie, with zero vectors and
    signed zeros among them."""
    units = (1.0, -1.0, 1j, -1j, complex(0.6, 0.8), complex(-0.0, -1.0))
    out = []
    for _ in range(count):
        u = rng.random()
        if u < 0.05:
            out.append([0j] * n)
        elif u < 0.6:
            top = 2.0 ** rng.randint(-60, 60)
            out.append([rng.choice(units) * top if rng.random() < 0.6
                        else complex(rng.uniform(-1, 1), 0.0) * top
                        for _ in range(n)])
        else:
            out.append([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                        for _ in range(n)])
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_pass_representatives_equal_rep(n):
    rng = random.Random(10 + n)
    for width in (5, 7, 20):
        vecs = _tied_vectors(rng, 8 * width, n)
        nonzero = [list(map(complex, v)) for v in vecs if any(v)]
        assert repr(dyn._representatives(np.array(nonzero)).tolist()) == \
            repr([list(dyn._rep(v)[0]) for v in nonzero])
        tail = dyn._ChartTail(np.array(vecs), np.arange(len(vecs)), 1)
        got = dyn._direction_cauchy(tail, 0.5, width)
        want = _ref_direction_cauchy(vecs, 0.5, width)
        assert repr(got) == repr(want)
    with pytest.raises(ZeroDivisionError):
        dyn._representatives(np.array([[1j] * n, [0j] * n]))


ARRAY_CASES = [
    ("power-law", lambda w: power_law(), 1, {}),
    ("oscillating", lambda w: oscillating(), 1, {}),
    ("first-kind", lambda w: first_kind(), 1, {}),
    ("hyperplanes", on_hyperplanes, -4, {}),
    ("kinked", kinked, 1, {}),
    ("signed-zeros", signed_zeros, 1, {}),
] + [(name, lambda w, make=make: make(), k0, kwargs)
     for name, make, k0, kwargs, _, _ in EXITS]


@pytest.mark.parametrize("window", [5, 40, 50])
@pytest.mark.parametrize("name,make,k0,kwargs", ARRAY_CASES,
                         ids=[c[0] for c in ARRAY_CASES])
def test_array_trace_gives_the_tuple_trace_report(name, make, k0, kwargs,
                                                  window):
    pts = make(window)
    array = dyn.OrbitTrace(points=np.array(pts, dtype=complex),
                           precision_bits=53, diverged=True, diverged_at=9,
                           **kwargs)
    assert isinstance(array.points, np.ndarray)
    assert array.n == 2 and len(array) == len(pts)
    tuples = dyn.OrbitTrace(points=tuple(pts), precision_bits=53,
                            diverged=True, diverged_at=9, **kwargs)
    got = dyn.regularity_classify(array, S2, k0=k0, window=window)
    want = dyn.regularity_classify(tuples, S2, k0=k0, window=window)
    assert repr(got) == repr(want)


def test_array_trace_of_refined_orbit(refined_trace):
    array = dyn.OrbitTrace(
        points=np.array(refined_trace.points, dtype=complex),
        precision_bits=53, source=refined_trace.source)
    got = dyn.regularity_classify(array, S2, k0=50)
    assert got.classification == "standard"
    assert repr(got) == repr(dyn.regularity_classify(refined_trace, S2,
                                                     k0=50))


# -- the array arithmetic is CPython's ----------------------------------------

TINY = (5e-324, 1e-310, 2.2250738585072014e-308)   # subnormal to least normal
HUGE = 1.7976931348623157e308


def _edge_part(rng):
    """A double that is now and then a signed zero, subnormal or within a
    factor ten of overflow, otherwise Gaussian."""
    u = rng.random()
    sign = rng.choice((1.0, -1.0))
    if u < 0.15:
        return sign * 0.0
    if u < 0.3:
        return sign * rng.choice(TINY) * rng.uniform(1, 100)
    if u < 0.45:
        return sign * HUGE * rng.uniform(0.1, 1)
    return rng.gauss(0, 1)


def _edge_complex(rng):
    return complex(_edge_part(rng), _edge_part(rng))


def test_array_division_is_cpythons():
    rng = random.Random(30)
    a, b = [], []
    while len(a) < 20000:
        x, y = _edge_complex(rng), _edge_complex(rng)
        if rng.random() < 0.2:          # equal moduli: a tie divides by Re
            t = abs(y.real) or 1.0
            y = complex(rng.choice((t, -t)), rng.choice((t, -t)))
        if y:
            a.append(x)
            b.append(y)
    by_re = sum(abs(y.real) >= abs(y.imag) for y in b)
    assert 5000 < by_re < 15000
    want = repr([x / y for x, y in zip(a, b)])
    assert repr(dyn._quotient(np.array(a), np.array(b)).tolist()) == want
    # one divisor per row, as the representatives divide by their pivots
    A = np.array(a).reshape(-1, 4)
    B = np.array(b[::4])
    assert repr(dyn._quotient(A, B[:, None]).tolist()) == \
        repr([[x / y for x in row] for row, y in zip(A.tolist(), b[::4])])
    # only one branch taken, either way
    for pick in (lambda y: abs(y.real) >= abs(y.imag),
                 lambda y: abs(y.real) < abs(y.imag)):
        pairs = [(x, y) for x, y in zip(a, b) if pick(y)]
        got = dyn._quotient(np.array([x for x, _ in pairs]),
                            np.array([y for _, y in pairs]))
        assert repr(got.tolist()) == repr([x / y for x, y in pairs])


def test_window_mean_is_cpythons():
    rng = random.Random(31)
    for _ in range(500):
        length, n = rng.randint(1, 60), rng.randint(1, 4)
        rows = [[_edge_complex(rng) for _ in range(n)] for _ in range(length)]
        u = rng.random()
        if u < 0.3:                     # a column of -0.0 parts only
            j = rng.randrange(n)
            for row in rows:
                row[j] = complex(-0.0, rng.choice((-0.0, row[j].imag)))
        elif u < 0.5:                   # -0.0 in the window's first entry
            rows[0] = [complex(-0.0, -0.0)] * n
        elif u < 0.7:                   # Gaussian values only
            rows = [[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                     for _ in range(n)] for _ in range(length)]
        want = [sum(col) / len(col) for col in zip(*rows)]
        got = dyn._means(np.array(rows, complex)).tolist()
        assert repr(got) == repr(want)
    assert repr(dyn._means(np.array([[complex(-0.0, -0.0)]])).tolist()) == \
        repr([sum([complex(-0.0, -0.0)]) / 1]) == "[0j]"


@pytest.mark.parametrize("width", [5, 7, 50])
def test_window_means_are_the_trailing_windows(width):
    rng = random.Random(width)
    for count in (width, 2 * width, 3 * width + 2, 8 * width - 1):
        rows = [[_edge_complex(rng) for _ in range(3)] for _ in range(count)]
        want = [list(_mean_vec(w)) for w in _ref_windows(rows, width)]
        got = dyn._window_means(np.array(rows, complex), width)
        assert repr(want) == repr([] if got is None else got.tolist())


def test_norm_slope_equals_log_slope():
    # numpy's sums and logs, against _log_slope's, to rounding
    rng = random.Random(33)
    for _ in range(300):
        count = rng.randint(5, 400)
        k0 = rng.choice((1, 50, 10 ** 6, 2 ** 62 - 2 ** 20))
        ks = list(range(k0, k0 + count))
        p = rng.uniform(-3, 3)
        norms = [rng.choice((0.0, 1.0)) if rng.random() < 0.05
                 else k ** p * rng.uniform(0.5, 2) for k in ks]
        want = dyn._log_slope(ks, norms)
        got = dyn._norm_slope(np.array(ks), np.array(norms))
        if want is None:
            assert got is None
        else:
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_moduli_are_cpythons_abs():
    rng = random.Random(32)
    vals = [_edge_complex(rng) for _ in range(20000)]
    finite = []
    for z in vals:
        try:
            finite.append((z, abs(z)))
        except OverflowError:
            with pytest.raises(OverflowError, match="absolute value too large"):
                dyn._moduli(np.array([z]))
    assert len(finite) < len(vals)
    got = dyn._moduli(np.array([z for z, _ in finite]))
    assert repr(got.tolist()) == repr([m for _, m in finite])
    inf = float("inf")
    assert dyn._moduli(np.array([complex(inf, 1.0)])).tolist() == [inf]
