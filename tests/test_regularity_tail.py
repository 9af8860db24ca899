"""regularity_classify reads only the end of a trace; these tests pin it to
a whole-trace reference.

_reference_classify below is the whole-trace algorithm: it converts and
pulls back every point of the trace at every stage, and its windows and
fits slice the trailing samples out of the full lists.  The library must
give the same report, float for float, on every trace here.
"""

import numpy as np
import pytest

from blowdyn import dynamics as dyn
from blowdyn.blowup import pi_inverse, projection_formulas
from blowdyn.errors import (
    InsufficientData,
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
    means = [dyn._mean_vec(w) for w in wins]
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
    meanrep = dyn._mean_vec([dyn._rep(w)[0] for w in ws[-dyn.REG_WINDOW:]])
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


def _reference_classify(trace, S, k0=0, directions=None, tau=None,
                        window=None):
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
        pf = projection_formulas(S, r)
        lifted = []
        skipped = 0
        for k, z in base:
            try:
                w = pi_inverse(S, r, z, formulas=pf)
            except ZeroCoordinate:
                skipped += 1
                continue
            lifted.append((k, w))
        if skipped:
            notes.append("stage %d: %d points on coordinate hyperplanes "
                         "skipped" % (r, skipped))
        if len(lifted) < 3 * width:
            verdicts.append(Verdict(r, "inconclusive", None,
                                    "too few liftable points"))
            fill_rest(r + 1, "inconclusive", "undecided at stage %d" % r)
            return stop("inconclusive", None)
        ks = [k for k, _ in lifted]
        norms = [max(float(abs(complex(x))) for x in w) for _, w in lifted]
        tail = min(len(lifted), 6 * width)
        slope = dyn._log_slope(ks[-tail:], norms[-tail:])
        if slope is None:
            verdicts.append(Verdict(r, "inconclusive", None,
                                    "degenerate norm data"))
            fill_rest(r + 1, "inconclusive", "undecided at stage %d" % r)
            return stop("inconclusive", None)
        if slope < -0.2:
            conv, rep, _ = _ref_direction_cauchy([w for _, w in lifted], tol,
                                                 width)
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
            vecs = [[complex(x) for x in w] for _, w in lifted]
            wins = _ref_windows(vecs, width)
            if wins:
                means = [dyn._mean_vec(w) for w in wins]
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
    v_est = _ref_extrapolated_direction([k for k, _ in last_lifted],
                                        [w for _, w in last_lifted])
    dirs = directions
    if dirs is None:
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

def _trace(pts):
    return dyn.OrbitTrace(points=tuple(pts), precision_bits=53)


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


def test_direction_test_walks_back_past_zero_vectors():
    # the newest 400 chart points are zero but for every fifth, so the
    # direction test must pull back far beyond its six windows
    width = 20
    count = 1000
    Z = np.array([(1.0 / k + 0.5j / k ** 2, 1.0 / k ** 1.5 + 0j)
                  for k in range(1, count + 1)])

    def pull(z):
        k = round(1.0 / z[0].real)
        return [0j, 0j] if k > count - 400 and k % 5 else z

    want = _ref_direction_cauchy([pull(z) for z in Z.tolist()],
                                 dyn.DIRECTION_TOL, width)
    tail = dyn._ChartTail(Z, np.arange(count), 1, pull)
    got = dyn._direction_cauchy(tail.newest_first(width), dyn.DIRECTION_TOL,
                                width)
    assert repr(got) == repr(want)
    assert len(got[2]) == 5
    assert len(tail._pts) < count


def test_tail_pulls_back_only_what_the_verdicts_read():
    calls = []

    def pull(z):
        calls.append(z)
        return z

    Z = np.array(power_law(3000))
    tail = dyn._ChartTail(Z, np.arange(3000), 1, pull)
    ks, ws = tail.last(300)
    assert ks == list(range(2701, 3001))
    assert ws == Z[2700:].tolist()
    assert all(type(x) is complex for w in ws for x in w)
    assert len(calls) == 300
    tail.last(250)
    assert len(calls) == 300
    ks, _ = tail.last(1000)
    assert ks[0] == 2001 and len(calls) == 1000
    assert len(tail) == 3000


FAR = dyn.CharDirection(v=(G(1), G(5)), lam=G(1), degenerate=False,
                        mode="closed-form")

# Each trace ends the classification at a different exit; the notes of the
# verdicts from the first undecided or failing stage on are pinned, so an
# exit that stops filling the later stages as before fails here.
EXITS = [
    ("stage-0-windows", sparse, 1, {}, "inconclusive",
     ["not enough nonzero points for windows"] * 3),
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
    ("matched-nonstandard", power_law, 1, {"directions": [FAR]},
     "regular-nonstandard", None),
]


@pytest.mark.parametrize("window", [None, 5])
@pytest.mark.parametrize("name,make,k0,kwargs,label,notes", EXITS,
                         ids=[e[0] for e in EXITS])
def test_every_exit_matches_reference(name, make, k0, kwargs, label, notes,
                                      window):
    trace = _trace(make())
    got = dyn.regularity_classify(trace, S2, k0=k0, window=window, **kwargs)
    want = _reference_classify(trace, S2, k0=k0, window=window, **kwargs)
    assert got == want and repr(got) == repr(want)
    assert got.classification == label
    if notes is not None:
        assert [v.note for v in got.verdicts] == notes
    else:
        assert got.matched_direction is FAR
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
