"""Command-line surface: map-description files in, JSON reports and CSV
traces out.

A map description is a JSON object:

    {
      "schema": "blowdyn/1",              // optional on input
      "dim": 2,
      "blocks": [{"mu": 2, "lambda": "1"}],
      "terms": [{"j": 2, "exp": [2, 0], "coeff": "1"}],
      "options": {"degree_cap": 4, "precision_bits": 128}
    }

The linear part is implied by the blocks.  Entries of `terms` with the
same j and exponent are summed, degree-1 entries included, and the sum of
the degree-1 entries at a place must restate the implied matrix exactly
(a JordanMismatch otherwise).  Coefficients
are exact literals ("-3/4", "1/2+1/3i", "0.25" — decimals convert
exactly).  Every command prints JSON on stdout (except the CSV the orbit
command writes) and, on failure, a machine-readable error object on
stderr: exit code 2 for description/schema problems, 1 for any other
declared error, 3 for unexpected ones (whose error object also carries the
traceback).
"""

import functools
import json
import math
import sys
import traceback
import warnings
from json.encoder import encode_basestring_ascii as _quote

import click

from . import dynamics
from .blowup import projection_formulas
from .errors import (BlowdynError, JordanMismatch, PreconditionViolated,
                     SchemaError)
from .lifting import (
    germ_from_terms,
    germ_from_triples,
    jordan_matrix,
    lift,
    lifted_quadratic_part,
    verify_semiconjugacy,
)
from .normalform import epsilon_vector, normal_form
from .partition import build_structure, splitting
from .scalars import (QI_ONE, GaussianRational, format_triple, parse_scalar,
                      parse_triple)

SCHEMA = "blowdyn/1"
# Declared ranges (inclusive) of the map file's sizes and of the command
# flags; a value outside its range is a SchemaError (exit code 2).
DIM_RANGE = (1, 12)              # dim
CAP_RANGE = (2, 16)              # options.degree_cap and --degree
PREC_RANGE = (24, 4096)          # --prec and options.precision_bits, bits
STEPS_RANGE = (1, 10 ** 6)       # --steps and --settle
WINDOW_RANGE = (5, 10 ** 6)      # --window
K0_RANGE = (-2 ** 62, 2 ** 62)   # --k0: with STEPS_RANGE, every k fits int64
NORMALFORM_COST = 6000           # normalform: dim * C(dim + degree_cap, dim)


# -- scalar/JSON plumbing --------------------------------------------------

def jval(x):
    """JSON form of a scalar: an exact value as its string, a complex float
    as the repr of its real and imaginary parts."""
    if isinstance(x, GaussianRational):
        return str(x)
    return {"re": repr(x.real), "im": repr(x.imag)}


def _structure_json(S):
    return {
        "n": S.n,
        "mu": list(S.mu),
        "lambda": [jval(x) for x in S.lam],
        "nu": list(S.nu),
        "rho": S.rho,
        "stages": S.ell,
    }


def _direction_json(d):
    out = {
        "v": [jval(x) for x in d.v],
        "lambda": jval(d.lam),
        "degenerate": d.degenerate,
        "allowable": d.allowable,
        "mode": d.mode,
    }
    if d.span:
        out["span"] = [[jval(x) for x in b] for b in d.span]
    if d.hakim_spectrum is not None:
        out["attraction_spectrum"] = [jval(x) for x in d.hakim_spectrum]
    return out


class TermTable:
    """A JSON list with one object per nonzero term of each of `series`,
    in order: {"exp": [...], "coeff": "..."}, or {"j": j, "exp": [...],
    "coeff": "..."} when `numbered`, j the series' 1-based position.
    json_text spells each series' terms through one template, n %d slots
    for the exponent and one %s for the coefficient, building no object
    per term."""

    __slots__ = ("series", "numbered")

    def __init__(self, series, numbered=False):
        self.series = series
        self.numbered = numbered

    def json_text(self, nl):
        item = nl + "  "
        key = item + "  "
        digit = key + "  "
        items = []
        for j, s in enumerate(self.series, start=1):
            # a coefficient's text is ASCII digits, "/", "+", "-" and "i",
            # which JSON quotes as they are
            template = (item + "{" + key
                        + ('"j": %d,' % j + key if self.numbered else "")
                        + '"exp": [' + digit + ("," + digit).join(
                            ["%d"] * s.nvars) + key + '],' + key
                        + '"coeff": "%s"' + item + "}")
            items += s.spelled_terms(template)
        if not items:
            return "[]"
        return "[" + ",".join(items) + nl + "]"


_INTS = {int}


def json_text(x, nl="\n"):
    """The text of json.dumps(x, indent=2), byte for byte, for x built of
    dicts with str keys, lists, tuples, strings, numbers, bools and None,
    with a TermTable spelled as the list it stands for; a dict key of
    another type raises TypeError.  nl is a newline plus the indent of
    x's own line.  (json.dumps with an indent runs the pure-Python
    encoder, which makes several calls per value.)"""
    if isinstance(x, str):
        return _quote(x)
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = nl + "  "
        body = [_quote(k) + ": " + json_text(v, inner) for k, v in x.items()]
        return "{" + inner + ("," + inner).join(body) + nl + "}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = nl + "  "
        if set(map(type, x)) == _INTS:
            body = map(int.__repr__, x)
        else:
            body = [json_text(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(body) + nl + "]"
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x == math.inf:
            return "Infinity"
        if x == -math.inf:
            return "-Infinity"
        return float.__repr__(x)
    if isinstance(x, TermTable):
        return x.json_text(nl)
    raise TypeError("Object of type %s is not JSON serializable"
                    % type(x).__name__)


def _fail(exc, code=None, trace=None):
    payload = {"schema": SCHEMA, "error": type(exc).__name__, "message": str(exc)}
    if trace is not None:
        payload["traceback"] = trace
    step = getattr(exc, "step", None)
    if step is not None:
        payload["step"] = step
    stage = getattr(exc, "stage", None)
    if stage is not None:
        payload["stage"] = stage
    click.echo(json.dumps(payload), file=sys.stderr)
    if code is None:
        code = 2 if isinstance(exc, SchemaError) else 1
    sys.exit(code)


# -- map description parsing ----------------------------------------------

def _expect(cond, message, *args):
    """SchemaError(message % args) unless cond; the message is formatted
    only on failure."""
    if not cond:
        raise SchemaError(message % args if args else message)


def _expect_range(flag, value, bounds):
    lo, hi = bounds
    _expect(type(value) is int and lo <= value <= hi,
            "%s must be an integer in %d..%d, got %r", flag, lo, hi, value)


def parse_map_spec(data):
    """Validated input germ from a parsed map-description object.

    Returns (germ, options) where options carries degree_cap and
    precision_bits after defaulting.  options.field, when given, must be
    "exact".
    """
    _expect(isinstance(data, dict), "top level must be a JSON object")
    tag = data.get("schema")
    _expect(tag in (None, SCHEMA), "unknown schema tag %r", tag)
    dim = data.get("dim")
    _expect_range("dim", dim, DIM_RANGE)
    blocks = data.get("blocks")
    _expect(isinstance(blocks, list) and blocks, "blocks must be a nonempty list")
    mus, lams = [], []
    for i, b in enumerate(blocks):
        _expect(isinstance(b, dict), "blocks[%d] must be an object", i)
        mu = b.get("mu")
        _expect(type(mu) is int and mu >= 1,
                "blocks[%d].mu must be a positive integer", i)
        mus.append(mu)
        try:
            lams.append(parse_scalar(b.get("lambda", "1")))
        except BlowdynError as exc:
            raise SchemaError("blocks[%d].lambda: %s" % (i, exc))
        _expect(lams[-1], "blocks[%d].lambda must be nonzero", i)
    _expect(sum(mus) == dim, "block sizes sum to %d, dim says %d",
            sum(mus), dim)
    S = _structure("blocks", mus, lams)
    # an absent key takes the default; a present one, null included, must
    # have the right type
    opts = data.get("options", {})
    _expect(isinstance(opts, dict), "options must be an object")
    _expect(opts.get("field", "exact") == "exact",
            "only the exact coefficient field is supported")
    raw_terms = data.get("terms", [])
    _expect(isinstance(raw_terms, list), "terms must be a list")
    # each term is checked once; coefficients stay integer triples
    # (a, b, d), summed per component and exponent
    terms = [{} for _ in range(dim)]
    linear = {}  # (j, variable index): the sum of the degree-1 entries
    maxdeg = 2
    for i, t in enumerate(raw_terms):
        _expect(isinstance(t, dict), "terms[%d] must be an object", i)
        j = t.get("j")
        _expect(type(j) is int and 1 <= j <= dim,
                "terms[%d].j must be in 1..%d", i, dim)
        e = t.get("exp")
        _expect(isinstance(e, list) and len(e) == dim
                and _INTS.issuperset(map(type, e)) and min(e) >= 0,
                "terms[%d].exp must be %d nonnegative integers", i, dim)
        deg = sum(e)
        _expect(deg >= 1, "terms[%d] has total degree 0", i)
        try:
            c = parse_triple(t.get("coeff", "1"))
        except BlowdynError as exc:
            raise SchemaError("terms[%d].coeff: %s" % (i, exc))
        if deg == 1:
            key, acc = (j, e.index(1)), linear
        else:
            key, acc = tuple(e), terms[j - 1]
            if deg > maxdeg:
                maxdeg = deg
        if key in acc:  # summed as a triple, not reduced
            (a, b, d), (a2, b2, d2) = acc[key], c
            c = a * d2 + a2 * d, b * d2 + b2 * d, d * d2
        acc[key] = c
    for (j, h), (a, b, d) in linear.items():
        want = jordan_matrix(S)[j - 1][h]
        if a * want.d != want.a * d or b * want.d != want.b * d:
            raise JordanMismatch(
                "linear term (component %d, variable %d) is %s but the "
                "declared blocks require %s"
                % (j, h + 1, format_triple(a, b, d), want))
    cap = opts.get("degree_cap", maxdeg)
    _expect_range("degree_cap", cap, CAP_RANGE)
    _expect(cap >= maxdeg, "degree_cap %d below a declared term of degree %d",
            cap, maxdeg)
    prec = opts.get("precision_bits", 128)
    _expect_range("precision_bits", prec, PREC_RANGE)
    germ = germ_from_triples(S, cap, terms)
    return germ, {"degree_cap": cap, "precision_bits": prec}


def load_map_spec(path):
    with open(path) as fh:
        data = json.load(fh)
    return parse_map_spec(data)


# -- shared option helpers -------------------------------------------------

def _parse_int_list(text, what):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise SchemaError("%s must be a comma-separated integer list" % what)


def _parse_scalar_list(text, what):
    out = []
    for tok in text.split(","):
        try:
            out.append(parse_scalar(tok))
        except BlowdynError as exc:
            raise SchemaError("%s entry %r: %s" % (what, tok, exc))
    return tuple(out)


def _structure(what, mus, lams):
    """build_structure(mus, lams), a refusal a SchemaError naming what."""
    try:
        return build_structure(mus, lams)
    except PreconditionViolated as exc:
        raise SchemaError("%s: %s" % (what, exc))


def _structure_from_flags(mu_text, lam_text):
    mus = _parse_int_list(mu_text, "--mu")
    lams = _parse_scalar_list(lam_text, "--lambda") if lam_text else \
        (QI_ONE,) * len(mus)
    _expect(len(lams) == len(mus), "--mu and --lambda disagree on block count")
    _expect(DIM_RANGE[0] <= sum(mus) <= DIM_RANGE[1],
            "--mu block sizes sum to %d, outside %d..%d", sum(mus), *DIM_RANGE)
    _expect(all(lams), "--lambda entries must be nonzero")
    return _structure("--mu", mus, lams)


# -- commands --------------------------------------------------------------

@click.group()
def main():
    """Blow-up diagonalization of germs with non-diagonalizable linear
    part, and the orbit analysis built on top of it."""


def _command(name):
    """Register the decorated function as the command `name`.  It runs
    inside the error channel: a declared error exits 1 (a SchemaError 2),
    an OSError or ValueError is reported as a SchemaError, and anything
    else exits 3 with its traceback.  A payload dict it returns is written
    to stdout as {"schema": SCHEMA, **payload}, in the payload's key order
    after the tag."""
    def register(fn):
        @functools.wraps(fn)
        def invoke(**flags):
            try:
                payload = fn(**flags)
                if payload is not None:
                    # click.echo always gets the stream: without file=,
                    # click caches the current sys.stdout in a table that
                    # keeps every stream an in-process caller redirects
                    # output to (and all the output in it) alive.
                    click.echo(json_text({"schema": SCHEMA, **payload}),
                               file=sys.stdout)
            except BlowdynError as exc:
                _fail(exc)
            except (OSError, json.JSONDecodeError, ValueError) as exc:
                _fail(SchemaError(str(exc)))
            except Exception as exc:  # a defect: report it in the same channel
                _fail(exc, code=3, trace=traceback.format_exc())
        return main.command(name)(invoke)
    return register


@_command("partition")
@click.option("--mu", "mu_text", required=True,
              help="Comma-separated block sizes, largest first.")
@click.option("--lambda", "lam_text", default="",
              help="Comma-separated block eigenvalues (default all 1).")
def partition_cmd(mu_text, lam_text):
    """Jordan structure and the stage-by-stage index splittings."""
    S = _structure_from_flags(mu_text, lam_text)
    sp = []
    for k in range(0, S.ell + 1):
        s = splitting(S, k)
        sp.append({
            "k": k,
            "primed": list(s.primed),
            "double_primed": list(s.double_primed),
            "per_block": [list(b) for b in s.per_block],
        })
    return {"structure": _structure_json(S), "splittings": sp}


@_command("charts")
@click.option("--mu", "mu_text", required=True)
@click.option("--lambda", "lam_text", default="")
@click.option("--stage", type=int, default=None,
              help="Restrict to one stage (default: all).")
def charts_cmd(mu_text, lam_text, stage):
    """Monomial tables of the chart projections (forward and inverse)."""
    S = _structure_from_flags(mu_text, lam_text)
    stages = list(range(1, S.ell + 1))
    if stage is not None:
        _expect_range("--stage", stage, (1, S.ell))
        stages = [stage]
    tables = []
    for k in stages:
        pf = projection_formulas(S, k)
        tables.append({
            "k": k,
            "forward": [list(r) for r in pf.forward],
            "inverse": [list(r) for r in pf.inverse],
            "required_nonzero": list(pf.required_nonzero),
        })
    return {"structure": _structure_json(S), "charts": tables}


@_command("lift")
@click.option("--map", "map_path", required=True, type=str)
@click.option("--stage", type=int, required=True)
@click.option("--degree", type=int, default=None,
              help="Series cap for the lift (default: the input cap).")
@click.option("--out", "out_path", default=None,
              help="Write the lifted map JSON here instead of stdout.")
def lift_cmd(map_path, stage, degree, out_path):
    """Lift the germ through the first `stage` blow-ups."""
    if degree is not None:
        _expect_range("--degree", degree, CAP_RANGE)
    F, opts = load_map_spec(map_path)
    _expect_range("--stage", stage, (1, F.structure.ell))
    D = degree if degree is not None else opts["degree_cap"]
    L = lift(F, stage, D)
    payload = {
        "kind": "lifted-map",
        "structure": {
            "mu": list(L.structure.mu),
            "lambda": [jval(x) for x in L.structure.lam],
        },
        "stage": L.stage,
        "degree_cap": L.cap,
        "components": [TermTable([s]) for s in L.series.components],
        "semiconjugacy_exact": verify_semiconjugacy(F, L),
    }
    if not out_path:
        return payload
    with open(out_path, "w") as fh:
        fh.write(json_text({"schema": SCHEMA, **payload}))
    return {"written": out_path, "stage": stage, "degree_cap": D,
            "semiconjugacy_exact": payload["semiconjugacy_exact"]}


@_command("chardirs")
@click.option("--map", "map_path", required=True, type=str)
@click.option("--mode", type=click.Choice(
    ["auto", "structured", "factored"]), default="auto")
def chardirs_cmd(map_path, mode):
    """Fixed directions of the fully lifted quadratic part, with
    multipliers, allowability and, for isolated nondegenerate directions,
    attraction spectra."""
    F, _ = load_map_spec(map_path)
    S = F.structure
    Q = lifted_quadratic_part(lift(F, S.ell, 2))
    dirs = dynamics.characteristic_directions(Q, mode=mode, structure=S)
    out = []
    for d in dirs:
        entry = _direction_json(d)
        if not (d.degenerate or d.span):
            try:
                h = dynamics.hakim_matrix(Q, d.v)
                entry["attraction_spectrum"] = [jval(x) for x in h.spectrum]
            except BlowdynError as exc:
                entry["attraction_spectrum"] = None
                entry["attraction_note"] = str(exc)
        out.append(entry)
    return {"structure": _structure_json(S), "stage": S.ell, "mode": mode,
            "directions": out}


@_command("invariants")
@click.option("--map", "map_path", required=True, type=str)
def invariants_cmd(map_path):
    """Planar refined invariants and the curve-count classification for
    2D germs whose leading quadratic coefficient vanishes."""
    F, _ = load_map_spec(map_path)
    rep = dynamics.planar_classification(F)
    inv = rep.invariants
    return {
        "epsilon": jval(inv.epsilon),
        "eta": jval(inv.eta),
        "xi": jval(inv.xi) if inv.xi is not None else None,
        "kind": rep.kind,
        "curves": rep.curves,
        "stage": rep.stage,
        "directions": [_direction_json(d) for d in rep.directions],
        "notes": list(rep.notes),
    }


@_command("orbit")
@click.option("--map", "map_path", required=True, type=str)
@click.option("--start", "start_text", required=True,
              help="Comma-separated exact coordinates of the start point.")
@click.option("--steps", type=int, required=True)
@click.option("--prec", type=int, default=None,
              help="Working precision, bits (default: the map's "
              "precision_bits).")
@click.option("--csv", "csv_path", required=True)
@click.option("--k0", type=int, default=0,
              help="Index label of the start point in the CSV.")
@click.option("--radius", type=float, default=dynamics.DEFAULT_RADIUS)
def orbit_cmd(map_path, start_text, steps, prec, csv_path, k0, radius):
    """Iterate the germ and write the trace as CSV (columns k, then
    re/im per coordinate, full precision)."""
    _expect_range("--steps", steps, STEPS_RANGE)
    _expect_range("--k0", k0, K0_RANGE)
    _expect(math.isfinite(radius) and radius > 0,
            "--radius must be finite and positive, got %r", radius)
    F, opts = load_map_spec(map_path)
    bits = opts["precision_bits"] if prec is None else prec
    _expect_range("--prec", bits, PREC_RANGE)
    z0 = _parse_scalar_list(start_text, "--start")
    _expect(len(z0) == F.structure.n,
            "--start needs %d coordinates", F.structure.n)
    trace = dynamics.orbit_iterate(F, z0, steps, precision_bits=bits,
                                   radius=radius)
    digits = int(bits * 0.30103) + 3
    with open(csv_path, "w", newline="") as fh:
        fh.write("k" + "".join(",re_z%d,im_z%d" % (j, j)
                               for j in range(1, trace.n + 1)) + "\r\n")
        for k, row in enumerate(trace.decimal_points(digits), k0):
            fh.write("%d,%s\r\n" % (k, ",".join(row)))
    return {
        "csv": csv_path, "points": len(trace), "precision_bits": bits,
        "k0": k0, "diverged": trace.diverged, "diverged_at": trace.diverged_at,
    }


def _read_trace_csv(path, n):
    """The first k and the points of a trace CSV written by the orbit
    command, parsed in one pass: k0 as an int (the k column is checked to
    rise by 1 on its array), and the points as the (N, n) complex array
    that holds each re/im pair as one complex of the correctly rounded
    doubles."""
    import numpy as np

    with open(path) as fh:
        head = fh.readline().rstrip("\r\n").split(",")
        _expect(head[:1] == ["k"] and len(head) == 1 + 2 * n,
                "CSV header does not match a %d-coordinate trace", n)
        with warnings.catch_warnings():
            # no rows at all is reported as an empty trace just below
            warnings.filterwarnings("ignore",
                                    "loadtxt: input contained no data")
            # numpy 1.23-2.x parse a k like "1.5" or "2.0" as a float and
            # truncate it, with only this warning; make it the ValueError
            # later numpy raise
            warnings.filterwarnings(
                "error", r"loadtxt\(\): Parsing an integer via a float",
                DeprecationWarning)
            rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=1,
                              dtype=[("k", np.int64), ("z", float, 2 * n)])
    _expect(len(rows) > 0, "empty trace")
    ks = rows["k"]
    _expect(bool((np.diff(ks) == 1).all()), "CSV k column must increase by 1")
    bad = np.argwhere(~np.isfinite(rows["z"]))
    if bad.size:
        r, c = bad[0]
        raise SchemaError("CSV value %s at k = %d, column %s, is not a finite "
                          "double" % (rows["z"][r, c], ks[r], head[1 + c]))
    return int(ks[0]), np.ascontiguousarray(rows["z"]).view(complex)


@_command("classify")
@click.option("--map", "map_path", required=True, type=str)
@click.option("--csv", "csv_path", required=True,
              help="Trace written by the orbit command.")
@click.option("--tau", type=float, default=None,
              help="Direction Cauchy threshold (default %g)."
              % dynamics.DIRECTION_TOL)
@click.option("--window", type=int, default=None,
              help="Samples per verdict window (default %d)."
              % dynamics.REG_WINDOW)
def classify_cmd(map_path, csv_path, tau, window):
    """Stage-by-stage regularity verdicts for a stored orbit trace."""
    if window is not None:
        _expect_range("--window", window, WINDOW_RANGE)
    _expect(tau is None or (math.isfinite(tau) and tau > 0),
            "--tau must be finite and positive, got %r", tau)
    F, _ = load_map_spec(map_path)
    k0, pts = _read_trace_csv(csv_path, F.structure.n)
    trace = dynamics.OrbitTrace(points=pts, precision_bits=53, source=F)
    rep = dynamics.regularity_classify(
        trace, F.structure, k0=k0, tau=tau, window=window)
    return {
        "classification": rep.classification,
        "standard": rep.standard,
        "match_distance": rep.match_distance,
        "matched_direction": None if rep.matched_direction is None
        else _direction_json(rep.matched_direction),
        "verdicts": [
            {
                "stage": v.stage,
                "verdict": v.verdict,
                "limit": None if v.limit is None
                else [jval(x) for x in v.limit],
                "note": v.note,
            }
            for v in rep.verdicts
        ],
        "notes": list(rep.notes),
    }


@_command("normalform")
@click.option("--map", "map_path", required=True, type=str)
def normalform_cmd(map_path):
    """Quadratic normal form for a germ whose linear part is the
    unipotent Jordan block, with the epsilon table and conjugator.  At
    degree caps >= 3 the conjugator is exact only modulo degree 3."""
    F, opts = load_map_spec(map_path)
    n, cap = F.structure.n, opts["degree_cap"]
    cost = n * math.comb(n + cap, n)
    _expect(cost <= NORMALFORM_COST, "degree_cap %d with dim %d: normalform "
            "cost dim*C(dim+degree_cap, dim) = %d exceeds %d",
            cap, n, cost, NORMALFORM_COST)
    return normalform_payload(normal_form(F))


def normalform_payload(nf):
    """The normalform command's payload for a NormalFormResult."""
    return {
        "epsilon_table": [[jval(x) for x in row] for row in nf.epsilon],
        "epsilon_vector": [jval(x) for x in epsilon_vector(nf)],
        "alpha": [jval(x) for x in nf.alpha],
        "j0": nf.j0,
        "normalized": TermTable(nf.normalized.components, numbered=True),
        "conjugator": TermTable(nf.conjugator.components, numbered=True),
    }


@_command("fatou-demo")
@click.option("--steps", type=int, default=2500,
              help="Forward steps for the refined standard orbit.")
@click.option("--settle", type=int, default=10000,
              help="Backward refinement steps for the standard seed.")
@click.option("--prec", type=int, default=128)
def fatou_demo_cmd(steps, settle, prec):
    """End-to-end run of the classical planar example (z1+z2, z2+z1^2):
    lift, fixed directions, decay profile, orbits, fits, classification."""
    _expect_range("--steps", steps, STEPS_RANGE)
    _expect_range("--settle", settle, STEPS_RANGE)
    _expect_range("--prec", prec, PREC_RANGE)
    lines = []

    def row(status, name, detail=""):
        lines.append((status, name, detail))

    S = build_structure((2,), (QI_ONE,))
    F = germ_from_terms(S, {(2, (2, 0)): QI_ONE}, cap=4)
    for k in (1, 2):
        L = lift(F, k, 4)
        ok = verify_semiconjugacy(F, L)
        row("PASS" if ok else "FAIL",
            "stage-%d lift semiconjugacy exact" % k)
    Q = lifted_quadratic_part(L)    # L is the stage-2 lift above
    dirs = dynamics.characteristic_directions(Q, mode="structured",
                                              structure=S)
    d = dirs[0]
    row("PASS" if tuple(d.v) == (GaussianRational(3), GaussianRational(2))
        else "FAIL", "allowable direction [3:2]",
        "v=(%s, %s) multiplier %s" % (d.v[0], d.v[1], d.lam))
    h = dynamics.hakim_matrix(Q, d.v)
    row("INFO", "attraction spectrum at the direction",
        ", ".join(str(x) for x in h.spectrum)
        + " (no positive real part: curve only, no open basin)")
    rows = dynamics.expected_asymptotics(F)
    row("PASS" if [(r.exponent, str(r.constant)) for r in rows]
        == [(2, "6"), (3, "-12")] else "FAIL",
        "predicted decay 6/k^2, -12/k^3")

    k0 = 50
    raw = dynamics.profile_point(F, k0, precision_bits=prec)
    traw = dynamics.orbit_iterate(F, raw, 5000, precision_bits=prec)
    if traw.diverged:
        row("FAIL", "literal profile seed tracks 5000 steps",
            "escaped the radius at step %d: the modes transverse to the "
            "curve repel, so the truncated profile cannot persist"
            % traw.diverged_at)
    else:
        row("PASS", "literal profile seed tracks 5000 steps")

    seed = dynamics.standard_orbit_seed(F, k0=k0, settle=settle,
                                        precision_bits=prec)
    tr = dynamics.orbit_iterate(F, seed, steps, precision_bits=prec)
    if tr.diverged:
        row("FAIL", "refined standard orbit stays bounded",
            "escaped at step %s" % tr.diverged_at)
        _print_table(lines)
        return
    f1 = dynamics.asymptotic_fit(tr, 1, window=400, k0=k0)
    f2 = dynamics.asymptotic_fit(tr, 2, window=400, k0=k0)
    ok = (abs(f1.exponent_fitted - 2) <= 0.02
          and abs(f2.exponent_fitted - 3) <= 0.02)
    row("PASS" if ok else "FAIL", "fitted exponents 2 and 3 (+-0.02)",
        "%.4f, %.4f" % (f1.exponent_fitted, f2.exponent_fitted))
    ok = (abs(f1.constant - 6) / 6 < 0.05
          and abs(f2.constant + 12) / 12 < 0.05)
    row("PASS" if ok else "FAIL", "fitted constants 6 and -12 (+-5%)",
        "%.4f, %.4f" % (f1.constant.real, f2.constant.real))
    rep = dynamics.regularity_classify(tr, S, k0=k0)
    ok = rep.classification == "standard" and (
        rep.match_distance is not None and rep.match_distance < 1e-4)
    row("PASS" if ok else "FAIL",
        "classified standard, direction match < 1e-4",
        "%s, distance %.3g" % (rep.classification,
                               rep.match_distance or float("nan")))
    _print_table(lines)


def _print_table(lines):
    width = max(len(name) for _, name, _ in lines)
    for status, name, detail in lines:
        pad = name.ljust(width)
        click.echo("%-4s  %s%s" % (status, pad,
                                   ("  -- " + detail) if detail else ""),
                   file=sys.stdout)


if __name__ == "__main__":
    main()
