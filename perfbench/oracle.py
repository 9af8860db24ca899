"""Output checks for every benchmark request.

Exact outputs (lift, closed-form chardirs, normalform, invariants) must
match the recorded output byte for byte; expected.json stores the SHA-256
of each one.  Numeric outputs are checked by properties that do not read
the solver's own diagnostics:

- numeric chardirs: every reported direction v with multiplier lam must
  satisfy max_j |Q_j(v) - lam v_j| <= CHARDIRS_TOL, with Q the quadratic
  part read from the same map's exact lift;
- orbit: sampled rows of the CSV must follow the map, evaluated here with
  mpmath at twice the working precision;
- classify: classification and verdict list equal the recorded ones;
- fatou-demo: the status column equals the recorded one.
"""

import csv
import hashlib
import json
import random
from fractions import Fraction

import mpmath
import numpy as np

CHARDIRS_TOL = 1e-8
ORBIT_SAMPLES = 64        # CSV transitions checked per orbit
ORBIT_GUARD_BITS = 16     # slack of the orbit check, in bits below --prec
RADIUS = 10.0             # the CLI's default divergence radius


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def parse_exact(text):
    """A CLI scalar literal such as "3", "-1/2", "2/3+1/5i" or "-i", as a
    complex float."""
    s = text.replace(" ", "")
    split = max(s.rfind("+"), s.rfind("-"))
    if not s.endswith("i"):
        return complex(float(Fraction(s)))
    body = s[:-1]
    if split > 0:
        re_txt, im_txt = body[:split], body[split:]
    else:
        re_txt, im_txt = "0", body
    if im_txt in ("", "+", "-"):
        im_txt += "1"
    return complex(float(Fraction(re_txt)), float(Fraction(im_txt)))


def parse_value(x):
    if isinstance(x, dict):
        return complex(float(x["re"]), float(x["im"]))
    return parse_exact(x)


def summarize(req, out):
    """The recordable form of a request's stdout."""
    if req.check == "exact":
        return digest(out)
    if req.check == "classify":
        data = json.loads(out)
        return {"classification": data["classification"],
                "verdicts": [[v["stage"], v["verdict"]]
                             for v in data["verdicts"]]}
    if req.check == "fatou":
        return [line.split()[0] for line in out.splitlines() if line.strip()]
    return None


class Oracle:
    def __init__(self, expected, invoke):
        self.expected = expected
        self.invoke = invoke       # argv -> (exit code, stdout, stderr)
        self._quad = {}

    def check(self, req, code, out, err):
        """None when the output is right, else the reason it is not."""
        if code != 0:
            return "exit code %s: %s" % (code, err.strip()[-300:])
        try:
            if req.check in ("exact", "classify", "fatou"):
                if req.key not in self.expected:
                    return "no expected output recorded"
                if summarize(req, out) != self.expected[req.key]:
                    return "output differs from the recorded one"
                return None
            if req.check == "chardirs-numeric":
                return self._check_chardirs(req, out)
            if req.check == "orbit":
                return self._check_orbit(req, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return "unreadable output: %r" % (exc,)
        return "unknown check %r" % (req.check,)

    # -- numeric characteristic directions ---------------------------------

    def _quadratic_part(self, req):
        path = req.info["map"]
        if path not in self._quad:
            code, out, err = self.invoke(
                ["lift", "--map", path, "--stage", str(req.info["stage"]),
                 "--degree", "2"])
            if code != 0:
                raise ValueError("oracle lift failed: %s" % err.strip())
            comps = json.loads(out)["components"]
            quad = []
            for rows in comps:
                quad.append([(tuple(r["exp"]), parse_exact(r["coeff"]))
                             for r in rows if sum(r["exp"]) == 2])
            self._quad[path] = quad
        return self._quad[path]

    def _check_chardirs(self, req, out):
        quad = self._quadratic_part(req)
        dirs = json.loads(out)["directions"]
        if not dirs:
            return "no directions reported"
        for d in dirs:
            v = np.array([parse_value(x) for x in d["v"]])
            lam = parse_value(d["lambda"])
            res = max(
                abs(sum(c * np.prod(v ** np.array(e)) for e, c in terms)
                    - lam * v[j])
                for j, terms in enumerate(quad))
            if not res <= CHARDIRS_TOL:
                return "direction %s has residual %.3g" % (d["v"], res)
        return None

    # -- orbits -----------------------------------------------------------

    def _check_orbit(self, req, out):
        info = req.info
        data = json.loads(out)
        with open(info["csv"], newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        npts = data["points"]
        if len(rows) != npts:
            return "CSV has %d rows, JSON says %d" % (len(rows), npts)
        if data["diverged"]:
            if data["diverged_at"] != npts:
                return "diverged_at disagrees with the row count"
        elif npts != info["steps"] + 1:
            return "%d points for %d steps" % (npts, info["steps"])
        if [int(r[0]) for r in rows] != list(
                range(info["k0"], info["k0"] + npts)):
            return "k column is not k0, k0+1, ..."
        prec = info["prec"]
        with mpmath.workprec(2 * prec):
            step = _map_evaluator(info["map"])
            pts = {}

            def point(i):
                if i not in pts:
                    r = rows[i]
                    pts[i] = [mpmath.mpc(mpmath.mpf(r[1 + 2 * j]),
                                         mpmath.mpf(r[2 + 2 * j]))
                              for j in range((len(r) - 1) // 2)]
                return pts[i]

            tol = mpmath.mpf(2) ** (ORBIT_GUARD_BITS - prec)
            start = [mpmath.mpf(x.numerator) / x.denominator
                     for x in info["start"]]
            if _dist(point(0), start) > tol * _norm(start):
                return "row 0 is not the start point"
            rng = random.Random(req.key)
            picks = {npts - 2} | {rng.randrange(npts - 1)
                                  for _ in range(ORBIT_SAMPLES)}
            for i in sorted(p for p in picks if p >= 0):
                want = step(point(i))
                if _dist(point(i + 1), want) > tol * _norm(want):
                    return "row %d does not follow from row %d" % (i + 1, i)
            if data["diverged"] and _norm(step(point(npts - 1))) <= RADIUS:
                return "reported divergence but the next point is inside"
        return None


def _map_evaluator(doc):
    """F(z) for a map description: the Jordan part plus the listed terms,
    in the current mpmath precision."""
    lin = []
    j = 0
    for block in doc["blocks"]:
        lam = Fraction(block["lambda"])
        lam = mpmath.mpf(lam.numerator) / lam.denominator
        for h in range(block["mu"]):
            lin.append((lam, j + 1 if h + 1 < block["mu"] else None))
            j += 1
    terms = [[] for _ in lin]
    for t in doc["terms"]:
        c = Fraction(t["coeff"])
        coeff = mpmath.mpf(c.numerator) / c.denominator
        terms[t["j"] - 1].append((coeff, t["exp"]))

    def step(z):
        out = []
        for j, (lam, nxt) in enumerate(lin):
            acc = lam * z[j] + (z[nxt] if nxt is not None else 0)
            for c, e in terms[j]:
                mono = c
                for x, p in zip(z, e):
                    if p:
                        mono *= x ** p
                acc += mono
            out.append(acc)
        return out

    return step


def _norm(z):
    return max(abs(x) for x in z)


def _dist(a, b):
    return max(abs(x - y) for x, y in zip(a, b))
