"""Seeded map files and request plans for the benchmark workloads.

Every workload draws its requests from a fixed pool: a set of slots (a map
shape plus a CLI command), each with VARIANTS seeded maps or start points.
A run's seed picks one variant per slot for every round and shuffles the
round, so the same seed always gives the same request sequence, and every
pool entry has an expected output recorded in expected.json.  A round holds
every slot of its workload once, which keeps the mix of request kinds the
same from run to run.

Maps are written as the CLI's JSON map descriptions; nothing here imports
the package under test.
"""

import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

VARIANTS = 6
WORKLOADS = ("tower", "analysis", "orbit")
# requests a measured run sends at least: 100 leaves ten samples above
# p90.  On tower and analysis the quantiles fall among requests whose cost
# varies with the seed, so those runs send more to keep them steady; an
# analysis run is then two rounds.
MIN_REQUESTS = {"tower": 300, "analysis": 300, "orbit": 100}

# (block sizes, degree cap): caps run 6..10, smaller towers get larger caps
TOWER_SHAPES = (
    ((2,), 10), ((3,), 10), ((2, 1), 10), ((2, 2), 10), ((3, 2), 8),
    ((2, 2, 1), 8), ((4,), 10), ((3, 1), 9), ((4, 2), 6),
)
# requests per round of each kind.  n = 6 normal forms and the n = 5
# direction searches cost about a second or more each and are a small
# share; the (2, 2) and (3, 1) direction searches, which cost about the
# same, fill the ranks around the 90th percentile.
NORMALFORM_MIX = {3: 20, 4: 4, 5: 1, 6: 1}
INVARIANTS_PER_ROUND = 100
CHARDIRS_MIX = {(3,): 20, (2, 1): 20, (2, 2): 16, (3, 1): 16, (2, 2, 1): 1,
                (3, 2): 1}
# orbits per round; orbit i uses germ i % 2 and precision i % 3, with its
# step count and start time k0 spread evenly over their ranges.  Starting
# at k0 >= steps / 4 no profile orbit escapes, and variants move k0 by at
# most K0_JITTER, so an orbit costs about the same whichever variant a
# round picks.  Each orbit is classified twice, at the default verdict
# window and at CLASSIFY_WINDOW.
ORBITS = 33
ORBIT_GERMS = ("planar", "cubic")
ORBIT_PRECS = (64, 128, 256)
ORBIT_STEPS = (2000, 5000)
K0_RANGE = (500, 2000)
K0_JITTER = 20
CLASSIFY_WINDOW = 100


@dataclass
class Request:
    key: str            # pool identity; also the key into expected.json
    cmd: str            # CLI command name
    args: list          # CLI arguments after the command name
    check: str          # oracle kind, see oracle.py
    info: dict = field(default_factory=dict)

    def argv(self):
        return [self.cmd] + list(self.args)


# -- map descriptions -------------------------------------------------------

def _rat(rng, nonzero=False, span=6):
    while True:
        q = Fraction(rng.randint(-span, span), rng.randint(1, span))
        if q or not nonzero:
            return q


def _text(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (
        q.numerator, q.denominator)


def _monomials(n, d):
    return [e for e in itertools.product(range(d + 1), repeat=n)
            if sum(e) == d]


def _stages(mu):
    return mu[0] + 1 if len(mu) >= 2 and mu[1] == mu[0] else mu[0]


def _lead(n):
    return (2,) + (0,) * (n - 1)


def map_doc(mu, lams, terms, cap):
    """The CLI map description; terms maps (component j, exponent) to a
    Fraction."""
    return {
        "schema": "blowdyn/1",
        "dim": sum(mu),
        "blocks": [{"mu": m, "lambda": _text(l)} for m, l in zip(mu, lams)],
        "terms": [{"j": j, "exp": list(e), "coeff": _text(c)}
                  for (j, e), c in sorted(terms.items()) if c],
        "options": {"degree_cap": cap},
    }


def _random_terms(rng, mu, degrees, density=0.5, sparse=0):
    """Random quadratic terms on a fixed share `density` of the quadratic
    monomials of each component, plus `sparse` random terms per component
    in each higher degree; all nonzero, so every map of a shape has the
    same number of terms.  The coefficient that drives the blow-up tower
    (and its tied-block copy) is always among them."""
    n = sum(mu)
    quad = _monomials(n, 2)
    terms = {}
    for j in range(1, n + 1):
        for e in rng.sample(quad, round(density * len(quad))):
            terms[(j, e)] = _rat(rng, nonzero=True)
        for d in degrees:
            for e in rng.sample(_monomials(n, d), sparse):
                terms[(j, e)] = _rat(rng, nonzero=True)
    terms[(mu[0], _lead(n))] = _rat(rng, nonzero=True)
    if len(mu) >= 2 and mu[1] == mu[0]:
        terms[(mu[0] + mu[1], _lead(n))] = _rat(rng, nonzero=True)
    return terms


def _shape_name(mu):
    return "x".join(str(m) for m in mu)


def tower_map(mu, cap, unipotent, variant):
    rng = random.Random("tower/%s/%s/%d" % (_shape_name(mu),
                                            "u" if unipotent else "e", variant))
    lams = [Fraction(1)] * len(mu) if unipotent else [
        _rat(rng, nonzero=True) for _ in mu]
    return map_doc(mu, lams, _random_terms(rng, mu, (3, 4), sparse=2), cap)


def normalform_map(n, variant):
    rng = random.Random("normalform/%d/%d" % (n, variant))
    return map_doc((n,), [Fraction(1)], _random_terms(rng, (n,), ()), 3)


def invariants_map(variant):
    """Planar unipotent germ with no z1^2 term in the second component
    (the non-generic case) and random cubic terms."""
    rng = random.Random("invariants/%d" % variant)
    terms = {(1, e): _rat(rng, nonzero=True) for e in _monomials(2, 2)}
    terms[(2, (1, 1))] = _rat(rng, nonzero=True)
    terms[(2, (0, 2))] = _rat(rng, nonzero=True)
    for j in (1, 2):
        for e in _monomials(2, 3):
            terms[(j, e)] = _rat(rng, nonzero=True)
    return map_doc((2,), [Fraction(1)], terms, 3)


def chardirs_map(mu, variant):
    rng = random.Random("chardirs/%s/%d" % (_shape_name(mu), variant))
    lams = [_rat(rng, nonzero=True) for _ in mu]
    return map_doc(mu, lams, _random_terms(rng, mu, ()), 2)


def orbit_germ(name):
    """(z1 + z2, z2 + z1^2) or (z1 + z2, z2 + z3, z3 + z1^2)."""
    n = 2 if name == "planar" else 3
    return map_doc((n,), [Fraction(1)], {(n, _lead(n)): Fraction(1)}, 2)


def profile_start(n, k0):
    """Exact leading-order profile point at time k0 of the single-block
    germ with unit leading coefficient: z_j = c_j / k0^(n+j-1)."""
    binom = math.comb(2 * n - 2, n - 1)
    out = []
    for j in range(1, n + 1):
        sign = -1 if (n + j - 1) % 2 else 1
        c = sign * (2 * n - 1) * binom * math.factorial(n + j - 2)
        out.append(Fraction(c, k0 ** (n + j - 1)))
    return out


# -- the pool ---------------------------------------------------------------

class Pool:
    """The maps and requests of one workload, with files under `root`."""

    def __init__(self, workload, root):
        if workload not in WORKLOADS:
            raise ValueError("unknown workload %r" % (workload,))
        self.root = root
        self.maps = {}      # file name -> map description
        self.slots = []     # list of lists of alternative request groups
        getattr(self, "_build_" + workload)()

    def path(self, name):
        return os.path.join(self.root, name)

    def _map(self, name, doc):
        self.maps[name] = doc
        return self.path(name)

    def _build_tower(self):
        for mu, cap in TOWER_SHAPES:
            for unip in (True, False):
                tag = "%s-%s" % (_shape_name(mu), "u" if unip else "e")
                lifts, dirs = [], []
                for v in range(VARIANTS):
                    doc = tower_map(mu, cap, unip, v)
                    path = self._map("tower-%s-%d.json" % (tag, v), doc)
                    lifts.append([Request(
                        "tower/lift/%s/%d" % (tag, v), "lift",
                        ["--map", path, "--stage", str(_stages(mu))],
                        "exact")])
                    dirs.append([Request(
                        "tower/chardirs/%s/%d" % (tag, v), "chardirs",
                        ["--map", path], "exact")])
                self.slots.append(lifts)
                untied = len(mu) == 1 or mu[1] < mu[0]
                if unip and untied:
                    self.slots.append(dirs)

    def _build_analysis(self):
        for n, count in NORMALFORM_MIX.items():
            alts = []
            for v in range(VARIANTS):
                path = self._map("nf-%d-%d.json" % (n, v), normalform_map(n, v))
                alts.append([Request("analysis/normalform/%d/%d" % (n, v),
                                     "normalform", ["--map", path], "exact")])
            self.slots += [alts] * count
        alts = []
        for v in range(VARIANTS):
            path = self._map("inv-%d.json" % v, invariants_map(v))
            alts.append([Request("analysis/invariants/%d" % v, "invariants",
                                 ["--map", path], "exact")])
        self.slots += [alts] * INVARIANTS_PER_ROUND
        for mu, count in CHARDIRS_MIX.items():
            alts = []
            for v in range(VARIANTS):
                doc = chardirs_map(mu, v)
                path = self._map("cd-%s-%d.json" % (_shape_name(mu), v), doc)
                alts.append([Request(
                    "analysis/chardirs/%s/%d" % (_shape_name(mu), v),
                    "chardirs", ["--map", path], "chardirs-numeric",
                    {"map": path, "stage": _stages(mu)})])
            self.slots += [alts] * count

    def _build_orbit(self):
        csv_path = self.path("orbit.csv")
        paths = {g: self._map("orbit-%s.json" % g, orbit_germ(g))
                 for g in ORBIT_GERMS}
        lo, hi = ORBIT_STEPS
        k_lo, k_hi = K0_RANGE
        for i in range(ORBITS):
            germ = ORBIT_GERMS[i % len(ORBIT_GERMS)]
            prec = ORBIT_PRECS[i % len(ORBIT_PRECS)]
            steps = lo + (hi - lo) * i // (ORBITS - 1)
            k0_mid = k_lo + (k_hi - k_lo) * i // (ORBITS - 1)
            doc = self.maps["orbit-%s.json" % germ]
            rng = random.Random("orbit/%d" % i)
            alts = []
            for v in range(VARIANTS):
                k0 = min(max(k0_mid + rng.randint(-K0_JITTER, K0_JITTER),
                             k_lo), k_hi)
                start = profile_start(doc["dim"], k0)
                tag = "%s/%d/%d/%d" % (germ, prec, steps, v)
                info = {"map": doc, "start": start, "k0": k0, "steps": steps,
                        "prec": prec, "csv": csv_path}
                alts.append([
                    Request("orbit/orbit/" + tag, "orbit",
                            ["--map", paths[germ],
                             "--start", ",".join(_text(x) for x in start),
                             "--steps", str(steps), "--prec", str(prec),
                             "--csv", csv_path, "--k0", str(k0)],
                            "orbit", info),
                    Request("orbit/classify/" + tag, "classify",
                            ["--map", paths[germ], "--csv", csv_path],
                            "classify"),
                    Request("orbit/classify-w%d/%s" % (CLASSIFY_WINDOW, tag),
                            "classify",
                            ["--map", paths[germ], "--csv", csv_path,
                             "--window", str(CLASSIFY_WINDOW)],
                            "classify"),
                ])
            self.slots.append(alts)
        self.slots.append([[Request("orbit/fatou-demo", "fatou-demo", [],
                                    "fatou")]])

    def write(self):
        os.makedirs(self.root, exist_ok=True)
        for name, doc in self.maps.items():
            with open(self.path(name), "w") as fh:
                json.dump(doc, fh, indent=1)

    def warmup(self):
        """A fixed, seed-independent request group run once before timing."""
        return self.slots[0][0]

    def round(self, rng):
        """One round: a seeded variant of every slot, in seeded order.
        An orbit request and the classify requests that read its CSV stay
        together."""
        groups = [rng.choice(alts) for alts in self.slots]
        rng.shuffle(groups)
        return [r for g in groups for r in g]
