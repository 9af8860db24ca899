"""Per-layer spans and counters, installed from outside the package.

A layer is a module of the package.  Tracing rebinds each layer's public
functions, in every module that holds a reference to them (so re-imported
names such as lifting.series_multiply are covered too), to a wrapper that
records a span: name, start, end, parent span and request id.  Spans stay
in memory and are written out when the run ends.  Self time is a span's
duration minus the time its child spans cover.

Counting is a separate pass with its own wrappers: call counts, a few
result sizes, and the exact scalar operations of GaussianRational, whose
per-operation overhead would distort span times.

Only the benchmark imports this module, and only in a traced run.
"""

import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

PACKAGE = "blowdyn"
LAYERS = ("cli", "scalars", "series", "lifting", "blowup", "partition",
          "exactalg", "normalform", "dynamics")
# Scalar operations are counted, not timed; in the CLI only the map parser
# gets a span of its own, the rest of the command is the request span.
NOT_TIMED = {"scalars"}
CLI_TIMED = {"parse_map_spec"}
COMMANDS = ("lift", "chardirs", "normalform", "invariants", "orbit",
            "classify", "fatou-demo")


def _public_functions():
    """(layer, function) for every public function a layer defines."""
    out = []
    for layer in LAYERS:
        mod = sys.modules["%s.%s" % (PACKAGE, layer)]
        for name, obj in sorted(vars(mod).items()):
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                out.append((layer, obj))
    return out


class _Rebinding:
    """Replace functions by wrappers wherever a package module refers to
    them; restore() puts the originals back."""

    def __init__(self, wrappers):
        self.saved = []
        by_id = {id(fn): w for fn, w in wrappers}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE
                                   or modname.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                w = by_id.get(id(val))
                if w is not None:
                    self.saved.append((mod, attr, val))
                    setattr(mod, attr, w)

    def restore(self):
        for mod, attr, val in reversed(self.saved):
            setattr(mod, attr, val)
        self.saved = []


def _steps_of(name, fn):
    """How many orbit or preimage steps a call made, for the two step
    loops; None for every other function."""
    if name == "dynamics.orbit_iterate":
        return lambda args, kwargs, res: len(res.points) - 1
    if name == "dynamics.standard_orbit_seed":
        sig = inspect.signature(fn)

        def settle(args, kwargs, res):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments["settle"]
        return settle
    return None


# -- spans ------------------------------------------------------------------

class Tracer:
    def __init__(self):
        self.names = []
        self.layer_of = []
        self.name_id = {}
        self.sp_name = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("i")
        self.sp_req = array("i")
        self.stack = []           # [child time, span index] per open span
        self.request = -1
        self.requests = []        # (request id, pool key)
        self.incl = defaultdict(float)   # outermost-call time per name
        self.self_time = defaultdict(float)  # per layer
        self.steps = Counter()
        self.active = Counter()
        self._binding = None

    def _id(self, name, layer):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self.name_id[name]

    def _open(self, nid):
        idx = len(self.sp_name)
        self.sp_name.append(nid)
        self.sp_start.append(0.0)
        self.sp_end.append(0.0)
        self.sp_parent.append(self.stack[-1][1] if self.stack else -1)
        self.sp_req.append(self.request)
        frame = [0.0, idx]
        self.stack.append(frame)
        return frame

    def _close(self, nid, frame, t0, t1):
        idx = frame[1]
        self.sp_start[idx] = t0
        self.sp_end[idx] = t1
        self.stack.pop()
        d = t1 - t0
        name = self.names[nid]
        self.active[nid] -= 1
        if not self.active[nid]:
            self.incl[name] += d
        self.self_time[self.layer_of[nid]] += d - frame[0]
        if self.stack:
            self.stack[-1][0] += d

    def _wrap(self, layer, fn):
        name = "%s.%s" % (layer, fn.__name__)
        nid = self._id(name, layer)
        steps = _steps_of(name, fn)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            self.active[nid] += 1
            frame = self._open(nid)
            t0 = perf()
            try:
                res = fn(*args, **kwargs)
            finally:
                self._close(nid, frame, t0, perf())
            if steps is not None:
                self.steps[name] += steps(args, kwargs, res)
            return res
        traced.__wrapped__ = fn
        return traced

    def install(self):
        wrappers = []
        for layer, fn in _public_functions():
            if layer in NOT_TIMED:
                continue
            if layer == "cli" and fn.__name__ not in CLI_TIMED:
                continue
            wrappers.append((fn, self._wrap(layer, fn)))
        self._binding = _Rebinding(wrappers)

    def uninstall(self):
        self._binding.restore()

    def request_span(self, rid, req, call):
        """Run one request as the root span cli.<command>."""
        self.request = rid
        self.requests.append((rid, req.key))
        nid = self._id("cli." + req.cmd, "cli")
        self.active[nid] += 1
        frame = self._open(nid)
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            self._close(nid, frame, t0, time.perf_counter())
            self.request = -1

    def dump(self, path):
        """Write every span, as gzipped JSON columns."""
        data = {
            "names": self.names,
            "requests": self.requests,
            "columns": ["name", "start", "end", "parent", "request"],
            "spans": [list(self.sp_name), list(self.sp_start),
                      list(self.sp_end), list(self.sp_parent),
                      list(self.sp_req)],
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(data, fh)


# -- counting pass ----------------------------------------------------------

class Counting:
    """Call counts of every public function, result sizes of a few, and
    the GaussianRational operations, over one pass of requests."""

    def __init__(self):
        self.calls = Counter()
        self.counts = Counter()
        self.coeff_bits_max = 0
        self._binding = None
        self._saved_ops = []
        self._in_normal_form = 0

    def _wrap(self, layer, fn):
        name = "%s.%s" % (layer, fn.__name__)
        calls, counts = self.calls, self.counts
        steps = _steps_of(name, fn)
        is_nf = name == "normalform.normal_form"
        is_inverse = name == "series.germ_inverse"

        def counted(*args, **kwargs):
            calls[name] += 1
            if is_inverse and self._in_normal_form:
                counts["normalform.conjugations"] += 1
            if is_nf:
                self._in_normal_form += 1
            try:
                res = fn(*args, **kwargs)
            finally:
                if is_nf:
                    self._in_normal_form -= 1
            if name == "series.series_multiply":
                counts["series.multiply.terms_out"] += len(res.coeffs)
            elif name == "lifting.lift":
                counts["lifting.lifted_terms"] += sum(
                    len(s.coeffs) for s in res.series.components)
            elif steps is not None:
                counts[name] += steps(args, kwargs, res)
            return res
        counted.__wrapped__ = fn
        return counted

    def install(self):
        self._binding = _Rebinding(
            [(fn, self._wrap(layer, fn)) for layer, fn in _public_functions()])
        G = sys.modules[PACKAGE + ".scalars"].GaussianRational
        counts = self.counts

        def op(kind, fn):
            def counted(a, b):
                counts["scalars.%s.count" % kind] += 1
                return fn(a, b)
            return counted

        init = G.__init__

        def counted_init(obj, re=0, im=0):
            init(obj, re, im)
            counts["scalars.new.count"] += 1
            bits = max(obj.re.numerator.bit_length(),
                       obj.re.denominator.bit_length(),
                       obj.im.numerator.bit_length(),
                       obj.im.denominator.bit_length())
            if bits > self.coeff_bits_max:
                self.coeff_bits_max = bits

        patches = {"__init__": counted_init}
        for attr, kind in (("__add__", "add"), ("__radd__", "add"),
                           ("__sub__", "add"), ("__mul__", "mul"),
                           ("__rmul__", "mul"), ("__truediv__", "div")):
            patches[attr] = op(kind, vars(G)[attr])
        for attr, fn in patches.items():
            self._saved_ops.append((G, attr, vars(G)[attr]))
            setattr(G, attr, fn)

    def uninstall(self):
        self._binding.restore()
        for cls, attr, fn in reversed(self._saved_ops):
            setattr(cls, attr, fn)
        self._saved_ops = []


# -- per-layer metrics ------------------------------------------------------

def layer_metrics(tracer, n_traced, counting, newton, p50s):
    """The per-layer metric table.

    tracer, n_traced: spans of the traced replay and its request count;
    counting: the counting pass; newton: summed numeric_stats of the
    chardirs outputs in the counting pass; p50s: median untraced request
    time by command.  Times are seconds per traced request; counts are
    totals over the counting pass.
    """
    per = max(n_traced, 1)
    calls, counts = counting.calls, counting.counts
    m = {}

    def s(key, name):
        m[key] = (tracer.incl.get(name, 0.0) / per, "s/req")

    for cmd in COMMANDS:
        m["cli.%s.p50_s" % cmd] = (p50s.get(cmd, 0.0), "s")
    s("cli.parse_map_spec.s", "cli.parse_map_spec")
    m["cli.self_s"] = (tracer.self_time.get("cli", 0.0) / per, "s/req")

    for kind in ("mul", "add", "div", "new"):
        key = "scalars.%s.count" % kind
        m[key] = (counts[key], "count")
    m["scalars.coeff_bits_max"] = (counting.coeff_bits_max, "bits")

    m["series.multiply.calls"] = (calls["series.series_multiply"], "count")
    s("series.multiply.s", "series.series_multiply")
    m["series.multiply.terms_out"] = (counts["series.multiply.terms_out"],
                                      "count")
    s("series.power.s", "series.series_power")
    s("series.reciprocal.s", "series.series_reciprocal")
    m["series.compose.calls"] = (calls["series.series_compose"], "count")
    s("series.compose.s", "series.series_compose")
    m["series.germ_inverse.calls"] = (calls["series.germ_inverse"], "count")
    s("series.germ_inverse.s", "series.germ_inverse")

    m["lifting.lift.calls"] = (calls["lifting.lift"], "count")
    s("lifting.lift.s", "lifting.lift")
    s("lifting.verify_semiconjugacy.s", "lifting.verify_semiconjugacy")
    m["lifting.lifted_terms"] = (counts["lifting.lifted_terms"], "count")

    for fn in ("projection_formulas", "pi_inverse"):
        m["blowup.%s.calls" % fn] = (calls["blowup." + fn], "count")
        s("blowup.%s.s" % fn, "blowup." + fn)

    m["partition.build_structure.calls"] = (
        calls["partition.build_structure"], "count")
    m["partition.s"] = (tracer.self_time.get("partition", 0.0) / per,
                        "s/req")

    m["exactalg.solve_linear.calls"] = (calls["exactalg.solve_linear"],
                                        "count")
    s("exactalg.solve_linear.s", "exactalg.solve_linear")
    m["exactalg.invert_matrix.calls"] = (calls["exactalg.invert_matrix"],
                                         "count")

    s("normalform.normal_form.s", "normalform.normal_form")
    m["normalform.eliminate_offdiagonal.calls"] = (
        calls["normalform.eliminate_offdiagonal"], "count")
    s("normalform.eliminate_offdiagonal.s", "normalform.eliminate_offdiagonal")
    s("normalform.reduce_diagonal_tail.s", "normalform.reduce_diagonal_tail")
    m["normalform.conjugations"] = (counts["normalform.conjugations"],
                                    "count")

    s("dynamics.characteristic_directions.s",
      "dynamics.characteristic_directions")
    for key in ("starts", "converged", "dropped", "duplicates"):
        m["dynamics.newton." + key] = (newton[key], "count")
    m["dynamics.newton.useful_ratio"] = (
        newton["unique"] / newton["starts"] if newton["starts"] else 0.0,
        "ratio")
    s("dynamics.hakim_matrix.s", "dynamics.hakim_matrix")
    for key, name in (("orbit", "dynamics.orbit_iterate"),
                      ("preimage", "dynamics.standard_orbit_seed")):
        m["dynamics.%s.steps" % key] = (counts[name], "count")
        steps = tracer.steps[name]
        m["dynamics.%s.step_us" % key] = (
            1e6 * tracer.incl.get(name, 0.0) / steps if steps else 0.0, "us")
    s("dynamics.regularity_classify.s", "dynamics.regularity_classify")
    s("dynamics.asymptotic_fit.s", "dynamics.asymptotic_fit")
    return m
