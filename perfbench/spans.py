"""Per-layer spans around the public functions and methods of each strata module.

The library is not modified: `install()` replaces every public function and
method of the layer modules (and every reference other strata modules hold to
them) with a wrapper that records a span.  It is called in a forked child that
runs exactly one operation, so the wrappers die with that operation.

A layer is a set of modules.  For each layer the tracer keeps:

  calls    wrapped calls entered
  self_s   span time not covered by a child span (of any layer)
  total_s  time during which at least one span of the layer is open
  errors   StrataError raised out of the layer (the exception leaves a span
           whose caller is outside the layer, or the root span)

plus the counts in COUNTS and the times in TIMED.  Self times over all layers
add up to the root span, which is `strata.cli.main`.  Times are read from the
`clock` the tracer is given.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys

LAYERS = {
    "kernel": ["strata.kernel.matrix", "strata.kernel.subspace", "strata.kernel._elim_py"],
    "quiver": ["strata.quiver"],
    "algebra": ["strata.algebra"],
    "specfile": ["strata.specfile"],
    "modules": ["strata.modules"],
    "homology": ["strata.homology"],
    "strat": ["strata.strat"],
    "compat": ["strata.compat"],
    "functors": ["strata.functors"],
    "borel": ["strata.borel"],
    "vmult": ["strata.vmult"],
    "acceptance": ["strata.acceptance"],
    "cli": ["strata.cli"],
}

# Operators and constructors that are wrapped although they are not public names.
DUNDERS = {
    "Matrix": ("__mul__", "__add__", "__sub__", "__neg__"),
    "StratDatum": ("__init__",),
}

CRITERIA = [f"c{i:02d}" for i in range(1, 14)]

# Counts kept by the hooks in Tracer._hooks().
COUNTS = (
    "kernel.matmul.calls",
    "kernel.matmul.mults",
    "kernel.rref.calls",
    "kernel.rref.cells",
    "kernel.rank.calls",
    "algebra.validate.calls",
    "modules.invariant_closure.calls",
    "modules.hom_basis.calls",
    "modules.iso_test.calls",
    "modules.iso_test.rank_calls",
    "strat.datum.calls",
    "strat.datum.built",
    "homology.resolution.layers",
    "homology.ext.calls",
)

# Functions whose outermost calls are timed: function key -> per-layer metric.
TIMED = {
    "algebra.Algebra.validate": "algebra.validate.total_s",
    "compat.compatibility_battery": "compat.battery.total_s",
    **{f"acceptance.criterion_{c[1:]}": f"acceptance.{c}_s" for c in CRITERIA},
}


def metric_units():
    """Every per-layer metric the tracer reports, with its unit."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = "count"
        out[f"{layer}.self_s"] = "s"
        out[f"{layer}.total_s"] = "s"
        out[f"{layer}.errors"] = "count"
    out.update(dict.fromkeys(COUNTS, "count"))
    out.update(dict.fromkeys(TIMED.values(), "s"))
    return out


CALLS, SELF, TOTAL, ERRORS, DEPTH, START = range(6)


class Tracer:
    def __init__(self, clock):
        from strata.errors import StrataError

        self.clock = clock
        self.error_type = StrataError
        self.stack = []  # open spans: [layer stats, start, time covered by children]
        self.layer = {layer: [0, 0.0, 0.0, 0, 0, 0.0] for layer in LAYERS}
        self.timed = {key: [0.0, 0, 0.0] for key in TIMED}  # total_s, depth, start
        self.counters = dict.fromkeys(COUNTS, 0)
        self.iso_depth = 0

    # -- recording ----------------------------------------------------------------

    def wrap(self, layer, key, fn, hook=None):
        """`fn` inside a span of `layer`; `hook(args)` runs first and may return
        a callable that runs when the call ends."""
        clock, stack, error_type = self.clock, self.stack, self.error_type
        lstat = self.layer[layer]
        fstat = self.timed.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            after = hook(args) if hook is not None else None
            start = clock()
            if lstat[DEPTH] == 0:
                lstat[START] = start
            lstat[DEPTH] += 1
            lstat[CALLS] += 1
            if fstat is not None:
                if fstat[1] == 0:
                    fstat[2] = start
                fstat[1] += 1
            frame = [lstat, start, 0.0]
            stack.append(frame)
            error = None
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                lstat[SELF] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                lstat[DEPTH] -= 1
                if lstat[DEPTH] == 0:
                    lstat[TOTAL] += end - lstat[START]
                if fstat is not None:
                    fstat[1] -= 1
                    if fstat[1] == 0:
                        fstat[0] += end - fstat[2]
                if isinstance(error, error_type) and (not stack or stack[-1][0] is not lstat):
                    lstat[ERRORS] += 1
                if after is not None:
                    after()

        return wrapper

    # -- counters read at the call boundary ----------------------------------------

    def _hooks(self):
        c = self.counters

        def matmul(args):
            a, b = args[0], args[1]
            c["kernel.matmul.calls"] += 1
            c["kernel.matmul.mults"] += a.rows * a.cols * b.cols

        def rref(args):
            m = args[0]
            c["kernel.rref.calls"] += 1
            if m._echelon is None or m._echelon[0] != "rref":
                c["kernel.rref.cells"] += m.rows * m.cols

        def rank(args):
            c["kernel.rank.calls"] += 1
            if self.iso_depth:
                c["modules.iso_test.rank_calls"] += 1

        # Matrix.rank calls under either iso search stand in for its trials.
        def iso(args):
            c["modules.iso_test.calls"] += 1
            self.iso_depth += 1

            def done():
                self.iso_depth -= 1
            return done

        def iso_power(args):
            self.iso_depth += 1

            def done():
                self.iso_depth -= 1
            return done

        def count(name):
            def hook(args):
                c[name] += 1
            return hook

        def extend(args):
            res = args[0]
            before = len(res.layers)

            def done():
                c["homology.resolution.layers"] += len(res.layers) - before
            return done

        return {
            "kernel.Matrix.__mul__": matmul,
            "kernel.Matrix.rref": rref,
            "kernel.Matrix.rank": rank,
            "modules.iso_test": iso,
            "modules.iso_to_direct_power": iso_power,
            "modules.Module.invariant_closure": count("modules.invariant_closure.calls"),
            "modules.hom_basis": count("modules.hom_basis.calls"),
            "algebra.Algebra.validate": count("algebra.validate.calls"),
            "strat.strat_datum": count("strat.datum.calls"),
            "strat.StratDatum.__init__": count("strat.datum.built"),
            "homology.Resolution.extend_to": extend,
            "homology.ext_dims_upto": count("homology.ext.calls"),
        }

    # -- installing the wrappers ----------------------------------------------------

    def install(self):
        """Wrap the layers' public callables in place; returns self."""
        hooks = self._hooks()
        wrapped = {}  # id(original) -> wrapper

        def make(layer, key, fn):
            w = self.wrap(layer, key, fn, hooks.get(key))
            wrapped[id(fn)] = w
            return w

        for layer, names in LAYERS.items():
            for modname in names:
                mod = importlib.import_module(modname)
                for name, obj in list(vars(mod).items()):
                    if getattr(obj, "__module__", None) != modname:
                        continue
                    if inspect.isfunction(obj) and not name.startswith("_"):
                        setattr(mod, name, make(layer, f"{layer}.{name}", obj))
                    elif inspect.isclass(obj):
                        self._wrap_class(layer, obj, make)

        # Rebind every other reference a strata module holds to a wrapped
        # function: `from .x import f` names and module-level tables of callables.
        for mod in [m for n, m in sys.modules.items() if n == "strata" or n.startswith("strata.")]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])
                elif isinstance(obj, list):
                    obj[:] = [_rebind(item, wrapped) for item in obj]
        return self

    def _wrap_class(self, layer, cls, make):
        extra = DUNDERS.get(cls.__name__, ())
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in extra:
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                setattr(cls, name, make(layer, key, attr))
            elif isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(make(layer, key, attr.__func__)))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(make(layer, key, attr.__func__)))

    # -- results ----------------------------------------------------------------------

    def report(self):
        """Per-layer metrics of everything recorded so far (see metric_units())."""
        out = {}
        for layer, stats in self.layer.items():
            out[f"{layer}.calls"] = stats[CALLS]
            out[f"{layer}.self_s"] = stats[SELF]
            out[f"{layer}.total_s"] = stats[TOTAL]
            out[f"{layer}.errors"] = stats[ERRORS]
        out.update(self.counters)
        for key, name in TIMED.items():
            out[name] = self.timed[key][0]
        return out

    def self_time(self):
        return sum(stats[SELF] for stats in self.layer.values())


def _rebind(item, wrapped):
    if id(item) in wrapped:
        return wrapped[id(item)]
    if isinstance(item, tuple) and any(id(x) in wrapped for x in item):
        return tuple(wrapped.get(id(x), x) for x in item)
    return item
