"""Run the rp3vertex CLI with every benchmarked layer timed from outside.

Usage: python3 perfbench/tracer.py <rp3vertex CLI arguments...>

The program is not edited.  After `import rp3vertex.cli` has loaded every
module, each public layer function is replaced by a wrapper that pushes a
span on a stack, so a layer's self time is its own duration minus the time
of the traced layers it called.  `from .x import name` copies a function
into the importing module, so each wrapper is bound in every module that
calls the function.  Spans are aggregated in memory per layer name and
written once, at exit, as the last line of stderr after TRACE_MARKER; the
CLI's stdout is left untouched so the harness can check it.
"""

import functools
import json
import sys
import time
from fractions import Fraction

TRACE_MARKER = "PERFBENCH-TRACE "


class Tracer:
    """Per-layer call counts, self time, and exact size counters."""

    def __init__(self):
        self._stack = []
        self.spans = {}      # layer -> [calls, self seconds]
        self.counters = {}   # counter name -> exact int
        self._distinct = {}  # counter name -> set of argument keys
        self._keep = []      # keeps objects alive so their ids stay unique

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def distinct(self, name, key):
        seen = self._distinct.setdefault(name, set())
        seen.add(key)
        self.counters[name] = len(seen)

    def keep(self, obj):
        self._keep.append(obj)

    def wrap(self, layer, fn, after=None):
        """fn wrapped in a span named layer; after(args, result) runs once the
        span has closed, so its cost lands in the caller's self time."""
        stats = self.spans.setdefault(layer, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, result)
            return result

        return traced

    def report(self):
        return {"spans": {k: {"calls": c, "self_s": s}
                          for k, (c, s) in sorted(self.spans.items())},
                "counters": dict(sorted(self.counters.items()))}


def _den_factor_count(series):
    return sum(m for rf in series.coeffs.values() for _f, m in rf.factors)


def install(tracer):
    """Bind traced wrappers for every benchmarked layer; returns traced main."""
    from rp3vertex import amplitude, analysis, cli, partitions, ring, specialize, vertex
    from rp3vertex.ring import KahlerSeries, Laurent, QSeries, RationalFunction

    t = tracer
    modules = [m for name, m in sys.modules.items()
               if name == "rp3vertex" or name.startswith("rp3vertex.")]

    def rebind(layer, owner, attr, after=None):
        """Replace owner.attr, and every other binding of the same function
        (copies made by `from .x import name`, class aliases such as
        __rmul__ = __mul__), with one traced wrapper."""
        static = isinstance(vars(owner)[attr], staticmethod)
        fn = getattr(owner, attr)
        wrapped = t.wrap(layer, fn, after)
        if static:
            wrapped = staticmethod(wrapped)
        holders = modules + ([owner] if isinstance(owner, type) else [])
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is fn or (static and getattr(value, "__func__", None) is fn):
                    setattr(holder, name, wrapped)
        setattr(owner, attr, wrapped)
        return getattr(owner, attr)

    # ring
    def after_laurent_mul(args, _result):
        a, b = args
        if isinstance(b, Laurent):
            t.count("ring.laurent_mul.term_products", len(a.terms) * len(b.terms))
        elif isinstance(b, (int, Fraction)):
            t.count("ring.laurent_mul.term_products", len(a.terms))

    rebind("ring.laurent_mul", Laurent, "__mul__", after_laurent_mul)
    rebind("ring.rf_mul", RationalFunction, "__mul__")
    rebind("ring.rf_eq", RationalFunction, "__eq__")
    rebind("ring.sum_of", RationalFunction, "sum_of",
           lambda _a, r: t.count("ring.sum_of.terms_out", len(r.num.terms)))
    rebind("ring.series_divide", ring, "series_divide")
    rebind("ring.expand", ring, "expand")
    rebind("ring.json", KahlerSeries, "from_json",
           lambda _a, _r: t.count("ring.from_json.calls", 1))
    rebind("ring.json", QSeries, "from_json",
           lambda _a, _r: t.count("ring.from_json.calls", 1))
    rebind("ring.json", KahlerSeries, "to_json",
           lambda _a, _r: t.count("ring.to_json.calls", 1))

    # specialize
    rebind("specialize.complete_homogeneous", specialize, "complete_homogeneous",
           lambda a, _r: t.distinct("specialize.complete_homogeneous.distinct", a))
    rebind("specialize.skew_schur", specialize, "skew_schur",
           lambda a, _r: t.distinct("specialize.skew_schur.distinct", a))
    rebind("specialize.hook_products", specialize, "macdonald_tilde_z")
    rebind("specialize.hook_products", specialize, "macdonald_p_at_rho")

    # partitions, vertex
    rebind("partitions.partitions_of", partitions, "partitions_of")
    rebind("vertex.framing", vertex, "framing_regular")
    rebind("vertex.framing", vertex, "framing_refined")

    # amplitude
    def after_normalize(args, result):
        t.keep(args[0])
        t.distinct("amplitude.normalize.distinct", id(args[0]))
        t.count("amplitude.normalize.out_den_factors", _den_factor_count(result))

    rebind("amplitude.open_amplitude", amplitude, "open_amplitude")
    rebind("amplitude.closed_amplitude", amplitude, "closed_amplitude")
    rebind("amplitude.normalize", amplitude, "normalize", after_normalize)

    # analysis
    rebind("analysis.load_fixtures", analysis, "load_fixtures")
    rebind("analysis.fixture_compare", analysis, "fixture_compare")
    rebind("analysis.positivity_check", analysis, "positivity_check")
    rebind("analysis.suite_run", analysis.SuiteRunner, "run",
           lambda _a, r: t.count("analysis.checks", len(r)))

    # cli
    return rebind("cli.main", cli, "main")


def main(argv):
    import rp3vertex.cli  # noqa: F401  (loads every module before rebinding)

    tracer = Tracer()
    traced_main = install(tracer)
    try:
        status = traced_main(argv)
    except SystemExit as exc:
        status = exc.code
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_MARKER + json.dumps(tracer.report()) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
