"""Timing spans around the public functions of sclkit, installed at runtime.

``install(tracer)`` replaces each function in ``TRACED`` with a wrapper on
its defining module and on every sclkit module that bound the same object
with ``from ... import``, so calls made inside the package are timed too.
The source under ``src/`` is not edited.  Each span is a list
``[name, start, end, parent, op]``; spans stay in memory until the run
writes them out.
"""

import functools
import importlib
import sys
import time

# (module, function) pairs; the layer is the module name
TRACED = (
    ("cli", "main"),
    ("chainexpr", "parse_chain"),
    ("freegroup", "canonicalize"),
    ("sclenc", "scl"),
    ("sclenc", "solve_chain"),
    ("sclenc", "build_lp"),
    ("sclenc", "enumerate_rectangles"),
    ("sclenc", "enumerate_pieces"),
    ("sclenc", "decode_certificate"),
    ("ratlp", "solve_min"),
    ("ratlp", "verify"),
    ("rotation", "rot"),
    ("rotation", "rot_element"),
    ("rotation", "turning_number"),
    ("rotation", "turning_number_chain"),
    ("surfcert", "search_matching"),
    ("surfcert", "certificate_from_matching"),
    ("surfcert", "read_certificate"),
    ("immersion", "bounds_immersed"),
    ("immersion", "minimal_stabilization"),
    ("immersion", "scan_conjecture"),
    ("immersion", "corollary_check"),
)
# every span name: the traced functions, and the import of sclkit that
# traced_cli.py records in each paper-cli command process
NAMES = tuple("%s.%s" % pair for pair in TRACED) + ("sclkit.import",)


def _value_bits(result):
    bits = 0
    for v in (result.primal or ()) + (result.dual or ()):
        bits = max(bits, abs(int(v.numerator)).bit_length(),
                   int(v.denominator).bit_length())
    return bits


def _count_solve(counters, args, result):
    counters["ratlp.pivots"] += result.pivots
    counters["ratlp.value_bits"] = max(counters["ratlp.value_bits"],
                                       _value_bits(result))


def _count_verify(counters, args, result):
    if not result:
        counters["ratlp.verify.rejects"] += 1


def _count_build(counters, args, result):
    lp = result.lp
    counters["sclenc.lp_rows"] += lp.num_rows
    counters["sclenc.lp_cols"] += lp.num_vars
    counters["sclenc.lp_nnz"] += sum(len(row) for row in lp.rows)


def _count_canonicalize(counters, args, result):
    counters["freegroup.canonicalize.letters"] += sum(
        len(t.word) for t in args[0].terms)


# counters taken from a traced call's arguments and result
COUNTERS = {
    "ratlp.solve_min": _count_solve,
    "ratlp.verify": _count_verify,
    "sclenc.build_lp": _count_build,
    "freegroup.canonicalize": _count_canonicalize,
}
COUNTER_NAMES = ("ratlp.pivots", "ratlp.value_bits", "ratlp.verify.rejects",
                 "sclenc.lp_rows", "sclenc.lp_cols", "sclenc.lp_nnz",
                 "freegroup.canonicalize.letters")


class Tracer:
    """Span and counter recorder for one process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.errors = {}  # span name -> calls that raised

    def wrap(self, name, fn):
        count = COUNTERS.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[2] = clock()
                stack.pop()
                self.errors[name] = self.errors.get(name, 0) + 1
                raise
            span[2] = clock()
            stack.pop()
            if count is not None:
                count(self.counters, args, result)
            return result

        return traced

    def dump(self):
        return {"spans": self.spans, "counters": self.counters,
                "errors": self.errors}


def install(tracer):
    """Wrap every function in TRACED wherever sclkit bound it."""
    for modname, _ in TRACED:
        importlib.import_module("sclkit." + modname)
    modules = [m for key, m in sys.modules.items()
               if key == "sclkit" or key.startswith("sclkit.")]
    for modname, fname in TRACED:
        home = sys.modules["sclkit." + modname]
        original = getattr(home, fname)
        wrapper = tracer.wrap("%s.%s" % (modname, fname), original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def self_times(spans):
    """Per span name: [calls, total seconds, self seconds]."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent is not None:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[i]
    return out

