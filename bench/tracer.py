"""Spans around every qcong function, installed from outside the package.

install() replaces each function, lru-cached function and class method that
a qcong module defines with a timing wrapper, in every qcong module that
bound it: aliases such as congruence's ``from .laurent import divrem`` and
``__rmul__ = __mul__`` resolve to the same wrapper, so no call escapes.  A
span's layer is the module that defines the function.

Every span is kept in memory, as the six integers of SPAN_FIELDS in one flat
array, until the run writes them out.  Aggregates are updated as spans end:

  calls / incl_ns   per name; incl_ns adds only the outermost of nested
                    spans of one name, so recursion is not counted twice
  self_ns           per layer: span duration minus its child spans
  top_ns            time inside top-level spans, so the benchmark's own
                    share of an op is op time minus top_ns

Inside a laurent span, a call to another laurent function opens no span of
its own unless it is one of LAURENT_SPANS.  The rest are per-term helpers
(_norm_scalar, shift, _raw, ...) whose wrapper would cost more than their
work and distort the multiply timings; their time stays in the enclosing
laurent span, so layer self times are unchanged.

The wrapper's own bookkeeping falls inside the parent span, so self times
include part of the tracing overhead; the harness reports that overhead
separately by timing the same ops untraced.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction

PACKAGE = "qcong"
SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "op")
PAIR_BUCKETS = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536)
KRONECKER_PAIRS = 2048  # laurent._KRONECKER_CUTOFF today; fixed so the classes survive a re-tune
LAURENT_SPANS = ("laurent.LaurentPoly.__mul__", "laurent.divrem", "laurent.ext_gcd")


def pair_bucket(pairs: int) -> str:
    for edge in PAIR_BUCKETS:
        if pairs <= edge:
            return f"le{edge}"
    return f"gt{PAIR_BUCKETS[-1]}"


def _layer(module: str) -> str:
    return module.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.incl_ns: list[int] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.top_ns = 0
        self.spans = array("q")  # SPAN_FIELDS of each span, one after another
        self.op = -1
        self.paused = False
        # per-call properties gathered by hooks, with tracing paused
        self.mul = defaultdict(lambda: [0, 0])  # class -> [calls, ns]
        self.divrem_dense_terms = 0
        self.sides_self_ns = 0
        self.max_num_degree = 0
        self._sides_depth = 0
        self._next_id = 0
        self._stack: list[list] = []  # [span id, child ns, layer]
        self._active: list[int] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        hooks = self._hooks()
        wrappers: dict[int, object] = {}
        classes: set[type] = set()

        def wrapped(fn, qualname: str, module: str):
            key = id(fn)
            if key not in wrappers:
                name = f"{_layer(module)}.{qualname}"
                wrappers[key] = self._wrap(fn, name, _layer(module), hooks.get(name))
            return wrappers[key]

        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                owner = getattr(obj, "__module__", None) or ""
                if not owner.startswith(PACKAGE):
                    continue
                if isinstance(obj, type):
                    if obj not in classes:
                        classes.add(obj)
                        self._install_class(obj, wrapped)
                elif callable(obj) and hasattr(obj, "__qualname__"):
                    setattr(mod, attr, wrapped(obj, obj.__qualname__, owner))

    def _install_class(self, cls: type, wrapped) -> None:
        module = cls.__module__
        for attr, member in list(vars(cls).items()):
            if isinstance(member, (staticmethod, classmethod)):
                fn = member.__func__
                setattr(cls, attr, type(member)(wrapped(fn, fn.__qualname__, module)))
            elif isinstance(member, property) and member.fget is not None:
                fget = member.fget
                setattr(cls, attr, property(wrapped(fget, fget.__qualname__, module),
                                            member.fset, member.fdel, member.__doc__))
            elif callable(member) and hasattr(member, "__qualname__") and not isinstance(member, type):
                setattr(cls, attr, wrapped(member, member.__qualname__, module))

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, hook):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.incl_ns.append(0)
        self._active.append(0)
        sides = layer == "theorems" and name.endswith("_sides")
        in_theorems = layer == "theorems"
        quiet = layer == "laurent" and name not in LAURENT_SPANS
        stack, active, clock = self._stack, self._active, time.perf_counter_ns
        calls, incl_ns, self_ns = self.calls, self.incl_ns, self.self_ns
        keep = self.spans.extend
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused or (quiet and stack and stack[-1][2] == "laurent"):
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, 0, layer]
            stack.append(frame)
            active[nid] += 1
            if sides:
                tracer._sides_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[1]
                calls[nid] += 1
                self_ns[layer] += own
                active[nid] -= 1
                if not active[nid]:
                    incl_ns[nid] += dur
                if in_theorems and tracer._sides_depth:
                    tracer.sides_self_ns += own
                if sides:
                    tracer._sides_depth -= 1
                if parent is None:
                    tracer.top_ns += dur
                else:
                    parent[1] += dur
                keep((sid, nid, t0, t1, parent[0] if parent else -1, tracer.op))
            if hook is not None:
                tracer.paused = True
                try:
                    hook(args, result, dur)
                finally:
                    tracer.paused = False
            return result

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            try:
                setattr(wrapper, attr, getattr(fn, attr))
            except AttributeError:
                pass
        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks: input properties of selected calls -----------------------------

    def _hooks(self) -> dict:
        def mul(args, result, dur):
            # Only products of two polynomials of at least two terms each reach
            # the cutoff test; scalar and monomial operands take O(n) early
            # exits and stay in laurent.mul.calls/.s alone.
            a, b = args
            if type(b) is not type(a):
                return
            ta, tb = a.terms, b.terms
            if len(ta) < 2 or len(tb) < 2:
                return
            pairs = len(ta) * len(tb)
            if any(isinstance(c, Fraction) for t in (ta, tb) for c in t.values()):
                cls = ["frac"]
            else:
                size = "int_le2048" if pairs <= KRONECKER_PAIRS else "int_gt2048"
                cls = [size, "pairs_hist." + pair_bucket(pairs)]
            for c in cls:
                entry = self.mul[c]
                entry[0] += 1
                entry[1] += dur

        def divrem(args, result, dur):
            a = args[0]
            if not a.is_zero():
                self.divrem_dense_terms += a.degree() + 1

        def sides(args, result, dur):
            for side in result:
                num = getattr(side, "num", side)
                polys = num.coeffs.values() if hasattr(num, "coeffs") else [num]
                for p in polys:
                    if not p.is_zero():
                        self.max_num_degree = max(self.max_num_degree, p.degree())

        hooks = {"laurent.LaurentPoly.__mul__": mul, "laurent.divrem": divrem}
        for name in ("thm_1_1_sides", "thm_1_2_sides", "thm_2_1_sides", "s0_sides", "sun_p_sides"):
            hooks[f"theorems.{name}"] = sides
        return hooks

    # -- results --------------------------------------------------------------

    def by_name(self) -> dict[str, tuple[int, int]]:
        """name -> (calls, inclusive ns)."""
        return {n: (c, t) for n, c, t in zip(self.names, self.calls, self.incl_ns) if c}

    def span_count(self) -> int:
        return len(self.spans) // len(SPAN_FIELDS)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "fields": SPAN_FIELDS}) + "\n")
            for span in zip(*[iter(self.spans)] * len(SPAN_FIELDS)):
                fh.write("[%d,%d,%d,%d,%d,%d]\n" % span)
