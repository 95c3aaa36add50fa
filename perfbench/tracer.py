"""Spans around paramod's public entry points, recorded from outside the package.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds every
``paramod.*`` module attribute that holds it, because modules such as
``higgslimit`` and ``cli`` import functions by name; methods are replaced on
their class.  A span is ``(name, start, end, parent, op)`` with ``parent`` the
index of the enclosing span (-1 for none) and ``op`` the operation it belongs
to.  Spans stay in memory until ``write``.  A span's self time is its duration
minus the durations of its direct children; the load is single-threaded, so
children never overlap each other or outlive their parent.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict

# (module, attribute path) of every function wrapped in the traced run
TRACED = [
    ("exactnum", "Mat.det"),
    ("exactnum", "Mat.nullspace"),
    ("exactnum", "Mat.solve_affine"),
    ("exactnum", "Mat.rank"),
    ("parastruct", "classify"),
    ("parastruct", "is_decomposable"),
    ("parastruct", "quotient_coords"),
    ("stability", "is_stable"),
    ("stability", "weight_is_non_special"),
    ("stability", "formal_resultant"),
    ("spectra", "SpectrumRank2.predicates"),
    ("spectra", "elm_spectrum"),
    ("connection", "solve_connection_space"),
    ("connection", "ConnectionSpace.triple_at"),
    ("connection", "validate_triple"),
    ("connection", "gauge_transform"),
    ("connection", "elm_triple"),
    ("higgslimit", "cstar_limit"),
    ("higgslimit", "higgs_is_stable"),
    ("higgslimit", "fixedpoint_canonicalize"),
    ("higgslimit", "fiber_dimension"),
    ("cli", "main"),
]
OP = "op"  # the root span of one benchmark operation


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self._restore: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "paramod" or n.startswith("paramod.")]
        for mod_name, path in TRACED:
            mod = sys.modules[f"paramod.{mod_name}"]
            name = f"{mod_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original))
                self._restore.append((owner, attr, original))
                continue
            original = getattr(mod, path)
            wrapped = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
                        self._restore.append((m, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def run_op(self, op_id, fn, *args):
        """Call ``fn(*args)`` as operation ``op_id`` under a root span."""
        self.op = op_id
        return self._wrap(OP, fn)(*args)

    def layer_totals(self):
        """``{name: (calls, self_seconds)}`` over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0])
        for k, (name, start, end, _, _) in enumerate(self.spans):
            t = totals[name]
            t[0] += 1
            t[1] += end - start - child[k]
        return {name: tuple(v) for name, v in totals.items()}

    def calls_by_op(self, name):
        """``{op: calls}`` of one traced function."""
        out = defaultdict(int)
        for span in self.spans:
            if span[0] == name:
                out[span[4]] += 1
        return out

    def write(self, path):
        """All spans as gzip-compressed CSV, times in ns from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{round((start - t0) * 1e9)},{round((end - t0) * 1e9)},{parent},{op}\n")
