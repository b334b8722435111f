"""Outside-in tracing of `nodal`: spans around the entry points of each module.

The tracer never edits the program.  `install` replaces every binding of a
traced function (in the defining module and in every `nodal` module that
imported it by name) with a timing wrapper, and `uninstall` puts each original
back.  A span records calls, inclusive time (outermost activation only, so
recursion is not double counted) and self time (its duration minus the time of
its direct child spans).

Traced: every public module-level function of every loaded `nodal.*` module,
plus the private layers the benchmark names (`groebner._interreduce`,
`resolution._verify_resolution`) and two methods (`Polynomial.__mul__` as
`ring.mul`, `Ideal.gb` as `ideals.Ideal.gb`).  The monomial primitives
`ring.mono_*` are left out: they run millions of times per pass inside the
Groebner engine, so wrapping them would swamp the trace with its own cost.
"""
from __future__ import annotations

import inspect
import sys
import time

import numpy as np

MARKER = "__perfbench_span__"

SKIP = {"nodal.ring": {"mono_mul", "mono_div", "mono_divides", "mono_lcm", "mono_degree"}}
PRIVATE = {"nodal.groebner": ("_interreduce",), "nodal.resolution": ("_verify_resolution",)}
# All resolve_* entry points share one span, so its inclusive time counts a
# resolution once however the entry points call one another.
GROUPS = {
    "nodal.resolution.resolve_ideal": "resolution.resolve",
    "nodal.resolution.resolve_quotient": "resolution.resolve",
    "nodal.resolution.resolve_presented": "resolution.resolve",
    "nodal.resolution.resolve_quotient_module": "resolution.resolve",
}
ENGINES = ("groebner.macaulay_gb", "groebner.buchberger", "groebner.macaulay_module_gb")


def nodal_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "nodal" or n.startswith("nodal."))]


def wrapped_bindings():
    """Every module binding or class attribute of `nodal` that is a tracer wrapper."""
    found = []
    for mod in nodal_modules():
        for attr, val in vars(mod).items():
            if hasattr(val, MARKER):
                found.append(f"{mod.__name__}.{attr}")
            if inspect.isclass(val) and val.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{attr}.{a}" for a, v in vars(val).items()
                          if hasattr(v, MARKER)]
    return found


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, incl_s, self_s]
        self.counters: dict[str, float] = {}
        self._depth: dict[str, list] = {}
        self._stack: list[list] = []
        self._patched: list[tuple] = []
        self._bases: set = set()

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name, fn, before=None, after=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        depth = self._depth.setdefault(name, [0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            stat[0] += 1
            depth[0] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[0] -= 1
                stat[2] += dt - frame[0]
                if not depth[0]:
                    stat[1] += dt
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(token, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        setattr(traced, MARKER, name)
        return traced

    # -- hooks that turn return values into layer counters -----------------

    def _engine_calls(self):
        return sum(self.stats[n][0] for n in ENGINES if n in self.stats)

    def _gb_before(self, args, kwargs):
        return self._engine_calls()

    def _gb_after(self, engine_calls_before, args, kwargs, result):
        hit = self._engine_calls() == engine_calls_before
        self.count("ideals.gb_cache.hits" if hit else "ideals.gb_cache.misses")

    def _macaulay_after(self, token, args, kwargs, gb):
        ring = gb.ring
        # The order's name encodes its variable permutation; the program keys
        # its own basis cache by it too.
        key = (ring.p, ring.names, gb.order.name,
               frozenset(tuple(sorted(e.terms.items())) for e in gb.elements))
        self._bases.add(key)

    def _rref_before(self, args, kwargs):
        a = args[0] if args else kwargs["A"]
        shape = np.shape(a)
        if len(shape) == 2:
            self.count("linalg.rref.cells", shape[0] * shape[1])

    def _certificate_after(self, token, args, kwargs, report):
        self.count("ideals.points_are_reduced.attempts", report.attempts)
        self.count("ideals.points_are_reduced.certified", int(report.reduced))

    # -- install / uninstall ------------------------------------------------

    def _targets(self):
        import nodal
        from nodal.ideals import Ideal
        from nodal.ring import Polynomial

        hooks = {
            "groebner.macaulay_gb": (None, self._macaulay_after),
            "linalg.rref": (self._rref_before, None),
            "ideals.points_are_reduced": (None, self._certificate_after),
        }
        funcs = []
        for mod in nodal_modules():
            if mod is nodal:
                continue
            short = mod.__name__.split(".", 1)[1]
            for attr, val in vars(mod).items():
                public = not attr.startswith("_") and attr not in SKIP.get(mod.__name__, ())
                if (inspect.isfunction(val) and val.__module__ == mod.__name__
                        and (public or attr in PRIVATE.get(mod.__name__, ()))):
                    name = GROUPS.get(f"{mod.__name__}.{attr}", f"{short}.{attr}")
                    funcs.append((name, val, *hooks.get(name, (None, None))))
        methods = [
            ("ring.mul", Polynomial, "__mul__", None, None),
            ("ideals.Ideal.gb", Ideal, "gb", self._gb_before, self._gb_after),
        ]
        return funcs, methods

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        funcs, methods = self._targets()
        modules = nodal_modules()
        for name, fn, before, after in funcs:
            wrapper = self.wrap(name, fn, before, after)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        for name, cls, attr, before, after in methods:
            fn = cls.__dict__[attr]
            self._patched.append((cls, attr, fn))
            setattr(cls, attr, self.wrap(name, fn, before, after))

    def uninstall(self):
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------

    def span(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])

    def layer_metrics(self):
        """The per-layer metrics of one traced pass, as name -> (value, unit)."""
        s, c = self.span, self.counters.get
        gb_calls = s("ideals.Ideal.gb")[0]
        mac_calls = s("groebner.macaulay_gb")[0]
        attempts = c("ideals.points_are_reduced.attempts", 0)
        return {
            "groebner.macaulay_gb.calls": (mac_calls, "count"),
            "groebner.macaulay_gb.self_s": (s("groebner.macaulay_gb")[2], "s"),
            "groebner.macaulay_gb.incl_s": (s("groebner.macaulay_gb")[1], "s"),
            "groebner.macaulay_gb.distinct_ratio": (
                len(self._bases) / mac_calls if mac_calls else 0.0, "ratio"),
            "linalg.rref.calls": (s("linalg.rref")[0], "count"),
            "linalg.rref.self_s": (s("linalg.rref")[2], "s"),
            "linalg.rref.cells": (c("linalg.rref.cells", 0), "count"),
            "groebner._interreduce.self_s": (s("groebner._interreduce")[2], "s"),
            "ideals.gb_cache.hits": (c("ideals.gb_cache.hits", 0), "count"),
            "ideals.gb_cache.misses": (c("ideals.gb_cache.misses", 0), "count"),
            "ideals.gb_cache.hit_ratio": (
                c("ideals.gb_cache.hits", 0) / gb_calls if gb_calls else 0.0, "ratio"),
            "ideals.points_are_reduced.self_s": (s("ideals.points_are_reduced")[2], "s"),
            "ideals.points_are_reduced.incl_s": (s("ideals.points_are_reduced")[1], "s"),
            "ideals.points_are_reduced.attempts": (attempts, "count"),
            "ideals.points_are_reduced.certified_ratio": (
                c("ideals.points_are_reduced.certified", 0) / attempts if attempts else 0.0,
                "ratio"),
            "ring.mul.calls": (s("ring.mul")[0], "count"),
            "ring.mul.self_s": (s("ring.mul")[2], "s"),
            "linalg.reduce_rows.self_s": (s("linalg.reduce_rows")[2], "s"),
            "groebner.syzygy_generators.self_s": (s("groebner.syzygy_generators")[2], "s"),
            "groebner.macaulay_module_gb.self_s": (s("groebner.macaulay_module_gb")[2], "s"),
            "resolution.resolve.incl_s": (s("resolution.resolve")[1], "s"),
            "resolution._verify_resolution.self_s": (s("resolution._verify_resolution")[2], "s"),
            "ideals.saturate_irrelevant.incl_s": (s("ideals.saturate_irrelevant")[1], "s"),
            "ideals.intersect.incl_s": (s("ideals.intersect")[1], "s"),
            "curves.conductor_nodal.calls": (s("curves.conductor_nodal")[0], "count"),
        }

    def calls(self):
        return {name: st[0] for name, st in self.stats.items()}

    def table(self):
        """Span rows sorted by self time: (name, calls, incl_s, self_s)."""
        rows = [(n, st[0], st[1], st[2]) for n, st in self.stats.items() if st[0]]
        return sorted(rows, key=lambda r: -r[3])

