"""Span tracer installed from outside the program.

``Tracer.install`` replaces public functions of the p2lab modules with
wrappers that record a span (id, parent id, name, start, end, run id) per
call, plus counts at the same boundary.  Spans stay in memory until
``summary`` folds them into the per-layer metrics.  Per-term kernel
operations (``Polynomial`` arithmetic, ``lattice.pair``) are never
wrapped: their call counts would swamp the numbers, so their time lands
in the self time of whichever wrapped layer called them.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
from collections import Counter
from time import perf_counter

# Layers whose public functions are all wrapped, minus per-term ones.
AUTO_LAYERS = ("lattice", "blowup", "weyl", "backlund", "atlas")
SKIP = {"lattice.pair"}
# Layers where only the named entry points are wrapped.
EXPLICIT = {
    "exact": ("poly_gcd", "divexact"),
    "intlinalg": ("kernel_basis", "solve_integer", "det", "invert_unimodular"),
    "flow": ("integrate", "best_chart", "transport",
             "field_consistency_symbolic"),
    "cli": ("run", "run_suite"),
}
LAYERS = ("cli", "flow", "atlas", "backlund", "blowup", "weyl", "lattice",
          "intlinalg", "exact")

# Per-layer metrics: name -> (unit, better).
METRICS = {
    "exact.poly_gcd.calls": ("count", "lower"),
    "exact.poly_gcd.s": ("s", "lower"),
    "exact.poly_gcd.nontrivial_ratio": ("1", "higher"),
    "exact.rf_new.calls": ("count", "lower"),
    "exact.rf_new.max_terms": ("count", "lower"),
    "exact.divexact.calls": ("count", "lower"),
    "exact.divexact.s": ("s", "lower"),
    "backlund.pii_residual.s": ("s", "lower"),
    "backlund.phase_residual.s": ("s", "lower"),
    "backlund.rest.s": ("s", "lower"),
    "atlas.glue_residual.s": ("s", "lower"),
    "atlas.ks_cocycle.s": ("s", "lower"),
    "atlas.rest.s": ("s", "lower"),
    "atlas.hamilton_field.s": ("s", "lower"),
    "flow.field_consistency_symbolic.s": ("s", "lower"),
    "flow.integrate.s": ("s", "lower"),
    "flow.steps_accepted": ("count", "lower"),
    "flow.steps_rejected": ("count", "lower"),
    "flow.step_accept_ratio": ("1", "higher"),
    "flow.field_evals": ("count", "lower"),
    "flow.field_evals_per_step": ("1", "lower"),
    "flow.us_per_step": ("us", "lower"),
    "flow.chart_field_compile.s": ("s", "lower"),
    "flow.best_chart.calls": ("count", "lower"),
    "flow.best_chart.s": ("s", "lower"),
    "flow.transport.calls": ("count", "lower"),
    "flow.transport.s": ("s", "lower"),
    "flow.switches": ("count", "lower"),
    "blowup.verify_intersection_table.s": ("s", "lower"),
    "blowup.engine_classes.s": ("s", "lower"),
    "weyl.gamma_full.calls": ("count", "lower"),
    "weyl.gamma_full.s": ("s", "lower"),
    "weyl.distinctness.s": ("s", "lower"),
    "lattice.ortho_complement.s": ("s", "lower"),
    "lattice.sublattice_equal.s": ("s", "lower"),
    "intlinalg.calls": ("count", "lower"),
    "intlinalg.s": ("s", "lower"),
    "cli.render.s": ("s", "lower"),
    **{f"self_s.{layer}": ("s", "lower") for layer in LAYERS},
    "trace.traced_wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_ratio": ("1", "lower"),
}

# Named parts of a layer; "<layer>.rest.s" is the layer's other outermost
# spans.
_REST = {
    "backlund": ("backlund.pii_residual", "backlund.phase_residual"),
    "atlas": ("atlas.glue_residual", "atlas.ks_cocycle",
              "atlas.hamilton_field"),
}
_INTLINALG = tuple(f"intlinalg.{n}" for n in EXPLICIT["intlinalg"])


class Tracer:
    def __init__(self):
        # (id, parent id, name, start, end, run id, outermost of its name,
        #  outermost of its layer)
        self.spans: list = []
        self.counts: Counter = Counter()
        self.rf_max_terms = 0
        self.run_id = 0
        self._stack: list = []
        self._name_depth: Counter = Counter()
        self._layer_depth: Counter = Counter()
        self._next_id = 1
        self._patches: list = []

    # -- recording ---------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own calls into a layer."""
        token = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, token)

    def _enter(self, name):
        layer = name.split(".", 1)[0]
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        outer_name = self._name_depth[name] == 0
        outer_layer = self._layer_depth[layer] == 0
        self._name_depth[name] += 1
        self._layer_depth[layer] += 1
        return sid, parent, outer_name, outer_layer, perf_counter()

    def _exit(self, name, token):
        end = perf_counter()
        sid, parent, outer_name, outer_layer, start = token
        self._stack.pop()
        self._name_depth[name] -= 1
        self._layer_depth[name.split(".", 1)[0]] -= 1
        self.spans.append((sid, parent, name, start, end, self.run_id,
                           outer_name, outer_layer))

    def record(self, name: str, start: float, end: float) -> None:
        """A span that has already ended, as a child of the open one."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self.spans.append((sid, parent, name, start, end, self.run_id,
                           True, True))

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, token)
            if after is not None:
                after(result, token[2])
            return result
        return wrapper

    # -- installation ------------------------------------------------

    def install(self) -> None:
        import p2lab
        from p2lab import (atlas, backlund, blowup, cli, exact, flow,
                           intlinalg, lattice, weyl)
        modules = {"exact": exact, "intlinalg": intlinalg,
                   "lattice": lattice, "blowup": blowup, "weyl": weyl,
                   "backlund": backlund, "atlas": atlas, "flow": flow,
                   "cli": cli}
        targets = {}
        for layer in AUTO_LAYERS:
            mod = modules[layer]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not callable(obj)
                        or inspect.isclass(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or f"{layer}.{attr}" in SKIP):
                    continue
                targets[(layer, attr)] = obj
        for layer, attrs in EXPLICIT.items():
            for attr in attrs:
                targets[(layer, attr)] = getattr(modules[layer], attr)

        after = {"exact.poly_gcd": self._after_gcd,
                 "flow.integrate": self._after_integrate}
        replace = {}
        for (layer, attr), fn in targets.items():
            name = f"{layer}.{attr}"
            replace[id(fn)] = self._wrap(name, fn, after.get(name))

        # chart_field lookups are counted, not spanned: one per field
        # evaluation inside the RK stages.
        chart_field = flow.chart_field
        counts = self.counts

        def counted_chart_field(chart):
            counts["flow.field_evals"] += 1
            return chart_field(chart)
        replace[id(chart_field)] = counted_chart_field

        # Rebind every module-level reference, including names imported
        # with ``from .x import f`` (blowup binds poly_gcd and divexact).
        for mod in list(modules.values()) + [p2lab]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and not inspect.isclass(obj):
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, replace[id(obj)])

        rf = exact.RationalFunction
        rf_init = rf.__init__
        tracer = self

        def counted_init(obj, num, den=None):
            rf_init(obj, num, den)
            counts["exact.rf_new.calls"] += 1
            n = len(obj.num.terms) + len(obj.den.terms)
            if n > tracer.rf_max_terms:
                tracer.rf_max_terms = n
        self._patches.append((rf, "__init__", rf_init))
        rf.__init__ = counted_init

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def _after_gcd(self, g, outermost):
        if outermost:
            self.counts["gcd_outer"] += 1
            if not g.is_constant():
                self.counts["gcd_outer_nontrivial"] += 1

    def _after_integrate(self, traj, outermost):
        self.counts["flow.steps_accepted"] += traj.accepted
        self.counts["flow.steps_rejected"] += traj.rejected
        self.counts["flow.switches"] += len(traj.switches)

    # -- folding -----------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics and self times from the recorded spans."""
        child_time: Counter = Counter()
        for sid, parent, name, start, end, *_ in self.spans:
            child_time[parent] += end - start
        calls: Counter = Counter()
        outer_name_s: Counter = Counter()
        outer_layer_s: Counter = Counter()
        self_s: Counter = Counter()
        for sid, parent, name, start, end, _, outer_n, outer_l in self.spans:
            dur = end - start
            calls[name] += 1
            if outer_n:
                outer_name_s[name] += dur
            if outer_l:
                outer_layer_s[name] += dur
            self_s[name] += dur - child_time[sid]

        def rest(layer):
            named = _REST[layer]
            return sum(v for k, v in outer_layer_s.items()
                       if k.startswith(layer + ".") and k not in named)

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        steps = c["flow.steps_accepted"] + c["flow.steps_rejected"]
        m = {
            "exact.poly_gcd.calls": calls["exact.poly_gcd"],
            "exact.poly_gcd.s": outer_name_s["exact.poly_gcd"],
            "exact.poly_gcd.nontrivial_ratio":
                ratio(c["gcd_outer_nontrivial"], c["gcd_outer"]),
            "exact.rf_new.calls": c["exact.rf_new.calls"],
            "exact.rf_new.max_terms": self.rf_max_terms,
            "exact.divexact.calls": calls["exact.divexact"],
            "exact.divexact.s": outer_name_s["exact.divexact"],
            "backlund.pii_residual.s": outer_name_s["backlund.pii_residual"],
            "backlund.phase_residual.s":
                outer_name_s["backlund.phase_residual"],
            "backlund.rest.s": rest("backlund"),
            "atlas.glue_residual.s": outer_name_s["atlas.glue_residual"],
            "atlas.ks_cocycle.s": outer_name_s["atlas.ks_cocycle"],
            "atlas.rest.s": rest("atlas"),
            "atlas.hamilton_field.s": outer_name_s["atlas.hamilton_field"],
            "flow.field_consistency_symbolic.s":
                outer_name_s["flow.field_consistency_symbolic"],
            "flow.integrate.s": outer_name_s["flow.integrate"],
            "flow.steps_accepted": c["flow.steps_accepted"],
            "flow.steps_rejected": c["flow.steps_rejected"],
            "flow.step_accept_ratio": ratio(c["flow.steps_accepted"], steps),
            "flow.field_evals": c["flow.field_evals"],
            "flow.field_evals_per_step": ratio(c["flow.field_evals"], steps),
            "flow.us_per_step": ratio(1e6 * outer_name_s["flow.integrate"],
                                      c["flow.steps_accepted"]),
            "flow.chart_field_compile.s":
                outer_name_s["flow.chart_field_compile"],
            "flow.best_chart.calls": calls["flow.best_chart"],
            "flow.best_chart.s": outer_name_s["flow.best_chart"],
            "flow.transport.calls": calls["flow.transport"],
            "flow.transport.s": outer_name_s["flow.transport"],
            "flow.switches": c["flow.switches"],
            "blowup.verify_intersection_table.s":
                outer_name_s["blowup.verify_intersection_table"],
            "blowup.engine_classes.s": outer_name_s["blowup.engine_classes"],
            "weyl.gamma_full.calls": calls["weyl.gamma_full"],
            "weyl.gamma_full.s": outer_name_s["weyl.gamma_full"],
            "weyl.distinctness.s": outer_name_s["weyl.distinctness"],
            "lattice.ortho_complement.s":
                outer_name_s["lattice.ortho_complement"],
            "lattice.sublattice_equal.s":
                outer_name_s["lattice.sublattice_equal"],
            "intlinalg.calls": sum(calls[n] for n in _INTLINALG),
            "intlinalg.s": sum(outer_layer_s[n] for n in _INTLINALG),
            "cli.render.s": self_s["cli.run"],
        }
        layer_self: Counter = Counter()
        for name, v in self_s.items():
            layer_self[name.split(".", 1)[0]] += v
        for layer in LAYERS:
            m[f"self_s.{layer}"] = layer_self[layer]
        return {"metrics": m, "spans": len(self.spans),
                "calib_s": layer_self["calib"]}
