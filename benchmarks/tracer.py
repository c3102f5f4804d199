"""Span tracing of toric_additive's public functions, from outside the package.

A Tracer replaces each traced function, in every toric_additive module that
holds a reference to it, by a wrapper that records one span per call: name,
parent span, start, duration and self time (duration minus the time covered
by child spans).  Spans stay in memory until the caller writes them out.
Counters are read at the same boundaries from arguments and results.
The package itself is never edited; ``uninstall`` restores every reference.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter_ns

# layer (module) -> public functions traced in it
SPANS = {
    "sweep": ("primitive_pool", "enumerate_complete_fans", "run_sweep"),
    "fan": ("build_fan",),
    "roots": ("roots_by_ray", "all_roots"),
    "additive": ("find_admissible_basis", "all_admissible_bases",
                 "complete_collections", "classify"),
    "coxring": ("build_lnd_family", "emit_actions"),
    "verify": ("verification_report", "check_roots_box_oracle",
               "brute_force_roots", "check_cone_condition_redundant",
               "check_collections_bases_bijection", "check_bracket_table",
               "check_grading_relations", "check_root_lnd_degree_zero",
               "check_identity_at_zero", "check_group_law",
               "check_homogeneous_images", "check_open_orbit",
               "distinguish_actions"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in SPANS.items()
                   for fn in fns)

# name -> (unit, better) of every counter ``Tracer.counters`` reports
COUNTERS = {
    "sweep.admitting_ratio": ("ratio", "higher"),
    "sweep.light_s": ("s", "lower"),
    "roots.roots_found": ("count", "lower"),
    "additive.bases_per_pair": ("ratio", "higher"),
    "coxring.action_terms": ("count", "lower"),
    "coxring.max_exponent": ("count", "lower"),
    "verify.box_cells": ("count", "lower"),
    "verify.box_hit_ratio": ("ratio", "higher"),
}


class Tracer:
    def __init__(self, clock=perf_counter_ns) -> None:
        self._clock = clock
        # (trace, id, parent, name, start_ns, dur_ns, self_ns) per span
        self.spans: list[tuple] = []
        self.trace_id = 0
        self._next_id = 0
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._patched: list[tuple[object, str, object]] = []
        self._raw = {"roots_found": 0, "bases": 0, "pairs": 0, "terms": 0,
                     "max_exp": 0, "cells": 0, "hits": 0, "sweep_total": 0,
                     "sweep_admitting": 0, "light_s": 0.0}

    # -- span bookkeeping -------------------------------------------------
    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([sid, 0])
        return sid, parent

    def _close(self, name: str, sid: int, parent: int | None, start: int,
               dur: int) -> None:
        _, covered = self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dur
        self.spans.append((self.trace_id, sid, parent, name, start, dur,
                           dur - covered))

    def _wrap(self, name: str, fn):
        count = getattr(self, "_count_" + fn.__name__, None)
        sig = inspect.signature(fn) if count is not None else None

        if inspect.isgeneratorfunction(fn):
            # The span covers only the time spent inside the generator's own
            # frames, so the consumer's loop body stays in the parent's self
            # time.  Each resumption is charged to whichever span is open.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                sid = self._next_id
                self._next_id += 1
                parent = self._stack[-1][0] if self._stack else None
                first = self._clock()
                active = 0
                try:
                    while True:
                        t = self._clock()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            dt = self._clock() - t
                            active += dt
                            if self._stack:
                                self._stack[-1][1] += dt
                        yield item
                finally:
                    gen.close()
                    self.spans.append((self.trace_id, sid, parent, name,
                                       first, active, active))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            start = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, sid, parent, start, self._clock() - start)
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(bound.arguments, result)
            return result
        return wrapper

    # -- counters, read where the work happens ----------------------------
    def _count_run_sweep(self, args, report) -> None:
        self._raw["sweep_total"] += report.total_fans
        self._raw["sweep_admitting"] += report.admitting
        self._raw["light_s"] += report.t_enumerate_light

    def _count_roots_by_ray(self, args, per_ray) -> None:
        self._raw["roots_found"] += sum(len(rs) for rs in per_ray)

    def _count_all_admissible_bases(self, args, bases) -> None:
        n = len(args["rays"])
        self._raw["bases"] += len(bases)
        self._raw["pairs"] += n * (n - 1)

    def _count_emit_actions(self, args, actions) -> None:
        for action in actions:
            if action is None:
                continue
            for p in action.images:
                self._raw["terms"] += len(p.terms)
                for exps in p.terms:
                    self._raw["max_exp"] = max(self._raw["max_exp"],
                                               max(exps))

    def _count_brute_force_roots(self, args, found) -> None:
        self._raw["cells"] += (2 * args["box"] + 1) ** 2
        self._raw["hits"] += len(found)

    def counters(self) -> dict[str, float]:
        r = self._raw
        return {
            "sweep.admitting_ratio":
                r["sweep_admitting"] / r["sweep_total"]
                if r["sweep_total"] else 0.0,
            "sweep.light_s": r["light_s"],
            "roots.roots_found": r["roots_found"],
            "additive.bases_per_pair":
                r["bases"] / r["pairs"] if r["pairs"] else 0.0,
            "coxring.action_terms": r["terms"],
            "coxring.max_exponent": r["max_exp"],
            "verify.box_cells": r["cells"],
            "verify.box_hit_ratio":
                r["hits"] / r["cells"] if r["cells"] else 0.0,
        }

    # -- installing the wrappers ------------------------------------------
    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and name.split(".")[0] == "toric_additive"]
        for layer, fns in SPANS.items():
            home = sys.modules[f"toric_additive.{layer}"]
            for fn_name in fns:
                orig = getattr(home, fn_name)
                wrapped = self._wrap(f"{layer}.{fn_name}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def totals(self) -> dict[str, tuple[int, int]]:
        """Span name -> (calls, summed self time in ns)."""
        out = {name: [0, 0] for name in SPAN_NAMES}
        for _, _, _, name, _, _, self_ns in self.spans:
            out[name][0] += 1
            out[name][1] += self_ns
        return {name: (calls, ns) for name, (calls, ns) in out.items()}
