"""Layer tracing from outside the program: timing wrappers on repro's
public entry points, one layer per module.

:func:`install` replaces each listed function (in every ``repro``
module that imported it) and each listed method (on its class) by a
wrapper that records a span: layer, start, end, parent span, and the
request or file it belongs to.  A layer's *self* time is its span's
CPU time minus the CPU time of the spans nested in it, so time spent
in, say, a theory check called from the SAT loop is charged to the
theory layer only.  A call made while the same layer is already the
innermost span (recursion, or one public entry calling another) is
part of the open span and opens none.  Counts are taken in the same
wrappers.  Spans stay in memory until :meth:`LayerTracer.write`.
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

_clock = time.process_time


class LayerTracer:
    def __init__(self) -> None:
        #: open spans: [layer, start, child CPU, span index]
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        #: inclusive CPU time, for the few metrics that are defined so
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.layer_ids: dict[str, int] = {}
        #: one entry per span, parallel arrays to keep memory small
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_group = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        #: the request or file the following spans belong to
        self.group = 0

    # -- wrapping ---------------------------------------------------------

    def wrap(self, layer: str, func, before=None, after=None):
        """``func`` timed as ``layer``; hooks see args, result, CPU time."""
        stack = self.stack
        layer_id = self.layer_ids.setdefault(layer, len(self.layer_ids))

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return func(*args, **kwargs)
            state = before(args) if before is not None else None
            index = len(self.span_layer)
            self.span_layer.append(layer_id)
            self.span_parent.append(stack[-1][3] if stack else -1)
            self.span_group.append(self.group)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [layer, 0.0, 0.0, index]
            stack.append(frame)
            frame[1] = start = _clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                elapsed = end - start
                self.span_start[index] = start
                self.span_end[index] = end
                self.self_s[layer] += elapsed - frame[2]
                self.total_s[layer] += elapsed
                if stack:
                    stack[-1][2] += elapsed
            if after is not None:
                after(args, result, state, elapsed)
            return result

        return wrapper

    def patch_method(self, cls, name: str, layer: str, **hooks) -> None:
        setattr(cls, name, self.wrap(layer, cls.__dict__[name], **hooks))

    def patch_function(self, module: str, name: str, layer: str, **hooks):
        """Wrap ``module.name`` wherever a repro module holds it."""
        original = getattr(importlib.import_module(module), name)
        wrapper = self.wrap(layer, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    # -- output -----------------------------------------------------------

    def write(self, path: str) -> None:
        """One JSON line per span: id, parent, layer, group, start, end."""
        names = {i: name for name, i in self.layer_ids.items()}
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(len(self.span_start)):
                handle.write(json.dumps([
                    i, self.span_parent[i], names[self.span_layer[i]],
                    self.span_group[i], round(self.span_start[i], 7),
                    round(self.span_end[i], 7),
                ]) + "\n")


def install() -> LayerTracer:
    """Wrap every layer boundary; returns the tracer collecting spans."""
    # Import everything first so patch_function sees every alias.
    for module in (
        "repro.api", "repro.verify.verifier", "repro.verify.parallel",
        "repro.verify.daemon.server", "repro.verify.totality",
        "repro.smt.backend", "repro.smt.theory",
    ):
        importlib.import_module(module)
    from repro.smt import cache, cnf, euf, plugin, sat, solver, theory
    from repro.smt.backend import IncrementalBackend
    from repro.verify import solving, tiered, translate
    from repro.verify.daemon import server

    t = LayerTracer()
    counts = t.counts

    def count(name):
        def after(args, result, state, elapsed):
            counts[name] += 1
        return after

    def parsed(args, result, state, elapsed):
        counts["lang.parses"] += 1
        counts["lang.bytes"] += len(args[0].encode("utf-8"))

    def switch(args, result, state, elapsed):
        counts["tiered.switches"] += 1
        if result is not None:
            counts["tiered.decided"] += 1

    def lookup(args, result, state, elapsed):
        counts["cache.lookups"] += 1
        counts[f"cache.{args[1].tier}"] += 1

    def passes_before(args):
        return args[0].stats.deepening_passes

    def solver_check(args, result, state, elapsed):
        counts["solver.checks"] += 1
        counts["solver.deepening_passes"] += (
            args[0].stats.deepening_passes - state
        )

    def expanded(args, result, state, elapsed):
        counts["plugin.expands"] += 1
        counts["plugin.axioms"] += len(result)

    def theory_check(args, result, state, elapsed):
        counts["theory.checks"] += 1
        if result.consistent:
            t.total_s["theory.consistent"] += elapsed
        else:
            counts["theory.conflicts"] += 1
            t.total_s["theory.conflict"] += elapsed

    t.patch_function("repro.lang.parser", "parse_program", "lang.parse",
                     after=parsed)
    t.patch_function("repro.lang.check", "analyze", "lang.check")
    t.patch_method(tiered.PatternAlgebra, "analyze_switch", "tiered",
                   after=switch)
    for name in ("vf", "vm", "vp"):
        t.patch_method(translate.Translator, name, "translate",
                       after=count("translate.calls"))
    for name in ("extract_matches", "extract_ensures"):
        t.patch_function("repro.verify.extract", name, "extract")
    t.patch_method(solving.SolverSession, "check", "solving",
                   after=count("solving.queries"))
    t.patch_method(cache.SolverCache, "fingerprint", "cache.fingerprint")
    t.patch_method(cache.SolverCache, "lookup", "cache.lookup", after=lookup)
    t.patch_method(cache.SolverCache, "store", "cache.store")
    t.patch_method(IncrementalBackend, "_model_query", "backend.model",
                   after=count("backend.model_queries"))
    t.patch_method(solver.Solver, "check", "solver", before=passes_before,
                   after=solver_check)
    for name in ("assert_term", "assert_clause_terms"):
        t.patch_method(cnf.CnfBuilder, name, "cnf")
    t.patch_method(sat.SatSolver, "solve", "sat", after=count("sat.solves"))
    for cls in (plugin.LazyTheoryPlugin, plugin.PluginView):
        t.patch_method(cls, "expand", "plugin", after=expanded)
    t.patch_method(theory.TheoryContext, "check", "theory",
                   after=theory_check)
    t.patch_function("repro.smt.theory", "check_literals", "theory",
                     after=theory_check)
    for name in ("assert_eq", "assert_ne", "assert_pred", "_settle"):
        t.patch_method(euf.EufSolver, name, "euf")
    t.patch_method(euf.EufSolver, "check", "euf", after=count("euf.checks"))
    t.patch_function("repro.smt.lia", "solve", "lia",
                     after=count("lia.solves"))
    t.patch_method(server.VerifyDaemon, "handle_request", "daemon")
    t.patch_function("repro.verify.daemon.index", "fingerprint_tasks",
                     "daemon")
    return t


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(t: LayerTracer) -> dict[str, float]:
    """The per-layer metrics one traced pass yields (CPU seconds, counts)."""
    s, total, c = t.self_s, t.total_s, t.counts
    hits = c["cache.memory"] + c["cache.disk"]
    return {
        "lang.parse_s": s["lang.parse"],
        "lang.check_s": s["lang.check"],
        "lang.bytes_per_s": _share(c["lang.bytes"], s["lang.parse"]),
        "tiered.switches": c["tiered.switches"],
        "tiered.discharged_share": _share(
            c["tiered.decided"], c["tiered.switches"]
        ),
        "tiered.s": s["tiered"],
        "translate.s": s["translate"],
        "translate.calls": c["translate.calls"],
        "extract.s": s["extract"],
        "solving.queries": c["solving.queries"],
        "solving.s": s["solving"],
        "cache.fingerprint_s": s["cache.fingerprint"],
        "cache.lookup_s": s["cache.lookup"],
        "cache.store_s": s["cache.store"],
        "cache.hit_share": _share(hits, c["cache.lookups"]),
        "cache.memory_hits": c["cache.memory"],
        "cache.disk_hits": c["cache.disk"],
        "backend.model_queries": c["backend.model_queries"],
        "backend.model_s": total["backend.model"],
        "solver.checks": c["solver.checks"],
        "solver.deepening_passes": c["solver.deepening_passes"],
        "solver.s": s["solver"],
        "cnf.encode_s": s["cnf"],
        "sat.solves": c["sat.solves"],
        "sat.s": s["sat"],
        "plugin.expands": c["plugin.expands"],
        "plugin.axioms": c["plugin.axioms"],
        "plugin.expand_s": s["plugin"],
        "theory.checks": c["theory.checks"],
        "theory.conflicts": c["theory.conflicts"],
        "theory.conflict_s": total["theory.conflict"],
        "theory.consistent_s": total["theory.consistent"],
        "theory.s": s["theory"],
        "euf.checks": c["euf.checks"],
        "euf.s": s["euf"],
        "lia.solves": c["lia.solves"],
        "lia.s": s["lia"],
        "daemon.s": s["daemon"],
    }
