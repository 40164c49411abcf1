"""Span tracing of bwrsim from outside its source.

`Tracer.install` replaces the public functions and methods of each bwrsim
module with wrappers that record a span (name, start, end, parent span, run
id) whenever a call crosses from one layer into another. A layer is the
module a function is defined in. Calls that stay inside one layer are not
recorded: their time stays in the caller's span of the same layer, so
per-layer self time is the same either way and the span count stays small.

Event callbacks are attributed by wrapping `Simulator.schedule_at` and
`schedule_in`: every scheduled function is wrapped in a span named after
its qualified name, in the layer of its module. Nothing in the program's
own files changes.

Spans live in typed arrays (about 29 bytes each) and are written out once
the run ends. `analyze` derives per-layer self times from them.
"""

from __future__ import annotations

import functools
import inspect
import json
import operator
import time
from array import array

LAYERS = ("core", "lte", "docsis", "bwr", "traffic", "metrics", "runner",
          "config", "other")
MODULE_LAYER = {f"bwrsim.{name}": name for name in LAYERS[:-1]}

RUN_UNTIL = "Simulator.run_until"
# Spans recorded even when caller and callee share a layer, because a metric
# is read from their duration.
NAMED = {RUN_UNTIL, "Cmts.map_cycle", "Cm.enqueue_chunks", "run_single",
         "run_scenario", "paired_deltas", "RunReport.render"}
# Post-run result processing: metrics.post_s.
POST = {"Collector.retained", "summarize", "cdf", "paired_deltas",
        "RunReport.render"}
# Left unwrapped: heap internals compared inside heapq, the probe's own
# sampling call, and the schedulers, which get their own wrapper.
SKIP_CLASSES = {"Event"}
SKIP_METHODS = {("Simulator", "pending"), ("Simulator", "schedule_at"),
                ("Simulator", "schedule_in")}


class Tracer:
    """Records spans at layer boundaries and counts at chosen calls."""

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("i")
        self.run_of = array("b")
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self._ids: dict[str, int] = {}
        self._callbacks: dict[object, int] = {}
        self._stack = [-1]          # open span indices
        self._layers = [-1]         # layer id of each open span
        self.run = 0                # set by the probe: 1-based mode index
        self.counts: dict[tuple[int, str], float] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(LAYERS.index(layer))
        return nid

    def count(self, key: str, delta: float = 1) -> None:
        k = (self.run, key)
        self.counts[k] = self.counts.get(k, 0) + delta

    def span(self, fn, nid: int, always: bool):
        """Wrap fn so that a call records span nid (unless layer-internal)."""
        S, E, P, N, R = self.start, self.end, self.parent, self.name, self.run_of
        stack, layers = self._stack, self._layers
        lid = self.name_layer[nid]
        pc = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not always and layers[-1] == lid:
                return fn(*args, **kwargs)
            i = len(S)
            P.append(stack[-1])
            N.append(nid)
            R.append(tracer.run)
            E.append(0.0)
            stack.append(i)
            layers.append(lid)
            S.append(pc())
            try:
                return fn(*args, **kwargs)
            finally:
                E[i] = pc()
                stack.pop()
                layers.pop()

        traced._bench_span = True
        return traced

    def callback(self, fn):
        """Span wrapper for an event callback, attributed by its module."""
        func = getattr(fn, "__func__", fn)
        key = getattr(func, "__code__", func)
        nid = self._callbacks.get(key)
        if nid is None:
            layer = MODULE_LAYER.get(getattr(func, "__module__", ""), "other")
            qual = getattr(func, "__qualname__", repr(func))
            nid = self._callbacks[key] = self.name_id(qual, layer)
        return self.span(fn, nid, True)

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules: dict, hooks: dict) -> None:
        """Wrap the public functions of each module named in MODULE_LAYER.

        `hooks` maps a span name to a function hook(orig) -> replacement that
        counts around the original; the replacement runs inside the span.
        """
        wrapped: dict[object, object] = {}
        for modname, layer in MODULE_LAYER.items():
            mod = modules[modname]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isclass(obj):
                    if issubclass(obj, BaseException) or attr in SKIP_CLASSES:
                        continue
                    for mname, fn in list(vars(obj).items()):
                        if (mname.startswith("_") or not inspect.isfunction(fn)
                                or (attr, mname) in SKIP_METHODS):
                            continue
                        self._set(obj, mname, self._wrap(fn, f"{attr}.{mname}",
                                                         layer, hooks))
                elif inspect.isfunction(obj):
                    w = self._wrap(obj, attr, layer, hooks)
                    self._set(mod, attr, w)
                    wrapped[obj] = w
        # `from .x import f` copies: point them at the wrappers too.
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
        sim_cls = modules["bwrsim.core"].Simulator
        for attr in ("schedule_at", "schedule_in"):
            self._set(sim_cls, attr, self._scheduler(getattr(sim_cls, attr), attr))

    def _wrap(self, fn, name: str, layer: str, hooks: dict):
        hook = hooks.get(name)
        inner = hook(fn) if hook is not None else fn
        w = self.span(inner, self.name_id(name, layer), name in NAMED)
        return functools.update_wrapper(w, fn, updated=())

    def _scheduler(self, orig, attr: str):
        """schedule_at/in: a core span that wraps the callback on its way in."""
        callback = self.callback

        def schedule(sim, when, priority, fn, *args):
            if not getattr(fn, "_bench_span", False):
                fn = callback(fn)
            return orig(sim, when, priority, fn, *args)

        w = self.span(schedule, self.name_id(f"Simulator.{attr}", "core"), False)
        return functools.update_wrapper(w, orig, updated=())

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------------

    def analyze(self, phases: dict) -> dict:
        """Per-layer self time and named durations, keyed by run id.

        phases: {"first_single": t, "last_single_end": t} from the probe, to
        split run-id-0 spans into config parsing (before) and post (after).
        """
        S, E, P, N, R = self.start, self.end, self.parent, self.name, self.run_of
        n = len(S)
        dur = array("d", map(operator.sub, E, S))
        self_t = array("d", dur)
        under = bytearray(n)
        ru = self._ids.get(RUN_UNTIL, -1)
        for i in range(n):
            p = P[i]
            if N[i] == ru:
                under[i] = 1
            elif p >= 0:
                under[i] = under[p]
            if p >= 0:
                self_t[p] -= dur[i]
        layer_of = self.name_layer
        cfg = LAYERS.index("config")
        post_ids = {self._ids[x] for x in POST if x in self._ids}
        out = {"self": {}, "named": {}, "config": {}, "post_s": 0.0,
               "config_parse_s": 0.0}
        self_by, named = out["self"], out["named"]
        first, last = phases["first_single"], phases["last_single_end"]
        for i in range(n):
            r, nid, p = R[i], N[i], P[i]
            if under[i]:
                k = (r, LAYERS[layer_of[nid]])
                self_by[k] = self_by.get(k, 0.0) + self_t[i]
            k = (r, self.names[nid])
            named[k] = named.get(k, 0.0) + dur[i]
            if under[i]:
                continue
            outer_cfg = layer_of[nid] == cfg and (p < 0 or layer_of[N[p]] != cfg)
            if r:
                if outer_cfg:
                    out["config"][r] = out["config"].get(r, 0.0) + dur[i]
            elif S[i] < first:
                if outer_cfg:
                    out["config_parse_s"] += dur[i]
            elif S[i] >= last and nid in post_ids and (p < 0 or N[p] not in post_ids):
                out["post_s"] += dur[i]
        out["spans"] = n
        return out

    def write(self, path: str) -> None:
        """Spans as raw arrays (start, end: f64; parent, name: i32; run: i8)."""
        with open(path + ".bin", "wb") as fh:
            for arr in (self.start, self.end, self.parent, self.name, self.run_of):
                arr.tofile(fh)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"spans": len(self.start), "clock": "time.perf_counter",
                       "arrays": ["start:d", "end:d", "parent:i", "name:i", "run:b"],
                       "names": self.names,
                       "layers": [LAYERS[x] for x in self.name_layer]}, fh)
