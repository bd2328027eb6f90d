"""Traced run: spans and counters recorded around the program's public functions.

The tracer wraps, from outside the program, the functions each module calls
into, and replaces every module-level reference to them (so `from .x import f`
copies are wrapped too). Each wrapped call adds its time to its layer; the
layer's self time is that time minus the time of wrapped calls nested inside
it. Coarse calls (a report, a checker row, an orbit sweep, a region chain, a
scalar orbit, the bound helpers) also record a span: name, start, end, parent
span and report id. Per-point calls (apply, apply_batch, step_region, word
encoding and distances, point serialization) add only to counters and times,
so the span list stays small. A function the program no longer defines is
skipped and its metrics read 0.

`uninstall` restores every reference, so untraced and traced rounds can
alternate in one process.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import defaultdict
from time import perf_counter

from workloads import PROPERTIES

LAYERS = (
    "report", "family", "checkers", "orbit_sweep", "scalar_orbit",
    "regions", "descriptors", "space", "bounds",
)

#: metric name -> unit, in the order they are reported
METRICS = {
    "report.rows": "count",
    "report.json_s": "s",
    "family.profile_s": "s",
    **{f"checkers.{p}_s": "s" for p in PROPERTIES},
    "orbit_sweep.calls": "count",
    "orbit_sweep.point_steps": "count",
    "orbit_sweep.s": "s",
    "orbit_sweep.distinct_ratio": "ratio",
    "scalar_orbit.point_steps": "count",
    "scalar_orbit.s": "s",
    "region_chain.steps": "count",
    "region_chain.s": "s",
    "region_chain.distinct_ratio": "ratio",
    "descriptors.apply.calls": "count",
    "descriptors.apply_batch.calls": "count",
    "descriptors.apply_batch.s": "s",
    "space.binary_words_built": "count",
    "space.encode_word.calls": "count",
    "space.word_distance.calls": "count",
    "space.word_distance.s": "s",
    "space.point_to_json.calls": "count",
    "bounds.deviation_s": "s",
    "bounds.deviation_map_steps": "count",
    "bounds.collective_s": "s",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
}


def _mode(sys_view) -> str:
    return getattr(getattr(sys_view, "mode", None), "value", "?")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, report]
        self.counts: dict[str, int] = defaultdict(int)
        self.times: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.report_id: str | None = None
        self._stack: list[list] = []  # [child time, span index for children]
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple] = []
        self._columns: set = set()
        self._chains: set = set()
        self._t0 = perf_counter()

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, layer: str, name: str, *, count=None, span=None, before=None, after=None):
        """Wrap fn: time it into `layer`, into metric `name` for outermost
        calls, add one to counter `count`, and record a span when `span`
        gives one (a name or a function of the call's arguments)."""
        stack, active, spans = self._stack, self._active, self.spans
        times, self_time, counts = self.times, self.self_time, self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            if before is not None:
                before(args, kwargs)
            parent = stack[-1][1] if stack else -1
            if span is not None:
                idx = len(spans)
                label = span if isinstance(span, str) else span(args)
                spans.append([label, 0.0, 0.0, parent, tracer.report_id])
                frame = [0.0, idx]
            else:
                frame = [0.0, parent]
            active[name] += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[name] -= 1
                dt = t1 - t0
                self_time[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if not active[name]:
                    times[name] += dt
                if span is not None:
                    spans[idx][1] = t0 - tracer._t0
                    spans[idx][2] = t1 - tracer._t0
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace_everywhere(self, orig, new) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "nonautodyn" and not mod_name.startswith("nonautodyn."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def _patch_function(self, module, attr: str, layer: str, name: str, **kw) -> None:
        orig = getattr(module, attr, None)
        if orig is None:
            return
        self._replace_everywhere(orig, self.wrap(orig, layer, name, **kw))

    def _patch_method(self, cls, attr: str, layer: str, name: str, **kw) -> None:
        orig = cls.__dict__.get(attr) if cls is not None else None
        if orig is None:
            return
        self._patches.append((cls, attr, orig))
        setattr(cls, attr, self.wrap(orig, layer, name, **kw))

    def install(self) -> None:
        from nonautodyn import bounds, checkers, descriptors, family, regions, report, space

        counts = self.counts
        active = self._active

        def set_report(args, kwargs):
            self.report_id = getattr(args[0], "label", None)

        def count_rows(args, out):
            counts["report.rows"] += len(getattr(out, "rows", ()))

        def sweep(args, kwargs):
            sys_view, coords, horizon = args[:3]
            counts["orbit_sweep.calls"] += 1
            counts["orbit_sweep.columns"] += len(coords)
            counts["orbit_sweep.point_steps"] += int(horizon) * len(coords)
            key = (self.report_id, _mode(sys_view), int(horizon))
            self._columns.update((key, c) for c in coords.tolist())

        def scalar(args, kwargs):
            counts["scalar_orbit.point_steps"] += int(args[2] if len(args) > 2 else kwargs["horizon"])

        def chain(args, kwargs):
            sys_view, start, horizon = args[:3]
            counts["region_chain.chains"] += 1
            self._chains.add((self.report_id, _mode(sys_view), start, int(horizon)))

        def apply_call(args, kwargs):
            if active["bounds.deviation_s"] and not active["descriptors.apply"]:
                counts["bounds.deviation_map_steps"] += 1

        self._patch_method(report.ComparisonReport, "to_json_text", "report", "report.json_s",
                           span="report.json")
        self._patch_function(report, "run_comparison", "report", "report.run_comparison",
                             span="report", before=set_report, after=count_rows)
        self._patch_function(family, "profile_hypotheses", "family", "family.profile_s",
                             span="family.profile")
        for prop, rule in list(getattr(report, "PROPERTY_BY_NAME", {}).items()):
            runner = self.wrap(rule.runner, "checkers", f"checkers.{prop}_s",
                               span=lambda args, p=prop: f"checkers.{p}[{_mode(args[0])}]")
            report.PROPERTY_BY_NAME[prop] = dataclasses.replace(rule, runner=runner)
            self._patches.append((report.PROPERTY_BY_NAME, prop, rule))
        self._patch_function(checkers, "orbit_matrix", "orbit_sweep", "orbit_sweep.s",
                             span="orbit_sweep", before=sweep)
        self._patch_method(getattr(checkers, "SystemView", None), "orbit", "scalar_orbit",
                           "scalar_orbit.s", span="scalar_orbit", before=scalar)
        self._patch_function(checkers, "_region_chain", "regions", "region_chain.chain_s",
                             span="region_chain", before=chain)
        self._patch_function(regions, "step_region", "regions", "region_chain.s",
                             count="region_chain.steps")
        self._patch_function(descriptors, "apply", "descriptors", "descriptors.apply",
                             count="descriptors.apply.calls", before=apply_call)
        self._patch_function(descriptors, "apply_batch", "descriptors", "descriptors.apply_batch.s",
                             count="descriptors.apply_batch.calls")
        self._patch_method(getattr(space, "BinaryWord", None), "__post_init__", "space",
                           "space.binary_word", count="space.binary_words_built")
        self._patch_function(space, "encode_word", "space", "space.encode_word",
                             count="space.encode_word.calls")
        self._patch_function(space, "word_distance_batch", "space", "space.word_distance.s",
                             count="space.word_distance.calls")
        self._patch_function(space, "point_to_json", "space", "space.point_to_json",
                             count="space.point_to_json.calls")
        self._patch_function(bounds, "deviation_series", "bounds", "bounds.deviation_s",
                             span="bounds.deviation")
        self._patch_function(bounds, "collective_convergence_profile", "bounds",
                             "bounds.collective_s", span="bounds.collective")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, unit in METRICS.items():
            if name.startswith("self_s."):
                out[name] = self.self_time.get(name[len("self_s."):], 0.0)
            elif unit == "count":
                out[name] = self.counts.get(name, 0)
            else:
                out[name] = self.times.get(name, 0.0)
        cols = self.counts.get("orbit_sweep.columns", 0)
        out["orbit_sweep.distinct_ratio"] = len(self._columns) / cols if cols else 0.0
        chains = self.counts.get("region_chain.chains", 0)
        out["region_chain.distinct_ratio"] = len(self._chains) / chains if chains else 0.0
        return out

    def dump(self) -> dict:
        return {
            "span_fields": ["name", "start_s", "end_s", "parent", "report"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "times_s": dict(self.times),
            "self_s": dict(self.self_time),
        }
