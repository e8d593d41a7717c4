"""Outside-in tracer for the mixbound modules.

``Tracer.install()`` rebinds the public functions of every mixbound module
(and the names other modules import from them, the registries that hold
function references, and a few hot methods) to timing wrappers;
``uninstall()`` puts the originals back.  No library file is touched.

Every wrapped call pushes a frame so that self time (duration minus the time
of nested wrapped calls) lands in the layer that defined the function.
Ordinary calls also record a span (id, parent id, name, start, end); hot
scalar calls (``MixingProfile.theta``, ``NormFamily.norm``, quantile-curve
constructors and class-member callables) only feed counters and aggregate
timers, so memory stays bounded however often they run.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("grid", "mixing", "norms", "rates", "chaining", "processes",
           "coupling", "function_classes", "acceptance", "report", "cli")
KINDS = ("iid", "ar1", "ma", "lazy_renewal")
CRITERIA = tuple(f"A{i}" for i in range(1, 15))
LAYERS_WITH_SELF = ("grid", "mixing", "norms", "rates", "chaining", "processes",
                    "coupling", "acceptance", "cli", "report")


def _layer(fn) -> str:
    return fn.__module__.split(".")[-1]


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []   # frames: [child seconds, span id]
        self._next_id = 1
        self._patches: list[tuple[object, str, object, bool]] = []
        self._wrapped: dict[int, object] = {}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, hot: bool = False, hook=None):
        key = id(fn)
        if key in self._wrapped:
            return self._wrapped[key]
        perf = time.perf_counter
        stack = self._stack
        calls, total, self_s, spans = self.calls, self.total_s, self.self_s, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            if hot:
                span_id = parent
            else:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                self_s[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                calls[name] += 1
                total[name] += dur
                if not hot:
                    spans.append((span_id, parent, name, t0, t1))
            if hook is not None:
                hook(args, kwargs, result, dur)
            return result

        self._wrapped[key] = wrapper
        return wrapper

    def _set(self, owner, attr: str, value, is_item: bool = False) -> None:
        if is_item:
            original = owner[attr]
        elif isinstance(owner, type):
            original = vars(owner)[attr]   # keeps classmethod objects intact
        else:
            original = getattr(owner, attr)
        self._patches.append((owner, attr, original, is_item))
        if is_item:
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def _bound(self, fn, hook):
        """Adapt a hook over bound arguments (for rarely called functions)."""
        sig = inspect.signature(fn)

        def adapted(args, kwargs, result, dur):
            hook(sig.bind(*args, **kwargs).arguments, result, dur)
        return adapted

    def install(self) -> "Tracer":
        mods = {m: importlib.import_module(f"mixbound.{m}") for m in MODULES}
        counts, seconds = self.counts, self.seconds

        def on_simulate(a, result, dur):
            kind = a["model"].kind
            counts[f"processes.path_steps.{kind}"] += a["n"] * a["reps"]
            seconds[f"processes.simulate_s.{kind}"] += dur

        def on_replicate(a, result, dur):
            kind = a["model"].kind
            reps, n = a["values"].shape
            counts[f"coupling.replica_blocks.{kind}"] += reps * (n // a["q"])
            seconds[f"coupling.replicate_s.{kind}"] += dur

        def on_tau(a, result, dur):
            counts["mixing.tau_draws"] += a["outer_reps"] * a["inner_reps"] * a["q"]

        def on_text(args, kwargs, result, dur):
            counts["report.bytes"] += len(result.encode("utf-8"))

        hooks = {
            "processes._simulate_core": self._bound(
                mods["processes"]._simulate_core, on_simulate),
            "coupling.replicate_many": self._bound(
                mods["coupling"].replicate_many, on_replicate),
            "mixing.estimate_tau": self._bound(mods["mixing"].estimate_tau, on_tau),
            "report.dumps_canonical": on_text,
        }
        criteria = {fn: cid for cid, fn in mods["acceptance"].CRITERIA.items()}
        ch = mods["chaining"]
        orig_parts = ch.partitions_into_at_most

        # Public module functions, including names rebound by ``from .x import y``.
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or not obj.__module__.startswith("mixbound."):
                    continue
                if attr.startswith("_") and attr != "_simulate_core" or obj is orig_parts:
                    continue
                layer = _layer(obj)
                name = f"acceptance.{criteria[obj]}" if obj in criteria \
                    else f"{layer}.{obj.__name__}"
                self._set(mod, attr, self._wrap(obj, name, layer, hook=hooks.get(name)))

        acc = mods["acceptance"].CRITERIA
        for cid, fn in list(acc.items()):
            self._set(acc, cid, self._wrap(fn, f"acceptance.{cid}", "acceptance"), True)

        # Generator: count yielded partitions; its time stays with the caller.
        @functools.wraps(orig_parts)
        def counting_partitions(*args, **kwargs):
            for part in orig_parts(*args, **kwargs):
                counts["chaining.partitions"] += 1
                yield part
        self._set(ch, "partitions_into_at_most", counting_partitions)

        # Hot methods: counters and aggregate timers only.
        mx, nm, rp = mods["mixing"], mods["norms"], mods["report"]
        self._set(mx.MixingProfile, "theta",
                  self._wrap(mx.MixingProfile.theta, "mixing.theta", "mixing", hot=True))
        self._set(ch.NormFamily, "norm",
                  self._wrap(ch.NormFamily.norm, "chaining.norm", "chaining", hot=True))
        for attr in ("from_discrete", "constant"):
            raw = vars(nm.QuantileCurve)[attr].__func__
            self._set(nm.QuantileCurve, attr, classmethod(
                self._wrap(raw, f"norms.curve.{attr}", "norms", hot=True)))
        self._set(rp.ExperimentReport, "to_json",
                  self._wrap(rp.ExperimentReport.to_json, "report.to_json", "report",
                             hook=on_text))

        # Class-member callables are looked up in this table by make_class.
        fc = mods["function_classes"]
        defs = fc._MEMBER_DEFS
        for member, (func, sup, lip) in list(defs.items()):
            wrapped = self._wrap(func, f"function_classes.member.{member}",
                                 "function_classes.member", hot=True)
            self._set(defs, member, (wrapped, sup, lip), True)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, is_item = self._patches.pop()
            if is_item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------

    def _sum(self, prefix: str, field: dict) -> float:
        return sum(v for k, v in field.items() if k.startswith(prefix))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and seconds under the names BENCHMARK.json lists."""
        c, t, cnt, secs = self.calls, self.total_s, self.counts, self.seconds
        out: dict[str, float] = {}
        for layer in LAYERS_WITH_SELF:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        out["grid.divisor_chain.calls"] = c.get("grid.divisor_chain", 0)
        out["grid.schedule.calls"] = c.get("grid.block_schedule", 0)
        out["mixing.theta.calls"] = c.get("mixing.theta", 0)
        out["mixing.estimate_tau.s"] = t.get("mixing.estimate_tau", 0.0)
        out["mixing.tau_draws"] = cnt.get("mixing.tau_draws", 0)
        out["norms.dependence_norm.calls"] = c.get("norms.dependence_norm", 0)
        out["norms.curve_builds"] = (c.get("norms.curve.from_discrete", 0)
                                     + c.get("norms.curve.constant", 0))
        out["norms.holder_factor.calls"] = c.get("norms.holder_factor", 0)
        out["rates.lattice_points"] = c.get("rates.rate_report", 0) + c.get("rates.rate_factor", 0)
        parts = cnt.get("chaining.partitions", 0)
        out["chaining.partitions"] = parts
        out["chaining.norm_evals"] = c.get("chaining.norm", 0)
        out["chaining.norm_evals_per_partition"] = (
            c.get("chaining.norm", 0) / parts if parts else 0.0)
        out["chaining.complexity_exact.s"] = t.get("chaining.complexity_exact", 0.0)
        out["chaining.complexity_greedy.s"] = t.get("chaining.complexity_greedy", 0.0)
        for kind in KINDS:
            out[f"processes.path_steps.{kind}"] = cnt.get(f"processes.path_steps.{kind}", 0)
            out[f"processes.simulate_s.{kind}"] = secs.get(f"processes.simulate_s.{kind}", 0.0)
        for kind in KINDS:
            out[f"coupling.replica_blocks.{kind}"] = cnt.get(f"coupling.replica_blocks.{kind}", 0)
            out[f"coupling.replicate_s.{kind}"] = secs.get(f"coupling.replicate_s.{kind}", 0.0)
        out["function_classes.member_evals"] = self._sum("function_classes.member.", c)
        out["function_classes.member_eval_s"] = self._sum("function_classes.member.", t)
        for cid in CRITERIA:
            out[f"acceptance.{cid}.s"] = t.get(f"acceptance.{cid}", 0.0)
        out["cli.invocations"] = c.get("cli.main", 0)
        out["report.bytes"] = cnt.get("report.bytes", 0)
        return out

    def dump_spans(self, path) -> None:
        """Write the recorded spans and call totals as one JSON document."""
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "names": names,
            "spans": [[i, p, index[n], round(a, 7), round(b, 7)]
                      for i, p, n, a, b in self.spans],
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
