"""Hooks the benchmark puts on moelab's public functions, from outside.

Two instruments, both installed by replacing a function wherever a loaded
``moelab`` module holds it (``forward`` lives in ``moelab.model`` and is
imported by name into ``moelab.trainer``, so both bindings are replaced):

* ``Stamps`` -- the only hooks of an untraced run.  A time stamp at the start
  of every training step (``forward`` called with ``train=True``) and the
  duration, image count and NLL of every ``evaluate`` call.
* ``Tracer`` -- the traced run.  Every entry of ``HOOKS`` opens a span named
  after its layer; a span's self time is its duration minus that of the
  spans nested in it, so the self times of one traced operation add up to
  its wall time.  Cyclic garbage collection is a span of its own, fed by
  ``gc.callbacks``.

A hook whose target no longer exists is skipped with a warning, and the
metrics that depend only on missing targets read null.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import inspect
import math
import statistics
import sys
import time
import types
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


# ----------------------------------------------------------------------
# installing wrappers


def _resolve(target: str):
    """'pkg.mod:Class.attr' -> (owner, attr name, raw attribute)."""
    mod_name, qual = target.split(":")
    try:
        owner = importlib.import_module(mod_name)
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attr, inspect.getattr_static(owner, attr)
    except (ImportError, AttributeError):
        return None


class Patches:
    """Replaced bindings, restored in reverse order by ``undo``."""

    def __init__(self):
        self._saved = []

    def wrap(self, target: str, make: Callable) -> bool:
        """Replace the target by make(original); False if it is gone."""
        found = _resolve(target)
        if found is None:
            return False
        owner, attr, raw = found
        if inspect.isclass(owner):
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(make(raw.__func__))
            else:
                new = make(raw)
            self._set(owner, attr, new)
            return True
        wrapped = make(raw)
        for mod in [m for n, m in sys.modules.items()
                    if n == "moelab" or n.startswith("moelab.")]:
            for name, value in list(vars(mod).items()):
                if value is raw:
                    self._set(mod, name, wrapped)
        return True

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def undo(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


# ----------------------------------------------------------------------
# stamps (untraced runs)


def _eval_images(dataset) -> int:
    return sum(len(x) for x in (dataset.test_x, dataset.shift_x,
                                dataset.ood_x) if x is not None)


def _stamped_forward(fn, steps: list):
    """forward, appending (clock, step, batch, spec) for training calls."""
    clock = time.perf_counter

    def stamped(model, images, *args, **kwargs):
        if kwargs.get("train"):
            steps.append((clock(), kwargs.get("step", 0), len(images),
                          model.spec))
        return fn(model, images, *args, **kwargs)
    return stamped


class Stamps:
    """Per-step stamps and per-evaluate durations."""

    FORWARD = "moelab.model:forward"
    EVALUATE = "moelab.trainer:evaluate"

    def __init__(self):
        self.steps = []   # (perf_counter at step start, step, batch, spec)
        self.evals = []   # (seconds, images scored, test nll)

    def install(self, patches: Patches) -> list:
        """Wrap forward and evaluate; returns the targets that are gone."""
        evals = self.evals
        clock = time.perf_counter

        def on_evaluate(fn):
            def timed(model, dataset, *args, **kwargs):
                t0 = clock()
                report = fn(model, dataset, *args, **kwargs)
                evals.append((clock() - t0, _eval_images(dataset),
                              report.nll))
                return report
            return timed

        return [t for t, make in (
            (self.FORWARD, lambda fn: _stamped_forward(fn, self.steps)),
            (self.EVALUATE, on_evaluate)) if not patches.wrap(t, make)]


def step_intervals(steps: list) -> list:
    """(seconds, batch, spec) between consecutive stamps of one train run.

    A run's last step has no successor stamp, so it is not counted.
    """
    return [(cur[0] - prev[0], prev[2], prev[3])
            for prev, cur in zip(steps, steps[1:])
            if cur[3] is prev[3] and cur[1] == prev[1] + 1]


def stamp_overhead_us(calls: int = 20000) -> float:
    """Measured cost of one step stamp, in microseconds."""
    def bare(model, images, *args, **kwargs):
        return None

    stamped = _stamped_forward(bare, [])
    model, images = types.SimpleNamespace(spec=None), (0,)
    clock = time.perf_counter
    best = math.inf
    for _ in range(5):
        t0 = clock()
        for i in range(calls):
            bare(model, images, None, train=True, step=i)
        t1 = clock()
        for i in range(calls):
            stamped(model, images, None, train=True, step=i)
        t2 = clock()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0) * 1e6


# ----------------------------------------------------------------------
# tracer (traced runs)


@dataclass(frozen=True)
class Hook:
    """One traced target.

    span: layer the call's time is charged to (None: count only).
    phase: phase opened by the call; nested spans inherit it.
    counter: counter bumped per call, or only inside a ``within`` span.
    probe: f(args, kwargs, result) -> {counter: amount}, run after the
    call inside a ``trace.probe`` span so its cost is kept apart.
    """

    target: str
    span: str | None
    phase: str | None = None
    counter: str | None = None
    within: str | None = None
    probe: Callable | None = None
    name_of: Callable | None = None


def _forward_span(args, kwargs):
    return "model.forward_train" if kwargs.get("train") else \
        "model.forward_eval"


def _router_flops(rows_per_block):
    def probe(args, kwargs, result):
        h, router = args[0], args[1]
        n = h.data.shape[0]
        rows = rows_per_block(n, len(router.weights))
        return {"routing.router_flops": sum(
            2.0 * rows * w.data.shape[0] * w.data.shape[1]
            for w in router.weights)}
    return probe


def _dropped(args, kwargs, result):
    mask = result.dropped_mask
    return {"routing.dropped": float(mask.sum()),
            "routing.assignments": float(mask.size)}


def _tape_nodes(args, kwargs, result):
    seen = set()
    stack = [args[0]]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return {"tensor.nodes": float(len(seen))}


# The one table of (module attribute -> layer).  Targets that later changes
# merge or rename are skipped with a warning (see module docstring).
HOOKS = (
    Hook("moelab.cli:main", "cli", phase="cli"),
    Hook("moelab.dataset:make_dataset", "dataset"),
    Hook("moelab.checkpoint:save_checkpoint", "checkpoint"),
    Hook("moelab.trainer:train", "trainer", phase="train"),
    Hook("moelab.trainer:sgd_step", "trainer.sgd"),
    Hook("moelab.trainer:evaluate", "trainer.evaluate", phase="eval"),
    Hook("moelab.model:forward", "model", name_of=_forward_span),
    Hook("moelab.model:mc_dropout_predict", "model.predict"),
    Hook("moelab.model:deep_ensemble_predict", "model.predict"),
    Hook("moelab.layers:layer_forward", "layers.moe"),
    Hook("moelab.layers:ExpertMLP.forward", None,
         counter="layers.expert_calls", within="layers.moe"),
    Hook("moelab.layers:dropout_mask", "rng"),
    Hook("moelab.routing:gate_k", "routing.gate",
         probe=_router_flops(lambda n, m: n)),
    Hook("moelab.routing:partitioned_gate", "routing.gate",
         probe=_router_flops(lambda n, m: n // m)),
    Hook("moelab.routing:only_partitioning_gate", "routing.gate",
         probe=_router_flops(lambda n, m: n)),
    Hook("moelab.routing:capacity_filter", "routing.gate", probe=_dropped),
    Hook("moelab.losses:member_avg_cross_entropy", "losses"),
    Hook("moelab.losses:AuxLossState.from_decision", "losses"),
    Hook("moelab.losses:total_loss", "losses"),
    Hook("moelab.tensor:Tensor.backward", "tensor.backward",
         probe=_tape_nodes),
    Hook("moelab.rng:Rng.stream", "rng", counter="rng.streams"),
    Hook("moelab.rng:Rng.normal", "rng"),
    Hook("moelab.metrics:MetricAccumulator.add_batch", "metrics"),
    Hook("moelab.metrics:MetricAccumulator.result", "metrics"),
    Hook("moelab.metrics:ood_scores", "metrics"),
    Hook("moelab.metrics:ood_metrics", "metrics"),
)

ROOT_SPAN = "other"  # self time of the root span: nothing hooked was running


class Tracer:
    """Span stack plus (name, phase) aggregates; live only inside ``op``."""

    def __init__(self):
        self.stack = []   # frames: [name, phase, start, child seconds]
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.wall_s = 0.0
        self.missing = []
        self._in_gc = False

    # spans -------------------------------------------------------------

    # A collection can start at any allocation, so the clock is read after
    # the frame exists (enter) and before anything is allocated (exit):
    # a collection then lands inside exactly one span.

    def enter(self, name, phase=None):
        frame = [name, phase or self.stack[-1][1], 0.0, 0.0]
        self.stack.append(frame)
        frame[2] = time.perf_counter()

    def exit(self):
        now = time.perf_counter()
        name, phase, start, child = self.stack.pop()
        dur = now - start
        key = (name, phase)
        self.incl_s[key] += dur
        self.self_s[key] += dur - child
        self.calls[key] += 1
        if self.stack:
            self.stack[-1][3] += dur
        return dur

    def count(self, name, amount=1.0):
        self.counts[(name, self.stack[-1][1])] += amount

    @contextlib.contextmanager
    def op(self):
        """Root span of one measured operation."""
        self.enter(ROOT_SPAN, "other")
        try:
            yield
        finally:
            self.wall_s += self.exit()

    def _on_gc(self, phase, info):
        if phase == "start" and self.stack and not self._in_gc:
            self._in_gc = True
            self.enter("tensor.gc")
        elif phase == "stop" and self._in_gc:
            self._in_gc = False
            self.exit()

    # hooks -------------------------------------------------------------

    def install(self, patches: Patches):
        for hook in HOOKS:
            if not patches.wrap(hook.target, self._wrapper(hook)):
                self._gone(hook.target)
                if hook.probe is not None:
                    self._gone(hook.target + " probe")
        gc.callbacks.append(self._on_gc)

    def uninstall(self, patches: Patches):
        gc.callbacks.remove(self._on_gc)
        patches.undo()

    def _gone(self, what):
        if what not in self.missing:
            self.missing.append(what)
            print(f"warning: trace hook {what} is gone; metrics that need "
                  "only gone hooks read null", file=sys.stderr)

    def _wrapper(self, hook: Hook):
        tracer = self
        stack = self.stack
        probe_key = hook.target + " probe"

        def make(fn):
            def traced(*args, **kwargs):
                if not stack:
                    return fn(*args, **kwargs)
                if hook.counter and (hook.within is None
                                     or stack[-1][0] == hook.within):
                    tracer.count(hook.counter)
                if hook.span is None:
                    return fn(*args, **kwargs)
                name = hook.name_of(args, kwargs) if hook.name_of \
                    else hook.span
                tracer.enter(name, hook.phase)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.exit()
                if hook.probe is not None and probe_key not in tracer.missing:
                    tracer.enter("trace.probe")
                    try:
                        for key, amount in hook.probe(args, kwargs,
                                                      result).items():
                            tracer.count(key, amount)
                    except (AttributeError, IndexError, TypeError):
                        tracer._gone(probe_key)
                    finally:
                        tracer.exit()
                return result
            return traced
        return make

    # aggregates ----------------------------------------------------------

    def total(self, table, name, phase=None):
        return sum(v for (n, p), v in table.items()
                   if n == name and (phase is None or p == phase))

    def self_by_layer(self) -> dict:
        out = defaultdict(float)
        for (name, _), v in self.self_s.items():
            out[name] += v
        return dict(sorted(out.items()))


# ----------------------------------------------------------------------
# per-layer metrics


def _div(a, b):
    return a / b if b else 0.0


def _steps(t):
    return t.total(t.calls, "model.forward_train", "train")


def _evals(t):
    return t.total(t.calls, "trainer.evaluate", "eval")


# name -> (unit, hook targets it needs, f(tracer, context) -> value); a
# "<target> probe" entry needs the counters that target's probe feeds
def _layer_table():

    def per_step(table, name, scale=1e3):
        return lambda t, c: _div(scale * t.total(getattr(t, table), name,
                                                 "train"), _steps(t))

    def per_call(name, scale):
        return lambda t, c: _div(scale * t.total(t.incl_s, name),
                                 t.total(t.calls, name))

    gates = ("moelab.routing:gate_k", "moelab.routing:partitioned_gate",
             "moelab.routing:only_partitioning_gate")
    return {
        "layers.moe_self_ms_per_step": (
            "ms", ("moelab.layers:layer_forward",),
            per_step("self_s", "layers.moe")),
        "layers.expert_calls_per_step": (
            "count", ("moelab.layers:ExpertMLP.forward",),
            lambda t, c: _div(t.counts[("layers.expert_calls", "train")],
                              _steps(t))),
        "routing.gate_ms_per_step": (
            "ms", gates, per_step("self_s", "routing.gate")),
        "routing.dropped_fraction": (
            "ratio", ("moelab.routing:capacity_filter probe",),
            lambda t, c: _div(t.counts[("routing.dropped", "train")],
                              t.counts[("routing.assignments", "train")])),
        "routing.router_mflops_per_s": (
            "MFLOP/s", tuple(g + " probe" for g in gates),
            lambda t, c: _div(t.counts[("routing.router_flops", "train")]
                              / 1e6,
                              t.total(t.self_s, "routing.gate", "train"))),
        "model.forward_train_ms_per_step": (
            "ms", ("moelab.model:forward",),
            per_step("incl_s", "model.forward_train")),
        "model.trunk_self_ms_per_step": (
            "ms", ("moelab.model:forward",),
            per_step("self_s", "model.forward_train")),
        "model.forward_eval_ms_per_batch": (
            "ms", ("moelab.model:forward",),
            lambda t, c: _div(1e3 * t.total(t.incl_s, "model.forward_eval",
                                            "eval"),
                              t.total(t.calls, "model.forward_eval",
                                      "eval"))),
        "tensor.backward_ms_per_step": (
            "ms", ("moelab.tensor:Tensor.backward",),
            per_step("self_s", "tensor.backward")),
        "tensor.nodes_per_step": (
            "count", ("moelab.tensor:Tensor.backward probe",),
            lambda t, c: _div(t.counts[("tensor.nodes", "train")],
                              _steps(t))),
        "tensor.gc_ms_per_step": (
            "ms", (), per_step("self_s", "tensor.gc")),
        "tensor.gc_collections_per_step": (
            "count", (), per_step("calls", "tensor.gc", scale=1.0)),
        "losses.ms_per_step": (
            "ms", ("moelab.losses:member_avg_cross_entropy",
                   "moelab.losses:AuxLossState.from_decision",
                   "moelab.losses:total_loss"),
            per_step("self_s", "losses")),
        "trainer.sgd_ms_per_step": (
            "ms", ("moelab.trainer:sgd_step",),
            per_step("self_s", "trainer.sgd")),
        "trainer.self_ms_per_step": (
            "ms", ("moelab.trainer:train",),
            per_step("self_s", "trainer")),
        "rng.streams_per_step": (
            "count", ("moelab.rng:Rng.stream",),
            lambda t, c: _div(t.counts[("rng.streams", "train")],
                              _steps(t))),
        "rng.ms_per_step": (
            "ms", ("moelab.rng:Rng.stream", "moelab.rng:Rng.normal",
                   "moelab.layers:dropout_mask"),
            per_step("self_s", "rng")),
        "metrics.ms_per_eval": (
            "ms", ("moelab.metrics:MetricAccumulator.add_batch",
                   "moelab.metrics:MetricAccumulator.result",
                   "moelab.metrics:ood_scores",
                   "moelab.metrics:ood_metrics"),
            lambda t, c: _div(1e3 * t.total(t.self_s, "metrics", "eval"),
                              _evals(t))),
        "dataset.make_s": (
            "s", ("moelab.dataset:make_dataset",),
            per_call("dataset", 1.0)),
        "checkpoint.save_ms_per_file": (
            "ms", ("moelab.checkpoint:save_checkpoint",),
            per_call("checkpoint", 1e3)),
        "cli.self_s": (
            "s", ("moelab.cli:main",),
            lambda t, c: _div(t.total(t.self_s, "cli"),
                              t.total(t.calls, "cli"))),
        "flops.train_mflops_per_s": (
            "MFLOP/s", (Stamps.FORWARD,),
            lambda t, c: c["train_mflops_per_s"]),
        "other.share": (
            "ratio", (),
            lambda t, c: _div(t.total(t.self_s, ROOT_SPAN), t.wall_s)),
        "trace.overhead_s": (
            "s", (), lambda t, c: c["overhead_s"]),
    }


LAYER_METRICS = _layer_table()


def layer_metrics(tracer: Tracer, context: dict) -> dict:
    """Every per-layer metric; null where all the hooks it needs are gone."""
    out = {}
    for name, (unit, needs, fn) in LAYER_METRICS.items():
        gone = needs and all(t in tracer.missing for t in needs)
        out[name] = {"value": None if gone else fn(tracer, context),
                     "unit": unit}
    return out


def train_mflops_per_s(intervals: list, flops_of) -> float:
    """Analytic training MFLOPs (3 x forward x batch) per measured second."""
    flops = sum(3.0 * flops_of(spec) * batch for _, batch, spec in intervals)
    return _div(flops / 1e6, sum(dt for dt, _, _ in intervals))


def self_time_check(tracer: Tracer) -> list:
    """Self times are non-negative and add up to the traced wall time."""
    problems = []
    by_layer = tracer.self_by_layer()
    for name, value in by_layer.items():
        if value < -1e-9:
            problems.append(f"negative self time for {name}: {value}")
    total = math.fsum(by_layer.values())
    if abs(total - tracer.wall_s) > 1e-6 * max(tracer.wall_s, 1.0):
        problems.append(f"self times sum to {total} s, traced wall time "
                        f"is {tracer.wall_s} s")
    return problems


def percentile(values, q: int) -> float:
    """q-th percentile (q in 1..99) by statistics.quantiles' default."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]
