"""In-memory span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own files: the public functions of
each dpsrgd module are swapped, for the duration of one traced iteration,
for wrappers that record (name, start, end, parent). The swap happens in
every dpsrgd module namespace that binds the function, because callers look
names up in their own module (`optim.tree_ingest`, `harness.counting.
factorize`), so wrapping only the defining module would miss the calls.
Task-class methods are wrapped on the class, where `problem.srg_mean`
finds them.

Self time of a span is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

_GRADIENT_HOOKS = ("srg_mean", "clipped_mean_grad")
_TASK_METHODS = _GRADIENT_HOOKS + ("per_example_values", "draw_batch",
                                   "population_excess", "accuracy")


class Tracer:
    """Span recorder. Spans live in parallel lists until `summary` folds
    them into per-name (calls, total seconds, self seconds)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.values: defaultdict = defaultdict(list)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def summary(self) -> dict[str, tuple[int, float, float]]:
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: dict[str, list] = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child[i]
        return {k: tuple(v) for k, v in out.items()}


def _traced_iter(tracer: Tracer, name: str, it, row_counter: str | None = None):
    """Re-yield `it`, timing each step as a span: the work of a generator
    runs when its consumer calls next(), not when it is created."""
    while True:
        idx = tracer.open(name)
        try:
            item = next(it)
        except StopIteration:
            return
        finally:
            tracer.close(idx)
        if row_counter is not None:
            tracer.counts[row_counter] += 1
        yield item


def _wrap(tracer: Tracer, name: str, fn, after=None, before=None):
    @functools.wraps(fn, updated=())
    def traced(*args, **kwargs):
        if before is not None:
            args, kwargs = before(args, kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(result)
        return result
    return traced


class Instrumentation:
    """Context manager that installs span wrappers into the loaded dpsrgd
    package and restores every original binding on exit."""

    def __init__(self, tracer: Tracer, dpsrgd):
        self.tracer = tracer
        self.pkg = dpsrgd
        self._undo: list[tuple] = []

    # -- function targets -------------------------------------------------

    def _function_targets(self) -> dict:
        """Map original callable -> wrapper."""
        t = self.tracer
        counting, geometry = self.pkg.counting, self.pkg.geometry
        harness, optim, cli = self.pkg.harness, self.pkg.optim, self.pkg.cli
        accounting = self.pkg.accounting
        wrappers = {}

        def tree_bytes(state):
            # node sums and node noise, one float64 row each per node
            t.counts["counting.TreeState.bytes"] += (
                len(getattr(state, "nodes", ())) * state.dim * 8 * 2)

        def factorized(strategy):
            t.values["counting.factorize.objective"].append(strategy.objective)
            if strategy.converged is False:
                t.counts["counting.factorize.unconverged"] += 1

        def emitted(paths):
            t.counts["harness.emit_csv.files"] += len(paths)
            t.counts["harness.emit_csv.bytes"] += sum(os.path.getsize(p) for p in paths)

        wrappers[counting.TreeState] = _wrap(t, "counting.TreeState",
                                             counting.TreeState, after=tree_bytes)
        for fname in ("tree_ingest", "tree_prefix"):
            fn = getattr(counting, fname)
            wrappers[fn] = _wrap(t, f"counting.{fname}", fn)
        wrappers[counting.factorize] = _wrap(t, "counting.factorize",
                                             counting.factorize, after=factorized)
        mf = counting.mf_noise_stream

        @functools.wraps(mf)
        def mf_stream(*args, **kwargs):
            return _traced_iter(t, "counting.mf_noise_stream", mf(*args, **kwargs),
                                row_counter="counting.mf_noise_stream.rows")
        wrappers[mf] = mf_stream

        for fname in ("project_ball", "interpolate"):
            fn = getattr(geometry, fname)
            wrappers[fn] = _wrap(t, f"geometry.{fname}", fn)
        wrappers[harness.run_experiment] = _wrap(t, "harness.run_experiment",
                                                 harness.run_experiment)
        wrappers[harness.emit_csv] = _wrap(t, "harness.emit_csv", harness.emit_csv,
                                           after=emitted)
        wrappers[cli.main] = _wrap(t, "cli.main", cli.main)
        for fname, fn in vars(accounting).items():
            if (inspect.isfunction(fn) and fn.__module__ == accounting.__name__
                    and not fname.startswith("_")):
                wrappers[fn] = _wrap(t, f"accounting.{fname}", fn)

        def stream_args(args, kwargs):
            # A generator handed to a runner is the caller's batch stream;
            # its per-step work belongs to the caller, not to optim.
            wrap = lambda a: (_traced_iter(t, "harness.batch_stream", a)
                              if inspect.isgenerator(a) else a)
            return (tuple(wrap(a) for a in args),
                    {k: wrap(v) for k, v in kwargs.items()})

        # Discovered, not listed, so a change to the set of runners keeps
        # them traced.
        for fname, fn in vars(optim).items():
            if fname.startswith("run_") and inspect.isfunction(fn):
                wrappers[fn] = self._runner(fn, stream_args, optim.RunAborted)
        return wrappers

    def _runner(self, fn, stream_args, aborted_type):
        t = self.tracer
        inner = _wrap(t, "optim.run", fn, before=stream_args)

        @functools.wraps(fn)
        def runner(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            except aborted_type:
                t.counts["optim.aborted"] += 1
                raise
        return runner

    # -- task-class methods -----------------------------------------------

    def _method_wrapper(self, fname: str, fn):
        t = self.tracer
        name = f"objectives.{fname}"
        if fname not in _GRADIENT_HOOKS:
            return _wrap(t, name, fn)
        pos = list(inspect.signature(fn).parameters).index("batch")

        def count_examples(args, kwargs):
            batch = args[pos] if len(args) > pos else kwargs["batch"]
            t.counts["objectives.examples"] += len(batch)
            return args, kwargs
        return _wrap(t, name, fn, before=count_examples)

    # -- install / restore ------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        wrappers = self._function_targets()
        by_id = {id(orig): w for orig, w in wrappers.items()}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.pkg.__name__
                                         or name.startswith(self.pkg.__name__ + "."))]
        for module in modules:
            for attr, val in list(vars(module).items()):
                if id(val) in by_id:
                    self._set(module, attr, by_id[id(val)])
        objectives = self.pkg.objectives
        for cls in vars(objectives).values():
            if inspect.isclass(cls) and issubclass(cls, objectives.LossProblem):
                for fname in _TASK_METHODS:
                    if fname in cls.__dict__:
                        self._set(cls, fname, self._method_wrapper(fname, cls.__dict__[fname]))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False


def _sum_self(summary, prefix: str) -> float:
    return sum(v[2] for k, v in summary.items() if k.startswith(prefix))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Fold one traced iteration into the per-layer metrics.

    `.s` is self time, except `optim.run.s` and `harness.run_experiment.s`,
    which are inclusive; their self time is `optim.self_s` and (with the
    batch stream) `harness.self_s`."""
    summary = tracer.summary()
    calls = lambda n: summary.get(n, (0, 0.0, 0.0))[0]
    total = lambda n: summary.get(n, (0, 0.0, 0.0))[1]
    self_s = lambda n: summary.get(n, (0, 0.0, 0.0))[2]
    counts = tracer.counts
    m: dict[str, float] = {}
    for fname in ("srg_mean", "clipped_mean_grad", "per_example_values", "draw_batch"):
        m[f"objectives.{fname}.calls"] = calls(f"objectives.{fname}")
        m[f"objectives.{fname}.s"] = self_s(f"objectives.{fname}")
    m["objectives.population_excess.s"] = self_s("objectives.population_excess")
    m["objectives.accuracy.s"] = self_s("objectives.accuracy")
    hook_s = sum(self_s(f"objectives.{f}") for f in _GRADIENT_HOOKS)
    m["objectives.examples_per_s"] = counts["objectives.examples"] / hook_s if hook_s else 0.0
    m["objectives.s"] = _sum_self(summary, "objectives.")

    for fname in ("TreeState", "tree_ingest", "tree_prefix", "factorize"):
        m[f"counting.{fname}.calls"] = calls(f"counting.{fname}")
        m[f"counting.{fname}.s"] = self_s(f"counting.{fname}")
    m["counting.TreeState.bytes"] = counts["counting.TreeState.bytes"]
    m["counting.factorize.unconverged"] = counts["counting.factorize.unconverged"]
    objs = tracer.values["counting.factorize.objective"]
    m["counting.factorize.objective"] = statistics.fmean(objs) if objs else 0.0
    m["counting.mf_noise_stream.rows"] = counts["counting.mf_noise_stream.rows"]
    m["counting.mf_noise_stream.s"] = self_s("counting.mf_noise_stream")
    m["counting.s"] = _sum_self(summary, "counting.")

    for fname in ("project_ball", "interpolate"):
        m[f"geometry.{fname}.calls"] = calls(f"geometry.{fname}")
        m[f"geometry.{fname}.s"] = self_s(f"geometry.{fname}")
    m["geometry.s"] = _sum_self(summary, "geometry.")

    m["optim.run.calls"] = calls("optim.run")
    m["optim.run.s"] = total("optim.run")
    m["optim.self_s"] = self_s("optim.run")
    m["optim.aborted"] = counts["optim.aborted"]

    m["harness.run_experiment.s"] = total("harness.run_experiment")
    m["harness.batch_stream.s"] = self_s("harness.batch_stream")
    m["harness.self_s"] = self_s("harness.run_experiment") + self_s("harness.batch_stream")
    m["harness.emit_csv.s"] = self_s("harness.emit_csv")
    m["harness.emit_csv.bytes"] = counts["harness.emit_csv.bytes"]
    m["harness.emit_csv.files"] = counts["harness.emit_csv.files"]

    m["accounting.s"] = _sum_self(summary, "accounting.")
    m["cli.self_s"] = self_s("cli.main")
    m["trace.spans"] = len(tracer.names)
    return m


# Layer totals compared to find where a workload spends its time.
LAYER_TOTALS = ("objectives.s", "counting.s", "geometry.s", "optim.self_s",
                "harness.self_s", "harness.emit_csv.s", "accounting.s",
                "cli.self_s")


def layer_unit(name: str) -> str:
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "self_s")):
        return "s"
    if name == "trace.overhead_frac":
        return "ratio"
    if name == "counting.factorize.objective":
        return "1"
    return "count"
