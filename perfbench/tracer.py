"""Span tracer for the traced benchmark run.

``start`` creates the tracer and times the import of scipy.stats.
``install`` then wraps the public functions that banditsim's modules call
across layer boundaries, in every module namespace that imported them by
name.
Each wrapper records calls, inclusive time and self time (inclusive minus the
time of spans nested inside it) and, for some spans, a count of units: rounds
for the engines, values for generator draws, bytes for CSV emission.

Generators returned by ``banditsim.rng.stream`` are wrapped so that every
draw method call is a ``rng.draw`` span.  The process pool class that
``banditsim.experiments`` uses is replaced by a subclass that records worker
slots times pool wall time, from which the benchmark derives dispatch time.

Pool workers are forked from the traced process and inherit the wrappers.
A worker drops the counts it inherited at its first span and writes its own
counts when it exits; the main process writes its counts when the command
returns.  Spans stay in memory until then.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.util
import inspect
import json
import os
import sys
import time

# span name -> (module, function)
WRAPPED = {
    "engines.perturbed_linucb": ("banditsim.engines", "run_perturbed_linucb"),
    "engines.perturbed_batch_greedy": ("banditsim.engines", "run_perturbed_batch_greedy"),
    "engines.two_bridge_policy": ("banditsim.engines", "run_two_bridge_policy"),
    "engines.two_bridge_batch_freq": ("banditsim.engines", "run_two_bridge_batch_freq"),
    "estimators.bayes_posterior_mean": ("banditsim.estimators", "bayes_posterior_mean"),
    "estimators.ols_estimate": ("banditsim.estimators", "ols_estimate"),
    "policies.interval_width": ("banditsim.policies", "interval_width"),
    "experiments.build_instance": ("banditsim.experiments", "build_instance"),
    "experiments.experiment_curves": ("banditsim.experiments", "experiment_curves"),
    "experiments.job": ("banditsim.experiments", "_run_job"),
    "metrics.scaling_exponent_bootstrap": ("banditsim.metrics", "scaling_exponent_bootstrap"),
    "simulation.simulate_reward_many": ("banditsim.simulation", "simulate_reward_many"),
    "simulation.simulation_weights": ("banditsim.simulation", "simulation_weights"),
    "csvio.emit_csv": ("banditsim.csvio", "emit_csv"),
}
ENGINES = tuple(name for name in WRAPPED if name.startswith("engines."))


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.main_pid = self.pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.spans: dict = {}     # name -> [calls, inclusive_s, self_s, units]
        self.stack: list = []     # child time of each open span
        self.pool_slot_s = 0.0

    def _enter(self) -> float:
        if os.getpid() != self.pid:
            # First span in a forked worker: drop the parent's counts and
            # write this process's own counts when the worker exits.
            from multiprocessing import util

            self.pid = os.getpid()
            self._reset()
            util.Finalize(None, self.dump, exitpriority=100)
        self.stack.append(0.0)
        return time.perf_counter()

    def _exit(self, name: str, start: float, units: int) -> None:
        elapsed = time.perf_counter() - start
        child = self.stack.pop()
        if self.stack:
            self.stack[-1] += elapsed
        rec = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - child
        rec[3] += units

    def wrap(self, name: str, fn, units=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self._enter()
            n = 0
            try:
                out = fn(*args, **kwargs)
                if units is not None:
                    n = units(args, kwargs, out)
                return out
            finally:
                self._exit(name, start, n)

        return traced

    def record(self, name: str, seconds: float) -> None:
        """Add a span timed outside the tracer (the import of banditsim.cli)."""
        rec = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
        rec[0] += 1
        rec[1] += seconds
        rec[2] += seconds

    def dump(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"main": os.getpid() == self.main_pid, "spans": self.spans,
                       "pool_slot_s": self.pool_slot_s}, fh)


class _TimedGenerator:
    """Proxy for a NumPy Generator that records each draw as a span."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr
        return self._tracer.wrap("rng.draw", attr, units=lambda a, k, out: int(getattr(out, "size", 1)))


def _horizon_of(fn):
    sig = inspect.signature(fn)

    def units(args, kwargs, out) -> int:
        bound = sig.bind(*args, **kwargs).arguments
        if "horizon" in bound:
            return int(bound["horizon"])
        return int(bound["cfg"].horizon)

    return units


def _replace_everywhere(original, replacement) -> None:
    """Rebind every banditsim module attribute that refers to ``original``."""
    for modname, module in list(sys.modules.items()):
        if modname == "banditsim" or modname.startswith("banditsim."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


class _TimeImport(importlib.abc.MetaPathFinder):
    """Record the first import of ``modname`` as a span, then call ``after(module)``."""

    def __init__(self, tracer: Tracer, modname: str, span: str, after):
        self.tracer = tracer
        self.modname = modname
        self.span = span
        self.after = after

    def find_spec(self, fullname, path, target=None):
        if fullname != self.modname:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        exec_module = spec.loader.exec_module

        def exec_timed(module):
            start = self.tracer._enter()
            try:
                exec_module(module)
            finally:
                self.tracer._exit(self.span, start, 0)
            self.after(module)

        spec.loader.exec_module = exec_timed
        return spec


def start(out_dir: str) -> Tracer:
    """Create the tracer before banditsim is imported, so that importing
    scipy.stats is timed wherever it happens."""
    tracer = Tracer(out_dir)

    def patch_stats(module):
        module.ks_2samp = tracer.wrap("experiments.ks_2samp", module.ks_2samp)

    if "scipy.stats" in sys.modules:
        patch_stats(sys.modules["scipy.stats"])
    else:
        sys.meta_path.insert(0, _TimeImport(tracer, "scipy.stats", "cli.import_scipy_stats", patch_stats))
    return tracer


def install(tracer: Tracer) -> None:
    """Wrap banditsim's layer boundaries in this process."""
    import banditsim.experiments as experiments
    import banditsim.rng as rng

    for name, (modname, attr) in WRAPPED.items():
        original = getattr(sys.modules.get(modname), attr, None)
        if original is None:
            continue
        units = _horizon_of(original) if name in ENGINES else None
        if name == "csvio.emit_csv":
            units = lambda a, k, out: len(out.encode())  # noqa: E731
        _replace_everywhere(original, tracer.wrap(name, original, units))

    stream = tracer.wrap("rng.stream", rng.stream)

    @functools.wraps(rng.stream)
    def traced_stream(*args, **kwargs):
        return _TimedGenerator(stream(*args, **kwargs), tracer)

    _replace_everywhere(rng.stream, traced_stream)

    pool = getattr(experiments, "ProcessPoolExecutor", None)
    if pool is not None:
        class TimedPool(pool):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._slots = self._max_workers
                self._opened = time.perf_counter()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.pool_slot_s += self._slots * (time.perf_counter() - self._opened)

        experiments.ProcessPoolExecutor = TimedPool
