"""Span recording around the public entry points of each gmmdc layer.

Spans are recorded from outside the package: ``install`` replaces the names
that calling modules look up at call time (``gmmdc.montecarlo.draw_system``,
``BatchGmm.run``, ``gmmdc.cli.fit`` ...) with thin timing wrappers, and
``Tracer.uninstall`` puts the originals back. A target that no longer exists
(a refactor renamed or merged it) is reported as absent and skipped; the run
goes on with the remaining wrappers. The untraced run never imports this
module.

Spans are kept in memory (name, start, end, parent) and written out once,
when the run ends. A span's self time is its duration minus the durations of
its direct children; because calls nest, the self times of all spans plus the
root's own self time add up exactly to the root's wall time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

_RUN_SUFFIX = {"one-step": "one", "two-step": "two", "iterated": "iter"}


class Recorder:
    """In-memory span store with a stack of open spans and named counters."""

    def __init__(self):
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(-1)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is currently open."""
        return any(self.names[i] == name for i in self._stack)

    def count(self, name: str, value: float) -> None:
        self.counters[name] += value

    def self_times_ns(self) -> Dict[str, int]:
        """Total self time per span name, in nanoseconds."""
        child_ns = [0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[idx] - self.starts[idx]
        out: Dict[str, int] = defaultdict(int)
        for idx, name in enumerate(self.names):
            out[name] += self.ends[idx] - self.starts[idx] - child_ns[idx]
        return dict(out)

    def write_tsv(self, path) -> None:
        """Write every span as ``id parent name start_ns end_ns``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for idx, name in enumerate(self.names):
                fh.write(f"{idx}\t{self.parents[idx]}\t{name}\t"
                         f"{self.starts[idx]}\t{self.ends[idx]}\n")


@dataclass(frozen=True)
class Target:
    """One wrapped name: ``module`` plus an attribute path such as ``BatchGmm.run``."""

    module: str
    attr: str
    span: Callable[[Recorder, tuple, dict], str]
    after: Optional[Callable[[Recorder, tuple, dict, object], None]] = None
    result: Optional[Callable[[object, Recorder], object]] = None


def _fixed(name: str):
    return lambda rec, args, kwargs: name


def _nbytes(*arrays) -> int:
    return sum(a.nbytes for a in arrays if a is not None)


def _count_system(rec, args, kwargs, system):
    rec.count("linmoment.system_bytes",
              _nbytes(system.h, system.G_obs, getattr(system, "W_obs", None)))


def _batch_run_span(rec, args, kwargs):
    if rec.inside("inference.boot"):
        return "inference.boot_refit"
    plan = args[1] if len(args) > 1 else kwargs.get("plan")
    return "batch.run_" + _RUN_SUFFIX.get(getattr(plan, "kind", None), "other")


def _count_batch_run(rec, args, kwargs, result):
    if rec.inside("inference.boot"):
        return
    ok = result.ok
    converged = getattr(result, "converged", None)
    rec.count("batch.reps", ok.size)
    rec.count("batch.ok", int(ok.sum()))
    rec.count("batch.converged", ok.size if converged is None else int(converged.sum()))


def _count_gather(rec, args, kwargs, batch):
    rec.count("inference.gather_bytes",
              _nbytes(batch.h, batch.G, getattr(batch, "W_obs", None)))


def _count_bootstrap(rec, args, kwargs, result):
    rec.count("inference.boot_calls", 1)
    rec.count("inference.boot_resamples", result.B)
    rec.count("inference.boot_failed", result.failures)


def _count_fit(rec, args, kwargs, result):
    if getattr(result.plan, "kind", None) == "iterated":
        rec.count("estimate.iter_calls", 1)
        rec.count("estimate.iterations", result.iterations)


class _TimedGenerator:
    """Generator proxy whose ``integers`` draws are recorded as bootstrap draws."""

    def __init__(self, gen, rec: Recorder):
        self._gen = gen
        self._rec = rec

    def integers(self, *args, **kwargs):
        idx = self._rec.open("inference.boot_draw")
        try:
            return self._gen.integers(*args, **kwargs)
        finally:
            self._rec.close(idx)

    def __getattr__(self, name):
        return getattr(self._gen, name)


#: Every wrapped name. The span function names the span at call time; the
#: optional ``after`` hook adds counters from the call's result, and the
#: optional ``result`` hook wraps the returned object.
TARGETS = (
    Target("gmmdc.montecarlo", "run_study", _fixed("montecarlo.run_study")),
    Target("gmmdc.montecarlo", "draw_system", _fixed("montecarlo.draw")),
    Target("gmmdc.montecarlo", "build_iv_system", _fixed("linmoment.build"), _count_system),
    Target("gmmdc.montecarlo", "build_ab_system", _fixed("linmoment.build"), _count_system),
    Target("gmmdc.montecarlo", "mr_bootstrap", _fixed("inference.boot"), _count_bootstrap),
    Target("gmmdc._batch", "BatchGmm.from_stack", _fixed("batch.stack")),
    Target("gmmdc._batch", "BatchGmm.from_system", _fixed("batch.gather"), _count_gather),
    Target("gmmdc._batch", "BatchGmm.run", _batch_run_span, _count_batch_run),
    Target("gmmdc.inference", "bootstrap_rng", _fixed("inference.boot_draw"),
           result=_TimedGenerator),
    Target("gmmdc.inference", "fit", _fixed("estimate.fit"), _count_fit),
    Target("gmmdc.inference", "variance_report", _fixed("variance.report")),
    Target("gmmdc.cli", "main", _fixed("cli.main")),
    Target("gmmdc.cli", "build_ab_system", _fixed("linmoment.build"), _count_system),
    Target("gmmdc.cli", "fit", _fixed("estimate.fit"), _count_fit),
    Target("gmmdc.cli", "variance_report", _fixed("variance.report")),
    Target("gmmdc.cli", "t_test", _fixed("inference.tests")),
    Target("gmmdc.cli", "j_test", _fixed("inference.tests")),
)


def _wrap(fn, target: Target, rec: Recorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(target.span(rec, args, kwargs))
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if target.after is not None:
            try:
                target.after(rec, args, kwargs, out)
            except AttributeError:
                # The result lost a field the counter reads; keep running.
                rec.count(f"absent_counter:{target.module}:{target.attr}", 1)
        return out if target.result is None else target.result(out, rec)

    return wrapper


class Tracer:
    """Wrappers installed on a set of targets; ``uninstall`` restores them."""

    def __init__(self):
        self.installed: List[str] = []
        self.absent: List[str] = []
        self._restore: List[tuple] = []

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()


def _resolve(target: Target):
    """Return (owner, attribute name, raw attribute) or None when absent."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if raw is None:
        return None
    return owner, name, raw


def install(rec: Recorder, targets=TARGETS) -> Tracer:
    """Wrap every target that exists; record the missing ones as absent."""
    tracer = Tracer()
    for target in targets:
        label = f"{target.module}:{target.attr}"
        found = _resolve(target)
        if found is None or not callable(getattr(found[2], "__func__", found[2])):
            tracer.absent.append(label)
            continue
        owner, name, raw = found
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(_wrap(raw.__func__, target, rec))
        else:
            replacement = _wrap(raw, target, rec)
        setattr(owner, name, replacement)
        tracer._restore.append((owner, name, raw))
        tracer.installed.append(label)
    return tracer
