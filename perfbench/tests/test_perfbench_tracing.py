"""The traced run must survive refactors that rename or merge wrapped names.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import tracing  # noqa: E402
from tracing import Recorder, Target, install  # noqa: E402


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("perfbench_fake_layer")

    def double(x):
        return 2 * x

    class Kernel:
        @classmethod
        def make(cls, value):
            return cls()

        def run(self, x):
            return mod.double(x) + 1

    mod.double = double
    mod.Kernel = Kernel
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return mod


def _span(name):
    return lambda rec, args, kwargs: name


def test_missing_names_are_absent_and_the_rest_still_traced(fake_module):
    name = fake_module.__name__
    original_double = fake_module.double
    original_make = vars(fake_module.Kernel)["make"]
    targets = [
        Target(name, "double", _span("fake.double")),
        Target(name, "renamed_away", _span("fake.gone")),
        Target(name, "Kernel.make", _span("fake.make")),
        Target(name, "Kernel.run", _span("fake.run")),
        Target(name, "Kernel.merged_away", _span("fake.gone")),
        Target(name, "Missing.run", _span("fake.gone")),
        Target("perfbench_no_such_module", "anything", _span("fake.gone")),
    ]
    rec = Recorder()
    tracer = install(rec, targets)
    assert tracer.absent == [
        f"{name}:renamed_away",
        f"{name}:Kernel.merged_away",
        f"{name}:Missing.run",
        "perfbench_no_such_module:anything",
    ]
    assert len(tracer.installed) == 3

    root = rec.open("bench")
    kernel = fake_module.Kernel.make(1)
    assert kernel.run(3) == 7
    rec.close(root)
    tracer.uninstall()

    assert rec.names == ["bench", "fake.make", "fake.run", "fake.double"]
    assert rec.parents == [-1, 0, 0, 2]
    assert fake_module.double is original_double
    assert vars(fake_module.Kernel)["make"] is original_make
    self_ns = rec.self_times_ns()
    assert sum(self_ns.values()) == rec.ends[0] - rec.starts[0]


def test_real_targets_trace_a_study_and_restore():
    from gmmdc import IvLocal, StudyConfig, montecarlo
    from gmmdc._batch import BatchGmm

    original_draw = montecarlo.draw_system
    original_run = vars(BatchGmm)["run"]
    renamed = Target("gmmdc._batch", "BatchGmm.from_stack_v2", _span("batch.stack"))
    rec = Recorder()
    tracer = install(rec, tracing.TARGETS + (renamed,))
    assert tracer.absent == ["gmmdc._batch:BatchGmm.from_stack_v2"]
    try:
        root = rec.open("bench")
        cfg = StudyConfig(design=IvLocal(n=60, alpha0=0.0), replications=8,
                          estimators=("one", "iter"), seed=3)
        summary = montecarlo.run_study(cfg)
        rec.close(root)
    finally:
        tracer.uninstall()

    assert summary.estimators["iter"].failures == 0
    assert montecarlo.draw_system is original_draw
    assert vars(BatchGmm)["run"] is original_run
    self_ns = rec.self_times_ns()
    for span in ("montecarlo.run_study", "montecarlo.draw", "linmoment.build",
                 "batch.stack", "batch.run_one", "batch.run_iter"):
        assert self_ns.get(span, 0) > 0, span
    assert rec.names.count("montecarlo.draw") == 8
    assert rec.counters["batch.reps"] == 16
    assert sum(self_ns.values()) == rec.ends[0] - rec.starts[0]
