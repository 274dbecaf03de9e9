"""The boot_iv output checks must fail on a wrong critical value, a wrong
decision, or a rejection rate outside the band on either side.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import pytest  # noqa: E402

import workloads  # noqa: E402
from gmmdc import FitPlan, IvLocal, ReplicationStreams, draw_system  # noqa: E402

B = 99
SEED = 11


@pytest.fixture(scope="module")
def system():
    return draw_system(IvLocal(n=100, alpha0=0.0), ReplicationStreams(SEED, 0))


def _check_with(monkeypatch, system, **changes):
    real = workloads.mr_bootstrap

    def broken(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), **changes)

    monkeypatch.setattr(workloads, "mr_bootstrap", broken)
    return workloads.bootstrap_t_check(system, FitPlan.two_step(), B, seed=SEED, label="two")


def test_bootstrap_check_passes_on_the_real_bootstrap(system):
    check = workloads.bootstrap_t_check(system, FitPlan.two_step(), B, seed=SEED, label="two")
    assert check.ok, check.detail


def test_bootstrap_check_catches_a_wrong_order_statistic(monkeypatch, system):
    res = workloads.mr_bootstrap(system, FitPlan.two_step(), coef=0, B=B, seed=SEED)
    t_abs = sorted(abs(t) for t in res.t_star)
    assert res.crit_abs == t_abs[94]           # ceil(100 * 0.95) = 95th of 99
    check = _check_with(monkeypatch, system, crit_abs=t_abs[93])
    assert not check.ok and "crit_abs" in check.detail


def test_bootstrap_check_catches_a_wrong_decision(monkeypatch, system):
    res = workloads.mr_bootstrap(system, FitPlan.two_step(), coef=0, B=B, seed=SEED)
    check = _check_with(monkeypatch, system, reject_5pct=not res.reject_5pct)
    assert not check.ok and "reject_5pct" in check.detail


def test_rejection_band_has_two_sides():
    assert workloads.rejection_band_check("two", 0.069, 12, 200).ok
    assert not workloads.rejection_band_check("two", 0.069, 0, 200).ok
    assert not workloads.rejection_band_check("two", 0.069, 40, 200).ok
    # With few replications zero rejections is likely, and passes.
    assert workloads.rejection_band_check("two", 0.069, 0, 20).ok
