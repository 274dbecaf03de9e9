"""The kernel's one- and two-step estimates against their exact rational
values (:mod:`exact_oracle`), on fixed small systems: IV with k = 1 and
k = 2, and difference-GMM panels in both modes."""

import functools

import numpy as np
import pytest

from exact_oracle import ExactSystem
from gmmdc import FitPlan, PanelDataset, WeightSpec, build_ab_system, build_iv_system, fit
from gmmdc.montecarlo import ReplicationStreams, dgp_iv, dgp_panel_lag

#: The bound on |theta - exact| / max |exact|, in units of float64 epsilon.
#: The worst deviation over these cases is 6.7 eps (IV k = 2, two-step centered).
ULPS = 8


@functools.cache
def _systems():
    y, x, z = dgp_iv(50, 0.0, ReplicationStreams(31, 0))
    y2, x2, z2 = dgp_iv(50, 1.5, ReplicationStreams(32, 0), fixed=True)
    ones = np.ones((50, 1))
    lag = dgp_panel_lag(30, 4, 0.0, ReplicationStreams(33, 0))
    # A random walk plus noise: the designs' own ar1 panels at N = 30 are
    # weakly identified: their estimates sit hundreds of eps from the exact
    # answer, which no few-ulp bound can hold.
    rng = np.random.default_rng(3)
    walk = 0.5 * np.cumsum(rng.standard_normal((30, 5)), axis=1) + rng.standard_normal((30, 5))
    return {
        "iv k=1": build_iv_system(y, x, z),
        "iv k=2, misspecified": build_iv_system(y2, np.hstack([ones, x2]), np.hstack([ones, z2])),
        "panel predetermined": build_ab_system(PanelDataset(lag.y, lag.x), "predetermined"),
        "panel ar1": build_ab_system(PanelDataset(walk), "ar1"),
    }


@functools.cache
def _exact(label):
    s = _systems()[label]
    return ExactSystem(s.h, s.G_obs, s.Z_obs, s.H)


_PLANS = {
    "one-step, data-average": (FitPlan.one_step(), lambda e: e.one_step()),
    "one-step, identity": (FitPlan.one_step(WeightSpec.identity()),
                           lambda e: e.one_step("identity")),
    "two-step": (FitPlan.two_step(), lambda e: e.two_step()),
    "two-step, centered": (FitPlan.two_step(centered=True),
                           lambda e: e.two_step(centered=True)),
    "two-step from identity": (FitPlan.two_step(WeightSpec.identity()),
                               lambda e: e.two_step("identity")),
}


def _deviation(label, plan):
    """|theta - exact| / max |exact| of the kernel's estimate, in epsilons."""
    kernel_plan, exact = _PLANS[plan]
    want = np.array([float(x) for x in exact(_exact(label))])
    got = fit(_systems()[label], kernel_plan).theta
    return float(np.abs(got - want).max() / np.abs(want).max() / np.finfo(float).eps)


@pytest.mark.parametrize("plan", list(_PLANS))
@pytest.mark.parametrize("label", ["iv k=1", "iv k=2, misspecified", "panel predetermined",
                                   "panel ar1"])
def test_estimate_is_within_a_few_ulps_of_the_exact_answer(label, plan):
    assert _deviation(label, plan) <= ULPS


def test_the_systems_cover_both_k_and_both_panel_modes():
    shapes = {label: (s.n, s.q, s.k, s.Z_obs.shape[1]) for label, s in _systems().items()}
    assert shapes == {"iv k=1": (50, 4, 1, 1), "iv k=2, misspecified": (50, 5, 2, 1),
                      "panel predetermined": (30, 6, 1, 3), "panel ar1": (30, 6, 1, 3)}


def test_the_oracle_solves_a_system_by_hand():
    """Two observations, q = k = 1: theta = -h_n / G_n for any weight."""
    e = ExactSystem(np.array([[1.0], [2.0]]), np.array([[[0.5]], [[0.25]]]),
                    np.array([[[1.0]], [[3.0]]]), np.ones((1, 1)))
    assert e.one_step() == e.two_step(centered=True) == [-4]
