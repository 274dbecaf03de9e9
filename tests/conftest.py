import numpy as np
import pytest

from gmmdc import (
    ExpansionTruth,
    FitPlan,
    LinearMomentSystem,
    ReplicationStreams,
    WeightSpec,
    build_iv_system,
    dgp_iv,
    fit,
)


def random_system(rng, n=40, q=4, k=2, with_weight_obs=True):
    """A well-conditioned random linear moment system."""
    h = rng.standard_normal((n, q))
    G = rng.standard_normal((n, q, k)) - 1.0
    W = None
    if with_weight_obs:
        f = rng.standard_normal((n, q, q))
        W = np.einsum("nqj,npj->nqp", f, f) + 2.0 * np.eye(q)
    return LinearMomentSystem(h=h, G_obs=G, W_obs=W)


#: (kind, centered, preliminary weight) of every fit the views may share a stack with.
SHARED_STACK_PLANS = [(kind, centered, w0) for kind in ("one-step", "two-step", "iterated")
                      for centered in (False, True) for w0 in ("identity", "data-average")]


def fit_and_twin(kind, centered, w0):
    """An over-identified IV system with k = 2, its fit under the plan, and a
    second system object holding equal arrays (which the views cannot tell
    is the same)."""
    y, X, Z = dgp_iv(80, 0.4, ReplicationStreams(41, 2))
    X = np.column_stack([X[:, 0], Z[:, 0]])
    sysm, twin = build_iv_system(y, X, Z), build_iv_system(y, X, Z)
    weight = WeightSpec.identity() if w0 == "identity" else WeightSpec.data_average()
    return sysm, fit(sysm, FitPlan(kind, weight, centered)), twin


def iv_population_truth(n, alpha0):
    """Exact population quantities of the local-violation IV design at size n.

    Derived analytically: instruments are standard normal, the first stage
    loads 0.25 on each, the error variance is 0.25 (common shock) plus
    0.75 z_1^2 (conditionally heteroskedastic part), and the violation loads
    alpha0/sqrt(n) on a = (1, -1, 1, -1)'.
    """
    a = np.array([1.0, -1.0, 1.0, -1.0])
    ones = np.ones(4)
    G = -0.25 * ones[:, None]
    W = np.eye(4)
    Omega = np.diag([2.5, 1.0, 1.0, 1.0]) + (alpha0**2 / n) * (
        4.0 * np.eye(4) + 2.0 * np.outer(a, a))
    dOmega = (-np.eye(4) - (0.5 * alpha0 / np.sqrt(n)) * (
        np.outer(ones, a) + np.outer(a, ones)))[None]
    return ExpansionTruth(G=G, W=W, Omega=Omega, dOmega=dOmega,
                          delta=alpha0 * a, theta0=np.array([1.0]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
