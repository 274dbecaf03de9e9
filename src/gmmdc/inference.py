"""Tests and confidence intervals: t statistics, the J test, and the
misspecification-robust percentile-t bootstrap.

The bootstrap resamples observation units (individuals for panel systems)
with replacement, studentizes by the doubly corrected standard error, and
needs no moment recentering; critical values are symmetric quantiles of |t*|.
Resample b draws its indices from the Philox stream keyed by (seed, b)
(:func:`bootstrap_rng`); :func:`bootstrap_draws` draws all B rows of one
stack at once, bit for bit the same, and applies numpy's bounded-integer
step to the whole matrix. A bootstrap takes 99 to :data:`MAX_BOOTSTRAP_B`
resamples. Every stream of the package is keyed here: :func:`_stream`
defines one, and :class:`_Streams` draws stacks of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional

import numpy as np
from scipy import special

from ._batch import BatchGmm, fatal_counts
from .errors import DegenerateVarianceError, GmmError, JNotDefinedError
from .estimate import FitPlan, GmmFit, _fit_state, fit
from .linmoment import LinearMomentSystem
from .variance import VarianceReport, variance_report

#: Stream-domain tag so bootstrap draws never collide with DGP draws.
BOOTSTRAP_STREAM = 104729

#: The 97.5% standard normal quantile, the two-sided 5% critical value.
Z_975 = float(special.ndtri(0.975))

#: The largest number of bootstrap resamples. The resample stack grows with
#: B, and far fewer resamples settle a percentile-t critical value.
MAX_BOOTSTRAP_B = 10**5

#: The largest resample stack a bootstrap allocates (1 GiB): B copies of the
#: system's stored h, G and weight-factor values (:func:`_resample_bytes`).
MAX_RESAMPLE_BYTES = 2**30


@dataclass(frozen=True)
class TestResult:
    """A single test: statistic, p-value, and 95% confidence bounds."""

    statistic: float
    p_value: float
    reject_5pct: bool
    df: Optional[int] = None
    ci_lower: Optional[float] = None
    ci_upper: Optional[float] = None


@dataclass(frozen=True)
class BootstrapResult:
    """Percentile-t bootstrap output.

    ``t_star`` holds the studentized statistics of the successful resamples;
    ``failures`` counts degenerate resamples that were skipped, and
    ``failure_reasons`` splits it by fatal reason label, zeros included, plus
    ``"degenerate-variance"`` (se_dc not finite and positive). When at least
    5% of resamples fail, ``reliability_warning`` is set.
    """

    B: int
    t_star: np.ndarray
    crit_abs: float
    reject_5pct: bool
    failures: int
    t_original: float
    reliability_warning: bool
    failure_reasons: Dict[str, int] = field(default_factory=dict)


def t_test(fit_result: GmmFit, report: VarianceReport, se_kind: str,
           coef: int, null_value: float) -> TestResult:
    """Two-sided asymptotic t test for one coefficient.

    ``se_kind`` is one of ``"conv"``, ``"w"``, ``"dc"``. The confidence
    interval is the estimate plus/minus the 97.5% normal quantile times the
    standard error.
    """
    se = report.se(se_kind)
    if not 0 <= coef < fit_result.k:
        raise IndexError(f"coefficient index {coef} out of range")
    se_c = float(se[coef])
    if se_c <= 0.0 or not math.isfinite(se_c):
        raise DegenerateVarianceError(f"standard error for coefficient {coef} is degenerate")
    est = float(fit_result.theta[coef])
    t = (est - null_value) / se_c
    p = 2.0 * float(special.ndtr(-abs(t)))
    return TestResult(
        statistic=t,
        p_value=p,
        reject_5pct=p < 0.05,
        ci_lower=est - Z_975 * se_c,
        ci_upper=est + Z_975 * se_c,
    )


def j_test(sys: LinearMomentSystem, fit_result: GmmFit) -> TestResult:
    """Test of the overidentifying restrictions.

    The statistic is n g_n(theta)' Xi^-1 g_n(theta) with Xi the efficient
    second-moment weight at the one-step estimate for one- and two-step fits
    (the two-step's second weight) and at the estimate for iterated fits,
    referred to chi-square with q - k degrees of freedom. This is the
    kernel's :meth:`BatchGmm.j_stat` on the fit's stack when ``sys`` is the
    system ``fit_result`` was fitted on, else on a new one-system stack.

    Raises
    ------
    JNotDefinedError
        For just-identified systems (q = k).
    """
    df = sys.q - sys.k
    if df <= 0:
        raise JNotDefinedError("the J test requires more moments than parameters")
    batch, state = _fit_state(sys, fit_result)
    j = float(batch.j_stat(state)[0])
    state.status.raise_for(0)
    p = float(special.chdtrc(df, max(j, 0.0)))     # chi2.sf is 1 below 0, chdtrc NaN
    return TestResult(statistic=float(j), p_value=p, reject_5pct=p < 0.05, df=df)


def bootstrap_rng(seed: int, replication: int) -> np.random.Generator:
    """Counter-based stream for one bootstrap replication: Philox keyed by
    ``SeedSequence((seed, replication, BOOTSTRAP_STREAM))``, counter 0.

    This is the definition of the stream; :func:`bootstrap_draws` draws the
    same indices for a whole stack of replications.
    """
    return _stream(seed, replication, BOOTSTRAP_STREAM)


def bootstrap_draws(seed: int, B: int, n: int) -> np.ndarray:
    """The (B, n) int64 resample indices of replications 0, ..., B - 1: row b
    is ``bootstrap_rng(seed, b).integers(0, n, size=n)``, bit for bit.

    Each row's ceil(n/2) raw 64-bit words come from its stream in
    :class:`_Streams`. Read as explicit little-endian uint32 pairs, on any
    host, each word gives its low and then its high half, the order of
    Philox's ``next_uint32``. numpy's bounded-integer step (Lemire 2019) then
    runs on the whole matrix at once: m = u32 n, index = m >> 32. A row where
    that step would reject a draw, (m mod 2**32) < (2**32 - n) mod n, is
    drawn again from its definition.
    """
    seed = _check_seed(seed)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    words = _Streams.of(seed, np.arange(B)).draw(
        BOOTSTRAP_STREAM, lambda g: g.bit_generator.random_raw((n + 1) // 2))
    u32 = np.asarray(words, dtype="<u8").view("<u4").reshape(B, n + n % 2)[:, :n]
    redraw = (u32 * np.uint32(n) < (2**32 - n) % n).any(axis=1)   # uint32 wraps: m mod 2**32
    out = u32.astype(np.uint64)
    out *= np.uint64(n)
    out >>= np.uint64(32)
    out = out.view(np.int64)
    for b in np.flatnonzero(redraw):
        out[b] = bootstrap_rng(seed, b).integers(0, n, size=n)
    return out


def _check_B(B: int, name: str = "B") -> None:
    """Reject a bootstrap size outside [99, MAX_BOOTSTRAP_B]; the error names ``name``."""
    if not 99 <= B <= MAX_BOOTSTRAP_B:
        raise ValueError(f"{name} must be at least 99 and at most {MAX_BOOTSTRAP_B}, got {B}")


def _check_seed(seed, name: str = "seed") -> int:
    """``seed`` as an int, if it is a non-negative integer; the error names ``name``."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {seed!r}")
    return int(seed)


def _stream(seed, replication, block: int) -> np.random.Generator:
    """Philox keyed by ``SeedSequence((seed, replication, block))``, counter 0: the
    stream of every DGP block and bootstrap resample, its counters checked."""
    key = (_check_seed(seed), _check_seed(replication, "replication"), block)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


# numpy's SeedSequence entropy hash (pool size 4, 32-bit words)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

#: Up to this many counters, ``SeedSequence`` keys them faster than the hash.
_FEW_COUNTERS = 12


def _words(x: int) -> list:
    """A non-negative int as SeedSequence splits it: little-endian 32-bit
    words, 0 as one word."""
    words = [x & _MASK32]
    while x > _MASK32:
        x >>= 32
        words.append(x & _MASK32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays, with its running constant:
    each call xors in the constant, steps it by ``mult`` and multiplies by
    the new one."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ value >> 16
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ r >> 16


def _stream_keys(lead: int, counters: np.ndarray, tail: int) -> np.ndarray:
    """The Philox keys (len(counters), 2) uint64 of the streams
    ``SeedSequence((lead, c, tail))``, ``generate_state(2, np.uint64)``, for
    the non-negative counters c; ``lead`` and ``tail`` are non-negative ints.
    More than :data:`_FEW_COUNTERS` counters in [0, 2**32) go through numpy's
    entropy hash at once, one uint32 array per entropy word and pool word;
    any other set, through ``SeedSequence``, which rejects a negative one.
    """
    if counters.size <= _FEW_COUNTERS or not 0 <= counters.min() <= counters.max() <= _MASK32:
        return np.array([np.random.SeedSequence((lead, c, tail)).generate_state(2, np.uint64)
                         for c in counters.tolist()], dtype=np.uint64).reshape(-1, 2)
    head = _words(lead)
    words = head + [0] + _words(tail)
    entropy = np.repeat(np.array(words, dtype=np.uint32)[:, None], counters.size, axis=1)
    entropy[len(head)] = counters
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(words) else np.zeros_like(entropy[0]))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(words)):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[src]))
    draw = _hasher(_INIT_B, _MULT_B)
    state = [draw(word).astype(np.uint64) for word in pool]
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


class _Streams(NamedTuple):
    """The streams :func:`_stream` (seed, r, block) of replications ``reps[rows]``,
    drawn as stacks. Every row view (``_replace(rows=...)``) of :meth:`of` shares
    ``cache``: each block's keys for all of ``reps``, from one :func:`_stream_keys`
    pass, and one Philox generator re-keyed from a fresh stream's state (counter 0,
    empty buffer)."""

    seed: int
    reps: np.ndarray
    rows: slice
    cache: dict

    @classmethod
    def of(cls, seed: int, reps: np.ndarray) -> "_Streams":
        bit_gen = np.random.Philox(0)
        return cls(seed, reps, slice(None), {None: (np.random.Generator(bit_gen), bit_gen.state)})

    @property
    def replication(self) -> int:
        """The view's first replication: a one-row view's own."""
        return int(self.reps[self.rows][0])

    def draw(self, block: int, f) -> np.ndarray:
        """The stack of ``f(_stream(seed, r, block))`` over the view's
        replications r, bit for bit."""
        if block not in self.cache:
            self.cache[block] = _stream_keys(self.seed, self.reps, block)
        gen, fresh = self.cache[None]
        bit_gen, rows = gen.bit_generator, []
        for key in self.cache[block][self.rows]:
            fresh["state"]["key"] = key
            bit_gen.state = fresh
            rows.append(f(gen))
        return np.array(rows)


def critical_value(t_abs: np.ndarray, alpha: float = 0.05) -> float:
    """Symmetric bootstrap critical value: the ceil((B+1)(1-alpha)) order statistic."""
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    b = t_abs.shape[0]
    if b == 0:
        raise GmmError("no successful bootstrap replications")
    rank = min(math.ceil((b + 1) * (1.0 - alpha)), b)
    return float(np.sort(t_abs)[rank - 1])


def mr_bootstrap(sys: LinearMomentSystem, plan: FitPlan, coef: int, B: int,
                 seed: int, null_value: float = 0.0) -> BootstrapResult:
    """Misspecification-robust percentile-t bootstrap for one coefficient.

    Draws ``B`` nonparametric resamples of the observation units with
    replacement (individuals for panel systems), refits ``plan`` on each, and
    studentizes the deviation from the full-sample estimate by the resample's
    doubly corrected standard error. No recentering of the moments is
    applied. The test rejects when the full-sample t statistic against
    ``null_value`` (also dc-studentized) exceeds the symmetric critical
    value. Degenerate resamples are skipped and counted by reason.

    Replication b draws its indices from the stream keyed by (seed, b)
    (:func:`bootstrap_rng`), so results are reproducible and independent of
    scheduling; all B rows come from one :func:`bootstrap_draws` call.
    ``seed`` must be a non-negative integer. Studies and ``gmmdc estimate``
    run all their plans and coefficients on one such set of resamples; this
    is its one-plan, one-coefficient view.
    """
    return _unwrap(_percentile_t(sys, B, seed, [plan], [coef], [null_value])[0][0])


def _unwrap(result):
    """A bootstrap result of :func:`_percentile_t`, or raise the error that ended it."""
    if isinstance(result, GmmError):
        raise result
    return result


def _resample_bytes(sys: LinearMomentSystem, B: int) -> int:
    """The bytes of ``B`` resamples of the arrays ``sys`` stores: the stack
    :meth:`BatchGmm.from_system` gathers."""
    stored = [sys.h, sys.G_obs] + ([] if sys.factors is None else [sys.factors.values])
    return B * sum(a.nbytes for a in stored)


def _percentile_t(sys: LinearMomentSystem, B: int, seed: int, plans, coefs, nulls, bases=None,
                  name: str = "B"):
    """The bootstrap of each plan in ``plans`` and coefficient in ``coefs``
    (against ``nulls``) on one stack of ``B`` resamples of ``sys``, each plan
    run on it once.

    ``bases`` gives each plan's full-sample (theta, se_dc); by default it is
    fitted here. Entry [p][j] is the :class:`BootstrapResult` of ``plans[p]``
    and ``coefs[j]``, or the :class:`GmmError` that ended it. A ``B`` out of
    range, or whose resample stack would exceed :data:`MAX_RESAMPLE_BYTES`,
    raises a ``ValueError`` naming ``name`` before anything is drawn.
    """
    _check_seed(seed)
    _check_B(B, name)
    size = _resample_bytes(sys, B)
    if size > MAX_RESAMPLE_BYTES:
        raise ValueError(f"{name} = {B} resamples of {sys.n} units need a {size / 2**30:.1f} GiB "
                         f"resample stack, more than the {MAX_RESAMPLE_BYTES / 2**30:g} GiB bound")
    if sys.n < 10:
        raise ValueError("bootstrap needs at least 10 resampling units")
    for coef in coefs:
        if not 0 <= coef < sys.k:
            raise IndexError(f"coefficient index {coef} out of range")
    if bases is None:
        bases = [(f.theta, variance_report(sys, f).se_dc) for f in (fit(sys, p) for p in plans)]

    batch, out = None, []
    for plan, (theta, se) in zip(plans, bases):
        row = [None if se[c] > 0.0 and math.isfinite(se[c]) else
               DegenerateVarianceError("doubly corrected standard error is degenerate")
               for c in coefs]
        out.append(row)
        if None not in row:
            continue
        if batch is None:
            batch = BatchGmm.from_system(sys, bootstrap_draws(seed, B, sys.n))
        result = batch.run(plan)
        reasons = fatal_counts(result.status.reason)
        for j, (coef, null_value) in enumerate(zip(coefs, nulls)):
            if row[j] is not None:
                continue
            se_star = result.se_dc[:, coef]
            usable = np.isfinite(se_star) & (se_star > 0)
            ok = result.ok & usable
            if not ok.any():
                row[j] = GmmError("all bootstrap resamples were degenerate")
                continue
            theta0 = float(theta[coef])
            t_star = (result.theta[ok, coef] - theta0) / se_star[ok]
            t_original = (theta0 - null_value) / float(se[coef])
            crit = critical_value(np.abs(t_star))
            failures = int(B - ok.sum())
            row[j] = BootstrapResult(
                B=B, t_star=t_star, crit_abs=crit, reject_5pct=abs(t_original) > crit,
                failures=failures, t_original=t_original,
                reliability_warning=failures / B >= 0.05,
                failure_reasons={**reasons, "degenerate-variance": int((result.ok & ~usable).sum())},
            )
    return out
