"""Provenance of a benchmark run and the machine-speed control.

The control is a fixed numpy matmul loop timed at the start and at the end
of every run. Shared machines drift in speed from minute to minute; the
control makes a slow phase visible next to the result. It is reported, never
used to rescale a metric.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

#: Control size and repetitions: 20 products of 300 x 300 matrices per sample.
CONTROL_N = 300
CONTROL_PRODUCTS = 20
CONTROL_SAMPLES = 5


def blas_control_ms() -> list:
    """Wall times (ms) of ``CONTROL_SAMPLES`` fixed matmul loops."""
    a = np.random.default_rng(0).standard_normal((CONTROL_N, CONTROL_N)) / CONTROL_N
    out = []
    for _ in range(CONTROL_SAMPLES):
        t0 = time.perf_counter()
        b = a
        for _ in range(CONTROL_PRODUCTS):
            b = a @ b
        float(b[0, 0])
        out.append((time.perf_counter() - t0) * 1e3)
    return out


def _command(argv, cwd) -> str:
    # The ceiling keeps git from reporting a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(Path(cwd).resolve().parent)}
    try:
        done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "gmmdc").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def provenance(root: Path, seed: int, workers: int) -> dict:
    """Static facts about the code, the libraries and the machine."""
    return {
        "git_commit": _command(["git", "rev-parse", "HEAD"], root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workers": workers,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "l2_cache_bytes": _command(["getconf", "LEVEL2_CACHE_SIZE"], root),
        "l3_cache_bytes": _command(["getconf", "LEVEL3_CACHE_SIZE"], root),
        "platform": platform.platform(),
        "executable": Path(sys.executable).name,
        "seed": seed,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def summarize_control(start: list, end: list) -> dict:
    return {
        "start_ms": statistics.median(start),
        "end_ms": statistics.median(end),
        "median_ms": statistics.median(start + end),
        "samples_ms": start + end,
    }
