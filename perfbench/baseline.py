#!/usr/bin/env python3
"""Reproduce ROADMAP's baseline table with the committed benchmark code.

Usage, from the repository root::

    python3 perfbench/baseline.py [--seed 0]

Same settings as the table: one process, ``OPENBLAS_NUM_THREADS=1``, best of
``REPEATS``; the median is printed too. Each row is timed at fixed seeds,
next to the number the table quotes. The machine-speed control
(``host.blas_ref_ms``) is timed before and after, and everything is written
to ``perfbench/results/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

from run import RESULTS, ROOT, WORKERS, pin_threads, require_source

REPEATS = 3

#: (label, table value in ms for "draw + build", table value in ms for "whole").
TABLE = {
    "iv500": ("64-rep chunk, IV n=500, one+two+iter", 35.7, 116.1),
    "iv50": ("64-rep chunk, IV n=50, alpha0=1", 15.1, 41.9),
    "rc500x4": ("64-rep chunk, panel-rc N=500 T=4", 91.4, 162.2),
    "lag100x4": ("64-rep chunk, panel-lag N=100 T=4", 127.0, 193.3),
    "rc200x8": ("64-rep chunk, panel-rc N=200 T=8", 653.0, 1034.3),
    "boot": ("mr_bootstrap IV n=100, B=499, two-step", 15.9, 58.8),
    "c5": ("criterion-5-shaped study, 128 reps, one+two", 60.0, 10460.0),
}


def _time(fn):
    out = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        out.append((time.perf_counter() - t0) * 1e3)
    return out


def measure(seed: int) -> dict:
    from gmmdc import (FitPlan, IvLocal, PanelLagMiss, PanelRandomCoef, ReplicationStreams,
                       StudyConfig, draw_system, mr_bootstrap, run_study)
    from gmmdc.inference import bootstrap_rng

    designs = {
        "iv500": IvLocal(n=500, alpha0=0.0),
        "iv50": IvLocal(n=50, alpha0=1.0),
        "rc500x4": PanelRandomCoef(N=500, T=4, alpha0=0.0),
        "lag100x4": PanelLagMiss(N=100, T=4, alpha0=0.0),
        "rc200x8": PanelRandomCoef(N=200, T=8, alpha0=0.0),
    }
    rows = {}
    for key, design in designs.items():
        cfg = StudyConfig(design=design, replications=64, seed=seed)
        draw = _time(lambda: [draw_system(design, ReplicationStreams(seed, r))
                              for r in range(64)])
        whole = _time(lambda: run_study(cfg))
        rows[key] = (draw, whole)

    system = draw_system(IvLocal(n=100, alpha0=0.0), ReplicationStreams(seed, 0))
    draws = _time(lambda: [bootstrap_rng(seed, b).integers(0, system.n, size=system.n)
                           for b in range(499)])
    whole = _time(lambda: mr_bootstrap(system, FitPlan.two_step(), coef=0, B=499,
                                       seed=seed))
    rows["boot"] = (draws, whole)

    c5 = dict(design=IvLocal(n=100, alpha0=0.0), replications=128,
              estimators=("one", "two"), seed=seed)
    without = _time(lambda: run_study(StudyConfig(**c5)))
    with_b = _time(lambda: run_study(StudyConfig(**c5, bootstrap_B=499)))
    rows["c5"] = (without, with_b)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    require_source()
    pin_threads()
    import hostinfo

    control_start = hostinfo.blas_control_ms()
    rows = measure(args.seed)
    control = hostinfo.summarize_control(control_start, hostinfo.blas_control_ms())

    print("| workload | draw + build: table / best / median (ms) "
          "| whole: table / best / median (ms) |")
    print("| --- | --- | --- |")
    out = {}
    for key, (first, second) in rows.items():
        label, t_first, t_second = TABLE[key]
        cells = []
        for table_ms, samples in ((t_first, first), (t_second, second)):
            cells.append(f"{table_ms:g} / {min(samples):.1f} / {statistics.median(samples):.1f}")
        print(f"| {label} | {cells[0]} | {cells[1]} |")
        out[key] = {"label": label, "table_ms": [t_first, t_second],
                    "first_ms": first, "second_ms": second}
    print("first column of the bootstrap row: index draws; of the criterion-5 row: "
          "the study without the bootstrap")
    print(f"host.blas_ref_ms: start {control['start_ms']:.1f}, end {control['end_ms']:.1f}")
    RESULTS.mkdir(parents=True, exist_ok=True)
    doc = {"rows": out, "repeats": REPEATS,
           "provenance": {**hostinfo.provenance(ROOT, args.seed, WORKERS),
                          "host.blas_ref_ms": control}}
    (RESULTS / "baseline.json").write_text(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
