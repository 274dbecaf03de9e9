#!/usr/bin/env python3
"""gmmdc benchmark: four workloads, end-to-end metrics, and a traced per-layer run.

Usage, from the repository root::

    python3 perfbench/run.py --workload mc_iv --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A single-workload run prints every metric by name and unit, the output
checks and the provenance, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. ``--workload all``
runs every workload untraced and traced in fresh processes, prints both sets
and the tracing overhead, and rewrites ``BENCHMARK.json`` from the tables
below. Results and span files go to ``perfbench/results/``.

The package is imported from ``src/`` of the checkout the script sits in; a
directory without it is an error (exit 2). Threads are pinned to one
(``OPENBLAS_NUM_THREADS=1``) before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORK = HERE / ".work"

RUN_SECONDS = 18
#: Fresh processes that each import gmmdc and run one cold unit: some before
#: the timed loop and some after it, so that they sample more of the host's
#: slow and fast phases.
SETUP_PROBES_BEFORE, SETUP_PROBES_AFTER = 2, 3
WORKERS = 1

#: (name, unit, better, bound): metrics a user of the package sees, with the
#: share by which each may worsen. Only the tail latency is bounded among the
#: times: on the shared reference host the median and the mean throughput
#: swing with its fast and slow phases (see README.md). They are still printed.
END_TO_END = (
    ("estimate_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
)

#: (name, unit, better): per-layer metrics of the traced run. Times are self
#: times per unit (one ``run_study`` call or one CLI call).
PER_LAYER = (
    ("montecarlo.draw_ms", "ms", "lower"),
    ("montecarlo.self_ms", "ms", "lower"),
    ("linmoment.build_ms", "ms", "lower"),
    ("linmoment.system_mb", "MB", "lower"),
    ("batch.stack_ms", "ms", "lower"),
    ("batch.run_one_ms", "ms", "lower"),
    ("batch.run_two_ms", "ms", "lower"),
    ("batch.run_iter_ms", "ms", "lower"),
    ("batch.ok_frac", "ratio", "higher"),
    ("batch.converged_frac", "ratio", "higher"),
    ("estimate.fit_ms", "ms", "lower"),
    ("estimate.iterations", "count", "lower"),
    ("variance.report_ms", "ms", "lower"),
    ("inference.boot_ms", "ms", "lower"),
    ("inference.boot_draw_ms", "ms", "lower"),
    ("batch.gather_ms", "ms", "lower"),
    ("inference.boot_refit_ms", "ms", "lower"),
    ("inference.boot_gather_mb", "MB", "lower"),
    ("inference.boot_ok_frac", "ratio", "higher"),
    ("inference.tests_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("bench.self_ms", "ms", "lower"),
    ("host.blas_ref_ms", "ms", "lower"),
    ("traced.reps_per_s", "1/s", "higher"),
    ("traced.estimate_ms_p90", "ms", "lower"),
)

#: Span whose self time is each per-layer time metric.
SPAN_OF = {
    "montecarlo.draw_ms": "montecarlo.draw",
    "montecarlo.self_ms": "montecarlo.run_study",
    "linmoment.build_ms": "linmoment.build",
    "batch.stack_ms": "batch.stack",
    "batch.run_one_ms": "batch.run_one",
    "batch.run_two_ms": "batch.run_two",
    "batch.run_iter_ms": "batch.run_iter",
    "estimate.fit_ms": "estimate.fit",
    "variance.report_ms": "variance.report",
    "inference.boot_ms": "inference.boot",
    "inference.boot_draw_ms": "inference.boot_draw",
    "batch.gather_ms": "batch.gather",
    "inference.boot_refit_ms": "inference.boot_refit",
    "inference.tests_ms": "inference.tests",
    "cli.self_ms": "cli.main",
    "bench.self_ms": "bench",
}

#: The keys of ``workloads.WORKLOADS``, listed here so that parsing the
#: arguments imports no numpy before the threads are pinned.
WORKLOAD_NAMES = ("mc_iv", "mc_panel", "boot_iv", "estimate_csv")


def pin_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def require_source() -> None:
    if not (ROOT / "src" / "gmmdc" / "__init__.py").is_file():
        print(f"error: no gmmdc sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


# ---------------------------------------------------------------------------
# set-up probes


def setup_probe(workload: str, seed: int) -> None:
    """Child process: time ``import gmmdc`` plus the first (cold) unit."""
    t0 = time.perf_counter()
    import gmmdc.cli  # noqa: F401  (imports every benchmarked module)
    t1 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[workload]
    workdir = WORK / f"probe-{os.getpid()}"
    try:
        state = wl.prepare(seed, workdir)
        t2 = time.perf_counter()
        wl.unit(state, 0)
        t3 = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2)}))


def measure_setup(workload: str, seed: int, count: int) -> list:
    out = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
        out.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return out


# ---------------------------------------------------------------------------
# one run


def layer_metrics(self_ns: dict, c: dict, units: int) -> dict:
    out = {name: self_ns.get(span, 0) / 1e6 / units for name, span in SPAN_OF.items()}
    out["linmoment.system_mb"] = c["linmoment.system_bytes"] / 1e6 / units
    out["batch.ok_frac"] = c["batch.ok"] / c["batch.reps"] if c["batch.reps"] else 1.0
    out["batch.converged_frac"] = (c["batch.converged"] / c["batch.reps"]
                                   if c["batch.reps"] else 1.0)
    out["estimate.iterations"] = (c["estimate.iterations"] / c["estimate.iter_calls"]
                                  if c["estimate.iter_calls"] else 0.0)
    calls = c["inference.boot_calls"]
    out["inference.boot_gather_mb"] = c["inference.gather_bytes"] / 1e6 / calls if calls else 0.0
    resamples = c["inference.boot_resamples"]
    out["inference.boot_ok_frac"] = (1.0 - c["inference.boot_failed"] / resamples
                                     if resamples else 1.0)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s = [] if trace else measure_setup(name, seed, SETUP_PROBES_BEFORE)

    import hostinfo
    import workloads

    wl = workloads.WORKLOADS[name]
    prov = hostinfo.provenance(ROOT, seed, WORKERS)
    wall0 = time.perf_counter()
    control_start = hostinfo.blas_control_ms()
    workdir = WORK / f"{name}-{os.getpid()}"
    attempted = failed = 0
    try:
        state = wl.prepare(seed, workdir)
        wl.unit(state, 0)                      # warm-up, untimed

        rec = tracer = None
        if trace:
            import tracing

            rec = tracing.Recorder()
            tracer = tracing.install(rec)
            root = rec.open("bench")
        latencies = []
        reps = 0
        start = time.perf_counter()
        u = 1
        while True:
            t0 = time.perf_counter()
            try:
                unit = wl.unit(state, u)
            except Exception:                  # a failed call counts; the loop goes on
                traceback.print_exc()
                unit = workloads.Unit(reps=0, attempted=1, failed=1)
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            reps += unit.reps
            attempted += unit.attempted
            failed += unit.failed
            u += 1
            if t1 - start >= seconds:
                break
        elapsed = time.perf_counter() - start
        if trace:
            rec.close(root)
            tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        control_end = hostinfo.blas_control_ms()
        if not trace:
            setup_s += measure_setup(name, seed, SETUP_PROBES_AFTER)

        checks = []
        try:
            checks = wl.checks(state)
        except Exception as exc:
            traceback.print_exc()
            checks = [workloads.Check("output checks", False, f"raised {exc!r}")]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted += len(checks)
    failed += sum(not c.ok for c in checks)
    units = len(latencies)
    figures = {
        "reps_per_s": reps / elapsed,
        "estimate_ms_p50": statistics.median(latencies) * 1e3,
        "estimate_ms_p90": (statistics.quantiles(latencies, n=10, method="inclusive")[-1]
                            if len(latencies) > 1 else latencies[0]) * 1e3,
    }
    control = hostinfo.summarize_control(control_start, control_end)
    if trace:
        self_ns = rec.self_times_ns()
        metrics = layer_metrics(self_ns, rec.counters, units)
        metrics["host.blas_ref_ms"] = control["median_ms"]
        metrics["traced.reps_per_s"] = figures["reps_per_s"]
        metrics["traced.estimate_ms_p90"] = figures["estimate_ms_p90"]
        table = PER_LAYER
    else:
        metrics = {
            "estimate_ms_p90": figures["estimate_ms_p90"],
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_s),
        }
        table = END_TO_END
    prov["wall_s"] = time.perf_counter() - wall0
    prov["host.blas_ref_ms"] = control
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "units": units,
        "reps": reps,
        "elapsed_s": elapsed,
        "failed_frac": failed / attempted,
        "figures": figures,
        "setup_s_samples": setup_s,
        "unit_ms": [t * 1e3 for t in latencies],
        "checks": [vars(c) for c in checks],
        "provenance": prov,
    }
    if trace:
        detail["absent"] = tracer.absent
        detail["span_self_ms"] = {k: v / 1e6 for k, v in sorted(self_ns.items())}
        detail["counters"] = dict(rec.counters)
        detail["spans"] = len(rec.names)
        wall_ns = rec.ends[root] - rec.starts[root]
        detail["layers_share_of_traced_wall"] = 1.0 - self_ns["bench"] / wall_ns
    result = {
        "correct": all(c.ok for c in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m[0]: {"value": metrics[m[0]], "unit": m[1]} for m in table},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{name}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps({**detail, "result": result}, indent=2))
    if trace:
        rec.write_tsv(stem.with_suffix(".spans.tsv"))
    _print_report(detail, result)
    return result


def _print_report(detail: dict, result: dict) -> None:
    print(f"workload {detail['workload']}  seed {detail['seed']}  "
          f"seconds {detail['seconds']}  trace {detail['trace']}  "
          f"units {detail['units']}  reps {detail['reps']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<26} {m['value']:>14.6g} {m['unit']}")
    units = {"reps_per_s": "1/s", "estimate_ms_p50": "ms", "estimate_ms_p90": "ms"}
    for name, value in detail["figures"].items():
        if not {name, "traced." + name} & result["metrics"].keys():
            print(f"  {name + ' (unbounded)':<26} {value:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<26} {detail['failed_frac']:>14.6g} "
          f"({result['failed']} of {result['attempted']})")
    for c in detail["checks"]:
        print(f"  check {'PASS' if c['ok'] else 'FAIL'}: {c['name']}: {c['detail']}")
    if detail["trace"]:
        print(f"  spans {detail['spans']}; absent wrappers: {detail['absent'] or 'none'}; "
              f"layers account for {detail['layers_share_of_traced_wall']:.2%} "
              f"of the traced wall time")
        for span, ms in detail["span_self_ms"].items():
            print(f"    self {span:<24} {ms:>12.3f} ms total")
    print("  provenance " + json.dumps(detail["provenance"]))


# ---------------------------------------------------------------------------
# every workload, and the manifest


def write_manifest() -> None:
    import workloads

    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": workloads.WORKLOADS[n].why} for n in WORKLOAD_NAMES],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def run_all(seed: int, seconds: float) -> dict:
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900, cwd=ROOT)
            sys.stdout.write(done.stdout[:done.stdout.rstrip().rfind("\n") + 1])
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise RuntimeError(f"{name} trace {trace} exited {done.returncode}")
            results[(name, trace)] = json.loads(done.stdout.strip().splitlines()[-1])
    print("tracing overhead (traced / untraced):")
    for name in WORKLOAD_NAMES:
        plain, traced = (
            json.loads((RESULTS / f"{name}-seed{seed}-trace{t}.json").read_text())["figures"]
            for t in (0, 1))
        print(f"  {name:<14}" + "".join(
            f"  {key} {traced[key] / plain[key]:.3f}"
            for key in ("reps_per_s", "estimate_ms_p50", "estimate_ms_p90")))
    write_manifest()
    print(f"wrote {ROOT / 'BENCHMARK.json'}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": m for (name, trace), r in results.items()
                    for key, m in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    require_source()
    pin_threads()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
