"""One fresh benchmark process: set up a workload, then measure it, trace
it, or stop (``--mode setup``, used to sample set-up time again).

Writes one JSON object to ``--out``.  ``setup_s`` is measured from
``--spawned``, the parent's monotonic clock just before it started this
process, to the moment the first timed batch may start.
"""

import argparse
import dataclasses
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import astzeros  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from calib import calibrate  # noqa: E402
from tracer import Tracer  # noqa: E402


def environment():
    import multiprocessing

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_config": blas.get("openblas configuration"),
        "blas_threads": openblas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "pool_start_method": multiprocessing.get_start_method(),
    }


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, as inherited; None
    when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {ln.split()[-1] for ln in f if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def peak_rss_mb():
    """Largest resident set of this process or any child it waited for
    (pool workers included), in MiB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def measure(w, seconds):
    """Timed batches until ``seconds`` of timed work; returns the timed
    wall of each batch, the realizations each completed, and the mean of
    the calibration times taken just before and just after each batch."""
    walls, done, calib, b = [], [], [], 0
    while sum(walls) < seconds:
        w.prepare(b)
        c0 = calibrate()
        t0 = time.perf_counter()
        w.run(b)
        walls.append(time.perf_counter() - t0)
        calib.append((c0 + calibrate()) / 2.0)
        done.append(w.check(b))
        b += 1
    w.finish()
    return walls, done, calib


def trace(w, work):
    """Untraced and traced passes over batch 0 (and the gaf_reference
    known-defect probe) at one worker; per-layer metrics from the traced
    pass."""
    batches = getattr(w, "trace_batches", (0,))

    def one_pass(name, workers=1):
        w.work = os.path.join(work, name)
        if hasattr(w, "workers"):
            w.workers = workers
        for b in batches:
            w.prepare(b)
        t0 = tracer.now()
        for b in batches:
            w.run(b)
        return tracer.now() - t0

    tracer = Tracer()
    pool_wall, pool_workers = None, 1
    if isinstance(w, workloads.DeskExperiment):
        pool_workers = w.workers
        pool_wall = one_pass("untraced_pool", pool_workers)
    wall_untraced = one_pass("untraced")
    if isinstance(w, workloads.ExperimentWorkload) and pool_wall is None:
        pool_wall = wall_untraced
    layers.install(tracer)
    try:
        wall_traced = one_pass("traced")
    finally:
        tracer.uninstall()
    for b in batches:
        w.check(b)
    if isinstance(w, workloads.DeskExperiment):
        w.compare_bundles(os.path.join(work, "untraced_pool", "bundle_0"),
                          os.path.join(work, "traced", "bundle_0"))
    probe = getattr(w, "probe", None)
    metrics, self_t = layers.per_layer_metrics(
        tracer, wall_traced, wall_untraced, pool_wall, pool_workers,
        gaf_failures=(None if probe is None
                      else w.tally.failed + probe.failed))
    detail = {
        "wall_traced_s": wall_traced,
        "wall_untraced_s": wall_untraced,
        "pool_wall_s": pool_wall,
        "spans": [dataclasses.asdict(sp) for sp in tracer.spans],
        "self_time_s": self_t,
        "counts": tracer.counts,
        "missing": tracer.missing,
    }
    if probe is not None:
        detail["probe"] = {"attempted": probe.attempted,
                           "failed": probe.failed, "errors": probe.errors,
                           "count_ratio_err": probe.count_ratio_err()}
    return metrics, detail


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(astzeros.__file__).startswith(src + os.sep):
        raise SystemExit(f"astzeros imported from {astzeros.__file__}, "
                         f"not from {src}")
    os.makedirs(args.work, exist_ok=True)
    w = workloads.WORKLOADS[args.workload](args.seed, args.work, args.tiny)
    w.setup()
    setup_s = time.monotonic() - args.spawned
    out = {"setup_s": setup_s}
    if args.mode == "measure":
        walls, done, calib = measure(w, args.seconds)
        out.update(batch_walls_s=walls, batch_done=done, batch_calib_s=calib,
                   peak_rss_mb=peak_rss_mb())
    elif args.mode == "trace":
        out["per_layer"], out["trace_detail"] = trace(w, args.work)
    if args.mode != "setup":
        t = w.tally
        out.update(attempted=t.attempted, failed=t.failed,
                   run_checks_ok=t.run_checks_ok, errors=t.errors,
                   g_mad=t.g_mad(), count_ratio_err=t.count_ratio_err(),
                   environment=environment())
    with open(args.out, "w") as f:
        json.dump(out, f)


if __name__ == "__main__":
    main()
