"""astzeros benchmark: one workload per invocation, each in fresh processes.

    python3 perfbench/run.py --workload desk_experiment --seed 0 \
        --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its
``src/``.  With ``--trace 0`` the run starts four set-up-only processes
and one measuring process (set-up time is the median of the five) and
reports the end-to-end metrics.  With ``--trace 1`` one process makes an
untraced and a traced pass and reports the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, with the
environment, is also written under ``.perfbench/results/``.

``realizations_per_s`` is the realizations that completed without a
failure, divided by the summed wall time of the timed batches.  The
shared host's speed drifts by tens of percent within seconds, so the
result line carries ``realizations_per_ref_s`` instead, where each
batch's wall time is first converted to reference-host seconds: it is
multiplied by ``CALIB_REF_S`` over the mean of the calibration times
(``calib.calibrate``) taken just before and just after the batch.
``setup_s`` is converted the same way, with the median calibration time
of the run: it is the median set-up wall time of the five processes
(``setup_wall_s``) times ``CALIB_REF_S`` over that median.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from calib import CALIB_REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("desk_experiment", "figure_experiment", "gaf_reference",
             "cli_pipeline")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run, set-up processes included

END_TO_END = {  # name -> unit, the result line
    "realizations_per_ref_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
REPORTED = {  # also printed, not part of the result line
    "realizations_per_s": "1/s",
    "setup_wall_s": "s",
    "failed_frac": "ratio",
    "g_mad": "1",
    "count_ratio_err": "1",
}


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_efficiency")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return f.read().split()[:3]
    except OSError:
        return None


def stop_group(pgid, wait_s=10.0):
    """Kill what is left of a child's process group (pool workers of a
    crashed child) and wait until none of it runs."""
    end = time.monotonic() + wait_s
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < end:
            time.sleep(0.05)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        pass


def run_child(args, mode, work, deadline):
    """Start one fresh benchmark process and wait for it; returns its
    JSON result.  The child gets its own process group so that a timeout
    also stops any pool workers it started."""
    out = os.path.join(work, f"{mode}-{time.monotonic_ns()}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--work", os.path.join(work, "data"), "--out", out]
    if args.tiny:
        cmd.append("--tiny")
    log_path = os.path.join(work, f"{mode}.log")
    with open(log_path, "a") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                                stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{mode} process timed out")
        finally:
            stop_group(proc.pid)
    if proc.returncode != 0 or not os.path.exists(out):
        with open(log_path) as f:
            tail = f.read()[-2000:]
        raise RuntimeError(f"{mode} process exited with {proc.returncode}:\n"
                           f"{tail}")
    with open(out) as f:
        return json.load(f)


def finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny problem sizes, for the benchmark's own tests")
    args = ap.parse_args()
    # a terminated run still stops the process group of its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "astzeros", "__init__.py")):
        print(f"error: no astzeros sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    load_start = loadavg()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(ROOT, ".perfbench", "work", f"{tag}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if args.trace:
            res = run_child(args, "trace", work, deadline)
            setups = []
        else:
            setups = [run_child(args, "setup", work, deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            res = run_child(args, "measure", work, deadline)
            setups.append(res["setup_s"])
    except RuntimeError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in res["per_layer"].items()}
    else:
        done, walls = sum(res["batch_done"]), res["batch_walls_s"]
        ref_walls = [t * CALIB_REF_S / c
                     for t, c in zip(walls, res["batch_calib_s"])]
        setup_wall = statistics.median(setups)
        values = {
            "realizations_per_ref_s": done / sum(ref_walls),
            "realizations_per_s": done / sum(walls),
            "setup_s": setup_wall * CALIB_REF_S
            / statistics.median(res["batch_calib_s"]),
            "setup_wall_s": setup_wall,
            "peak_rss_mb": res["peak_rss_mb"],
            "failed_frac": failed / attempted if attempted else float("nan"),
            "g_mad": res["g_mad"],
            "count_ratio_err": res["count_ratio_err"],
        }
        units = {**END_TO_END, **REPORTED}
        for k, v in values.items():
            print(f"{args.workload:18s} {k:20s} {v:14.6g} {units[k]}")
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}
        res["reported"] = {k: {"value": values[k], "unit": units[k]}
                           for k in REPORTED}
        res["setup_samples_s"] = setups
    correct = bool(res["run_checks_ok"] and attempted >= 1
                   and all(finite(m["value"]) for m in metrics.values()))
    res.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, loadavg_start=load_start,
               loadavg_end=loadavg(), correct=correct, metrics=metrics)
    for err in res["errors"]:
        print(f"{args.workload:18s} failure: {err}")
    probe = res.get("trace_detail", {}).get("probe")
    if probe:
        print(f"{args.workload:18s} known-defect probe: {probe['failed']} of "
              f"{probe['attempted']} failed")
        for err in probe["errors"]:
            print(f"{args.workload:18s} probe failure: {err}")
    print("environment " + json.dumps(
        {**res["environment"], "loadavg_start": load_start,
         "loadavg_end": res["loadavg_end"]}))
    results = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{tag}.json"), "w") as f:
        json.dump(res, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
