"""Command-line interface.

Subcommands mirror the processing pipeline: ``transform`` (signal file to
binary transform file), ``zeros`` (transform file to zero list CSV),
``gaf`` (sampled analytic-function zeros), ``stats`` (zero list to
pair-correlation table), and ``experiment`` (full Monte Carlo run).  The
transform file is the uncompressed ``.npz`` of ``io.write_tfmatrix``,
written to the ``--out`` path exactly as given.  Failures print one
machine-readable ``error: ...`` line on stderr and exit nonzero.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import io as zio
from .experiment import ExperimentConfig, run_experiment, write_bundle
from .gaf import gaf_zeros, sample_gaf, truncation_order
from .spatial import (ObservationWindow, classify_inner,
                      estimate_pair_correlation, radial_bins)
from .transform import LogFreqGrid, dast_spectral
from .windows import WindowParams
from .zeros import GuardSpec, detect_zeros


def _add_experiment_flags(sub, defaults: ExperimentConfig):
    for f in dataclasses.fields(ExperimentConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool" or isinstance(getattr(defaults, f.name), bool):
            sub.add_argument(flag, action="store_true", default=None)
        else:
            sub.add_argument(flag, type=str, default=None)


def _coerce(name, value):
    kind = type(getattr(ExperimentConfig(), name))
    if kind is bool:
        if isinstance(value, bool):
            return value
        return str(value).lower() in ("1", "true", "yes", "on")
    return kind(value)


def load_config(path=None, overrides=None) -> ExperimentConfig:
    """Flat key=value config file; every key may be overridden by the CLI
    flag of the same name."""
    values = {}
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    if path:
        with open(path) as f:
            for ln_no, line in enumerate(f, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{ln_no}: expected key=value")
                k, v = (s.strip() for s in line.split("=", 1))
                if k not in known:
                    raise ValueError(f"{path}:{ln_no}: unknown key '{k}'")
                values[k] = _coerce(k, v)
    for k, v in (overrides or {}).items():
        if v is not None and k in known:
            values[k] = _coerce(k, v)
    return ExperimentConfig(**values)


def _read_signal(path):
    if path.endswith(".bin"):
        return zio.read_signal_binary(path)
    return zio.read_signal_csv(path)


def cmd_transform(args):
    sig = _read_signal(args.infile)
    fg = LogFreqGrid(float(args.xi_min), float(args.xi_max),
                     int(args.channels))
    p = WindowParams.from_alpha(float(args.alpha))
    zio.write_tfmatrix(dast_spectral(sig, fg, p), args.out)
    print(f"wrote {args.out}")


def cmd_zeros(args):
    S = zio.read_tfmatrix(args.infile)
    tol = None if args.no_time_guard else args.envelope_tol
    guard = GuardSpec(border_cells=args.border_cells,
                      freq_channels=args.guard_channels, envelope_tol=tol)
    zs = detect_zeros(S, guard)
    zio.write_zeroset_csv(zs, args.out)
    print(f"wrote {args.out} ({len(zs)} zeros)")


def cmd_gaf(args):
    alpha = float(args.alpha)
    trunc = args.truncation or truncation_order(alpha, args.r_max)
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.realizations):
        g = sample_gaf(alpha, trunc, np.random.SeedSequence([args.seed, i]))
        w = gaf_zeros(g, args.r_max)
        path = os.path.join(args.out, f"gaf_zeros_{i:04d}.csv")
        zio.write_zeros_csv(path, None, None, w,
                            meta={"alpha": alpha, "truncation": trunc,
                                  "seed": args.seed, "realization": i})
    print(f"wrote {args.realizations} zero files to {args.out}")


def cmd_stats(args):
    w = zio.read_zeros_csv(args.infile)
    win = ObservationWindow.from_disk(args.window_radius)
    r_bins, r_guard = radial_bins(args.r_min, args.r_max, args.r_step,
                                  args.h, args.r_guard)
    inner = classify_inner(w, win, r_guard)
    st = estimate_pair_correlation(w, inner, r_bins, args.h,
                                   float(args.alpha))
    zio.write_radial_stats_csv(st, args.out, meta={"alpha": args.alpha})
    print(f"wrote {args.out} ({st.n_centers} centers)")


def cmd_experiment(args):
    overrides = {
        f.name: getattr(args, f.name, None)
        for f in dataclasses.fields(ExperimentConfig)
    }
    cfg = load_config(args.config, overrides)
    bundle = run_experiment(cfg, workers=args.workers)
    out = write_bundle(bundle)
    print(f"wrote results to {out} (config hash {bundle.config_hash})")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="astzeros",
        description="Analytic Stockwell transform zeros and their "
                    "hyperbolic spatial statistics",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transform",
                       help="signal file -> binary transform file (.npz)")
    t.add_argument("--in", dest="infile", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--alpha", type=float, default=300.0)
    t.add_argument("--xi-min", type=float, default=2.0 ** -6)
    t.add_argument("--xi-max", type=float, default=16.0)
    t.add_argument("--channels", type=int, default=300)
    t.set_defaults(func=cmd_transform)

    z = sub.add_parser("zeros", help="binary transform file -> zero list CSV")
    z.add_argument("--in", dest="infile", required=True)
    z.add_argument("--out", required=True)
    z.add_argument("--border-cells", type=int, default=1)
    z.add_argument("--guard-channels", type=int, default=2)
    z.add_argument("--envelope-tol", type=float, default=1e-4)
    z.add_argument("--no-time-guard", action="store_true",
                   help="treat the signal as time-periodic")
    z.set_defaults(func=cmd_zeros)

    g = sub.add_parser("gaf", help="sample analytic-function zeros")
    g.add_argument("--alpha", type=float, required=True)
    g.add_argument("--r-max", type=float, default=0.8)
    g.add_argument("--truncation", type=int, default=None)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--realizations", type=int, default=1)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gaf)

    s = sub.add_parser("stats", help="zero list CSV -> pair correlation CSV")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--window-radius", type=float, default=0.8)
    s.add_argument("--h", type=float, default=0.02)
    s.add_argument("--r-min", type=float, default=0.05)
    s.add_argument("--r-max", type=float, default=0.5)
    s.add_argument("--r-step", type=float, default=0.01)
    s.add_argument("--r-guard", type=float, default=-1.0)
    s.set_defaults(func=cmd_stats)

    e = sub.add_parser("experiment", help="full Monte Carlo run")
    e.add_argument("--config", default=None)
    e.add_argument("--workers", type=int, default=1)
    _add_experiment_flags(e, ExperimentConfig())
    e.set_defaults(func=cmd_experiment)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:  # single machine-readable failure line
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
