"""The four benchmark workloads.

Every workload generates its inputs from the benchmark seed, calls the
program only through module attributes (so the tracer can wrap them),
and checks the outputs.  A raise or a failed output check marks the
realizations it covers as failed; it never aborts the run.

A workload runs as: ``setup()`` (input generation and one untimed
warm-up), then timed batches ``prepare(b)`` / ``run(b)`` / ``check(b)``
until the time budget is spent, then ``finish()`` for the checks and
legs that are not timed.  Only ``run`` is timed.

The accuracy figures (``g_mad``, ``count_ratio_err``) come from batch 0
only, so that they depend on the seed and not on
how many batches a run had time for.
"""

import filecmp
import os
import shutil
import struct
import traceback

import numpy as np

import astzeros.cli as acli
import astzeros.experiment as aexp
import astzeros.gaf as agaf
import astzeros.io as aio
import astzeros.spatial as aspatial
import astzeros.transform as atr
import astzeros.zeros as azeros
from astzeros.transform import DiscreteSignal, LogFreqGrid, TimeGrid
from astzeros.windows import WindowParams

R_LO, R_HI = 0.05, 0.5  # range of the g comparison, as compare_to_theory
H = 0.02
R_BINS = R_LO + 0.01 * np.arange(46)  # 0.05 .. 0.50
SIGNAL_MAGIC = b"ASTZSIG1"
BUNDLE_CSVS = ("pair_correlation.csv", "intensity.csv", "zero_counts.csv")
WARMUP = 999  # batch index of the untimed warm-up inputs
PROBE = "probe"  # batch index of the gaf_reference known-defect probe


class Tally:
    """Outcome of a run: realizations attempted and failed, zero counts
    against their expectation, and per-alpha g estimates."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.found = 0.0
        self.expected = 0.0
        self.g = {}  # alpha -> list of g arrays on R_BINS
        self.errors = []
        self.run_checks_ok = True

    def fail(self, n, what, run_level=False):
        self.failed += n
        self.run_checks_ok &= not run_level
        if len(self.errors) < 20:
            self.errors.append(what)

    def accuracy(self, alpha, found, expected, g):
        self.found += found
        self.expected += expected
        if g is not None:
            self.g.setdefault(float(alpha), []).append(np.asarray(g, float))

    def g_mad(self):
        """Mean over alphas of mean |g_hat - g_theory| on [R_LO, R_HI]."""
        mads = []
        for alpha, gs in sorted(self.g.items()):
            th = agaf.theoretical_pair_correlation(alpha, R_BINS)
            mads.append(float(np.mean(np.abs(np.mean(gs, axis=0) - th))))
        return float(np.mean(mads)) if mads else float("nan")

    def count_ratio_err(self):
        if self.expected <= 0:
            return float("nan")
        return abs(self.found / self.expected - 1.0)


def _error(exc):
    tb = traceback.extract_tb(exc.__traceback__)
    where = f" in {tb[-1].name}" if tb else ""
    return f"{type(exc).__name__}: {exc}{where}"


def expected_window_count(alpha, duration, xis, guard_channels):
    """Mean zero count in the kept channels of a periodic transform,
    alpha / (4 pi) * T * (1/y_lo - 1/y_hi), as the experiment harness."""
    g = max(1, guard_channels)
    return alpha / (4.0 * np.pi) * duration * (xis[len(xis) - 1 - g] - xis[g])


def expected_disk_count(alpha, r):
    return alpha * r ** 2 / (1.0 - r ** 2)


def certified_count(coeffs, r, max_step=np.pi / 4):
    """Zeros of sum c_n w^n in |w| < r by the argument principle: the
    winding number of the polynomial on |w| = r.  The circle is sampled
    by one FFT at 16 points per degree; any step whose phase change
    exceeds ``max_step`` (a zero close to the circle) is resampled more
    finely until none does.  None when a zero lies on the circle to
    rounding."""
    a = np.asarray(coeffs) * r ** np.arange(len(coeffs))
    m = 1 << int(np.ceil(np.log2(16 * len(coeffs))))
    p = np.fft.ifft(a, m) * m
    pending = [(2 * np.pi * np.arange(m + 1) / m, np.append(p, p[0]))]
    turns = 0.0
    while pending:
        theta, v = pending.pop()
        if np.any(v == 0) or theta[1] - theta[0] < 1e-14:
            return None
        step = np.angle(v[1:] / v[:-1])
        big = np.abs(step) > max_step
        turns += np.sum(step[~big])
        for i in np.nonzero(big)[0]:
            th = np.linspace(theta[i], theta[i + 1], 33)
            pending.append((th, np.polyval(a[::-1], np.exp(1j * th))))
    return int(round(turns / (2 * np.pi)))


def write_signal_bin(path, samples, fs):
    """The documented packed signal format: magic, uint64 N, float64
    sample rate, interleaved float64 (re, im)."""
    inter = np.empty(2 * len(samples))
    inter[0::2] = samples.real
    inter[1::2] = samples.imag
    with open(path, "wb") as f:
        f.write(SIGNAL_MAGIC)
        f.write(struct.pack("<Qd", len(samples), fs))
        f.write(inter.astype("<f8").tobytes())


def read_zero_file(path):
    """Disk points of a zero file written by the CLI, through whichever
    zero-file reader the io module offers."""
    for name in ("read_zeros", "read_zeros_csv"):
        reader = getattr(aio, name, None)
        if reader is not None:
            return np.asarray(reader(path), dtype=complex)
    raise RuntimeError("astzeros.io has no zero-file reader")


def read_g(path):
    """g_hat on R_BINS from a stats table with ``r`` and ``g_hat``
    columns."""
    with open(path) as f:
        rows = [ln.strip().split(",") for ln in f if not ln.startswith("#")]
    head = rows[0]
    r = np.array([float(x[head.index("r")]) for x in rows[1:]])
    g = np.array([float(x[head.index("g_hat")]) for x in rows[1:]])
    return np.interp(R_BINS, r, g)


def same_points(a, b, tol=1e-12):
    a, b = np.sort_complex(np.asarray(a)), np.sort_complex(np.asarray(b))
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


# --------------------------------------------------------------------------
class ExperimentWorkload:
    """``run_experiment`` batches of one configuration; batch b uses the
    config seed ``1000 * seed + b``."""

    write = False

    def __init__(self, seed, work, workers, realizations, **shape):
        self.seed = seed
        self.work = work
        self.workers = workers
        self.realizations = realizations
        self.shape = shape
        self.tally = Tally()
        self.bundles = {}

    def config(self, b, realizations=None):
        return aexp.ExperimentConfig(
            realizations=realizations or self.realizations,
            seed=1000 * self.seed + b,
            out_dir=f"bundle_{b}",  # part of the config hash: keep fixed
            **self.shape,
        )

    def setup(self):
        aexp.run_experiment(self.config(WARMUP, realizations=1), self.workers)

    def prepare(self, b):
        self.cfg = self.config(b)

    def run(self, b, workers=None, out_dir=None):
        """One batch; returns the number of realizations it covers."""
        cfg = self.cfg
        try:
            bundle = aexp.run_experiment(cfg, workers or self.workers)
            if self.write:
                aexp.write_bundle(bundle, out_dir or os.path.join(
                    self.work, cfg.out_dir))
        except Exception as exc:  # the whole batch is lost
            bundle = exc
        self.bundles[b] = bundle
        return cfg.realizations

    def check(self, b):
        t, n, bundle = self.tally, self.cfg.realizations, self.bundles.pop(b)
        t.attempted += n
        if isinstance(bundle, Exception):
            t.fail(n, f"batch {b}: {_error(bundle)}")
            return 0
        if b == 0:
            t.accuracy(bundle.config.alpha, float(np.sum(bundle.zero_counts)),
                       n * bundle.expected_zero_count,
                       np.interp(R_BINS, bundle.r_bins, bundle.g_mean))
        if not (np.all(np.isfinite(bundle.g_mean))
                and np.all(bundle.inner_counts > 0)
                and np.all(bundle.zero_counts > 0)):
            t.fail(n, f"batch {b}: empty or non-finite estimate")
            return 0
        self.pool(bundle)
        return n

    def pool(self, bundle):
        pass

    def finish(self):
        pass


class DeskExperiment(ExperimentWorkload):
    """Acceptance-regime experiment at workers=2, with its bundle written.

    Run-level checks: the criterion-6 tolerances on the mean over every
    timed batch, and criterion 8 (batch 0 rerun serially writes the same
    three CSVs byte for byte)."""

    write = True

    def __init__(self, seed, work, tiny=False):
        shape = dict(alpha=300.0, n_samples=2000, fs=2000.0, n_channels=300)
        if tiny:
            shape = dict(alpha=50.0, n_samples=512, fs=512.0, n_channels=64,
                         xi_min=2.0 ** -3, xi_max=8.0, r_max=0.3)
        super().__init__(seed, work, workers=2,
                         realizations=4 if tiny else 40, **shape)
        self.tiny = tiny
        self.pooled = []  # (g_mean, zeros found, zeros expected) per batch

    def pool(self, bundle):
        self.pooled.append((bundle.g_mean, np.sum(bundle.zero_counts),
                            len(bundle.zero_counts) * bundle.expected_zero_count))
        self.theory = (bundle.r_bins, bundle.g_theory)

    def finish(self):
        if self.pooled and not self.tiny:
            g, found, expected = zip(*self.pooled)
            ratio = sum(found) / sum(expected)
            r, g_th = self.theory
            sel = (r >= R_LO) & (r <= R_HI)
            max_dev = float(np.max(np.abs(np.mean(g, axis=0) - g_th)[sel]))
            if abs(ratio - 1.0) > 0.1 or max_dev > 0.1:
                self.tally.fail(
                    self.realizations * len(self.pooled),
                    f"criterion 6: count ratio {ratio:.4f}, max |g - g_theory| "
                    f"{max_dev:.4f} (tolerances 0.1)", run_level=True)
        self.prepare(0)
        serial = os.path.join(self.work, "serial_0")
        self.run(0, workers=1, out_dir=serial)
        self.bundles.pop(0)
        self.compare_bundles(os.path.join(self.work, "bundle_0"), serial)

    def compare_bundles(self, a, b):
        same = all(
            os.path.exists(os.path.join(a, f))
            and os.path.exists(os.path.join(b, f))
            and filecmp.cmp(os.path.join(a, f), os.path.join(b, f),
                            shallow=False)
            for f in BUNDLE_CSVS)
        if not same:
            self.tally.fail(self.realizations,
                            "criterion 8: bundle CSVs differ between worker "
                            "counts", run_level=True)
        return same


class FigureExperiment(ExperimentWorkload):
    """Figure-scale experiment, single process."""

    def __init__(self, seed, work, tiny=False):
        shape = dict(alpha=300.0, n_samples=4000, fs=400.0, n_channels=600,
                     xi_min=2.0 ** -6, xi_max=2.0 ** 3.3)
        if tiny:
            shape = dict(alpha=50.0, n_samples=512, fs=64.0, n_channels=64,
                         xi_min=2.0 ** -3, xi_max=4.0, r_max=0.3)
        super().__init__(seed, work, workers=1, realizations=1, **shape)


# --------------------------------------------------------------------------
class GafReference:
    """Criterion-5 loop on a disk window of radius 0.8 with per-seed fault
    isolation.  A timed batch is one seed at each timed alpha (50 and 100).

    The known-defect probe runs alpha=400 at the criterion-5 seeds 0 and
    1, whatever the benchmark seed: at the seed commit ``gaf_zeros`` drops
    roots on seed 0 and raises on seed 1.  The probe runs in the traced run
    only.  Its outcome is kept in its own tally and shows in the per-layer
    metrics (``gaf.failures``, ``gaf.roots_found``), not in ``failed``: the
    timed operations of a workload must not fail, and the defect also makes
    some alpha=300 seeds fail, which is why 300 is not a timed alpha."""

    R_W = 0.8
    PROBE_SEEDS = (0, 1)
    trace_batches = (0, PROBE)

    def __init__(self, seed, work, tiny=False):
        self.seed = seed
        self.timed_alphas = (10.0, 20.0) if tiny else (50.0, 100.0)
        self.probe_alpha = 30.0 if tiny else 400.0
        self.tally = Tally()
        self.probe = Tally()
        self.results = {}

    def gseed(self, b):
        # seed s, batch b -> integer seed s + 1000 b
        return self.seed + 1000 * b

    def setup(self):
        self.win = aspatial.ObservationWindow.from_disk(self.R_W)
        self.trunc = {a: agaf.truncation_order(a, self.R_W)
                      for a in self.timed_alphas + (self.probe_alpha,)}
        self.realization(self.timed_alphas[0], self.gseed(WARMUP))

    def realization(self, alpha, gseed):
        """sample -> zeros -> inner centers -> pair correlation; returns
        (coeffs, zeros, stats or None), or the exception raised."""
        try:
            g = agaf.sample_gaf(alpha, self.trunc[alpha], gseed)
            w = agaf.gaf_zeros(g, self.R_W)
            inner = aspatial.classify_inner(w, self.win, R_HI + H / 2)
            st = None
            if np.any(inner):  # as criterion 5, a seed with no center is skipped
                st = aspatial.estimate_pair_correlation(w, inner, R_BINS, H,
                                                        alpha)
            return g.coeffs, w, st
        except Exception as exc:
            return exc

    def prepare(self, b):
        pass

    def legs(self, b):
        """(alpha, integer seed) of batch b."""
        if b == PROBE:
            return [(self.probe_alpha, s) for s in self.PROBE_SEEDS]
        return [(a, self.gseed(b)) for a in self.timed_alphas]

    def run(self, b):
        self.results[b] = [self.realization(a, s) for a, s in self.legs(b)]
        return len(self.results[b])

    def check(self, b):
        t = self.probe if b == PROBE else self.tally
        return sum(self.check_one(t, alpha, s, res, b in (0, PROBE))
                   for (alpha, s), res in zip(self.legs(b),
                                              self.results.pop(b)))

    def check_one(self, t, alpha, gseed, res, accuracy):
        """Certified root count: the zeros returned must be exactly the
        zeros the argument principle counts in the disk."""
        t.attempted += 1
        tag = f"alpha={alpha:g} seed={gseed}"
        if isinstance(res, Exception):
            t.fail(1, f"{tag}: {_error(res)}")
            return 0
        coeffs, w, st = res
        if accuracy:
            t.accuracy(alpha, len(w), expected_disk_count(alpha, self.R_W),
                       None if st is None else st.g_values)
        cert = certified_count(coeffs, self.R_W)
        problems = []
        if cert is None:
            problems.append("winding number inconclusive")
        elif len(w) != cert:
            problems.append(f"{len(w)} roots returned, {cert} certified")
        if len(w) and np.max(np.abs(w)) > self.R_W * (1 + 1e-12):
            problems.append("root outside the disk")
        if len(w) > 1:
            d = np.abs(np.subtract.outer(w, w)) + np.eye(len(w))
            if np.min(d) < 1e-9:
                problems.append("duplicate roots")
        if problems:
            t.fail(1, f"{tag}: " + "; ".join(problems))
            return 0
        return 1

    def finish(self):
        pass


# --------------------------------------------------------------------------
class CliPipeline:
    """In-process ``astzeros.cli.main`` calls.  A batch is one generated
    signal through transform -> zeros -> stats, plus one GAF draw through
    gaf -> stats.  Output paths carry no format suffix."""

    def __init__(self, seed, work, tiny=False):
        self.seed = seed
        self.work = work
        self.tiny = tiny
        self.alpha, self.gaf_alpha = (50.0, 10.0) if tiny else (300.0, 50.0)
        self.n, self.fs, self.channels = (512, 512.0, 64) if tiny \
            else (2000, 2000.0, 300)
        self.xi_min, self.xi_max = (2.0 ** -3, 8.0) if tiny \
            else (2.0 ** -6, 16.0)
        self.stats_flags = ["--r-max", "0.3"] if tiny else []
        self.tally = Tally()
        self.rcs = {}

    def paths(self, b):
        d = os.path.join(self.work, f"b{b}")
        return {k: os.path.join(d, k) for k in
                ("sig.bin", "tf", "zeros", "stats", "gaf", "gaf_stats")}

    def signal(self, b):
        rng = np.random.default_rng(1000 * self.seed + b)
        return (rng.standard_normal(self.n)
                + 1j * rng.standard_normal(self.n)) / np.sqrt(2.0)

    def setup(self):
        # warm the CLI paths on a tiny signal: a paper-scale warm-up
        # would cost as much as a timed batch
        small = self if self.tiny else CliPipeline(self.seed, self.work, True)
        small.prepare(WARMUP)
        small.run(WARMUP)
        shutil.rmtree(os.path.dirname(small.paths(WARMUP)["tf"]))

    def prepare(self, b):
        p = self.paths(b)
        os.makedirs(os.path.dirname(p["sig.bin"]), exist_ok=True)
        write_signal_bin(p["sig.bin"], self.signal(b), self.fs)

    def run(self, b):
        self.rcs[b] = (self.transform_pipeline(b), *self.gaf_pipeline(b))
        return 2

    def transform_pipeline(self, b):
        """transform -> zeros -> stats on signal b; the exit codes."""
        p, main = self.paths(b), acli.main
        return [main(["transform", "--in", p["sig.bin"], "--out", p["tf"],
                      "--alpha", repr(self.alpha),
                      "--xi-min", repr(self.xi_min),
                      "--xi-max", repr(self.xi_max),
                      "--channels", str(self.channels)]),
                main(["zeros", "--in", p["tf"], "--out", p["zeros"],
                      "--no-time-guard"]),
                main(["stats", "--in", p["zeros"], "--out", p["stats"],
                      "--alpha", repr(self.alpha)] + self.stats_flags)]

    def gaf_pipeline(self, b):
        """gaf -> stats on draw b; the exit codes and the zero files."""
        p, main = self.paths(b), acli.main
        rcs = [main(["gaf", "--alpha", repr(self.gaf_alpha), "--r-max", "0.8",
                     "--seed", str(1000 * self.seed + b), "--out", p["gaf"]])]
        files = sorted(os.listdir(p["gaf"])) if rcs[0] == 0 else []
        if files:
            rcs.append(main(["stats", "--in", os.path.join(p["gaf"], files[0]),
                             "--out", p["gaf_stats"],
                             "--alpha", repr(self.gaf_alpha)]
                            + self.stats_flags))
        return rcs, files

    def check(self, b):
        t, p = self.tally, self.paths(b)
        rcs, rcs_gaf, gaf_files = self.rcs.pop(b)
        t.attempted += 2
        done = 0
        try:
            if any(rcs):
                raise RuntimeError(f"exit codes {rcs}")
            w_file = read_zero_file(p["zeros"])
            sig = DiscreteSignal(self.signal(b),
                                 TimeGrid.from_sampling(0.0, self.fs, self.n))
            fg = LogFreqGrid(self.xi_min, self.xi_max, self.channels)
            S = atr.dast_spectral(sig, fg, WindowParams.from_alpha(self.alpha))
            zs = azeros.detect_zeros(S, azeros.GuardSpec(
                border_cells=1, freq_channels=2, envelope_tol=None))
            if not same_points(w_file, zs.w):
                raise RuntimeError(f"zero file ({len(w_file)} zeros) differs "
                                   f"from in-memory zeros ({len(zs.w)})")
            if b == 0:
                t.accuracy(self.alpha, len(w_file),
                           expected_window_count(self.alpha, self.n / self.fs,
                                                 fg.channels(), 2),
                           read_g(p["stats"]))
            done += 1
        except Exception as exc:
            t.fail(1, f"transform pipeline {b}: {_error(exc)}")
        try:
            if len(rcs_gaf) < 2 or any(rcs_gaf):
                raise RuntimeError(f"exit codes {rcs_gaf}")
            w = read_zero_file(os.path.join(p["gaf"], gaf_files[0]))
            if b == 0:
                t.accuracy(self.gaf_alpha, len(w),
                           expected_disk_count(self.gaf_alpha, 0.8),
                           read_g(p["gaf_stats"]))
            done += 1
        except Exception as exc:
            t.fail(1, f"gaf pipeline {b}: {_error(exc)}")
        shutil.rmtree(os.path.dirname(p["tf"]), ignore_errors=True)
        return done

    def finish(self):
        pass


WORKLOADS = {
    "desk_experiment": DeskExperiment,
    "figure_experiment": FigureExperiment,
    "gaf_reference": GafReference,
    "cli_pipeline": CliPipeline,
}
