"""Where the traced run puts its spans, and how spans and counts become
the per-layer metrics.

Layers are the program's modules.  Each entry wraps one module attribute
that the program or the benchmark looks a function up through; a caller
that imported a name into its own module (``experiment``, ``cli``) is
wrapped at that module.  ``windows`` is left out: only ``dast_direct``
uses it, and no workload reaches that.
"""

import os

import numpy as np

from tracer import leaf_time, self_time_by_name, total_time_by_name


def _count_cells(tr, S, args, kwargs):
    tr.count("transform.cells", S.values.size)


def _count_zeros(tr, zs, args, kwargs):
    tr.count("zeros.found", len(zs))


def _count_pairs(tr, st, args, kwargs):
    """Centers, points, distance evaluations (n_c * n) and the share of
    them that lands in some bin: the pair counter's useful work."""
    points, mask, r_bins, h = (np.asarray(args[0]), np.asarray(args[1], bool),
                               np.asarray(args[2], float), args[3])
    n_c, n = int(np.count_nonzero(mask)), len(points)
    tr.count("spatial.centers", n_c)
    tr.count("spatial.points", n)
    tr.count("spatial.distance_evals", n_c * n)
    tr.count("spatial.distance_bytes", 8 * n_c * n)  # float64 matrix
    centers = points[mask]
    self_idx = np.nonzero(mask)[0]
    useful = 0
    for lo in range(0, n_c, 256):
        c = centers[lo:lo + 256, None]
        d = np.abs(c - points[None, :]) / np.abs(1.0 - np.conj(c) * points)
        d[np.arange(len(c)), self_idx[lo:lo + 256]] = np.inf
        k = np.clip(np.searchsorted(r_bins, d), 1, len(r_bins) - 1)
        near = np.minimum(np.abs(d - r_bins[k - 1]), np.abs(d - r_bins[k]))
        useful += int(np.count_nonzero(near < h / 2))
    tr.count("spatial.pairs_in_bins", useful)


def _count_roots(tr, w, args, kwargs):
    g, r_max = args[0], args[1]
    tr.count("gaf.degree", len(g.coeffs) - 1)
    tr.count("gaf.roots_found", len(w))
    tr.count("gaf.roots_expected", g.alpha * r_max ** 2 / (1.0 - r_max ** 2))


def _count_tf_bytes(tr, _, args, kwargs):
    tr.count("io.tfmatrix_bytes", os.path.getsize(args[1]))


def _realization_id(args, kwargs):
    return ("experiment", args[0].seed, args[1])


# (module, attribute, span name, after-hook)
WRAPS = [
    ("astzeros.experiment", "run_experiment", "experiment.run_experiment", None),
    ("astzeros.experiment", "_realization", "experiment.realization", None),
    ("astzeros.experiment", "write_bundle", "experiment.write_bundle", None),
    ("astzeros.experiment", "sample_white_noise",
     "transform.sample_white_noise", None),
    ("astzeros.experiment", "dast_spectral", "transform.dast_spectral",
     _count_cells),
    ("astzeros.experiment", "detect_zeros", "zeros.detect_zeros", _count_zeros),
    ("astzeros.experiment", "cayley_to_disk", "geometry.cayley_to_disk", None),
    ("astzeros.experiment", "pseudo_hyperbolic_distance",
     "geometry.pseudo_hyperbolic_distance", None),
    ("astzeros.experiment", "classify_inner", "spatial.classify_inner", None),
    ("astzeros.experiment", "estimate_pair_correlation",
     "spatial.pair_correlation", _count_pairs),
    ("astzeros.gaf", "sample_gaf", "gaf.sample", None),
    ("astzeros.gaf", "gaf_zeros", "gaf.zeros", _count_roots),
    ("astzeros.spatial", "classify_inner", "spatial.classify_inner", None),
    ("astzeros.spatial", "estimate_pair_correlation",
     "spatial.pair_correlation", _count_pairs),
    ("astzeros.cli", "main", "cli.main", None),
    ("astzeros.cli", "cmd_transform", "cli.transform", None),
    ("astzeros.cli", "cmd_zeros", "cli.zeros", None),
    ("astzeros.cli", "cmd_stats", "cli.stats", None),
    ("astzeros.cli", "cmd_gaf", "cli.gaf", None),
    ("astzeros.cli", "dast_spectral", "transform.dast_spectral", _count_cells),
    ("astzeros.cli", "detect_zeros", "zeros.detect_zeros", _count_zeros),
    ("astzeros.cli", "sample_gaf", "gaf.sample", None),
    ("astzeros.cli", "gaf_zeros", "gaf.zeros", _count_roots),
    ("astzeros.cli", "classify_inner", "spatial.classify_inner", None),
    ("astzeros.cli", "estimate_pair_correlation", "spatial.pair_correlation",
     _count_pairs),
    ("astzeros.io", "read_signal_binary", "io.read_signal", None),
    ("astzeros.io", "read_signal_csv", "io.read_signal", None),
    ("astzeros.io", "write_tfmatrix_csv", "io.write_tfmatrix", _count_tf_bytes),
    ("astzeros.io", "read_tfmatrix_csv", "io.read_tfmatrix", None),
    ("astzeros.io", "write_zeroset_csv", "io.write_zeros", None),
    ("astzeros.io", "write_zeros_csv", "io.write_zeros", None),
    ("astzeros.io", "read_zeros_csv", "io.read_zeros", None),
    ("astzeros.io", "write_radial_stats_csv", "io.write_stats", None),
]
# the benchmark's own realization loops, so that their spans share an id
REALIZATIONS = [
    ("workloads", "GafReference.realization", "bench.gaf_realization"),
    ("workloads", "CliPipeline.transform_pipeline",
     "bench.cli_transform_pipeline"),
    ("workloads", "CliPipeline.gaf_pipeline", "bench.cli_gaf_pipeline"),
]


def install(tracer):
    for module, attr, name, after in WRAPS:
        rid_from = _realization_id if attr == "_realization" else None
        tracer.install(module, attr, name, after=after, rid_from=rid_from)
    for module, attr, name in REALIZATIONS:
        tracer.install(module, attr, name,
                       rid_from=lambda args, kwargs, n=name: (n,) + args[1:])


def per_layer_metrics(tracer, wall_traced, wall_untraced, pool_wall=None,
                      pool_workers=1, gaf_failures=None):
    """The per-layer metrics of one traced pass.  Times are seconds of
    self time summed over the pass; ``experiment.realization_s`` is the
    inclusive time of the realizations.  ``gaf.failures`` counts raised
    ``gaf_zeros`` calls unless the workload knows more (``gaf_failures``,
    which also counts root sets that fail their certificate).
    ``trace.coverage_frac`` is the share of the traced wall time that leaf
    spans (spans without a child span) account for."""
    spans, c = tracer.spans, tracer.counts
    self_t = self_time_by_name(spans)
    total_t = total_time_by_name(spans)

    def s(name):
        return self_t.get(name, 0.0)

    def n(name):
        return c.get(name, 0)

    evals = n("spatial.distance_evals")
    realization_s = total_t.get("experiment.realization", 0.0)
    gaf_errors = sum(1 for sp in spans if sp.name == "gaf.zeros" and sp.error)
    m = {
        "transform.dast_spectral_s": s("transform.dast_spectral"),
        "transform.cells_per_s": (n("transform.cells")
                                  / s("transform.dast_spectral")
                                  if s("transform.dast_spectral") else 0.0),
        "transform.sample_white_noise_s": s("transform.sample_white_noise"),
        "zeros.detect_zeros_s": s("zeros.detect_zeros"),
        "zeros.found": n("zeros.found"),
        "geometry.cayley_to_disk_s": s("geometry.cayley_to_disk"),
        "spatial.pair_correlation_s": s("spatial.pair_correlation"),
        "spatial.classify_inner_s": s("spatial.classify_inner"),
        "spatial.centers": n("spatial.centers"),
        "spatial.points": n("spatial.points"),
        "spatial.distance_evals": evals,
        "spatial.distance_bytes": n("spatial.distance_bytes"),
        "spatial.useful_frac": (n("spatial.pairs_in_bins") / evals
                                if evals else 0.0),
        "gaf.sample_s": s("gaf.sample"),
        "gaf.zeros_s": s("gaf.zeros"),
        "gaf.degree": n("gaf.degree"),
        "gaf.roots_found": n("gaf.roots_found"),
        "gaf.roots_expected": n("gaf.roots_expected"),
        "gaf.failures": gaf_errors if gaf_failures is None else gaf_failures,
        "experiment.realization_s": realization_s,
        "experiment.aggregate_s": s("experiment.run_experiment"),
        "experiment.write_bundle_s": s("experiment.write_bundle"),
        "experiment.pool_efficiency": (realization_s / (pool_workers * pool_wall)
                                       if pool_wall else 0.0),
        "io.write_tfmatrix_s": s("io.write_tfmatrix"),
        "io.read_tfmatrix_s": s("io.read_tfmatrix"),
        "io.tfmatrix_bytes": n("io.tfmatrix_bytes"),
        "io.write_zeros_s": s("io.write_zeros"),
        "io.read_zeros_s": s("io.read_zeros"),
        "cli.transform_s": s("cli.transform"),
        "cli.zeros_s": s("cli.zeros"),
        "cli.stats_s": s("cli.stats"),
        "cli.gaf_s": s("cli.gaf"),
        "trace.overhead_frac": wall_traced / wall_untraced - 1.0,
        "trace.coverage_frac": leaf_time(spans) / wall_traced,
        "trace.missing": len(tracer.missing),
    }
    return m, self_t
