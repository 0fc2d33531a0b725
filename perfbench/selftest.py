"""The benchmark's own tests, at tiny sizes.  Not part of the repository
test suite (the file name does not match ``test_*.py``); run with

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import (Span, Tracer, leaf_time, self_time_by_name,  # noqa: E402
                    self_times)


def test_self_times_of_a_synthetic_span_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a1", 2.0, 3.0, 1, 0),
        Span("b", 3.0, 6.0, 0, 0),   # overlaps a: union counted once
        Span("c", 8.0, 12.0, 0, 0),  # clipped to the parent's end
        Span("a", 20.0, 21.5, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0, 1.5])
    by_name = self_time_by_name(spans)
    assert by_name["a"] == pytest.approx(3.5)
    assert by_name["root"] == pytest.approx(3.0)
    assert leaf_time(spans) == pytest.approx(1.0 + 3.0 + 4.0 + 1.5)


def test_tracer_reports_missing_attributes_and_keeps_running():
    import astzeros.gaf as agaf

    tr = Tracer()
    tr.install("astzeros.gaf", "no_such_function", "gaf.x")
    tr.install("astzeros.no_such_module", "f", "x.f")
    tr.install("astzeros.gaf", "expected_count", "gaf.expected")
    try:
        assert agaf.expected_count(2.0, 0.5) == pytest.approx(2.0 / 3.0)
    finally:
        tr.uninstall()
    assert tr.missing == ["astzeros.gaf.no_such_function",
                          "astzeros.no_such_module.f"]
    assert [s.name for s in tr.spans] == ["gaf.expected"]
    assert agaf.expected_count.__name__ == "expected_count"
    assert not hasattr(agaf.expected_count, "__wrapped__")


def test_certified_count_of_a_known_polynomial():
    roots = [0.5, -0.1 + 0.3j, 0.9j, 0.79, -0.95, 0.8j * (1 - 1e-7),
             -0.8 * (1 + 1e-7)]
    coeffs = np.polynomial.polynomial.polyfromroots(roots)
    assert workloads.certified_count(coeffs, 0.8) == 4


def test_forced_raise_in_a_realization_is_counted(tmp_path, monkeypatch):
    import astzeros.experiment as aexp
    import astzeros.gaf as agaf

    calls = {"n": 0}
    real_detect = aexp.detect_zeros

    def flaky_detect(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("forced")
        return real_detect(*args, **kwargs)

    w = workloads.FigureExperiment(0, str(tmp_path), tiny=True)
    w.setup()
    monkeypatch.setattr(aexp, "detect_zeros", flaky_detect)
    walls, done, _ = child.measure(w, seconds=1e-9)
    assert len(walls) == 1 and w.tally.attempted == 1
    assert w.tally.failed == 1 and done == [0]
    assert "RuntimeError: forced" in w.tally.errors[0]

    real_zeros = agaf.gaf_zeros

    def failing_at_20(g, r_max, **kwargs):
        if g.alpha == 20.0:
            raise ArithmeticError("forced")
        return real_zeros(g, r_max, **kwargs)

    w = workloads.GafReference(0, str(tmp_path), tiny=True)
    w.setup()
    monkeypatch.setattr(agaf, "gaf_zeros", failing_at_20)
    walls, done, _ = child.measure(w, seconds=1e-9)
    # one timed batch (alpha 10 and 20); the probe runs only when traced
    assert (w.tally.attempted, w.tally.failed, done) == (2, 1, [1])
    assert w.probe.attempted == 0


def test_probe_failures_show_per_layer_and_not_in_failed(tmp_path,
                                                          monkeypatch):
    import astzeros.gaf as agaf

    real_zeros = agaf.gaf_zeros

    def failing_at_30(g, r_max, **kwargs):
        if g.alpha == 30.0:  # the tiny probe alpha
            raise ArithmeticError("forced")
        return real_zeros(g, r_max, **kwargs)

    w = workloads.GafReference(0, str(tmp_path), tiny=True)
    w.setup()
    monkeypatch.setattr(agaf, "gaf_zeros", failing_at_30)
    metrics, detail = child.trace(w, str(tmp_path))
    # the traced pass is checked: batch 0 and the probe's two seeds
    assert (w.tally.attempted, w.tally.failed) == (2, 0)
    assert (w.probe.attempted, w.probe.failed) == (2, 2)
    assert metrics["gaf.failures"] == 2
    assert detail["probe"]["failed"] == 2


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_run_prints_every_end_to_end_metric(workload):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    for name, unit in {**run.END_TO_END, **run.REPORTED}.items():
        assert any(ln.split()[1:2] == [name] and ln.split()[-1] == unit
                   for ln in lines[:-1]), name
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert result["correct"] and result["attempted"] >= 1
