"""Tests of the benchmark itself: span arithmetic, gates, wrappers, inputs.

    python3 -m pytest bench/tests -q
"""

import json
import math
import os
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from tracing import Target, Tracer, busy_times, install, layer_metrics, self_times
from workloads import WORKLOADS, GateError

BENCHMARK_JSON = os.path.join(os.path.dirname(run.BENCH), "BENCHMARK.json")


def span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_time_subtracts_union_of_children():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 6.0, 0),      # overlaps a: children cover [1, 6]
        span("c", 2.0, 3.0, 1),
        span("d", 9.0, 12.0, 0),     # runs past its parent: only [9, 10] counts
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 2.0, 3.0, 1.0, 3.0])


def test_busy_time_counts_nested_same_name_once():
    spans = [span("f", 0.0, 5.0, -1), span("f", 1.0, 2.0, 0),
             span("g", 2.0, 3.0, 0), span("f", 6.0, 7.0, -1)]
    assert busy_times(spans) == pytest.approx({"f": 6.0, "g": 1.0})


def test_layer_metrics_ratios_and_bases():
    spans = [
        span("inference.fit_location", 0.0, 10.0, -1),
        span("inference.minimize", 0.0, 4.0, 0, {"nfev": 30, "fun": -5.0}),
        span("inference.minimize", 4.0, 9.0, 0, {"nfev": 70, "fun": -4.0}),
        span("zonal.zonal_series", 10.0, 11.0, -1, {"degrees": 5}),
        span("models.radial_integral", 10.1, 10.2, 3),
        span("models.radial_integral", 10.2, 10.3, 3),
        span("zonal.logsums", 11.0, 12.0, -1, {"spectra": 20, "table_rows": 100}),
        span("zonal.logsums", 12.0, 13.0, -1, {"spectra": 3, "table_rows": 100}),
    ]
    trace = {"spans": spans, "counts": {"special.gen_pochhammer_log": 7},
             "cache_misses": {"special.enumerate_partitions": 2}, "absent": []}
    m = layer_metrics(trace)
    assert m["inference.minimize.starts"] == 2
    assert m["inference.minimize.nfev"] == 100
    assert m["inference.minimize.best_share"] == pytest.approx(0.3)
    assert m["models.radial_integral.calls_per_degree"] == pytest.approx(2 / 5)
    assert m["zonal.logsums.spectra"] == 23
    assert m["zonal.logsums.bytes_computed"] == 20 * 100 * 8
    assert m["zonal.zonal_series.self_s"] == pytest.approx(0.8)
    assert m["special.gen_pochhammer_log.calls"] == 7
    assert m["special.enumerate_partitions.misses"] == 2
    assert m["densities.shape_logdensity.calls"] == 0
    wall = {"trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s"}
    assert set(m) | wall == set(tracing.PER_LAYER_UNITS)


@pytest.fixture
def fake_package():
    """Two modules under the svdshape namespace: one defines, one imports."""
    home = types.ModuleType("svdshape._benchfake")
    exec("def work(x):\n"
         "    return x + 1\n"
         "class Engine:\n"
         "    def step(self, x):\n"
         "        return work(x) * 2\n", vars(home))
    user = types.ModuleType("svdshape._benchfake_user")
    user.work = home.work
    sys.modules[home.__name__] = home
    sys.modules[user.__name__] = user
    yield home, user
    del sys.modules[home.__name__], sys.modules[user.__name__]


def test_absent_targets_are_reported_not_raised(fake_package):
    home, user = fake_package
    tracer = Tracer()
    targets = (Target("fake.work", home.__name__, "work"),
               Target("fake.step", home.__name__, "Engine.step"),
               Target("fake.gone", home.__name__, "deleted_function"),
               Target("fake.gone_method", home.__name__, "Engine.gone"),
               Target("fake.gone_class", home.__name__, "Missing.step"),
               Target("fake.gone_module", "svdshape._no_such_module", "f"))
    absent = install(tracer, targets)
    assert absent == ["fake.gone", "fake.gone_method", "fake.gone_class",
                      "fake.gone_module"]
    # wrappers sit where callers look: both module globals and the class
    assert user.work(1) == 2 and home.Engine().step(1) == 4
    names = [sp[tracing.NAME] for sp in tracer.spans]
    assert names == ["fake.work", "fake.step", "fake.work"]
    assert tracer.spans[2][tracing.PARENT] == 1


def test_wrapped_module_attribute_uses_a_private_proxy(fake_package):
    home, _ = fake_package
    real = types.ModuleType("_benchfake_lib")
    real.solve = lambda x: x * 3
    home.lib = real
    tracer = Tracer()
    assert install(tracer, (Target("fake.solve", home.__name__, "lib.solve"),)) == []
    assert home.lib.solve(2) == 6 and len(tracer.spans) == 1
    real.solve(2)
    assert len(tracer.spans) == 1


def test_written_trace_round_trips(tmp_path, fake_package):
    home, _ = fake_package
    tracer = Tracer()
    absent = install(tracer, (Target("fake.work", home.__name__, "work"),
                              Target("fake.gone", home.__name__, "nothing")))
    home.work(0)
    path = tmp_path / "trace.json"
    tracer.dump(str(path), absent, 0)
    trace = json.loads(path.read_text())
    assert trace["absent"] == ["fake.gone"] and len(trace["spans"]) == 1
    assert layer_metrics(trace)["trace.absent_targets"] == 1


def _input_bytes(workload, seed, workdir):
    args = WORKLOADS[workload].make_inputs(seed, 0, str(workdir), "out.json")
    files = sorted(p for p in os.listdir(workdir))
    return args, {f: (workdir / f).read_bytes() for f in files}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_for_a_fixed_seed(tmp_path, workload):
    for sub in ("a", "b", "c"):
        (tmp_path / sub).mkdir()
    args_a, files_a = _input_bytes(workload, 7, tmp_path / "a")
    args_b, files_b = _input_bytes(workload, 7, tmp_path / "b")
    _, files_c = _input_bytes(workload, 8, tmp_path / "c")
    assert files_a == files_b and files_a
    assert files_a != files_c
    assert [a.replace(str(tmp_path / "a"), "") for a in args_a] == \
           [b.replace(str(tmp_path / "b"), "") for b in args_b]


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_fit_gate_rejects_perturbed_output(tmp_path):
    from svdshape import (IsotropicKind, SampleOfShapes, ingest_landmarks,
                          log_likelihood, preprocess, svd_shape)
    args = workloads.fit_protocol_inputs(3, 1, str(tmp_path), "out.json")
    specimens = ingest_landmarks(args[1])
    sample = SampleOfShapes("t", tuple((sp.id, svd_shape(preprocess(sp)))
                                       for sp in specimens))
    mu = np.mean([sc.r * sc.W for _, sc in sample.items], axis=0)
    ll = log_likelihood(sample, mu, workloads.FIT_SIGMA2, IsotropicKind.KOTZ_T3)
    good = {"converged": True, "loglik": ll, "mu_hat": mu.tolist()}
    out = tmp_path / "out.json"
    workloads.gate_fit(_write(out, good), args, {"loglik": ll})
    bad_outputs = [
        {**good, "converged": False},
        {**good, "loglik": ll * (1 + 1e-7)},
        {**good, "mu_hat": (mu * 1.001).tolist()},
    ]
    for bad in bad_outputs:
        with pytest.raises(GateError):
            workloads.gate_fit(_write(out, bad), args, None)
    with pytest.raises(GateError):   # below the recorded loglik
        workloads.gate_fit(_write(out, good), args, {"loglik": ll + 1e-3})


def test_density_gate_rejects_perturbed_output(tmp_path, monkeypatch):
    # a weaker non-centrality keeps the oracle's zonal table small
    monkeypatch.setattr(workloads, "DENSITY_MU_SCALE", 0.5)
    args = workloads.density_k3_inputs(3, 0, str(tmp_path), "out.json")
    out = tmp_path / "out.json"

    def output(vals):
        return _write(out, {"specimens": [
            {"log_density": v, "series_degrees_used": 20} for v in vals]})
    values = list(workloads.density_oracle(args, json.loads(
        Path(output([0.0] * workloads.DENSITY_SPECIMENS)).read_text())))
    reference = {"log_density": values}
    workloads.gate_density(output(values), args, reference)
    shifted = list(values)
    shifted[-1] += 1e-8
    for bad in (shifted, values[:-1], values[:-1] + [math.nan]):
        with pytest.raises(GateError):
            workloads.gate_density(output(bad), args, reference)
    with pytest.raises(GateError):   # agrees with the oracle, not the record
        workloads.gate_density(output(values), args,
                               {"log_density": [v + 1e-8 for v in values]})


def test_verify_gate_rejects_failed_checks(tmp_path):
    out = tmp_path / "out.json"

    def output(mass=1.01, chi2=(20.0, 60.0)):
        return _write(out, {
            "normalization": {"mass": mass, "standard_error": 0.01},
            "simulation": {"marginals": [
                {"angle_index": i, "chi2": c, "dof": 25} for i, c in enumerate(chi2)]}})
    # chi2 = 60 on 25 dof fails the CLI's 99% level (44.3) but has p > 1e-6
    workloads.gate_verify(output(), [], None)
    for bad in (output(mass=1.06), output(mass=0.94), output(chi2=(20.0, 90.0)),
                str(tmp_path / "missing.json")):
        with pytest.raises(GateError):
            workloads.gate_verify(bad, [], None)


def test_benchmark_json_matches_the_harness():
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
           {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
