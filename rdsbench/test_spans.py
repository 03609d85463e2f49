"""Tests of the benchmark's own tracing and checking code.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest rdsbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from spans import Span, Tracer, layer_metrics  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ---------------------------------------------------------------------------
# self-time arithmetic


def test_self_time_of_nested_spans():
    spans_ = [
        Span(0, "cli", None, 0.0, 10.0),
        Span(1, "harness", 0, 1.0, 9.0),
        Span(2, "chains", 1, 2.0, 4.0),
        Span(3, "maps", 2, 2.5, 3.0),
        Span(4, "chains", 1, 5.0, 6.0),
    ]
    m = layer_metrics(spans_)
    assert m["cli"] == {"calls": 1, "self_s": pytest.approx(2.0)}
    assert m["harness"] == {"calls": 1, "self_s": pytest.approx(5.0)}
    assert m["chains"] == {"calls": 2, "self_s": pytest.approx(2.5)}
    assert m["maps"] == {"calls": 1, "self_s": pytest.approx(0.5)}


def test_overlapping_pool_children_are_subtracted_once():
    # a harness span whose two pool tasks (same layer, other threads)
    # overlap in time, each calling into chains
    spans_ = [
        Span(0, "harness", None, 0.0, 10.0),
        Span(1, "harness", 0, 1.0, 7.0),
        Span(2, "harness", 0, 2.0, 8.0),
        Span(3, "chains", 1, 1.0, 3.0),
        Span(4, "chains", 2, 2.0, 5.0),
    ]
    m = layer_metrics(spans_)
    # parent: 10 - |[1, 8]| = 3; tasks: (6 - 2) + (6 - 3) = 7
    assert m["harness"]["self_s"] == pytest.approx(10.0)
    # pool tasks stay inside the layer: one call into harness
    assert m["harness"]["calls"] == 1
    assert m["chains"] == {"calls": 2, "self_s": pytest.approx(5.0)}


def test_child_outliving_parent_is_clipped():
    m = layer_metrics([Span(0, "harness", None, 0.0, 4.0), Span(1, "chains", 0, 3.0, 6.0)])
    assert m["harness"]["self_s"] == pytest.approx(3.0)


def test_tracer_opens_span_only_on_layer_change():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 1.0

    def outer():
        clock.now += 1.0
        tracer.call("maps", inner, (), {})  # same layer: no new span
        tracer.call("chains", inner, (), {})

    tracer.call("maps", outer, (), {})
    assert [s.layer for s in tracer.spans] == ["maps", "chains"]
    m = layer_metrics(tracer.spans)
    assert m["maps"]["self_s"] == pytest.approx(2.0)
    assert m["chains"]["self_s"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# probes at the caller's lookup site


def test_probe_at_lookup_site_counts_what_the_home_module_misses():
    import numpy as np
    import rdslab.chains
    import rdslab.harness
    from rdslab.harness import ExperimentConfig

    # wrapping only the home module's name: the harness keeps its own binding
    tracer = Tracer()
    original = rdslab.chains.draw_word
    rdslab.chains.draw_word = lambda *a, **k: tracer.call("chains", original, a, k,
                                                         spans._draws)
    cfg = ExperimentConfig(system={"kind": "halving-ifs"}, n=20, trials=100, seed=1,
                           t_ladder=[0.2], params={"h": "coordinate"})
    try:
        rdslab.harness.run_tail(cfg)
    finally:
        rdslab.chains.draw_word = original
    assert tracer.counts.get("chains.draws", 0) == 0

    tracer = Tracer()
    probes = spans.Probes(tracer).install()
    try:
        assert rdslab.harness.draw_word is not original
        rdslab.harness.run_tail(cfg)
    finally:
        probes.remove()
    assert rdslab.harness.draw_word is original
    # pilot and main runs: 2 runs x 20 steps x 100 trials
    assert tracer.counts["chains.draws"] == 2 * 20 * 100
    assert tracer.counts["harness.trials"] == 200
    assert layer_metrics(tracer.spans)["chains"]["calls"] == 2 * 20
    assert np.isfinite(layer_metrics(tracer.spans)["chains"]["self_s"])


def test_probes_restore_every_name():
    import rdslab.cli
    import rdslab.estimators
    import rdslab.harness
    import rdslab.streams

    before = {m: dict(vars(m)) for m in (rdslab.cli, rdslab.estimators, rdslab.harness)}
    generator = rdslab.streams.SeededStream.__dict__["generator"]
    probes = spans.Probes(Tracer()).install()
    assert not probes.missing
    assert rdslab.harness.B is not before[rdslab.harness]["B"]
    probes.remove()
    for m, names in before.items():
        assert dict(vars(m)) == names
    assert rdslab.streams.SeededStream.__dict__["generator"] is generator


def _traced_counts(job_list, api):
    loop = worker.Loop(api, job_list)
    tracer = Tracer()
    probes = spans.Probes(tracer, extra_sites=[api]).install()
    try:
        _, _, outputs = loop.run_pass()
    finally:
        probes.remove()
    assert not loop.failures
    metrics = spans.pass_metrics(tracer)
    return {k: v for k, v in metrics.items() if isinstance(v, int)}, outputs


def test_unit_counts_repeat_exactly(tmp_path):
    api = worker._import_program(os.path.join(ROOT, "src"))
    job_list = [j for j in jobs.build_jobs("tail-threaded", 5, 2, str(tmp_path))
                if j.name in ("tail-birkhoff-halving", "tail-corr-sum", "tail-kappa-circle")]
    first, out1 = _traced_counts(job_list, api)
    second, out2 = _traced_counts(job_list, api)
    assert first == second
    assert out1 == out2
    assert first["chains.draws"] > 0 and first["estimators.corr_pairs"] > 0
    assert first["harness.chunks"] > 0 and first["measures.atoms"] > 0


# ---------------------------------------------------------------------------
# import-time parsing and output checks


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |     numpy.core
import time:       300 |        400 |   numpy
import time:      2000 |       2000 |   scipy.stats
import time:        50 |       2450 | rdslab.spaces
import time:        20 |         20 |   rdslab.streams
import time:        30 |         50 | rdslab.maps
"""


def test_parse_importtime_charges_third_party_to_first_importer():
    got = spans.parse_importtime(IMPORTTIME)
    assert got["spaces"] == pytest.approx(2450e-6)
    assert got["streams"] == pytest.approx(20e-6)
    assert got["maps"] == pytest.approx(30e-6)


def test_reference_comparison_tolerates_last_bits_only():
    text = "n,lambda_hat,verdict\n10,2.5,pass\n"
    entry = checks.reference_entry(text)
    checks.compare_reference(entry, "n,lambda_hat,verdict\n10,2.5000000000001,pass\n")
    for bad in ("n,lambda_hat,verdict\n11,2.5,pass\n",
                "n,lambda_hat,verdict\n10,2.6,pass\n",
                "n,lambda_hat,verdict\n10,2.5,fail\n"):
        with pytest.raises(ValueError):
            checks.compare_reference(entry, bad)


def test_lambda_cap_invariant():
    job = jobs.Job("lambda-x", "lambda", {}, 1)
    header = "n,lambda_hat,stderr,analytic_cap,diverged\n"
    checks.check_output(job, header + "10,2.1,0.1,2,false\n")
    with pytest.raises(ValueError):
        checks.check_output(job, header + "10,2.4,0.1,2,false\n")


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.per_layer_names()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(jobs.WORKLOADS)
