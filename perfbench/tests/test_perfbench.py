"""Tests of the benchmark's own parts: self-time arithmetic, the tail rule
for percentiles, the output gate and the negative control.

    python3 -m pytest perfbench/tests
"""

import copy
import time

import pytest

import bench as B
import tracing
import workloads as W


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    t = tracing.Tracer(clock)
    t.enter("outer")         # 0
    clock.now = 1.0
    t.enter("child")         # 1..3
    clock.now = 3.0
    t.enter("grandchild")    # 3..4
    clock.now = 4.0
    t.exit()
    t.exit()
    clock.now = 5.0
    t.enter("child")         # 5..6
    clock.now = 6.0
    t.exit()
    clock.now = 10.0
    t.exit()
    assert t.spans["outer"] == [1, 10.0, 10.0 - 3.0 - 1.0]
    assert t.spans["child"] == [2, 4.0, 4.0 - 1.0]
    assert t.spans["grandchild"] == [1, 1.0, 1.0]
    assert t.edges["outer", "child"] == 2
    assert t.edges[None, "outer"] == 1


def test_counts_go_to_the_innermost_span_and_skip_unspanned_work():
    t = tracing.Tracer(FakeClock())
    t.count("k")                       # outside every span: not counted
    t.enter("scan")
    t.count("k", 3)
    t.exit()
    t.enter("other")
    t.count("k")
    t.exit()
    assert t.counted("k") == 4
    assert t.counted("k", ("scan",)) == 3


def test_span_closes_on_exception():
    t = tracing.Tracer(FakeClock())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        t.span("f", boom)()
    assert t.stack == [] and t.spans["f"][0] == 1


def test_p90_needs_ten_samples_beyond_it():
    assert B.beyond(100, 0.9) == 10
    assert B.beyond(99, 0.9) == 9
    samples = [float(i) for i in range(1, 101)]
    assert B.percentile(samples, 0.9) == 90.0
    assert B.percentile(samples, 0.5) == 50.0
    with pytest.raises(ValueError, match="need 10"):
        B.percentile(samples[:99], 0.9)
    with pytest.raises(ValueError):
        B.percentile([], 0.5)


def test_reference_seconds_divide_out_host_slowness(monkeypatch):
    # every sample reads twice nominal and costs 20 ms of wall time
    def slow_sample():
        time.sleep(0.02)
        return 2 * B.REF_SAMPLE_S

    monkeypatch.setattr(B, "host_sample", slow_sample)
    with B.HostClock() as outer:
        with B.HostClock() as inner:
            pass
        B._take_sample()   # as the SIGALRM handler does
    assert inner.scale == outer.scale == 2.0
    # the inner clock's two samples and the handler's one are not work
    assert outer.seconds < 0.02 and inner.seconds < 0.02
    assert outer.ref_s == outer.seconds / 2
    assert B.ItemResult("x", 3.0, None, scale=1.5).ref_s == 2.0


def test_sampling_interrupts_a_long_stretch():
    with B.sampling(), B.HostClock() as clock:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    taken = [at for at, _, _ in B._SAMPLES if clock._start <= at]
    assert len(taken) >= 5  # two ends and at least three signals
    assert 0.2 < clock.seconds < 0.3


@pytest.fixture(scope="module")
def goldens():
    return W.load_goldens()


@pytest.fixture(scope="module")
def pkg():
    return B.load_package()


def test_gate_passes_the_recorded_output(pkg, goldens):
    result = B.Ladder(pkg, goldens, 0).run("1 1 1 0")
    assert result.error is None
    assert result.record["nstar"] == 3


def test_gate_catches_an_altered_digest(pkg, goldens):
    altered = copy.deepcopy(goldens)
    altered["ladder"]["1 1 1 0"]["digest"] = "0" * 32
    result = B.Ladder(pkg, altered, 0).run("1 1 1 0")
    assert result.error is not None and "differs from golden" in result.error


def test_gate_catches_an_altered_coding_word(pkg, goldens):
    altered = copy.deepcopy(goldens)
    altered["coding"]["digests"][5] = W.digest("0,1,2@-6")
    coding = B.Coding(pkg, altered, 0)
    assert coding.run(4).error is None
    assert "differs from golden" in coding.run(5).error


def test_traced_outputs_pass_the_same_gate(pkg, goldens):
    tracer = tracing.Tracer()
    originals = (pkg.construct.build_markov_construction,
                 pkg.exact.QuadReal.__add__)
    tracer.install(pkg)
    try:
        result = B.Ladder(pkg, goldens, 0).run("1 1 1 0")
    finally:
        tracer.uninstall()
    assert result.error is None
    assert (pkg.construct.build_markov_construction,
            pkg.exact.QuadReal.__add__) == originals
    layers = tracing.layer_metrics(tracer, 1, 1.0)
    assert layers["construct.build_s"] > 0
    assert layers["partition.lattice.points_scanned"] >= \
        layers["partition.lattice.hits"] > 0
    assert layers["exact.add_calls"] > 0


def test_inject_break_control_registers_as_failure(pkg, goldens):
    battery = B.Battery(pkg, goldens, 0)
    [control] = battery.control(seed=0)   # seed 0 picks `1 1 1 0`
    assert control.key == "1 1 1 0@8+inject-break"
    assert control.record["exit"] == 1 and control.error is None


def test_a_control_that_passes_is_a_failed_item(pkg, goldens, monkeypatch):
    battery = B.Battery(pkg, goldens, 0)
    real_main = pkg.cli.main

    def ignore_break(argv):
        return real_main([a for a in argv if a != "--inject-break"])

    monkeypatch.setattr(pkg.cli, "main", ignore_break)
    [control] = battery.control(seed=0)
    assert control.error is not None and "negative control passed" in control.error


def test_traced_metrics_match_benchmark_json(pkg, goldens):
    import json
    import run
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer()
    layers = tracing.layer_metrics(tracer, 1, 1.0)
    layers["coding.ambiguous_redraws"] = 0
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])
    for m in spec["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"], m["name"]
