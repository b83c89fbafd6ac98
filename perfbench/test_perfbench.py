"""Tests of the benchmark itself: a tiny run of every workload, span self-time
accounting, and fault injection.  Run with `python3 -m pytest perfbench`."""

import dataclasses
import json
from pathlib import Path

import pytest

import workloads
from partsched.inference import MatrixResponseProvider
from spans import Tracer

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY = {
    "scan": dataclasses.replace(workloads.WORKLOADS["scan"], image_locations=2000,
                                pool_images=2, setup_repeats=1),
    "scan-deep": dataclasses.replace(workloads.WORKLOADS["scan-deep"], image_locations=500,
                                     pool_images=2, setup_repeats=1),
    "pipeline": dataclasses.replace(workloads.WORKLOADS["pipeline"], n_parts=4,
                                    samples_per_class=200, locations=500, trials=2000,
                                    setup_repeats=1),
}


def test_every_workload_is_tiny_tested():
    assert set(TINY) == set(workloads.WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_is_correct_and_reports_every_metric(tmp_path, name, trace):
    report = workloads.run(name, seed=3, seconds=0.05, trace=trace, out_dir=tmp_path,
                           config=TINY[name])
    assert report["failed"] == 0 and report["attempted"] >= 2
    listed = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    got = report["per_layer"] if trace else report["end_to_end"]
    assert {name: unit for name, (_, unit) in got.items()} == \
        {m["name"]: m["unit"] for m in listed}
    assert all(value > 0 for value, _ in report["end_to_end"].values())
    if trace:
        assert report["spans"].spans
        assert report["per_layer"]["policy.table_bytes"][0] > 0
        assert list(tmp_path.iterdir()) == []  # the work directory is removed


def test_self_times_sum_to_the_root_duration():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 9.0, 9.5, 12.0, 13.0, 13.5, 20.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("cli.infer"):
        with tracer.span("policy.load_policy"):
            pass
        with tracer.span("inference.run_grid"):
            with tracer.span("synth.compute_rnpe"):
                pass
        with tracer.span("likelihoods.load_likelihoods"):
            pass
    root = tracer.spans[0]
    assert root.duration == 20.0
    assert sum(s.self_time for s in tracer.spans) == root.duration
    tracer.cover(2, 1.5)  # provider fetches inside run_grid
    by_layer = tracer.layer_self_time()
    assert sum(by_layer.values()) == root.duration
    assert by_layer["provider"] == 1.5 and by_layer["inference"] == 8.0 - 0.5 - 1.5


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert workloads.tail(list(range(100))) == (89, 100.0 * 89 / 99)
    assert workloads.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


class _OneWrongValue(MatrixResponseProvider):
    def get_response(self, location_id, part_id):
        value = super().get_response(location_id, part_id)
        return value + 1.0 if location_id == 7 else value


class _FaultyScan(workloads.ScanBench):
    """Serves one wrong response value at location 7 of image 0."""

    def provider_for(self, image, tracer):
        provider = super().provider_for(image, tracer)
        return _OneWrongValue(provider.scores) if image == 0 else provider


def test_a_wrong_response_fails_its_operation(tmp_path):
    report = workloads.run("scan", seed=3, seconds=0.0, trace=False, out_dir=tmp_path,
                           config=TINY["scan"], bench_factory=_FaultyScan)
    # the warm-up labels image 1 and passes; the loop labels image 0 then 1
    assert report["attempted"] == 3
    assert report["failed"] == 1
    assert report["details"]["failed_share"] == pytest.approx(1 / 3)
