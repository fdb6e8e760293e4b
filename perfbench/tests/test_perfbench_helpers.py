"""The benchmark's own measurement helpers."""

import json
import os

import pytest

from measure import (
    END_TO_END,
    PER_LAYER,
    REFERENCE_SLICE_S,
    MachineSpeed,
    counter_delta,
    histogram_quantile,
    percentile,
    self_times,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_percentile_keeps_ten_samples_beyond():
    samples = list(range(1, 1001))  # 1..1000
    value, used, n = percentile(samples, 0.99)
    assert (value, used, n) == (990, 0.99, 1000)
    assert sum(1 for s in samples if s > value) == 10


def test_percentile_falls_back_to_highest_with_ten_beyond():
    samples = list(range(1, 101))  # too few for p99
    value, used, n = percentile(samples, 0.99)
    assert value == 90 and used == 0.9 and n == 100
    assert sum(1 for s in samples if s > value) == 10
    # The median is untouched by the cap.
    assert percentile(samples, 0.5)[0] == 50


def test_percentile_needs_eleven_samples():
    assert percentile(list(range(10)), 0.5) is None
    assert percentile(list(range(11)), 0.99) == (0, 1 / 11, 11)


def test_self_time_subtracts_children_once():
    spans = [
        ("root", 0, 100, -1, None),
        ("child", 10, 40, 0, None),
        ("grandchild", 15, 25, 1, None),
        ("child", 50, 70, 0, None),
        ("root", 200, 210, -1, None),
    ]
    assert self_times(spans) == {
        "root": (2, 100 - 30 - 20 + 10),
        "child": (2, (30 - 10) + 20),
        "grandchild": (1, 10),
    }


def test_self_time_clips_and_merges_overlapping_children():
    spans = [
        ("parent", 0, 50, -1, None),
        ("a", 10, 30, 0, None),
        ("b", 20, 40, 0, None),  # overlaps a: 10..40 covered once
        ("c", 45, 60, 0, None),  # runs past the parent: 45..50 counts
    ]
    assert self_times(spans)["parent"] == (1, 50 - 30 - 5)


def test_two_host_deltas_subtract_each_baseline_once():
    before = [{"commits": 200, "aborts_conflict": 200}, {"commits": 200, "retries": 200}]
    after = [{"commits": 700, "aborts_conflict": 203, "wire.messages_sent": 9},
             {"commits": 260, "retries": 201}]
    assert counter_delta(before, after) == {
        "commits": 560, "aborts_conflict": 3, "retries": 1, "wire.messages_sent": 9,
    }


def test_histogram_quantile_reads_the_delta_only():
    bounds = [1.0, 5.0, 10.0]
    before = [100, 0, 0, 0]
    after = [101, 0, 98, 1]
    assert histogram_quantile(bounds, before, after, 0.5) == 10.0
    assert histogram_quantile(bounds, before, after, 0.99) == 10.0
    assert histogram_quantile(bounds, before, after, 1.0) == 10.0  # overflow bucket
    assert histogram_quantile(bounds, before, before, 0.99) == 0.0


def test_machine_speed_reads_the_slices_around_each_round():
    speed = MachineSpeed()
    speed.slices = [REFERENCE_SLICE_S * f for f in (1.0, 3.0, 4.0)]
    assert speed.slowdown(0) == pytest.approx(2.0)
    assert speed.slowdown(1) == pytest.approx(3.5)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for key, listed in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in spec[key]] == list(listed)
