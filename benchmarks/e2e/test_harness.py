"""Unit tests of the benchmark harness, and its smoke mode.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` from the
repo root; tier-1 ``testpaths`` does not include this directory.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import time

import pytest

from benchmarks.e2e import OUT
from benchmarks.e2e.cli import load_manifest, main
from benchmarks.e2e.stats import (
    CALIB_KERNELS,
    NAME_PATTERN,
    machine_slowness,
    percentile,
    round_spread,
    self_times,
    smoothed_percentile,
)
from benchmarks.e2e.workloads import WORKLOADS, MixedRw

UNIT_PATTERN = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_percentile_is_nearest_rank():
    samples = [5, 1, 4, 2, 3, 10, 9, 8, 7, 6]
    assert percentile(samples, 0.50) == 5
    assert percentile(samples, 0.90) == 9
    assert percentile(samples, 1.0) == 10
    assert percentile([7], 0.9) == 7
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_smoothed_percentile_is_the_mean_of_the_ranks_around():
    samples = list(range(100))
    assert smoothed_percentile(samples, 0.90) == statistics.fmean(range(85, 95))
    assert smoothed_percentile([7], 0.9) == 7
    # Two modes, the rank on the edge of the upper one: no jump to either.
    modes = [10.0] * 88 + [20.0] * 12
    assert 10.0 < smoothed_percentile(modes, 0.90) < 20.0
    with pytest.raises(ValueError):
        smoothed_percentile([], 0.9)


def test_round_median_rejects_one_disturbed_round():
    rounds = [38.2, 32.4, 36.7]  # the trial run quoted in the issue
    assert statistics.median(rounds) == 36.7  # what throughput_ops_s reports
    assert round_spread(rounds) == pytest.approx((38.2 - 32.4) / 36.7)


def test_machine_slowness_is_a_trimmed_mean_per_kernel():
    reference = tuple(seconds for _, seconds in CALIB_KERNELS)
    slow = tuple(3 * seconds for seconds in reference)
    # The fiftieth at each end goes: one of the three slow probes stays.
    assert machine_slowness([reference] * 97 + [slow] * 3) == pytest.approx((95 + 3) / 96)
    assert machine_slowness([tuple(2 * s for s in reference)] * 5) == pytest.approx(2.0)
    # One kernel four times slower, the others as ever: the geometric mean.
    lopsided = (4 * reference[0],) + reference[1:]
    assert machine_slowness([lopsided] * 5) == pytest.approx(4 ** (1 / len(reference)))


def test_self_time_with_nested_and_overlapping_children():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "start": 3.0, "end": 6.0},  # overlaps span 2
        {"id": 4, "parent": 1, "start": 9.0, "end": 12.0},  # sticks out of the parent
        {"id": 5, "parent": 2, "start": 1.5, "end": 2.0},  # nested: charged to 2, not 1
    ]
    times = self_times(spans)
    assert times[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert times[2] == pytest.approx(3.0 - 0.5)
    assert times[3] == pytest.approx(3.0)
    assert times[5] == pytest.approx(0.5)


def test_manifest_obeys_the_contract():
    manifest = load_manifest()
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    names = [w["name"] for w in manifest["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in manifest[group]:
            names.append(metric["name"])
            assert UNIT_PATTERN.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher")
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_PATTERN.match(name), name
    for workload in manifest["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    assert bounds.pop("setup_s") == 0.25 >= max(bounds.values())  # no bound is larger than set-up's
    assert manifest["command"] == ["python3", "-m", "benchmarks.e2e"]


def test_ops_come_from_the_seed_alone():
    for name, cls in WORKLOADS.items():
        first, again, other = cls(3, 20, True), cls(3, 20, True), cls(4, 20, True)
        assert first.warmup() == again.warmup()
        assert first.next_round() == again.next_round()
        if name in ("adhoc_cold", "mixed_rw"):
            assert first.next_round() != other.next_round()


def test_mixed_rw_cycle_shape_and_arithmetic():
    workload = MixedRw(1, 20, True)
    warmup = workload.warmup()
    assert sum(op.label == "write" for op in warmup) == 2 * 16 + 8  # no deletes yet
    ops = workload.next_round()
    assert len(ops) == 3 * 6
    assert [op.label for op in ops[:6]] == ["write"] * 5 + ["q2"]  # cycle 16 reads Q2
    assert all(op.delta == (16 if op.target == "Q1" else 0) for op in ops if op.kind == "execute")
    (r_sql, r_expected), (s_sql, s_expected) = workload.checksums().values()
    assert r_expected[0] == s_expected[0] == 16
    assert "A2 >= 10000" in r_sql and "B2 >= 20000" in s_sql
    # A round cut short hands its unsent cycles back: the next round starts there.
    workload.rewind(2 * 6)
    assert workload.next_round()[:12] == ops[6:]


def test_a_round_past_its_cap_ends_at_a_cycle_boundary_and_rewinds():
    from benchmarks.e2e.loop import run_round
    from benchmarks.e2e.workloads import Op

    class SlowConnection:
        def send(self, op):
            time.sleep(0.02)

    class Cycles:
        cycle, rewound = 3, 0

        def check(self, op, result):
            return True

        def rewind(self, ops):
            self.rewound = ops

    workload = Cycles()
    outcome = run_round(SlowConnection(), workload, [Op("adhoc", "query", "x")] * 12, cap=0.07)
    # 0.07 s is over during the fourth op; the round goes on to the sixth.
    assert outcome.attempted == len(outcome.latencies["adhoc"]) == 6
    assert workload.rewound == 6 and not outcome.failures


def _printed_metrics(output: str) -> dict:
    found: dict = {}
    for line in output.splitlines():
        match = re.match(r"^(\w+)/([\w.\-]+) = (\S+) (\S+)$", line)
        if match and match.group(4) != "(note)":
            found.setdefault(match.group(1), {})[match.group(2)] = match.group(4)
    return found


def test_smoke_runs_every_check_and_prints_every_metric(capsys):
    assert main(["--smoke"]) == 0
    printed = _printed_metrics(capsys.readouterr().out)
    manifest = load_manifest()
    expected = {m["name"]: m["unit"] for g in ("end_to_end", "per_layer") for m in manifest[g]}
    assert set(printed) == set(WORKLOADS)
    for name in WORKLOADS:
        assert printed[name] == expected, name
        assert (OUT / f"trace-{name}.json").exists()
    # Process hygiene: no scratch directory and no child outlives the run.
    assert not [entry for entry in os.listdir(OUT) if entry.startswith("run-")]
    children = f"/proc/{os.getpid()}/task/{os.getpid()}/children"
    if os.path.exists(children):
        with open(children) as handle:
            assert handle.read().split() == []


def test_driver_mode_ends_with_the_result_line(capsys):
    assert main(["--workload", "adhoc_cold", "--seed", "5", "--trace", "0", "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    manifest = load_manifest()
    assert set(result["metrics"]) == {m["name"] for m in manifest["end_to_end"]}
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"} and metric["value"] > 0
