"""The benchmark's arithmetic: percentiles, round medians, span self time."""

from __future__ import annotations

import json
import math
import re
import statistics
import time

import numpy

#: What BENCHMARK.json accepts as a metric or workload name.
NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


def percentile(samples, fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def median_ms(seconds) -> float:
    """Median of ``seconds`` in milliseconds; 0 when there are none
    (a metric that does not apply to the workload)."""
    return statistics.median(seconds) * 1000.0 if seconds else 0.0


def round_spread(values) -> float:
    """(max - min) / median over the rounds of one run."""
    return (max(values) - min(values)) / statistics.median(values)


def self_times(spans) -> dict:
    """Self time per span id: duration minus what its children cover.

    ``spans`` are dicts with ``id``, ``parent``, ``start`` and ``end``.
    Children may overlap each other or stick out of the parent; only the
    union of their intervals, clipped to the parent, is subtracted.
    """
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered, reach = 0.0, start
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            low, high = max(child["start"], reach), min(child["end"], end)
            if high > low:
                covered += high - low
                reach = high
        result[span["id"]] = (end - start) - covered
    return result


def smoothed_percentile(samples, fraction: float) -> float:
    """Mean of the samples ranked within 0.05 of ``fraction``.

    A request mix has one latency mode per statement, and a single order
    statistic jumps between neighbours as the modes shift by a sample or
    two; the mean of the tenth of the samples around the rank moves
    smoothly.  (Ten runs per workload: the spread of the 90th percentile
    fell by a quarter to a third against nearest rank.)
    """
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    low = math.floor((fraction - 0.05) * len(ordered))
    high = math.ceil((fraction + 0.05) * len(ordered))
    return statistics.fmean(ordered[max(low, 0) : max(high, low + 1)])


_INTS = list(range(100_000))
_DOCUMENT = {"rows": [[i, i * 3, str(i), i / 7] for i in range(300)], "ok": True}
_ARRAY = numpy.arange(100_000, dtype=numpy.int64)
_STARTS = numpy.arange(0, 100_000, 1000)


def _bytecode():
    total = 0
    for i in range(12_000):
        total += i * i


def _objects():
    rows = [(i, i + 1, i % 7) for i in range(2000)]
    groups: dict = {}
    for row in rows:
        groups.setdefault(row[2], []).append(row)
    rows.sort(key=lambda row: row[2])


def _json():
    json.loads(json.dumps(_DOCUMENT))


def _memory():
    sum(_INTS)
    _INTS[:]


def _numpy():
    numpy.sort(_ARRAY[_ARRAY % 7 == 3] * 3)
    numpy.add.reduceat(_ARRAY, _STARTS)


#: The calibration kernels, and the seconds each takes on the 2-core box
#: the bounds were set on, in its fast spells.  The references are only
#: a scale: they make a reported time read as "at this machine speed"
#: instead of "at whatever speed the host allowed during the run".
CALIB_KERNELS = (
    (_bytecode, 0.58e-3),
    (_objects, 0.55e-3),
    (_json, 0.51e-3),
    (_memory, 0.88e-3),
    (_numpy, 0.69e-3),
)


def calibrate() -> tuple:
    """Seconds each of five small fixed kernels takes right now.

    The sandbox's speed moves by 10-60% for seconds to minutes at a time
    (a busy neighbour on the host; the guest sees no steal).  It does not
    move alike for every kind of work: a bytecode loop that lives in the
    first-level cache slows most, work that streams memory least, and
    the server does some of each.  So the probe is a mix of what a Python
    server does -- bytecode, object allocation and hashing, JSON, memory
    streaming, numpy -- run between requests all through a round, and
    times are reported at the reference speed.  It shares nothing with
    the program under test, so it cannot hide a regression.
    """
    seconds = []
    for kernel, _ in CALIB_KERNELS:
        start = time.perf_counter()
        kernel()
        seconds.append(time.perf_counter() - start)
    return tuple(seconds)


def machine_slowness(calibrations) -> float:
    """How much slower than the reference the machine ran: the geometric
    mean, over the kernels, of mean kernel time / reference.

    The mean per kernel, not the median: when the host takes the CPU
    away, a few probes take several times longer and the rest are not
    touched, and the requests lose time in the same proportion.  The
    fiftieth at either end is dropped so that one wild sample cannot
    move it.  (Twelve runs of ``fig7_warm`` on a restless host:
    throughput spread 10.5% raw, 6.5% over the bytecode kernel alone,
    1.5% over the five.)
    """
    logs = []
    for (_, reference), samples in zip(CALIB_KERNELS, zip(*calibrations)):
        ordered = sorted(samples)
        cut = len(ordered) // 50
        logs.append(math.log(statistics.fmean(ordered[cut : len(ordered) - cut]) / reference))
    return math.exp(statistics.fmean(logs))
