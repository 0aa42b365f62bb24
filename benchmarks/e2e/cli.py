"""Command line of the end-to-end benchmark.

``python -m benchmarks.e2e`` runs every workload untraced, then traced,
and prints every metric of ``BENCHMARK.json`` by name with its unit.
With ``--workload`` it runs that one, untraced or (``--trace 1``) traced,
and ends with the one-line JSON result the benchmark driver reads.
"""

from __future__ import annotations

import argparse
import json

from benchmarks.e2e import ROOT
from benchmarks.e2e.loop import run_untraced
from benchmarks.e2e.trace import run_traced
from benchmarks.e2e.workloads import REFERENCE_SECONDS, WORKLOADS


def load_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool, manifest: dict):
    """Run one workload; print and return its :class:`RunResult`."""
    if trace:
        result, group = run_traced(name, seed, seconds, smoke), "per_layer"
    else:
        result, group = run_untraced(name, seed, seconds, smoke), "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in manifest[group]}
    if set(units) != set(result.metrics):
        raise SystemExit(
            f"BENCHMARK.json and the {group} run disagree on metric names:"
            f" {sorted(set(units) ^ set(result.metrics))}"
        )
    for metric, value in result.metrics.items():
        print(f"{name}/{metric} = {value:.6g} {units[metric]}")
    for note, value in result.notes.items():
        print(f"{name}/{note} = {value:.6g} (note)")
    print(f"{name}/ops_attempted = {result.attempted}")
    print(f"{name}/ops_failed = {len(result.failures)}")
    for failure in result.failures[:20]:
        print(f"{name}: FAILED {failure}")
    if result.failures:
        print(result.server_log, end="")
    return result, units


def driver_line(result, units: dict) -> str:
    """The last line of a single-workload run, as the driver reads it."""
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": len(result.failures),
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in result.metrics.items()
            },
        }
    )


def selfcheck(seed: int, seconds: float, smoke: bool, manifest: dict) -> int:
    """Two untraced sets of the same code must agree within the bounds."""
    sets = [
        {name: run_untraced(name, seed, seconds, smoke) for name in WORKLOADS} for _ in range(2)
    ]
    worst = 0
    print("workload/metric: first second relative-difference bound verdict")
    for name in WORKLOADS:
        first, second = sets[0][name], sets[1][name]
        for metric in manifest["end_to_end"]:
            a, b = first.metrics[metric["name"]], second.metrics[metric["name"]]
            difference = abs(b - a) / a
            ok = difference <= metric["bound"] and first.correct and second.correct
            worst |= not ok
            print(
                f"{name}/{metric['name']}: {a:.4f} {b:.4f} {difference:.4f}"
                f" {metric['bound']} {'ok' if ok else 'PAST BOUND'}"
            )
    return int(worst)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=REFERENCE_SECONDS,
        help="sizes the fixed work of the timed phase (default: %(default)s)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=None, choices=(0, 1),
        help="per-layer run (1) or end-to-end run (0); both when not given",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny data, tens of ops, all checks")
    parser.add_argument("--selfcheck", action="store_true", help=selfcheck.__doc__)
    args = parser.parse_args(argv)
    manifest = load_manifest()

    if args.selfcheck:
        return selfcheck(args.seed, args.seconds, args.smoke, manifest)
    if args.workload and args.trace is not None:
        result, units = run_one(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, manifest
        )
        print(driver_line(result, units))
        return 0 if result.correct else 1
    names = [args.workload] if args.workload else list(WORKLOADS)
    traces = (False, True) if args.trace is None else (bool(args.trace),)
    correct = True
    for trace in traces:
        for name in names:
            result, _ = run_one(name, args.seed, args.seconds, trace, args.smoke, manifest)
            correct &= result.correct
    return 0 if correct else 1
