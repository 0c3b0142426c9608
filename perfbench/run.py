"""Benchmark of reggio's trusted verdict.

Run from the root of a reggio checkout:

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 35 \
        --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run that gives the per-layer metrics.  Both print one line
per metric, with its unit and sample count, and end with one JSON line:
{"correct", "attempted", "failed", "metrics"}, where "metrics" holds the
metrics that BENCHMARK.json lists for that kind of run.  ``--workload all``
runs every workload both ways, each in a fresh process.  One process, one
thread; reggio is imported from the checkout's ``src`` directory.
"""
import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from tracer import (COUNT_UNITS, Tracer, install, layer_counts,  # noqa: E402
                    layer_times)
from workloads import WORKLOADS, Checks, Metric  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("syntax", "typecheck", "machine", "command", "invariants", "fuzz")
SETUPS = 15  # fresh set-ups per untraced run; setup_s is their median


def load_reggio() -> SimpleNamespace:
    """Import reggio afresh from the checkout."""
    for name in [n for n in sys.modules
                 if n == "reggio" or n.startswith("reggio.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{n: importlib.import_module("reggio." + n)
                              for n in MODULES})
    if Path(mods.fuzz.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"reggio was imported from {mods.fuzz.__file__}, "
                         f"not from {SRC}")
    return mods


def untraced(cls, seed: int, seconds: float):
    """The end-to-end metrics, after SETUPS fresh set-ups."""
    setups = []
    t0 = START
    for i in range(SETUPS):
        if i:
            del mods, wl
            gc.collect()  # free the previous import before timing the next
            t0 = time.perf_counter()
        mods = load_reggio()
        wl = cls(mods, seed)
        setups.append(time.perf_counter() - t0)
    checks = Checks()
    metrics, extra, lines = wl.measure(seconds, checks)
    report = {"setup_s": Metric(statistics.median(setups), "s",
                                f"{SETUPS} set-ups")}
    report.update(metrics)
    report["peak_rss_mib"] = Metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB",
        "1 process")
    report.update(extra)
    report["fail_ratio"] = Metric(checks.failed / checks.attempted, "ratio",
                                  f"{checks.attempted} operations")
    return checks, lines, report


def traced(cls, seed: int, seconds: float):
    """The per-layer metrics: pairs of an untraced and a traced pass over
    the same fixed inputs, repeated while they fit in the time given.

    The first pass records the run's checks; every later pass must give
    the same tally and the same per-layer counts, which is one more
    operation."""
    mods = load_reggio()
    wl = cls(mods, seed)
    checks = Checks()
    deadline = time.perf_counter() + seconds
    pairs = []
    tallies = set()
    while not pairs or time.perf_counter() + last <= deadline:
        plain = checks if not pairs else Checks()
        t0 = time.perf_counter()
        wl.fixed_pass(plain)
        t1 = time.perf_counter()
        tracer = Tracer()
        patches = install(tracer, mods)
        traced_checks = Checks()
        try:
            wl.fixed_pass(traced_checks)
        finally:
            patches.restore()
        t2 = time.perf_counter()
        tallies.update((plain.tally(), traced_checks.tally()))
        pairs.append((t1 - t0, t2 - t1, tracer))
        last = t2 - t0
    counts = layer_counts(pairs[0][2])
    checks.record(len(tallies) == 1
                  and all(layer_counts(t) == counts for _, _, t in pairs),
                  "checks or per-layer counts differ between passes")
    n = f"{len(pairs)} traced passes"
    times = [layer_times(t) for _, _, t in pairs]
    report = {k: Metric(statistics.median(t[k] for t in times), "s", n)
              for k in times[0]}
    report.update((k, Metric(v, COUNT_UNITS.get(k, "count"), n))
                  for k, v in counts.items())
    report["trace.overhead_ratio"] = Metric(
        statistics.median(b / a for a, b, _ in pairs), "ratio", n)
    return checks, [], report


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            status |= subprocess.run(cmd, check=False).returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    load = os.getloadavg()
    if not (SRC / "reggio" / "__init__.py").is_file():
        print(f"no reggio sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in spec["per_layer" if args.trace
                                      else "end_to_end"]]
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}; Python "
          f"{platform.python_version()}, nproc {os.cpu_count()}, load "
          f"average at start {load[0]:.2f} {load[1]:.2f} {load[2]:.2f}; "
          "single-machine numbers, noisy")
    measure = traced if args.trace else untraced
    checks, lines, report = measure(WORKLOADS[args.workload], args.seed,
                                    args.seconds)
    for line in lines:
        print(f"{args.workload:<10} {line}")
    for k, m in report.items():
        print(f"{args.workload:<10} {k:<34} {m.value:>14.6g} {m.unit:<10} "
              f"n={m.samples}")
    for msg in checks.messages:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.wrong == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": report[k].value, "unit": report[k].unit}
                    for k in listed},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
