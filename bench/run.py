"""The NICE search benchmark (bench/README.md).

Two ways in, one measurement underneath:

* ``python bench/run.py [--seed N] [--repeats N] [--workloads a,b]
  [--trace]`` runs every workload ``--repeats`` times, interleaved
  round-robin, checks every search against ``reference.json`` and prints
  every metric by name with its unit; ``--selfcheck`` does that twice and
  fails if the two sets disagree by more than a metric's bound.
* ``python bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
  is the driver's contract: one workload, samples until ``S`` seconds
  have been measured, and one JSON object as the last line of output.

It is a closed loop with one client: this process runs one search at a
time, each in a fresh ``sample.py`` process, never more than two workers.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"

#: ``--setup-only`` processes per contract run: setup_s is their median
#: (with the real samples' own), because one start-up is a 0.2 s event.
SETUP_SAMPLES = 9
#: A sample is killed after ten times its expected wall time, but never
#: so late that a contract run would outlive the driver's 180 s.
TIMEOUT_FACTOR = 10
TIMEOUT_CAP_S = 120.0
SETUP_TIMEOUT_S = 30.0

#: Layer driver -> (workloads whose traced pass runs it, its metrics).
DRIVERS = {
    "store": (("lb3_spill_resume",),
              ("mc.store.memory_inserts_per_s",
               "mc.store.sharded_inserts_per_s",
               "mc.store.sharded_lookups_per_s",
               "mc.store.spill_lookups_per_s")),
    "wire": (("lb3_fork2", "lb3_socket2"),
             ("mc.wire.encode_us", "mc.wire.decode_us",
              "mc.wire.result_bytes")),
}

_counter = itertools.count()


# ----------------------------------------------------------------------
# Running one process
# ----------------------------------------------------------------------

def spawn(script: str, arguments: list[str], timeout: float) -> dict | None:
    """Run ``bench/<script>`` in a scratch directory of its own and return
    the JSON object on its last output line; None if it failed, hung
    (its whole process group is killed) or printed no result."""
    workdir = WORK / f"{os.getpid()}-{next(_counter)}"
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # Pinned, not seeded: the searches must not depend on set order.
    env["PYTHONHASHSEED"] = "0"
    # The sharded store and the socket transport make temp files.
    env["TMPDIR"] = str(workdir)
    command = [sys.executable, str(BENCH / script), *arguments,
               "--workdir", str(workdir)]
    process = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        output, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # The session is the sample's own: its workers die with it.
        os.killpg(process.pid, signal.SIGKILL)
        output = ""
    finally:
        process.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    lines = output.strip().splitlines()
    if process.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def sample(workload, seed: int, setup_only: bool = False,
           trace_out: Path | None = None) -> dict | None:
    # The clock of setup_s starts here: interpreter start-up is set-up.
    arguments = [workload.name, "--seed", str(seed),
                 "--spawned-at", repr(time.perf_counter())]
    if setup_only:
        arguments.append("--setup-only")
    if trace_out is not None:
        arguments += ["--trace-out", str(trace_out)]
    timeout = (SETUP_TIMEOUT_S if setup_only else
               min(TIMEOUT_FACTOR * workload.expect_s, TIMEOUT_CAP_S))
    return spawn("sample.py", arguments, timeout)


# ----------------------------------------------------------------------
# Correctness gate and metrics
# ----------------------------------------------------------------------

def grade(result: dict | None, expected: dict) -> tuple[int, list[str]]:
    """(searches attempted, one line per failed search)."""
    searches = expected["searches"]
    if result is None:
        return len(searches), [
            "sample crashed, hung or printed no result"] * len(searches)
    problems = []
    for index, want in enumerate(searches):
        got = (result["searches"][index]
               if index < len(result["searches"]) else None)
        if got != want:
            problems.append(f"search {index}: expected {want}, got {got}")
    return len(searches), problems


def end_to_end(result: dict, expected: dict) -> dict:
    return {
        "wall_s": result["wall_s"],
        "transitions_per_s": expected["transitions"] / result["wall_s"],
        "cpu_s": result["cpu_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": result["setup_s"],
    }


class Tally:
    """Samples of one workload: values per metric, and the failure count."""

    def __init__(self):
        self.values: dict[str, list[float]] = {}
        self.untraced: list[dict] = []
        self.attempted = 0
        self.problems: list[str] = []

    def add(self, result: dict | None, expected: dict) -> None:
        attempted, problems = grade(result, expected)
        self.attempted += attempted
        self.problems += problems
        if result is not None and not problems:
            self.untraced.append(result)
            for name, value in end_to_end(result, expected).items():
                self.values.setdefault(name, []).append(value)

    def medians(self) -> dict[str, float]:
        return {name: statistics.median(values)
                for name, values in self.values.items()}


# ----------------------------------------------------------------------
# The traced pass
# ----------------------------------------------------------------------

def traced_pass(workload, seed: int, expected: dict, tally: Tally,
                serial_wall_s: float | None, catalog: dict) -> dict | None:
    """One traced sample plus what only a comparison or a driver can
    give; returns every per-layer metric, or None if the sample failed.
    ``tally`` already holds this workload's untraced samples."""
    trace_file = RESULTS / f"trace-{workload.name}.json"
    traced = sample(workload, seed, trace_out=trace_file)
    attempted, problems = grade(traced, expected)
    tally.attempted += attempted
    tally.problems += problems
    if problems or not tally.untraced:
        return None
    layers = dict(traced["layers"])
    untraced = tally.medians()
    layers["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    master_cpu = speedup = 0.0
    if workload.workers:
        master_cpu = statistics.median(
            each["cpu_self_s"] for each in tally.untraced)
        if serial_wall_s is not None:
            speedup = serial_wall_s / untraced["wall_s"]
    layers["mc.scheduler.master_cpu_s"] = master_cpu
    layers["mc.scheduler.speedup_vs_serial"] = speedup
    # Driver metrics ride with the workload whose layer they exercise;
    # elsewhere they read 0, meaning "not run here".
    for driver, (hosts, names) in DRIVERS.items():
        measured = {}
        if workload.name in hosts:
            tally.attempted += 1
            measured = spawn("drivers.py", [driver], TIMEOUT_CAP_S)
            if measured is None:
                tally.problems.append(f"the {driver} driver failed")
                return None
        for name in names:
            layers[name] = measured.get(name, 0.0)
    return layers


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def load_catalog() -> dict:
    """Metric names, units and bounds: BENCHMARK.json is the one list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m for m in spec["per_layer"]},
        "run_seconds": spec["run_seconds"],
    }


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return "-"
    low, _, high = statistics.quantiles(values, n=4)
    return f"{low:.4g}..{high:.4g}"


def print_workload(name: str, tally: Tally, layers: dict | None,
                   catalog: dict) -> None:
    print(f"\n== {name} ==")
    for metric, spec in catalog["end_to_end"].items():
        values = tally.values.get(metric, [])
        if values:
            print(f"  {metric:<20} {statistics.median(values):>12.4f}"
                  f" {spec['unit']:<6} median of {len(values)},"
                  f" quartiles {quartiles(values)}")
        else:
            print(f"  {metric:<20} {'-':>12} {spec['unit']:<6} no sample")
    failed = len(tally.problems)
    share = failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'failed_share':<20} {share:>12.4f} {'ratio':<6}"
          f" {failed} of {tally.attempted} searches")
    for problem in tally.problems[:5]:
        print(f"    ! {problem}")
    if layers is not None:
        for metric, spec in catalog["per_layer"].items():
            print(f"  {metric:<36} {layers[metric]:>16.6g} {spec['unit']}")


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------

def contract_run(args, workloads: dict, reference: dict,
                 catalog: dict) -> int:
    """The driver's invocation: see the module docstring."""
    workload = workloads[args.workload]
    expected = reference[workload.name]
    tally = Tally()
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            ready = sample(workload, args.seed, setup_only=True)
            if ready is None:
                break  # the samples below will report what is wrong
            setups.append(ready["setup_s"])
    measured = 0.0
    while measured < args.seconds and not tally.problems:
        result = sample(workload, args.seed)
        tally.add(result, expected)
        measured += result["wall_s"] if result else args.seconds
        if args.trace:
            break  # one untraced sample: the overhead ratio's base
    tally.values.setdefault("setup_s", []).extend(setups)
    layers = None
    if args.trace and not tally.problems:
        serial_wall_s = None
        if workload.workers:
            serial = sample(workloads["lb3_serial"], args.seed)
            if serial and not grade(serial, reference["lb3_serial"])[1]:
                serial_wall_s = serial["wall_s"]
        layers = traced_pass(workload, args.seed, expected, tally,
                             serial_wall_s, catalog)
    print_workload(workload.name, tally, layers, catalog)
    if args.trace:
        names, values = catalog["per_layer"], layers or {}
    else:
        names, values = catalog["end_to_end"], tally.medians()
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": max(tally.attempted, 1),
        "failed": len(tally.problems),
        "metrics": {name: {"value": values[name],
                           "unit": names[name]["unit"]}
                    for name in names if name in values},
    }))
    return 0


def suite_set(args, workloads: dict, reference: dict, catalog: dict,
              seed: int) -> dict:
    """One full set: ``--repeats`` rounds over every workload, the order
    within a round permuted by the seed so ambient load hits all alike;
    then, with ``--trace``, one traced pass per workload."""
    order = random.Random(seed)
    tallies = {name: Tally() for name in workloads}
    for round_index in range(args.repeats):
        names = list(workloads)
        order.shuffle(names)
        for name in names:
            started = time.perf_counter()
            tallies[name].add(sample(workloads[name], seed + round_index),
                              reference[name])
            print(f"  round {round_index + 1}/{args.repeats} {name}:"
                  f" {time.perf_counter() - started:.1f}s",
                  file=sys.stderr, flush=True)
    layers = {}
    if args.trace:
        serial = tallies.get("lb3_serial")
        serial_wall_s = serial.medians().get("wall_s") if serial else None
        for name, workload in workloads.items():
            layers[name] = traced_pass(workload, seed, reference[name],
                                       tallies[name], serial_wall_s,
                                       catalog)
    for name in workloads:
        print_workload(name, tallies[name], layers.get(name), catalog)
    return {name: {
        "samples": tallies[name].values,
        "medians": tallies[name].medians(),
        "attempted": tallies[name].attempted,
        "failed": len(tallies[name].problems),
        "layers": layers.get(name),
    } for name in workloads}


def selfcheck(first: dict, second: dict, catalog: dict) -> list[str]:
    """Metrics whose medians differ between two sets of one commit by
    more than their bound (in the direction that counts as worse)."""
    broken = []
    for name in first:
        for metric, spec in catalog["end_to_end"].items():
            a = first[name]["medians"].get(metric)
            b = second[name]["medians"].get(metric)
            if a is None or b is None:
                broken.append(f"{name} {metric}: no sample")
                continue
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            if abs(worse) > spec["bound"]:
                broken.append(f"{name} {metric}: {a:.4g} vs {b:.4g}"
                              f" ({worse:+.1%}, bound {spec['bound']:.0%})")
    return broken


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="permutes workload and table2 cell order;"
                             " the problems themselves are fixed")
    parser.add_argument("--repeats", type=int, default=5,
                        help="samples per workload (suite mode)")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="add the layer-traced pass")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two full sets and compare their medians")
    parser.add_argument("--quick", action="store_true",
                        help="the smoke test's tiny workload, 2 samples")
    parser.add_argument("--reference", type=Path,
                        default=BENCH / "reference.json")
    parser.add_argument("--json", type=Path,
                        help="also write the suite's results here")
    parser.add_argument("--workload", help="contract mode: this one only")
    parser.add_argument("--seconds", type=float,
                        help="contract mode: seconds to measure")
    args = parser.parse_args()

    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import ALL_WORKLOADS, QUICK_WORKLOADS, WORKLOADS

    catalog = load_catalog()
    reference = json.loads(args.reference.read_text())
    workloads = dict(QUICK_WORKLOADS if args.quick else WORKLOADS)
    if args.quick:
        args.repeats = 2
    try:
        if args.workload is not None:
            if args.seconds is None:
                args.seconds = catalog["run_seconds"]
            return contract_run(args, ALL_WORKLOADS, reference, catalog)
        if args.workloads:
            workloads = {name: workloads[name]
                         for name in args.workloads.split(",")}
        sets = [suite_set(args, workloads, reference, catalog, args.seed)]
        broken = []
        if args.selfcheck:
            print("\n#### second set ####")
            sets.append(suite_set(args, workloads, reference, catalog,
                                  args.seed + args.repeats))
            broken = selfcheck(sets[0], sets[1], catalog)
            print("\nselfcheck:", "agree within bounds" if not broken
                  else "DISAGREE")
            for line in broken:
                print(f"  ! {line}")
        if args.json:
            args.json.parent.mkdir(parents=True, exist_ok=True)
            args.json.write_text(json.dumps(
                {"seed": args.seed, "repeats": args.repeats, "sets": sets},
                indent=1))
        failed = sum(each["failed"] for one in sets for each in one.values())
        return 1 if failed or broken else 0
    finally:
        try:
            WORK.rmdir()  # every sample removed its own directory
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
