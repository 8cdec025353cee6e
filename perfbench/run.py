#!/usr/bin/env python3
"""End-to-end benchmark for sigsub.

Builds the `perfbench` workload runner (and the `sigsub_cli` it spawns) from the
checkout's sources, runs one workload from a seed, checks the outputs, and
prints one JSON result line last:

  python3 perfbench/run.py --workload daemon_mixed --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py --self-test

Workloads, metrics and their units are listed in BENCHMARK.json; what each
metric means on each workload is in perfbench/README.md. `--trace 0`
reports the end-to-end metrics, `--trace 1` the per-layer ones and dumps
every span to .bench_work/spans/. Exact counts (kernel positions examined,
suffix classes and candidates, stream alarms) are kept per seed in
.bench_work/exact_counts.json and must repeat on every later run of that
seed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORK = os.path.join(REPO, ".bench_work")
WORKLOADS = ("daemon_mixed", "cli_mining", "substrings_mmap")
# Counters whose healthy value is 0 on every workload (load shedding, cache
# evictions); the self-test does not require a workload to move them.
HEALTHY_AT_ZERO = {"server.shed", "engine.cache_evictions"}


def build_dir():
    return os.path.join(REPO, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds the runner; returns (runner, cli) paths."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release", "-DSIGSUB_CCACHE=OFF"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return (os.path.join(out, "perfbench"),
            os.path.join(out, "sigsub", "sigsub_cli"))


def l3_bytes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level")) as f:
                if f.read().strip() != "3":
                    continue
            with open(os.path.join(base, index, "size")) as f:
                size = f.read().strip()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
            return int(size.rstrip("KMG")) * scale
    except OSError:
        pass
    return 0


def machine(runner):
    """The machine block; warns when it differs from the recorded one."""
    block = {"nproc": len(os.sched_getaffinity(0)), "l3_bytes": l3_bytes()}
    probe = subprocess.run([runner, "--machine"], capture_output=True, text=True)
    block.update(json.loads(probe.stdout))
    with open(os.path.join(HERE, "machine.json")) as f:
        recorded = json.load(f)
    for key, value in recorded.items():
        if block.get(key) != value:
            print(f"perfbench: warning: {key} is {block.get(key)} on this "
                  f"machine but {value} on the recorded one", file=sys.stderr)
    return block


def metric_specs():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def check_exact(key, exact):
    """Problems for exact counts that differ from an earlier run's."""
    path = os.path.join(WORK, "exact_counts.json")
    try:
        with open(path) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    seen = known.setdefault(key, {})
    problems = [f"exact count {name} is {value}, an earlier run of {key} "
                f"gave {seen[name]}"
                for name, value in exact.items()
                if name in seen and seen[name] != value]
    for name, value in exact.items():
        seen.setdefault(name, value)
    with open(path, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    return problems


def run_workload(runner, cli, workload, seed, seconds, trace, smoke=False):
    """Runs the runner once; returns (result dict, report text)."""
    work = os.path.join(WORK, f"{workload}-s{seed}-t{trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    argv = [runner, f"--workload={workload}", f"--seed={seed}",
            f"--seconds={seconds}", f"--trace={trace}", f"--cli={cli}",
            f"--work={work}"] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish within 170 s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: runner failed with code {proc.returncode}")
    raw = json.loads(lines[-1])
    report = lines[:-1]

    problems = list(raw["problems"])
    key = f"{workload}/{seed}" + ("/smoke" if smoke else "")
    problems += check_exact(key, raw["exact"])
    end_to_end, per_layer = metric_specs()
    metrics = {}
    for spec in (per_layer if trace else end_to_end):
        name = spec["name"]
        if name in raw["metrics"]:
            value = raw["metrics"][name]
        elif trace:
            value = 0.0  # A layer this workload never calls.
        else:
            problems.append(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": value, "unit": spec["unit"]}

    if trace:
        spans = os.path.join(WORK, "spans")
        os.makedirs(spans, exist_ok=True)
        dump = os.path.join(spans, f"{workload}-s{seed}.tsv")
        shutil.move(os.path.join(work, "spans.tsv"), dump)
        report.append(f"span dump: {os.path.relpath(dump, REPO)}")
    shutil.rmtree(work, ignore_errors=True)

    failed = raw["failed"] + len(problems) - len(raw["problems"])
    attempted = max(1, raw["attempted"])
    report.append(f"failed_frac {failed / attempted} ratio "
                  f"({failed} of {attempted} operations)")
    for problem in problems:
        report.append(f"problem: {problem}")
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, report


def self_test(runner, cli):
    """Runs every workload tiny, traced and untraced, and checks that every
    metric is emitted with its unit, verification passes, exact counts
    repeat, and every per-layer metric is measured by some workload."""
    end_to_end, per_layer = metric_specs()
    units = {s["name"]: s["unit"] for s in end_to_end + per_layer}
    ok = True
    measured = set()
    for workload in WORKLOADS:
        for trace in (0, 0, 1):  # The repeat checks the exact counts.
            result, report = run_workload(runner, cli, workload, 7, 1, trace,
                                          smoke=True)
            names = [s["name"] for s in (per_layer if trace else end_to_end)]
            emitted = all(result["metrics"].get(n, {}).get("unit") == units[n]
                          for n in names)
            if trace:
                measured.update(n for n, m in result["metrics"].items()
                                if m["value"] != 0)
            else:
                emitted = emitted and all(result["metrics"][n]["value"] > 0
                                          for n in names)
            passed = result["correct"] and emitted
            ok = ok and passed
            print(f"self-test {workload} trace={trace}: "
                  f"{'ok' if passed else 'FAILED'}")
            if not passed:
                print("\n".join(report))
    unmeasured = sorted(s["name"] for s in per_layer
                        if s["name"] not in measured | HEALTHY_AT_ZERO)
    if unmeasured:
        ok = False
        print("self-test: per-layer metrics no workload measured: "
              + ", ".join(unmeasured))
    print(f"self-test: {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    runner, cli = build()
    os.makedirs(WORK, exist_ok=True)
    block = machine(runner)
    print("machine: " + json.dumps(block, sort_keys=True))
    if args.self_test:
        return self_test(runner, cli)

    result, report = run_workload(runner, cli, args.workload, args.seed,
                                  args.seconds, args.trace)
    print("\n".join(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
