"""Self-test of the benchmark: ``python3 perfbench/selftest.py``.

Runs every workload once at its reduced self-test size, untraced and
traced, and checks that

* the run exits 0 and its last line is the result object with exactly the
  keys ``correct``, ``attempted``, ``failed``, ``metrics``, with no failed
  solve;
* the result carries exactly the metrics that ``BENCHMARK.json`` names
  (end-to-end untraced, per-layer traced), each a finite number, so the
  solves and the tracer give a value for every name listed there;
* the listing printed before the result names every metric, and
  ``error_rate``, with its unit;
* without the ddss sources next to it, the benchmark exits nonzero and
  prints no result.

Exits 0 when every check passes.
"""

import json
import math
import shutil
import subprocess
import sys

import common


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--size", "selftest"],
        cwd=str(cwd), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170)


def check_run(proc, expected):
    """Problems with one run's output; ``expected`` maps name -> unit."""
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1
            and result["failed"] == 0):
        problems.append(f"failed solves: {lines[:-1]}")
    if set(result["metrics"]) != set(expected):
        problems.append(f"metric names differ: "
                        f"{sorted(set(result['metrics']) ^ set(expected))}")
    for name in expected:
        value = result["metrics"].get(name, {}).get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    listed = {tuple(line.split()[0:3:2]) for line in lines[:-1]
              if len(line.split()) >= 3}
    for name, unit in list(expected.items()) + [("error_rate", "ratio")]:
        if (name, unit) not in listed:
            problems.append(f"{name} [{unit}] missing from the listing")
    return problems


def main():
    units = common.load_metrics()
    with open(common.ROOT / "BENCHMARK.json") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    failures = []
    for name in workloads:
        for trace in (0, 1):
            problems = check_run(run(common.ROOT, name, trace), units[trace])
            status = "ok" if not problems else "FAIL"
            print(f"{name:<24} trace={trace} {status}")
            failures += [f"{name} trace={trace}: {p}" for p in problems]

    bare = common.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(common.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        proc = run(bare, workloads[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    bare_ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print(f"{'without sources':<24} {'ok' if bare_ok else 'FAIL'}")
    if not bare_ok:
        failures.append("benchmark without sources did not fail cleanly")

    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
