"""Paths and workload definitions shared by the benchmark's two processes."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def sources_present():
    return (SRC / "ddss" / "__init__.py").is_file()


def use_sources():
    """Import ddss from this checkout's sources, never an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_workloads():
    with open(HERE / "workloads.json") as fh:
        return json.load(fh)


def load_metrics():
    """Metric name -> unit, end-to-end and per-layer, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def sized(workload, size):
    """Generator parameters and epoch count at full or self-test size."""
    gen = dict(workload["generator"])
    epochs = workload["epochs"]
    if size == "selftest":
        small = dict(workload["selftest_size"])
        epochs = small.pop("epochs")
        gen.update(small)
    return gen, epochs


def solver_argv(workload, data_path, seed, epochs):
    """``ddss-run`` arguments of one solve."""
    return (["--data", str(data_path), "--seed", str(seed),
             "--epochs", str(epochs)] + list(workload["cli"]))
