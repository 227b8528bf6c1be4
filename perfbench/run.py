"""ddss solver benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's instance from ``--seed`` with
``ddss.harness.gen_synthetic``, solves it once with the exact oracle (not
timed), then starts ``perfbench/solve.py`` in a fresh process, which repeats
the solve through the ``ddss-run`` entry point for ``--seconds`` seconds and
checks every result against the oracle.  ``--trace 0`` reports the medians
of the end-to-end metrics; ``--trace 1`` alternates untraced and traced
solves and reports the per-layer metrics.  Times are read on the scaled
clock of ``tracer.scaled_clock``, which takes out the host's speed drift.
Every metric is listed by name with its unit, and the last stdout line is
one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Workloads, sizes and gap targets are defined in ``perfbench/workloads.json``;
metric names and units are those of ``BENCHMARK.json``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import common

BUDGET_S = 170.0          # the whole run must end within 180 s


def make_instance(gen, seed, path):
    """Write the LIBSVM instance; logistic workloads take sign(y) labels."""
    from ddss.harness import gen_synthetic
    gen_synthetic(gen["n"], gen["p"], gen["density"], gen["k_true"],
                  gen["noise"], seed, str(path))
    if gen["labels"] == "sign":
        with open(path) as fh:
            lines = fh.read().splitlines()
        out = []
        for line in lines:
            label, _, rest = line.partition(" ")
            out.append(("1" if float(label) > 0 else "-1")
                       + (" " + rest if rest else ""))
        with open(path, "w") as fh:
            fh.write("\n".join(out) + "\n")


def oracle(cli):
    """P* and the blocks that are nonzero in the oracle solution."""
    import numpy as np
    from ddss.harness import load_problem
    from ddss.model import primal_objective
    from ddss.sequential import oracle_solve
    model, data = load_problem(cli)
    tol = 1e-12
    x_star = oracle_solve(model, data, tol_gap=tol)
    nonzero = [b for b, idx in enumerate(model.partition.blocks)
               if np.any(x_star[idx] != 0.0)]
    return {"oracle_objective": primal_objective(model, data, x_star),
            "oracle_gap": tol, "oracle_nonzero_blocks": nonzero,
            "blocks": model.partition.q}


def median(values):
    return statistics.median(values) if values else None


def main(argv=None):
    workloads = common.load_workloads()["workloads"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "selftest"), default="full",
                    help="selftest: the reduced instance of selftest.py")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not common.sources_present():
        print(f"perfbench: no ddss sources at {common.SRC}; run from the "
              f"root of a ddss checkout", file=sys.stderr)
        return 2
    common.use_sources()
    from ddss.harness import build_parser
    t_start = perf_counter()

    wl = workloads[args.workload]
    gen, epochs = common.sized(wl, args.size)
    work = common.WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        data_path = work / "instance.libsvm"
        make_instance(gen, args.seed, data_path)
        solver_argv = common.solver_argv(wl, data_path, args.seed, epochs)
        cli = build_parser().parse_args(solver_argv)
        spec = oracle(cli)
        spec.update({
            "workload": args.workload, "seed": args.seed, "argv": solver_argv,
            "epochs": epochs,
            "gap_rel": wl["gap_target"]["relative_to_p0"],
            "deterministic": wl["deterministic"],
            "one_cpu": wl["one_cpu"],
            "backend": cli.backend, "threads": cli.threads,
            "trace": bool(args.trace), "seconds": args.seconds,
            "deadline_s": max(1.0, BUDGET_S - 30.0
                              - (perf_counter() - t_start)),
            "spans_path": str(common.WORK / f"spans-{args.workload}-"
                              f"seed{args.seed}.json"),
        })
        spec_path = work / "spec.json"
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        try:
            child = subprocess.run(
                [sys.executable, str(common.HERE / "solve.py"),
                 str(spec_path)],
                stdout=subprocess.PIPE, text=True, cwd=str(common.ROOT),
                timeout=max(1.0, BUDGET_S - (perf_counter() - t_start)))
        except subprocess.TimeoutExpired:
            print("perfbench: solves did not finish in time", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if child.returncode != 0:
        print(f"perfbench: solve.py exited with {child.returncode}",
              file=sys.stderr)
        return 1
    out = json.loads(child.stdout.strip().splitlines()[-1])
    return report(args, out)


def report(args, out):
    e2e_units, layer_units = common.load_metrics()
    solves = out["solves"]
    for k, rec in enumerate(solves):
        for msg in rec["failures"]:
            kind = "traced" if rec["traced"] else "untraced"
            print(f"FAILED solve {k} ({kind}): {msg}")
    ok = [r for r in solves if not r["failures"]]
    plain = [r for r in ok if not r["traced"]]
    samples = {name: [r[name] for r in plain] for name in e2e_units
               if name != "peak_rss_mb"}
    samples["peak_rss_mb"] = [out["peak_rss_mb"]]    # one per process
    attempted, failed = len(solves), len(solves) - len(ok)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"median of {len(plain)} untraced solves, times at the reference "
          f"speed (unscaled median in brackets)")
    metrics = {}
    for name, unit in e2e_units.items():
        values = samples[name]
        metrics[name] = {"value": median(values), "unit": unit}
        spread = f"  (min {min(values)!r}, max {max(values)!r})" if values \
            else ""
        raw = median([r["raw"][name] for r in plain if name in r["raw"]])
        unscaled = f"  [{raw!r}]" if raw is not None else ""
        print(f"  {name:<36} {median(values)!r} {unit}{unscaled}{spread}")
    print(f"  {'error_rate':<36} {failed / attempted!r} ratio")
    print(f"  {'reference_loop_s':<36} "
          f"{median([r['reference_loop_s'] for r in ok])!r} s  (nominal "
          f"{out['reference_s']!r} s)")

    if args.trace:
        traced = [r for r in ok if r["traced"]]
        names = list(traced[0]["layers"]) if traced else []
        layers = {n: median([r["layers"][n] for r in traced]) for n in names}
        if traced and plain:
            layers["trace.overhead_s"] = (
                median([r["total_s"] for r in traced])
                - metrics["total_s"]["value"])
        missing = sorted(set(layer_units) - set(layers)) \
            if traced and plain else []
        if missing:
            print(f"perfbench: the tracer gives no {missing}", file=sys.stderr)
            return 1
        print(f"per layer, median of {len(traced)} traced solves")
        metrics = {}
        for name, unit in layer_units.items():
            print(f"  {name:<36} {layers.get(name)!r} {unit}")
            metrics[name] = {"value": layers.get(name), "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
