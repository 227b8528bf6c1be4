"""Child process of the benchmark: timed solves of one generated instance.

Usage: ``python3 perfbench/solve.py SPEC.json`` (``run.py`` writes the spec).
Each solve goes through ``ddss.harness.run_experiment``, the ``ddss-run``
entry point, from parse to the printed summary.  The process does nothing
else, so its peak resident memory is that of the solves.  The last stdout
line is a JSON object with one record per solve.

Every time is reported at a reference host speed: the probe times a fixed
pure-Python loop before the solve, at every epoch head and after the solve,
and ``tracer.scaled_clock`` rescales each stretch between two samples by
the loop's speed at its ends.  The unscaled figures are kept beside the
scaled ones.
"""

import contextlib
import gc
import io
import json
import os
import resource
import sys
import warnings
from time import perf_counter

import common

common.use_sources()

from ddss import harness                      # noqa: E402
from ddss.trace import traces_equal           # noqa: E402
from tracer import REF_S, HeadProbe, Tracer, scaled_clock  # noqa: E402

# counters that must repeat exactly on a deterministic workload
COUNTERS = ("steps", "touches", "eliminated_blocks", "epochs_to_gap")
TRACED_COUNTERS = ("distributed.frames", "distributed.bytes")
_, LAYER_UNITS = common.load_metrics()


def check_outputs(spec, summary, result, epoch_heads):
    """Output checks against the oracle; returns a list of failures."""
    failures = []
    pstar = spec["oracle_objective"]
    rounding = 1e-9 * max(1.0, abs(pstar)) + spec["oracle_gap"]
    excess = summary["final_objective"] - pstar
    if not excess <= summary["final_gap"] + rounding:
        failures.append(
            f"weak duality: objective - P* = {excess!r} exceeds the "
            f"reported gap {summary['final_gap']!r}")
    survivors = set(result.active.blocks.tolist())
    unsafe = [b for b in spec["oracle_nonzero_blocks"] if b not in survivors]
    if unsafe:
        failures.append(f"screening: eliminated blocks {unsafe[:5]} are "
                        f"nonzero in the oracle solution")
    eliminated = sum(len(h[2].eliminated) for h in epoch_heads)
    if eliminated != spec["blocks"] - result.active.q_s:
        failures.append("eliminated-block count disagrees with the "
                        "final active set")
    return failures


def one_solve(spec, probe, traced):
    probe.reset()
    tracer = Tracer() if traced else None
    out = io.StringIO()
    gc.collect()
    t_parse = probe.sample()
    if tracer:
        tracer.install()
    try:
        with contextlib.redirect_stdout(out):
            rc = harness.run_experiment(spec["argv"])
        t_end = perf_counter()
    finally:
        if tracer:
            tracer.uninstall()
    probe.sample()

    rec = {"traced": traced, "failures": []}
    if rc != 0 or probe.result is None:
        rec["failures"].append(f"ddss-run exited with code {rc}")
        return rec, None
    summary = json.loads(out.getvalue().strip().splitlines()[-1])
    result = probe.result
    epochs = spec["epochs"]
    heads = probe.heads
    if len(heads) != epochs + 1:
        rec["failures"].append(f"expected {epochs + 1} screens, "
                               f"saw {len(heads)}")
        return rec, None
    epoch_heads = heads[:epochs]     # the last screen only certifies x
    target = spec["gap_rel"] * heads[0][2].primal
    reached = [s for s, h in enumerate(epoch_heads) if h[2].gap <= target]
    rec["failures"] += check_outputs(spec, summary, result, epoch_heads)
    if not reached:
        rec["failures"].append(
            f"gap target {target!r} not reached in {epochs} epochs")
        return rec, None

    t_head0 = heads[0][0]
    steps = result.inner * epochs      # K draws per epoch, empty or not
    eliminated = sum(len(h[2].eliminated) for h in epoch_heads)
    tested = sum(len(h[2].tested) for h in epoch_heads if h[2].screened)
    stamps = {"setup_s": (t_parse, t_head0),
              "solve_s": (t_head0, probe.t_result),
              "total_s": (t_parse, t_end),
              "time_to_gap_s": (t_parse, epoch_heads[reached[0]][1])}
    scaled, unscaled = (scaled_clock(probe.samples),
                        scaled_clock(probe.samples, scaled=False))
    rec["raw"] = {}
    for name, (a, b) in stamps.items():
        rec[name] = scaled(b) - scaled(a)
        rec["raw"][name] = unscaled(b) - unscaled(a)
    touches = summary["coordinate_touches"]
    for into in (rec, rec["raw"]):
        into["steps_per_s"] = steps / into["solve_s"]
        into["touches_per_s"] = touches / into["solve_s"]
    scale = rec["total_s"] / rec["raw"]["total_s"]
    rec.update({
        "reference_loop_s": REF_S / scale,
        "counters": {
            "steps": steps,
            "touches": touches,
            "eliminated_blocks": eliminated,
            "epochs_to_gap": reached[0],
        },
    })
    if tracer:
        layers = tracer.layer_metrics(steps, touches, spec["backend"],
                                      spec["threads"], result.tau_hat)
        layers.update({
            "screening.eliminated_blocks": eliminated,
            "screening.elimination_ratio": eliminated / tested if tested
            else 0.0,
            "screening.active_features_final": result.active.p_s,
            "screening.active_feature_epochs": sum(
                r.active_features for r in result.trace),
            "sequential.epochs_to_gap": reached[0],
        })
        for name, unit in LAYER_UNITS.items():
            if unit in ("s", "us") and name in layers:
                layers[name] *= scale
        rec["layers"] = layers
        for name in TRACED_COUNTERS:
            rec["counters"][name] = layers[name]
        rec["spans"] = tracer.span_records(t_parse)
    return rec, result.trace


def compare(rec, trace, ref):
    """Exact-repeat checks of a deterministic workload against ``ref``."""
    ref_rec, ref_trace, ref_traced = ref
    for name in COUNTERS:
        if rec["counters"][name] != ref_rec["counters"][name]:
            rec["failures"].append(
                f"counter {name} changed: {ref_rec['counters'][name]} -> "
                f"{rec['counters'][name]}")
    if rec["traced"] and ref_traced is not None:
        for name in TRACED_COUNTERS:
            if rec["counters"][name] != ref_traced["counters"][name]:
                rec["failures"].append(f"counter {name} changed between "
                                       f"traced solves")
    if not traces_equal(trace, ref_trace):
        rec["failures"].append("convergence trace differs (traces_equal)")


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    if spec["one_cpu"]:
        # before any solver thread starts, so every thread inherits it
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    warnings.filterwarnings("ignore", message="mu_f = 0: falling back .*")
    probe = HeadProbe(os.sched_getaffinity(0) if spec["threads"] > 1
                      and spec["backend"] == "shared" else None)
    traced_mode = spec["trace"]
    plan = [False, True] if traced_mode else [False]
    min_rounds = 2 if traced_mode else 3
    recs = []
    ref = None
    t0 = perf_counter()
    rounds = 0
    while True:
        for traced in plan:
            try:
                rec, trace = one_solve(spec, probe, traced)
            except Exception as exc:  # a raising solve is a failed run
                rec, trace = {"traced": traced,
                              "failures": [f"raised {exc!r}"]}, None
            if trace is not None and spec["deterministic"]:
                if ref is None:
                    ref = [rec, trace, None]
                else:
                    compare(rec, trace, ref)
                if traced and ref[2] is None:
                    ref[2] = rec
            recs.append(rec)
        rounds += 1
        elapsed = perf_counter() - t0
        if elapsed >= spec["deadline_s"]:
            break
        if elapsed >= spec["seconds"] and rounds >= min_rounds:
            break
    probe.close()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    spans = [r.pop("spans") for r in recs if "spans" in r]
    if spans:
        with open(spec["spans_path"], "w") as fh:
            json.dump({"workload": spec["workload"], "seed": spec["seed"],
                       "solves": spans}, fh)
    print(json.dumps({"solves": recs, "peak_rss_mb": peak_kb / 1024.0,
                      "reference_s": REF_S}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
