"""Run one sphfit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sim1-wendland --seed 1 --seconds 10 --trace 0

Run from anywhere; the benchmark measures the sphfit sources in ``src/``
next to this directory.  Each measurement is a fresh interpreter
(``worker.py``), started one after another and never two at once, with
BLAS threads capped at the number of CPUs this process may use.

``--trace 0`` starts a few set-up-only processes and then one workload
process, and prints the end-to-end metrics.  ``--trace 1`` starts an
untraced workload process, a traced one, and a traced one with a single
BLAS thread, and prints the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record with the environment and every
process's full output goes to ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
WORKLOADS = ("sim1-wendland", "sim2-gaussian", "cli-fit")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7           # set-up times per run, the workload process's included
DEADLINE_S = 170.0          # whole run, so that it ends within three minutes

END_TO_END = {              # name -> unit
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
    "rmse_mean": "unitless", "pass_frac": "fraction",
}


class BenchError(RuntimeError):
    """A benchmark process failed to produce a result."""


def spawn(argv: list[str], threads: int, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, **{var: str(threads) for var in BLAS_THREAD_VARS})
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting the next process")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *argv, "--spawned-at", repr(spawned)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:       # run() has killed and reaped it
        raise BenchError(f"worker {argv} did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {argv} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def end_to_end(args, nproc: int, deadline: float) -> tuple[dict, list[dict]]:
    def setup_only(count):
        return [spawn(["--setup-only"], nproc, deadline)["setup_s"] for _ in range(count)]

    # Set-up samples before and after the workload, so that their median
    # spans the whole run rather than its first seconds.
    setups = setup_only(SETUP_SAMPLES // 2)
    res = spawn(["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds)], nproc, deadline)
    setups += [res["setup_s"]] + setup_only(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)
    res["setup_samples"] = setups
    values = {
        "wall_s": res["wall_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "rmse_mean": res["rmse_mean"],
        "pass_frac": 1.0 - res["failed"] / res["attempted"],
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, [res]


def layer_metrics(base: dict, traced: dict, single: dict) -> dict:
    """Per-layer metrics from an untraced, a traced and a traced
    single-BLAS-thread result of the same workload and seed."""
    metrics = {}
    for name, _, kind in tracing.METRICS:
        metrics[name] = {"value": traced["layers"][name], "unit": tracing.KIND_UNITS[kind]}
    for name, _, kind in tracing.METRICS:
        if kind == "self_s":
            metrics[f"{name}.threads1"] = {"value": single["layers"][name], "unit": "s"}
    for name, value in base["usage"].items():
        metrics[name] = {"value": value, "unit": "count" if name.endswith("faults") else "s"}
    metrics["trace.overhead_s"] = {"value": traced["wall_s"] - base["wall_s"], "unit": "s"}
    metrics["trace.uncovered_s"] = {"value": traced["layers"]["trace.uncovered_s"], "unit": "s"}
    metrics["trace.zero_call_wrappers"] = {"value": len(traced["zero_call_wrappers"]),
                                           "unit": "count"}
    metrics["trace.missing_wrappers"] = {"value": len(traced["missing_wrappers"]),
                                         "unit": "count"}
    return metrics


def per_layer(args, nproc: int, deadline: float) -> tuple[dict, list[dict]]:
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    spans = OUT / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    stem = spans / f"{args.workload}-seed{args.seed}"
    base = spawn(common, nproc, deadline)
    traced = spawn(common + ["--trace", "--spans-out", f"{stem}-threads{nproc}.jsonl"],
                   nproc, deadline)
    single = spawn(common + ["--trace", "--spans-out", f"{stem}-threads1.jsonl"],
                   1, deadline)
    return layer_metrics(base, traced, single), [base, traced, single]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sphfit" / "__init__.py").is_file():
        print(f"error: no sphfit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    try:
        if args.trace:
            metrics, procs = per_layer(args, nproc, deadline)
        else:
            metrics, procs = end_to_end(args, nproc, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in procs)
    failed = sum(p["failed"] for p in procs)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": procs[0]["env"], "metrics": metrics,
              "computed": list(tracing.COMPUTED) if args.trace else [],
              "processes": procs}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("env " + json.dumps(procs[0]["env"]))
    for p in procs:
        for failure in p["failures"]:
            print(f"FAILED {failure}")
    if args.trace:
        print("zero-call wrappers: " + ", ".join(procs[1]["zero_call_wrappers"]))
        print("missing wrappers: " + ", ".join(procs[1]["missing_wrappers"]))
        print("computed from argument shapes, not measured: " + ", ".join(tracing.COMPUTED))
    for name, m in metrics.items():
        value = "none" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name} = {value} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
