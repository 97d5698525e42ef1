"""One benchmark process: set up, run a workload's timed passes, check them.

Started by ``run.py`` in a fresh interpreter, one at a time.  It imports
sphfit from the checkout's ``src`` directory, warms up BLAS, then repeats
the workload's fixed pass as often as whole passes fit in ``--seconds``
(at least once).  Outputs are checked after each pass, outside the timed
section.  The last line of standard output is one JSON object.

    python3 perfbench/worker.py --workload sim2-gaussian --seed 1 \\
        --seconds 10 --spawned-at <monotonic clock at spawn>

With ``--trace`` the sphfit layers are wrapped (see ``tracing.py``) during
the timed passes and the spans go to ``--spans-out``.  ``--setup-only``
stops after set-up.  ``--record-reference`` runs every workload once with
the default seed and rewrites ``reference.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np                      # noqa: E402
import scipy                            # noqa: E402
import scipy.linalg                     # noqa: E402

import sphfit                           # noqa: E402
import tracing                          # noqa: E402
import workloads                        # noqa: E402

WORK = ROOT / "perfbench" / "out" / "work"
TRACE_IDENTITY_TOL_S = 1e-6


def warm_up() -> None:
    """First BLAS and LAPACK calls start the thread pool and load kernels."""
    a = np.random.default_rng(0).standard_normal((256, 256))
    s = a @ a.T + 256.0 * np.eye(256)
    np.linalg.eigh(s)
    scipy.linalg.cho_factor(s, lower=True)


def _openblas_threads() -> dict[str, int]:
    """Runtime thread count of each OpenBLAS library loaded in this process."""
    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return out
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas(show_config) -> dict:
    try:
        info = show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {"name": info.get("name"), "version": info.get("version")}


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np.show_config),
        "scipy_blas": _blas(scipy.show_config),
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads_runtime": _openblas_threads(),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, reference: dict,
                 work_dir: Path, spans_out: Path | None, setup_s: float) -> dict:
    wl = workloads.WORKLOADS[name]
    exact = seed == reference["seed"]
    tracer = tracing.Tracer()
    installation = tracing.install(tracer) if traced else None

    walls, usage, layer_passes, span_passes, rmses = [], [], [], [], []
    attempted, failures = 0, []
    while True:
        pass_dir = work_dir / f"pass{len(walls)}"
        pass_dir.mkdir(parents=True, exist_ok=True)
        tracer.active = traced
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        output = wl.run(seed, tracer.operation, pass_dir)
        t1 = time.perf_counter()
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        tracer.active = False
        walls.append(t1 - t0)
        usage.append({"process.user_s": r1.ru_utime - r0.ru_utime,
                      "process.sys_s": r1.ru_stime - r0.ru_stime,
                      "process.minor_faults": r1.ru_minflt - r0.ru_minflt})
        if traced:
            spans = tracer.take()
            span_passes.append(spans)
            layers = tracing.summarize(spans, t0, t1)
            layer_passes.append(layers)
            attempted += 1
            gap = layers["trace.self_sum_s"] + layers["trace.uncovered_s"] - layers["trace.wall_s"]
            if abs(gap) > TRACE_IDENTITY_TOL_S:
                failures.append(f"pass {len(walls)}: self times + uncovered differ "
                                f"from wall time by {gap:.3g} s")
        outcome = wl.check(output, seed, reference.get(name), exact)
        shutil.rmtree(pass_dir)
        attempted += outcome.attempted
        failures += outcome.failures
        rmses += outcome.rmses
        if sum(walls) + statistics.median(walls) > seconds:
            break                   # another pass would overrun --seconds

    finite = [r for r in rmses if math.isfinite(r)]
    result = {
        "workload": name,
        "wall_s": statistics.median(walls),
        "walls": walls,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "usage": {k: statistics.median(u[k] for u in usage) for k in usage[0]},
        # null when no row produced a finite RMSE; those rows count as failed
        "rmse_mean": statistics.fmean(finite) if finite else None,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "env": environment(seed),
    }
    if traced:
        installation.restore()
        result["layers"] = {k: statistics.median(p[k] for p in layer_passes)
                            for k in layer_passes[0]}
        result["zero_call_wrappers"] = sorted(k for k, n in tracer.calls.items() if n == 0)
        result["missing_wrappers"] = installation.missing
        result["bindings"] = installation.bindings
        if spans_out is not None:
            tracing.write_jsonl(spans_out, span_passes)
    return result


def record_reference() -> None:
    """Rewrite reference.json from one default-seed pass of every workload."""
    seed = workloads.DEFAULT_SEED
    ref = {"seed": seed}
    scratch = WORK / "reference"
    for name, wl in workloads.WORKLOADS.items():
        scratch.mkdir(parents=True, exist_ok=True)
        tracer = tracing.Tracer()
        outcome = wl.check(wl.run(seed, tracer.operation, scratch), seed, None, False)
        shutil.rmtree(scratch)
        key = "rows" if isinstance(wl, workloads.SimWorkload) else "models"
        ref[name] = {key: outcome.record}
        print(f"{name}: {len(outcome.record)} reference entries", file=sys.stderr)
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spawned-at", type=float, default=None,
                    help="time.monotonic() in the parent just before spawning")
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    if not Path(sphfit.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported sphfit from {sphfit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    warm_up()
    reference = None if args.record_reference else workloads.load_reference()
    setup_s = (time.monotonic() - args.spawned_at) if args.spawned_at is not None else 0.0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                              reference, work_dir, Path(args.spans_out) if args.spans_out else None,
                              setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
