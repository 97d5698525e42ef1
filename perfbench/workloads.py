"""The benchmark's workloads: inputs made from a seed, one timed pass each,
and the checks applied to a pass's outputs outside the timed section.

Every workload reports one entry per operation it attempts (a result row
of a simulation, or one CLI command).  An operation fails when it raised
or when any of its checks failed.  With the default seed, outputs are
compared with ``reference.json``; with any other seed only checks that do
not depend on the seed apply.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sphfit import cli
from sphfit.data import TargetFunction, load_dataset
from sphfit.designs import design_path
from sphfit.harness import (ExperimentConfig, GridSpec, run_simulation1,
                            run_simulation2)
from sphfit.points import generate_spiral
from sphfit.solver import load_model, predict

DEFAULT_SEED = 1234
REFERENCE_PATH = Path(__file__).with_name("reference.json")
RMSE_REL_TOL = 1e-6


@dataclass
class Outcome:
    """Checked result of one pass."""

    attempted: int
    failures: list[str] = field(default_factory=list)    # one entry per failed op
    rmses: list[float] = field(default_factory=list)     # result rows' test RMSE
    record: dict = field(default_factory=dict)           # values kept as reference


def _rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / max(abs(ref), 1e-300)


def _check_rmse(value: float, bound: float, ref: float | None) -> list[str]:
    if not math.isfinite(value):
        return [f"rmse {value} not finite"]
    out = [] if value <= bound else [f"rmse {value:.6g} above bound {bound}"]
    if ref is not None and _rel_err(value, ref) > RMSE_REL_TOL:
        out.append(f"rmse {value!r} differs from reference {ref!r}")
    return out


@dataclass(frozen=True)
class SimWorkload:
    """``run_simulation1`` or ``run_simulation2`` on a fixed configuration;
    the seed becomes the config's base seed (training noise and random
    sketches)."""

    name: str
    sim: int
    target: str
    t: int
    deltas: tuple[float, ...]
    s_stars: tuple[int, ...]
    rmse_bound: float            # seed-independent upper bound on any row's RMSE
    n_seeds: int = 1
    n_test: int = 10000

    def config(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(target=self.target, t=self.t, deltas=self.deltas,
                                s_stars=self.s_stars, n_seeds=self.n_seeds,
                                n_test=self.n_test, base_seed=seed)

    def row_keys(self) -> list[tuple]:
        """(method, delta, s_star, replicate) of every row a pass yields;
        replicate is the random-sketch index, or -1 for a main row."""
        methods = ("design",) if self.sim == 1 else ("design", "first", "random")
        reps = 0 if self.sim == 1 else self.n_seeds
        return [(meth, d, s, -1) for d in self.deltas for s in self.s_stars
                for meth in methods] + [
                    ("random", d, s, i) for d in self.deltas
                    for s in self.s_stars for i in range(reps)]

    def run(self, seed: int, operation, workdir: Path):
        """The timed section: one simulation call."""
        cfg = self.config(seed)
        with operation():
            try:
                if self.sim == 1:
                    return run_simulation1(cfg), []
                return run_simulation2(cfg)
            except Exception:       # the benchmark counts it and carries on
                return traceback.format_exc()

    def check(self, output, seed: int, reference: dict | None,
              exact: bool) -> Outcome:
        keys = self.row_keys()
        outcome = Outcome(attempted=len(keys))
        if isinstance(output, str):
            outcome.failures = [f"{k}: simulation raised: {output}" for k in keys]
            return outcome
        main, detail = output
        found = {(r.method, r.delta, r.s_star, -1): r for r in main}
        found.update({("random", r.delta, r.s_star, s - seed - 1): r for s, r in detail})
        ref_rows = (reference or {}).get("rows", {})
        for key in keys:
            row = found.get(key)
            if row is None:
                outcome.failures.append(f"{key}: row missing")
                continue
            values = {"m": row.m, "lam": row.lam, "sigma": row.sigma, "rmse": row.rmse}
            outcome.record[json.dumps(key)] = values
            if key[3] == -1:
                outcome.rmses.append(row.rmse)
            problems = self._check_row(row, ref_rows.get(json.dumps(key)), exact)
            if problems:
                outcome.failures.append(f"{key}: " + "; ".join(problems))
        return outcome

    def _check_row(self, row, ref: dict | None, exact: bool) -> list[str]:
        if ref is None:
            return ["no reference row"]
        grid = GridSpec.for_target(self.target, noisy=row.delta > 0)
        problems = []
        if row.m != ref["m"]:
            problems.append(f"m {row.m} != reference {ref['m']}")
        if row.lam not in grid.lambdas:
            problems.append(f"lambda {row.lam!r} not on the grid")
        if row.sigma not in (grid.sigmas or (None,)):
            problems.append(f"sigma {row.sigma!r} not on the grid")
        if exact and (row.lam, row.sigma) != (ref["lam"], ref["sigma"]):
            problems.append(f"(lambda, sigma) {(row.lam, row.sigma)} != reference "
                            f"{(ref['lam'], ref['sigma'])}")
        problems += _check_rmse(row.rmse, self.rmse_bound, ref["rmse"] if exact else None)
        return problems


def _call_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:           # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:                   # the benchmark counts it and carries on
            out.write(traceback.format_exc())
            code = -1
    return code, out.getvalue()


@dataclass(frozen=True)
class CliWorkload:
    """Single-model path through ``sphfit.cli.main``: verify the training
    design, generate a noisy dataset, fit with each center design, and fit
    with every training point as a center."""

    name: str
    train_degree: int
    center_degrees: tuple[int, ...]
    lam: float
    delta: float
    rmse_bound: float
    target: str = "f2"
    score_points: int = 2000

    def commands(self, seed: int, workdir: Path) -> list[tuple[str, list[str]]]:
        train = str(design_path(self.train_degree))
        data = str(workdir / "data.csv")
        fit = ["fit", "--train", train, "--labels", data, "--kernel", "wendland",
               "--lambda", repr(self.lam)]
        cmds = [
            ("verify-design", ["verify-design", "--file", train,
                               "--t-max", str(self.train_degree)]),
            ("gen-data", ["gen-data", "--design", train, "--target", self.target,
                          "--delta", repr(self.delta), "--seed", str(seed),
                          "--out", data]),
        ]
        for t in self.center_degrees:
            cmds.append((f"fit-t{t}", fit + ["--centers", str(design_path(t)),
                                              "--out", str(workdir / f"model_t{t}.txt")]))
        cmds.append(("fit-full", fit + ["--out", str(workdir / "model_full.txt")]))
        return cmds

    def run(self, seed: int, operation, workdir: Path):
        """The timed section: every command, each its own operation."""
        results = []
        for label, argv in self.commands(seed, workdir):
            with operation():
                results.append((label, argv) + _call_cli(argv))
        return results

    def check(self, output, seed: int, reference: dict | None,
              exact: bool) -> Outcome:
        outcome = Outcome(attempted=len(output))
        refs = (reference or {}).get("models", {})
        grid = generate_spiral(self.score_points)
        truth = TargetFunction.by_name(self.target)(grid)
        for label, argv, code, text in output:
            if code != 0:
                problems = [f"exit code {code}: {text[-2000:]}"]
            else:
                try:
                    problems = self._check_command(label, argv, text, refs.get(label),
                                                   exact, grid, truth, outcome)
                except Exception:   # an unreadable output file fails its operation
                    problems = [f"check raised: {traceback.format_exc()}"]
            if problems:
                outcome.failures.append(f"{label}: " + "; ".join(problems))
        return outcome

    def _check_command(self, label, argv, text, ref, exact, grid, truth,
                       outcome) -> list[str]:
        out_file = argv[argv.index("--out") + 1] if "--out" in argv else None
        if label == "verify-design":
            if f"max verified degree: {self.train_degree} " not in text:
                return [f"design not certified at degree {self.train_degree}"]
            return []
        if label == "gen-data":
            points, labels = load_dataset(out_file)
            if len(points) != len(labels) or not np.all(np.isfinite(labels)):
                return ["dataset labels missing or not finite"]
            return []
        model = load_model(out_file)
        err = float(np.sqrt(np.mean((predict(model, grid) - truth) ** 2)))
        outcome.rmses.append(err)
        outcome.record[label] = {"rmse": err, "m": len(model.centers)}
        if ref is None:
            return ["no reference model"]
        problems = [] if len(model.centers) == ref["m"] else [
            f"m {len(model.centers)} != reference {ref['m']}"]
        return problems + _check_rmse(err, self.rmse_bound, ref["rmse"] if exact else None)


WORKLOADS = {w.name: w for w in (
    SimWorkload("sim1-wendland", sim=1, target="f2", t=57, deltas=(0.1, 0.5),
                s_stars=(13, 25), rmse_bound=0.3),
    SimWorkload("sim2-gaussian", sim=2, target="f1", t=33, deltas=(0.1,),
                s_stars=(9,), n_seeds=3, rmse_bound=0.3),
    CliWorkload("cli-fit", train_degree=57, center_degrees=(41, 49, 57),
                lam=2e-4, delta=0.1, rmse_bound=0.2),
)}


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))
