import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing
import workloads
from sphfit import harness

# Small versions of the benchmark's workloads, same code paths.
TINY_SIM = workloads.SimWorkload("tiny-sim2", sim=2, target="f1", t=13, deltas=(0.1,),
                                 s_stars=(5,), n_seeds=2, n_test=300, rmse_bound=0.5)
TINY_CLI = workloads.CliWorkload("tiny-cli", train_degree=13, center_degrees=(5, 9),
                                 lam=1e-3, delta=0.1, rmse_bound=0.5, score_points=300)


def _traced_pass(wl, seed, workdir, monkeypatch):
    """One traced pass; returns (outcome, layer metrics, labels, random sketches)."""
    labels, sketches = [], []
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        with monkeypatch.context() as mp:
            make_dataset, select_sketch = harness.make_dataset, harness.select_sketch

            def record_dataset(*args):
                data = make_dataset(*args)
                labels.append(data.labels)
                return data

            def record_sketch(method, training):
                centers = select_sketch(method, training)
                if method.variant == "random":
                    sketches.append(centers.xyz)
                return centers

            mp.setattr(harness, "make_dataset", record_dataset)
            mp.setattr(harness, "select_sketch", record_sketch)
            tracer.active = True
            output = wl.run(seed, tracer.operation, workdir)
            tracer.active = False
    finally:
        inst.restore()
    layers = tracing.summarize(tracer.spans, 0.0, 1e12)
    outcome = wl.check(output, seed, None, exact=False)
    return outcome, layers, labels, sketches


def test_seed_changes_inputs_but_not_operation_counts(tmp_path, monkeypatch):
    a = _traced_pass(TINY_SIM, 1, tmp_path, monkeypatch)
    b = _traced_pass(TINY_SIM, 2, tmp_path, monkeypatch)
    (out_a, lay_a, lab_a, sk_a), (out_b, lay_b, lab_b, sk_b) = a, b
    assert not np.array_equal(lab_a[0], lab_b[0])
    assert len(sk_a) == len(sk_b) == 2
    assert not any(np.array_equal(x, y) for x, y in zip(sk_a, sk_b))
    assert out_a.attempted == out_b.attempted == len(TINY_SIM.row_keys())
    for name in ("data.rmse.calls", "harness.grid_search.calls", "solver.fit.calls",
                 "solver.eigh.calls", "solver.predict.calls", "kernels.zonal_value.entries"):
        assert lay_a[name] == lay_b[name] > 0, name


def _reference(wl, seed, workdir):
    outcome = wl.check(wl.run(seed, tracing.Tracer().operation, workdir), seed, None, False)
    key = "rows" if isinstance(wl, workloads.SimWorkload) else "models"
    return {key: outcome.record}


@pytest.mark.parametrize("wl", [TINY_SIM, TINY_CLI], ids=lambda w: w.name)
def test_wrong_reference_counts_as_failure(wl, tmp_path):
    seed = 7
    ref = _reference(wl, seed, tmp_path)
    output = wl.run(seed, tracing.Tracer().operation, tmp_path)
    good = wl.check(output, seed, ref, exact=True)
    assert good.failures == [] and good.attempted > 0

    entries = next(iter(ref.values()))
    first = next(iter(entries.values()))
    first["rmse"] *= 1 + 1e-4
    bad = wl.check(output, seed, ref, exact=True)
    assert 0 < len(bad.failures) / bad.attempted < 1
    # Other seeds are held only to seed-independent checks.
    assert wl.check(output, seed, ref, exact=False).failures == []


def test_wrong_lambda_in_reference_counts_as_failure(tmp_path):
    ref = _reference(TINY_SIM, 3, tmp_path)
    output = TINY_SIM.run(3, tracing.Tracer().operation, tmp_path)
    next(iter(ref["rows"].values()))["lam"] /= 2
    assert len(TINY_SIM.check(output, 3, ref, exact=True).failures) == 1


def test_raising_simulation_fails_every_row(tmp_path, monkeypatch):
    def boom(cfg):
        raise np.linalg.LinAlgError("synthetic")
    monkeypatch.setattr(workloads, "run_simulation2", boom)
    outcome = TINY_SIM.check(TINY_SIM.run(1, tracing.Tracer().operation, tmp_path),
                             1, None, False)
    assert len(outcome.failures) == outcome.attempted == len(TINY_SIM.row_keys())


def test_reference_covers_every_operation():
    ref = workloads.load_reference()
    assert ref["seed"] == workloads.DEFAULT_SEED
    for name, wl in workloads.WORKLOADS.items():
        if isinstance(wl, workloads.SimWorkload):
            assert set(ref[name]["rows"]) == {json.dumps(k) for k in wl.row_keys()}
        else:
            fits = [label for label, _ in wl.commands(1, run.OUT)
                    if label.startswith("fit")]
            assert set(ref[name]["models"]) == set(fits)


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    fake = {"wall_s": 1.0, "zero_call_wrappers": [], "missing_wrappers": [],
            "usage": {"process.user_s": 1.0, "process.sys_s": 1.0, "process.minor_faults": 1},
            "layers": {name: 1.0 for name, _, _ in tracing.METRICS} | {"trace.uncovered_s": 0.0}}
    emitted = run.layer_metrics(fake, fake, fake)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in emitted.items()}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-fit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_unreadable_cli_output_fails_its_operation(tmp_path):
    ref = _reference(TINY_CLI, 4, tmp_path)
    output = TINY_CLI.run(4, tracing.Tracer().operation, tmp_path)
    (tmp_path / "model_t5.txt").write_text("not a model\n")
    failures = TINY_CLI.check(output, 4, ref, exact=True).failures
    assert len(failures) == 1 and failures[0].startswith("fit-t5: check raised")
