"""End-to-end acceptance checks for the package.

One test per criterion, run in order; each prints a single
``[criterion N] name: PASS/FAIL`` line (visible with ``pytest -rA`` or
``-s``) and fails loudly if its bound is not met.  The desk-scale
experiment criteria (4-6) share a cached t=57 benchmark, so this file
takes a few minutes; everything else is seconds.
"""

import time
import tracemalloc

import numpy as np
import pytest

from sphfit.cli import main as cli_main
from sphfit.data import (NoiseModel, TargetFunction, make_dataset, rmse,
                         sample_truncated_gaussian)
from sphfit.designs import load_design
from sphfit.harness import GridSpec, _random_sketch, grid_search
from sphfit.kernels import KernelSpec, cross_matrix, gram
from sphfit.legendre import verify_design
from sphfit.points import PointSet, generate_spiral
from sphfit.solver import fit_full, fit_sketched, fit_sketched_multi, predict

BASE_SEED = 1234
DESK_DELTAS = (0.0, 1e-3, 0.1, 0.5)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


class DeskBench:
    """Cached t=57 / f2 / Wendland experiment pieces shared by criteria 4-7."""

    def __init__(self):
        self.training = load_design(57)
        self.target = TargetFunction.by_name("f2")
        pts = generate_spiral(10000)
        self.test = (pts, self.target(pts))
        self._data = {}
        self._rows = {}

    def dataset(self, delta):
        if delta not in self._data:
            self._data[delta] = make_dataset(
                self.training, self.target, NoiseModel(delta, BASE_SEED))
        return self._data[delta]

    def search(self, delta, centers, method="design", s_star=None):
        """The row at ``delta`` of the sketch ``centers``, labelled ``method``
        and ``s_star`` (by default the design's own degree).  The rows of
        every desk delta are computed together, so each lambda's system is
        decomposed once for all noise levels."""
        s_star = centers.design_degree if s_star is None else s_star
        key = (method, s_star, centers.xyz.tobytes())
        if (delta, key) not in self._rows:
            grids = {GridSpec.for_target("f2", noisy=d > 0) for d in DESK_DELTAS}
            assert len(grids) == 1      # the f2 grid does not depend on the noise
            rows = grid_search([self.dataset(d) for d in DESK_DELTAS],
                               self.test, centers, grids.pop(), method, s_star)
            self._rows.update({(d, key): row for d, row in zip(DESK_DELTAS, rows)})
        return self._rows[(delta, key)]


@pytest.fixture(scope="module")
def bench():
    return DeskBench()


def test_01_design_certification():
    t0 = time.perf_counter()
    expected = {5: 12, 13: 94, 21: 234, 25: 328}
    counts_ok, residuals_ok = [], []
    for t, n in expected.items():
        ps = load_design(t)
        counts_ok.append(len(ps) == n)
        report = verify_design(ps, t_max=t, tol=1e-8)
        residuals_ok.append(report.max_verified_degree == t
                            and all(r <= 1e-8 for _, r in report.residuals))
    elapsed = time.perf_counter() - t0
    ok = all(counts_ok) and all(residuals_ok) and elapsed < 5.0
    _report(1, "design certification", ok,
            f"counts {'ok' if all(counts_ok) else 'WRONG'}, "
            f"residuals<=1e-8 {'ok' if all(residuals_ok) else 'WRONG'}, "
            f"{elapsed:.2f}s < 5s")


def test_02_sketch_full_equivalence():
    t0 = time.perf_counter()
    training = load_design(13)
    target = TargetFunction.by_name("f2")
    y = target(training)
    kernel = KernelSpec.wendland()
    sketched = fit_sketched(kernel, training, y, training, 1e-4)
    full = fit_full(kernel, training, y, 1e-4)
    probe = generate_spiral(1000)
    ps_pred, full_pred = predict(sketched, probe), predict(full, probe)
    elapsed = time.perf_counter() - t0
    rel = float(np.abs(ps_pred - full_pred).max() / np.abs(full_pred).max())
    ok = rel <= 1e-6 and elapsed < 1.0
    _report(2, "sketch/full equivalence", ok,
            f"max relative gap {rel:.2e} <= 1e-6, {elapsed:.2f}s < 1s")


def test_03_exact_representation():
    training = load_design(13)
    target = TargetFunction.by_name("f2")
    model = fit_sketched(KernelSpec.wendland(), training, target(training),
                         target.centers, 1e-12)
    probe = generate_spiral(1000)
    err = rmse(model, probe, target(probe))
    coef_gap = float(np.abs(model.coefficients - 1.0).max())
    ok = err < 1e-8 and coef_gap <= 1e-6
    _report(3, "exact representation", ok,
            f"test rmse {err:.2e} < 1e-8, max|alpha-1| {coef_gap:.2e} <= 1e-6")


def test_04_noise_plateau(bench):
    baseline_noisy = bench.search(0.5, load_design(57)).rmse
    candidates = {s: bench.search(0.5, load_design(s)).rmse
                  for s in (9, 13, 17, 21, 25)}
    best_s, best = min(candidates.items(), key=lambda kv: kv[1])
    plateau_ok = best <= 1.2 * baseline_noisy

    baseline_clean = bench.search(0.0, load_design(57)).rmse
    small_clean = bench.search(0.0, load_design(9)).rmse
    gap_ok = small_clean > 2.0 * baseline_clean

    ok = plateau_ok and gap_ok
    _report(4, "noise plateau", ok,
            f"delta=0.5: s*={best_s} rmse {best:.4f} vs 1.2x baseline "
            f"{1.2 * baseline_noisy:.4f}; delta=0: s*=9 rmse {small_clean:.2e} "
            f"> 2x baseline {2 * baseline_clean:.2e}")


def test_05_method_ordering(bench):
    delta, s_star = 0.1, 9
    design_row = bench.search(delta, load_design(s_star))
    m = design_row.m
    assert m == 48
    first = bench.search(delta, bench.training.take(np.arange(m)), "first", s_star).rmse
    random_mean = float(np.mean(
        [bench.search(delta, _random_sketch(bench.training, m, BASE_SEED + 1 + i),
                      "random", s_star).rmse for i in range(10)]))
    design = design_row.rmse
    ok = design <= random_mean <= first and design < 0.9 * first
    _report(5, "method ordering", ok,
            f"design {design:.4f} <= random(10-seed mean) {random_mean:.4f} "
            f"<= first {first:.4f}, design/first {design / first:.3f} < 0.9")


def test_06_monotone_noise_response(bench):
    errs = [bench.search(d, load_design(25)).rmse for d in DESK_DELTAS]
    ok = all(b >= a * (1 - 0.05) for a, b in zip(errs, errs[1:]))
    _report(6, "monotone noise response", ok,
            "rmse by delta " + ", ".join(f"{d}:{e:.4f}"
                                         for d, e in zip(DESK_DELTAS, errs)))


def test_07_complexity_scaling(bench):
    data = bench.dataset(0.1)
    kernel = KernelSpec.wendland()
    n = len(bench.training)
    sizes, walls, mem_ok = [], [], []
    tracemalloc.start()
    try:
        for s_star in (9, 25, 45):
            centers = load_design(s_star)
            m = len(centers)
            tracemalloc.reset_peak()
            reps = []
            for _ in range(3):
                t0 = time.perf_counter()
                fit_sketched(kernel, bench.training, data.labels, centers, 1e-4)
                reps.append(time.perf_counter() - t0)
            _, peak = tracemalloc.get_traced_memory()
            # working set: a few N x m and m x m arrays plus a fixed
            # interpreter/BLAS allowance
            budget = 40 * 2**20 + 6 * 8 * (n * m + m * m)
            mem_ok.append(peak <= budget)
            sizes.append(m)
            walls.append(min(reps))
    finally:
        tracemalloc.stop()
    slope = float(np.polyfit(np.log(sizes), np.log(walls), 1)[0])
    single = walls[sizes.index(328)]
    ok = slope <= 3.3 and single < 1.0 and all(mem_ok)
    _report(7, "complexity scaling", ok,
            f"log-log slope {slope:.2f} <= 3.3, m=328 fit {single * 1e3:.0f}ms "
            f"< 1s, memory within budget {all(mem_ok)}")


def test_08_solver_property_suite():
    training = load_design(13)
    target = TargetFunction.by_name("f2")
    y = target(training)
    kernel = KernelSpec.wendland()
    centers = training.take(np.arange(0, len(training), 2))
    kmm = gram(kernel, centers)
    knm = cross_matrix(kernel, training, centers)
    n = len(training)
    rng = np.random.default_rng(20240817)
    checks = {}

    lams = [1e-6, 1e-4, 1e-2, 1.0]
    models = fit_sketched_multi(kernel, training, [y], centers, lams)[0]
    norms = [float(m.coefficients @ kmm @ m.coefficients) for m in models]
    checks["shrinkage"] = all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    lam = 1e-2
    model = fit_sketched(kernel, training, y, centers, lam)

    def objective(alpha):
        r = knm @ alpha - y
        return float(r @ r + lam * n * alpha @ kmm @ alpha)

    base = objective(model.coefficients)
    checks["optimality"] = all(
        objective(model.coefficients
                  + 1e-3 * (d := rng.standard_normal(len(centers)))
                  / np.linalg.norm(d)) >= base - 1e-10
        for _ in range(20))

    y2 = rng.standard_normal(n)
    m1 = fit_sketched(kernel, training, y, centers, 1e-3)
    m2 = fit_sketched(kernel, training, y2, centers, 1e-3)
    m12 = fit_sketched(kernel, training, y + 2.0 * y2, centers, 1e-3)
    combo = m1.coefficients + 2.0 * m2.coefficients
    checks["linearity"] = bool(
        np.abs(m12.coefficients - combo).max()
        <= 1e-8 * max(1.0, float(np.abs(combo).max())))

    psd = []
    for spec in (KernelSpec.gaussian(0.3), KernelSpec.wendland()):
        pts = rng.standard_normal((50, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        w = np.linalg.eigvalsh(gram(spec, PointSet(pts)))
        psd.append(w.min() >= -1e-10 * w.max())
    checks["gram psd"] = all(psd)

    eps = sample_truncated_gaussian(NoiseModel(50.0, seed=3), 10**5)
    checks["noise bound"] = bool(np.abs(eps).max() <= 10.0)

    ok = all(checks.values())
    _report(8, "solver property suite", ok,
            ", ".join(f"{k} {'ok' if v else 'FAIL'}" for k, v in checks.items()))


def test_09_determinism(tmp_path):
    ini = tmp_path / "repeat.ini"
    ini.write_text(
        "[experiment]\ntarget = f2\nt = 9\n"
        "[noise]\ndeltas = 0.1\nseed = 1234\n"
        "[sketch]\ns_stars = 5\nn_seeds = 3\n"
        "[test]\nn_points = 500\n"
        "[output]\ntiming = zero\n")
    outs = []
    for name in ("run1", "run2"):
        out_dir = tmp_path / name
        rc = cli_main(["simulate", "--sim", "2", "--config", str(ini),
                       "--out-dir", str(out_dir)])
        assert rc == 0
        outs.append(out_dir)
    main_same = ((outs[0] / "sim2.csv").read_bytes()
                 == (outs[1] / "sim2.csv").read_bytes())
    detail_same = ((outs[0] / "sim2_random_seeds.csv").read_bytes()
                   == (outs[1] / "sim2_random_seeds.csv").read_bytes())
    ok = main_same and detail_same
    _report(9, "determinism", ok,
            f"sim2.csv identical {main_same}, seed detail identical {detail_same}")
