import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphfit.data import NoiseModel, TargetFunction, make_dataset, rmse
from sphfit.designs import load_design
from sphfit.harness import GridSpec, SketchMethod, select_sketch
from sphfit.kernels import KernelSpec, cross_matrix, gram, zonal_value
from sphfit.points import PointSet, generate_spiral
import sphfit.points as points_mod
import sphfit.solver as solver_mod
from sphfit.solver import (CHOLESKY_MARGIN, WHITENED_COND_LIMIT, FittedModel,
                           fit_full, fit_sketched, fit_sketched_multi,
                           fit_sketched_sweep, load_model, predict, rmse_sweep,
                           save_model)

from conftest import random_unit_points

NORTH = PointSet(np.array([[0.0, 0.0, 1.0]]))
KERNELS = (KernelSpec.gaussian(0.5), KernelSpec.wendland())


def smooth_values(ps: PointSet) -> np.ndarray:
    w = np.array([0.3, -1.1, 0.7])
    return np.exp(ps.xyz @ w)


class TestScalarOracles:
    def test_single_point_sketched(self):
        # K = 1, so (1 + 0.5) alpha = 1 gives alpha = 2/3
        model = fit_sketched(KernelSpec.wendland(), NORTH, [1.0], NORTH, 0.5)
        assert model.coefficients[0] == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert model(NORTH)[0] == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_single_point_full(self):
        # (1 + 0.5) alpha = 2 gives alpha = 4/3
        model = fit_full(KernelSpec.gaussian(1.0), NORTH, [2.0], 0.5)
        assert model.coefficients[0] == pytest.approx(4.0 / 3.0, abs=1e-14)

    def test_two_orthogonal_points_gaussian(self):
        # hand-solved 2x2 system with K12 = exp(-1/sigma^2)
        pts = PointSet(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
        sigma, lam = 1.0, 0.25
        y = np.array([1.0, -1.0])
        k12 = np.exp(-1.0)
        k = np.array([[1.0, k12], [k12, 1.0]])
        expect = np.linalg.solve(k + lam * 2 * np.eye(2), y)
        model = fit_full(KernelSpec.gaussian(sigma), pts, y, lam)
        assert np.allclose(model.coefficients, expect, atol=1e-13)


class TestSketchFullEquivalence:
    @pytest.mark.parametrize("degree", [13, 17])
    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
    def test_centers_equal_data_matches_full(self, degree, kernel, request):
        ps = request.getfixturevalue(f"design{degree}")
        y = smooth_values(ps)
        lam = 1e-4
        sketched = fit_sketched(kernel, ps, y, ps, lam)
        full = fit_full(kernel, ps, y, lam)
        probe = PointSet(random_unit_points(np.random.default_rng(7), 400))
        ps_pred, full_pred = sketched(probe), full(probe)
        scale = np.abs(full_pred).max()
        assert np.abs(ps_pred - full_pred).max() <= 1e-6 * scale

    def test_near_interpolation_fits_nodes(self, design13):
        # lam -> 0 approaches kernel interpolation: node residuals vanish
        y = smooth_values(design13)
        model = fit_sketched(KernelSpec.wendland(), design13, y, design13, 1e-10)
        assert np.abs(model(design13) - y).max() < 1e-4

    def test_matches_ridge_normal_equations(self, design13, rng):
        # independent oracle: assemble and solve the sketched system by hand
        centers = design13.take(np.arange(0, len(design13), 4))
        y = smooth_values(design13)
        lam = 1e-3
        for kernel in KERNELS:
            knm = cross_matrix(kernel, design13, centers)
            kmm = gram(kernel, centers)
            a = knm.T @ knm + lam * len(design13) * kmm
            expect = np.linalg.solve(a, knm.T @ y)
            model = fit_sketched(kernel, design13, y, centers, lam)
            assert np.allclose(model.coefficients, expect, atol=1e-9)


class TestSolutionProperties:
    def test_zero_values_give_zero_model(self, design13):
        model = fit_sketched(KernelSpec.gaussian(0.4), design13,
                             np.zeros(len(design13)), design13, 1e-3)
        assert np.array_equal(model.coefficients, np.zeros(len(design13)))

    def test_heavy_regularization_shrinks(self, design13):
        y = smooth_values(design13)
        small = fit_sketched(KernelSpec.gaussian(0.5), design13, y, design13, 1.0)
        huge = fit_sketched(KernelSpec.gaussian(0.5), design13, y, design13, 1e12)
        assert np.linalg.norm(huge.coefficients) < 1e-6 * np.linalg.norm(small.coefficients)

    def test_native_norm_monotone_in_lambda(self, design13):
        y = smooth_values(design13)
        centers = design13.take(np.arange(0, len(design13), 2))
        kmm = gram(KernelSpec.wendland(), centers)
        lams = [1e-6, 1e-4, 1e-2, 1.0, 100.0]
        models = fit_sketched_multi(KernelSpec.wendland(), design13, y, centers, lams)
        norms = [float(m.coefficients @ kmm @ m.coefficients) for m in models]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_linearity_in_values(self, design13, rng):
        kernel = KernelSpec.gaussian(0.6)
        centers = design13.take(np.arange(0, len(design13), 3))
        y1 = smooth_values(design13)
        y2 = rng.standard_normal(len(design13))
        lam = 1e-3
        m1 = fit_sketched(kernel, design13, y1, centers, lam)
        m2 = fit_sketched(kernel, design13, y2, centers, lam)
        m12 = fit_sketched(kernel, design13, y1 + 2.0 * y2, centers, lam)
        combo = m1.coefficients + 2.0 * m2.coefficients
        assert np.abs(m12.coefficients - combo).max() <= 1e-8 * max(
            1.0, np.abs(combo).max())

    def test_objective_optimality(self, design13, rng):
        # no unit-scaled 1e-3 perturbation may beat the solution
        kernel = KernelSpec.wendland()
        centers = design13.take(np.arange(0, len(design13), 2))
        y = smooth_values(design13)
        lam = 1e-2
        model = fit_sketched(kernel, design13, y, centers, lam)
        knm = cross_matrix(kernel, design13, centers)
        kmm = gram(kernel, centers)
        n = len(design13)

        def objective(alpha):
            r = knm @ alpha - y
            return float(r @ r + lam * n * alpha @ kmm @ alpha)

        base = objective(model.coefficients)
        for _ in range(20):
            d = rng.standard_normal(len(centers))
            d *= 1e-3 / np.linalg.norm(d)
            assert objective(model.coefficients + d) >= base - 1e-10


def single_model_block_loop(model: FittedModel, points: PointSet) -> np.ndarray:
    """The GEMV oracle for predict_sweep: one model at a time, block by block."""
    xyz = points.xyz
    cx = model.centers.xyz
    rows_per_block = max(1, points_mod.BLOCK_BYTES // (8 * max(len(model.centers), 1)))
    out = np.empty(len(points))
    for lo in range(0, len(points), rows_per_block):
        hi = min(lo + rows_per_block, len(points))
        out[lo:hi] = zonal_value(model.kernel, xyz[lo:hi] @ cx.T) @ model.coefficients
    return out


def predict_sweep(models: list[FittedModel], points: PointSet) -> list[np.ndarray]:
    """The reference scorer for rmse_sweep: the models' predictions as rows
    of one (models x points) array, one GEMM per test kernel block.  The
    models must share one kernel and one center set."""
    kernel, centers = models[0].kernel, models[0].centers
    assert all(m.kernel == kernel and m.centers is centers for m in models)
    coef = np.array([m.coefficients for m in models])
    parts = [coef @ zonal_value(kernel, points.xyz[rows] @ centers.xyz.T).T
             for rows in points_mod._row_blocks(len(points), len(centers))]
    return list(np.concatenate(parts, axis=1))


def rms_error(prediction: np.ndarray, labels: np.ndarray) -> float:
    """Root mean squared error of one prediction, summed over all points at once."""
    return float(np.sqrt(np.mean((prediction - labels) ** 2)))


def oracle_rmses(models: list[FittedModel], points: PointSet, labels) -> np.ndarray:
    """Each model's RMSE from predict_sweep over its own kernel's models."""
    out = np.empty(len(models))
    for kernel in dict.fromkeys(m.kernel for m in models):
        idx = [i for i, m in enumerate(models) if m.kernel == kernel]
        for i, row in zip(idx, predict_sweep([models[i] for i in idx], points)):
            out[i] = rms_error(row, labels)
    return out


def assert_within_gemm_bound(got, expect, model, points):
    """Two evaluations of ``K @ alpha`` that sum in different orders: each is
    within ``gamma_m |K| @ |alpha|`` of the exact product, gamma_m =
    m eps / (1 - m eps) for m centers, so they differ entrywise by at most
    2 gamma_m <= 4 m eps times ``|K| @ |alpha|``."""
    assert np.all(np.abs(got - expect) <= gemm_bound(model, points))


def gemm_bound(model, points) -> np.ndarray:
    k = zonal_value(model.kernel, points.xyz @ model.centers.xyz.T)
    return 4 * len(model.centers) * np.finfo(float).eps * (np.abs(k) @ np.abs(model.coefficients))


def assert_rmses_within_bound(got, expect, models, points):
    """Two RMSEs of one model on n points.  Their predictions differ
    entrywise by at most the GEMM bound b (assert_within_gemm_bound), so
    the residual vectors differ in 2-norm by at most |b|_2, and the exact
    RMSEs of the two computed predictions by |b|_2 / sqrt(n).  Each side then
    rounds the residuals, their squares, a sum of n squares in its own
    order, the division and the square root: to first order at most
    (n + 4) eps relative."""
    n, eps = len(points), np.finfo(float).eps
    assert len(got) == len(expect) == len(models)
    for model, a, b in zip(models, got, expect):
        tol = (np.linalg.norm(gemm_bound(model, points)) / np.sqrt(n)
               + 2 * (n + 4) * eps * max(a, b))
        assert abs(a - b) <= tol


def mixed_kernel_models(design: PointSet, lams=(1e-2, 1e-4, 1e-6)) -> list[FittedModel]:
    """Three Gaussian widths and the Wendland kernel, each fitted at every
    lam on one center set (every other point of ``design``)."""
    centers = design.take(np.arange(0, len(design), 2))
    y = smooth_values(design)
    kernels = (KernelSpec.gaussian(0.3), KernelSpec.gaussian(0.6),
               KernelSpec.gaussian(1.0), KernelSpec.wendland())
    return [model for kernel in kernels
            for model in fit_sketched_multi(kernel, design, y, centers, lams)]


def traced_peak(fn) -> int:
    """Peak bytes that ``fn()`` allocates, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestPredict:
    def test_double_loop_oracle(self, rng):
        pts = PointSet(random_unit_points(rng, 25))
        centers = PointSet(random_unit_points(rng, 9))
        y = smooth_values(pts)
        model = fit_sketched(KernelSpec.gaussian(0.8), pts, y, centers, 1e-2)
        probe = random_unit_points(rng, 17)
        expect = np.zeros(17)
        for i in range(17):
            for j in range(9):
                d = float(np.clip(np.dot(probe[i], centers.xyz[j]), -1, 1))
                expect[i] += model.coefficients[j] * zonal_value(model.kernel, d)
        got = predict(model, PointSet(probe))
        assert np.abs(got - expect).max() <= 1e-12

    def test_blocking_invisible(self, design17, monkeypatch):
        y = smooth_values(design17)
        model = fit_sketched(KernelSpec.wendland(), design17, y, design17, 1e-3)
        probe = PointSet(random_unit_points(np.random.default_rng(3), 500))
        whole = predict(model, probe)
        # same block size is deterministic bit for bit
        assert np.array_equal(predict(model, probe), whole)
        # a different block size only reorders BLAS reductions
        monkeypatch.setattr(points_mod, "BLOCK_BYTES", 4096)
        small = predict(model, probe)
        assert np.abs(small - whole).max() <= 1e-12 * max(1.0, np.abs(whole).max())

    @pytest.mark.parametrize("kernel", KERNELS, ids=["gaussian", "wendland"])
    @pytest.mark.parametrize("block_rows", [None, 150], ids=["one-block", "ragged-blocks"])
    def test_sweep_matches_single_model_loop_oracle(self, design17, kernel, block_rows,
                                                    monkeypatch):
        n_probe = 500
        if block_rows is not None:
            # 3 full blocks of 150 rows and a ragged last one of 50
            assert n_probe // block_rows >= 3 and n_probe % block_rows
            monkeypatch.setattr(points_mod, "BLOCK_BYTES",
                                8 * len(design17) * block_rows)
        models = fit_sketched_multi(kernel, design17, smooth_values(design17),
                                    design17, [1e-2, 1e-4, 1e-6])
        probe = PointSet(random_unit_points(np.random.default_rng(5), n_probe))
        labels = smooth_values(probe)
        rows = predict_sweep(models, probe)
        assert len(rows) == len(models)
        for model, row in zip(models, rows):
            assert_within_gemm_bound(row, single_model_block_loop(model, probe), model, probe)
            # predict is the one-model GEMM of the reference, bit for bit
            assert np.array_equal(predict(model, probe), predict_sweep([model], probe)[0])
        assert_rmses_within_bound(rmse_sweep(models, probe, labels),
                                  oracle_rmses(models, probe, labels), models, probe)

    def test_sweep_oracle_bound_holds_for_large_coefficients(self, design13):
        # f1's Gaussian at sigma = 1 on the first 20 training points is badly
        # conditioned: at lam = 1e-6 the coefficients reach about 1e3, and the
        # GEMM and the GEMV differ by about 5e-13 absolute.
        data = make_dataset(design13, TargetFunction.by_name("f1"), NoiseModel(0.01, seed=7))
        centers = select_sketch(SketchMethod.first(20), design13)
        models = fit_sketched_multi(KernelSpec.gaussian(1.0), design13, data.labels,
                                    centers, [1e-2, 1e-4, 1e-6, 1e-8])
        large = models[2]
        assert large.lam == 1e-6 and np.abs(large.coefficients).max() > 1e3
        probe = PointSet(random_unit_points(np.random.default_rng(8), 300))
        for model, row in zip(models, predict_sweep(models, probe)):
            assert_within_gemm_bound(row, single_model_block_loop(model, probe), model, probe)
        labels = TargetFunction.by_name("f1")(probe)
        assert_rmses_within_bound(rmse_sweep(models, probe, labels),
                                  oracle_rmses(models, probe, labels), models, probe)

    @pytest.mark.parametrize("block_rows", [None, 150, 1],
                             ids=["one-block", "ragged-blocks", "one-row-blocks"])
    def test_rmse_sweep_matches_per_kernel_oracle(self, design17, block_rows, monkeypatch):
        models = mixed_kernel_models(design17)
        m = len(models[0].centers)
        n_probe = 500
        if block_rows is not None:
            # the centers are the widest per-block array: m columns > 3 models
            monkeypatch.setattr(points_mod, "BLOCK_BYTES", 8 * m * block_rows)
        probe = PointSet(random_unit_points(np.random.default_rng(5), n_probe))
        labels = smooth_values(probe)
        got = rmse_sweep(models, probe, labels)
        assert got.shape == (len(models),)
        assert_rmses_within_bound(got, oracle_rmses(models, probe, labels), models, probe)
        # rmse(model) is the one-model sweep
        assert rmse(models[4], probe, labels) == rmse_sweep([models[4]], probe, labels)[0]

    def test_rmse_sweep_more_models_than_rows_per_block(self, design13, monkeypatch):
        # 40 models of one kernel on 10 centers: the stacked predictions are
        # the widest per-block array, so a block of 3 rows holds 40 x 3 values
        centers = design13.take(np.arange(10))
        lams = np.logspace(-1, -9, 40)
        models = fit_sketched_multi(KernelSpec.gaussian(0.5), design13,
                                    smooth_values(design13), centers, lams)
        monkeypatch.setattr(points_mod, "BLOCK_BYTES", 8 * 40 * 3)
        assert list(points_mod._row_blocks(7, 40)) == [slice(0, 3), slice(3, 6), slice(6, 9)]
        probe = PointSet(random_unit_points(np.random.default_rng(4), 200))
        labels = smooth_values(probe)
        assert_rmses_within_bound(rmse_sweep(models, probe, labels),
                                  oracle_rmses(models, probe, labels), models, probe)

    def test_reordering_or_subsetting_models_stays_within_bound(self, design17):
        models = mixed_kernel_models(design17, lams=(1e-1, 1e-3, 1e-5, 1e-7))
        probe = PointSet(random_unit_points(np.random.default_rng(6), 400))
        labels = smooth_values(probe)
        full = rmse_sweep(models, probe, labels)
        assert_rmses_within_bound(full, oracle_rmses(models, probe, labels), models, probe)
        n = len(models)
        for order in (list(range(n))[::-1], [3, 12, 0, 9, 5], [14], [7, 7]):
            picked = [models[i] for i in order]
            assert_rmses_within_bound(rmse_sweep(picked, probe, labels), full[order],
                                      picked, probe)

    def test_rmse_sweep_peak_memory_is_one_block_plus_coefficients(self):
        # sim1's s* = 25 scoring step: 2 noise levels x 57 lambdas of the
        # Wendland kernel on the t = 25 design's 328 centers
        centers = load_design(25)
        kernel = KernelSpec.wendland()
        coefs = np.random.default_rng(9).standard_normal((114, len(centers)))
        models = [FittedModel(kernel, centers, c, 1e-3, 1000, None) for c in coefs]
        rows = points_mod.BLOCK_BYTES // (8 * len(centers))
        peaks = []
        for n_test in (10000, 40000):
            probe = generate_spiral(n_test)
            labels = np.zeros(n_test)
            first = probe.xyz[:rows]
            # one block's dot product, kernel temporaries and stacked predictions
            block_peak = traced_peak(lambda: coefs @ zonal_value(kernel, first @ centers.xyz.T).T)
            peaks.append(traced_peak(lambda: rmse_sweep(models, probe, labels)))
            assert peaks[-1] <= block_peak + coefs.nbytes + 2**20
        # no array grows with the number of test points
        assert abs(peaks[1] - peaks[0]) <= 2**20

    def test_sweep_rejects_empty_model_list(self):
        with pytest.raises(ValueError, match="at least one model"):
            rmse_sweep([], NORTH, [0.0])

    def test_sweep_accepts_mixed_kernels_on_one_center_set(self, design13):
        y = smooth_values(design13)
        a = fit_sketched(KernelSpec.gaussian(0.5), design13, y, design13, 1e-3)
        b = fit_sketched(KernelSpec.gaussian(0.6), design13, y, design13, 1e-3)
        c = fit_sketched(KernelSpec.wendland(), design13, y, design13, 1e-3)
        probe = PointSet(random_unit_points(np.random.default_rng(2), 300))
        labels = smooth_values(probe)
        models = [a, b, c, a]
        assert_rmses_within_bound(rmse_sweep(models, probe, labels),
                                  oracle_rmses(models, probe, labels), models, probe)

    def test_sweep_rejects_distinct_center_objects(self, design13):
        y = smooth_values(design13)
        idx = np.arange(20)
        a = fit_sketched(KernelSpec.wendland(), design13, y, design13.take(idx), 1e-3)
        b = fit_sketched(KernelSpec.wendland(), design13, y, design13.take(idx), 1e-3)
        # equal points are not enough: the center set must be the same object
        assert np.array_equal(a.centers.xyz, b.centers.xyz)
        with pytest.raises(ValueError, match="one center set"):
            rmse_sweep([a, b], design13, smooth_values(design13))


def per_lambda_eigh_fit(kernel, data, y, centers, lams):
    """Slow reference: assemble and pseudo-invert one normal system per lam
    with the operations the solver has always used; (coefficients, rank,
    eigenvalues of the system matrix) per lam."""
    knm = cross_matrix(kernel, data, centers)
    kmm = gram(kernel, centers)
    gtg, rhs = knm.T @ knm, knm.T @ y
    out = []
    for lam in lams:
        w, v = np.linalg.eigh(gtg + (lam * len(data)) * kmm)
        keep = w > len(centers) * np.finfo(float).eps * max(float(w[-1]), 0.0)
        coef = (v[:, keep] @ ((v[:, keep].T @ rhs) / w[keep]) if keep.any()
                else np.zeros(len(centers)))
        out.append((coef, int(keep.sum()), w))
    return out


def assert_matches_oracle(model, coef, rank, w):
    """Check one sweep model against per_lambda_eigh_fit's (coef, rank, w).

    A lam that neither the whitening nor the Cholesky guard admits is solved
    as the oracle solves it, bit for bit.  A whitened lam has cond_2(A) <=
    WHITENED_COND_LIMIT for its system matrix A, so the oracle keeps all m
    eigenvalues and both paths solve the same nonsingular system: their
    solutions differ by rounding only, within the first-order bound
    m * eps * WHITENED_COND_LIMIT relative (about 1e-6 at m = 48; the error
    seen is below 1e-9).  A Cholesky lam has w_min > 100 * m * eps * w_max,
    so the oracle again keeps every eigenvalue, and the backward-stable
    Cholesky solve is within m * eps * cond_2(A) relative of it; for m < 8
    the bound is 8 * eps * cond_2(A), since each side rounds by a few eps
    however small m is (3.5 eps * cond_2(A) was seen at m = 2).
    """
    m, eps = len(coef), np.finfo(float).eps
    method = model.diagnostics.method
    if method == "eig-pinv":
        assert np.array_equal(model.coefficients, coef)
        assert model.diagnostics.rank_used == rank
        return
    assert model.diagnostics.rank_used == rank == m
    assert model.diagnostics.eigen_threshold == 0.0
    if method == "whitened-eig":
        tol = m * eps * WHITENED_COND_LIMIT
    else:
        assert method == "cholesky"
        assert w[0] > CHOLESKY_MARGIN * m * eps * w[-1]
        tol = max(m, 8) * eps * (w[-1] / w[0])
    assert np.linalg.norm(model.coefficients - coef) <= tol * np.linalg.norm(coef)


class TestMultiFit:
    def test_multi_bitwise_matches_single(self, design13):
        # A single-lam fit never whitens; the sweep solves a lam that its
        # whitening guard rejects exactly as the single fit does, bit for bit
        # (Cholesky or pseudo-inverse), and every model matches the oracle.
        # At sigma = 0.3 all three lams are whitened, and the single fits take
        # Cholesky; at sigma = 1.0 none is whitened, and both sides take
        # Cholesky at 1e-2 and the pseudo-inverse at 1e-5 and 1e-8.
        y = smooth_values(design13)
        centers = design13.take(np.arange(48))
        lams = [1e-2, 1e-5, 1e-8]
        for sigma, arms in ((0.3, ["whitened-eig"] * 3 + ["cholesky"] * 3),
                            (1.0, ["cholesky", "eig-pinv", "eig-pinv"] * 2)):
            kernel = KernelSpec.gaussian(sigma)
            multi = fit_sketched_multi(kernel, design13, y, centers, lams)
            single = [fit_sketched(kernel, design13, y, centers, lam) for lam in lams]
            assert [m.diagnostics.method for m in multi + single] == arms
            oracle = per_lambda_eigh_fit(kernel, design13, y, centers, lams)
            for model, alone, expect in zip(multi, single, oracle):
                assert_matches_oracle(alone, *expect)
                assert_matches_oracle(model, *expect)
                if model.diagnostics.method != "whitened-eig":
                    assert np.array_equal(model.coefficients, alone.coefficients)
                    assert model.diagnostics == replace(
                        alone.diagnostics, wall_time=model.diagnostics.wall_time)
                assert model.lam == alone.lam

    def test_order_preserved(self, design13):
        y = smooth_values(design13)
        models = fit_sketched_multi(KernelSpec.wendland(), design13, y,
                                    design13, [1.0, 1e-4])
        assert [m.lam for m in models] == [1.0, 1e-4]

    @pytest.mark.parametrize("case", ["zero-lambda", "duplicate-centers", "zero-labels"])
    def test_sweep_bitwise_matches_separate_fits(self, design13, case):
        kernel = KernelSpec.gaussian(0.3)
        centers = design13.take(np.arange(48))
        lams = [1e-2, 1e-5, 1e-8]
        noise = np.random.default_rng(17).standard_normal(len(design13))
        label_sets = [smooth_values(design13), smooth_values(design13) + noise,
                      np.sin(3.0 * design13.xyz[:, 2])]
        if case == "zero-lambda":
            lams = [1e-3, 0.0]
        elif case == "duplicate-centers":
            # repeated centers make Kmm and the system matrix rank-deficient
            centers = design13.take(np.r_[np.arange(20), np.arange(10)])
        else:
            label_sets[1] = np.zeros(len(design13))
        sweeps = fit_sketched_sweep(kernel, design13, label_sets, centers, lams)
        assert len(sweeps) == len(label_sets)
        for y, sweep in zip(label_sets, sweeps):
            oracle = per_lambda_eigh_fit(kernel, design13, y, centers, lams)
            multi = fit_sketched_multi(kernel, design13, y, centers, lams)
            assert [m.lam for m in sweep] == lams
            for model, ref, expect in zip(sweep, multi, oracle):
                assert model.centers is centers
                assert np.array_equal(model.coefficients, ref.coefficients)
                assert model.diagnostics == replace(ref.diagnostics,
                                                    wall_time=model.diagnostics.wall_time)
                assert_matches_oracle(model, *expect)
        if case == "duplicate-centers":
            # Kmm is singular: no whitening, every lam is the oracle's bit for bit
            assert all(m.diagnostics.method == "eig-pinv" for m in sweeps[0])
            assert all(m.diagnostics.rank_used < len(centers) for m in sweeps[0])
        if case == "zero-labels":
            assert all(not m.coefficients.any() for m in sweeps[1])

    def test_sweep_charges_whole_assembly_to_every_model(self, design13, monkeypatch):
        # wall_time is the cost of one single-lam fit: the shared assembly is
        # not split between the label sets or the lams
        real = solver_mod.cross_matrix

        def slow_cross_matrix(*args):
            time.sleep(0.05)
            return real(*args)

        monkeypatch.setattr(solver_mod, "cross_matrix", slow_cross_matrix)
        y = smooth_values(design13)
        sweeps = fit_sketched_sweep(KernelSpec.wendland(), design13, [y, 2.0 * y, -y],
                                    design13, [1e-2, 1e-4])
        assert all(m.diagnostics.wall_time >= 0.05 for sweep in sweeps for m in sweep)

    def test_whitened_models_charged_shared_decomposition(self, design13, monkeypatch):
        # the one whitened eigendecomposition is counted in full in every
        # model solved from it
        real = np.linalg.eigh

        def slow_eigh(*args, **kwargs):
            time.sleep(0.05)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", slow_eigh)
        y = smooth_values(design13)
        sweeps = fit_sketched_sweep(KernelSpec.wendland(), design13, [y, -y],
                                    design13.take(np.arange(40)), [1e-2, 1e-4])
        models = [m for sweep in sweeps for m in sweep]
        assert all(m.diagnostics.method == "whitened-eig" for m in models)
        assert all(m.diagnostics.wall_time >= 0.05 for m in models)

    def test_sweep_validates_label_sets(self, design13):
        y = smooth_values(design13)
        with pytest.raises(ValueError, match="at least one label set"):
            fit_sketched_sweep(KernelSpec.wendland(), design13, [], design13, [1e-3])
        with pytest.raises(ValueError, match="shape"):
            fit_sketched_sweep(KernelSpec.wendland(), design13, [y, y[:-1]],
                               design13, [1e-3])


class TestWhitenedGuard:
    def test_clustered_first_sketch_truncated_lams_rejected(self):
        # sim 2's polar-cluster sketch: at sigma = 1 every lam of the f1 grid
        # is one the pseudo-inverse truncates, and whitening or Cholesky would
        # change the estimator there; the other sigmas mix all three arms.
        training = load_design(33)
        data = make_dataset(training, TargetFunction.by_name("f1"),
                            NoiseModel(0.1, seed=1234))
        centers = select_sketch(SketchMethod.first(48), training)
        grid = GridSpec.for_target("f1", noisy=True)
        methods, truncated = [], 0
        for sigma in grid.sigmas:
            kernel = KernelSpec.gaussian(sigma)
            sweep = fit_sketched_sweep(kernel, training, [data.labels], centers,
                                       grid.lambdas)[0]
            oracle = per_lambda_eigh_fit(kernel, training, data.labels, centers,
                                         grid.lambdas)
            for model, (coef, rank, w) in zip(sweep, oracle):
                if rank < len(centers):
                    truncated += 1
                    assert model.diagnostics.method == "eig-pinv"
                assert_matches_oracle(model, coef, rank, w)
                methods.append(model.diagnostics.method)
            if sigma == 1.0:
                assert all(rank < len(centers) for _, rank, _ in oracle)
        assert truncated >= len(grid.lambdas)
        assert set(methods) == {"eig-pinv", "whitened-eig", "cholesky"}

    def test_zero_lambda_rejected_when_centers_outnumber_sites(self, design13):
        # m = 156 > N = 94: Knm^T Knm is singular, so lam = 0 fails the guard
        # while lam = 1e-2 of the same sweep passes it
        centers = load_design(17)
        y = smooth_values(design13)
        lams = [1e-2, 0.0]
        sweep = fit_sketched_multi(KernelSpec.wendland(), design13, y, centers, lams)
        oracle = per_lambda_eigh_fit(KernelSpec.wendland(), design13, y, centers, lams)
        assert [m.diagnostics.method for m in sweep] == ["whitened-eig", "eig-pinv"]
        assert sweep[1].lam == 0.0
        assert oracle[1][1] < len(centers)
        for model, expect in zip(sweep, oracle):
            assert_matches_oracle(model, *expect)

    def test_single_lambda_sweep_takes_cholesky_not_whitening(self, design13):
        # a lam that a two-lam sweep whitens is solved alone by its own
        # Cholesky factor: alpha = L^-T (L^-1 b), with L^-1 from the solver's
        # triangular inverse, bit for bit
        y = smooth_values(design13)
        centers = design13.take(np.arange(40))
        kernel = KernelSpec.wendland()
        pair = fit_sketched_multi(kernel, design13, y, centers, [1e-3, 1e-4])
        assert pair[0].diagnostics.method == "whitened-eig"
        knm, kmm = cross_matrix(kernel, design13, centers), gram(kernel, centers)
        l_inv = solver_mod._lower_inverse(np.linalg.cholesky(
            knm.T @ knm + (1e-3 * len(design13)) * kmm))
        direct = l_inv.T @ (l_inv @ (knm.T @ y))
        expect, = per_lambda_eigh_fit(kernel, design13, y, centers, [1e-3])
        for model in (fit_sketched(kernel, design13, y, centers, 1e-3),
                      fit_sketched_sweep(kernel, design13, [y], centers, [1e-3])[0][0]):
            assert model.diagnostics.method == "cholesky"
            assert np.array_equal(model.coefficients, direct)
            assert_matches_oracle(model, *expect)

    # The explicit examples reach every arm on every run, each checked against
    # the arms it names: all three in one Gaussian sweep, Cholesky alone for a
    # one-lam Wendland sweep, and lam = 0 with m = 156 > N = 94.  The drawn
    # examples add random center subsets, kernels and one- to four-lam sweeps.
    @settings(max_examples=40, deadline=None)
    @given(subset_seed=st.integers(0, 2**32 - 1), m=st.integers(2, 156),
           sigma=st.one_of(st.none(), st.floats(0.1, 1.5)),
           exponents=st.lists(st.one_of(st.none(), st.floats(-10.0, 0.0)),
                              min_size=1, max_size=4),
           arms=st.none())
    @example(subset_seed=None, m=54, sigma=0.6, exponents=[0.0, -3.0, -9.0],
             arms=["whitened-eig", "cholesky", "eig-pinv"])
    @example(subset_seed=None, m=40, sigma=None, exponents=[-3.0], arms=["cholesky"])
    @example(subset_seed=None, m=156, sigma=None, exponents=[-2.0, None],
             arms=["whitened-eig", "eig-pinv"])
    def test_every_arm_matches_oracle(self, design13, design17, subset_seed, m,
                                      sigma, exponents, arms):
        # centers: a random subset of the degree-17 design, up to m = 156 > N = 94,
        # or its first m points when subset_seed is None
        idx = (np.arange(m) if subset_seed is None else np.sort(
            np.random.default_rng(subset_seed).choice(len(design17), size=m,
                                                      replace=False)))
        centers = design17.take(idx)
        kernel = KernelSpec.wendland() if sigma is None else KernelSpec.gaussian(sigma)
        lams = [0.0 if e is None else 10.0 ** e for e in exponents]
        y = smooth_values(design13)
        sweep = fit_sketched_multi(kernel, design13, y, centers, lams)
        oracle = per_lambda_eigh_fit(kernel, design13, y, centers, lams)
        knm, kmm = cross_matrix(kernel, design13, centers), gram(kernel, centers)
        if arms is not None:
            assert [model.diagnostics.method for model in sweep] == arms
        for model, (coef, rank, w) in zip(sweep, oracle):
            assert_matches_oracle(model, coef, rank, w)
            if model.diagnostics.method == "whitened-eig":
                # the guard bounds the true condition number of the system
                assert w[0] > 0 and w[-1] <= 1.01 * WHITENED_COND_LIMIT * w[0]
            if model.diagnostics.method != "eig-pinv":
                resid = knm.T @ (knm @ model.coefficients - y) + (
                    model.lam * len(design13)) * (kmm @ model.coefficients)
                assert model.diagnostics.residual_norm == pytest.approx(
                    float(np.linalg.norm(resid)), abs=1e-9 * np.linalg.norm(knm.T @ y))


def cholesky_limit(m: int) -> float:
    return 1.0 / (CHOLESKY_MARGIN * m * np.finfo(float).eps)


class TestCholeskyArm:
    @pytest.mark.parametrize("m", [1, 2, 255, 256, 257, 513, 1031])
    @pytest.mark.parametrize("matrix", ["random", "gaussian-gram"])
    def test_lower_inverse_right_residual(self, m, matrix):
        # leaf sizes, one block past the leaf, and two odd recursions; the
        # Gaussian Gram of spiral points has cond_2(L) up to about 7e3
        if matrix == "random":
            g = np.random.default_rng(m).standard_normal((m, m))
            a = g @ g.T / m + np.eye(m)
        else:
            sites = generate_spiral(max(m, 2)).take(np.arange(m))
            a = gram(KernelSpec.gaussian(0.3), sites) + 1e-6 * np.eye(m)
        l = np.linalg.cholesky(a)
        x = solver_mod._lower_inverse(l)
        assert np.all(np.triu(x, 1) == 0.0)
        resid = np.abs(x @ l - np.eye(m))
        assert np.all(resid <= m * np.finfo(float).eps * (np.abs(x) @ np.abs(l)))

    def test_admission_boundary(self, design13):
        # Gaussian sigma = 1 on the first 48 centers: kappa of the system
        # crosses 1 / (100 m eps) between lam = 1e-5 and 1e-2.  Bisect to two
        # lams under 1% apart, one on each side: the one inside takes
        # Cholesky, the one outside the oracle's pseudo-inverse bit for bit.
        kernel, centers = KernelSpec.gaussian(1.0), design13.take(np.arange(48))
        y = smooth_values(design13)
        knm, kmm = cross_matrix(kernel, design13, centers), gram(kernel, centers)
        gtg, n, limit = knm.T @ knm, len(design13), cholesky_limit(len(centers))

        def kappa(lam):
            return solver_mod._cholesky_inverse(gtg + (lam * n) * kmm)[1]

        lo, hi = 1e-5, 1e-2
        assert kappa(lo) > limit >= kappa(hi)
        while hi / lo > 1.01:
            mid = float(np.sqrt(lo * hi))
            lo, hi = (mid, hi) if kappa(mid) > limit else (lo, mid)
        outside, inside = (fit_sketched(kernel, design13, y, centers, lam) for lam in (lo, hi))
        assert outside.diagnostics.method == "eig-pinv"
        assert inside.diagnostics.method == "cholesky"
        for model, expect in zip((outside, inside),
                                 per_lambda_eigh_fit(kernel, design13, y, centers, [lo, hi])):
            assert_matches_oracle(model, *expect)

    @pytest.mark.parametrize("case", ["duplicate-centers", "zero-lambda-m-above-n"])
    def test_rank_deficient_system_takes_pseudo_inverse(self, design13, design17, case):
        # the system is singular: its Cholesky factorization fails or kappa
        # exceeds the limit, and every one-lam fit is the oracle's, bit for bit
        kernel, y = KernelSpec.gaussian(0.3), smooth_values(design13)
        if case == "duplicate-centers":
            centers, lams = design13.take(np.r_[np.arange(20), np.arange(10)]), [1e-2, 1e-5, 1e-8]
        else:
            centers, lams = design17, [0.0]
        knm, kmm = cross_matrix(kernel, design13, centers), gram(kernel, centers)
        oracle = per_lambda_eigh_fit(kernel, design13, y, centers, lams)
        for lam, expect in zip(lams, oracle):
            _, kappa = solver_mod._cholesky_inverse(knm.T @ knm + (lam * len(design13)) * kmm)
            assert kappa > cholesky_limit(len(centers))
            model = fit_sketched(kernel, design13, y, centers, lam)
            assert model.diagnostics.method == "eig-pinv"
            assert model.diagnostics.rank_used == expect[1] < len(centers)
            assert_matches_oracle(model, *expect)

    def test_indefinite_matrix_is_not_factored(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert solver_mod._cholesky_inverse(a) == (None, np.inf)


class TestValidationAndDiagnostics:
    def test_fit_full_rejects_zero_lambda(self, design13):
        with pytest.raises(ValueError, match="lam"):
            fit_full(KernelSpec.wendland(), design13, smooth_values(design13), 0.0)

    def test_sketched_allows_zero_lambda_flagged(self, design13):
        y = smooth_values(design13)
        model = fit_sketched(KernelSpec.wendland(), design13, y, design13, 0.0)
        assert model.lam == 0.0
        assert np.all(np.isfinite(model.coefficients))

    def test_rejects_wrong_length_values(self, design13):
        with pytest.raises(ValueError, match="shape"):
            fit_sketched(KernelSpec.wendland(), design13, [1.0, 2.0], design13, 0.1)

    def test_rejects_nonfinite_values(self, design13):
        y = smooth_values(design13)
        y[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fit_sketched(KernelSpec.wendland(), design13, y, design13, 0.1)

    def test_rejects_negative_lambda(self, design13):
        with pytest.raises(ValueError):
            fit_sketched(KernelSpec.wendland(), design13,
                         smooth_values(design13), design13, -1e-3)

    def test_diagnostics_populated(self, design13):
        y = smooth_values(design13)
        model = fit_sketched(KernelSpec.gaussian(0.5), design13, y, design13, 1e-3)
        d = model.diagnostics
        assert d.method == "cholesky"
        assert d.rank_used == len(design13)
        assert d.eigen_threshold == 0.0
        assert d.residual_norm <= 1e-8 * max(1.0, np.abs(y).max())
        assert d.wall_time >= 0.0

    def test_full_uses_cholesky_when_possible(self, design13):
        model = fit_full(KernelSpec.gaussian(0.5), design13,
                         smooth_values(design13), 1e-2)
        assert model.diagnostics.method == "cholesky"
        assert model.training_size == len(design13)

    @pytest.mark.parametrize("kernel", [KernelSpec.wendland(), KernelSpec.gaussian(0.5)],
                             ids=["wendland", "gaussian"])
    def test_full_shifts_diagonal_in_place_bitwise(self, design13, kernel, monkeypatch):
        # no kernel entry is -0.0, so the in-place diagonal shift equals the
        # former K + lam*N*I bit for bit
        factored = []
        cho_factor = scipy.linalg.cho_factor
        monkeypatch.setattr(scipy.linalg, "cho_factor",
                            lambda a, **kw: factored.append(a.copy()) or cho_factor(a, **kw))
        lam, n, y = 1e-3, len(design13), smooth_values(design13)
        model = fit_full(kernel, design13, y, lam)
        old = gram(kernel, design13) + (lam * n) * np.eye(n)
        assert np.array_equal(factored[0], old)
        ref = scipy.linalg.cho_solve(cho_factor(old, lower=True), y)
        assert np.array_equal(model.coefficients, ref)

    def test_full_falls_back_to_pseudo_inverse(self, design13, monkeypatch):
        def indefinite(*args, **kwargs):
            raise scipy.linalg.LinAlgError("not positive definite")
        monkeypatch.setattr(scipy.linalg, "cho_factor", indefinite)
        kernel, lam, n = KernelSpec.gaussian(0.5), 1e-2, len(design13)
        y = smooth_values(design13)
        model = fit_full(kernel, design13, y, lam)
        d = model.diagnostics
        assert d.method == "eig-pinv"
        assert d.rank_used == n
        ref = np.linalg.solve(gram(kernel, design13) + (lam * n) * np.eye(n), y)
        assert np.linalg.norm(model.coefficients - ref) <= 1e-12 * np.linalg.norm(ref)
        assert d.residual_norm <= 1e-12 * np.linalg.norm(y)


class TestModelIO:
    def test_round_trip_exact(self, design13, tmp_path):
        y = smooth_values(design13)
        model = fit_sketched(KernelSpec.gaussian(0.31622776601683794),
                             design13, y, design13.take(np.arange(48)), 1e-4)
        path = tmp_path / "model.txt"
        save_model(path, model)
        back = load_model(path)
        assert back.kernel == model.kernel
        assert back.lam == model.lam
        assert back.training_size == model.training_size
        assert np.array_equal(back.coefficients, model.coefficients)
        assert np.array_equal(back.centers.xyz, model.centers.xyz)
        assert back.diagnostics is None
        probe = PointSet(random_unit_points(np.random.default_rng(11), 64))
        assert np.array_equal(back(probe), model(probe))

    def test_design_degree_survives(self, design13, tmp_path):
        y = smooth_values(design13)
        model = fit_sketched(KernelSpec.wendland(), design13, y, design13, 1e-3)
        path = tmp_path / "model.txt"
        save_model(path, model)
        assert load_model(path).centers.design_degree == 13

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a model\n")
        with pytest.raises(ValueError, match="model file"):
            load_model(path)

    def test_rejects_truncated_body(self, design13, tmp_path):
        y = smooth_values(design13)
        model = fit_sketched(KernelSpec.wendland(), design13, y, design13, 1e-3)
        path = tmp_path / "model.txt"
        save_model(path, model)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(ValueError, match="rows"):
            load_model(path)
