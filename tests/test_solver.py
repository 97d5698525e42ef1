import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphfit.data import NoiseModel, TargetFunction, make_dataset, rmse
from sphfit.designs import available_degrees, load_design
from sphfit.harness import GridSpec
from sphfit.kernels import KernelSpec, MatrixSizeError, cross_matrix, gram, zonal_value
from sphfit.points import PointSet, generate_spiral
import sphfit
import sphfit.kernels as kernels_mod
import sphfit.points as points_mod
import sphfit.solver as solver_mod
from sphfit.solver import (CHOLESKY_MARGIN, WHITENED_COND_LIMIT, FittedModel,
                           fit_full, fit_sketched, fit_sketched_multi,
                           load_model, predict, rmse_sweep, save_model)

from conftest import random_unit_points, traced_peak

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
        models = fit_sketched_multi(KernelSpec.wendland(), design13, [y], centers, lams)[0]
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
            for model in fit_sketched_multi(kernel, design, [y], centers, lams)[0]]


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
        models = fit_sketched_multi(kernel, design17, [smooth_values(design17)],
                                    design17, [1e-2, 1e-4, 1e-6])[0]
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
        centers = design13.take(np.arange(20))
        models = fit_sketched_multi(KernelSpec.gaussian(1.0), design13, [data.labels],
                                    centers, [1e-2, 1e-4, 1e-6, 1e-8])[0]
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
                                    [smooth_values(design13)], centers, lams)[0]
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

    def test_rmse_sweep_reuses_one_kernel_buffer(self, design17, monkeypatch):
        # four kernels on 3 full blocks of 150 test points and a ragged one
        # of 50: each kernel's values on each block are written into the
        # same buffer, never over the block's dot products
        models = mixed_kernel_models(design17)
        m = len(models[0].centers)
        monkeypatch.setattr(points_mod, "BLOCK_BYTES", 8 * m * 150)
        outs, real = [], solver_mod.zonal_value

        def spy(spec, dot, out=None):
            assert out is not None and not np.shares_memory(out, dot)
            outs.append(out)
            return real(spec, dot, out=out)

        monkeypatch.setattr(solver_mod, "zonal_value", spy)
        probe = PointSet(random_unit_points(np.random.default_rng(5), 500))
        rmse_sweep(models, probe, smooth_values(probe))
        assert [len(out) for out in outs] == [150] * 12 + [50] * 4
        address = outs[0].__array_interface__["data"][0]
        assert all(out.__array_interface__["data"][0] == address for out in outs)

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
    """Slow reference: pseudo-invert one normal system per lam, formed from
    the solver's own ``Knm^T Knm`` and ``Knm^T y`` (which TestStreamedAssembly
    checks against a whole ``Knm``) and ``Kmm``, with the operations the
    solver has always used; (coefficients, rank, eigenvalues of the system
    matrix) per lam.  When the assembly is one row block and one panel, as
    in most tests here, those are ``knm.T @ knm`` and ``knm.T @ y`` bit for
    bit."""
    gtg, (rhs,) = solver_mod._normal_matrices(kernel, data, centers, [y])
    kmm = gram(kernel, centers)
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
            multi = fit_sketched_multi(kernel, design13, [y], centers, lams)[0]
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

    def test_rejected_lambdas_match_one_lambda_fits_past_one_block(self):
        # t = 27 centers (m = 380) on the t = 33 design: the assembly streams
        # two row blocks, and Kmm is two row blocks of GEMMs, mirrored.
        # Every lam the whitening rejects (three by Cholesky, one by the
        # pseudo-inverse) is still solved as a one-lam fit solves it
        data, centers = load_design(33), load_design(27)
        kernel, y = KernelSpec.gaussian(0.3), smooth_values(data)
        lams = [1e-1, 1e-2, 1e-3, 1e-6]
        sweep = fit_sketched_multi(kernel, data, [y], centers, lams)[0]
        assert [m.diagnostics.method for m in sweep] == ["cholesky"] * 3 + ["eig-pinv"]
        for lam, model in zip(lams, sweep):
            alone = fit_sketched(kernel, data, y, centers, lam)
            assert model.coefficients.tobytes() == alone.coefficients.tobytes()
            assert model.diagnostics == replace(alone.diagnostics,
                                                wall_time=model.diagnostics.wall_time)

    def test_order_preserved(self, design13):
        y = smooth_values(design13)
        models = fit_sketched_multi(KernelSpec.wendland(), design13, [y],
                                    design13, [1.0, 1e-4])[0]
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
        sweeps = fit_sketched_multi(kernel, design13, label_sets, centers, lams)
        assert len(sweeps) == len(label_sets)
        for y, sweep in zip(label_sets, sweeps):
            oracle = per_lambda_eigh_fit(kernel, design13, y, centers, lams)
            multi = fit_sketched_multi(kernel, design13, [y], centers, lams)[0]
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
        # not split between the label sets or the lams.  Every kernel block
        # of the assembly (Knm and Kmm) is slowed
        real = kernels_mod.zonal_value

        def slow_zonal_value(*args, **kwargs):
            time.sleep(0.05)
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels_mod, "zonal_value", slow_zonal_value)
        y = smooth_values(design13)
        sweeps = fit_sketched_multi(KernelSpec.wendland(), design13, [y, 2.0 * y, -y],
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
        sweeps = fit_sketched_multi(KernelSpec.wendland(), design13, [y, -y],
                                    design13.take(np.arange(40)), [1e-2, 1e-4])
        models = [m for sweep in sweeps for m in sweep]
        assert all(m.diagnostics.method == "whitened-eig" for m in models)
        assert all(m.diagnostics.wall_time >= 0.05 for m in models)

    def test_sweep_validates_label_sets(self, design13):
        y = smooth_values(design13)
        with pytest.raises(ValueError, match="at least one label set"):
            fit_sketched_multi(KernelSpec.wendland(), design13, [], design13, [1e-3])
        with pytest.raises(ValueError, match="shape"):
            fit_sketched_multi(KernelSpec.wendland(), design13, [y, y[:-1]],
                               design13, [1e-3])


class TestWhitenedGuard:
    def test_clustered_first_sketch_truncated_lams_rejected(self):
        # sim 2's polar-cluster sketch: at sigma = 1 every lam of the f1 grid
        # is one the pseudo-inverse truncates, and whitening or Cholesky would
        # change the estimator there; the other sigmas mix all three arms.
        training = load_design(33)
        data = make_dataset(training, TargetFunction.by_name("f1"),
                            NoiseModel(0.1, seed=1234))
        centers = training.take(np.arange(48))
        grid = GridSpec.for_target("f1", noisy=True)
        methods, truncated = [], 0
        for sigma in grid.sigmas:
            kernel = KernelSpec.gaussian(sigma)
            sweep = fit_sketched_multi(kernel, training, [data.labels], centers,
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
        sweep = fit_sketched_multi(KernelSpec.wendland(), design13, [y], centers, lams)[0]
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
        pair = fit_sketched_multi(kernel, design13, [y], centers, [1e-3, 1e-4])[0]
        assert pair[0].diagnostics.method == "whitened-eig"
        knm, kmm = cross_matrix(kernel, design13, centers), gram(kernel, centers)
        l_inv = solver_mod._lower_inverse(np.linalg.cholesky(
            knm.T @ knm + (1e-3 * len(design13)) * kmm))
        direct = l_inv.T @ (l_inv @ (knm.T @ y))
        expect, = per_lambda_eigh_fit(kernel, design13, y, centers, [1e-3])
        model = fit_sketched(kernel, design13, y, centers, 1e-3)
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
        sweep = fit_sketched_multi(kernel, design13, [y], centers, lams)[0]
        oracle = per_lambda_eigh_fit(kernel, design13, y, centers, lams)
        if arms is not None:
            assert [model.diagnostics.method for model in sweep] == arms
        for model, (coef, rank, w) in zip(sweep, oracle):
            assert_matches_oracle(model, coef, rank, w)
            if model.diagnostics.method == "whitened-eig":
                # the guard bounds the true condition number of the system
                assert w[0] > 0 and w[-1] <= 1.01 * WHITENED_COND_LIMIT * w[0]


def cholesky_limit(m: int) -> float:
    return 1.0 / (CHOLESKY_MARGIN * m * np.finfo(float).eps)


def upper_solve_oracle(u, b):
    """The back substitution by halves the solver's triangular solve must
    reproduce bit for bit, joining the halves of X with ``np.concatenate``."""
    if len(u) <= solver_mod.TRI_INV_LEAF:
        return np.linalg.solve(u, b)
    h = len(u) // 2
    x2 = upper_solve_oracle(u[h:, h:], b[h:])
    return np.concatenate([upper_solve_oracle(u[:h, :h], b[:h] - u[:h, h:] @ x2), x2])


def lower_inverse_oracle(l, out=None):
    """The out-of-place recursion the solver's in-place triangular inverse
    must reproduce bit for bit: X11 and X22 into a fresh array, then
    ``X21 = upper_solve(L11^T, -(X22 L21)^T)^T``."""
    x = np.zeros_like(l) if out is None else out
    m = len(l)
    if m <= solver_mod.TRI_INV_LEAF:
        x[:] = np.linalg.inv(l.T).T
        return x
    h = m // 2
    lower_inverse_oracle(l[:h, :h], x[:h, :h])
    lower_inverse_oracle(l[h:, h:], x[h:, h:])
    x[h:, :h] = upper_solve_oracle(l[:h, :h].T, -(x[h:, h:] @ l[h:, :h]).T).T
    return x


def lu_lower_inverse(l):
    """The slow reference: the same recursion with each off-diagonal block
    solved by ``np.linalg.solve`` on the whole upper-triangular ``L11^T``,
    an LU of a triangular matrix of any size, into a fresh array."""
    m = len(l)
    if m <= solver_mod.TRI_INV_LEAF:
        return np.linalg.inv(l.T).T
    h = m // 2
    x = np.zeros_like(l)
    x[:h, :h] = lu_lower_inverse(l[:h, :h])
    x[h:, h:] = lu_lower_inverse(l[h:, h:])
    x[h:, :h] = np.linalg.solve(l[:h, :h].T, -(x[h:, h:] @ l[h:, :h]).T).T
    return x


def spd_matrix(m, matrix):
    """A random SPD matrix with eigenvalues >= 1, or a Gaussian Gram of
    spiral points, whose Cholesky factor has cond_2 up to 7e3."""
    if matrix == "random":
        g = np.random.default_rng(m).standard_normal((m, m))
        return g @ g.T / m + np.eye(m)
    sites = generate_spiral(max(m, 2)).take(np.arange(m))
    return gram(KernelSpec.gaussian(0.3), sites) + 1e-6 * np.eye(m)


def cholesky_factor(m, matrix):
    return np.linalg.cholesky(spd_matrix(m, matrix))


def spy_factorizations(monkeypatch):
    """Record, for each ``_cholesky_in_place`` call, whether it factored or
    raised and whether it wrote over its argument."""
    calls, original = [], solver_mod._cholesky_in_place

    def spy(a):
        before, outcome = a.copy(), "raised"
        try:
            l = original(a)
            outcome = "factored"
            return l
        finally:
            calls.append((outcome, not np.array_equal(a, before)))

    monkeypatch.setattr(solver_mod, "_cholesky_in_place", spy)
    return calls


def cholesky_kappa(a):
    """The solver's bound kappa on cond_2(a) from its own factorization."""
    return solver_mod._inverse_factor(a)[1]


class TestCholeskyArm:
    @pytest.mark.parametrize("m", [1, 2, solver_mod.TRI_INV_LEAF, solver_mod.TRI_INV_LEAF + 1,
                                   2 * solver_mod.TRI_INV_LEAF + 1, 864])
    @pytest.mark.parametrize("matrix", ["random", "gaussian-gram"])
    def test_cholesky_in_place_backward_error(self, m, matrix):
        # numpy's factor up to one leaf, bit for bit; above it, one blocked
        # step.  Either way |A - L L^T| <= (m + 1) eps |L| |L^T|: the
        # factorization's gamma_(m+1) and this check's own product's
        # gamma_m, each in units of eps / 2
        a = spd_matrix(m, matrix)
        given = a.copy()
        l = solver_mod._cholesky_in_place(given)
        assert l is given
        assert np.all(np.triu(l, 1) == 0.0)
        if m <= solver_mod.TRI_INV_LEAF:
            assert l.tobytes() == np.linalg.cholesky(a).tobytes()
        abs_l = np.abs(l)
        assert np.all(np.abs(a - l @ l.T) <= (m + 1) * np.finfo(float).eps * (abs_l @ abs_l.T))

    @pytest.mark.parametrize("where", ["leading-block", "schur-complement"])
    def test_cholesky_in_place_rejects_indefinite(self, where):
        # A = L L^T past two leaves, with one diagonal entry lowered so that
        # its pivot is negative: in A11, or in A22 - L21 L21^T only, where
        # A11 and A22 alone are still positive definite
        m = 2 * solver_mod.TRI_INV_LEAF + 1
        l = cholesky_factor(m, "random")
        a = l @ l.T
        i = 0 if where == "leading-block" else m - 1
        a[i, i] -= 1.05 * l[i, i] ** 2
        if where == "schur-complement":
            assert np.all(np.linalg.eigvalsh(a[m // 2:, m // 2:]) > 0)
        with pytest.raises(np.linalg.LinAlgError):
            solver_mod._cholesky_in_place(a)

    @pytest.mark.parametrize("m", [1, 2, 255, 256, 257, 513, 1031])
    @pytest.mark.parametrize("matrix", ["random", "gaussian-gram"])
    def test_lower_inverse_right_residual(self, m, matrix):
        # leaf sizes, one block past the leaf, and two odd recursions
        l = cholesky_factor(m, matrix)
        given = l.copy()
        x = solver_mod._lower_inverse(given)
        assert x is given
        assert x.tobytes() == lower_inverse_oracle(l).tobytes()
        assert np.all(np.triu(x, 1) == 0.0)
        resid = np.abs(x @ l - np.eye(m))
        assert np.all(resid <= m * np.finfo(float).eps * (np.abs(x) @ np.abs(l)))

    @pytest.mark.parametrize("m", [257, 512])
    def test_lower_inverse_up_to_two_leaves_is_the_lu_recursion(self, m):
        # both halves are leaves, so the off-diagonal block is one leaf solve
        # and the inverse is the LU-based recursion's, bit for bit
        l = cholesky_factor(m, "gaussian-gram")
        assert solver_mod._lower_inverse(l.copy()).tobytes() == lu_lower_inverse(l).tobytes()

    @pytest.mark.parametrize("m, matrix", [(1031, "random"), (1031, "gaussian-gram"),
                                           (2100, "gaussian-gram")])
    def test_lower_inverse_agrees_with_lu_recursion(self, m, matrix):
        # X L = I + E and Y L = I + F with |E| <= m eps |X||L| and
        # |F| <= m eps |Y||L|, so X - Y = (E - F) L^-1 and, to first order
        # in eps, |X - Y| <= m eps (|X| + |Y|) |L| |Y|
        l = cholesky_factor(m, matrix)
        x, y = solver_mod._lower_inverse(l.copy()), lu_lower_inverse(l)
        abs_y = np.abs(y)
        bound = m * np.finfo(float).eps * (((np.abs(x) + abs_y) @ np.abs(l)) @ abs_y)
        assert np.all(np.abs(x - y) <= bound)

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 1031])
    @pytest.mark.parametrize("rhs", ["vector", "matrix"])
    @pytest.mark.parametrize("matrix", ["random", "gaussian-gram"])
    @pytest.mark.parametrize("shape", ["upper", "reversed-lower"])
    def test_upper_solve_residual(self, n, rhs, matrix, shape):
        # the transposed factor, or the factor reversed as fit_full passes it:
        # |T X - B| <= n eps |T||X|, the bound of a triangular substitution
        l = cholesky_factor(n, matrix)
        t = l.T if shape == "upper" else l[::-1, ::-1]
        rng = np.random.default_rng(n)
        b = rng.standard_normal(n if rhs == "vector" else (n, 5))
        x = solver_mod._upper_solve_in_place(t, b.copy())
        assert x.shape == b.shape
        assert x.tobytes() == upper_solve_oracle(t, b).tobytes()
        resid = np.abs(t @ x - b)
        assert np.all(resid <= n * np.finfo(float).eps * (np.abs(t) @ np.abs(x)))

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
            return cholesky_kappa(gtg + (lam * n) * kmm)

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
            kappa = cholesky_kappa(knm.T @ knm + (lam * len(design13)) * kmm)
            assert kappa > cholesky_limit(len(centers))
            model = fit_sketched(kernel, design13, y, centers, lam)
            assert model.diagnostics.method == "eig-pinv"
            assert model.diagnostics.rank_used == expect[1] < len(centers)
            assert_matches_oracle(model, *expect)

    @pytest.mark.parametrize("case, outcome", [("duplicate-centers", "raised"),
                                               ("kappa-over-limit", "factored")])
    def test_one_lambda_pseudo_inverse_after_system_overwritten(self, case, outcome,
                                                                monkeypatch):
        # m = 348 or 328 centers past one leaf, on the t = 33 design: the one
        # system is factored over itself and fails in its Schur complement
        # (the t = 25 design with 20 centers repeated), or is factored and
        # inverted and then rejected.  Either way it is gone, and the
        # pseudo-inverse of the system assembled again is the oracle's, bit
        # for bit
        data, design = load_design(33), load_design(25)
        if case == "duplicate-centers":
            kernel, lam = KernelSpec.wendland(), 1e-8
            centers = PointSet(np.vstack([design.xyz, design.xyz[:20]]))
        else:
            kernel, lam, centers = KernelSpec.gaussian(0.5), 1e-2, design
        calls = spy_factorizations(monkeypatch)
        y = smooth_values(data)
        model = fit_sketched(kernel, data, y, centers, lam)
        assert calls == [(outcome, True)]
        assert model.diagnostics.method == "eig-pinv"
        assert_matches_oracle(model, *per_lambda_eigh_fit(kernel, data, y, centers, [lam])[0])

    @pytest.mark.parametrize("kernel", [KernelSpec.wendland(), KernelSpec.gaussian(0.5)],
                             ids=["wendland", "gaussian"])
    def test_full_pseudo_inverse_after_system_overwritten(self, kernel, monkeypatch):
        # the t = 25 design with 5 sites repeated (N = 333) at lam 1e-300:
        # the factorization writes L11 over the system and fails in the
        # Schur complement, and the pseudo-inverse of the system built again
        # is the one of K + lam*N*I, bit for bit
        design = load_design(25)
        sites = PointSet(np.vstack([design.xyz, design.xyz[:5]]))
        n, lam, y = len(sites), 1e-300, smooth_values(sites)
        calls = spy_factorizations(monkeypatch)
        model = fit_full(kernel, sites, y, lam)
        assert calls == [("raised", True)]
        assert model.diagnostics.method == "eig-pinv"
        shifted = gram(kernel, sites)
        shifted[np.diag_indices(n)] += lam * n
        w, v = np.linalg.eigh(shifted)
        keep = w > n * np.finfo(float).eps * max(float(w[-1]), 0.0)
        coef = v[:, keep] @ ((v[:, keep].T @ y) / w[keep])
        assert model.diagnostics.rank_used == keep.sum() < n
        assert np.array_equal(model.coefficients, coef)

    def test_indefinite_matrix_is_not_factored(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert solver_mod._inverse_factor(a) == (None, np.inf)


def whole_knm_normal_matrices(kernel, data, centers, ys):
    """The reference assembly: ``Knm`` whole, ``(Knm^T Knm, [Knm^T y], Knm)``."""
    knm = cross_matrix(kernel, data, centers)
    return knm.T @ knm, [knm.T @ y for y in ys], knm


class TestStreamedAssembly:
    @pytest.mark.parametrize("data_degree, center_degree, kernel, block_bytes", [
        (33, 9, KernelSpec.gaussian(0.5), None),     # one block, one panel
        (57, 25, KernelSpec.wendland(), None),       # 3 blocks, the last of 60 rows, one panel
        (57, 41, KernelSpec.gaussian(0.3), None),    # 6 blocks, 3 panels, the last of 260
        (17, 13, KernelSpec.wendland(), 8 * 94 * 10),    # 20-row blocks and panels, both ragged
    ], ids=["one-block", "one-panel", "panels", "ragged"])
    def test_matches_whole_knm(self, data_degree, center_degree, kernel, block_bytes,
                               monkeypatch):
        # Each entry of Knm^T Knm and of Knm^T y is a sum of N products,
        # summed in another order than the whole-Knm product sums them:
        # both are within N eps |Knm|^T |Knm| (or |Knm|^T |y|) of it.  The
        # lower triangle is mirrored, so the result is bitwise symmetric;
        # with one block and one panel it is numpy's product bit for bit
        if block_bytes is not None:
            monkeypatch.setattr(points_mod, "BLOCK_BYTES", block_bytes)
        data, centers = load_design(data_degree), load_design(center_degree)
        n, m = len(data), len(centers)
        ys = [smooth_values(data), np.sin(5.0 * data.xyz[:, 0])]
        gtg, rhs = solver_mod._normal_matrices(kernel, data, centers, ys)
        expect_gtg, expect_rhs, knm = whole_knm_normal_matrices(kernel, data, centers, ys)
        rows, width = solver_mod._assembly_blocks(n, m)
        eps, abs_knm = np.finfo(float).eps, np.abs(knm)
        assert np.array_equal(gtg, gtg.T)
        assert np.all(np.abs(gtg - expect_gtg) <= n * eps * (abs_knm.T @ abs_knm))
        for b, expect, y in zip(rhs, expect_rhs, ys):
            assert np.all(np.abs(b - expect) <= n * eps * (abs_knm.T @ np.abs(y)))
        if rows == n and width == m:
            assert gtg.tobytes() == expect_gtg.tobytes()
            assert all(b.tobytes() == expect.tobytes() for b, expect in zip(rhs, expect_rhs))
        else:
            assert not np.array_equal(gtg, expect_gtg)

    @pytest.mark.parametrize("degree", [t for t in available_degrees() if t >= 9])
    @pytest.mark.parametrize("kernel", KERNELS, ids=["gaussian", "wendland"])
    def test_one_lambda_system_is_the_sweep_system(self, degree, kernel, monkeypatch):
        # A sweep's Kmm is gram's, and a one-lam fit adds lam*N*Kmm into
        # Knm^T Knm's storage from the row blocks gram writes, so the two
        # systems are the same bits, both bitwise symmetric: a lam the
        # whitening rejects is solved as a one-lam fit solves it
        centers = load_design(degree)
        m = len(centers)
        seen = []

        class Whitened(Exception):
            """Stops the sweep once its Kmm is seen."""

        def whiten(gtg, kmm):
            seen.append(kmm)
            raise Whitened

        monkeypatch.setattr(solver_mod, "_whiten", whiten)
        data = load_design(3)
        with pytest.raises(Whitened):
            fit_sketched_multi(kernel, data, [np.ones(len(data))], centers, [1e-2, 1e-4])
        kmm, = seen
        assert kmm.tobytes() == gram(kernel, centers).tobytes()
        g = np.random.default_rng(degree).standard_normal((m, m))
        gtg = g + g.T
        shift = 2e-4 * 1656
        expect = solver_mod._system(gtg, kmm, shift)
        got = solver_mod._add_kmm(gtg.copy(), kernel, centers, shift)
        assert got.tobytes() == expect.tobytes()
        assert np.array_equal(got, got.T) and np.array_equal(kmm, kmm.T)

    def test_one_lambda_peak_does_not_grow_with_n(self):
        # m = 328 centers on 4 m and on 32 m spiral sites: Knm (N m doubles)
        # is never whole, so the traced peaks agree to within one row block
        # (they grew by 28 m^2 while Knm was whole)
        kernel, centers = KernelSpec.wendland(), load_design(25)
        m = len(centers)
        peaks = []
        for n in (4 * m, 32 * m):
            data = generate_spiral(n)
            y = smooth_values(data)
            peaks.append(traced_peak(lambda: fit_sketched(kernel, data, y, centers, 2e-4)))
        rows, _ = solver_mod._assembly_blocks(32 * m, m)
        assert abs(peaks[1] - peaks[0]) <= 8 * rows * m

    def test_fit_with_knm_over_budget_succeeds(self, monkeypatch):
        # N = 8000 sites on m = 864 centers under a budget of 6 m^2 doubles:
        # Knm alone (N m doubles) is over it, which refused the fit while
        # Knm was whole.  The streamed fit is within it, traced
        data, centers = generate_spiral(8000), load_design(41)
        n, m = len(data), len(centers)
        budget = 8 * 6 * m * m
        assert 8 * n * m > budget >= one_lambda_bytes(n, m)
        monkeypatch.setattr(sphfit.kernels, "DEFAULT_MEMORY_BUDGET", budget)
        y = smooth_values(data)
        models = []
        peak = traced_peak(lambda: models.append(
            fit_sketched(KernelSpec.wendland(), data, y, centers, 2e-4)))
        assert models[0].diagnostics.method == "cholesky"
        assert peak <= budget


# One fit at m = N = 1656 after small warm-up fits have started the BLAS
# threads and loaded numpy.linalg; prints the growth of the process's peak
# resident size in units of m x m doubles.  The fit is a one-lam sketched
# fit with every site as a center, or fit_full with the argument "full".
# The peak is VmHWM, not ru_maxrss: Linux carries a parent's resident size
# at fork into the child's ru_maxrss, and the test process is far larger
# than this fit.
RSS_GROWTH_SCRIPT = """
import sys
import numpy as np
from sphfit.designs import load_design
from sphfit.kernels import KernelSpec
from sphfit.solver import fit_full, fit_sketched

def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

kernel = KernelSpec.wendland()
warm = load_design(13)
fit_sketched(kernel, warm, np.ones(len(warm)), warm, 2e-4)
fit_full(kernel, warm, np.ones(len(warm)), 2e-4)
sites = load_design(57)
y = np.cos(3.0 * sites.xyz[:, 2])
before = peak_kib()
if sys.argv[1:] == ["full"]:
    fit_full(kernel, sites, y, 2e-4)
else:
    fit_sketched(kernel, sites, y, sites, 2e-4)
print((peak_kib() - before) * 1024 / (8 * len(sites) ** 2))
"""


def workspace_doubles(n: int, m: int) -> int:
    """The doubles of the streamed assembly's workspace for n sites and m centers."""
    rows, width = solver_mod._assembly_blocks(n, m)
    return rows * m + m * width


def one_lambda_bytes(n: int, m: int) -> int:
    """The bytes a one-lam sketched fit checks against the memory budget:
    its pseudo-inverse's 3 m^2 doubles and the assembly's workspace."""
    return 8 * (3 * m * m + workspace_doubles(n, m))


class TestWorkingSet:
    """What a fit holds at most, as the solver module docstring states it:
    for one lam, ``Knm^T Knm``, the assembly's workspace of W doubles and
    the kernel temporaries of one row block of B doubles, m^2 + W + B, or
    the factorization's 1.5 m^2 or the pseudo-inverse's 2 m^2 if more;
    5 m^2 for a whitened sweep; and 1.375 N^2 for ``fit_full``, plus one
    block (slack of 2 MiB here).  tracemalloc does not see numpy's LAPACK
    copies."""

    @pytest.mark.parametrize("data_degree, center_degree, lam, method", [
        (41, 41, 2e-4, "cholesky"), (41, 41, 1e-14, "eig-pinv"),
        (57, 25, 2e-4, "cholesky")])
    def test_one_lambda_fit(self, data_degree, center_degree, lam, method):
        # m = N = 864 on both arms (1.68 and 2.01 m^2 seen; 2.33 m^2 while
        # Knm was whole), and N = 1656 > m = 328, where the assembly sets
        # the peak (4.29 m^2 seen, 7.33 m^2 while Knm was whole).  The
        # pseudo-inverse arm assembles its system a second time and holds
        # no more than the first assembly did
        data, centers = load_design(data_degree), load_design(center_degree)
        n, m = len(data), len(centers)
        models = []
        peak = traced_peak(lambda: models.append(
            fit_sketched(KernelSpec.wendland(), data, smooth_values(data), centers, lam)))
        assert models[0].diagnostics.method == method
        arm = 2.0 if method == "eig-pinv" else 1.5
        rows, _ = solver_mod._assembly_blocks(n, m)
        assembly = m * m + workspace_doubles(n, m) + rows * m
        assert peak <= 8 * max(assembly, arm * m * m) + 2**21

    def test_sweep_through_every_arm(self):
        # m = N = 864: 9.9 m^2 before the working set was bounded
        sites = load_design(41)
        m = len(sites)
        models = []
        peak = traced_peak(lambda: models.extend(fit_sketched_multi(
            KernelSpec.wendland(), sites, [smooth_values(sites)], sites, [1e-1, 1e-4, 1e-12])[0]))
        assert [model.diagnostics.method for model in models] == [
            "whitened-eig", "cholesky", "eig-pinv"]
        assert peak <= 8 * 5 * m * m + 2**21

    def test_fit_full_cholesky_arm(self):
        # N = 864: the system, numpy's factor of a half-size block and the
        # L21 substitution's product of N^2 / 8 (1.33 N^2 seen; 2 N^2 while
        # the factor had its own storage, 1.5 N^2 while L21 was solved into
        # a new array)
        sites = load_design(41)
        n = len(sites)
        models = []
        peak = traced_peak(lambda: models.append(
            fit_full(KernelSpec.wendland(), sites, smooth_values(sites), 2e-4)))
        assert models[0].diagnostics.method == "cholesky"
        assert peak <= 8 * 1.375 * n * n + 2**21

    def test_fit_full_pseudo_inverse_fallback(self, monkeypatch):
        # N = 864 with the certificate failing: the system is freed before
        # the kept eigenvectors are copied, so eigh's output and that copy
        # are the peak, 2 N^2 (3 N^2 while the system stayed referenced)
        def indefinite(a):
            raise np.linalg.LinAlgError("not positive definite")
        monkeypatch.setattr(np.linalg, "cholesky", indefinite)
        sites = load_design(41)
        n = len(sites)
        models = []
        peak = traced_peak(lambda: models.append(
            fit_full(KernelSpec.wendland(), sites, smooth_values(sites), 2e-4)))
        assert models[0].diagnostics.method == "eig-pinv"
        assert peak <= 8 * 2 * n * n + 2**21

    @staticmethod
    def resident_growth(fit: str) -> float:
        src = str(Path(sphfit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return float(subprocess.run([sys.executable, "-c", RSS_GROWTH_SCRIPT, fit], env=env,
                                    check=True, capture_output=True, text=True).stdout)

    # The resident peak also counts numpy's LAPACK copies of the half-size
    # blocks being factored, which tracemalloc does not see; each bound
    # leaves room for allocator and BLAS buffer growth.  Both fits grew by
    # 3.3 m^2 while each factor had its own storage beside numpy's copy of
    # the whole system.

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_one_lambda_fit_resident_growth(self):
        # the system and a half-size block with numpy's copy of it, which
        # the streamed assembly does not exceed (1.74 m^2 seen, 1.65 m^2 with
        # one BLAS thread; 2.35 m^2 while Knm was whole, 7.3 m^2 before the
        # working set was bounded)
        assert self.resident_growth("sketched") <= 2.0

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_fit_full_resident_growth(self):
        # the system and a half-size block with numpy's copy of it, 1.5 N^2
        # (1.71 N^2 seen, 1.64 N^2 with one BLAS thread; 1.84 N^2 while L21
        # was solved into a new array)
        assert self.resident_growth("full") <= 2.0

    def test_more_centers_than_sites_refused_before_allocating(self, monkeypatch):
        # N = 12 sites, m = 156 centers: Knm (15 KB) is within a 64 KiB
        # budget, Knm^T Knm (195 KB) is not, and nothing that size is built
        data, centers = load_design(5), load_design(17)
        budget = 2**16
        monkeypatch.setattr(sphfit.kernels, "DEFAULT_MEMORY_BUDGET", budget)

        def fit():
            with pytest.raises(MatrixSizeError, match="sketched fit of 12 sites on 156 "
                                                      f"centers needs {one_lambda_bytes(12, 156)} bytes"):
                fit_sketched(KernelSpec.wendland(), data, smooth_values(data), centers, 0.0)

        assert traced_peak(fit) <= budget + 2**14

    def test_working_set_over_budget_refused_before_allocating(self, monkeypatch):
        # N = m = 864 under a budget of one N x N matrix: each matrix of the
        # fit is within it, the whole working set is not (the pseudo-inverse
        # of a one-lam sketched fit holds 3 m^2 doubles beside the assembly's
        # workspace and that of fit_full 3 N^2, each counting the copy eigh
        # makes of its system)
        data = load_design(41)
        n = len(data)
        budget = 8 * n * n
        monkeypatch.setattr(sphfit.kernels, "DEFAULT_MEMORY_BUDGET", budget)
        y = smooth_values(data)

        def assert_refused(fit, message):
            def run():
                with pytest.raises(MatrixSizeError, match=message):
                    fit()
            assert traced_peak(run) <= budget + 2**14

        assert_refused(lambda: fit_full(KernelSpec.wendland(), data, y, 2e-4),
                       f"full fit of {n} sites needs {8 * 3 * n * n} bytes")
        assert_refused(lambda: fit_sketched(KernelSpec.wendland(), data, y, data, 2e-4),
                       f"sketched fit of {n} sites on {n} centers needs {one_lambda_bytes(n, n)} bytes")


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
        kernel, lam, n = KernelSpec.gaussian(0.5), 1e-3, len(design13)
        model = fit_sketched(kernel, design13, y, design13, lam)
        d = model.diagnostics
        assert d.method == "cholesky"
        assert d.rank_used == n
        assert d.wall_time >= 0.0
        # the residual of the sketched system (Knm^T Knm + lam*N*Kmm) alpha = Knm^T y
        knm, kmm = cross_matrix(kernel, design13, design13), gram(kernel, design13)
        resid = (knm.T @ knm + (lam * n) * kmm) @ model.coefficients - knm.T @ y
        assert np.linalg.norm(resid) <= 1e-8 * max(1.0, np.abs(y).max())

    def test_full_uses_cholesky_when_possible(self, design13):
        model = fit_full(KernelSpec.gaussian(0.5), design13,
                         smooth_values(design13), 1e-2)
        assert model.diagnostics.method == "cholesky"
        assert model.training_size == len(design13)

    @pytest.mark.parametrize("kernel", [KernelSpec.wendland(), KernelSpec.gaussian(0.5)],
                             ids=["wendland", "gaussian"])
    def test_full_shifts_diagonal_in_place_bitwise(self, design13, kernel, monkeypatch):
        # no kernel entry is -0.0, so the in-place diagonal shift equals the
        # former K + lam*N*I bit for bit.  That system is factored once, and
        # the coefficients come from two substitutions with its factor: every
        # np.linalg.solve is of an upper-triangular block of at most
        # TRI_INV_LEAF rows, never of the system, so no LU of it is formed.
        # N = 94 is one leaf per substitution; N = 328 is two, and its
        # blocked factorization solves for L21 with one leaf of 164 rows
        factored, solved = [], []
        cholesky_in_place, solve = solver_mod._cholesky_in_place, np.linalg.solve
        monkeypatch.setattr(solver_mod, "_cholesky_in_place",
                            lambda a: factored.append(a.copy()) or cholesky_in_place(a))
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: solved.append(np.array(a)) or solve(a, b))
        for sites, solves in ((design13, 2), (load_design(25), 5)):
            factored.clear()
            solved.clear()
            lam, n, y = 1e-3, len(sites), smooth_values(sites)
            model = fit_full(kernel, sites, y, lam)
            old = gram(kernel, sites) + (lam * n) * np.eye(n)
            assert len(factored) == 1 and np.array_equal(factored[0], old)
            assert model.diagnostics.method == "cholesky"
            assert len(solved) == solves
            for a in solved:
                assert len(a) <= solver_mod.TRI_INV_LEAF and np.all(np.tril(a, -1) == 0.0)
            # both solves are backward stable, so they differ by at most about
            # n eps cond_2 relative
            ref = solve(old, y)
            assert (np.linalg.norm(model.coefficients - ref)
                    <= n * np.finfo(float).eps * np.linalg.cond(old) * np.linalg.norm(ref))

    def test_full_falls_back_to_pseudo_inverse(self, design13, monkeypatch):
        def indefinite(a):
            raise np.linalg.LinAlgError("not positive definite")
        monkeypatch.setattr(np.linalg, "cholesky", indefinite)
        kernel, lam, n = KernelSpec.gaussian(0.5), 1e-2, len(design13)
        y = smooth_values(design13)
        model = fit_full(kernel, design13, y, lam)
        d = model.diagnostics
        assert d.method == "eig-pinv"
        assert d.rank_used == n
        shifted = gram(kernel, design13) + (lam * n) * np.eye(n)
        ref = np.linalg.solve(shifted, y)
        assert np.linalg.norm(model.coefficients - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(shifted @ model.coefficients - y) <= 1e-12 * np.linalg.norm(y)

    @pytest.mark.parametrize("lam, method, rank", [
        (1e-300, "eig-pinv", 94), (1e-20, "eig-pinv", 94), (1e-12, "cholesky", 99)])
    @pytest.mark.parametrize("kernel", [KernelSpec.wendland(), KernelSpec.gaussian(0.5)],
                             ids=["wendland", "gaussian"])
    def test_full_duplicated_sites_pick_arm_unpatched(self, design13, kernel, lam,
                                                      method, rank):
        # the t = 13 design (94 sites) with 5 sites repeated: the shift alone
        # separates the copies, so a tiny lam leaves K + lam*N*I numerically
        # singular (the Cholesky certificate fails) and keeps the 94 distinct
        # directions; at 1e-12 the system is certified and solved at full rank
        sites = PointSet(np.vstack([design13.xyz, design13.xyz[:5]]))
        y = smooth_values(sites)
        model = fit_full(kernel, sites, y, lam)
        assert (model.diagnostics.method, model.diagnostics.rank_used) == (method, rank)
        shifted = gram(kernel, sites) + (lam * len(sites)) * np.eye(len(sites))
        assert np.linalg.norm(shifted @ model.coefficients - y) <= 1e-6 * np.linalg.norm(y)

    def test_full_ill_conditioned_gaussian_falls_back_unpatched(self):
        # Gaussian sigma = 1.0 on the t = 33 design at lam 1e-19: the
        # certificate fails and the pseudo-inverse keeps 144 of 564
        # eigenpairs; an LU solve of the same system alone scores 0.138
        # against this 0.0073
        sites, target = load_design(33), TargetFunction.by_name("f1")
        model = fit_full(KernelSpec.gaussian(1.0), sites, target(sites), 1e-19)
        assert (model.diagnostics.method, model.diagnostics.rank_used) == ("eig-pinv", 144)
        grid = generate_spiral(3000)
        assert rmse(model, grid, target(grid)) < 0.01


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
