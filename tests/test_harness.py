import math
from dataclasses import replace

import numpy as np
import pytest

from sphfit.data import Dataset, NoiseModel, TargetFunction, make_dataset, rmse
from sphfit.designs import load_design
from sphfit.harness import (SIM1_DELTAS, SIM2_S_STARS, ConfigError,
                            ExperimentConfig, GridSearchError, GridSpec,
                            ResultRow, _random_sketch, grid_search, lambda_grid,
                            parse_config, read_results_csv,
                            run_simulation1, run_simulation2, run_simulation3,
                            sigma_grid, sort_rows,
                            write_field_csv, write_results_csv,
                            write_seed_detail_csv)
from sphfit.kernels import KernelSpec
from sphfit.points import generate_spiral
import sphfit.harness as harness_mod
import sphfit.points as points_mod
import sphfit.solver as solver_mod
from sphfit.solver import WHITENED_COND_LIMIT, fit_sketched


def toy_config(**overrides) -> ExperimentConfig:
    base = dict(target="f2", t=9, deltas=(0.0, 0.1), s_stars=(5, 9),
                n_seeds=3, n_test=400, base_seed=99, real_timing=False,
                sim3_s_star=5, sim3_grid_n=500)
    base.update(overrides)
    return ExperimentConfig(**base)


def spy_test_kernels(monkeypatch) -> list:
    """Record each (kernel, dot) that sphfit.solver passes to zonal_value
    while the harness scores its models (``harness.rmse_sweep``), so only
    the test-grid evaluations are recorded.  The fits' streamed assembly
    evaluates its blocks of Knm through the same name, outside the
    scoring; Kmm comes from kernels.zonal_value directly."""
    calls, scoring = [], []
    real_zonal, real_sweep = solver_mod.zonal_value, harness_mod.rmse_sweep

    def spy(spec, dot, out=None):
        if scoring:
            calls.append((spec, dot))
        return real_zonal(spec, dot, out=out)

    def scored(*args):
        scoring.append(True)
        try:
            return real_sweep(*args)
        finally:
            scoring.pop()

    monkeypatch.setattr(solver_mod, "zonal_value", spy)
    monkeypatch.setattr(harness_mod, "rmse_sweep", scored)
    return calls


def blocks_of(calls) -> list:
    """[(dot, kernels it was passed with)] in call order, dot products
    compared by identity.  Asserts that the calls with one dot product are
    consecutive: a block's dot product is built once and never met again."""
    blocks = []
    for spec, dot in calls:
        if blocks and blocks[-1][0] is dot:
            blocks[-1][1].append(spec)
        else:
            assert all(seen is not dot for seen, _ in blocks)
            blocks.append((dot, [spec]))
    return blocks


def assert_tiles_test_grid(blocks, test_pts, centers):
    """The blocks' dot products, stacked, are those of the whole test grid
    with the centers: each test point is scored exactly once."""
    stacked = np.concatenate([dot for dot, _ in blocks])
    assert stacked.shape == (len(test_pts), len(centers))
    assert np.abs(stacked - test_pts.xyz @ centers.xyz.T).max() <= 4 * np.finfo(float).eps


class TestGrids:
    def test_base2_lambda_grid(self):
        grid = lambda_grid(2.0)
        assert len(grid) == 34
        assert grid[0] == 1.0
        assert grid[1] == 0.5
        assert grid[-1] == 2.0 ** -33
        assert grid[-1] > 1e-10
        assert 2.0 ** -34 <= 1e-10
        assert all(a > b for a, b in zip(grid, grid[1:]))

    def test_base15_lambda_grid(self):
        grid = lambda_grid(1.5)
        assert len(grid) == 57
        assert grid[0] == 1.0
        assert grid[-1] > 1e-10
        assert 1.5 ** -57 <= 1e-10

    @pytest.mark.parametrize("base", [1.0, 0.5, 0.0, -2.0, float("inf"), float("nan")])
    def test_lambda_grid_rejects_base_that_never_reaches_floor(self, base):
        with pytest.raises(ValueError, match="base"):
            lambda_grid(base)

    def test_sigma_grids(self):
        noisy = sigma_grid(True)
        clean = sigma_grid(False)
        assert len(noisy) == len(clean) == 10
        assert noisy[0] == pytest.approx(0.1) and noisy[-1] == pytest.approx(1.0)
        assert clean[0] == pytest.approx(0.028) and clean[-1] == pytest.approx(0.28)
        assert all(a < b for a, b in zip(noisy, noisy[1:]))

    def test_gridspec_validation(self):
        with pytest.raises(ValueError, match="descending"):
            GridSpec(lambdas=(1e-3, 1e-2))
        with pytest.raises(ValueError, match="positive"):
            GridSpec(lambdas=())
        with pytest.raises(ValueError, match="positive"):
            GridSpec(lambdas=(1.0, -0.5))
        with pytest.raises(ValueError, match="positive"):
            GridSpec(lambdas=(1.0,), sigmas=(0.0,))

    def test_for_target(self):
        f1 = GridSpec.for_target("f1", noisy=True)
        assert len(f1.lambdas) == 34 and len(f1.sigmas) == 10
        f2 = GridSpec.for_target("f2", noisy=False)
        assert len(f2.lambdas) == 57 and f2.sigmas is None
        with pytest.raises(ConfigError):
            GridSpec.for_target("f9", noisy=True)


class TestSketchSelection:
    def test_first_takes_file_order(self, design13):
        centers = design13.take(np.arange(5))
        assert np.array_equal(centers.xyz, design13.xyz[:5])

    def test_random_is_seeded_subset(self, design13):
        a = _random_sketch(design13, 10, seed=4)
        b = _random_sketch(design13, 10, seed=4)
        assert np.array_equal(a.xyz, b.xyz)
        # every center is a training point, no repeats
        matches = (a.xyz[:, None, :] == design13.xyz[None, :, :]).all(axis=2)
        assert matches.any(axis=1).all()
        assert len(np.unique(matches.argmax(axis=1))) == 10

    def test_random_seed_changes_subset(self, design13):
        a = _random_sketch(design13, 10, seed=4)
        b = _random_sketch(design13, 10, seed=5)
        assert not np.array_equal(a.xyz, b.xyz)

    def test_oversized_m_rejected(self, oversized_design_dir):
        # the first and random sketches of simulation 2 take m = 48 of the
        # N = 12 training points: refused before any search
        cfg = toy_config(t=5, s_stars=(3,), design_dir=str(oversized_design_dir))
        with pytest.raises(ConfigError, match=r"s_star=3: .* m=48 .* N=12 "):
            run_simulation2(cfg)


class TestResultRow:
    def _row(self, **overrides):
        base = dict(target="f2", delta=0.1, method="design", s_star=9, m=48,
                    sr=0.5, lam=1e-3, sigma=None, rmse=0.1, fit_seconds=0.2)
        base.update(overrides)
        return ResultRow(**base)

    def test_valid(self):
        assert self._row().sr == 0.5

    def test_bad_sampling_ratio(self):
        with pytest.raises(ValueError, match="ratio"):
            self._row(sr=1.5)
        with pytest.raises(ValueError, match="ratio"):
            self._row(sr=0.0)

    def test_negative_rmse(self):
        with pytest.raises(ValueError, match="rmse"):
            self._row(rmse=-0.1)


class TestGridSearch:
    def test_zero_labels_pick_most_regularization(self, design13):
        # every cell fits the zero function exactly: RMSE ties everywhere,
        # so the tie-break must select the largest lambda and sigma
        data = Dataset(design13, np.zeros(len(design13)),
                       TargetFunction.by_name("f1"), NoiseModel(0.0, seed=1))
        test = generate_spiral(50)
        grid = GridSpec(lambdas=(1.0, 0.5, 0.25), sigmas=(0.1, 0.2, 0.4))
        [row] = grid_search([data], (test, np.zeros(50)), design13.take(np.arange(10)),
                            grid, "first", 13)
        assert row.lam == 1.0
        assert row.sigma == 0.4
        assert row.rmse == 0.0

    def test_design_row_shape(self, design13):
        target = TargetFunction.by_name("f2")
        data = make_dataset(design13, target, NoiseModel(0.0, seed=1))
        test_pts = generate_spiral(200)
        [row] = grid_search([data], (test_pts, target(test_pts)), load_design(9),
                            GridSpec(lambdas=(1e-4, 1e-6, 1e-8)), "design", 9)
        assert row.method == "design"
        assert row.s_star == 9
        assert row.m == 48
        assert row.sr == pytest.approx(48 / 94)
        assert row.fit_seconds > 0
        # coarse sketch, but far better than predicting zero
        label_rms = float(np.sqrt(np.mean(target(test_pts) ** 2)))
        assert 0 < row.rmse < 0.5 * label_rms

    def test_matches_cell_by_cell_oracle(self, design13):
        # Independent loop: one fit_sketched + rmse per (lambda, sigma) cell,
        # minimizing (rmse, -lambda, -sigma) as grid_search documents.
        target = TargetFunction.by_name("f1")
        data = make_dataset(design13, target, NoiseModel(0.1, seed=7))
        test_pts = generate_spiral(300)
        test_labels = target(test_pts)
        grid = GridSpec(lambdas=(1e-2, 1e-4, 1e-6, 1e-8), sigmas=(0.2, 0.5, 1.0))
        centers = design13.take(np.arange(10))
        best = None
        for sigma in grid.sigmas:
            for lam in grid.lambdas:
                model = fit_sketched(KernelSpec.gaussian(sigma), data.inputs,
                                     data.labels, centers, lam)
                key = (rmse(model, test_pts, test_labels), -lam, -sigma)
                best = key if best is None else min(best, key)
        [row] = grid_search([data], (test_pts, test_labels), centers, grid, "first", 13)
        assert row.lam == -best[1]
        assert row.sigma == -best[2]
        # fit_sketched solves one lam by its own Cholesky factor or
        # pseudo-inverse; the sweep may solve it in the whitened basis, which
        # only its guard (cond_2 of the system <= WHITENED_COND_LIMIT) admits:
        # for m = 10 centers the two agree to m * eps * WHITENED_COND_LIMIT
        # relative (2.2e-7; 2e-13 is seen)
        tol = 10 * np.finfo(float).eps * WHITENED_COND_LIMIT
        assert row.rmse == pytest.approx(best[0], rel=tol, abs=0.0)

    def test_one_zonal_value_call_per_sigma(self, design13, monkeypatch):
        # Each test block's dot product is built once and serves every sigma,
        # and each sigma's kernel covers the test grid once, block by block.
        target = TargetFunction.by_name("f1")
        data = make_dataset(design13, target, NoiseModel(0.1, seed=7))
        test_pts = generate_spiral(300)
        grid = GridSpec(lambdas=(1e-2, 1e-4, 1e-6, 1e-8), sigmas=(0.2, 0.5, 1.0))
        centers = design13.take(np.arange(10))
        # blocks of 64 rows: four full ones and a ragged last one of 44
        monkeypatch.setattr(points_mod, "BLOCK_BYTES", 8 * 10 * 64)
        calls = spy_test_kernels(monkeypatch)
        grid_search([data], (test_pts, target(test_pts)), centers, grid, "first", 13)
        kernels = [KernelSpec.gaussian(sigma) for sigma in grid.sigmas]
        blocks = blocks_of(calls)
        assert [len(dot) for dot, _ in blocks] == [64, 64, 64, 64, 44]
        assert all(specs == kernels for _, specs in blocks)
        assert_tiles_test_grid(blocks, test_pts, centers)

    def test_all_cells_failing_raises(self, design13):
        bad = Dataset(design13, np.full(len(design13), np.nan),
                      TargetFunction.by_name("f2"), NoiseModel(0.0, seed=1))
        test = generate_spiral(50)
        with pytest.raises(GridSearchError, match="all grid cells failed"):
            grid_search([bad], (test, np.zeros(50)), load_design(9),
                        GridSpec(lambdas=(1e-3,)), "design", 9)


class TestGridSearchMulti:
    """grid_search over several datasets on one training set."""

    @pytest.mark.parametrize("target_name, method, grid", [
        ("f1", "first",
         GridSpec(lambdas=(1e-2, 1e-4, 1e-6, 1e-8), sigmas=(0.2, 0.5, 1.0))),
        ("f2", "design", GridSpec.for_target("f2", noisy=True)),
    ], ids=["f1-sigma-sweep", "f2"])
    def test_rows_match_per_dataset_grid_search(self, design13, target_name, method, grid):
        target = TargetFunction.by_name(target_name)
        datasets = [make_dataset(design13, target, NoiseModel(delta, seed=7))
                    for delta in (0.0, 0.01, 0.1)]
        test_pts = generate_spiral(300)
        test = (test_pts, target(test_pts))
        centers = design13.take(np.arange(20)) if method == "first" else load_design(9)
        rows = grid_search(datasets, test, centers, grid, method, 9)
        singles = [grid_search([d], test, centers, grid, method, 9)[0] for d in datasets]
        assert [r.delta for r in rows] == [0.0, 0.01, 0.1]
        assert all(r.fit_seconds > 0 for r in rows)
        # The selection is identical.  The RMSE is not bitwise: the sweep
        # scores 3x as many models in one GEMM, which sums in another order
        # (3.2e-14 relative seen on the f1 first sketch at lam = 1e-6).
        assert ([replace(r, fit_seconds=0.0, rmse=0.0) for r in rows]
                == [replace(r, fit_seconds=0.0, rmse=0.0) for r in singles])
        for r, single in zip(rows, singles):
            assert abs(r.rmse - single.rmse) <= 1e-12 * single.rmse

    def test_rejects_datasets_on_different_input_objects(self, design13):
        target = TargetFunction.by_name("f2")
        copy = design13.take(np.arange(len(design13)))     # equal points, new object
        a = make_dataset(design13, target, NoiseModel(0.0, seed=1))
        b = make_dataset(copy, target, NoiseModel(0.1, seed=1))
        test = generate_spiral(50)
        with pytest.raises(ValueError, match="share their inputs"):
            grid_search([a, b], (test, np.zeros(50)), load_design(9),
                        GridSpec(lambdas=(1e-3,)), "design", 9)

    def test_rejects_mixed_targets_and_empty_list(self, design13):
        a = make_dataset(design13, TargetFunction.by_name("f1"), NoiseModel(0.0, seed=1))
        b = make_dataset(design13, TargetFunction.by_name("f2"), NoiseModel(0.0, seed=1))
        test = (generate_spiral(50), np.zeros(50))
        with pytest.raises(ValueError, match="target"):
            grid_search([a, b], test, load_design(9),
                        GridSpec(lambdas=(1e-3,), sigmas=(0.5,)), "design", 9)
        with pytest.raises(ValueError, match="at least one dataset"):
            grid_search([], test, load_design(9), GridSpec(lambdas=(1e-3,)), "design", 9)


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.target == "f2" and cfg.t == 57
        assert cfg.sim1_deltas() == SIM1_DELTAS
        assert cfg.sim2_s_stars() == SIM2_S_STARS
        assert cfg.sim1_s_stars() == tuple(range(1, 58, 2))

    def test_sim2_s_stars_capped_by_degree(self):
        assert ExperimentConfig(t=13).sim2_s_stars() == (9,)
        assert ExperimentConfig(t=41).sim2_s_stars() == (9, 25, 41)

    def test_overrides_win(self):
        cfg = ExperimentConfig(deltas=(0.1,), s_stars=(5,))
        assert cfg.sim1_deltas() == cfg.sim2_deltas() == (0.1,)
        assert cfg.sim1_s_stars() == cfg.sim2_s_stars() == (5,)

    def test_validation(self):
        with pytest.raises(ConfigError, match="target"):
            ExperimentConfig(target="f7")
        with pytest.raises(ConfigError, match="odd"):
            ExperimentConfig(t=10)
        with pytest.raises(ConfigError):
            ExperimentConfig(n_seeds=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(sim3_s_star=4)
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            ExperimentConfig(base_seed=-1)
        with pytest.raises(ConfigError, match="design_dir must name a directory"):
            ExperimentConfig(design_dir=" ")

    @pytest.mark.parametrize("override", [
        dict(deltas=(0.1, math.nan)), dict(deltas=(math.inf,)), dict(deltas=(-0.1,)),
        dict(sim3_delta=math.nan), dict(sim3_delta=math.inf), dict(sim3_delta=-1.0)])
    def test_rejects_non_finite_or_negative_deltas(self, override):
        with pytest.raises(ConfigError, match="finite"):
            ExperimentConfig(**override)

    @pytest.mark.parametrize("override, name", [
        (dict(deltas=(0.1, 0.5, 0.1)), "deltas"), (dict(s_stars=(5, 5)), "s_stars")])
    def test_rejects_repeated_cells(self, override, name):
        with pytest.raises(ConfigError, match=f"{name} repeats"):
            ExperimentConfig(**override)

    def test_parse_minimal(self, tmp_path):
        f = tmp_path / "min.ini"
        f.write_text("[experiment]\ntarget = f2\n")
        cfg = parse_config(f)
        assert cfg.t == 57 and cfg.real_timing

    def test_parse_full(self, tmp_path):
        f = tmp_path / "full.ini"
        f.write_text(
            "[experiment]\ntarget = f1\nt = 13\n"
            "[noise]\ndeltas = 0, 0.5\nseed = 7\n"
            "[sketch]\ns_stars = 5, 9\nn_seeds = 4\n"
            "[test]\nn_points = 500\n"
            "[output]\ntiming = zero\n"
            "[sim3]\ndelta = 0.2\ns_star = 9\ngrid_n = 1000\n")
        cfg = parse_config(f)
        assert cfg.target == "f1" and cfg.t == 13
        assert cfg.deltas == (0.0, 0.5) and cfg.base_seed == 7
        assert cfg.s_stars == (5, 9) and cfg.n_seeds == 4
        assert cfg.n_test == 500 and not cfg.real_timing
        assert cfg.sim3_delta == 0.2 and cfg.sim3_s_star == 9
        assert cfg.sim3_grid_n == 1000

    def test_parse_full_scale_flag(self, tmp_path):
        # removed: it only repeated t = 141 and overrode an explicit t
        f = tmp_path / "fs.ini"
        f.write_text("[experiment]\nt = 13\nfull_scale = true\n")
        with pytest.raises(ConfigError, match="experiment.full_scale"):
            parse_config(f)

    @pytest.mark.parametrize("text, key", [("[sketch]\ns_star = 5\n", "sketch.s_star"),
                                           ("[noise]\ndelta = 0.1\n", "noise.delta")])
    def test_unknown_key_rejected(self, tmp_path, text, key):
        f = tmp_path / "typo.ini"
        f.write_text(text)
        with pytest.raises(ConfigError, match=key):
            parse_config(f)

    # a negative seed would fail only when noise is drawn, and an empty design
    # directory would load designs from the current directory
    @pytest.mark.parametrize("text, key", [("[noise]\nseed = -1\n", "noise.seed"),
                                           ("[sketch]\ndesign_dir =\n", "sketch.design_dir"),
                                           ("[sketch]\ndesign_dir =   \n", "sketch.design_dir")],
                             ids=["negative-seed", "empty-design-dir", "blank-design-dir"])
    def test_bad_value_rejected_naming_key(self, tmp_path, text, key):
        f = tmp_path / "bad.ini"
        f.write_text(text)
        with pytest.raises(ConfigError, match=key):
            parse_config(f)

    def test_parse_errors(self, tmp_path):
        missing = tmp_path / "absent.ini"
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config(missing)
        bad_section = tmp_path / "sec.ini"
        bad_section.write_text("[surprise]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(bad_section)
        bad_timing = tmp_path / "tim.ini"
        bad_timing.write_text("[output]\ntiming = fast\n")
        with pytest.raises(ConfigError, match="timing"):
            parse_config(bad_timing)
        bad_number = tmp_path / "num.ini"
        bad_number.write_text("[experiment]\nt = many\n")
        with pytest.raises(ConfigError):
            parse_config(bad_number)


@pytest.fixture(scope="module")
def sim1_rows():
    return run_simulation1(toy_config())


@pytest.fixture(scope="module")
def sim2_result():
    return run_simulation2(toy_config())


class TestSimulations:
    def test_sim1_shape(self, sim1_rows):
        assert len(sim1_rows) == 4      # 2 deltas x 2 s_stars
        assert all(r.method == "design" for r in sim1_rows)
        assert sim1_rows == sort_rows(sim1_rows)

    def test_sim1_full_degree_row_uses_whole_design(self, sim1_rows):
        full = [r for r in sim1_rows if r.s_star == 9]
        assert all(r.m == 48 and r.sr == 1.0 for r in full)

    def test_sim1_noise_hurts(self, sim1_rows):
        by = {(r.delta, r.s_star): r.rmse for r in sim1_rows}
        assert by[(0.0, 9)] <= by[(0.1, 9)]

    def test_sim2_shape(self, sim2_result):
        main, detail = sim2_result
        assert len(main) == 12          # 2 deltas x 2 s_stars x 3 methods
        assert len(detail) == 12        # 2 x 2 x 3 seeds
        methods = [r.method for r in main[:3]]
        assert methods == ["design", "first", "random"]

    def test_sim2_matched_sketch_sizes(self, sim2_result):
        main, _ = sim2_result
        for i in range(0, len(main), 3):
            group = main[i:i + 3]
            assert len({r.m for r in group}) == 1
            assert len({(r.delta, r.s_star) for r in group}) == 1

    def test_sim2_design_rows_match_sim1(self, sim1_rows, sim2_result):
        main, _ = sim2_result
        sim1_by = {(r.delta, r.s_star): r for r in sim1_rows}
        for r in main:
            if r.method == "design":
                ref = sim1_by[(r.delta, r.s_star)]
                assert r.rmse == ref.rmse and r.lam == ref.lam

    def test_sim2_random_mean_from_detail(self, sim2_result):
        main, detail = sim2_result
        for r in main:
            if r.method != "random":
                continue
            mates = [row.rmse for seed, row in detail
                     if row.delta == r.delta and row.s_star == r.s_star]
            assert len(mates) == 3
            assert r.rmse == pytest.approx(float(np.mean(mates)), abs=1e-15)

    def test_sim2_detail_seeds(self, sim2_result):
        _, detail = sim2_result
        assert {seed for seed, _ in detail} == {100, 101, 102}

    def test_sim3_field(self):
        export = run_simulation3(toy_config())
        assert len(export.points) == 500
        for arr in (export.exact, export.noisy, export.prediction, export.abs_error):
            assert arr.shape == (500,)
        assert np.array_equal(export.abs_error,
                              np.abs(export.prediction - export.exact))
        target = TargetFunction.by_name("f2")
        assert np.array_equal(export.exact, target(export.points))
        # a 12-center sketch is coarse but clearly beats predicting zero
        field_rmse = np.sqrt(np.mean((export.prediction - export.exact) ** 2))
        assert field_rmse < 0.8 * np.sqrt(np.mean(export.exact ** 2))

    def test_oversized_s_star_rejected(self):
        with pytest.raises(ConfigError, match="odd and <="):
            run_simulation1(toy_config(s_stars=(11, 25)))
        with pytest.raises(ConfigError, match="odd and <="):
            run_simulation3(toy_config(sim3_s_star=25))

    def test_sim1_decomposes_once_per_lambda_for_all_noise_levels(self, monkeypatch):
        # Two noisy deltas share a grid, so each s* makes one whitened
        # decomposition for every lambda and noise level (the Wendland design
        # sketches pass the conditioning guard at every lambda), and each s*
        # evaluates its kernel once on each test block.
        eigh_sizes = []
        real_eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            eigh_sizes.append(a.shape[0])
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        # 2 x 57 models are wider than either center set: blocks of 100 rows
        cfg = toy_config(deltas=(0.1, 0.5), s_stars=(5, 9))
        n_models = 2 * len(GridSpec.for_target(cfg.target, noisy=True).lambdas)
        monkeypatch.setattr(points_mod, "BLOCK_BYTES", 8 * n_models * 100)
        calls = spy_test_kernels(monkeypatch)
        rows = run_simulation1(cfg)
        assert len(rows) == 4
        assert eigh_sizes == [12, 48]
        blocks = blocks_of(calls)
        assert [dot.shape for dot, _ in blocks] == [(100, 12)] * 4 + [(100, 48)] * 4
        assert all(specs == [KernelSpec.wendland()] for _, specs in blocks)
        test_pts = generate_spiral(cfg.n_test)
        assert_tiles_test_grid(blocks[:4], test_pts, load_design(5))
        assert_tiles_test_grid(blocks[4:], test_pts, load_design(9))

    @pytest.mark.parametrize("overrides, sim1_calls, sim2_calls", [
        # f2: both deltas share the one Wendland grid; one sweep per search
        ({}, (2, 2), (10, 10)),
        # f1: the clean and the noisy delta search separate grids, each of
        # 10 sigmas and one sweep per sigma
        ({"target": "f1", "s_stars": (5,), "n_seeds": 2}, (2, 20), (8, 80)),
    ], ids=["f2", "f1"])
    def test_simulations_reach_the_traced_names(self, monkeypatch, overrides,
                                                sim1_calls, sim2_calls):
        # The benchmark trace wraps harness.grid_search and
        # solver.fit_sketched_multi, so every fit of a simulation must go
        # through those two names.  sim1 searches once per (grid group, s*);
        # sim2 once per (grid group, s*) for design, first and each seed.
        counts = {}

        def counting(name):
            real = getattr(harness_mod, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in ("grid_search", "fit_sketched_multi"):
            monkeypatch.setattr(harness_mod, name, counting(name))
        cfg = toy_config(**overrides)
        for run, expected in ((run_simulation1, sim1_calls), (run_simulation2, sim2_calls)):
            counts.update(grid_search=0, fit_sketched_multi=0)
            run(cfg)
            assert (counts["grid_search"], counts["fit_sketched_multi"]) == expected

    def test_sim2_deterministic(self):
        cfg = toy_config(deltas=(0.1,), s_stars=(5,), n_seeds=2, n_test=100, t=5)
        a_main, a_detail = run_simulation2(cfg)
        b_main, b_detail = run_simulation2(cfg)
        assert [r.rmse for r in a_main] == [r.rmse for r in b_main]
        assert [(s, r.rmse) for s, r in a_detail] == [(s, r.rmse) for s, r in b_detail]


class TestCsvIO:
    def _rows(self):
        return [
            ResultRow("f2", 0.1, "design", 9, 48, 48 / 94, 1.5 ** -20, None,
                      0.123456789012345678, 0.25),
            ResultRow("f1", 0.0, "first", 13, 94, 1.0, 2.0 ** -30, 0.31622,
                      1e-9, 0.5),
        ]

    def test_round_trip(self, tmp_path):
        rows = self._rows()
        path = tmp_path / "rows.csv"
        write_results_csv(path, rows)
        assert read_results_csv(path) == rows

    def test_zero_timing_mode(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_results_csv(path, self._rows(), real_timing=False)
        assert all(r.fit_seconds == 0.0 for r in read_results_csv(path))

    def test_header_and_empty_sigma(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_results_csv(path, self._rows())
        lines = path.read_text().splitlines()
        assert lines[0] == "target,delta,method,s_star,m,sr,lambda,sigma,rmse,fit_seconds"
        assert ",,," not in lines[1]        # only sigma may be empty
        assert lines[1].split(",")[7] == ""

    def test_read_rejects_malformed(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        with pytest.raises(ValueError, match="header"):
            read_results_csv(bad)
        bad.write_text("target,delta,method,s_star,m,sr,lambda,sigma,rmse,fit_seconds\n"
                       "f2,0.1,design\n")
        with pytest.raises(ValueError, match="fields"):
            read_results_csv(bad)

    def test_seed_detail_schema(self, tmp_path):
        path = tmp_path / "detail.csv"
        write_seed_detail_csv(path, [(101, self._rows()[0])])
        lines = path.read_text().splitlines()
        assert lines[0] == "target,delta,s_star,m,seed,lambda,sigma,rmse,fit_seconds"
        assert len(lines) == 2
        assert lines[1].split(",")[4] == "101"

    def test_field_csv(self, tmp_path):
        export = run_simulation3(toy_config(sim3_grid_n=50, n_test=100))
        path = tmp_path / "field.csv"
        write_field_csv(path, export)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,z,exact,noisy,prediction,abs_error"
        assert len(lines) == 51
        assert all(len(line.split(",")) == 7 for line in lines[1:])

    def test_sort_rows_stable_and_total(self):
        rows = self._rows()
        assert sort_rows(rows[::-1]) == sort_rows(rows)
