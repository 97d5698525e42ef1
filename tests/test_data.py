import math

import numpy as np
import pytest

from sphfit.data import (Dataset, NoiseModel, TargetFunction,
                         default_f2_centers, franke_f1, load_dataset,
                         make_dataset, rmse, sample_truncated_gaussian,
                         save_dataset, wendland_target_f2)
from sphfit.kernels import KernelSpec
from sphfit.points import PointSet, generate_spiral
from sphfit.solver import fit_sketched

from conftest import random_unit_points, wendland_psi


def franke_scalar(x, y, z, exp=math.exp):
    """Independent term-by-term transcription for cross-checking."""
    t1 = 0.75 * exp(-(9 * x - 2) ** 2 / 4 - (9 * y - 2) ** 2 / 4 - (9 * z - 2) ** 2 / 4)
    t2 = 0.75 * exp(-(9 * x + 1) ** 2 / 49 - (9 * y + 1) / 10 - (9 * z + 1) / 10)
    t3 = 0.5 * exp(-(9 * x - 7) ** 2 / 4 - (9 * y - 3) ** 2 / 4 - (9 * z - 5) ** 2 / 4)
    t4 = -0.2 * exp(-(9 * x - 4) ** 2 - (9 * y - 7) ** 2 - (9 * z - 5) ** 2)
    return t1 + t2 + t3 + t4


class TestFranke:
    def test_north_pole_value(self):
        got = franke_f1(np.array([0.0, 0.0, 1.0]))
        assert got == pytest.approx(franke_scalar(0.0, 0.0, 1.0), abs=1e-15)

    def test_peak_region_value(self):
        # near the first bump: x = y = 2/9 puts two quadratics at zero
        x = y = 2.0 / 9.0
        z = math.sqrt(1 - x * x - y * y)
        got = franke_f1(np.array([x, y, z]))
        assert got == pytest.approx(franke_scalar(x, y, z), abs=1e-15)

    def test_matches_scalar_transcription_everywhere(self, rng):
        pts = random_unit_points(rng, 300)
        vec = franke_f1(pts)
        for p, v in zip(pts, vec):
            assert v == pytest.approx(franke_scalar(*p), abs=1e-14)

    def test_extended_precision_agreement(self, rng):
        # recompute in long double; double evaluation must agree closely
        pts = random_unit_points(rng, 50)
        vec = franke_f1(pts)
        for p, v in zip(pts, vec):
            hi = franke_scalar(np.longdouble(p[0]), np.longdouble(p[1]),
                               np.longdouble(p[2]), exp=np.exp)
            assert abs(float(hi) - v) <= 1e-13

    def test_observed_range_on_sphere(self):
        # dense check: values stay in (-0.2, 2.2); the second term's linear
        # part pushes the supremum above 2 near the x = y = -1/9 meridian
        vals = franke_f1(generate_spiral(200000).xyz)
        assert vals.min() > -0.2
        assert vals.max() < 2.2
        assert vals.max() > 2.0

    def test_second_term_linear_not_squared(self):
        # distinguishes the correct form from the all-squared variant
        x, y, z = 0.1, -0.6, math.sqrt(1 - 0.01 - 0.36)
        wrong = 0.75 * math.exp(-(9 * x + 1) ** 2 / 49
                                - (9 * y + 1) ** 2 / 10 - (9 * z + 1) ** 2 / 10)
        right = 0.75 * math.exp(-(9 * x + 1) ** 2 / 49
                                - (9 * y + 1) / 10 - (9 * z + 1) / 10)
        full = franke_f1(np.array([x, y, z]))
        rest = franke_scalar(x, y, z) - right
        assert full == pytest.approx(rest + right, abs=1e-15)
        assert abs(full - (rest + wrong)) > 1e-3


class TestWendlandTarget:
    def test_default_centers_are_twenty(self):
        assert len(default_f2_centers()) == 20

    def test_double_loop_oracle(self, rng):
        centers = default_f2_centers()
        pts = random_unit_points(rng, 40)
        vec = wendland_target_f2(pts)
        for p, v in zip(pts, vec):
            acc = 0.0
            for c in centers.xyz:
                acc += wendland_psi(float(np.linalg.norm(p - c)))
            assert v == pytest.approx(acc, abs=1e-14)

    def test_north_pole_hits_first_center(self):
        # first default center is the north pole itself: self-term is 1
        v = wendland_target_f2(np.array([0.0, 0.0, 1.0]))
        assert v >= 1.0

    def test_value_at_each_center_at_least_one(self):
        centers = default_f2_centers()
        vals = wendland_target_f2(centers.xyz)
        assert np.all(vals >= 1.0 - 1e-12)

    def test_exactly_representable_by_kernel(self, design13):
        # f2 IS a Wendland expansion: unit coefficients at the bump centers
        centers = default_f2_centers()
        y = wendland_target_f2(design13.xyz)
        model = fit_sketched(KernelSpec.wendland(), design13, y, centers, 1e-12)
        assert np.abs(model.coefficients - 1.0).max() < 1e-6


class TestTargetFunction:
    def test_by_name_round_trip(self):
        assert TargetFunction.by_name("f1").name == "f1"
        f2 = TargetFunction.by_name("f2")
        assert f2.name == "f2" and len(f2.centers) == 20

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown target"):
            TargetFunction("f3")

    def test_call_accepts_pointset_and_array(self, rng):
        pts = random_unit_points(rng, 10)
        f1 = TargetFunction.by_name("f1")
        assert np.array_equal(f1(PointSet(pts)), f1(pts))


class TestNoise:
    def test_moment_check(self):
        noise = NoiseModel(delta=0.5, seed=42)
        eps = sample_truncated_gaussian(noise, 10**5)
        assert abs(eps.mean()) < 0.01
        assert abs(eps.std() - 0.5) < 0.01

    def test_zero_delta_is_silent(self):
        eps = sample_truncated_gaussian(NoiseModel(0.0, seed=1), 1000)
        assert np.array_equal(eps, np.zeros(1000))

    def test_bound_clips(self):
        eps = sample_truncated_gaussian(NoiseModel(100.0, seed=5), 10**4)
        assert np.abs(eps).max() <= 10.0
        assert (np.abs(eps) == 10.0).sum() > 100   # clipping actually binds

    def test_deterministic_per_seed(self):
        a = sample_truncated_gaussian(NoiseModel(0.1, seed=9), 50)
        b = sample_truncated_gaussian(NoiseModel(0.1, seed=9), 50)
        c = sample_truncated_gaussian(NoiseModel(0.1, seed=10), 50)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_delta_scales_common_draw(self):
        # same seed, different delta: identical underlying standard draw
        lo = sample_truncated_gaussian(NoiseModel(0.1, seed=3), 200)
        hi = sample_truncated_gaussian(NoiseModel(0.5, seed=3), 200)
        assert np.allclose(hi, 5.0 * lo, atol=1e-15)

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            NoiseModel(-0.1, seed=0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_delta(self, delta):
        # nan gave NaN labels, inf noise clipped to +-bound
        with pytest.raises(ValueError, match="finite"):
            NoiseModel(delta, seed=0)


class TestDataset:
    def test_make_dataset_bitwise_deterministic(self, design13):
        target = TargetFunction.by_name("f2")
        noise = NoiseModel(0.1, seed=77)
        a = make_dataset(design13, target, noise)
        b = make_dataset(design13, target, noise)
        assert np.array_equal(a.labels, b.labels)

    def test_labels_are_target_plus_noise(self, design13):
        target = TargetFunction.by_name("f1")
        noise = NoiseModel(0.25, seed=8)
        ds = make_dataset(design13, target, noise)
        resid = ds.labels - target(design13)
        draw = sample_truncated_gaussian(noise, len(design13))
        assert np.allclose(resid, draw, atol=1e-12)

    def test_label_noise_scale_on_large_design(self):
        from sphfit import load_design
        d57 = load_design(57)
        ds = make_dataset(d57, TargetFunction.by_name("f2"), NoiseModel(0.1, seed=4))
        resid = ds.labels - TargetFunction.by_name("f2")(d57)
        assert 0.09 <= resid.std() <= 0.11

    def test_length_mismatch_rejected(self, design13):
        with pytest.raises(ValueError):
            Dataset(design13, np.zeros(3), TargetFunction.by_name("f1"),
                    NoiseModel(0.0, seed=0))

    def test_round_trip_csv(self, design13, tmp_path):
        ds = make_dataset(design13, TargetFunction.by_name("f2"),
                          NoiseModel(0.1, seed=21))
        path = tmp_path / "data.csv"
        save_dataset(path, ds)
        pts, labels = load_dataset(path)
        assert np.array_equal(pts.xyz, design13.xyz)
        assert np.array_equal(labels, ds.labels)


class TestRmse:
    def _constant_zero_model(self):
        north = PointSet(np.array([[0.0, 0.0, 1.0]]))
        model = fit_sketched(KernelSpec.wendland(), north, [1.0], north, 0.5)
        return fit_sketched(KernelSpec.wendland(), north, [0.0], north, 0.5)

    def test_zero_model_gives_label_rms(self):
        model = self._constant_zero_model()
        pts = PointSet(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
        assert rmse(model, pts, [1.0, 0.0]) == pytest.approx(math.sqrt(0.5))
        assert rmse(model, pts, [3.0, -4.0]) == pytest.approx(math.sqrt(12.5))

    def test_perfect_model_zero_error(self, design13):
        y = wendland_target_f2(design13.xyz)
        model = fit_sketched(KernelSpec.wendland(), design13, y,
                             default_f2_centers(), 1e-12)
        assert rmse(model, design13, y) < 1e-8

    def test_returns_python_float(self):
        model = self._constant_zero_model()
        pts = PointSet(np.array([[0.0, 0.0, 1.0]]))
        assert type(rmse(model, pts, [1.0])) is float

    def test_length_check(self):
        model = self._constant_zero_model()
        pts = PointSet(np.array([[0.0, 0.0, 1.0]]))
        with pytest.raises(ValueError):
            rmse(model, pts, [1.0, 2.0])
