import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphfit.kernels as kernels_mod
import sphfit.points as points_mod
from sphfit.designs import load_design
from sphfit.kernels import MatrixSizeError
from sphfit.points import (EqPartition, PointFileError, PointSet,
                           eq_area_centers, eq_area_partition,
                           generate_spiral, load_point_file, mesh_norm,
                           save_point_file, separation_radius)

from conftest import random_unit_points, traced_peak


def region_of(part: EqPartition, xyz: np.ndarray) -> np.ndarray:
    """Region index (0..n-1, in center-point order) of each row of `xyz`."""
    xyz = np.atleast_2d(xyz)
    colat = np.arccos(np.clip(xyz[:, 2], -1.0, 1.0))
    az = np.mod(np.arctan2(xyz[:, 1], xyz[:, 0]), 2.0 * np.pi)
    idx = np.zeros(len(colat), dtype=int)
    if part.n == 1:
        return idx
    zone = np.clip(np.searchsorted(part.cap_colats, colat, side="right"), 0,
                   len(part.collar_counts) + 1)
    first = 1
    for ci, (count, off) in enumerate(zip(part.collar_counts, part.offsets)):
        in_collar = zone == ci + 1
        cell = np.floor(np.mod(az[in_collar] / (2 * np.pi) - off, 1.0) * count).astype(int)
        idx[in_collar] = first + np.clip(cell, 0, count - 1)
        first += count
    idx[zone == len(part.collar_counts) + 1] = part.n - 1
    return idx


class TestPointSet:
    def test_validates_unit_norm(self):
        with pytest.raises(ValueError, match="unit norm"):
            PointSet(np.array([[1.0, 1.0, 0.0]]))

    def test_rejects_empty_and_bad_shape(self):
        with pytest.raises(ValueError):
            PointSet(np.empty((0, 3)))
        with pytest.raises(ValueError):
            PointSet(np.ones((3, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PointSet(np.array([[np.nan, 0.0, 0.0]]))

    def test_immutable(self):
        ps = PointSet(np.eye(3))
        with pytest.raises(ValueError):
            ps.xyz[0, 0] = 2.0

    def test_take_preserves_order(self):
        ps = PointSet(np.eye(3))
        sub = ps.take([2, 0])
        assert np.array_equal(sub.xyz, ps.xyz[[2, 0]])
        assert sub.design_degree is None


class TestLoadSave:
    def test_basic_parse(self, tmp_path):
        f = tmp_path / "pts.txt"
        f.write_text("# comment\n0 0 1\n\n0 0 -1\n")
        ps = load_point_file(f)
        assert len(ps) == 2
        assert np.allclose(ps.xyz, [[0, 0, 1], [0, 0, -1]])

    def test_round_trip_is_exact(self, tmp_path, rng):
        ps = PointSet(random_unit_points(rng, 37))
        f = tmp_path / "rt.txt"
        save_point_file(f, ps, header="round trip")
        back = load_point_file(f)
        # 17 significant digits reproduce doubles exactly; renormalization
        # divides by a norm that is exactly 1.0 here
        assert np.array_equal(back.xyz, ps.xyz)

    def test_wrong_field_count(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0 0 1\n0 0\n")
        with pytest.raises(PointFileError, match="bad.txt:2"):
            load_point_file(f)

    def test_unparsable_number(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0 zero 1\n")
        with pytest.raises(PointFileError, match="bad.txt:1"):
            load_point_file(f)

    def test_norm_out_of_tolerance(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0 0 1.001\n")
        with pytest.raises(PointFileError, match="norm"):
            load_point_file(f)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_names_its_line(self, tmp_path, bad):
        f = tmp_path / "bad.txt"
        f.write_text(f"0 0 1\n{bad} 0 0\n")
        with pytest.raises(PointFileError, match="bad.txt:2: non-finite"):
            load_point_file(f)

    def test_renormalizes_small_deviation(self, tmp_path):
        f = tmp_path / "near.txt"
        f.write_text("0 0 1.0000001\n")
        ps = load_point_file(f)
        assert abs(np.linalg.norm(ps.xyz[0]) - 1.0) <= 1e-12

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("# nothing\n")
        with pytest.raises(PointFileError, match="no points"):
            load_point_file(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(PointFileError, match="no such file"):
            load_point_file(tmp_path / "absent.txt")


class TestSpiral:
    def test_n2_is_pole_pair(self):
        ps = generate_spiral(2)
        assert np.array_equal(ps.xyz, [[0, 0, -1], [0, 0, 1]])

    def test_unit_norm_large(self):
        ps = generate_spiral(10000)
        assert np.abs(np.linalg.norm(ps.xyz, axis=1) - 1).max() <= 1e-12

    def test_deterministic(self):
        assert np.array_equal(generate_spiral(500).xyz, generate_spiral(500).xyz)

    def test_endpoints_pinned(self):
        ps = generate_spiral(101)
        assert np.array_equal(ps.xyz[0], [0, 0, -1])
        assert np.array_equal(ps.xyz[-1], [0, 0, 1])

    def test_n100_well_spread(self):
        ps = generate_spiral(100)
        assert separation_radius(ps) > 0
        assert mesh_norm(ps) < 0.5

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            generate_spiral(1)

    @pytest.mark.parametrize("n", [2, 3, 10, 2000, 10000, 40000])
    def test_matches_loop_oracle_bitwise(self, n):
        # the azimuths as one Python loop computed them, step and all, with
        # the rest of the construction unchanged
        h = -1.0 + 2.0 * np.arange(n) / (n - 1)
        theta = np.arccos(np.clip(h, -1.0, 1.0))
        phi = np.zeros(n)
        acc = 0.0
        for i in range(1, n - 1):
            acc = (acc + 3.6 / math.sqrt(n * (1.0 - h[i] * h[i]))) % (2.0 * math.pi)
            phi[i] = acc
        sin_t = np.sin(theta)
        xyz = np.column_stack([sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)])
        xyz[0] = (0.0, 0.0, -1.0)
        xyz[-1] = (0.0, 0.0, 1.0)
        expect = xyz / np.linalg.norm(xyz, axis=1, keepdims=True)
        assert generate_spiral(n).xyz.tobytes() == expect.tobytes()


class TestGeneratorBudget:
    """Generated point sets are sized from outside the program (``--n``,
    ``n_points``, ``grid_n``), so they are checked against the memory budget."""

    @pytest.mark.parametrize("make, what", [
        (generate_spiral, "spiral of 10000 points"),
        (eq_area_centers, "equal-area centers of 10000 regions")])
    def test_refused_before_allocating(self, make, what, monkeypatch):
        monkeypatch.setattr(kernels_mod, "DEFAULT_MEMORY_BUDGET", 2**20)
        tracemalloc.start()
        try:
            with pytest.raises(MatrixSizeError, match=what):
                make(10_000)
            assert tracemalloc.get_traced_memory()[1] < 2**16
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("make, per_point", [(generate_spiral, "SPIRAL_BYTES_PER_POINT"),
                                                 (eq_area_centers, "EQ_AREA_BYTES_PER_POINT")])
    def test_peak_within_bytes_per_point(self, make, per_point):
        n = 100_000
        assert traced_peak(lambda: make(n)) <= getattr(points_mod, per_point) * n


class TestEqArea:
    def test_n1_north_pole(self):
        assert np.array_equal(eq_area_centers(1).xyz, [[0.0, 0.0, 1.0]])

    def test_n2_poles(self):
        assert np.allclose(eq_area_centers(2).xyz, [[0, 0, 1], [0, 0, -1]],
                           atol=1e-15)

    def test_counts_match(self):
        for n in (3, 7, 20, 33, 100):
            assert len(eq_area_centers(n)) == n

    def test_deterministic(self):
        assert np.array_equal(eq_area_centers(20).xyz, eq_area_centers(20).xyz)

    def test_centers_against_independent_transcription(self):
        """Plain scalar re-derivation of the zonal partition centers."""
        n = 20
        # polar cap colatitude: cap area 4*pi/n
        c_polar = math.acos(1 - 2 / n)
        ideal_angle = math.sqrt(4 * math.pi / n)
        n_collars = max(1, round((math.pi - 2 * c_polar) / ideal_angle))
        fitting = (math.pi - 2 * c_polar) / n_collars
        ideal = [n * (math.cos(c_polar + i * fitting)
                      - math.cos(c_polar + (i + 1) * fitting)) / 2
                 for i in range(n_collars)]
        counts, disc = [], 0.0
        for r in ideal:
            k = round(r + disc)
            counts.append(k)
            disc += r - k
        assert sum(counts) == n - 2
        # collar boundaries that give each cell area exactly 4*pi/n
        bounds, cum = [c_polar], 1
        for c in counts:
            cum += c
            bounds.append(math.acos(1 - 2 * cum / n))
        offsets, off = [0.0], 0.0
        for a, b in zip(counts, counts[1:]):
            off += (1 / b - 1 / a) / 2 + math.gcd(a, b) / (2 * a * b)
            off %= 1.0
            offsets.append(off)
        expect = [(0.0, 0.0, 1.0)]
        for ci, c in enumerate(counts):
            colat = (bounds[ci] + bounds[ci + 1]) / 2
            for j in range(c):
                az = 2 * math.pi * ((j + 0.5) / c + offsets[ci])
                expect.append((math.sin(colat) * math.cos(az),
                               math.sin(colat) * math.sin(az),
                               math.cos(colat)))
        expect.append((0.0, 0.0, -1.0))
        assert np.allclose(eq_area_centers(n).xyz, expect, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_region_areas_monte_carlo(self, n, rng):
        part = eq_area_partition(n)
        samples = random_unit_points(rng, 10**6)
        counts = np.bincount(region_of(part, samples), minlength=n)
        assert counts.sum() == len(samples)
        rel = np.abs(counts / len(samples) - 1 / n) * n
        assert rel.max() < 0.01

    def test_region_of_centers_is_identity(self):
        for n in (5, 12, 20, 47):
            part = eq_area_partition(n)
            assert np.array_equal(region_of(part, eq_area_centers(n).xyz),
                                  np.arange(n))


class TestDiagnostics:
    def test_mesh_norm_single_point(self):
        assert mesh_norm(PointSet(np.array([[0.0, 0.0, 1.0]]))) == pytest.approx(math.pi)

    def test_mesh_norm_antipodal_pair(self):
        pair = PointSet(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
        assert mesh_norm(pair) == pytest.approx(math.pi / 2, rel=1e-3)

    def test_mesh_norm_brute_force(self, rng):
        ps = load_design(5)
        probes = random_unit_points(rng, 10**6)
        nearest = np.arccos(np.clip((probes @ ps.xyz.T).max(axis=1), -1, 1))
        brute = nearest.max()
        assert mesh_norm(ps) == pytest.approx(brute, rel=0.02)

    def test_separation_antipodal(self):
        pair = PointSet(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
        assert separation_radius(pair) == pytest.approx(math.pi / 2)

    def test_separation_orthogonal(self):
        pair = PointSet(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
        assert separation_radius(pair) == pytest.approx(math.pi / 4)

    def test_separation_duplicate_point(self):
        ps = PointSet(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
        assert separation_radius(ps) == pytest.approx(0.0, abs=1e-7)

    def test_separation_needs_two(self):
        with pytest.raises(ValueError):
            separation_radius(PointSet(np.array([[0.0, 0.0, 1.0]])))

    def test_mesh_norm_memory_bounded(self):
        # 165600 probe points against the 1656-point design: built 65536 rows
        # at a time, the probe matrix peaked at 834 MiB traced
        ps = load_design(57)
        tracemalloc.start()
        try:
            value = mesh_norm(ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20
        # the value before the blocking changed, up to BLAS rounding
        assert value == pytest.approx(0.06789150839852381, rel=1e-12)

    def test_separation_blockwise_matches_direct(self, monkeypatch):
        # 3-row blocks: the 10 points span three full blocks and a ragged one
        ps = generate_spiral(10)
        dots = ps.xyz @ ps.xyz.T
        np.fill_diagonal(dots, -2.0)
        expect = np.arccos(np.clip(dots.max(), -1.0, 1.0)) / 2.0
        monkeypatch.setattr(points_mod, "BLOCK_BYTES", 3 * 8 * 10)
        assert separation_radius(ps) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("n", [10, 64, 301])
    def test_separation_below_mesh_norm(self, n):
        ps = generate_spiral(n)
        assert separation_radius(ps) <= mesh_norm(ps)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=400), st.integers(min_value=0, max_value=2**32 - 1))
def test_random_sets_unit_invariant(n, seed):
    pts = random_unit_points(np.random.default_rng(seed), n)
    ps = PointSet(pts)
    assert np.abs(np.linalg.norm(ps.xyz, axis=1) - 1).max() <= 1e-12
