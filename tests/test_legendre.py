import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphfit import kernels, legendre, load_design, points
from sphfit.kernels import MatrixSizeError
from sphfit.legendre import TABLE_BYTES_PER_ENTRY, harmonic_residuals, verify_design
from sphfit.points import PointSet, generate_spiral

from conftest import random_unit_points, traced_peak


# The O(N^2 t) oracle: residuals as the double sum of P_k(x_i . x_j) over
# all pairs, with P_k from the three-term recurrence.

def _legendre_series(u, k_max: int):
    """Yield P_1(u), ..., P_{k_max}(u) by the three-term recurrence
    ``(k+1) P_{k+1} = (2k+1) u P_k - k P_{k-1}``; stable on [-1, 1].
    """
    pkm1, pk = 1.0, u
    for k in range(k_max):
        if k:
            pkm1, pk = pk, ((2 * k + 1) * u * pk - k * pkm1) / (k + 1)
        yield pk


def legendre_p(k: int, u) -> np.ndarray | float:
    """Legendre polynomial P_k(u), normalized so P_k(1) = 1; `u` may
    exceed [-1, 1] by at most 1e-12 (clamped)."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    u_arr = np.asarray(u, dtype=float)
    if np.any(np.abs(u_arr) > 1.0 + 1e-12):
        raise ValueError("argument outside [-1, 1] beyond clamp tolerance")
    u_arr = np.atleast_1d(np.clip(u_arr, -1.0, 1.0))
    out = np.ones_like(u_arr)
    for out in _legendre_series(u_arr, k):
        pass
    return float(out[0]) if np.ndim(u) == 0 else out


def _residual_sweep(xyz: np.ndarray, k_max: int) -> np.ndarray:
    """``(1/N^2) sum_ij P_k(x_i . x_j)`` for k = 1..k_max, in 512-row blocks."""
    n = len(xyz)
    sums = np.zeros(k_max)
    for lo in range(0, n, 512):
        u = np.clip(xyz[lo:lo + 512] @ xyz.T, -1.0, 1.0)
        for k, pk in enumerate(_legendre_series(u, k_max)):
            sums[k] += pk.sum()
    return sums / n**2


def table_residuals(xyz: np.ndarray, k_max: int) -> np.ndarray:
    """The harmonic sums with the recurrence coefficients read from two
    (k_max + 1)^2 tables, built once.  The bitwise oracle of
    :func:`harmonic_residuals`, which computes them per degree."""
    xyz = np.asarray(xyz, dtype=float)
    n, size = len(xyz), k_max + 1
    kk = np.arange(size, dtype=float)[:, None]
    mm = kk.T
    with np.errstate(invalid="ignore"):     # entries with m >= k go unused
        c = np.sqrt((kk - 1) ** 2 - mm * mm)
        d = np.sqrt(kk * kk - mm * mm)
    j = np.arange(1, size)
    diag_scale = np.sqrt((2 * j - 1) / (2 * j))
    sums = np.zeros((size, size), dtype=complex)
    for rows in points._row_blocks(n, 6 * size):
        x, y, z = xyz[rows].T
        z2 = np.repeat(z, 2)
        w = x + 1j * y
        diag = np.ones(len(z), dtype=complex)
        prev2, prev, tmp = (np.zeros((size, len(z)), dtype=complex) for _ in range(3))
        prev[0] = 1.0
        for k in range(1, size):
            new, new_f = prev2[:k], prev2[:k].view(float)
            new_f *= -c[k, :k, None]
            np.multiply(prev[:k].view(float), (2 * k - 1) * z2, out=tmp[:k].view(float))
            new += tmp[:k]
            new_f /= d[k, :k, None]
            diag *= w
            diag *= diag_scale[k - 1]
            prev2[k] = diag
            sums[k, :k + 1] += prev2[:k + 1].sum(axis=1)
            prev2, prev = prev, prev2
    power = sums[1:].real ** 2 + sums[1:].imag ** 2
    return (power[:, 0] + 2.0 * power[:, 1:].sum(axis=1)) / n**2


def design_residual(point_set: PointSet, k: int) -> float:
    """Double-sum residual at degree `k`, cancellation noise clamped to 0."""
    return max(float(_residual_sweep(point_set.xyz, k)[k - 1]), 0.0)


class TestLegendreP:
    def test_low_degree_closed_forms(self):
        u = np.linspace(-1, 1, 41)
        assert np.allclose(legendre_p(0, u), np.ones_like(u), atol=1e-15)
        assert np.allclose(legendre_p(1, u), u, atol=1e-15)
        assert np.allclose(legendre_p(2, u), (3 * u**2 - 1) / 2, atol=1e-14)
        assert np.allclose(legendre_p(3, u), (5 * u**3 - 3 * u) / 2, atol=1e-14)

    def test_point_values(self):
        assert legendre_p(2, 0.0) == pytest.approx(-0.5)
        assert legendre_p(7, 1.0) == pytest.approx(1.0)
        assert legendre_p(7, -1.0) == pytest.approx(-1.0)
        assert legendre_p(10, -1.0) == pytest.approx(1.0)

    def test_scalar_in_scalar_out(self):
        v = legendre_p(4, 0.3)
        assert isinstance(v, float)

    def test_matches_numpy_reference(self, rng):
        u = rng.uniform(-1, 1, size=200)
        for k in (5, 11, 24, 60):
            ref = np.polynomial.legendre.legval(u, np.eye(k + 1)[k])
            assert np.allclose(legendre_p(k, u), ref, atol=1e-11)

    def test_bounded_high_degree(self):
        u = np.linspace(-1, 1, 2001)
        for k in (100, 300):
            assert np.abs(legendre_p(k, u)).max() <= 1.0 + 1e-9

    def test_orthogonality_trapezoid(self):
        # \int_{-1}^{1} P_j P_k du = 2/(2k+1) delta_jk
        u = np.linspace(-1.0, 1.0, 100001)
        vals = {k: legendre_p(k, u) for k in range(8)}
        for j in range(8):
            for k in range(8):
                integral = np.trapezoid(vals[j] * vals[k], u)
                if j == k:
                    assert integral == pytest.approx(2 / (2 * k + 1), abs=1e-6)
                else:
                    assert abs(integral) <= 1e-6

    def test_domain_clamp(self):
        # tiny overshoots from dot products are clamped, real ones rejected
        assert legendre_p(3, 1.0 + 5e-13) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="outside"):
            legendre_p(3, 1.1)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=40),
           st.floats(min_value=-1.0, max_value=1.0))
    def test_bounded_property(self, k, u):
        assert abs(legendre_p(k, u)) <= 1.0 + 1e-10


class TestDesignResidual:
    def test_single_point(self):
        ps = PointSet(np.array([[0.0, 0.0, 1.0]]))
        # r_k = P_k(1) = 1 for every k with one point
        assert design_residual(ps, 3) == pytest.approx(1.0)

    def test_antipodal_pair(self):
        pair = PointSet(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
        # odd-degree terms cancel; degree 2 sees (P2(1)*2 + P2(-1)*2)/4 = 1
        assert design_residual(pair, 1) == pytest.approx(0.0, abs=1e-15)
        assert design_residual(pair, 2) == pytest.approx(1.0)

    def test_nonnegative_on_random_sets(self, rng):
        for n in (5, 40):
            ps = PointSet(random_unit_points(rng, n))
            for k in range(1, 8):
                assert design_residual(ps, k) >= 0.0

    def test_quadrature_identity_oracle(self, design13, rng):
        """r_k equals the squared norm of the mean harmonic vector.

        Cross-check the double-sum formula against an independent route:
        averaging P_k(x . y) over a degree-exact node set integrates to 0,
        so the residual of a verified design must vanish through its degree
        and the spiral set (not a design) must not.
        """
        for k in (1, 7, 13):
            assert design_residual(design13, k) <= 1e-10
        spiral = generate_spiral(94)
        assert design_residual(spiral, 2) > 1e-6

    def test_blockwise_matches_direct(self, rng, monkeypatch):
        # a budget of a few points per block: the 30 points span several
        # full blocks and a ragged last one
        monkeypatch.setattr(points, "BLOCK_BYTES", 2400)
        sizes = []

        def spy(n_rows, n_cols):
            for rows in points._row_blocks(n_rows, n_cols):
                sizes.append(len(range(n_rows)[rows]))
                yield rows

        monkeypatch.setattr(legendre, "_row_blocks", spy)
        ps = PointSet(random_unit_points(rng, 30))
        blockwise = harmonic_residuals(ps.xyz, 5)
        assert len(sizes) > 2 and sizes[-1] < sizes[0]
        dots = np.clip(ps.xyz @ ps.xyz.T, -1, 1)
        for k in range(1, 6):
            direct = float(np.mean(legendre_p(k, dots)))
            assert blockwise[k - 1] == pytest.approx(direct, abs=1e-14)


class TestHarmonicResiduals:
    """The O(N t^2) harmonic sums against the O(N^2 t) double sum."""

    @staticmethod
    def _agree(xyz, k_max):
        fast = harmonic_residuals(xyz, k_max)
        assert fast.shape == (k_max,)
        assert np.all(fast >= 0.0)
        np.testing.assert_allclose(fast, _residual_sweep(xyz, k_max), rtol=0, atol=1e-14)
        return fast

    @pytest.mark.parametrize("t", [13, 57])
    def test_bundled_designs(self, t):
        self._agree(load_design(t).xyz, t)

    def test_spiral_at_degree_57(self):
        self._agree(generate_spiral(1656).xyz, 57)

    @pytest.mark.parametrize("n", [5, 40])
    def test_random_sets(self, rng, n):
        # Through degree 12: on a few points the double sum's own rounding
        # grows with the degree (about 5e-14 at k = 57 for 5 points, where
        # the harmonic sums stay within 1e-15 of a 40-digit reference).
        self._agree(random_unit_points(rng, n), 12)

    def test_point_at_each_pole(self, rng):
        # x + iy = 0 at the poles: every m >= 1 harmonic vanishes there
        poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        self._agree(np.vstack([poles, random_unit_points(rng, 10)]), 12)

    def test_single_point_is_one_at_every_degree(self):
        fast = self._agree(np.array([[0.6, 0.0, 0.8]]), 20)
        np.testing.assert_allclose(fast, 1.0, rtol=0, atol=1e-14)

    def test_antipodal_pair(self):
        fast = self._agree(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]), 8)
        assert np.array_equal(fast, np.tile([0.0, 1.0], 4))

    def test_rotation_invariant(self, design13, rng):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        np.testing.assert_allclose(harmonic_residuals(design13.xyz @ q.T, 15),
                                   harmonic_residuals(design13.xyz, 15),
                                   rtol=1e-12, atol=1e-15)


class TestAgainstCoefficientTables:
    """Per-degree recurrence coefficients give the tables' residuals bit for bit."""

    # "ragged-blocks" takes 7 points a block: 14 full blocks and a ragged one of 2.
    @pytest.mark.parametrize("xyz, k_max, block_rows", [
        (lambda: load_design(57).xyz, 57, None), (lambda: load_design(13).xyz, 40, None),
        (lambda: generate_spiral(2000).xyz, 50, None),
        (lambda: generate_spiral(300).xyz, 300, None),
        (lambda: generate_spiral(100).xyz, 10, 7), (lambda: generate_spiral(10).xyz, 0, None)],
        ids=["design57", "design13-t40", "spiral2000-t50", "spiral300-t300", "ragged-blocks",
             "no-degree"])
    def test_byte_equal(self, xyz, k_max, block_rows, monkeypatch):
        if block_rows:
            monkeypatch.setattr(points, "BLOCK_BYTES", block_rows * 8 * 6 * (k_max + 1))
        xyz = xyz()
        assert harmonic_residuals(xyz, k_max).tobytes() == table_residuals(xyz, k_max).tobytes()


class TestVerifyDesign:
    def test_design13_verifies_exactly_13(self, design13):
        report = verify_design(design13, t_max=15)
        assert report.max_verified_degree == 13
        assert report.tolerance == 1e-8
        ks = [k for k, _ in report.residuals]
        assert ks == list(range(1, 16))

    def test_design17_verifies_17(self, design17):
        assert verify_design(design17, t_max=17).max_verified_degree == 17

    def test_union_of_designs_is_design(self):
        from sphfit import load_design
        d5 = load_design(5)
        both = PointSet(np.vstack([d5.xyz, d5.xyz]))
        assert verify_design(both, t_max=5).max_verified_degree == 5

    def test_prefix_rule(self, rng):
        # random points fail early: verified degree is the consecutive run
        ps = PointSet(random_unit_points(rng, 12))
        report = verify_design(ps, t_max=6)
        assert report.max_verified_degree < 6

    def test_report_renders_table(self, design13):
        text = str(verify_design(design13, t_max=5))
        assert "degree" in text
        assert text.count("\n") >= 5

    def test_rejects_bad_tmax(self, design13):
        with pytest.raises(ValueError):
            verify_design(design13, t_max=0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-8])
    def test_rejects_tolerance_that_is_not_finite_and_positive(self, tol):
        # a NaN or infinite tolerance would certify any point set
        with pytest.raises(ValueError, match="tolerance"):
            verify_design(generate_spiral(300), t_max=5, tol=tol)


class TestMemoryBudget:
    """The (t_max + 1)^2 sums and a point block are estimated before they are
    allocated."""

    @staticmethod
    def _need(t_max):
        size = t_max + 1
        return (TABLE_BYTES_PER_ENTRY * size * size + points.BLOCK_BYTES * (size + 1) // size
                + 8 * np.getbufsize())

    @pytest.mark.parametrize("n", [94, 108, 2000])
    @pytest.mark.parametrize("t_max", [50, 200])
    def test_estimate_bounds_traced_peak(self, n, t_max):
        # one block (94, 108 points) and several (2000) at either degree
        xyz = generate_spiral(n).xyz
        assert traced_peak(lambda: harmonic_residuals(xyz, t_max)) <= self._need(t_max)

    def test_sums_are_the_only_tables(self):
        # at t_max = 400 the (t_max + 1)^2 arrays set the peak: the complex
        # sums and the two squares of their parts, 32 bytes an entry in all.
        # Two coefficient tables would add 16 more.
        xyz = generate_spiral(94).xyz
        peak = traced_peak(lambda: harmonic_residuals(xyz, 400))
        assert peak <= 32 * 401**2 + points.BLOCK_BYTES

    def test_refused_above_budget_admitted_at_it(self, design13, monkeypatch):
        monkeypatch.setattr(kernels, "DEFAULT_MEMORY_BUDGET", 2**20)
        need = self._need(200)
        with pytest.raises(MatrixSizeError, match=f"t_max = 200 needs {need} bytes"):
            verify_design(design13, t_max=200)
        with pytest.raises(MatrixSizeError, match="t_max = 200"):
            harmonic_residuals(design13.xyz, 200)
        monkeypatch.setattr(kernels, "DEFAULT_MEMORY_BUDGET", need)
        assert verify_design(design13, t_max=200).max_verified_degree == 13
