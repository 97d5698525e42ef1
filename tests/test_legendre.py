import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphfit import legendre
from sphfit.legendre import (DesignReport, design_residual, legendre_p,
                             verify_design)
from sphfit.points import PointSet, generate_spiral

from conftest import random_unit_points


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
        # 7-row blocks: the 30 points span four full blocks and a ragged one
        monkeypatch.setattr(legendre, "RESIDUAL_ROW_BLOCK", 7)
        ps = PointSet(random_unit_points(rng, 30))
        dots = np.clip(ps.xyz @ ps.xyz.T, -1, 1)
        for k in range(1, 6):
            direct = float(np.mean(legendre_p(k, dots)))
            assert design_residual(ps, k) == pytest.approx(max(direct, 0.0), abs=1e-14)


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
