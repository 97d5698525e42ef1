import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphfit import kernels
from sphfit.kernels import (KernelSpec, MatrixSizeError, cross_matrix, gram,
                            zonal_value)
from sphfit.designs import available_degrees, load_design
from sphfit.points import PointSet, _row_blocks, generate_spiral
import sphfit.points as points_mod

from conftest import blockwise_cross_matrix, random_unit_points, traced_peak, wendland_psi


class TestWendlandPsi:
    """The profile oracle, and the library's profile and kernel against it."""

    def test_support_and_endpoints(self):
        assert wendland_psi(0.0) == pytest.approx(1.0)
        assert wendland_psi(1.0) == 0.0
        assert wendland_psi(2.0) == 0.0
        assert wendland_psi(100.0) == 0.0

    def test_half_value_exact(self):
        # (1/2)^8 * (32/8 + 25/4 + 4 + 1) = 61/4 / 256
        assert wendland_psi(0.5) == pytest.approx(0.0595703125, abs=1e-15)

    def test_matches_polynomial_expansion(self, rng):
        u = rng.uniform(0, 1, size=500)
        expect = (1 - u) ** 8 * (32 * u**3 + 25 * u**2 + 8 * u + 1)
        assert np.allclose(kernels._wendland_profile(u), expect, atol=1e-15)

    def test_monotone_decreasing_on_support(self):
        u = np.linspace(0, 1, 1001)
        v = wendland_psi(u)
        assert np.all(np.diff(v) <= 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            wendland_psi(-0.1)

    def test_kernel_is_profile_of_chordal_distance(self, rng):
        dot = rng.uniform(-1, 1, size=500)
        expect = wendland_psi(np.sqrt(2 - 2 * dot))
        assert np.allclose(zonal_value(KernelSpec.wendland(), dot), expect, atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    def test_range_property(self, u):
        v = wendland_psi(u)
        assert 0.0 <= v <= 1.0 + 1e-15


class TestKernelSpec:
    def test_gaussian_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            KernelSpec.gaussian(0.0)
        with pytest.raises(ValueError):
            KernelSpec.gaussian(-1.0)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan, 1e-200, 1e200])
    def test_gaussian_rejects_degenerate_width(self, sigma):
        # sigma**2 would be inf, nan, 0 (underflow) or inf (overflow)
        with pytest.raises(ValueError, match="sigma"):
            KernelSpec.gaussian(sigma)

    def test_gaussian_accepts_extreme_but_usable_width(self):
        for sigma in (1e-150, 1e150):
            assert KernelSpec.gaussian(sigma).sigma == sigma

    def test_wendland_has_no_sigma(self):
        spec = KernelSpec.wendland()
        assert spec.sigma is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec(kind="cubic")

    def test_describe_parse_round_trip(self):
        for spec in (KernelSpec.gaussian(0.31622776), KernelSpec.wendland()):
            assert KernelSpec.parse(spec.describe()) == spec

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            KernelSpec.parse("gaussian")
        with pytest.raises(ValueError):
            KernelSpec.parse("spline:2")


class TestZonalValues:
    def test_gaussian_diagonal_is_one(self):
        spec = KernelSpec.gaussian(0.5)
        assert zonal_value(spec, 1.0) == pytest.approx(1.0)

    def test_gaussian_antipodal(self):
        # squared chordal distance 4, value exp(-2/sigma^2)
        spec = KernelSpec.gaussian(1.0)
        assert zonal_value(spec, -1.0) == pytest.approx(math.exp(-2.0))

    def test_gaussian_matches_chordal_form(self, rng):
        # same kernel written as exp(-|a-b|^2 / (2 sigma^2))
        sigma = 0.37
        spec = KernelSpec.gaussian(sigma)
        a = random_unit_points(rng, 40)
        b = random_unit_points(rng, 40)
        sq = np.sum((a - b) ** 2, axis=1)
        expect = np.exp(-sq / (2 * sigma**2))
        got = np.array([zonal_value(spec, float(np.dot(x, y)))
                        for x, y in zip(a, b)])
        assert np.allclose(got, expect, atol=1e-12)

    def test_wendland_diagonal_is_one(self):
        assert zonal_value(KernelSpec.wendland(), 1.0) == pytest.approx(1.0)

    def test_wendland_support_ends_at_ninety_degrees(self):
        spec = KernelSpec.wendland()
        # chordal distance 1 at dot = 0.5
        assert zonal_value(spec, 0.5) == pytest.approx(0.0, abs=1e-15)
        assert zonal_value(spec, 0.49) == 0.0
        assert zonal_value(spec, 0.51) > 0.0

    def test_clips_overshoot_dots(self):
        spec = KernelSpec.wendland()
        assert zonal_value(spec, 1.0 + 1e-14) == pytest.approx(1.0)
        assert np.isfinite(zonal_value(spec, -1.0 - 1e-14))

    def test_wendland_matches_checked_formula_oracle(self, rng):
        # The formula zonal_value used before it evaluated the profile only
        # on its support: a float ** 8 over every entry.  The in-place
        # squarings round differently, by at most 1.0e-15 relative seen.
        def checked(dot):
            u = np.sqrt(np.maximum(2.0 - 2.0 * np.clip(dot, -1.0, 1.0), 0.0))
            if np.any(u < 0.0):
                raise ValueError("profile argument is a distance, must be >= 0")
            return (np.maximum(1.0 - u, 0.0) ** 8
                    * (((32.0 * u + 25.0) * u + 8.0) * u + 1.0))

        a, b = random_unit_points(rng, 300), random_unit_points(rng, 200)
        dots = np.concatenate([(a @ b.T).ravel(), rng.uniform(0.4, 1.0, 5000),
                               0.5 + np.geomspace(1e-16, 1e-3, 1000),
                               [-1.0 - 1e-12, -1.0, -0.0, 0.0, 0.5, 1.0 - 1e-16,
                                1.0, 1.0 + 1e-12, 2.0, -2.0]])
        got, want = zonal_value(KernelSpec.wendland(), dots), checked(dots)
        support = dots > 0.5
        np.testing.assert_allclose(got[support], want[support], rtol=2e-15, atol=0)
        assert np.all(got[~support] == 0.0)
        assert np.all(got[dots >= 1.0] == 1.0)
        assert np.all(np.isfinite(got[dots < -1.0]))

    @pytest.mark.parametrize("sigma", [1e-3, 0.1, 0.37, 1.0, 1.5, 40.0])
    def test_gaussian_bitwise_matches_plain_expression(self, sigma):
        rng = np.random.default_rng(6)
        dots = np.concatenate([rng.uniform(-1.1, 1.1, 20000),
                               [-1.0 - 1e-12, -1.0, -0.0, 0.0, 1.0, 1.0 + 1e-12]])
        want = np.exp(-(1.0 - np.clip(dots, -1.0, 1.0)) / sigma**2)
        assert np.array_equal(zonal_value(KernelSpec.gaussian(sigma), dots), want)

    @pytest.mark.parametrize("spec", [KernelSpec.gaussian(0.5), KernelSpec.wendland()],
                             ids=["gaussian", "wendland"])
    def test_input_left_unchanged(self, spec):
        rng = np.random.default_rng(7)
        dots = np.concatenate([rng.uniform(-1.1, 1.1, 2047),
                               [np.nan, -1.0 - 1e-12, 1.0 + 1e-12]]).reshape(41, 50)
        before = dots.copy()
        out = zonal_value(spec, dots)
        assert np.array_equal(dots, before, equal_nan=True)
        assert out.shape == dots.shape and not np.shares_memory(out, dots)

    @pytest.mark.parametrize("spec", [KernelSpec.gaussian(0.5), KernelSpec.wendland()],
                             ids=["gaussian", "wendland"])
    @pytest.mark.parametrize("dot", [0.7, np.float64(0.7), np.array(0.7), 0.2])
    def test_scalar_in_numpy_scalar_out(self, spec, dot):
        value = zonal_value(spec, dot)
        assert type(value) is np.float64
        assert value == zonal_value(spec, np.array([dot]))[0]

    @pytest.mark.parametrize("spec", [KernelSpec.gaussian(0.5), KernelSpec.wendland()],
                             ids=["gaussian", "wendland"])
    def test_nan_dot_gives_nan(self, spec):
        assert np.isnan(zonal_value(spec, np.nan))
        out = zonal_value(spec, np.array([0.9, np.nan, 0.1]))
        assert np.isnan(out[1]) and np.isfinite(out[[0, 2]]).all()

    def test_wendland_boundary_dots(self):
        above = np.nextafter(0.5, 1.0)
        dots = np.array([0.5, above, 1.0 - 1e-12, 1.0 + 1e-12, -1.0 - 1e-12])
        got = zonal_value(KernelSpec.wendland(), dots)
        assert got[0] == 0.0                            # chordal distance 1
        # u = 1 - 2^-53 there, so psi = 2^-424 * 66 up to rounding
        assert 0.0 < got[1] == pytest.approx(2.0**-424 * 66.0, rel=1e-12)
        # psi(u) = 1 - 11 u^2 + O(u^4) with u^2 = 2 - 2 dot
        assert got[2] == pytest.approx(1.0 - 11.0 * (2.0 - 2.0 * dots[2]), rel=1e-15)
        assert got[3] == 1.0 and got[4] == 0.0

    def test_gaussian_boundary_dots(self):
        dots = np.array([0.5, 1.0 - 1e-12, 1.0 + 1e-12, -1.0 - 1e-12])
        got = zonal_value(KernelSpec.gaussian(1.0), dots)
        assert got[0] == pytest.approx(math.exp(-0.5), rel=1e-15)
        assert got[1] == pytest.approx(1.0 - 1e-12, rel=1e-15)
        assert got[2] == 1.0 and got[3] == math.exp(-2.0)


def masked_wendland(dot, out=None):
    """The Wendland branch of ``zonal_value`` with a boolean mask of the
    support, scanned once to gather and once to scatter: the oracle of the
    branch that takes one flat index of the support instead."""
    dot = np.asarray(dot, dtype=float)
    mask = ~(dot <= 0.5)
    u = dot[mask]
    np.minimum(u, 1.0, out=u)
    u *= -2.0
    u += 2.0
    np.sqrt(u, out=u)
    if out is None:
        out = np.zeros(dot.shape)
    else:
        out.fill(0.0)
    out[mask] = kernels._wendland_profile(u)
    return out if out.ndim else out[()]


def support_dots() -> np.ndarray:
    """Random dots and the support's edge cases, as a (6, 40) C-ordered array."""
    rng = np.random.default_rng(11)
    edges = [0.5, np.nextafter(0.5, 1.0), 1.0, 1.0 + 1e-14, -1.0 - 1e-14, np.nan]
    return np.concatenate([rng.uniform(-1.1, 1.1, 234), edges]).reshape(6, 40)


def strided(values: np.ndarray) -> np.ndarray:
    """``values`` in every second column (``[:, ::2]``) of a wider array whose
    rows are one entry longer, so that its ``reshape(-1)`` is a copy."""
    wide = np.full((len(values), 2 * values.shape[1] + 1), 7.0)
    view = wide[:, ::2][:, :-1]
    view[...] = values
    return view


# a fresh array holding the given values, in each memory layout
LAYOUTS = {"c": np.copy, "transposed": lambda v: np.ascontiguousarray(v.T).T,
           "strided": strided}


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestWendlandSupportIndex:
    """The Wendland branch gathers and scatters through one flat index of the
    support: the same float operations on the same entries as the boolean
    mask, so the same bits, whatever the layout of ``dot`` and ``out``."""

    @pytest.mark.parametrize("out_layout", [None, *LAYOUTS])
    @pytest.mark.parametrize("dot_layout", LAYOUTS)
    def test_byte_equal_to_mask_oracle(self, dot_layout, out_layout):
        values = support_dots()
        for layout in ("transposed", "strided"):
            view = LAYOUTS[layout](values)
            assert not np.shares_memory(view.reshape(-1), view)

        def inputs():
            out = None if out_layout is None else LAYOUTS[out_layout](np.full(values.shape, 7.0))
            return LAYOUTS[dot_layout](values), out

        dot, out = inputs()
        got = zonal_value(KernelSpec.wendland(), dot, out=out)
        expect = masked_wendland(*inputs())
        assert got.tobytes() == expect.tobytes()
        assert got is out if out is not None else got.flags.c_contiguous
        assert np.array_equal(dot, values, equal_nan=True)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_out_is_dot_byte_equal_to_mask_oracle(self, layout):
        dot, expect = LAYOUTS[layout](support_dots()), LAYOUTS[layout](support_dots())
        assert zonal_value(KernelSpec.wendland(), dot, out=dot) is dot
        masked_wendland(expect, out=expect)
        assert dot.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("values", [0.7, 0.2, 0.5, np.nan, [0.9, np.nan, 0.1],
                                        np.empty((0, 5))],
                             ids=["0d-support", "0d-outside", "0d-edge", "0d-nan", "3", "0x5"])
    def test_shapes_byte_equal_to_mask_oracle(self, values):
        values = np.array(values, dtype=float)
        for mode in ("new", "given", "dot"):
            results = []
            for evaluate in (partial(zonal_value, KernelSpec.wendland()), masked_wendland):
                dot = values.copy()
                out = {"new": None, "given": np.full(dot.shape, 7.0), "dot": dot}[mode]
                results.append(np.asarray(evaluate(dot, out=out)))
            got, expect = results
            assert got.shape == values.shape and got.tobytes() == expect.tobytes()
        assert type(zonal_value(KernelSpec.wendland(), values)) is (
            np.float64 if values.ndim == 0 else np.ndarray)


class TestMatrices:
    def test_elementwise_oracle(self, rng):
        a = random_unit_points(rng, 5)
        b = random_unit_points(rng, 7)
        for spec in (KernelSpec.gaussian(0.4), KernelSpec.wendland()):
            m = cross_matrix(spec, PointSet(a), PointSet(b))
            assert m.shape == (5, 7)
            for i in range(5):
                for j in range(7):
                    d = float(np.clip(np.dot(a[i], b[j]), -1, 1))
                    assert m[i, j] == pytest.approx(zonal_value(spec, d), abs=1e-15)

    def test_accepts_pointsets(self, design13):
        spec = KernelSpec.wendland()
        m = cross_matrix(spec, design13, design13)
        assert m.shape == (len(design13), len(design13))

    def test_single_pair(self):
        north, south = (PointSet(np.array([[0.0, 0.0, z]])) for z in (1.0, -1.0))
        m = cross_matrix(KernelSpec.gaussian(1.0), north, south)
        assert m.shape == (1, 1)
        assert m[0, 0] == pytest.approx(math.exp(-2.0))

    def test_gram_bitwise_symmetric(self, rng):
        # coordinates in C order, F order, and as row- and column-strided
        # views: gram mirrors the lower triangle of its row blocks, so it is
        # bitwise symmetric, and PointSet stores every layout C-ordered, so
        # it is the same bits for each
        pts = random_unit_points(rng, 300)
        layouts = (pts, np.asfortranarray(pts), np.repeat(pts, 2, axis=0)[::2],
                   np.repeat(pts, 2, axis=1)[:, ::2])
        for spec in (KernelSpec.gaussian(0.2), KernelSpec.wendland()):
            for raw in layouts:
                g = gram(spec, PointSet(raw))
                assert np.array_equal(g, g.T)
                assert np.array_equal(g, gram(spec, PointSet(pts)))
                assert np.allclose(np.diag(g), 1.0, atol=1e-15)

    # one block (the default), blocks of one row, and blocks of 16 rows
    # (cross matrix) or 10 rows (Gram) with a ragged last block
    @pytest.mark.parametrize("block_bytes", [None, 8, 8 * 41 * 10])
    @pytest.mark.parametrize("spec", [KernelSpec.gaussian(0.5), KernelSpec.wendland()])
    def test_blockwise_assembly_bitwise_matches_whole_matrix_oracle(self, rng, spec,
                                                                    block_bytes, monkeypatch):
        # each row block is the kernel of its own dot-product GEMM
        rows, cols = (PointSet(random_unit_points(rng, n)) for n in (41, 25))
        if block_bytes is not None:
            monkeypatch.setattr(points_mod, "BLOCK_BYTES", block_bytes)
        for a, b in ((rows, cols), (rows, rows)):
            expect = np.vstack([zonal_value(spec, a.xyz[r] @ b.xyz.T)
                                for r in _row_blocks(len(a), len(b))])
            assert cross_matrix(spec, a, b).tobytes() == expect.tobytes()
        g = gram(spec, rows)
        assert g.tobytes() == g.T.copy().tobytes()

    @pytest.mark.parametrize("spec", [KernelSpec.gaussian(0.5), KernelSpec.wendland()])
    def test_assembly_peak_is_output_plus_one_block(self, spec):
        # zonal_value's temporaries of one block, never a second whole
        # matrix (a whole-matrix zonal_value peaks at 2 to 2.9 times the
        # output)
        for make in (lambda: cross_matrix(spec, generate_spiral(2000), load_design(41)),
                     lambda: gram(spec, load_design(41))):
            out_bytes = make().nbytes
            assert traced_peak(make) <= out_bytes + 2 * points_mod.BLOCK_BYTES + 2**21

    @pytest.mark.parametrize("degree", available_degrees())
    def test_gram_is_mirrored_cross_matrix(self, degree):
        # gram is cross_matrix(p, p) with its lower triangle mirrored, bit
        # for bit, also where the matrix spans several row blocks
        p = load_design(degree)
        for spec in (KernelSpec.gaussian(0.7), KernelSpec.wendland()):
            expect = cross_matrix(spec, p, p)
            upper = np.triu_indices(len(p), 1)
            expect[upper] = expect.T[upper]
            assert gram(spec, p).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("degree", available_degrees())
    @pytest.mark.parametrize("spec", [KernelSpec.wendland(), KernelSpec.gaussian(0.3)],
                             ids=["wendland", "gaussian"])
    def test_added_blocks_are_the_written_blocks(self, degree, spec):
        # cross_matrix adds its row blocks into zeros (kernels._add_kernel);
        # no kernel value is -0.0, so that is bitwise the oracle that writes
        # each block straight into its rows: square, rectangular with a
        # ragged last block, and gram, the square one mirrored
        p = load_design(degree)
        step = points_mod._block_rows(len(p))
        sites = generate_spiral(step + step // 2 + 1)
        assert len(sites) > step and len(sites) % step
        for a, b in ((p, p), (sites, p)):
            expect = blockwise_cross_matrix(spec, a, b)
            assert cross_matrix(spec, a, b).tobytes() == expect.tobytes()
        expect, upper = blockwise_cross_matrix(spec, p, p), np.triu_indices(len(p), 1)
        expect[upper] = expect.T[upper]
        assert gram(spec, p).tobytes() == expect.tobytes()

    def test_gram_matches_cross_matrix(self, rng):
        pts = PointSet(random_unit_points(rng, 31))
        for spec in (KernelSpec.gaussian(0.7), KernelSpec.wendland()):
            assert np.array_equal(gram(spec, pts), cross_matrix(spec, pts, pts))

    def test_gram_positive_semidefinite(self, rng):
        for spec in (KernelSpec.gaussian(0.3), KernelSpec.wendland()):
            for n in (10, 50):
                pts = PointSet(random_unit_points(rng, n))
                w = np.linalg.eigvalsh(gram(spec, pts))
                assert w.min() >= -1e-10 * max(w.max(), 1.0)

    def test_zonality_rotation_invariance(self, rng):
        # K(Qa, Qb) == K(a, b) for any orthogonal Q
        a = random_unit_points(rng, 20)
        b = random_unit_points(rng, 20)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        spec = KernelSpec.gaussian(0.5)
        assert np.allclose(cross_matrix(spec, PointSet(a @ q.T), PointSet(b @ q.T)),
                           cross_matrix(spec, PointSet(a), PointSet(b)), atol=1e-12)

    def test_memory_budget_enforced(self, rng, monkeypatch):
        monkeypatch.setattr(kernels, "DEFAULT_MEMORY_BUDGET", 10**6)
        pts = PointSet(random_unit_points(rng, 2000))

        def refuse():
            # the budget check comes before the output and the block buffer
            with pytest.raises(MatrixSizeError, match="2000 x 2000 kernel matrix"):
                cross_matrix(KernelSpec.wendland(), pts, pts)

        assert traced_peak(refuse) < 2**16
        with pytest.raises(MatrixSizeError):
            gram(KernelSpec.wendland(), pts)

    def test_budget_error_is_memory_error(self):
        assert issubclass(MatrixSizeError, MemoryError)

    def test_values_bounded(self, rng):
        a = PointSet(random_unit_points(rng, 60))
        for spec in (KernelSpec.gaussian(0.15), KernelSpec.wendland()):
            m = gram(spec, a)
            assert m.min() >= 0.0
            assert m.max() <= 1.0 + 1e-15
