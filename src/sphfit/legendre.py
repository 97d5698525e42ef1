"""Legendre polynomials and equal-weight quadrature (design) verification.

A point set is a spherical t-design exactly when its equal-weight rule
integrates every spherical polynomial of degree <= t.  The residual used
here, ``r_k = (1/N^2) sum_ij P_k(x_i . x_j)``, is proportional to the sum
of squared degree-k harmonic sums, so it is nonnegative and vanishes iff
the rule is exact at degree k.  This keeps verification basis-free and
rotation-invariant at O(N^2) per sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .points import PointSet

DEFAULT_DESIGN_TOL = 1e-8
# Rows of the dot-product matrix per block of a residual sweep.  A row count,
# not a byte budget: each of the k_max recurrence steps passes over the whole
# block, so smaller blocks run faster.  On 2 vCPUs the degree-57 sweep of the
# t = 57 design took 1.0-1.2 s in 512-row blocks, 1.3 s in one 1656-row block.
RESIDUAL_ROW_BLOCK = 512


def _legendre_series(u, k_max: int):
    """Yield P_1(u), ..., P_{k_max}(u) by the three-term recurrence
    ``(k+1) P_{k+1} = (2k+1) u P_k - k P_{k-1}``; stable on [-1, 1].
    Steps run lazily, so nothing is computed past k_max.
    """
    pkm1, pk = 1.0, u
    for k in range(k_max):
        if k:
            pkm1, pk = pk, ((2 * k + 1) * u * pk - k * pkm1) / (k + 1)
        yield pk


def legendre_p(k: int, u) -> np.ndarray | float:
    """Legendre polynomial P_k(u), normalized so P_k(1) = 1.

    Accepts scalars or arrays; `u` may exceed [-1, 1] by at most 1e-12
    (clamped).
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    u_arr = np.asarray(u, dtype=float)
    if np.any(np.abs(u_arr) > 1.0 + 1e-12):
        raise ValueError("argument outside [-1, 1] beyond clamp tolerance")
    u_arr = np.clip(u_arr, -1.0, 1.0)
    scalar = u_arr.ndim == 0
    u_arr = np.atleast_1d(u_arr)
    out = np.ones_like(u_arr)
    for out in _legendre_series(u_arr, k):
        pass
    return float(out[0]) if scalar else out


def _residual_sweep(xyz: np.ndarray, k_max: int) -> np.ndarray:
    """Accumulated sums of P_k over all dot-product pairs, k = 1..k_max.

    Runs the recurrence over blocks of ``RESIDUAL_ROW_BLOCK`` rows, so memory
    stays O(block * N); block order is fixed, so results are run-to-run
    identical.
    """
    n = len(xyz)
    sums = np.zeros(k_max)
    for lo in range(0, n, RESIDUAL_ROW_BLOCK):
        u = np.clip(xyz[lo:lo + RESIDUAL_ROW_BLOCK] @ xyz.T, -1.0, 1.0)
        for k, pk in enumerate(_legendre_series(u, k_max)):
            sums[k] += pk.sum()
    return sums / n**2


def design_residual(point_set: PointSet, k: int) -> float:
    """Equal-weight quadrature residual of the set at degree `k`.

    Returns ``(1/N^2) sum_ij P_k(x_i . x_j)`` with tiny negative
    cancellation noise clamped to 0.  Zero exactly when the set integrates
    all degree-k spherical harmonics.
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    r = float(_residual_sweep(point_set.xyz, k)[k - 1])
    return max(r, 0.0)


@dataclass(frozen=True)
class DesignReport:
    """Result of sweeping design residuals up to a degree bound."""

    max_verified_degree: int
    residuals: tuple[tuple[int, float], ...]    # (degree, residual) pairs
    tolerance: float

    def __str__(self):
        lines = [f"{'degree':>6} {'residual':>12}"]
        lines += [f"{k:>6} {r:>12.3e}" for k, r in self.residuals]
        lines.append(f"max verified degree: {self.max_verified_degree} "
                     f"(tolerance {self.tolerance:.1e})")
        return "\n".join(lines)


def verify_design(point_set: PointSet, t_max: int,
                  tol: float = DEFAULT_DESIGN_TOL) -> DesignReport:
    """Sweep residuals for degrees 1..t_max and report the verified degree.

    The verified degree is the largest t with residuals below `tol` at all
    degrees 1..t.  One O(N^2 t_max) pass computes the whole sweep.
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
    raw = _residual_sweep(point_set.xyz, t_max)
    residuals = tuple((k + 1, max(float(r), 0.0)) for k, r in enumerate(raw))
    verified = 0
    for k, r in residuals:
        if r > tol:
            break
        verified = k
    return DesignReport(max_verified_degree=verified, residuals=residuals, tolerance=tol)
