"""Equal-weight quadrature (spherical design) verification from harmonic sums.

A point set is a spherical t-design exactly when its equal-weight rule
integrates every spherical polynomial of degree <= t.  The residual used
here is ``r_k = (1/N^2) sum_ij P_k(x_i . x_j)``, which by the addition
theorem equals a sum of squared degree-k harmonic sums (Delsarte, Goethals
& Seidel 1977):

    sum_ij P_k(x_i . x_j) = |S_k0|^2 + 2 sum_{m=1..k} |S_km|^2,
    S_km = sum_i q_k^m(x_i),

with the semi-normalized harmonics ``q_k^m = sqrt((k-m)!/(k+m)!) P_k^m(z)
e^{i m phi}``.  So ``r_k`` is nonnegative by construction, vanishes iff the
rule is exact at degree k, and does not depend on the orientation of the
set.  Computing the sums costs O(N t^2) for all degrees 1..t, instead of the
O(N^2 t) of the pairwise double sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, points
from .points import PointSet, _row_blocks

DEFAULT_DESIGN_TOL = 1e-8

# Peak bytes per entry of the (k_max + 1)^2 arrays of harmonic_residuals: the
# complex sums and their squared moduli (tracemalloc, t_max = 200 to 800).
TABLE_BYTES_PER_ENTRY = 33


def harmonic_residuals(xyz: np.ndarray, k_max: int) -> np.ndarray:
    """Residuals ``r_1, ..., r_{k_max}`` of the unit vectors `xyz` (n, 3).

    The diagonal ``q_m^m = prod_{j<=m} sqrt((2j-1)/(2j)) (x + iy)^m`` needs
    no angles, and each degree follows from the two below it by

        q_k^m = ((2k-1) z q_{k-1}^m - sqrt((k-1)^2 - m^2) q_{k-2}^m) / sqrt(k^2 - m^2),

    one step per degree, vectorized over m < k.  Every ``|q_k^m| <= 1``.
    The sums run over blocks of points within ``points.BLOCK_BYTES``, in a
    fixed order, so results are run-to-run identical; one block's buffers
    are held at a time.

    Raises :class:`~sphfit.kernels.MatrixSizeError` before allocating when
    the sums and one block would exceed the memory budget.
    """
    xyz = np.asarray(xyz, dtype=float)
    n, size = len(xyz), k_max + 1
    # One point block holds 3 (k_max + 2) complex numbers per point: three
    # buffers of k_max + 1, sized to fit BLOCK_BYTES, and three vectors.  A
    # broadcast step over a block narrower than numpy's ufunc buffer also
    # allocates that buffer.
    block = points.BLOCK_BYTES * (size + 1) // size + 8 * np.getbufsize()
    kernels._check_budget(TABLE_BYTES_PER_ENTRY * size * size + block, f"t_max = {k_max}")
    m2 = np.arange(size) ** 2
    j = np.arange(1, size)
    diag_scale = np.sqrt((2 * j - 1) / (2 * j))
    sums = np.zeros((size, size), dtype=complex)            # S[k, m]
    for rows in _row_blocks(n, 6 * size):
        x, y, z = xyz[rows].T
        z2 = np.repeat(z, 2)                # z against the (re, im) pairs
        w = x + 1j * y
        prev2, prev, tmp = (np.zeros((size, len(z)), dtype=complex) for _ in range(3))
        prev[0] = 1.0                       # q_0^0
        for k in range(1, size):
            # prev2 holds q_{k-2}^m for m <= k-2 and zeros above; it becomes q_k
            new, new_f = prev2[:k], prev2[:k].view(float)
            new_f *= -np.sqrt((k - 1) ** 2 - m2[:k])[:, None]
            np.multiply(prev[:k].view(float), (2 * k - 1) * z2, out=tmp[:k].view(float))
            new += tmp[:k]
            new_f /= np.sqrt(k * k - m2[:k])[:, None]
            np.multiply(prev[k - 1], w, out=prev2[k])   # q_k^k from q_{k-1}^{k-1}
            prev2[k] *= diag_scale[k - 1]
            sums[k, :k + 1] += prev2[:k + 1].sum(axis=1)
            prev2, prev = prev, prev2
        prev2 = prev = tmp = new = new_f = None  # freed before the next block's are made
    power = sums[1:].real ** 2 + sums[1:].imag ** 2
    return (power[:, 0] + 2.0 * power[:, 1:].sum(axis=1)) / n**2


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
    degrees 1..t.  One O(N t_max^2) pass of :func:`harmonic_residuals`
    computes the whole sweep.
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
    raw = harmonic_residuals(point_set.xyz, t_max)
    residuals = tuple((k + 1, float(r)) for k, r in enumerate(raw))
    verified = 0
    for k, r in residuals:
        if r > tol:
            break
        verified = k
    return DesignReport(max_verified_degree=verified, residuals=residuals, tolerance=tol)
