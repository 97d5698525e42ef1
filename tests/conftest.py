import shutil
import tracemalloc

import numpy as np
import pytest

from sphfit import design_path, load_design


@pytest.fixture(scope="session")
def design13():
    return load_design(13)


@pytest.fixture(scope="session")
def design17():
    return load_design(17)


@pytest.fixture
def oversized_design_dir(tmp_path):
    """A design directory whose degree-3 file holds the 48 points of the
    bundled t = 9 design and whose degree-5 file holds the 12 points of the
    t = 5 design: with t = 5 training, the s* = 3 design outnumbers it."""
    directory = tmp_path / "designs"
    directory.mkdir()
    shutil.copy(design_path(9), directory / "t003_n00048.txt")
    shutil.copy(design_path(5), directory / "t005_n00012.txt")
    return directory


@pytest.fixture
def rng():
    # a fresh generator per test: a test's inputs do not depend on what ran before it
    return np.random.default_rng(20240817)


def random_unit_points(rng, n):
    pts = rng.standard_normal((n, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def wendland_psi(u) -> np.ndarray | float:
    """Compactly supported Wendland profile ``(1-u)_+^8 (32u^3+25u^2+8u+1)``:
    the profile oracle of the kernel and target tests."""
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0.0):
        raise ValueError("profile argument is a distance, must be >= 0")
    base = np.maximum(1.0 - u_arr, 0.0)
    out = base**8 * (32 * u_arr**3 + 25 * u_arr**2 + 8 * u_arr + 1)
    return float(out) if np.isscalar(u) or u_arr.ndim == 0 else out


def traced_peak(fn) -> int:
    """Peak bytes that ``fn()`` allocates, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def blockwise_cross_matrix(spec, rows, cols) -> np.ndarray:
    """The kernel-matrix oracle: each ``_kernel_rows`` block written straight
    into its rows of the output, one ``_row_blocks`` block at a time."""
    from sphfit.kernels import _kernel_rows
    from sphfit.points import _row_blocks
    out = np.empty((len(rows), len(cols)))
    for block in _row_blocks(len(rows), len(cols)):
        _kernel_rows(spec, rows, cols, block, out[block])
    return out


def add_kmm(a, kernel, centers, shift) -> np.ndarray:
    """The one-lambda system oracle: ``a += shift * Kmm`` for a bitwise
    symmetric ``a``, each row block of Kmm written into one buffer, scaled
    and added, then the lower triangle mirrored."""
    from sphfit.kernels import _kernel_rows, _mirror_lower
    from sphfit.points import _block_rows, _row_blocks
    m = len(centers)
    buffer = np.empty((min(m, _block_rows(m)), m))
    for rows in _row_blocks(m, m):
        block = _kernel_rows(kernel, centers, centers, rows, buffer[:m - rows.start])
        block *= shift
        a[rows] += block
    return _mirror_lower(a)
