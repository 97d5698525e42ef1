import tracemalloc

import numpy as np
import pytest

from sphfit import load_design


@pytest.fixture(scope="session")
def design13():
    return load_design(13)


@pytest.fixture(scope="session")
def design17():
    return load_design(17)


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
