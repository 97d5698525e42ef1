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
