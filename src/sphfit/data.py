"""Synthetic targets on the sphere, truncated Gaussian noise, and datasets.

Two standard test functions drive all experiments: a four-term exponential
bump mixture (``f1``, the Franke function adapted to ambient sphere
coordinates) and a sum of 20 compactly supported Wendland bumps (``f2``),
a fixed kernel expansion that the model scorer (``solver.predict``) evaluates.
Labels are target values plus zero-mean truncated Gaussian noise.

PRNG contract: noise streams come from ``numpy.random.Generator`` seeded
with ``PCG64`` (``np.random.default_rng``), Gaussian variates via its
ziggurat ``standard_normal``.  A unit-variance draw is scaled by delta, so
a fixed seed yields proportional noise across noise levels (common random
numbers).  Streams are stable within one numpy major version on all
platforms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec
from .points import PointSet, _data_lines, _read_rows, _unit_points, _write_rows, eq_area_centers
from .solver import FittedModel, predict, rmse_sweep

NOISE_BOUND = 10.0
N_F2_CENTERS = 20


def franke_f1(xyz) -> np.ndarray:
    """Four-term exponential mixture evaluated on ambient coordinates.

    The second term is linear in its last two coordinates (not squared);
    the function is smooth but not a polynomial in x, y, z.
    """
    p = np.asarray(xyz, dtype=float)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    return (
        0.75 * np.exp(-(9 * x - 2) ** 2 / 4 - (9 * y - 2) ** 2 / 4 - (9 * z - 2) ** 2 / 4)
        + 0.75 * np.exp(-(9 * x + 1) ** 2 / 49 - (9 * y + 1) / 10 - (9 * z + 1) / 10)
        + 0.5 * np.exp(-(9 * x - 7) ** 2 / 4 - (9 * y - 3) ** 2 / 4 - (9 * z - 5) ** 2 / 4)
        - 0.2 * np.exp(-(9 * x - 4) ** 2 - (9 * y - 7) ** 2 - (9 * z - 5) ** 2)
    )


@functools.cache
def default_f2_centers() -> PointSet:
    """The 20 equal-area region centers used as bump locations for f2."""
    return eq_area_centers(N_F2_CENTERS)


@functools.cache
def _f2_model() -> FittedModel:
    """f2 as the Wendland expansion it is: unit coefficients on the bump centers."""
    return FittedModel(KernelSpec.wendland(), default_f2_centers(), np.ones(N_F2_CENTERS),
                       0.0, N_F2_CENTERS, None)


def wendland_target_f2(xyz) -> np.ndarray:
    """f2(x) = sum_i psi((2 - 2 x.z_i)^(1/2)) over the z_i of :func:`default_f2_centers`
    at unit vectors ``(..., 3)``: ``predict`` of the unit-coefficient :func:`_f2_model`."""
    p = np.asarray(xyz, dtype=float)
    return predict(_f2_model(), PointSet(p.reshape(-1, 3))).reshape(p.shape[:-1])


@dataclass(frozen=True)
class TargetFunction:
    """Named target: ``f1`` (Franke mixture) or ``f2`` (Wendland bump sum)."""

    name: str

    def __post_init__(self):
        if self.name not in ("f1", "f2"):
            raise ValueError(f"unknown target {self.name!r}")

    @property
    def centers(self) -> PointSet | None:
        """f2's bump locations (:func:`default_f2_centers`); None for f1."""
        return default_f2_centers() if self.name == "f2" else None

    def __call__(self, points) -> np.ndarray:
        xyz = points.xyz if isinstance(points, PointSet) else points
        return (franke_f1 if self.name == "f1" else wendland_target_f2)(xyz)

    @classmethod
    def by_name(cls, name: str) -> "TargetFunction":
        return cls(name)


@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean Gaussian with standard deviation delta, clipped to
    +-``NOISE_BOUND``."""

    delta: float
    seed: int

    def __post_init__(self):
        if not (np.isfinite(self.delta) and self.delta >= 0):
            raise ValueError(f"delta must be finite and >= 0, got {self.delta!r}")


def sample_truncated_gaussian(noise: NoiseModel, count: int) -> np.ndarray:
    """Draw ``count`` clipped N(0, delta^2) samples; deterministic per seed.

    Clipping (rather than redrawing) realizes the truncation; at the noise
    levels in use the bound sits beyond 20 standard deviations, so the
    distinction never matters numerically.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(noise.seed)
    return np.clip(noise.delta * rng.standard_normal(count), -NOISE_BOUND, NOISE_BOUND)


@dataclass(frozen=True)
class Dataset:
    inputs: PointSet
    labels: np.ndarray
    target: TargetFunction
    noise: NoiseModel

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=float)
        if labels.shape != (len(self.inputs),):
            raise ValueError("one label per input point required")
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.inputs)


def make_dataset(inputs: PointSet, target: TargetFunction,
                 noise: NoiseModel) -> Dataset:
    """Labels = target(inputs) + truncated Gaussian noise.

    A pure function of (inputs, target, noise): the same arguments always
    reproduce the same labels bitwise.
    """
    labels = target(inputs) + sample_truncated_gaussian(noise, len(inputs))
    return Dataset(inputs, labels, target, noise)


def rmse(model: FittedModel, test_inputs: PointSet, test_labels) -> float:
    """Root mean squared prediction error on a labeled test set."""
    return float(rmse_sweep([model], test_inputs, test_labels)[0])


DATASET_HEADER = "x,y,z,label"


def save_dataset(path, dataset: Dataset) -> None:
    """CSV with an ``x,y,z,label`` header; generation settings in comments."""
    head = [f"# target {dataset.target.name}", f"# delta {dataset.noise.delta:.17g}",
            f"# seed {dataset.noise.seed}", DATASET_HEADER]
    table = np.column_stack([dataset.inputs.xyz, dataset.labels])
    _write_rows(path, head, map(np.ndarray.tolist, table), ",")


def load_dataset(path) -> tuple[PointSet, np.ndarray]:
    """Read points and labels back from :func:`save_dataset` output.

    The generation-settings comments are informational only; the target
    object itself is not reconstructed.
    """
    return _dataset_from_lines(path, _data_lines(path))


def _dataset_from_lines(path, lines) -> tuple[PointSet, np.ndarray]:
    """Points and labels of a dataset CSV's lines (from ``_data_lines``)."""
    table, linenos = _read_rows(path, lines, 4, ",", DATASET_HEADER)
    return _unit_points(path, table[:, :3], linenos), table[:, 3].copy()
