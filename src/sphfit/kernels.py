"""Zonal positive-definite kernels on S^2 and dense kernel-matrix assembly.

Both kernels depend on their arguments only through the chordal distance,
so every evaluation goes through the dot product (clamped to [-1, 1]) and
``||a - b||^2 = 2 - 2 a.b``; this makes zonality exact and avoids
cancellation near coincident points.

:func:`_check_budget` is the one check of ``DEFAULT_MEMORY_BUDGET``: kernel
matrices, the harmonic sums, generated point sets and the working set of
each fit pass it the bytes they are about to allocate.  :func:`_kernel_rows`
builds every kernel block the fits use; :func:`_add_kernel` adds them into
:func:`cross_matrix` and a one-lambda system.  Only the scorer of every model
and of f2 (``solver._scored_blocks``), which evaluates several kernels on one
block, forms its dot products itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .points import PointSet, _block_rows, _row_blocks

DEFAULT_MEMORY_BUDGET = 2 << 30     # bytes; guards accidental |D|^2 allocations


class MatrixSizeError(MemoryError):
    """Requested dense kernel matrix exceeds the memory budget."""


def _wendland_profile(u: np.ndarray) -> np.ndarray:
    """The profile on its support, for a 1-d array of distances in [0, 1].

    No ``(.)_+`` is needed there.  The power is three squarings and the
    polynomial Horner's rule, each in place in one of two temporaries.
    """
    base = np.subtract(1.0, u)
    for _ in range(3):
        np.square(base, out=base)           # (1-u)^2, ^4, ^8
    poly = np.multiply(u, 32.0)             # ((32u + 25)u + 8)u + 1
    poly += 25.0
    poly *= u
    poly += 8.0
    poly *= u
    poly += 1.0
    base *= poly
    return base


@dataclass(frozen=True)
class KernelSpec:
    """A zonal kernel: ``gaussian`` with width sigma, or ``wendland``.

    Gaussian: exp(-||a-b||^2 / (2 sigma^2)).  Wendland: psi((1-u)_+ ...) of
    the chordal distance; support is chordal distance < 1 (geodesic pi/3).
    Both are positive definite on S^2.
    """

    kind: str
    sigma: float | None = None

    def __post_init__(self):
        if self.kind == "gaussian":
            # sigma**2 divides the exponent: 0 (underflow) or inf (a constant
            # kernel) gives a degenerate model
            if self.sigma is None or not (
                    self.sigma > 0 and 0.0 < self.sigma * self.sigma < np.inf):
                raise ValueError("gaussian kernel needs a finite sigma with "
                                 f"0 < sigma**2 < inf, got {self.sigma!r}")
        elif self.kind == "wendland":
            if self.sigma is not None:
                raise ValueError("wendland kernel takes no width")
        else:
            raise ValueError(f"unknown kernel kind {self.kind!r}")

    @classmethod
    def gaussian(cls, sigma: float) -> "KernelSpec":
        return cls("gaussian", float(sigma))

    @classmethod
    def wendland(cls) -> "KernelSpec":
        return cls("wendland")

    def describe(self) -> str:
        return f"gaussian:{self.sigma:.17g}" if self.kind == "gaussian" else "wendland"

    @classmethod
    def parse(cls, text: str) -> "KernelSpec":
        """Inverse of :meth:`describe`; accepts ``wendland`` or ``gaussian:<sigma>``."""
        text = text.strip()
        if text == "wendland":
            return cls.wendland()
        if text.startswith("gaussian:"):
            return cls.gaussian(float(text.split(":", 1)[1]))
        raise ValueError(f"cannot parse kernel spec {text!r}")


def zonal_value(spec: KernelSpec, dot, out=None) -> np.ndarray:
    """Kernel value as a function of the dot product, clamped to [-1, 1].

    Writes into ``out`` and returns it when it is given, a float64 array
    of the shape of ``dot`` that may be ``dot`` itself; otherwise makes
    one output array and never writes into ``dot``.  The Gaussian value is
    ``exp(-(1 - d) / sigma^2)`` with ``d`` the clamped dot.  The Wendland
    value is zero wherever ``dot <= 1/2`` (chordal distance >= 1, outside the
    support), and the profile is evaluated on the others, gathered by one flat
    index.  A NaN dot gives NaN for both kernels.  A scalar or 0-d ``dot``
    gives a numpy scalar.  Each value is the same bits with or without ``out``.
    """
    dot = np.asarray(dot, dtype=float)
    if spec.kind == "gaussian":
        out = np.clip(dot, -1.0, 1.0, out=np.empty(dot.shape) if out is None else out)
        np.subtract(out, 1.0, out=out)      # d - 1 == -(1 - d), exactly
        np.divide(out, spec.sigma**2, out=out)   # ||a-b||^2 = 2 - 2 a.b
        np.exp(out, out=out)
    else:
        support = np.flatnonzero(~(dot <= 0.5))     # in C order; NaN stays NaN
        u = dot.take(support)               # a copy, taken before out is zeroed
        np.minimum(u, 1.0, out=u)
        u *= -2.0
        u += 2.0
        np.sqrt(u, out=u)                   # chordal distance, in [0, 1)
        if out is None:
            out = np.zeros(dot.shape)
        else:
            out.fill(0.0)
        # reshape(-1) is a view only of a C-contiguous out: of others, a copy losing the scatter
        (out.reshape(-1) if out.flags.c_contiguous else out.flat)[support] = _wendland_profile(u)
    return out if out.ndim else out[()]


def _check_budget(nbytes: int, what: str):
    """Raise :class:`MatrixSizeError` before `what` allocates `nbytes` bytes
    beyond ``DEFAULT_MEMORY_BUDGET``."""
    if nbytes > DEFAULT_MEMORY_BUDGET:
        raise MatrixSizeError(
            f"{what} needs {nbytes} bytes ({nbytes / 2**30:.2f} GiB), "
            f"budget is {DEFAULT_MEMORY_BUDGET / 2**30:.2f} GiB")


def _kernel_rows(spec: KernelSpec, points: PointSet, centers: PointSet, rows, out) -> np.ndarray:
    """Kernel values of ``points[rows]`` against ``centers``, returned in
    ``out`` (C-ordered): the dot products' GEMM, then zonal_value in place."""
    np.matmul(points.xyz[rows], centers.xyz.T, out=out)
    return zonal_value(spec, out, out=out)


def _add_kernel(a: np.ndarray, spec: KernelSpec, rows: PointSet, cols: PointSet, shift: float):
    """``a += shift * K(rows, cols)``, returning ``a``: each row block (``_row_blocks``)
    is written into one buffer of at most ``BLOCK_BYTES`` (:func:`_kernel_rows`),
    scaled and added, so K is never whole."""
    buffer = np.empty((min(len(rows), _block_rows(len(cols))), len(cols)))
    for block in _row_blocks(len(rows), len(cols)):
        values = _kernel_rows(spec, rows, cols, block, buffer[:len(rows) - block.start])
        values *= shift
        a[block] += values
    return a


def cross_matrix(spec: KernelSpec, rows: PointSet, cols: PointSet) -> np.ndarray:
    """Dense |rows| x |cols| kernel matrix between two point sets, its row blocks
    added into zeros (:func:`_add_kernel`): bitwise each block's kernel values,
    none being -0.0.  Peak: the output plus one block's buffer and temporaries."""
    _check_budget(8 * len(rows) * len(cols), f"{len(rows)} x {len(cols)} kernel matrix")
    return _add_kernel(np.zeros((len(rows), len(cols))), spec, rows, cols, 1.0)


def _mirror_lower(a: np.ndarray) -> np.ndarray:
    """Copy the lower triangle of ``a`` over its upper triangle, so that
    ``a == a.T`` bitwise, a strip of 64 rows at a time, and return ``a``:
    no temporary is larger than one strip."""
    m = len(a)
    for j in range(0, m, 64):
        end = min(j + 64, m)
        a[j:end, end:] = a[end:, j:end].T
        diagonal, upper = a[j:end, j:end], np.triu_indices(end - j, 1)
        diagonal[upper] = diagonal.T[upper]
    return a


def gram(spec: KernelSpec, point_set: PointSet) -> np.ndarray:
    """Kernel matrix of a set against itself, ``K == K.T`` bitwise: its
    :func:`cross_matrix`, whose rows :func:`_add_kernel` adds, with the
    lower triangle mirrored.  Peak: K, one block's buffer and temporaries."""
    return _mirror_lower(cross_matrix(spec, point_set, point_set))
