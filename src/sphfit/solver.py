"""Regularized least-squares fitting with kernel centers on a reduced set.

The model is f(x) = sum_j alpha_j K(x, c_j) over a center set C of size m,
fitted to data (x_i, y_i), i = 1..N, by minimizing

    (1/N) sum_i (f(x_i) - y_i)^2 + lam * ||f||_K^2 .

Restricting the representer expansion to C gives the m x m normal equations

    (Knm^T Knm + lam * N * Kmm) alpha = Knm^T y .

A sweep over several lams decomposes the whitened system once and solves
every well-conditioned lam from it (Nystrom kernel ridge regression, Rudi,
Camoriano & Rosasco 2015).  Any other lam, and a single-lam fit, is solved
by its own Cholesky factor when a rigorous bound on its condition number
proves that the pseudo-inverse below would drop no eigenvalue, so both give
the same estimator.  The rest go through a symmetric eigendecomposition
pseudo-inverse, so that rank deficiency (tiny lam, clustered or duplicate
centers) degrades gracefully instead of blowing up.  ``fit_full`` covers
the classical m = N case through the equivalent system
(K + lam * N * I) alpha = y.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, cross_matrix, gram, zonal_value
from .points import (PointFileError, PointSet, _data_lines, _number, _read_rows,
                     _row_blocks, _unit_points, _write_rows)

# Largest bound on cond_2(Knm^T Knm + lam*N*Kmm) for which a sweep solves lam
# in the whitened basis.  Far below 1 / (m * eps), so an admitted lam is one
# whose pseudo-inverse would drop no eigenvalue: both paths compute the same
# estimator and differ only by rounding, within m * eps * 1e8 relative (1e-6
# at m = 48, the golden tests' tolerance).  The limit stays this strict rather
# than rising to the Cholesky arm's: that would let the shared basis serve
# lams whose rounding gap grows toward 1e-2, while a lam it rejects now costs
# one Cholesky factorization, not an eigendecomposition.
WHITENED_COND_LIMIT = 1e8

# A lam the whitening does not serve is solved by its own Cholesky factor when
# kappa >= cond_2(A) of its system A is at most 1 / (CHOLESKY_MARGIN * m * eps).
# Then lambda_min(A) >= lambda_max(A) / kappa >= 100 * m * eps * lambda_max(A),
# 100 times above the cutoff of _eig_decompose: the pseudo-inverse would drop
# no eigenvalue, so both solve the same nonsingular system and give the same
# estimator up to rounding, about m * eps * cond_2(A) relative.
CHOLESKY_MARGIN = 100

# Largest diagonal block that _lower_inverse hands to np.linalg.inv.
TRI_INV_LEAF = 256


@dataclass(frozen=True)
class SolveDiagnostics:
    """How the linear system was actually solved."""

    method: str                 # "eig-pinv", "whitened-eig" or "cholesky"
    rank_used: int              # retained spectral rank (= m for whitened-eig, cholesky)
    eigen_threshold: float      # cutoff below which eigenvalues were dropped
    residual_norm: float        # ||A alpha - b||_2 of the solved system
    wall_time: float            # seconds to assemble the kernel matrices and solve


@dataclass(frozen=True)
class FittedModel:
    kernel: KernelSpec
    centers: PointSet
    coefficients: np.ndarray    # shape (m,)
    lam: float
    training_size: int
    diagnostics: SolveDiagnostics | None    # None for a model read from a file

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=float)
        if coef.shape != (len(self.centers),):
            raise ValueError("one coefficient per center required")
        if not np.all(np.isfinite(coef)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coef)
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lam must be finite and >= 0")
        if self.training_size < 1:
            raise ValueError("training_size must be positive")

    def __call__(self, points: PointSet) -> np.ndarray:
        return predict(self, points)


def _eig_decompose(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Kept eigenpairs of a symmetric PSD matrix, for a pseudo-inverse solve.

    Eigenvalues at or below m * eps * lambda_max are treated as zero.
    Returns (kept eigenvalues, their eigenvectors as columns, threshold).
    """
    m = a.shape[0]
    # eigh reads one triangle only; callers pass exactly symmetric matrices.
    w, v = np.linalg.eigh(a)
    w_max = float(w[-1]) if m else 0.0
    threshold = m * np.finfo(float).eps * max(w_max, 0.0)
    keep = w > threshold
    return w[keep], v[:, keep], threshold


def _lower_inverse(l: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse X of a nonsingular lower-triangular matrix L, with exact zeros
    above the diagonal and a right residual ``|X L - I|`` within
    ``m * eps * (|X| @ |L|)`` entrywise.

    2 x 2 block recursion, each block written into ``out`` (a fresh array at
    the top call).  The off-diagonal block solves ``X21 L11 = -(X22 L21)`` by
    ``np.linalg.solve`` on the upper-triangular ``L11^T``; diagonal blocks of
    at most ``TRI_INV_LEAF`` rows are inverted the same way, ``inv(L^T)^T``.
    An upper-triangular matrix needs no row exchange, so numpy's LU of it is
    exact and the solve is a backward-stable back substitution.  numpy has no
    triangular solve of its own: ``np.linalg.inv(L)`` exchanges rows of a
    lower-triangular L and ``X21 = -X22 (L21 X11)`` multiplies by the
    computed X11, and on an ill-conditioned factor either one is orders of
    magnitude less accurate.
    """
    x = np.zeros_like(l) if out is None else out
    m = len(l)
    if m <= TRI_INV_LEAF:
        x[:] = np.linalg.inv(l.T).T
        return x
    h = m // 2
    _lower_inverse(l[:h, :h], x[:h, :h])
    _lower_inverse(l[h:, h:], x[h:, h:])
    x[h:, :h] = np.linalg.solve(l[:h, :h].T, -(x[h:, h:] @ l[h:, :h]).T).T
    return x


def _cholesky_inverse(a: np.ndarray) -> tuple[np.ndarray | None, float]:
    """``(L^-1, kappa)`` for ``a = L L^T``, or ``(None, inf)`` if the
    factorization fails.

    ``kappa = |a|_1 |L^-1|_1 |L^-1|_inf`` bounds cond_2(a) from above, since
    ``|a^-1|_2 = |L^-1|_2^2 <= |L^-1|_1 |L^-1|_inf`` and ``|a|_2 <= |a|_1``
    for symmetric a.  numpy.linalg only: scipy's separately built BLAS would
    contend with numpy's for the same cores.
    """
    try:
        l_inv = _lower_inverse(np.linalg.cholesky(a))
    except np.linalg.LinAlgError:
        return None, np.inf
    kappa = float(np.linalg.norm(a, 1) * np.linalg.norm(l_inv, 1)
                  * np.linalg.norm(l_inv, np.inf))
    return l_inv, kappa


def _whiten(gtg: np.ndarray, kmm: np.ndarray):
    """One decomposition that solves ``(gtg + s * kmm) alpha = b`` for every shift s.

    Factors ``kmm = L L^T`` and decomposes ``C = L^-1 gtg L^-T = Q D Q^T``;
    then ``alpha = P (P^T b) / (D + s)`` with ``P = L^-T Q``.  Returns
    (D ascending, P, kappa), where kappa bounds cond_2(kmm)
    (:func:`_cholesky_inverse`), or None when the Cholesky factorization or
    the eigendecomposition fails or kappa alone exceeds the limit (then no
    shift is admitted).
    """
    l_inv, kappa = _cholesky_inverse(kmm)
    if not kappa <= WHITENED_COND_LIMIT:
        return None
    try:
        d, q = np.linalg.eigh(l_inv @ gtg @ l_inv.T)
    except np.linalg.LinAlgError:
        return None
    return d, l_inv.T @ q, kappa


def _admitted(d: np.ndarray, kappa: float, shift: float) -> bool:
    """Whether ``kappa * (|D_max| + s) / (D_min + s)``, a bound on the condition
    number of the shifted system, is positive and within the limit."""
    low = d[0] + shift
    return bool(low > 0 and kappa * (abs(d[-1]) + shift) <= WHITENED_COND_LIMIT * low)


def _check_values(values, n: int) -> np.ndarray:
    y = np.asarray(values, dtype=float)
    if y.shape != (n,):
        raise ValueError(f"values must have shape ({n},), got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("values must be finite")
    return y


def fit_sketched_sweep(kernel: KernelSpec, data: PointSet, label_sets,
                       centers: PointSet, lams) -> list[list[FittedModel]]:
    """Fit every (label set, lam) pair on one input set, sharing all the work
    that does not depend on the labels.

    The kernel matrices, ``Knm^T Knm`` and every ``b = Knm^T y`` are built
    once.  Each lam is solved as ``alpha = V (c / w)`` from a factorization
    ``(w, V)`` of its system ``A`` and each label set's coordinates ``c``.
    With more than one lam, the system is whitened by ``Kmm`` and
    decomposed once (:func:`_whiten`); a lam whose condition bound is within
    ``WHITENED_COND_LIMIT`` takes ``(D + lam*N, P, P^T b)`` from it (method
    ``"whitened-eig"``).  Every other lam, and a sweep of one lam, factors
    its own ``A = L L^T`` (:func:`_cholesky_inverse`) and takes
    ``(1, L^-T, L^-1 b)`` (``"cholesky"``) when the bound kappa on
    ``cond_2(A)`` is at most ``1 / (CHOLESKY_MARGIN * m * eps)``; failing
    that, the kept eigenpairs of ``A`` and ``c = V^T b`` (``"eig-pinv"``).
    Such a lam is solved bit for bit as a separate :func:`fit_sketched`
    call solves it.  Returns one list of models per label set, in ``lams``
    order.  Each ``wall_time`` is the whole assembly, the whole
    decomposition its lam used (a rejected Cholesky attempt included) and
    its own solve.
    """
    n = len(data)
    ys = [_check_values(values, n) for values in label_sets]
    if not ys:
        raise ValueError("fit_sketched_sweep needs at least one label set")
    lams = [float(l) for l in lams]
    if any(not (np.isfinite(l) and l >= 0) for l in lams):
        raise ValueError("regularization values must be finite and >= 0")

    t0 = time.perf_counter()
    knm = cross_matrix(kernel, data, centers)
    kmm = gram(kernel, centers)
    gtg = knm.T @ knm
    rhs = [knm.T @ y for y in ys]
    assembly = time.perf_counter() - t0

    t0 = time.perf_counter()
    whitened = _whiten(gtg, kmm) if len(lams) > 1 else None
    if whitened is not None:
        d, p, kappa = whitened
        projected = [p.T @ b for b in rhs]
    whitening = time.perf_counter() - t0

    m = len(centers)
    cholesky_limit = 1.0 / (CHOLESKY_MARGIN * m * np.finfo(float).eps)
    models: list[list[FittedModel]] = [[] for _ in ys]
    for lam in lams:
        shift = lam * n
        if whitened is not None and _admitted(d, kappa, shift):
            method, w, v, threshold, coords = "whitened-eig", d + shift, p, 0.0, projected
            decompose = whitening
        else:
            t0 = time.perf_counter()
            a = gtg + shift * kmm
            l_inv, own_kappa = _cholesky_inverse(a)
            if own_kappa <= cholesky_limit:
                method, w, v, threshold = "cholesky", np.ones(m), l_inv.T, 0.0
                coords = [l_inv @ b for b in rhs]
            else:
                w, v, threshold = _eig_decompose(a)
                method, coords = "eig-pinv", [v.T @ b for b in rhs]
            decompose = time.perf_counter() - t0
        for b, c, out in zip(rhs, coords, models):
            t0 = time.perf_counter()
            coef = v @ (c / w)
            wall = assembly + decompose + time.perf_counter() - t0
            diag = SolveDiagnostics(
                method, len(w), threshold,
                residual_norm=float(np.linalg.norm(gtg @ coef + shift * (kmm @ coef) - b)),
                wall_time=wall)
            out.append(FittedModel(kernel, centers, coef, lam, n, diag))
    return models


def fit_sketched_multi(kernel: KernelSpec, data: PointSet, values,
                       centers: PointSet, lams) -> list[FittedModel]:
    """Fit one model per regularization value: :func:`fit_sketched_sweep`
    with a single label set."""
    return fit_sketched_sweep(kernel, data, [values], centers, lams)[0]


def fit_sketched(kernel: KernelSpec, data: PointSet, values,
                 centers: PointSet, lam: float) -> FittedModel:
    """Fit with centers restricted to ``centers`` (the sketched system)."""
    return fit_sketched_multi(kernel, data, values, centers, [lam])[0]


def fit_full(kernel: KernelSpec, data: PointSet, values, lam: float) -> FittedModel:
    """Fit with every data site as a center: (K + lam*N*I) alpha = y.

    Pure interpolation (lam = 0) is excluded; use a tiny lam like 1e-10 to
    approach it.  Cholesky first; if the shifted matrix turns out to be
    numerically indefinite anyway, fall back to the pseudo-inverse and
    record that in the diagnostics.
    """
    # Imported here, its only use, so ``import sphfit`` loads no scipy.
    import scipy.linalg

    y = _check_values(values, len(data))
    lam = float(lam)
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError("fit_full needs lam > 0")
    n = len(data)
    t0 = time.perf_counter()
    # In place: adding +0.0 off the diagonal would change no entry (none is -0.0).
    shifted = gram(kernel, data)
    shifted[np.diag_indices(n)] += lam * n
    try:
        coef = scipy.linalg.cho_solve(scipy.linalg.cho_factor(shifted, lower=True), y)
        method, rank, threshold = "cholesky", n, 0.0
    except scipy.linalg.LinAlgError:
        w, v, threshold = _eig_decompose(shifted)
        coef = v @ ((v.T @ y) / w)
        method, rank = "eig-pinv", len(w)
    diag = SolveDiagnostics(method, rank, threshold,
                            residual_norm=float(np.linalg.norm(shifted @ coef - y)),
                            wall_time=time.perf_counter() - t0)
    return FittedModel(kernel, data, coef, lam, n, diag)


def _scored_blocks(models: list[FittedModel], points: PointSet):
    """The one block loop behind :func:`predict` and :func:`rmse_sweep`.

    Groups the models by kernel, in order of first appearance, and yields
    ``(rows, indices, values)`` for each test block and each kernel:
    ``values[i]`` is model ``indices[i]``'s prediction on ``points[rows]``.
    Each block's dot product with the shared centers is built once and
    serves every kernel; each kernel's block is evaluated once and scores
    its models in one GEMM.  A block has at most ``BLOCK_BYTES`` in any of
    these arrays, so it stays in cache while every consumer reads it.
    """
    if not models:
        raise ValueError("a sweep needs at least one model")
    centers = models[0].centers
    if any(m.centers is not centers for m in models):
        raise ValueError("the models of a sweep must share one center set")
    groups: dict[KernelSpec, list[int]] = {}
    for i, model in enumerate(models):
        groups.setdefault(model.kernel, []).append(i)
    stacked = [(kernel, np.array(idx), np.array([models[i].coefficients for i in idx]))
               for kernel, idx in groups.items()]
    xyz, cx = points.xyz, centers.xyz
    widest = max(len(centers), *(len(idx) for idx in groups.values()))
    for rows in _row_blocks(len(points), widest):
        dot = xyz[rows] @ cx.T
        for kernel, idx, coef in stacked:
            # The kernel block is freed before the values are handed out.
            # Its transpose is a view: one dgemm, no copy.
            yield rows, idx, coef @ zonal_value(kernel, dot).T


def predict(model: FittedModel, points: PointSet) -> np.ndarray:
    """Evaluate the fitted expansion at ``points``, blockwise."""
    out = np.empty(len(points))
    for rows, _, values in _scored_blocks([model], points):
        out[rows] = values[0]
    return out


def rmse_sweep(models: list[FittedModel], points: PointSet, labels) -> np.ndarray:
    """Root mean squared test error of each model, in ``models`` order, from
    one pass over the test points and no (models x points) array.

    The models must share one center set (the same object, as
    :func:`fit_sketched_sweep` returns them); their kernels may differ.
    Each prediction is within ``4 * m * eps * (|K| @ |alpha|)`` entrywise of
    the model's own product ``K @ alpha`` (m centers), also when models are
    added or reordered, and the squared residuals are summed block by
    block.  So each RMSE differs from that of a one-model evaluation by at
    most the 2-norm of that bound over sqrt(n), plus about ``n * eps``
    relative for the reordered sum of n squares.
    """
    y = np.asarray(labels, dtype=float)
    if y.shape != (len(points),):
        raise ValueError(f"labels must have shape ({len(points)},), got {y.shape}")
    sums = np.zeros(len(models))
    for rows, idx, values in _scored_blocks(models, points):
        values -= y[rows]
        np.square(values, out=values)
        sums[idx] += values.sum(axis=1)
    return np.sqrt(sums / len(points))


MODEL_MAGIC = "sphfit-model v1"
# the model file's header keys, in file order, each with the parser of its value
MODEL_HEADER = {"kernel": KernelSpec.parse, "lambda": _number(float, 0),
                "training_size": _number(int, 1),
                "design_degree": lambda text: None if text == "-" else _number(int, 0)(text),
                "n_centers": _number(int, 1)}


def save_model(path, model: FittedModel) -> None:
    """Write a model: the magic line, ``key value`` header lines, then x y z alpha rows."""
    centers = model.centers
    degree = "-" if centers.design_degree is None else centers.design_degree
    values = (model.kernel.describe(), model.lam, model.training_size, degree, len(centers))
    table = np.column_stack([centers.xyz, model.coefficients])
    _write_rows(path, [MODEL_MAGIC], [*zip(MODEL_HEADER, values), *table.tolist()])


def load_model(path) -> FittedModel:
    """Read a model written by :func:`save_model`; it carries no diagnostics."""
    lines = _data_lines(path)
    if not lines or lines[0][1] != MODEL_MAGIC:
        raise PointFileError(f"{path}:{lines[0][0] if lines else 1}: not a sphfit model file")
    header = {}
    for i, (key, parse) in enumerate(MODEL_HEADER.items(), start=1):
        lineno, text = lines[i] if i < len(lines) else (lines[-1][0] + 1, "")
        parts = text.split(None, 1)
        if len(parts) != 2 or parts[0] != key:
            raise PointFileError(f"{path}:{lineno}: expected header line {key!r}, got {text!r}")
        try:
            header[key] = parse(parts[1])
        except ValueError as exc:
            raise PointFileError(f"{path}:{lineno}: {key}: {exc}") from None
    m = header["n_centers"]
    table, linenos = _read_rows(path, lines[6:], 4)
    if len(table) != m:
        raise PointFileError(f"{path}: expected {m} 'x y z alpha' rows, got {len(table)}")
    centers = _unit_points(path, table[:, :3], linenos, header["design_degree"])
    return FittedModel(header["kernel"], centers, table[:, 3].copy(),
                       header["lambda"], header["training_size"], None)
