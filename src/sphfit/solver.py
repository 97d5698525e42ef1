"""Regularized least-squares fitting with kernel centers on a reduced set.

The model is f(x) = sum_j alpha_j K(x, c_j) over a center set C of size m,
fitted to data (x_i, y_i), i = 1..N, by minimizing

    (1/N) sum_i (f(x_i) - y_i)^2 + lam * ||f||_K^2 .

Restricting the representer expansion to C gives the m x m normal equations

    (Knm^T Knm + lam * N * Kmm) alpha = Knm^T y .

``fit_sketched_multi`` is the one sketched fit: it fits several label sets
on one input set at several lams, and ``fit_sketched`` is its call for one
label set and one lam.  A sweep over several lams decomposes the whitened
system once and solves every well-conditioned lam from it (Nystrom kernel
ridge regression, Rudi, Camoriano & Rosasco 2015).  Any other lam, and a
single-lam fit, is solved by its own Cholesky factor when a rigorous bound
on its condition number proves that the pseudo-inverse below would drop no
eigenvalue, so both give the same estimator.  The rest go through a symmetric eigendecomposition
pseudo-inverse, so that rank deficiency (tiny lam, clustered or duplicate
centers) degrades gracefully instead of blowing up.  ``fit_full`` covers
the classical m = N case through the equivalent system
(K + lam * N * I) alpha = y: a Cholesky factorization certifies that it is
numerically positive definite and two triangular substitutions with the
factor give alpha, or the pseudo-inverse does when the factorization fails.
No triangular matrix larger than ``TRI_INV_LEAF`` rows is LU-factored:
substitutions and the triangular inverse recurse by halves down to leaf
blocks.  numpy.linalg is the only linear-algebra library, so one BLAS
serves every fit.

Working set.  ``Knm`` (N x m) is never whole: ``Knm^T Knm`` and every
``Knm^T y`` are streamed from row blocks of it (:func:`_normal_matrices`)
in one workspace of W doubles (:func:`_assembly_blocks`): about m^2 / 4
when N is near m, and however large N is at most 9 m^2 / 8 doubles or three
``BLOCK_BYTES``, whichever is more.  The kernel temporaries of one row
block of B doubles add about B more.  A sweep then builds ``Kmm`` by
:func:`gram`; a one-lam fit adds the same row blocks of lam*N*Kmm into the
storage of ``Knm^T Knm`` through one buffer of at most ``BLOCK_BYTES``
(``kernels._add_kernel``, behind :func:`gram` too), never holding ``Kmm``.
Every Cholesky factorization is written over its system and the factor is
inverted in place; while it runs, numpy holds its copy of one half-size
block and that block's factor, m^2 / 2 doubles (:func:`_cholesky_in_place`),
and each triangular substitution writes over its right-hand side
(:func:`_upper_solve_in_place`).  So a one-lam fit's Cholesky arm holds
about max(m^2 + W + B, 1.5 m^2) doubles, plus one kernel block.  A
factorization that fails or is rejected leaves no system behind: the
pseudo-inverse streams ``Knm^T Knm`` again and adds ``Kmm`` again, with
the same bits, and frees the system before the kept eigenvectors are
copied out; with eigh's copy of the system it holds 3 m^2.  A sweep of
several lams keeps ``Knm^T Knm``, ``Kmm`` and the whitened basis, and its
whitening holds two m x m products at once: each lam's system is freed
once factored and formed again, with the same bits, if the pseudo-inverse
needs it, so a sweep holds 5 m^2 doubles.  Each model adds its m
coefficients.  ``fit_full`` factors its N x N system over itself, 1.5 N^2
doubles with numpy's copies, and solves with the factor; when the
factorization fails it builds the system again, and its pseudo-inverse
holds 3 N^2 with eigh's copy, freeing the system before the kept
eigenvectors are copied out.  Each fit checks the doubles of its
pseudo-inverse arm (3 m^2 or 5 m^2 plus W, and 3 N^2) against the memory
budget before it allocates anything, so the Cholesky arms are covered too.
Scoring holds one workspace of three ``BLOCK_BYTES`` (:func:`_scored_blocks`).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

# cross_matrix is no longer called here, but the binding stays: the
# benchmark's trace (perfbench/) wraps it in every module that holds it
from .kernels import (KernelSpec, _add_kernel, _check_budget, _kernel_rows,  # noqa: F401
                      _mirror_lower, cross_matrix, gram, zonal_value)
from .points import (PointFileError, PointSet, _block_rows, _data_lines, _number, _read_rows,
                     _row_blocks, _unit_points, _write_rows)

# Largest bound on cond_2(Knm^T Knm + lam*N*Kmm) for which a sweep solves lam
# in the whitened basis.  Far below 1 / (m * eps), so an admitted lam is one
# whose pseudo-inverse would drop no eigenvalue: both paths compute the same
# estimator and differ only by rounding, within m * eps * 1e8 relative (1e-6
# at m = 48, the golden tests' tolerance).  The limit stays this strict rather
# than rising to the Cholesky arm's: that would let the shared basis serve
# lams whose rounding gap grows toward 1e-2, while a lam it rejects costs one
# Cholesky factorization.
WHITENED_COND_LIMIT = 1e8

# A lam the whitening does not serve is solved by its own Cholesky factor when
# kappa >= cond_2(A) of its system A is at most 1 / (CHOLESKY_MARGIN * m * eps).
# Then lambda_min(A) >= lambda_max(A) / kappa >= 100 * m * eps * lambda_max(A),
# 100 times above the cutoff of _kept_eigenpairs: the pseudo-inverse would drop
# no eigenvalue, so both solve the same nonsingular system and give the same
# estimator up to rounding, about m * eps * cond_2(A) relative.
CHOLESKY_MARGIN = 100

# Largest triangular block that is LU-factored: _lower_inverse hands its
# diagonal blocks to np.linalg.inv, _upper_solve_in_place its leaves to
# np.linalg.solve.
TRI_INV_LEAF = 256


@dataclass(frozen=True)
class SolveDiagnostics:
    """How the linear system was solved: the arm, the rank kept and the seconds taken."""

    method: str                 # "eig-pinv", "whitened-eig" or "cholesky"
    rank_used: int              # retained spectral rank (= m for whitened-eig, cholesky)
    wall_time: float            # seconds to assemble the kernel matrices and solve


@dataclass(frozen=True)
class FittedModel:
    kernel: KernelSpec
    centers: PointSet
    coefficients: np.ndarray    # shape (m,)
    lam: float
    training_size: int
    diagnostics: SolveDiagnostics | None    # None unless a solver fitted it (a loaded model, f2)

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


def _kept_eigenpairs(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenpairs ``np.linalg.eigh`` gave for a symmetric PSD matrix
    that a pseudo-inverse solve keeps.

    Eigenvalues at or below m * eps * lambda_max are treated as zero.
    Returns (kept eigenvalues, their eigenvectors as columns).
    Taking eigh's output rather than the matrix lets a caller that passes
    ``eigh(<temporary>)`` have the matrix freed before the kept columns are
    copied out.  eigh reads one triangle only; callers pass exactly
    symmetric matrices.
    """
    threshold = len(w) * np.finfo(float).eps * max(float(w[-1]), 0.0)
    keep = w > threshold
    return w[keep], v[:, keep]


def _upper_solve_in_place(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Overwrite B, a vector or matrix (any view), with X for ``U X = B``
    and return it; U is nonsingular upper triangular with exact zeros below
    the diagonal.

    Back substitution by halves, as a recursive blocked TRSM (Elmroth,
    Gustavson, Jonsson & Kagstrom, SIAM Review 2004): X2 from U22, then X1
    from ``U11 X1 = B1 - U12 X2``.  Each leaf of at most ``TRI_INV_LEAF`` rows
    is ``np.linalg.solve``: an upper-triangular matrix needs no row
    exchange, so numpy's LU of it is exact and the solve is a
    backward-stable back substitution.  To solve with a lower-triangular L,
    pass its reversal ``L[::-1, ::-1]``, which is upper triangular, and
    ``B[::-1]``, and reverse the rows of X.  Besides B it holds one
    product ``U12 X2`` and one leaf's solution at a time.
    """
    m = len(u)
    if m <= TRI_INV_LEAF:
        b[...] = np.linalg.solve(u, b)
        return b
    h = m // 2
    _upper_solve_in_place(u[h:, h:], b[h:])
    b[:h] -= u[:h, h:] @ b[h:]
    _upper_solve_in_place(u[:h, :h], b[:h])
    return b


def _lower_inverse(l: np.ndarray) -> np.ndarray:
    """Overwrite a nonsingular lower-triangular matrix L, which has exact
    zeros above the diagonal, with its inverse X and return it.  X has
    exact zeros above the diagonal and a right residual ``|X L - I|``
    within ``m * eps * (|X| @ |L|)`` entrywise.

    2 x 2 block recursion in place, as LAPACK's xTRTRI inverts (Du Croz &
    Higham, IMA J. Numer. Anal. 1992): X22 first, then the off-diagonal
    block, which solves ``X21 L11 = -(X22 L21)`` while L11 is still in
    place, by back substitution with the upper-triangular ``L11^T``
    written over the product ``X22 L21`` (:func:`_upper_solve_in_place`),
    then X11.  Diagonal blocks of at most ``TRI_INV_LEAF`` rows are
    inverted as ``inv(L^T)^T``, an exact LU of an upper-triangular block,
    so no triangular matrix larger than that is LU-factored.  numpy has no
    triangular solve of its own: ``np.linalg.inv(L)`` exchanges rows of a
    lower-triangular L and ``X21 = -X22 (L21 X11)`` multiplies by the
    computed X11, and on an ill-conditioned factor either one is orders of
    magnitude less accurate.
    """
    m = len(l)
    if m <= TRI_INV_LEAF:
        l[:] = np.linalg.inv(l.T).T
        return l
    h = m // 2
    _lower_inverse(l[h:, h:])
    x21 = l[h:, h:] @ l[h:, :h]
    np.negative(x21, out=x21)
    l[h:, :h] = _upper_solve_in_place(l[:h, :h].T, x21.T).T
    _lower_inverse(l[:h, :h])
    return l


def _cholesky_in_place(a: np.ndarray) -> np.ndarray:
    """Overwrite a symmetric positive definite matrix ``a`` with its lower
    Cholesky factor L, with exact zeros above the diagonal, and return it.
    Only the lower triangle of ``a`` is read.  Raises ``LinAlgError`` if
    ``a`` is not numerically positive definite, and then leaves ``a``
    partly overwritten.

    Up to ``TRI_INV_LEAF`` rows this is ``np.linalg.cholesky(a)``, bit for
    bit.  Above that, one level of the blocked right-looking factorization
    (Elmroth, Gustavson, Jonsson & Kagstrom, SIAM Review 2004): L11 from
    A11, ``L21 = A21 L11^-T`` by back substitution with the reversed L11,
    written over A21 (:func:`_upper_solve_in_place`), then L22 from the
    Schur complement ``A22 - L21 L21^T``, formed in A22's storage.  numpy's
    copy of each half-size block is all that is held besides ``a``, so a
    factorization holds 1.5 m^2 doubles where ``np.linalg.cholesky`` holds
    3 m^2.  The halves are factored by numpy: a deeper recursion of
    Python-level substitutions is slower than LAPACK at the sizes a fit
    reaches.
    """
    m = len(a)
    if m <= TRI_INV_LEAF:
        a[:] = np.linalg.cholesky(a)
        return a
    h = m // 2
    a[:h, :h] = np.linalg.cholesky(a[:h, :h])
    # L11 L21^T = A21^T is the upper-triangular system of L11 reversed
    _upper_solve_in_place(a[:h, :h][::-1, ::-1], a[h:, :h].T[::-1])
    a[:h, h:] = 0.0
    l21 = a[h:, :h]
    a[h:, h:] -= l21 @ l21.T
    a[h:, h:] = np.linalg.cholesky(a[h:, h:])
    return a


def _inverse_factor(a: np.ndarray) -> tuple[np.ndarray | None, float]:
    """``(L^-1, kappa)`` for ``a = L L^T``, with L written over ``a``
    (:func:`_cholesky_in_place`) and inverted in place (:func:`_lower_inverse`),
    or ``(None, inf)``, with ``a`` overwritten, if the factorization fails.

    ``kappa = |a|_1 |L^-1|_1 |L^-1|_inf`` bounds cond_2(a) from above, since
    ``|a^-1|_2 = |L^-1|_2^2 <= |L^-1|_1 |L^-1|_inf`` and ``|a|_2 <= |a|_1``
    for symmetric a.  Each norm comes from column and row sums of absolute
    values (:func:`_abs_sums`), that of ``a`` before it is overwritten.
    """
    a_norm = float(_abs_sums(a)[0].max())
    try:
        l = _cholesky_in_place(a)
    except np.linalg.LinAlgError:
        return None, np.inf
    l_inv = _lower_inverse(l)
    col_sums, row_sums = _abs_sums(l_inv)
    return l_inv, float(a_norm * col_sums.max() * row_sums.max())


def _abs_sums(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column and the row sums of ``|a|``, one row block at a time, so
    that no m x m temporary is allocated."""
    m = len(a)
    col_sums, row_sums = np.zeros(m), np.empty(m)
    for rows in _row_blocks(m, m):
        block = np.abs(a[rows])
        col_sums += block.sum(axis=0)
        row_sums[rows] = block.sum(axis=1)
    return col_sums, row_sums


def _whiten(gtg: np.ndarray, kmm: np.ndarray):
    """One decomposition that solves ``(gtg + s * kmm) alpha = b`` for every shift s.

    Factors ``kmm = L L^T`` and decomposes ``C = L^-1 gtg L^-T = Q D Q^T``;
    then ``alpha = P (P^T b) / (D + s)`` with ``P = L^-T Q``.  Returns
    (D ascending, P, kappa), where kappa bounds cond_2(kmm)
    (:func:`_inverse_factor`), or None when the Cholesky factorization or
    the eigendecomposition fails or kappa alone exceeds the limit (then no
    shift is admitted).  The factor is written over a copy of ``kmm``: the
    sweep keeps ``kmm`` to form each rejected shift's system.
    """
    l_inv, kappa = _inverse_factor(kmm.copy())
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


def _system(gtg: np.ndarray, kmm: np.ndarray, shift: float) -> np.ndarray:
    """``gtg + shift * kmm`` in one allocation."""
    a = np.multiply(kmm, shift)
    a += gtg
    return a


def _assembly_blocks(n: int, m: int) -> tuple[int, int]:
    """``(rows, width)``: the row blocks of ``Knm`` and the column panels of
    ``Knm^T Knm`` that :func:`_normal_matrices` streams for n sites and m
    centers.  Its workspace holds ``rows * m + m * width`` doubles.

    A panel is m / 8 columns wide, or as wide as two ``BLOCK_BYTES`` of
    ``Knm`` rows if that is more, and at most m: narrower panels slow the
    GEMMs (at m = 864 and N = 100 000, 151 columns took a fifth more GEMM
    time than 302).  A row block is m / 8 rows tall, or one ``BLOCK_BYTES``
    of rows, or N / 8 rows up to m, whichever is most: each block adds
    about m^2 / 2 products to ``Knm^T Knm``, so the adds cost at most
    4 m^2 + N m / 2 against the N m^2 / 2 multiply-adds of the GEMMs, and
    the workspace stays within 9 m^2 / 8 doubles or three ``BLOCK_BYTES``
    however large N is.
    """
    eighth = -(-m // 8)
    width = min(m, max(2 * _block_rows(m), eighth))
    return min(n, max(_block_rows(m), eighth, min(m, -(-n // 8)))), width


def _normal_matrices(kernel: KernelSpec, data: PointSet, centers: PointSet, ys):
    """``(Knm^T Knm, [Knm^T y for y in ys])``, streamed from row blocks of
    ``Knm``, which is never whole.

    One workspace is allocated (:func:`_assembly_blocks`).  Each row block
    of ``Knm`` is written into its first part (:func:`_kernel_rows`), and
    each ``Knm^T y`` adds one GEMV per block.  The lower triangle of
    ``Knm^T Knm`` adds, for each column panel, the block's product of the
    panel's columns with every column at or past it: numpy has no
    ``C += A^T B``, so the product lands in the rest of the workspace and
    is then added.  At the end the lower triangle is mirrored, so the
    result is bitwise symmetric.  With one block and one panel the product
    is numpy's ``Knm.T @ Knm`` (a symmetric rank-k update), bit for bit.
    """
    n, m = len(data), len(centers)
    rows, width = _assembly_blocks(n, m)
    work = np.empty(rows * m + m * width)
    blocks, products = work[:rows * m], work[rows * m:]
    gtg, rhs = np.zeros((m, m)), [np.zeros(m) for _ in ys]
    for lo in range(0, n, rows):
        block = blocks[:min(rows, n - lo) * m].reshape(-1, m)
        _kernel_rows(kernel, data, centers, slice(lo, lo + rows), block)
        for b, y in zip(rhs, ys):
            b += block.T @ y[lo:lo + rows]
        for j in range(0, m, width):
            cols = slice(j, min(j + width, m))
            product = products[:(m - j) * (cols.stop - j)].reshape(m - j, -1)
            np.matmul(block[:, j:].T, block[:, cols], out=product)
            gtg[j:, cols] += product
    return _mirror_lower(gtg), rhs


def _check_values(values, n: int) -> np.ndarray:
    y = np.asarray(values, dtype=float)
    if y.shape != (n,):
        raise ValueError(f"values must have shape ({n},), got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("values must be finite")
    return y


def fit_sketched_multi(kernel: KernelSpec, data: PointSet, label_sets,
                       centers: PointSet, lams) -> list[list[FittedModel]]:
    """Fit every (label set, lam) pair on one input set, sharing all the work
    that does not depend on the labels.

    ``Knm^T Knm`` and every ``b = Knm^T y`` are streamed once
    (:func:`_normal_matrices`), and a sweep builds ``Kmm`` once; a one-lam
    fit adds lam*N*Kmm into ``Knm^T Knm`` (``kernels._add_kernel``).  Each lam
    is solved as ``alpha = V (c / w)`` from a factorization ``(w, V)`` of
    its system ``A`` and each label set's coordinates ``c``.
    With more than one lam, the system is whitened by ``Kmm`` and
    decomposed once (:func:`_whiten`); a lam whose condition bound is within
    ``WHITENED_COND_LIMIT`` takes ``(D + lam*N, P, P^T b)`` from it (method
    ``"whitened-eig"``).  Every other lam, and a sweep of one lam, factors
    its own ``A = L L^T`` (:func:`_inverse_factor`) and takes
    ``(1, L^-T, L^-1 b)`` (``"cholesky"``) when the bound kappa on
    ``cond_2(A)`` is at most ``1 / (CHOLESKY_MARGIN * m * eps)``; failing
    that, the kept eigenpairs of ``A`` and ``c = V^T b`` (``"eig-pinv"``).
    Such a lam is solved bit for bit as a one-lam sweep solves it.  Returns
    one list of models per label set, in ``lams`` order.  Each
    ``wall_time`` is the whole assembly, the whole decomposition its lam
    used (for a one-lam fit the adding of lam*N*Kmm to its system, a rejected
    Cholesky attempt included, and the second assembly its pseudo-inverse
    needs) and its own solve.  The whole working set (module docstring) is
    checked against the memory budget before anything is allocated.
    """
    n = len(data)
    ys = [_check_values(values, n) for values in label_sets]
    if not ys:
        raise ValueError("fit_sketched_multi needs at least one label set")
    lams = [float(l) for l in lams]
    if any(not (np.isfinite(l) and l >= 0) for l in lams):
        raise ValueError("regularization values must be finite and >= 0")

    m = len(centers)
    sweep = len(lams) > 1
    # the working set of the module docstring; a sweep keeps Knm^T Knm and
    # Kmm, and its whitening holds two more m x m matrices
    rows, width = _assembly_blocks(n, m)
    _check_budget(8 * ((5 if sweep else 3) * m * m + rows * m + m * width),
                  f"sketched fit of {n} sites on {m} centers")
    t0 = time.perf_counter()
    gtg, rhs = _normal_matrices(kernel, data, centers, ys)
    kmm = gram(kernel, centers) if sweep else None
    assembly = time.perf_counter() - t0

    def system(shift):
        # a sweep keeps gtg, Kmm and the basis and forms each lam's system
        # anew; a one-lam fit adds lam*N*Kmm into gtg's storage, so forming
        # it a second time takes a second assembly
        nonlocal gtg
        if sweep:
            return _system(gtg, kmm, shift)
        a, gtg = gtg, None
        return _mirror_lower(_add_kernel(a, kernel, centers, centers, shift))

    t0 = time.perf_counter()
    whitened = _whiten(gtg, kmm) if sweep else None
    if whitened is not None:
        d, p, kappa = whitened
        projected = [p.T @ b for b in rhs]
    whitening = time.perf_counter() - t0

    models: list[list[FittedModel]] = [[] for _ in ys]
    for lam in lams:
        shift = lam * n
        if whitened is not None and _admitted(d, kappa, shift):
            method, w, v, coords = "whitened-eig", d + shift, p, projected
            decompose = whitening
        else:
            t0 = time.perf_counter()
            # factored over itself: a rejected or failed factorization
            # leaves no copy of the system behind
            l_inv, bound = _inverse_factor(system(shift))
            v = l_inv.T if bound <= 1.0 / (CHOLESKY_MARGIN * m * np.finfo(float).eps) else None
            del l_inv   # a rejected inverse is freed here
            if v is not None:
                method, w = "cholesky", np.ones(m)
            else:
                if not sweep:   # the factorization wrote over the one system
                    gtg, _ = _normal_matrices(kernel, data, centers, [])
                # the system is released before the kept eigenvectors are copied
                w, v = np.linalg.eigh(system(shift))
                method, (w, v) = "eig-pinv", _kept_eigenpairs(w, v)
            coords = [v.T @ b for b in rhs]
            decompose = time.perf_counter() - t0
        for c, out in zip(coords, models):
            t0 = time.perf_counter()
            coef = v @ (c / w)
            diag = SolveDiagnostics(method, len(w),
                                    assembly + decompose + time.perf_counter() - t0)
            out.append(FittedModel(kernel, centers, coef, lam, n, diag))
        del v   # not held while the next lam's system is factored
    return models


def fit_sketched(kernel: KernelSpec, data: PointSet, values,
                 centers: PointSet, lam: float) -> FittedModel:
    """Fit with centers restricted to ``centers`` (the sketched system)."""
    return fit_sketched_multi(kernel, data, [values], centers, [lam])[0][0]


def fit_full(kernel: KernelSpec, data: PointSet, values, lam: float) -> FittedModel:
    """Fit with every data site as a center: (K + lam*N*I) alpha = y.

    Pure interpolation (lam = 0) is excluded; use a tiny lam like 1e-10 to
    approach it.  A Cholesky factorization ``L L^T``, written over the
    shifted matrix (:func:`_cholesky_in_place`), certifies that it is
    numerically positive definite, and two substitutions with that factor,
    ``alpha = L^-T (L^-1 y)`` (:func:`_upper_solve_in_place`, on copies of
    y and of z), give the coefficients (method ``"cholesky"``, rank N): the
    system is factored once.  If the factorization fails, the shifted
    matrix is numerically indefinite: it is built again, with the same
    bits, and solved by the pseudo-inverse, which the diagnostics record.
    The working set of the fallback (module docstring) is checked against
    the memory budget before anything is allocated.
    """
    y = _check_values(values, len(data))
    lam = float(lam)
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError("fit_full needs lam > 0")
    n = len(data)
    _check_budget(8 * 3 * n * n, f"full fit of {n} sites")

    def shifted():
        # In place: adding +0.0 off the diagonal would change no entry (none is -0.0).
        a = gram(kernel, data)
        a[np.diag_indices(n)] += lam * n
        return a

    t0 = time.perf_counter()
    try:
        l = _cholesky_in_place(shifted())
    except np.linalg.LinAlgError:
        l = None    # solved outside the handler, whose traceback holds the system
    if l is None:
        # the failed factorization wrote over the system: build it again,
        # with the same bits, and release it before the kept eigenvectors
        # are copied
        w, v = _kept_eigenpairs(*np.linalg.eigh(shifted()))
        coef = v @ ((v.T @ y) / w)
        method, rank = "eig-pinv", len(w)
    else:
        # L z = y is the upper-triangular system of L reversed
        z = _upper_solve_in_place(l[::-1, ::-1], y[::-1].copy())[::-1]
        coef = _upper_solve_in_place(l.T, z.copy())
        method, rank = "cholesky", n
    diag = SolveDiagnostics(method, rank, time.perf_counter() - t0)
    return FittedModel(kernel, data, coef, lam, n, diag)


def _scored_blocks(models: list[FittedModel], points: PointSet):
    """The one block loop behind :func:`predict` and :func:`rmse_sweep`.

    Groups the models by kernel, in order of first appearance, and yields
    ``(rows, indices, values)`` for each test block and each kernel:
    ``values[i]`` is model ``indices[i]``'s prediction on ``points[rows]``,
    valid until the next step.  One workspace serves every step: a test
    block's dot products with the shared centers, written once for every
    kernel (so not by ``_kernel_rows``, which serves one kernel); one
    kernel's values over them; and its models' predictions, one GEMM.  Each part is within ``BLOCK_BYTES``, so it stays in cache while
    every consumer reads it.
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
    xyz, cx, m = points.xyz, centers.xyz, len(centers)
    most = max(len(idx) for idx in groups.values())
    step = min(len(points), _block_rows(max(m, most)))
    dots, kernel_values, predictions = np.split(np.empty(step * (2 * m + most)),
                                                [step * m, 2 * step * m])
    for rows in _row_blocks(len(points), max(m, most)):
        n = min(step, len(points) - rows.start)
        dot, block = dots[:n * m].reshape(n, m), kernel_values[:n * m].reshape(n, m)
        np.matmul(xyz[rows], cx.T, out=dot)
        for kernel, idx, coef in stacked:
            values = predictions[:len(idx) * n].reshape(-1, n)
            # the transpose is a view: one dgemm, no copy
            yield rows, idx, np.matmul(coef, zonal_value(kernel, dot, out=block).T, out=values)


def predict(model: FittedModel, points: PointSet) -> np.ndarray:
    """Evaluate the fitted expansion at ``points``, blockwise."""
    out = np.empty(len(points))
    for rows, _, values in _scored_blocks([model], points):
        out[rows] = values[0]
    return out


def rmse_sweep(models: list[FittedModel], points: PointSet, labels) -> np.ndarray:
    """Root mean squared test error of each model, in ``models`` order, from
    one pass over the test points in one workspace (:func:`_scored_blocks`)
    and no (models x points) array.

    The models must share one center set (the same object, as
    :func:`fit_sketched_multi` returns them); their kernels may differ.
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
    rows = map(np.ndarray.tolist, np.column_stack([centers.xyz, model.coefficients]))
    _write_rows(path, [MODEL_MAGIC], itertools.chain(zip(MODEL_HEADER, values), rows))


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
