"""Point sets on the unit sphere: loading, generation, and geometric diagnostics.

Coordinates are plain (n, 3) float64 arrays wrapped in an immutable
:class:`PointSet`.  Generators are deterministic; file I/O uses a plain
text format (three whitespace-separated reals per line, ``#`` comments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from math import gcd
from pathlib import Path

import numpy as np

UNIT_TOL = 1e-12          # post-normalization unit-norm tolerance
LOAD_NORM_TOL = 1e-6      # acceptable norm deviation in point files
# Bytes of one row block of a float64 matrix: test-grid scoring, the mesh
# norm's probe grid, the separation radius and the harmonic sums build their
# (rows x columns) matrices this many bytes at a time.  Sized to fit in a
# core's L2 cache (2 MiB on common x86 server cores), so that every consumer
# of a block reads it while it is hot, and small enough that the allocator
# reuses a freed block's memory for the next one instead of mapping fresh
# pages that the OS must fault in again; the memory cap follows from that.
BLOCK_BYTES = 1 << 20

# Peak bytes per point of generate_spiral and eq_area_centers, checked against
# the memory budget before they allocate (tracemalloc, n = 10^4 to 4 * 10^5).
SPIRAL_BYTES_PER_POINT = 161
EQ_AREA_BYTES_PER_POINT = 185


class PointFileError(ValueError):
    """Raised for a missing, malformed or out-of-tolerance sphfit data file:
    point files, dataset CSVs, label lists and model files."""


def _as_unit_rows(arr: np.ndarray, where: str) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] == 0:
        raise ValueError(f"{where}: expected nonempty (n, 3) array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{where}: non-finite coordinates")
    norms = np.linalg.norm(arr, axis=1)
    if np.any(np.abs(norms - 1.0) > UNIT_TOL):
        worst = np.abs(norms - 1.0).max()
        raise ValueError(f"{where}: points deviate from unit norm by {worst:.3e} (> {UNIT_TOL})")
    return arr


@dataclass(frozen=True)
class PointSet:
    """Ordered, immutable collection of unit vectors on S^2.

    Parameters
    ----------
    xyz : (n, 3) array
        Unit vectors; validated to norm 1 within 1e-12.
    design_degree : int, optional
        Attach only after the set has been verified as a spherical design
        of this degree (see :func:`sphfit.legendre.verify_design`).
    label : str
        Free-text provenance (file path or generator name).
    """

    xyz: np.ndarray
    design_degree: int | None = None
    label: str = ""

    def __post_init__(self):
        arr = _as_unit_rows(self.xyz, "PointSet")
        arr.setflags(write=False)
        object.__setattr__(self, "xyz", arr)
        if self.design_degree is not None and self.design_degree < 0:
            raise ValueError("design_degree must be nonnegative")

    def __len__(self) -> int:
        return self.xyz.shape[0]

    def with_design_degree(self, t: int) -> "PointSet":
        """Copy of this set carrying a verified design degree."""
        return replace(self, design_degree=t)

    def take(self, indices) -> "PointSet":
        """Sub-set in the given index order; drops any design degree."""
        return PointSet(self.xyz[np.asarray(indices)], label=f"{self.label}[subset]")


def normalized(arr: np.ndarray) -> np.ndarray:
    """Rows of `arr` scaled to unit length."""
    arr = np.asarray(arr, dtype=float)
    return arr / np.linalg.norm(arr, axis=-1, keepdims=True)


def _data_lines(path) -> list[tuple[int, str]]:
    """Numbered, stripped lines of a data file, without blank and ``#`` lines."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise PointFileError(f"{path}: no such file") from None
    except UnicodeDecodeError as exc:
        raise PointFileError(f"{path}: not a text file ({exc})") from None
    lines = ((i, line.strip()) for i, line in enumerate(text.splitlines(), start=1))
    return [(i, s) for i, s in lines if s and not s.startswith("#")]


def _split_rows(path, lines, n_fields: int, sep: str | None = None,
                header: str | None = None):
    """Yield ``(line number, fields)`` for each row of `lines` (from
    :func:`_data_lines`) after a first line equal to `header`, if given: the
    line split on `sep` (whitespace when None) into exactly `n_fields` fields.
    A fault raises :class:`PointFileError` naming file:line."""
    if header is not None:
        if not lines or lines[0][1] != header:
            raise PointFileError(f"{path}:{lines[0][0] if lines else 1}: "
                                 f"expected header {header!r}")
        lines = lines[1:]
    for lineno, text in lines:
        fields = text.split(sep)
        if len(fields) != n_fields:
            raise PointFileError(f"{path}:{lineno}: expected {n_fields} fields, got {len(fields)}")
        yield lineno, fields


def _read_rows(path, lines, n_fields: int, sep: str | None = None,
               header: str | None = None) -> tuple[np.ndarray, list[int]]:
    """The (n, n_fields) table of :func:`_split_rows` and each row's line
    number; every field must be a finite float (:class:`PointFileError`
    naming file:line otherwise)."""
    rows, linenos = [], []
    for lineno, fields in _split_rows(path, lines, n_fields, sep, header):
        try:
            rows.append(list(map(float, fields)))
        except ValueError as exc:
            raise PointFileError(f"{path}:{lineno}: {exc}") from None
        linenos.append(lineno)
    table = np.array(rows, dtype=float).reshape(len(rows), n_fields)
    bad = ~np.isfinite(table).all(axis=1)
    if bad.any():
        raise PointFileError(f"{path}:{linenos[int(np.argmax(bad))]}: non-finite value")
    return table, linenos


def _number(kind: type, low: int):
    """Parser (raising ``ValueError``) of a finite `kind` (int or float) >= `low`."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and value >= low):
            raise ValueError(f"expected a finite {kind.__name__} >= {low}, got {text!r}")
        return value
    return parse


def _write_rows(path, head: list[str], rows, sep: str = " ") -> None:
    """Write the `head` lines, then each row's fields joined by `sep`: a float
    to 17 significant digits (it reads back bit for bit), None as an empty
    field, anything else as ``str`` gives it; UTF-8, each line ending in a
    newline.  Pass numeric tables as ``.tolist()``: formatting numpy scalars
    one at a time takes about 1.5 times as long."""
    body = (sep.join([f"{v:.17g}" if isinstance(v, float) else "" if v is None else str(v)
                      for v in row]) for row in rows)
    Path(path).write_text("\n".join([*head, *body, ""]), encoding="utf-8")


def _unit_points(path, xyz: np.ndarray, linenos: list[int],
                 design_degree: int | None = None) -> PointSet:
    """Points from coordinates read from a data file: rejected beyond 1e-6
    from unit norm, kept bit for bit within 1e-12, renormalized otherwise."""
    if not len(xyz):
        raise PointFileError(f"{path}: no points")
    xyz = np.array(xyz, dtype=float)
    norms = np.linalg.norm(xyz, axis=1)
    bad = np.abs(norms - 1.0) > LOAD_NORM_TOL
    if np.any(bad):
        i = int(np.argmax(bad))
        raise PointFileError(f"{path}:{linenos[i]}: point {i + 1} has norm {norms[i]:.9g}, "
                             f"beyond tolerance {LOAD_NORM_TOL}")
    off = np.abs(norms - 1.0) > UNIT_TOL
    xyz[off] /= norms[off, None]
    return PointSet(xyz, design_degree=design_degree, label=str(path))


def load_point_file(path) -> PointSet:
    """Read a point set from a whitespace-separated ``x y z`` text file;
    ``#`` and blank lines are skipped, and points follow :func:`_unit_points`."""
    return _unit_points(path, *_read_rows(path, _data_lines(path), 3))


def save_point_file(path, point_set: PointSet, header: str | None = None) -> None:
    """Write a point set in the ``x y z`` text format, each line of `header`
    as a ``#`` comment above the points."""
    head = [f"# {h}" for h in header.splitlines()] if header else []
    _write_rows(path, head, point_set.xyz.tolist())


def generate_spiral(n: int) -> PointSet:
    """Generalized spiral points (Rakhmanov-Saff-Zhou rule, constant 3.6).

    Heights are uniform in [-1, 1]; azimuths advance by 3.6/sqrt(n(1-h^2))
    per step, with both endpoints pinned to azimuth 0 at the poles.
    Deterministic: equal `n` gives bitwise-equal coordinates.  The steps
    are computed with numpy; only the running sum modulo 2 pi, a
    recurrence, is a loop, over Python floats.
    """
    if n < 2:
        raise ValueError("spiral needs n >= 2")
    from .kernels import _check_budget      # kernels imports this module
    _check_budget(SPIRAL_BYTES_PER_POINT * n, f"spiral of {n} points")
    h = -1.0 + 2.0 * np.arange(n) / (n - 1)
    theta = np.arccos(np.clip(h, -1.0, 1.0))
    steps = 3.6 / np.sqrt(n * (1.0 - h[1:-1] * h[1:-1]))
    turn, acc, azimuths = 2.0 * math.pi, 0.0, []
    for step in steps.tolist():
        acc = (acc + step) % turn
        azimuths.append(acc)
    phi = np.zeros(n)
    phi[1:-1] = azimuths
    sin_t = np.sin(theta)
    xyz = np.column_stack([sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)])
    xyz[0] = (0.0, 0.0, -1.0)
    xyz[-1] = (0.0, 0.0, 1.0)
    return PointSet(normalized(xyz), label=f"spiral({n})")


# ---------------------------------------------------------------------------
# Recursive zonal equal-area partition (S^2 only)

@dataclass(frozen=True)
class EqPartition:
    """Zonal equal-area partition of S^2 into `n` regions.

    `cap_colats[i]` is the colatitude of the bottom of the i-th nested cap;
    collar `i` spans ``[cap_colats[i], cap_colats[i+1]]`` and holds
    ``collar_counts[i]`` equal-area lune cells, rotated by ``offsets[i]``
    turns.  A single polar cap sits above the first collar and below the
    last (for n >= 2).
    """

    n: int
    cap_colats: np.ndarray = field(default_factory=lambda: np.empty(0))
    collar_counts: tuple[int, ...] = ()
    offsets: tuple[float, ...] = ()


def _round_preserving_total(ideal: list[float]) -> list[int]:
    counts, disc = [], 0.0
    for r in ideal:
        k = int(round(r + disc))
        counts.append(k)
        disc += r - k
    return counts


def _circle_offset(n_top: int, n_bot: int) -> float:
    return (1.0 / n_bot - 1.0 / n_top) / 2.0 + gcd(n_top, n_bot) / (2.0 * n_top * n_bot)


def eq_area_partition(n: int) -> EqPartition:
    """Recursive zonal equal-area partition of S^2 into `n` regions."""
    if n < 1:
        raise ValueError("need n >= 1 regions")
    if n == 1:
        return EqPartition(n=1)
    c_polar = math.acos(1.0 - 2.0 / n)
    if n == 2:
        return EqPartition(n=2, cap_colats=np.array([c_polar]))
    ideal_angle = math.sqrt(4.0 * math.pi / n)
    n_collars = max(1, int(round((math.pi - 2.0 * c_polar) / ideal_angle)))
    fitting = (math.pi - 2.0 * c_polar) / n_collars
    ideal = []
    for i in range(n_collars):
        top = c_polar + i * fitting
        bot = c_polar + (i + 1) * fitting
        ideal.append(n * (math.cos(top) - math.cos(bot)) / 2.0)
    counts = _round_preserving_total(ideal)
    counts = [max(1, c) for c in counts]
    while sum(counts) > n - 2:
        counts[counts.index(max(counts))] -= 1
    while sum(counts) < n - 2:
        counts[counts.index(max(counts))] += 1
    # collar boundaries re-fit so every region has area exactly 4*pi/n
    colats, cum = [c_polar], 1
    for c in counts:
        cum += c
        colats.append(math.acos(max(-1.0, 1.0 - 2.0 * cum / n)))
    offsets, off = [0.0], 0.0
    for prev, cur in zip(counts, counts[1:]):
        off = (off + _circle_offset(prev, cur)) % 1.0
        offsets.append(off)
    return EqPartition(n=n, cap_colats=np.array(colats),
                       collar_counts=tuple(counts), offsets=tuple(offsets))


def eq_area_centers(n: int) -> PointSet:
    """Center points of the `n` regions of the zonal equal-area partition.

    Cap regions are centered on the poles; each collar cell is centered at
    the midpoint of its colatitude span and azimuth interval.
    """
    from .kernels import _check_budget      # kernels imports this module
    _check_budget(EQ_AREA_BYTES_PER_POINT * n, f"equal-area centers of {n} regions")
    part = eq_area_partition(n)
    pts = [(0.0, 0.0, 1.0)]
    if n > 1:
        bounds = part.cap_colats
        for ci, (count, off) in enumerate(zip(part.collar_counts, part.offsets)):
            colat = (bounds[ci] + bounds[ci + 1]) / 2.0
            s, c = math.sin(colat), math.cos(colat)
            for j in range(count):
                az = 2.0 * math.pi * ((j + 0.5) / count + off)
                pts.append((s * math.cos(az), s * math.sin(az), c))
        pts.append((0.0, 0.0, -1.0))
    return PointSet(normalized(np.array(pts)), label=f"eq-centers({n})")


# ---------------------------------------------------------------------------
# Geometric diagnostics

def _block_rows(n_cols: int) -> int:
    """Rows of an n_cols-wide float64 matrix that fit in ``BLOCK_BYTES`` (at least one)."""
    return max(1, BLOCK_BYTES // (8 * n_cols))


def _row_blocks(n_rows: int, n_cols: int):
    """Consecutive row slices of an (n_rows, n_cols) float64 matrix, each
    within ``BLOCK_BYTES`` (and at least one row)."""
    step = _block_rows(n_cols)
    return (slice(lo, lo + step) for lo in range(0, n_rows, step))


def _min_geodesic_to_set(queries: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """For each query row, max dot product against `pts` (blockwise)."""
    best = np.empty(len(queries))
    for rows in _row_blocks(len(queries), len(pts)):
        best[rows] = (queries[rows] @ pts.T).max(axis=1)
    return best


def _disc_probe(center: np.ndarray, radius: float, count: int) -> np.ndarray:
    """Deterministic spiral of `count` points in the spherical cap around `center`."""
    z = center / np.linalg.norm(center)
    a = np.array([1.0, 0.0, 0.0]) if abs(z[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = np.cross(z, a)
    u /= np.linalg.norm(u)
    v = np.cross(z, u)
    k = np.arange(1, count + 1)
    r = radius * np.sqrt(k / count)
    ang = k * math.pi * (3.0 - math.sqrt(5.0))
    tang = np.outer(r * np.cos(ang), u) + np.outer(r * np.sin(ang), v)
    return normalized(z[None, :] + tang)


def mesh_norm(point_set: PointSet) -> float:
    """Covering radius of the set, in radians.

    Maximizes the distance-to-nearest-point over a dense deterministic grid
    (spiral with 100x the set size) and refines around the winner; accurate
    to well within 2% for sets of 2+ points.
    """
    pts = point_set.xyz
    if len(pts) == 1:
        return math.pi
    grid = generate_spiral(max(200, 100 * len(pts))).xyz
    maxdot = _min_geodesic_to_set(grid, pts)
    best = int(np.argmin(maxdot))
    best_dot = maxdot[best]
    center = grid[best]
    radius = 2.0 * math.sqrt(4.0 * math.pi / len(grid))
    for _ in range(6):
        probe = np.vstack([center[None, :], _disc_probe(center, radius, 256)])
        pd = _min_geodesic_to_set(probe, pts)
        j = int(np.argmin(pd))
        if pd[j] < best_dot:
            best_dot = pd[j]
            center = probe[j]
        radius /= 3.0
    return float(np.arccos(np.clip(best_dot, -1.0, 1.0)))


def separation_radius(point_set: PointSet) -> float:
    """Half the minimum pairwise geodesic distance, in radians (exact)."""
    pts = point_set.xyz
    n = len(pts)
    if n < 2:
        raise ValueError("separation radius needs at least 2 points")
    worst = -1.0
    for rows in _row_blocks(n, n):
        dots = pts[rows] @ pts.T
        i = np.arange(len(dots))
        dots[i, rows.start + i] = -2.0      # mask the self-pairs
        worst = max(worst, float(dots.max()))
    return float(np.arccos(np.clip(worst, -1.0, 1.0)) / 2.0)
