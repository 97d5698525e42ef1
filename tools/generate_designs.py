#!/usr/bin/env python3
"""Generate the symmetric spherical t-design files bundled with sphfit.

Each design is an antipodally symmetric point set X = {p_i} u {-p_i} on the
unit sphere whose equal-weight average integrates all spherical polynomials
of degree <= t exactly.  Node counts use the standard values for symmetric
designs (N = t(t+1)/2 + 2 rounded up to even for t >= 9; the antipodal
pair, cube, and icosahedron cover t = 1, 3, 5).

Method: Levenberg-Marquardt style least squares on the real spherical
harmonic sums e_{k,m} = (2/N) sum_p Y_{k,m}(p) over the free (upper) half of
the configuration, for even degrees k <= t (odd degrees vanish by symmetry).
Analytic Jacobian in colatitude/azimuth coordinates.  Retries with jittered
starts; for non-tabulated degrees the point count may be bumped by 2 if no
configuration converges.

Solutions are verified independently before anything is written, through
the residuals r_k = (1/N^2) sum_{i,j} P_k(x_i . x_j) of every degree k <= t.
The library's ``harmonic_residuals`` (from ``src/``) computes them as sums of
squared harmonic sums, in O(N t^2) time and within a fixed memory budget,
by its own recurrence rather than the scipy functions the solve uses.

Usage:  python3 tools/generate_designs.py [--degrees 1,3,...,57] [--out DIR]

Needs scipy, which the library itself does not: ``pip install -e '.[tools]'``.

One-time maintenance script; the library itself only loads the files.
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares
from scipy.special import sph_legendre_p_all

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from sphfit.legendre import harmonic_residuals  # noqa: E402
from sphfit.points import PointSet, _write_rows, save_point_file  # noqa: E402

DEFAULT_OUT = SRC / "sphfit" / "data" / "designs"

RESIDUAL_TARGET = 1e-10
MAX_SEEDS = 8
MAX_BUMPS = 3
MAX_KICKS = 8             # random perturb-and-resolve attempts from a stalled point
POLISH_BASIN = 1e-6       # only kick solutions already this close

# Exact point counts for the degrees in the published symmetric-design tables.
TABLE_COUNTS = {
    1: 2, 5: 12, 9: 48, 13: 94, 17: 156, 21: 234, 25: 328, 29: 438, 33: 564,
    39: 782, 45: 1038, 51: 1328, 57: 1656, 63: 2018, 69: 2418, 75: 2852,
    81: 3324, 87: 3830, 93: 4374, 99: 4952, 105: 5568, 111: 6218, 117: 6906,
    123: 7628, 129: 8388, 135: 9182, 141: 10014,
}


def point_count(t):
    if t in TABLE_COUNTS:
        return TABLE_COUNTS[t]
    if t == 3:
        return 8
    n = t * (t + 1) // 2 + 2
    return n + (n % 2)


def exact_small_design(t):
    """Closed-form configurations: antipodal pair, cube, icosahedron."""
    if t == 1:
        return np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    if t == 3:
        corners = np.array([[sx, sy, sz] for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)], float)
        return corners / np.sqrt(3.0)
    if t == 5:
        g = (1.0 + np.sqrt(5.0)) / 2.0
        raw = []
        for a, b in [(1.0, g)]:
            raw += [[0, a, b], [0, a, -b], [0, -a, b], [0, -a, -b]]
            raw += [[a, b, 0], [a, -b, 0], [-a, b, 0], [-a, -b, 0]]
            raw += [[b, 0, a], [-b, 0, a], [b, 0, -a], [-b, 0, -a]]
        raw = np.array(raw)
        return raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return None


def hemisphere_start(n2, seed):
    """Fibonacci-style start on the upper hemisphere, optionally jittered."""
    i = np.arange(1, n2 + 1)
    h = (i - 0.5) / n2
    th = np.arccos(h)
    ph = (i * np.pi * (3.0 - np.sqrt(5.0))) % (2 * np.pi)
    if seed:
        rng = np.random.default_rng(seed)
        th = np.clip(th + 0.05 * rng.standard_normal(n2), 1e-3, np.pi / 2 - 1e-3)
        ph = (ph + 0.3 * rng.standard_normal(n2)) % (2 * np.pi)
    return np.concatenate([th, ph])


def harmonic_system(params, t, n_total, want_jac):
    """Residual vector (and Jacobian) of the even-degree harmonic sums."""
    n2 = n_total // 2
    th, ph = params[:n2], params[n2:]
    vals = sph_legendre_p_all(t, t, th, diff_n=1)
    P, dP = vals[0], vals[1]
    res, jac = [], []
    for k in range(2, t + 1, 2):
        pk0, dpk0 = P[k, 0], dP[k, 0]
        res.append((2.0 / n_total) * pk0.sum())
        if want_jac:
            jac.append(np.concatenate([(2.0 / n_total) * dpk0, np.zeros(n2)]))
        for m in range(1, k + 1):
            pk, dpk = P[k, m], dP[k, m]
            c, s = np.cos(m * ph), np.sin(m * ph)
            f = np.sqrt(2.0) * 2.0 / n_total
            res.append(f * (pk * c).sum())
            res.append(f * (pk * s).sum())
            if want_jac:
                jac.append(np.concatenate([f * dpk * c, -f * m * pk * s]))
                jac.append(np.concatenate([f * dpk * s, f * m * pk * c]))
    if want_jac:
        return np.array(res), np.array(jac)
    return np.array(res)


def params_to_points(params):
    n2 = len(params) // 2
    th, ph = params[:n2], params[n2:]
    free = np.column_stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
    pts = np.vstack([free, -free])
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def solve_degree(t):
    exact = exact_small_design(t)
    if exact is not None:
        worst = harmonic_residuals(exact, t).max()
        assert worst < 1e-12, (t, worst)
        return exact, worst
    n_total = point_count(t)

    def attempt(x0):
        sol = least_squares(
            lambda p: harmonic_system(p, t, n_total, False),
            x0,
            jac=lambda p: harmonic_system(p, t, n_total, True)[1],
            method="trf", tr_solver="exact",
            xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=3000,
        )
        pts = params_to_points(sol.x)
        return sol.x, pts, harmonic_residuals(pts, t).max()

    for bump in range(MAX_BUMPS + 1):
        for seed in range(MAX_SEEDS):
            x, pts, worst = attempt(hemisphere_start(n_total // 2, seed))
            # Stalls this close to zero are shallow local minima; a small
            # random kick followed by a fresh solve escapes them reliably.
            if RESIDUAL_TARGET <= worst < POLISH_BASIN:
                rng = np.random.default_rng(9000 + seed)
                for j in range(MAX_KICKS):
                    scale = 2e-3 * (j + 1)
                    xk, ptsk, rk = attempt(x + scale * rng.standard_normal(x.shape))
                    if rk < worst:
                        x, pts, worst = xk, ptsk, rk
                    if worst < RESIDUAL_TARGET:
                        break
            if worst < RESIDUAL_TARGET:
                return pts, worst
            print(f"  t={t} N={n_total} seed={seed}: stalled at r={worst:.2e}", flush=True)
        if t in TABLE_COUNTS or t in (3, 5):
            continue  # tabulated count must stand; retry seeds only
        n_total += 2
        print(f"  t={t}: bumping point count to {n_total}", flush=True)
    raise RuntimeError(f"no degree-{t} design found (last N={n_total})")


def canonical_order(points):
    order = np.lexsort((np.arctan2(points[:, 1], points[:, 0]), -points[:, 2]))
    return points[order]


def write_design(out_dir, t, points, worst):
    n = len(points)
    path = out_dir / f"t{t:03d}_n{n:05d}.txt"
    save_point_file(path, PointSet(points), header=(
        f"symmetric spherical design, degree {t}, {n} points\n"
        f"max equal-weight Legendre residual over degrees 1..{t}: {worst:.3e}\n"
        "generated by tools/generate_designs.py"))
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--degrees", default=",".join(str(t) for t in range(1, 58, 2)),
                    help="comma-separated odd degrees (default 1,3,...,57)")
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = ap.parse_args()
    degrees = sorted({int(s) for s in args.degrees.split(",")})
    args.out.mkdir(parents=True, exist_ok=True)

    for t in degrees:
        if t < 1 or t % 2 == 0:
            sys.exit(f"degrees must be odd and positive, got {t}")
        have = sorted(args.out.glob(f"t{t:03d}_n*.txt"))
        if have:
            print(f"t={t:3d} already present ({have[0].name}), skipping", flush=True)
            continue
        t0 = time.time()
        pts, worst = solve_degree(t)
        pts = canonical_order(pts)
        worst = harmonic_residuals(pts, t).max()
        path = write_design(args.out, t, pts, worst)
        print(f"t={t:3d} N={len(pts):5d} residual={worst:.3e} -> {path.name}"
              f" ({time.time() - t0:.1f}s)", flush=True)

    manifest = args.out / "MANIFEST.sha256"
    _write_rows(manifest, [], ([hashlib.sha256(f.read_bytes()).hexdigest(), f.name]
                               for f in sorted(args.out.glob("t*_n*.txt"))), "  ")
    print(f"wrote {manifest}")


if __name__ == "__main__":
    main()
