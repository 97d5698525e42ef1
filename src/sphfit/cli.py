"""Command line interface.

Subcommands: gen-points, verify-design, gen-data, fit, simulate.
Exit codes: 0 success, 1 design not certified (verify-design), 2 bad config
or arguments, 3 missing or malformed data file or any other file system
fault (a directory given as a file, an output path that cannot be created),
4 numerical failure or memory that the budget or the machine cannot supply.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .data import (DATASET_HEADER, NoiseModel, TargetFunction, _dataset_from_lines,
                   make_dataset, save_dataset)
from .harness import (ConfigError, GridSearchError, parse_config,
                      run_simulation1, run_simulation2, run_simulation3,
                      write_field_csv, write_results_csv, write_seed_detail_csv)
from .kernels import KernelSpec
from .legendre import DEFAULT_DESIGN_TOL, verify_design
from .points import (PointFileError, PointSet, _data_lines, _read_rows,
                     eq_area_centers, generate_spiral, load_point_file,
                     save_point_file)
from .solver import fit_full, fit_sketched, save_model

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4


def _cmd_gen_points(args) -> int:
    ps = (generate_spiral if args.kind == "spiral" else eq_area_centers)(args.n)
    save_point_file(args.out, ps, header=f"{args.kind} points, n={args.n}")
    print(f"wrote {len(ps)} points to {args.out}")
    return EXIT_OK


def _cmd_verify_design(args) -> int:
    ps = load_point_file(args.file)
    report = verify_design(ps, args.t_max, args.tol)
    print(f"{args.file}: {len(ps)} points")
    print(report)
    return EXIT_OK if report.max_verified_degree >= args.t_max else 1


def _cmd_gen_data(args) -> int:
    points = load_point_file(args.design)
    target = TargetFunction.by_name(args.target)
    dataset = make_dataset(points, target, NoiseModel(args.delta, args.seed))
    save_dataset(args.out, dataset)
    print(f"wrote {len(dataset)} samples to {args.out}")
    return EXIT_OK


def _read_labels(path: Path, train: PointSet) -> np.ndarray:
    """Labels from a dataset CSV (label column) or a file with one number per
    line.  Labels pair with training points by row, so a dataset's own
    points must equal the training points bit for bit."""
    lines = _data_lines(path)
    if lines and lines[0][1] == DATASET_HEADER:
        points, labels = _dataset_from_lines(path, lines)
        if not np.array_equal(points.xyz, train.xyz):
            raise PointFileError(f"{path}: its {len(points)} points differ from the "
                                 f"{len(train)} training points in {train.label}")
    else:
        labels = _read_rows(path, lines, 1)[0][:, 0]
    if labels.shape != (len(train),):
        raise PointFileError(
            f"{path}: {labels.shape[0]} labels for {len(train)} training points")
    return labels


def _cmd_fit(args) -> int:
    train = load_point_file(args.train)
    labels = _read_labels(Path(args.labels), train)
    kernel = KernelSpec.parse(args.kernel)
    if args.centers is None:
        model = fit_full(kernel, train, labels, args.lam)
    else:
        centers = load_point_file(args.centers)
        model = fit_sketched(kernel, train, labels, centers, args.lam)
    save_model(args.out, model)
    d = model.diagnostics
    print(f"fit {len(model.centers)} centers on {model.training_size} samples "
          f"({d.method}, rank {d.rank_used}); model -> {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.sim == 1:
        rows = run_simulation1(cfg)
        out = out_dir / "sim1.csv"
        write_results_csv(out, rows, cfg.real_timing)
        print(f"wrote {len(rows)} rows to {out}")
    elif args.sim == 2:
        main_rows, detail = run_simulation2(cfg)
        out = out_dir / "sim2.csv"
        write_results_csv(out, main_rows, cfg.real_timing)
        write_seed_detail_csv(out_dir / "sim2_random_seeds.csv", detail,
                              cfg.real_timing)
        print(f"wrote {len(main_rows)} rows to {out} "
              f"(+{len(detail)} replicate rows)")
    else:
        export = run_simulation3(cfg)
        out = out_dir / "sim3_field.csv"
        write_field_csv(out, export)
        print(f"wrote {len(export.exact)} grid rows to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sphfit",
        description="Sphere data fitting with sketched kernel least squares")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-points", help="generate spiral or equal-area points")
    p.add_argument("--kind", choices=("spiral", "eq-centers"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_points)

    p = sub.add_parser("verify-design", help="check design exactness degree")
    p.add_argument("--file", required=True)
    p.add_argument("--t-max", type=int, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_DESIGN_TOL)
    p.set_defaults(func=_cmd_verify_design)

    p = sub.add_parser("gen-data", help="synthesize a noisy dataset CSV")
    p.add_argument("--design", required=True, help="training point file")
    p.add_argument("--target", choices=("f1", "f2"), required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("fit", help="fit a model and save it")
    p.add_argument("--train", required=True, help="training point file")
    p.add_argument("--labels", required=True,
                   help="dataset CSV or plain label list")
    p.add_argument("--centers", default=None,
                   help="center point file; omit to use all training points")
    p.add_argument("--kernel", required=True, help="gaussian:<sigma> or wendland")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("simulate", help="run an experiment suite")
    p.add_argument("--sim", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_simulate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PointFileError, OSError) as exc:     # DesignNotFoundError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (GridSearchError, MemoryError, np.linalg.LinAlgError) as exc:  # MatrixSizeError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
