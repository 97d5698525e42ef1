"""Experiment drivers: grid search over a center set, and simulations 1-3.

Simulation 1 sweeps the design degree s* for several noise levels with
design sketching.  Simulation 2 compares the three sketching methods
(first-m, random-m, design) at matched sketch sizes across noise levels.
Simulation 3 exports a dense pointwise error field for one fitted model.
A sketching method only chooses the centers, and each driver chooses them
itself: the s*-design, or the first or a seeded random m training points.
Every simulation reaches its fits through one function, :func:`grid_search`,
which searches the (lambda, sigma) grid on one center set for several
datasets on one training set, such as the noise levels of a simulation.

Seeding policy: one base seed drives everything.  Training noise uses the
base seed itself for every noise level, so noise draws are proportional
across levels (common random numbers); the random sketch method uses
``base_seed + 1 + i`` for replicate i; the simulation-3 noisy field uses
``base_seed + 500``.  All outputs are pure functions of the config.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import (Dataset, NoiseModel, TargetFunction, make_dataset,
                   sample_truncated_gaussian)
from .designs import load_design
from .kernels import KernelSpec
from .points import (PointFileError, PointSet, _data_lines, _number, _split_rows,
                     _write_rows, generate_spiral)
from .solver import FittedModel, fit_sketched_multi, predict, rmse_sweep

DESK_SCALE_DEGREE = 57


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


class GridSearchError(RuntimeError):
    """Every (lambda, sigma) cell of a grid search failed numerically."""


# -- hyperparameter grids ---------------------------------------------------

def lambda_grid(base: float) -> tuple[float, ...]:
    """Descending grid {base^-q : base^-q > 1e-10, q = 0, 1, ...}; base must
    be finite and > 1, or the powers never fall to 1e-10 through positive
    values."""
    if not (np.isfinite(base) and base > 1):
        raise ValueError(f"lambda grid base must be finite and > 1, got {base!r}")
    out = []
    q = 0
    while True:
        v = float(base) ** -q
        if v <= 1e-10:
            return tuple(out)
        out.append(v)
        q += 1


def sigma_grid(noisy: bool) -> tuple[float, ...]:
    """10 log-spaced Gaussian widths; tighter range for noise-free data."""
    lo, hi = (0.1, 1.0) if noisy else (0.028, 0.28)
    return tuple(float(s) for s in np.geomspace(lo, hi, 10))


@dataclass(frozen=True)
class GridSpec:
    """Search grid: lambdas always, sigmas only for the Gaussian kernel."""

    lambdas: tuple[float, ...]
    sigmas: tuple[float, ...] | None = None

    def __post_init__(self):
        lams = tuple(float(l) for l in self.lambdas)
        if not lams or any(l <= 0 for l in lams):
            raise ValueError("lambdas must be positive and nonempty")
        if any(later >= earlier for later, earlier in zip(lams[1:], lams)):
            raise ValueError("lambdas must be strictly descending")
        object.__setattr__(self, "lambdas", lams)
        if self.sigmas is not None:
            sigs = tuple(float(s) for s in self.sigmas)
            if not sigs or any(s <= 0 for s in sigs):
                raise ValueError("sigmas must be positive and nonempty")
            object.__setattr__(self, "sigmas", sigs)

    @classmethod
    def for_target(cls, target_name: str, noisy: bool) -> "GridSpec":
        """Default grids: f1 pairs with Gaussian (base-2 lambdas, sigma
        sweep), f2 with Wendland (base-1.5 lambdas, no sigma)."""
        if target_name == "f1":
            return cls(lambda_grid(2.0), sigma_grid(noisy))
        if target_name == "f2":
            return cls(lambda_grid(1.5), None)
        raise ConfigError(f"unknown target {target_name!r}")


# -- grid search ------------------------------------------------------------

@dataclass(frozen=True)
class ResultRow:
    """One experiment cell: method x noise level x sketch size."""

    target: str
    delta: float
    method: str
    s_star: int
    m: int
    sr: float                   # sampling ratio m / N
    lam: float
    sigma: float | None
    rmse: float
    fit_seconds: float

    def __post_init__(self):
        if not 0 < self.sr <= 1:
            raise ValueError("sampling ratio must be in (0, 1]")
        if self.rmse < 0:
            raise ValueError("rmse must be >= 0")


def grid_search(datasets: list[Dataset], test: tuple[PointSet, np.ndarray],
                centers: PointSet, grid: GridSpec, method: str,
                s_star: int) -> list[ResultRow]:
    """Exhaustive (lambda, sigma) search minimizing test RMSE for the sketch
    ``centers``, one row per dataset.

    The datasets (for example one per noise level) must share the same
    ``inputs`` object and target.  They are fitted from one
    :func:`fit_sketched_multi` per sigma, so each lambda's decomposition is
    computed once for all of them.  Then one :func:`rmse_sweep` scores every
    model of every sigma in one pass over the test grid: each test block's
    dot product is built once, and each sigma's kernel is evaluated on it
    once.  Each row is the one a search of its dataset alone gives, but for
    GEMM rounding: an RMSE may differ at about 1e-14 relative, and so may a
    choice between cells that close.

    Ties are broken toward larger lambda, then larger sigma.  A sigma whose
    fit raises a numerical error is skipped; if every cell fails for some
    dataset a :class:`GridSearchError` carries the collected messages.  A
    row reports the selected model as the sweep scored it; ``fit_seconds``
    is that model's ``diagnostics.wall_time``.

    ``method`` (how ``centers`` was chosen: ``first``, ``random`` or
    ``design``) and ``s_star`` only label the rows.
    """
    return [row for row, _ in _search(datasets, test, centers, grid, method, s_star)]


def _search(datasets: list[Dataset], test: tuple[PointSet, np.ndarray],
            centers: PointSet, grid: GridSpec, method: str,
            s_star: int) -> list[tuple[ResultRow, FittedModel]]:
    """The grid search behind :func:`grid_search`: each dataset's row
    together with the model it selected."""
    if not datasets:
        raise ValueError("grid search needs at least one dataset")
    inputs, target_name = datasets[0].inputs, datasets[0].target.name
    # The search reads the target only through its name, for the row label;
    # the grid's sigmas alone choose the kernel.
    if any(d.inputs is not inputs or d.target.name != target_name for d in datasets):
        raise ValueError("datasets of one grid search must share their inputs and target")
    test_points, test_labels = test

    # Every sigma is fitted first; then one pass over the test grid scores
    # every lambda of every sigma and dataset.
    models, owners = [], []     # owners[i] is the index of models[i]'s dataset
    failures = []
    for sigma in (grid.sigmas if grid.sigmas is not None else (None,)):
        kernel = KernelSpec.wendland() if sigma is None else KernelSpec.gaussian(sigma)
        try:
            sweeps = fit_sketched_multi(kernel, inputs, [d.labels for d in datasets],
                                        centers, grid.lambdas)
        except (np.linalg.LinAlgError, ValueError) as exc:
            failures.append(f"sigma={sigma}: {exc}")
            continue
        for k, sweep in enumerate(sweeps):
            models += sweep
            owners += [k] * len(sweep)
    errs = rmse_sweep(models, test_points, test_labels) if models else []
    best = [None] * len(datasets)   # (key, model); key (rmse, -lam, -sigma_key) minimized
    for model, k, err in zip(models, owners, errs):
        sigma = model.kernel.sigma
        if not np.isfinite(err):
            failures.append(f"lambda={model.lam} sigma={sigma}: non-finite rmse")
            continue
        key = (float(err), -model.lam, -(sigma if sigma is not None else 0.0))
        if best[k] is None or key < best[k][0]:
            best[k] = (key, model)
    if any(b is None for b in best):
        raise GridSearchError(
            f"all grid cells failed for method={method}: "
            + "; ".join(failures[:5]))

    return [(ResultRow(target_name, data.noise.delta, method, s_star,
                       len(centers), len(centers) / len(data), model.lam,
                       model.kernel.sigma, err, model.diagnostics.wall_time), model)
            for data, ((err, _, _), model) in zip(datasets, best)]


# -- simulation configuration ----------------------------------------------

SIM1_DELTAS = (0.0, 0.001, 0.1, 0.5)
SIM2_DELTAS = (0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.3, 0.5)
SIM2_S_STARS = (9, 25, 41, 57)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a simulation run depends on; see ``parse_config``."""

    target: str = "f2"
    t: int = DESK_SCALE_DEGREE
    deltas: tuple[float, ...] | None = None      # None = per-sim default
    s_stars: tuple[int, ...] | None = None       # None = per-sim default
    n_seeds: int = 10                            # random-method replicates
    n_test: int = 10000
    base_seed: int = 1234
    design_dir: str | None = None
    real_timing: bool = True                     # False writes fit_seconds = 0
    sim3_delta: float = 0.1
    sim3_s_star: int = 25
    sim3_grid_n: int = 40000

    def __post_init__(self):
        if self.target not in ("f1", "f2"):
            raise ConfigError(f"target must be f1 or f2, got {self.target!r}")
        if self.t < 1 or self.t % 2 == 0:
            raise ConfigError("training degree t must be odd and positive")
        if self.n_seeds < 1 or self.n_test < 2:
            raise ConfigError("n_seeds >= 1 and n_test >= 2 required")
        if self.base_seed < 0:
            raise ConfigError(f"noise seed must be >= 0, got {self.base_seed}")
        if self.design_dir is not None and not str(self.design_dir).strip():
            # an empty path would read designs from the current directory
            raise ConfigError("sketch.design_dir must name a directory, got an empty value")
        if self.deltas is not None and not self.deltas:
            raise ConfigError("noise deltas must not be empty")
        for name in ("deltas", "s_stars"):
            values = getattr(self, name) or ()
            if len(set(values)) < len(values):
                # each value is one experiment cell: a repeat would refit it
                raise ConfigError(f"{name} repeats a value: {values}")
        if not all(np.isfinite(d) and d >= 0
                   for d in (*(self.deltas or ()), self.sim3_delta)):
            raise ConfigError("noise deltas and sim3 delta must be finite and >= 0")
        if self.sim3_grid_n < 2:
            raise ConfigError("sim3 grid_n >= 2 required")
        if self.sim3_s_star < 1 or self.sim3_s_star % 2 == 0:
            raise ConfigError("sim3 s_star must be odd and positive")

    def sim1_deltas(self) -> tuple[float, ...]:
        return self.deltas if self.deltas is not None else SIM1_DELTAS

    def sim2_deltas(self) -> tuple[float, ...]:
        return self.deltas if self.deltas is not None else SIM2_DELTAS

    def sim1_s_stars(self) -> tuple[int, ...]:
        if self.s_stars is not None:
            return self.s_stars
        return tuple(range(1, self.t + 1, 2))

    def sim2_s_stars(self) -> tuple[int, ...]:
        if self.s_stars is not None:
            return self.s_stars
        return tuple(s for s in SIM2_S_STARS if s <= self.t)


def _numbers(kind):
    return lambda text: tuple(kind(v) for v in text.split(",") if v.strip())


def _real_timing(text: str) -> bool:
    if text.strip().lower() not in ("real", "zero"):
        raise ConfigError("must be 'real' or 'zero'")
    return text.strip().lower() == "real"


# section -> key -> (ExperimentConfig field, parser of the value)
CONFIG_KEYS = {
    "experiment": {"target": ("target", str.strip), "t": ("t", int)},
    "noise": {"deltas": ("deltas", _numbers(float)), "seed": ("base_seed", _number(int, 0))},
    "sketch": {"s_stars": ("s_stars", _numbers(int)), "n_seeds": ("n_seeds", int),
               "design_dir": ("design_dir", str.strip)},
    "test": {"n_points": ("n_test", int)},
    "output": {"timing": ("real_timing", _real_timing)},
    "sim3": {"delta": ("sim3_delta", float), "s_star": ("sim3_s_star", int),
             "grid_n": ("sim3_grid_n", int)},
}


def parse_config(path) -> ExperimentConfig:
    """Read an INI-style config file into an :class:`ExperimentConfig`.

    Sections/keys (all optional; any other is a :class:`ConfigError`)::

        [experiment]  target = f1|f2    t = 57
        [noise]       deltas = 0, 0.001, 0.1, 0.5      seed = 1234
        [sketch]      s_stars = 9, 25, 41, 57          n_seeds = 10
                      design_dir = /path/to/designs
        [test]        n_points = 10000
        [output]      timing = real|zero
        [sim3]        delta = 0.1    s_star = 25    grid_n = 40000
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file {path} does not exist") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc}") from None
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    kwargs = {}
    for section in parser.sections():
        if section not in CONFIG_KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, text in parser[section].items():
            if key not in CONFIG_KEYS[section]:
                raise ConfigError(f"{path}: unknown key {section}.{key}")
            field, parse = CONFIG_KEYS[section][key]
            try:
                kwargs[field] = parse(text)
            except ValueError as exc:
                raise ConfigError(f"{path}: {section}.{key}: {exc}") from None
    return ExperimentConfig(**kwargs)


# -- simulation drivers -----------------------------------------------------

def _training_and_test(cfg: ExperimentConfig):
    training = load_design(cfg.t, cfg.design_dir)
    target = TargetFunction.by_name(cfg.target)
    test_points = generate_spiral(cfg.n_test)
    test_labels = target(test_points)           # test labels are noise-free
    return training, target, (test_points, test_labels)


def _check_s_stars(cfg: ExperimentConfig, s_stars) -> None:
    if not s_stars:
        raise ConfigError("no s_star values to run: the list is empty, or no "
                          f"default value is <= training degree t={cfg.t}")
    bad = [s for s in s_stars if s > cfg.t or s < 1 or s % 2 == 0]
    if bad:
        raise ConfigError(
            f"s_star values must be odd and <= training degree t={cfg.t}, got {bad}")


def _dataset(training, target, delta, cfg) -> Dataset:
    return make_dataset(training, target, NoiseModel(delta, cfg.base_seed))


def _grid_groups(cfg: ExperimentConfig, training, target,
                 deltas) -> list[tuple[GridSpec, list[Dataset]]]:
    """One dataset per noise level, grouped by search grid.  Every dataset
    shares the ``training`` object, so a group is one :func:`grid_search`."""
    groups: dict[GridSpec, list[Dataset]] = {}
    for delta in deltas:
        grid = GridSpec.for_target(cfg.target, noisy=delta > 0)
        groups.setdefault(grid, []).append(_dataset(training, target, delta, cfg))
    return list(groups.items())


def run_simulation1(cfg: ExperimentConfig) -> list[ResultRow]:
    """Design-sketch RMSE as a function of s* for each noise level.

    The s* = t row trains on the full design and is the standard
    regularized least squares baseline.
    """
    training, target, test = _training_and_test(cfg)
    _check_s_stars(cfg, cfg.sim1_s_stars())
    rows = []
    for grid, datasets in _grid_groups(cfg, training, target, cfg.sim1_deltas()):
        for s_star in cfg.sim1_s_stars():
            rows += grid_search(datasets, test, load_design(s_star, cfg.design_dir),
                                grid, "design", s_star)
    return sort_rows(rows)


def run_simulation2(cfg: ExperimentConfig) -> tuple[list[ResultRow], list[tuple[int, ResultRow]]]:
    """Compare first/random/design sketching at matched sketch sizes.

    Returns (main rows, per-seed detail as (seed, row) pairs).  The random
    method is repeated over ``cfg.n_seeds`` seeds; its main row carries the
    mean RMSE and mean fit time, with the modal (lambda, sigma) choice.
    """
    training, target, test = _training_and_test(cfg)
    _check_s_stars(cfg, cfg.sim2_s_stars())
    designs = {s: load_design(s, cfg.design_dir) for s in cfg.sim2_s_stars()}
    for s_star, design in designs.items():
        # the first and random sketches take m = len(design) training points
        if len(design) > len(training):
            raise ConfigError(
                f"s_star={s_star}: its design has m={len(design)} points, more than "
                f"the N={len(training)} training points a matched sketch picks from")
    seeds = [cfg.base_seed + 1 + i for i in range(cfg.n_seeds)]
    main, detail = [], []
    for grid, datasets in _grid_groups(cfg, training, target, cfg.sim2_deltas()):
        for s_star, design in designs.items():
            m = len(design)     # matched sketch size for all three methods
            design_rows = grid_search(datasets, test, design, grid, "design", s_star)
            first_rows = grid_search(datasets, test, training.take(np.arange(m)),
                                     grid, "first", s_star)
            seed_rows = [grid_search(datasets, test, _random_sketch(training, m, seed),
                                     grid, "random", s_star) for seed in seeds]
            # seed_rows[i][k] is seed i on dataset k
            for k, (first_row, design_row) in enumerate(zip(first_rows, design_rows)):
                per_seed = [rows[k] for rows in seed_rows]
                main += [first_row, _summarize_random(per_seed), design_row]
                detail += zip(seeds, per_seed)
    detail.sort(key=lambda sr: (sr[1].target, sr[1].delta, sr[1].s_star, sr[0]))
    return sort_rows(main), detail


def _random_sketch(training: PointSet, m: int, seed: int) -> PointSet:
    """``m`` training points drawn uniformly without replacement by ``seed``,
    in file order."""
    rng = np.random.default_rng(seed)
    return training.take(np.sort(rng.choice(len(training), size=m, replace=False)))


def _summarize_random(seed_rows: list[ResultRow]) -> ResultRow:
    """Mean RMSE/time over replicates; modal hyperparameters."""
    choices = [(r.lam, r.sigma) for r in seed_rows]
    # mode; ties toward more regularization, matching grid_search tie-breaks
    lam, sigma = max(set(choices),
                     key=lambda c: (choices.count(c), c[0], c[1] or 0.0))
    return replace(seed_rows[0], lam=lam, sigma=sigma,
                   rmse=float(np.mean([r.rmse for r in seed_rows])),
                   fit_seconds=float(np.mean([r.fit_seconds for r in seed_rows])))


@dataclass(frozen=True)
class FieldExport:
    """Dense pointwise evaluation behind the visualization figures."""

    points: PointSet
    exact: np.ndarray
    noisy: np.ndarray
    prediction: np.ndarray
    abs_error: np.ndarray


def run_simulation3(cfg: ExperimentConfig) -> FieldExport:
    """Fit one configuration and export the error field on a dense grid."""
    training, target, test = _training_and_test(cfg)
    _check_s_stars(cfg, [cfg.sim3_s_star])
    data = _dataset(training, target, cfg.sim3_delta, cfg)
    grid = GridSpec.for_target(cfg.target, noisy=cfg.sim3_delta > 0)
    centers = load_design(cfg.sim3_s_star, cfg.design_dir)
    _, model = _search([data], test, centers, grid, "design", cfg.sim3_s_star)[0]

    dense = generate_spiral(cfg.sim3_grid_n)
    exact = target(dense)
    noise = NoiseModel(cfg.sim3_delta, cfg.base_seed + 500)
    noisy = exact + sample_truncated_gaussian(noise, len(dense))
    prediction = predict(model, dense)
    return FieldExport(dense, exact, noisy, prediction, np.abs(prediction - exact))


# -- output -----------------------------------------------------------------

RESULTS_HEADER = "target,delta,method,s_star,m,sr,lambda,sigma,rmse,fit_seconds"


def sort_rows(rows: list[ResultRow]) -> list[ResultRow]:
    """Deterministic output order regardless of execution order."""
    return sorted(rows, key=lambda r: (r.target, r.delta, r.s_star,
                                       r.method, r.rmse))


def write_results_csv(path, rows: list[ResultRow], real_timing: bool = True) -> None:
    """Write result rows in the stable 10-column schema.

    With ``real_timing`` off, fit_seconds is written as 0 so that repeated
    runs of the same config are bitwise identical.
    """
    _write_rows(path, [RESULTS_HEADER], ([
        r.target, r.delta, r.method, r.s_star, r.m, r.sr, r.lam, r.sigma, r.rmse,
        r.fit_seconds if real_timing else 0.0] for r in rows), ",")


SEED_DETAIL_HEADER = "target,delta,s_star,m,seed,lambda,sigma,rmse,fit_seconds"


def write_seed_detail_csv(path, detail: list[tuple[int, ResultRow]],
                          real_timing: bool = True) -> None:
    """Per-replicate rows behind the random-method means of simulation 2."""
    _write_rows(path, [SEED_DETAIL_HEADER], ([
        r.target, r.delta, r.s_star, r.m, seed, r.lam, r.sigma, r.rmse,
        r.fit_seconds if real_timing else 0.0] for seed, r in detail), ",")


def write_field_csv(path, export: FieldExport) -> None:
    """Dense-grid field export: coordinates plus the four value columns."""
    table = np.column_stack([export.points.xyz, export.exact, export.noisy,
                             export.prediction, export.abs_error])
    _write_rows(path, ["x,y,z,exact,noisy,prediction,abs_error"], table.tolist(), ",")


_nonneg = _number(float, 0)
# the parser of each results column, in RESULTS_HEADER (= ResultRow field) order
RESULTS_COLUMNS = (str, _nonneg, str, _number(int, 1), _number(int, 1), _nonneg, _nonneg,
                   lambda text: None if text == "" else _nonneg(text), _nonneg, _nonneg)


def read_results_csv(path) -> list[ResultRow]:
    """Parse a results CSV back into rows (inverse of write_results_csv); any
    fault, a non-finite or negative number included, raises ``PointFileError``
    naming file:line."""
    rows = []
    for lineno, fields in _split_rows(path, _data_lines(path), len(RESULTS_COLUMNS),
                                      ",", RESULTS_HEADER):
        try:
            rows.append(ResultRow(*(parse(f) for parse, f in zip(RESULTS_COLUMNS, fields))))
        except ValueError as exc:
            raise PointFileError(f"{path}:{lineno}: {exc}") from None
    return rows
