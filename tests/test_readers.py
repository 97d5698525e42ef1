"""Every sphfit data file reader on the same malformed inputs, and the
exact bytes of every writer.

Point files, dataset CSVs, plain label lists, model files and results CSVs
go through one row reader, so a fault gets one outcome from each:
``PointFileError`` naming ``file:line``, and exit 3 from ``sphfit fit`` for
labels and datasets.  Every file sphfit writes goes through one row writer.
"""

import numpy as np
import pytest

from sphfit.cli import _read_labels, main
from sphfit.data import (DATASET_HEADER, Dataset, NoiseModel, TargetFunction,
                         load_dataset, save_dataset)
from sphfit.harness import (RESULTS_HEADER, FieldExport, ResultRow, read_results_csv,
                            write_field_csv, write_results_csv, write_seed_detail_csv)
from sphfit.kernels import KernelSpec
from sphfit.points import (PointFileError, PointSet, load_point_file, normalized,
                           save_point_file)
from sphfit.solver import MODEL_MAGIC, FittedModel, load_model, save_model

# three unit points, each with a value (label or coefficient)
ROWS = [["1", "0", "0", "0.5"], ["0", "1", "0", "0.25"], ["0", "0", "1", "-0.5"]]
RESULT_ROWS = [
    ["f2", "0.10000000000000001", "design", "9", "48", "0.51063829787234039",
     "0.0003007286598217175", "", "0.12345678901234568", "0.25"],
    ["f1", "0", "random", "13", "94", "1", "9.3132257461547852e-10", "0.31622",
     "1.0000000000000001e-09", "0.5"],
    ["f1", "0.5", "first", "13", "94", "1", "0.5", "0.1", "0.25", "0"],
]
TRAIN = PointSet(np.eye(3), label="train.txt")


def _dataset_table(path):
    points, labels = load_dataset(path)
    return np.column_stack([points.xyz, labels])


def _model_table(path):
    model = load_model(path)
    return np.column_stack([model.centers.xyz, model.coefficients])


# format: (lines before the rows, field separator, rows, reader)
FORMATS = {
    "points": (["# three axes"], " ", [r[:3] for r in ROWS],
               lambda path: load_point_file(path).xyz),
    "dataset": (["# target f1", DATASET_HEADER], ",", ROWS, _dataset_table),
    "labels": (["# labels"], " ", [r[3:] for r in ROWS], lambda path: _read_labels(path, TRAIN)),
    "model": ([MODEL_MAGIC, "kernel wendland", "lambda 0.10000000000000001",
               "training_size 3", "design_degree -", "n_centers 3"], " ", ROWS, _model_table),
    "results": ([RESULTS_HEADER], ",", RESULT_ROWS, read_results_csv),
}


# Each edit changes the lines before the rows and the rows of a clean file,
# and returns the line of the fault it makes, or None when the edited file
# still loads with the clean file's values.

def _comment_mid_data(head, rows):
    rows[1:1] = [["# a comment"], [""]]


def _set_field(i, j, value, faulty=True):
    def edit(head, rows):
        rows[i][j] = value
        return len(head) + 1 + i if faulty else None
    return edit


def _extra_field(head, rows):
    rows[1].append("7")
    return len(head) + 2


def _header_index(head):
    """The CSV header line, or the model's ``lambda`` line."""
    return next(i for i, line in enumerate(head)
                if line in (DATASET_HEADER, RESULTS_HEADER) or line.startswith("lambda "))


def _drop_header_line(head, rows):
    i = _header_index(head)
    del head[i]
    return i + 1


def _cut_header(head, rows):
    i = _header_index(head)
    # a CSV header loses its last column; the model's file ends at kernel
    head[i:] = [head[i].rsplit(",", 1)[0]] if "," in head[i] else []
    rows.clear()
    return i + 1


def _set_model_header(key, value):
    def edit(head, rows):
        i = next(i for i, line in enumerate(head) if line.startswith(key + " "))
        head[i] = f"{key} {value}"
        return i + 1
    return edit


ALL = tuple(FORMATS)
COORDINATES = ("points", "dataset", "model")
HEADERS = ("dataset", "model", "results")

# case: (edit, the formats it applies to)
CASES = {
    "comment-mid-data": (_comment_mid_data, ALL),
    "nan": (_set_field(1, -1, "nan"), ALL),
    "inf": (_set_field(1, -1, "-inf"), ALL),
    "field-count": (_extra_field, ALL),
    "unparsable": (_set_field(1, -1, "zero"), ALL),
    # (0, 0, 1 + 1e-9) renormalizes to (0, 0, 1) exactly
    "norm-off-1e-9": (_set_field(2, 2, "1.000000001", faulty=False), COORDINATES),
    "norm-off-1e-3": (_set_field(2, 2, "1.001"), COORDINATES),
    "header-missing": (_drop_header_line, HEADERS),
    "header-cut": (_cut_header, HEADERS),
    "unparsable-int": (_set_field(1, 3, "13.0"), ("results",)),
    "negative": (_set_field(1, 5, "-1"), ("results",)),
    "n_centers-not-int": (_set_model_header("n_centers", "three"), ("model",)),
    "n_centers-zero": (_set_model_header("n_centers", "0"), ("model",)),
    "training_size-not-int": (_set_model_header("training_size", "3.5"), ("model",)),
    "design_degree-negative": (_set_model_header("design_degree", "-1"), ("model",)),
    "lambda-nan": (_set_model_header("lambda", "nan"), ("model",)),
    "lambda-negative": (_set_model_header("lambda", "-0.1"), ("model",)),
    "kernel-unknown": (_set_model_header("kernel", "cubic"), ("model",)),
    "kernel-bad-sigma": (_set_model_header("kernel", "gaussian:inf"), ("model",)),
}

PAIRS = [(fmt, case) for case, (_, formats) in CASES.items() for fmt in formats]


def _write(path, fmt, edit=None):
    """Write the clean file of `fmt`, or the one `edit` makes of it; return
    the line of the fault that the edit made."""
    head, sep, rows, _ = FORMATS[fmt]
    head, rows = list(head), [list(r) for r in rows]
    fault_line = edit(head, rows) if edit is not None else None
    path.write_text("".join(line + "\n" for line in head + [sep.join(r) for r in rows]))
    return fault_line


@pytest.mark.parametrize("fmt, case", PAIRS, ids=[f"{f}-{c}" for f, c in PAIRS])
def test_malformed_input(tmp_path, capsys, fmt, case):
    read = FORMATS[fmt][3]
    clean, path = tmp_path / f"clean-{fmt}.txt", tmp_path / f"{fmt}.txt"
    _write(clean, fmt)
    fault_line = _write(path, fmt, CASES[case][0])
    where = f"{fmt}.txt:{fault_line}:"

    if fault_line is None:
        assert np.array_equal(read(path), read(clean))
    else:
        with pytest.raises(PointFileError, match=where):
            read(path)

    if fmt in ("labels", "dataset"):
        train = tmp_path / "train.txt"
        save_point_file(train, TRAIN)
        rc = main(["fit", "--train", str(train), "--labels", str(path), "--kernel",
                   "wendland", "--lambda", "0.1", "--out", str(tmp_path / "m.txt")])
        if fault_line is None:
            assert rc == 0
        else:
            assert rc == 3
            assert where in capsys.readouterr().err


@pytest.mark.parametrize("fmt", FORMATS)
def test_undecodable_file(tmp_path, fmt):
    path = tmp_path / f"{fmt}.txt"
    path.write_bytes(b"\xff\xfe 0 0 1\n")
    with pytest.raises(PointFileError, match=f"{fmt}.txt: not a text file"):
        FORMATS[fmt][3](path)


# Two rows through each writer, and the exact bytes it must write: a change to
# the number format, separator, encoding or line ending changes every output.
XYZ = normalized(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, -1.0]]))
RESULTS = [ResultRow("f2", 0.1, "design", 9, 48, 48 / 94, 1.5 ** -20, None,
                     0.1234567890123456789, 0.25),
           ResultRow("f1", 0.0, "random", 13, 94, 1.0, 2.0 ** -30, 0.31622, 1e-9, 0.5)]
WRITERS = {
    "points": lambda path: save_point_file(path, PointSet(XYZ),
                                           header="two points\nsecond line"),
    "dataset": lambda path: save_dataset(path, Dataset(
        PointSet(XYZ), np.array([0.1, -2.5e-20]), TargetFunction("f1"), NoiseModel(0.001, 7))),
    "model": lambda path: save_model(path, FittedModel(
        KernelSpec.gaussian(0.3), PointSet(XYZ, design_degree=1), np.array([1 / 3, -7.0]),
        1e-5, 10, None)),
    "results": lambda path: write_results_csv(path, RESULTS, real_timing=False),
    "seed-detail": lambda path: write_seed_detail_csv(path, [(101, RESULTS[0]),
                                                             (102, RESULTS[1])]),
    "field": lambda path: write_field_csv(path, FieldExport(
        PointSet(XYZ), np.array([0.5, 1 / 7]), np.array([0.625, -0.0]),
        np.array([0.5 + 1e-17, 2.0]), np.array([1e-300, 2 - 1 / 7]))),
}
POINT_ROWS = (b"0.2672612419124244 0.53452248382484879 0.80178372573727319", b"0 0 -1")
EXPECTED_BYTES = {
    "points": b"# two points\n# second line\n%s\n%s\n" % POINT_ROWS,
    "dataset": b"# target f1\n# delta 0.001\n# seed 7\nx,y,z,label\n"
               b"0.2672612419124244,0.53452248382484879,0.80178372573727319,0.10000000000000001\n"
               b"0,0,-1,-2.4999999999999999e-20\n",
    "model": b"sphfit-model v1\nkernel gaussian:0.29999999999999999\n"
             b"lambda 1.0000000000000001e-05\ntraining_size 10\ndesign_degree 1\nn_centers 2\n"
             b"%s 0.33333333333333331\n%s -7\n" % POINT_ROWS,
    "results": b"target,delta,method,s_star,m,sr,lambda,sigma,rmse,fit_seconds\n"
               b"f2,0.10000000000000001,design,9,48,0.51063829787234039,0.0003007286598217175,,"
               b"0.12345678901234568,0\n"
               b"f1,0,random,13,94,1,9.3132257461547852e-10,0.31622,1.0000000000000001e-09,0\n",
    "seed-detail": b"target,delta,s_star,m,seed,lambda,sigma,rmse,fit_seconds\n"
                   b"f2,0.10000000000000001,9,48,101,0.0003007286598217175,,0.12345678901234568,0.25\n"
                   b"f1,0,13,94,102,9.3132257461547852e-10,0.31622,1.0000000000000001e-09,0.5\n",
    "field": b"x,y,z,exact,noisy,prediction,abs_error\n"
             b"0.2672612419124244,0.53452248382484879,0.80178372573727319,0.5,0.625,0.5,1e-300\n"
             b"0,0,-1,0.14285714285714285,-0,2,1.8571428571428572\n",
}


@pytest.mark.parametrize("name", WRITERS)
def test_writer_bytes(tmp_path, name):
    path = tmp_path / f"{name}.txt"
    WRITERS[name](path)
    assert path.read_bytes() == EXPECTED_BYTES[name]
