"""Every sphfit data file reader on the same malformed inputs.

Point files, dataset CSVs, plain label lists and model files go through one
row reader, so a fault gets one outcome from each: ``PointFileError``
naming ``file:line``, and exit 3 from ``sphfit fit`` for labels and datasets.
"""

import numpy as np
import pytest

from sphfit.cli import _read_labels, main
from sphfit.data import DATASET_HEADER, load_dataset
from sphfit.points import PointFileError, PointSet, load_point_file, save_point_file
from sphfit.solver import MODEL_MAGIC, load_model

# three unit points, each with a value (label or coefficient)
ROWS = [["1", "0", "0", "0.5"], ["0", "1", "0", "0.25"], ["0", "0", "1", "-0.5"]]
TRAIN = PointSet(np.eye(3), label="train.txt")


def _dataset_table(path):
    points, labels = load_dataset(path)
    return np.column_stack([points.xyz, labels])


def _model_table(path):
    model = load_model(path)
    return np.column_stack([model.centers.xyz, model.coefficients])


# format: (lines before the rows, field separator, fields of a row, reader)
FORMATS = {
    "points": (["# three axes"], " ", slice(0, 3), lambda path: load_point_file(path).xyz),
    "dataset": (["# target f1", DATASET_HEADER], ",", slice(0, 4), _dataset_table),
    "labels": (["# labels"], " ", slice(3, 4), lambda path: _read_labels(path, TRAIN)),
    "model": ([MODEL_MAGIC, "kernel wendland", "lambda 0.10000000000000001",
               "training_size 3", "design_degree -", "n_centers 3"],
              " ", slice(0, 4), _model_table),
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
    """The dataset's header line, or the model's ``lambda`` line."""
    return 1 if head[1] == DATASET_HEADER else 2


def _drop_header_line(head, rows):
    i = _header_index(head)
    del head[i]
    return i + 1


def _cut_header(head, rows):
    i = _header_index(head)
    head[i:] = ["x,y,z"] if head[i] == DATASET_HEADER else []   # the model's ends at kernel
    rows.clear()
    return i + 1


CASES = {
    "comment-mid-data": _comment_mid_data,
    "nan": _set_field(1, -1, "nan"),
    "inf": _set_field(1, -1, "-inf"),
    "field-count": _extra_field,
    "unparsable": _set_field(1, -1, "zero"),
    # (0, 0, 1 + 1e-9) renormalizes to (0, 0, 1) exactly
    "norm-off-1e-9": _set_field(2, 2, "1.000000001", faulty=False),
    "norm-off-1e-3": _set_field(2, 2, "1.001"),
    "header-missing": _drop_header_line,
    "header-cut": _cut_header,
}

PAIRS = [(fmt, case) for case in CASES for fmt in FORMATS
         if not (fmt == "labels" and case.startswith("norm"))
         and not (fmt in ("points", "labels") and case.startswith("header"))]


def _write(path, fmt, edit=None):
    """Write the clean file of `fmt`, or the one `edit` makes of it; return
    the line of the fault that the edit made."""
    head, sep, cols, _ = FORMATS[fmt]
    head, rows = list(head), [r[cols] for r in ROWS]
    fault_line = edit(head, rows) if edit is not None else None
    path.write_text("".join(line + "\n" for line in head + [sep.join(r) for r in rows]))
    return fault_line


@pytest.mark.parametrize("fmt, case", PAIRS, ids=[f"{f}-{c}" for f, c in PAIRS])
def test_malformed_input(tmp_path, capsys, fmt, case):
    read = FORMATS[fmt][3]
    clean, path = tmp_path / f"clean-{fmt}.txt", tmp_path / f"{fmt}.txt"
    _write(clean, fmt)
    fault_line = _write(path, fmt, CASES[case])
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
