"""Golden outputs: ``sphfit simulate --sim 1/2/3`` against stored CSVs.

``tests/data/golden/<target>/config.ini`` is a small configuration (t = 13,
deltas 0, 0.001 and 0.1, ``timing = zero``); the CSVs next to it are the
outputs it gave before the solver shared work across noise levels.  The
selections (method, s*, m, lambda, sigma, seed) must match exactly, and
every RMSE or field value within 1e-6 relative, the benchmark's tolerance,
which leaves room for a different CPU's rounding.  Regenerate a directory
only for an intended change of results, with
``sphfit simulate --sim N --config <dir>/config.ini --out-dir <dir>``.
"""

from pathlib import Path

import numpy as np
import pytest

from sphfit.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
RMSE_REL_TOL = 1e-6
OUTPUTS = {1: ("sim1.csv",), 2: ("sim2.csv", "sim2_random_seeds.csv"),
           3: ("sim3_field.csv",)}


def _table(path: Path) -> tuple[str, list[list[str]]]:
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    return header, [row.split(",") for row in rows]


def _check_rows(name: str, got: Path, want: Path) -> None:
    got_header, got_rows = _table(got)
    want_header, want_rows = _table(want)
    assert got_header == want_header
    assert len(got_rows) == len(want_rows)
    columns = want_header.split(",")
    if name == "sim3_field.csv":
        g = np.array(got_rows, dtype=float)
        w = np.array(want_rows, dtype=float)
        np.testing.assert_allclose(g[:, :3], w[:, :3], rtol=0, atol=1e-12)
        scale = np.abs(w[:, columns.index("exact")]).max()
        np.testing.assert_allclose(g[:, 3:], w[:, 3:], rtol=RMSE_REL_TOL,
                                   atol=RMSE_REL_TOL * scale)
        return
    rmse = columns.index("rmse")
    for g, w in zip(got_rows, want_rows):
        # every column but the RMSE is a selection or a config value
        assert g[:rmse] + g[rmse + 1:] == w[:rmse] + w[rmse + 1:]
        assert float(g[rmse]) == pytest.approx(float(w[rmse]), rel=RMSE_REL_TOL)


@pytest.mark.parametrize("sim", sorted(OUTPUTS))
@pytest.mark.parametrize("target", ["f1", "f2"])
def test_simulate_matches_golden(tmp_path, capsys, target, sim):
    golden = GOLDEN / target
    rc = main(["simulate", "--sim", str(sim), "--config", str(golden / "config.ini"),
               "--out-dir", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err
    for name in OUTPUTS[sim]:
        _check_rows(name, tmp_path / name, golden / name)
