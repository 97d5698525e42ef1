import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sphfit
import sphfit.harness as harness
from sphfit.cli import main
from sphfit.data import load_dataset
from sphfit.designs import design_path
from sphfit.harness import read_results_csv
from sphfit.points import PointSet, load_point_file, save_point_file
from sphfit.solver import load_model

TOY_INI = """\
[experiment]
target = f2
t = 9
[noise]
deltas = 0.1
seed = 99
[sketch]
s_stars = 5
n_seeds = 2
[test]
n_points = 200
[output]
timing = zero
[sim3]
s_star = 5
grid_n = 100
"""


@pytest.fixture
def toy_ini(tmp_path):
    path = tmp_path / "toy.ini"
    path.write_text(TOY_INI)
    return path


class TestGenPoints:
    def test_spiral(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        assert main(["gen-points", "--kind", "spiral", "--n", "50",
                     "--out", str(out)]) == 0
        assert len(load_point_file(out)) == 50
        assert "wrote 50 points" in capsys.readouterr().out

    def test_eq_centers(self, tmp_path):
        out = tmp_path / "c.txt"
        assert main(["gen-points", "--kind", "eq-centers", "--n", "20",
                     "--out", str(out)]) == 0
        assert len(load_point_file(out)) == 20

    def test_bad_n(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        assert main(["gen-points", "--kind", "spiral", "--n", "1",
                     "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err


class TestVerifyDesign:
    def test_design_passes(self, capsys):
        rc = main(["verify-design", "--file", str(design_path(5)),
                   "--t-max", "5"])
        assert rc == 0
        assert "degree" in capsys.readouterr().out

    def test_non_design_fails_with_one(self, tmp_path, capsys):
        pts = tmp_path / "s.txt"
        main(["gen-points", "--kind", "spiral", "--n", "12", "--out", str(pts)])
        assert main(["verify-design", "--file", str(pts), "--t-max", "5"]) == 1

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["verify-design", "--file", str(tmp_path / "no.txt"),
                   "--t-max", "3"])
        assert rc == 3

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_tolerance_not_finite_and_positive_exits_2(self, tmp_path, capsys, tol):
        pts = tmp_path / "s.txt"
        main(["gen-points", "--kind", "spiral", "--n", "300", "--out", str(pts)])
        assert main(["verify-design", "--file", str(pts), "--t-max", "5",
                     "--tol", "1e-8"]) == 1
        assert main(["verify-design", "--file", str(pts), "--t-max", "5",
                     "--tol", tol]) == 2
        assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify-design", "--file", "{pts}", "--t-max", "1"],
    ["gen-data", "--design", "{pts}", "--target", "f2", "--delta", "0",
     "--seed", "1", "--out", "{out}"],
    ["fit", "--train", "{pts}", "--labels", "{out}", "--kernel", "wendland",
     "--lambda", "1e-3", "--out", "{out}"],
], ids=["verify-design", "gen-data", "fit"])
def test_non_finite_point_file_exits_3(tmp_path, capsys, argv):
    # like every other malformed point file, not exit 2 from PointSet
    pts = tmp_path / "nan.txt"
    pts.write_text("0 0 1\nnan 0 0\n")
    out = tmp_path / "out"
    rc = main([a.format(pts=pts, out=out) for a in argv])
    assert rc == 3
    assert "nan.txt:2: non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, path", [
    (["verify-design", "--file", "{dir}", "--t-max", "3"], "{dir}"),
    (["gen-points", "--kind", "spiral", "--n", "10", "--out", "{file}/x.txt"],
     "{file}/x.txt"),
    (["simulate", "--sim", "1", "--config", "{ini}", "--out-dir", "{file}"], "{file}"),
], ids=["directory-as-file", "out-under-regular-file", "out-dir-is-regular-file"])
def test_file_system_fault_exits_3(tmp_path, capsys, toy_ini, argv, path):
    # an OS-level fault is a file fault, not exit 1 ("design not certified")
    names = {"dir": tmp_path / "adir", "file": tmp_path / "afile", "ini": toy_ini}
    names["dir"].mkdir()
    names["file"].write_text("")
    assert main([a.format(**names) for a in argv]) == 3
    assert path.format(**names) in capsys.readouterr().err


def test_verify_design_t_max_over_memory_budget_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(sphfit.kernels, "DEFAULT_MEMORY_BUDGET", 2**20)
    rc = main(["verify-design", "--file", str(design_path(13)), "--t-max", "200"])
    assert rc == 4
    assert "t_max = 200 needs" in capsys.readouterr().err


def test_fit_centers_over_memory_budget_exits_4(tmp_path, capsys, monkeypatch):
    # 156 centers on 12 sites: the 156 x 156 matrix, not the 12 x 156 kernel
    # matrix, exceeds the budget
    labels = tmp_path / "labels.txt"
    labels.write_text("1.0\n" * 12)
    monkeypatch.setattr(sphfit.kernels, "DEFAULT_MEMORY_BUDGET", 2**16)
    rc = main(["fit", "--train", str(design_path(5)), "--labels", str(labels),
               "--centers", str(design_path(17)), "--kernel", "wendland",
               "--lambda", "0", "--out", str(tmp_path / "model.txt")])
    assert rc == 4
    assert "sketched fit of 12 sites on 156 centers needs" in capsys.readouterr().err
    assert not (tmp_path / "model.txt").exists()


def test_memory_error_exits_4(tmp_path, capsys, monkeypatch):
    # what numpy raises when the machine cannot supply an array; raised by a
    # stand-in, so that nothing is allocated
    def out_of_memory(n):
        raise MemoryError(f"Unable to allocate {8 * 3 * n} bytes for {n} points")
    monkeypatch.setattr(sphfit.cli, "generate_spiral", out_of_memory)
    rc = main(["gen-points", "--kind", "spiral", "--n", "100000000000",
               "--out", str(tmp_path / "s.txt")])
    assert rc == 4
    assert capsys.readouterr().err.startswith("error: Unable to allocate")
    assert not (tmp_path / "s.txt").exists()


def test_gen_points_beyond_budget_exits_4(tmp_path, capsys):
    # refused by the memory budget before any coordinate is allocated: the
    # message is the budget's, not numpy's
    rc = main(["gen-points", "--kind", "spiral", "--n", "100000000000",
               "--out", str(tmp_path / "s.txt")])
    assert rc == 4
    assert capsys.readouterr().err.startswith("error: spiral of 100000000000 points needs")
    assert not (tmp_path / "s.txt").exists()


class TestGenData:
    def test_writes_dataset(self, tmp_path):
        out = tmp_path / "d.csv"
        rc = main(["gen-data", "--design", str(design_path(9)),
                   "--target", "f2", "--delta", "0.1", "--seed", "7",
                   "--out", str(out)])
        assert rc == 0
        pts, labels = load_dataset(out)
        assert len(pts) == 48 and labels.shape == (48,)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["gen-data", "--design", str(design_path(9)), "--target", "f2",
                "--delta", "0.1", "--seed", "7"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("delta", ["nan", "inf", "-1"])
    def test_bad_delta_exits_2_and_writes_nothing(self, tmp_path, capsys, delta):
        out = tmp_path / "d.csv"
        rc = main(["gen-data", "--design", str(design_path(9)), "--target", "f2",
                   "--delta", delta, "--seed", "7", "--out", str(out)])
        assert rc == 2
        assert "delta" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_design_file(self, tmp_path):
        rc = main(["gen-data", "--design", str(tmp_path / "no.txt"),
                   "--target", "f2", "--delta", "0", "--seed", "1",
                   "--out", str(tmp_path / "d.csv")])
        assert rc == 3


class TestFit:
    def _dataset(self, tmp_path):
        out = tmp_path / "d.csv"
        main(["gen-data", "--design", str(design_path(9)), "--target", "f2",
              "--delta", "0", "--seed", "1", "--out", str(out)])
        return out

    def test_fit_with_centers(self, tmp_path, capsys):
        data = self._dataset(tmp_path)
        model_path = tmp_path / "m.txt"
        rc = main(["fit", "--train", str(design_path(9)), "--labels", str(data),
                   "--centers", str(design_path(5)), "--kernel", "wendland",
                   "--lambda", "1e-4", "--out", str(model_path)])
        assert rc == 0
        model = load_model(model_path)
        assert len(model.centers) == 12
        assert "12 centers on 48 samples" in capsys.readouterr().out

    def test_fit_full_without_centers(self, tmp_path):
        data = self._dataset(tmp_path)
        model_path = tmp_path / "m.txt"
        rc = main(["fit", "--train", str(design_path(9)), "--labels", str(data),
                   "--kernel", "gaussian:0.5", "--lambda", "1e-3",
                   "--out", str(model_path)])
        assert rc == 0
        assert len(load_model(model_path).centers) == 48

    def test_plain_label_list(self, tmp_path):
        labels = tmp_path / "labels.txt"
        labels.write_text("\n".join(["0.5"] * 48) + "\n")
        model_path = tmp_path / "m.txt"
        rc = main(["fit", "--train", str(design_path(9)), "--labels", str(labels),
                   "--kernel", "wendland", "--lambda", "1e-2",
                   "--out", str(model_path)])
        assert rc == 0

    def test_dataset_on_other_points_exits_3(self, tmp_path, capsys):
        # same size, same points in another order: labels would pair with
        # the wrong training points
        data = self._dataset(tmp_path)
        train = tmp_path / "reversed.txt"
        save_point_file(train, PointSet(load_point_file(design_path(9)).xyz[::-1]))
        rc = main(["fit", "--train", str(train), "--labels", str(data),
                   "--kernel", "wendland", "--lambda", "1e-2",
                   "--out", str(tmp_path / "m.txt")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "d.csv" in err and "reversed.txt" in err
        assert not (tmp_path / "m.txt").exists()

    def test_label_count_mismatch(self, tmp_path):
        labels = tmp_path / "labels.txt"
        labels.write_text("0.5\n0.5\n")
        rc = main(["fit", "--train", str(design_path(9)), "--labels", str(labels),
                   "--kernel", "wendland", "--lambda", "1e-2",
                   "--out", str(tmp_path / "m.txt")])
        assert rc == 3

    def test_bad_kernel_text(self, tmp_path):
        data = self._dataset(tmp_path)
        rc = main(["fit", "--train", str(design_path(9)), "--labels", str(data),
                   "--kernel", "sinc", "--lambda", "1e-2",
                   "--out", str(tmp_path / "m.txt")])
        assert rc == 2

    # inf gave a rank-1 constant-kernel model; 1e-200 squares to 0 and gave
    # a rank-0 model; 1e200 squares to inf
    @pytest.mark.parametrize("sigma", ["inf", "nan", "1e-200", "1e200"])
    def test_degenerate_gaussian_width_exits_2(self, tmp_path, capsys, sigma):
        data = self._dataset(tmp_path)
        model_path = tmp_path / "m.txt"
        rc = main(["fit", "--train", str(design_path(9)), "--labels", str(data),
                   "--kernel", f"gaussian:{sigma}", "--lambda", "1e-3",
                   "--out", str(model_path)])
        assert rc == 2
        assert "sigma" in capsys.readouterr().err
        assert not model_path.exists()


class TestSimulate:
    def test_sim1(self, toy_ini, tmp_path, capsys):
        out_dir = tmp_path / "out1"
        rc = main(["simulate", "--sim", "1", "--config", str(toy_ini),
                   "--out-dir", str(out_dir)])
        assert rc == 0
        rows = read_results_csv(out_dir / "sim1.csv")
        assert len(rows) == 1
        assert rows[0].method == "design" and rows[0].s_star == 5
        assert rows[0].fit_seconds == 0.0

    def test_sim2_with_detail(self, toy_ini, tmp_path):
        out_dir = tmp_path / "out2"
        rc = main(["simulate", "--sim", "2", "--config", str(toy_ini),
                   "--out-dir", str(out_dir)])
        assert rc == 0
        rows = read_results_csv(out_dir / "sim2.csv")
        assert [r.method for r in rows] == ["design", "first", "random"]
        detail = (out_dir / "sim2_random_seeds.csv").read_text().splitlines()
        assert len(detail) == 3     # header + 2 seeds

    def test_sim2_bitwise_repeatable(self, toy_ini, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            assert main(["simulate", "--sim", "2", "--config", str(toy_ini),
                         "--out-dir", str(d)]) == 0
        assert (d1 / "sim2.csv").read_bytes() == (d2 / "sim2.csv").read_bytes()
        assert ((d1 / "sim2_random_seeds.csv").read_bytes()
                == (d2 / "sim2_random_seeds.csv").read_bytes())

    def test_sim3(self, toy_ini, tmp_path):
        out_dir = tmp_path / "out3"
        rc = main(["simulate", "--sim", "3", "--config", str(toy_ini),
                   "--out-dir", str(out_dir)])
        assert rc == 0
        lines = (out_dir / "sim3_field.csv").read_text().splitlines()
        assert len(lines) == 101

    def test_missing_config(self, tmp_path):
        rc = main(["simulate", "--sim", "1", "--config",
                   str(tmp_path / "no.ini"), "--out-dir", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, kind):
        # a config that cannot be read must not run the default experiment
        ini = tmp_path / "cfg.ini"
        if kind == "directory":
            ini.mkdir()
        else:
            ini.write_bytes(b"[experiment]\nt = 9\n; caf\xe9\n")
        rc = main(["simulate", "--sim", "1", "--config", str(ini),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert str(ini) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sim, text", [
        (1, "[experiment]\nt = 9\n[noise]\ndeltas =\n"),
        (1, "[experiment]\nt = 9\n[sketch]\ns_stars =\n"),
        (2, "[experiment]\nt = 7\n")], ids=["no-deltas", "no-s-stars", "sim2-t-below-9"])
    def test_empty_experiment_exits_2(self, tmp_path, capsys, sim, text):
        # each would write a results CSV with only its header
        ini = tmp_path / "empty.ini"
        ini.write_text(text)
        rc = main(["simulate", "--sim", str(sim), "--config", str(ini),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "empty" in capsys.readouterr().err
        assert not (tmp_path / "o" / f"sim{sim}.csv").exists()

    def test_unattainable_s_star(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[experiment]\nt = 9\n[sketch]\ns_stars = 25\n")
        rc = main(["simulate", "--sim", "1", "--config", str(bad),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("section, line", [("noise", "deltas = 0.1, nan"),
                                               ("noise", "deltas = inf"),
                                               ("sim3", "delta = nan")])
    def test_non_finite_delta_in_config(self, tmp_path, capsys, section, line):
        ini = tmp_path / "nan.ini"
        ini.write_text(f"[experiment]\nt = 9\n[{section}]\n{line}\n")
        rc = main(["simulate", "--sim", "3", "--config", str(ini),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "typo.ini"
        ini.write_text("[experiment]\nt = 9\n[sketch]\ns_star = 5\n")
        rc = main(["simulate", "--sim", "1", "--config", str(ini),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "sketch.s_star" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, line, key", [("noise", "seed = -1", "noise.seed"),
                                                    ("sketch", "design_dir =", "sketch.design_dir")],
                             ids=["negative-seed", "empty-design-dir"])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, section, line, key):
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[experiment]\nt = 9\n[{section}]\n{line}\n")
        rc = main(["simulate", "--sim", "1", "--config", str(ini),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_design_dir_without_needed_degree(self, tmp_path):
        ini = tmp_path / "dd.ini"
        ini.write_text("[experiment]\nt = 9\n"
                       f"[sketch]\ndesign_dir = {tmp_path}\n")
        rc = main(["simulate", "--sim", "1", "--config", str(ini),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 3

    def test_sim2_design_larger_than_training_exits_2_before_fitting(
            self, tmp_path, capsys, monkeypatch, oversized_design_dir):
        # the s* = 3 file holds 48 points and the t = 5 training set 12, so
        # the matched first and random sketches cannot be drawn
        fits = []
        fit = harness.fit_sketched_multi
        monkeypatch.setattr(harness, "fit_sketched_multi",
                            lambda *args: fits.append(args) or fit(*args))
        ini = tmp_path / "oversized.ini"
        ini.write_text("[experiment]\nt = 5\n[noise]\ndeltas = 0.1\n"
                       f"[sketch]\ns_stars = 3\ndesign_dir = {oversized_design_dir}\n"
                       "[test]\nn_points = 50\n")
        rc = main(["simulate", "--sim", "2", "--config", str(ini),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert all(word in err for word in ("s_star=3", "m=48", "N=12")), err
        assert fits == []
        assert not (tmp_path / "o" / "sim2.csv").exists()


@pytest.mark.parametrize("line", ["deltas = 0.1, 0.1", "s_stars = 5, 5"])
def test_simulate_repeated_cell_exits_2(tmp_path, capsys, line):
    section = "noise" if line.startswith("deltas") else "sketch"
    ini = tmp_path / "repeat.ini"
    ini.write_text(f"[experiment]\nt = 9\n[{section}]\n{line}\n")
    rc = main(["simulate", "--sim", "1", "--config", str(ini),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "repeats a value" in capsys.readouterr().err
    assert not (tmp_path / "o" / "sim1.csv").exists()


# Runs every subcommand with scipy unimportable: sys.modules["scipy"] = None
# makes any import of scipy raise ImportError.  Prints the exit codes.
NO_SCIPY_SCRIPT = """\
import sys
sys.modules["scipy"] = None
from pathlib import Path
from sphfit.cli import main
from sphfit.designs import design_path
work, ini = Path(sys.argv[1]), sys.argv[2]
fit = ["fit", "--train", str(design_path(9)), "--labels", str(work / "d.csv"),
       "--kernel", "wendland", "--lambda", "1e-3"]
commands = [
    ["gen-points", "--kind", "spiral", "--n", "50", "--out", str(work / "s.txt")],
    ["verify-design", "--file", str(design_path(5)), "--t-max", "5"],
    ["gen-data", "--design", str(design_path(9)), "--target", "f2", "--delta", "0.1",
     "--seed", "7", "--out", str(work / "d.csv")],
    fit + ["--centers", str(design_path(5)), "--out", str(work / "sketched.txt")],
    fit + ["--out", str(work / "full.txt")],
] + [["simulate", "--sim", sim, "--config", ini, "--out-dir", str(work / "o")]
     for sim in ("1", "2", "3")]
print("exit codes:", [main(argv) for argv in commands])
"""


def test_import_loads_no_scipy(tmp_path, toy_ini):
    # every subcommand, including the full fit (fit without --centers), runs
    # on numpy alone
    src = str(Path(sphfit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path), str(toy_ini)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == f"exit codes: {[0] * 8}", run.stdout + run.stderr


def test_library_source_imports_no_scipy():
    for path in Path(sphfit.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert not any(n.split(".")[0] == "scipy" for n in names), path.name


def test_simulate_identical_across_blas_thread_counts(tmp_path):
    # The acceptance determinism config, run once per OpenBLAS thread count.
    ini = tmp_path / "repeat.ini"
    ini.write_text(
        "[experiment]\ntarget = f2\nt = 9\n"
        "[noise]\ndeltas = 0.1\nseed = 1234\n"
        "[sketch]\ns_stars = 5\nn_seeds = 3\n"
        "[test]\nn_points = 500\n"
        "[output]\ntiming = zero\n")
    src = str(Path(sphfit.__file__).resolve().parent.parent)
    outs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "sphfit.cli", "simulate", "--sim", "2",
                        "--config", str(ini), "--out-dir", str(out_dir)],
                       env=env, check=True, capture_output=True)
        outs.append(out_dir)
    for name in ("sim2.csv", "sim2_random_seeds.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
