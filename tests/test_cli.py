import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nudgem
from nudgem import resp2
from nudgem.asymptotics import decay_rate, family_prefactors
from nudgem.cli import RECIPES, main, parse_grid
from nudgem.phtype import MatrixExpDist
from nudgem.policy import named_policy


def _read(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_parse_grid_forms():
    assert parse_grid("1,2,3.5") == [1.0, 2.0, 3.5]
    assert parse_grid("0:1:5") == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_atir_recipe_argmax(tmp_path):
    out = tmp_path / "a.csv"
    assert main(["atir", "--recipe", "fig5a", "--out", str(out)]) == 0
    header, rows = _read(out)
    assert header == ["m", "atir"]
    atir = [float(r[1]) for r in rows]
    assert atir[0] == 0.0
    assert int(np.argmax(atir)) == 5
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["command"] == "atir"
    assert manifest["output"] == str(out)


def test_atir_lambda_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["atir", "--recipe", "fig5a", "--lambda", "0.3,0.6,0.9",
                 "--out", str(out)]) == 0
    header, rows = _read(out)
    assert header[:3] == ["lambda", "m_opt", "m_heavy"]
    assert len(rows) == 3
    # the optimal-window gain grows with load
    gains = [float(r[3]) for r in rows]
    assert gains == sorted(gains)


def test_atir_policy_comma_alias(tmp_path):
    # the paper's "Nudge-K,M" spelling names the registered nudge-km policy
    out = tmp_path / "km.csv"
    assert main(["atir", "--recipe", "fig5a", "--policy", "nudge-k,m",
                 "--m", "3", "--k", "1", "--out", str(out)]) == 0
    header, rows = _read(out)
    assert header == ["m", "atir", "atir_nudge-km"]
    mix = RECIPES["fig5a"]["mix"]()
    info = decay_rate(mix)
    for row in rows[1:]:
        pol = named_policy("nudge-km", k=1, m=int(row[0]))
        assert float(row[2]) == pytest.approx(
            family_prefactors(pol, info, mix).atir, abs=1e-14)
    assert main(["atir", "--recipe", "fig5a", "--policy", "nudge-k",
                 "--m", "2", "--out", str(out)]) == 2


@pytest.mark.parametrize("spelling", ["NUDGE-M", "nudge_m"])
def test_atir_nudge_m_spellings_take_closed_form(tmp_path, spelling):
    # any registry spelling of nudge-m is the closed form, which has no
    # window cap (the fig5a recipe runs to m = 10)
    out = tmp_path / "a.csv"
    assert main(["atir", "--recipe", "fig5a", "--policy", spelling,
                 "--out", str(out)]) == 0
    header, rows = _read(out)
    assert header == ["m", "atir"]
    assert len(rows) == 11


def test_dist_policy_spelling_via_registry(tmp_path):
    # dist normalizes the name through the same registry key as the others
    assert main(["dist", "--recipe", "fig5a", "--policy", "Nudge_M", "--m", "2",
                 "--t", "0", "--out", str(tmp_path / "d.csv")]) == 0


def test_dist_zero_row(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["dist", "--recipe", "fig5a", "--m", "3", "--t", "0,2",
                 "--out", str(out)]) == 0
    header, rows = _read(out)
    assert header == ["t", "w1_ccdf", "r1_ccdf", "w2_ccdf", "r2_ccdf", "tir"]
    t0 = [float(x) for x in rows[0]]
    assert t0 == pytest.approx([0.0, 0.7, 1.0, 0.7, 1.0, 0.0], abs=1e-9)


def test_dist_fcfs_type_blind(tmp_path):
    out = tmp_path / "f.csv"
    assert main(["dist", "--recipe", "fig5a", "--policy", "fcfs",
                 "--t", "0,1,5", "--out", str(out)]) == 0
    _, rows = _read(out)
    for r in rows:
        assert float(r[1]) == pytest.approx(float(r[3]), abs=1e-12)
        assert float(r[5]) == pytest.approx(0.0, abs=1e-12)


def test_dist_cap_exit_code(tmp_path):
    assert main(["dist", "--recipe", "fig5a", "--m", "11",
                 "--out", str(tmp_path / "x.csv")]) == 3


def test_mean_mm1_column(tmp_path):
    mixfile = tmp_path / "mm1.json"
    mixfile.write_text(json.dumps({
        "p": 0.5, "lambda": 0.5,
        "type1": {"kind": "exp", "mean": 1.0},
        "type2": {"kind": "exp", "mean": 1.0},
    }))
    out = tmp_path / "m.csv"
    assert main(["mean", "--mix", str(mixfile), "--m", "2",
                 "--lambda", "0.2,0.5,0.8", "--out", str(out)]) == 0
    _, rows = _read(out)
    for r in rows:
        lam = float(r[0])
        assert float(r[2]) == pytest.approx(1.0 / (1.0 - lam), rel=1e-10)
        assert float(r[5]) == pytest.approx(0.0, abs=1e-10)  # equal means


def test_mean_ordering_with_priority(tmp_path):
    out = tmp_path / "mm.csv"
    assert main(["mean", "--recipe", "fig8", "--out", str(out)]) == 0
    _, rows = _read(out)
    for r in rows:
        er_fcfs, er_nudge, er_prio = float(r[2]), float(r[3]), float(r[4])
        assert er_prio <= er_nudge + 1e-9 <= er_fcfs + 1e-9


def test_simulate_deterministic(tmp_path):
    args = ["simulate", "--recipe", "fig5a", "--policy", "nudge-m", "--m", "2",
            "--jobs", "5000", "--seed", "11"]
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


@pytest.mark.parametrize("argv", [
    ["atir", "--recipe", "fig5a", "--t", "1"],
    ["dist", "--recipe", "fig9a", "--m", "2", "--k", "1"],
    ["dist", "--recipe", "fig9a", "--m", "2", "--l", "1"],
    ["mean", "--recipe", "fig8", "--policy", "fcfs"],
    ["mean", "--recipe", "fig8", "--k", "1"],
    ["mean", "--recipe", "fig8", "--l", "1"],
    ["mean", "--recipe", "fig8", "--t", "1"],
], ids=["atir-t", "dist-k", "dist-l", "mean-policy", "mean-k", "mean-l",
        "mean-t"])
def test_flags_a_command_ignores_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dist", "--recipe", "fig9a", "--m", "2", "--lambda", "0.1:0.9:3",
     "--t", "0,1"],
    ["simulate", "--recipe", "fig5a", "--lambda", "0.2,0.9", "--jobs", "500"],
], ids=["dist", "simulate"])
def test_single_lambda_commands_reject_a_grid(argv, tmp_path):
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2


def test_simulate_at_one_lambda(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["simulate", "--recipe", "fig5a", "--lambda", "0.5",
                 "--jobs", "2000", "--t", "0", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert manifest["n_jobs"] == 2000
    record = manifest["sim"]
    assert set(record) == {"wall_s", "jobs_per_s", "warmup", "n_batches",
                           "busy_fraction"}
    assert record["wall_s"] > 0
    assert record["jobs_per_s"] == pytest.approx(2000 / record["wall_s"])
    assert (record["warmup"], record["n_batches"]) == (200, 30)
    _, rows = _read(out)
    values = {r[0]: float(r[1]) for r in rows}
    # the atom of the wait at zero is near lambda = 0.5, not the recipe's 0.7
    assert values["wait_ccdf_1_t0"] == pytest.approx(0.5, abs=0.1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_simulate_too_few_jobs_is_input_error(jobs, tmp_path, capsys):
    # fewer jobs after warm-up than batches: no mean or error to print
    assert main(["simulate", "--recipe", "fig5a", "--jobs", jobs,
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert f"{jobs} jobs leave" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", [0, 1])
def test_simulate_leaves_out_an_absent_type(p, tmp_path):
    mixfile = tmp_path / "one.json"
    mixfile.write_text(json.dumps({
        "p": p, "lambda": 0.6,
        "type1": {"kind": "exp", "mean": 1.0},
        "type2": {"kind": "exp", "mean": 1.0},
    }))
    out = tmp_path / "s.csv"
    assert main(["simulate", "--mix", str(mixfile), "--m", "3", "--jobs",
                 "3000", "--t", "0,1", "--out", str(out)]) == 0
    _, rows = _read(out)
    names = [r[0] for r in rows]
    absent = 1 if p == 0 else 2  # p = 0: no type-1 jobs; p = 1: no type-2 jobs
    assert not [n for n in names if n.endswith(f"_{absent}")
                and not n.startswith("pass")]
    assert not [n for n in names if n.startswith(f"wait_ccdf_{absent}_")]
    for kind in ("wait", "response"):
        assert f"mean_{kind}_{3 - absent}" in names
    assert "nan" not in out.read_text()


def test_cli_import_leaves_out_quadrature():
    # oracles (quadrature, Sylvester iteration) live in tests/, so the
    # package's import path does not pay for scipy.integrate
    src = os.path.dirname(os.path.dirname(nudgem.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, nudgem.cli; print('scipy.integrate' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"


@pytest.mark.parametrize("argv, message", [
    (["dist", "--recipe", "fig9a", "--m", "2", "--t", "abc"], "abc"),
    (["atir", "--recipe", "fig5a", "--lambda", "0.1:0.9"],
     "--lambda '0.1:0.9' is neither v1,v2,... nor a:b:n"),
    (["mean", "--recipe", "fig8", "--m", "0"], "window m must be >= 1"),
    (["dist", "--recipe", "fig9a", "--m", "2", "--t=-1"], "t must be"),
    (["atir", "--recipe", "fig5a", "--lambda", "0.1:0.9:0"], "nor a:b:n"),
], ids=["dist-t-abc", "atir-lambda-two-fields", "mean-m0", "dist-t-negative",
        "atir-lambda-no-points"])
def test_value_errors_are_input_errors(argv, message, tmp_path, capsys):
    # a plain ValueError is an input error (exit 2), not a traceback
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and message in err


def test_unsigned_law_is_numeric_failure(monkeypatch, tmp_path, capsys):
    # a law whose uniformization terms could differ in sign is refused
    # where it is built, and the CLI reports a numeric failure (exit 4)
    def unsigned_w2_model(mix, m):
        return MatrixExpDist([1.0, 0.0], [[-1.0, -0.5], [0.0, -1.0]], [1.0, 1.0])

    monkeypatch.setattr(resp2, "build_w2_model", unsigned_w2_model)
    argv = ["dist", "--recipe", "fig9a", "--m", "2", "--t", "0,1"]
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 4
    assert "differ in sign" in capsys.readouterr().err


def test_missing_mix_is_input_error(tmp_path):
    assert main(["atir", "--mix", str(tmp_path / "none.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["atir", "--mix", str(bad)]) == 2


def test_verify_fast_passes(capsys):
    assert main(["verify", "--level", "fast"]) == 0
    captured = capsys.readouterr()
    assert "PASS  w1-tail-uniformization-vs-dense" in captured.out
    # the family prefactors at the cap M = 6, for Nudge-M and for FCFS
    assert "PASS  family-prefactors-m6" in captured.out
    assert "PASS  family-prefactors-fcfs-m6" in captured.out
    assert "FAIL" not in captured.out
