import csv
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import nudgem
from nudgem import cli, fluid, resp2, sim, swap
from nudgem.asymptotics import FAMILY_M_CAP, decay_rate, family_prefactors, m_opt
from nudgem.cli import RECIPES, main, parse_grid
from nudgem.phtype import MatrixExpDist, load_mix
from nudgem.policy import named_policy
from oracles import mixed_entry_fluid


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


@pytest.mark.parametrize("policy, params, windows", [
    ("nudge-km", {"k": 2}, [2, 3, 4]),
    ("nudge-ml", {"l": 2}, [2, 3, 4]),
    ("nudge-k", {"k": 2}, [2]),
    ("nudge-l", {"l": 3}, [3]),
    ("nudge-kl", {"k": 2, "l": 2}, [3]),
], ids=["km", "ml", "k", "l", "kl"])
def test_atir_family_column_by_window(tmp_path, policy, params, windows):
    # row m holds the policy's member of window m: Nudge-K,M and Nudge-M,L
    # have none below K (L), and Nudge-K, Nudge-L and Nudge-K,L one, at the
    # window K, L and K + L - 1; the other cells are empty
    out = tmp_path / "f.csv"
    flags = [a for key, v in params.items() for a in (f"--{key}", str(v))]
    assert main(["atir", "--recipe", "fig5b", "--policy", policy, "--m", "4",
                 *flags, "--out", str(out)]) == 0
    _, rows = _read(out)
    assert [int(r[0]) for r in rows] == [0, 1, 2, 3, 4]
    assert float(rows[0][2]) == 0.0
    mix = RECIPES["fig5b"]["mix"]()
    info = decay_rate(mix)
    for row in rows[1:]:
        m = int(row[0])
        if m in windows:
            pol = named_policy(policy, m=m, **params)
            assert float(row[2]) == family_prefactors(pol, info, mix).atir
        else:
            assert row[2] == ""


def test_atir_family_column_blank_above_cap(tmp_path):
    # the fig5b recipe runs to m = 12: the Nudge-K,M column is blank where
    # the window is above FAMILY_M_CAP (and at m = 1 < K), while the
    # closed-form Nudge-M column keeps every row
    out = tmp_path / "f.csv"
    assert main(["atir", "--recipe", "fig5b", "--policy", "nudge-km", "--k", "2",
                 "--out", str(out)]) == 0
    _, rows = _read(out)
    assert [int(r[0]) for r in rows] == list(range(13))
    assert all(r[1] != "" for r in rows)
    mix = RECIPES["fig5b"]["mix"]()
    info = decay_rate(mix)
    for row in rows[2:FAMILY_M_CAP + 1]:
        pol = named_policy("nudge-km", k=2, m=int(row[0]))
        assert float(row[2]) == family_prefactors(pol, info, mix).atir
    assert [r[2] for r in rows[FAMILY_M_CAP + 1:]] == [""] * (12 - FAMILY_M_CAP)
    assert rows[1][2] == ""


def test_atir_family_builds_no_table_above_cap(monkeypatch, tmp_path):
    # --m 18 asks for windows up to 18; only those up to FAMILY_M_CAP = 6
    # are built, and their cells are those of --m 6. A K above the cap
    # builds none, and a K above --m stays an input error
    built = []
    real = cli.named_policy

    def counted(kind, **params):
        pol = real(kind, **params)
        built.append(pol.m)
        return pol

    def atir(k, m):
        out = tmp_path / f"k{k}m{m}.csv"
        code = main(["atir", "--recipe", "fig5b", "--policy", "nudge-km",
                     "--k", str(k), "--m", str(m), "--out", str(out)])
        return code, out.read_text().splitlines() if code == 0 else None

    monkeypatch.setattr(cli, "named_policy", counted)
    assert FAMILY_M_CAP == 6
    (code, big), (code6, small) = atir(2, 18), atir(2, 6)
    assert (code, code6) == (0, 0) and built == [6, 5, 4, 3, 2] * 2
    assert big[:8] == small
    assert all(line.endswith(",") for line in big[8:])
    built.clear()
    code, lines = atir(8, 18)
    assert code == 0 and built == []
    assert lines[1].endswith(",0.0") and all(line.endswith(",") for line in lines[2:])
    assert [atir(19, m)[0] for m in (4, 18)] == [2, 2]


def test_atir_fcfs_column_is_zero(tmp_path):
    # FCFS passes no one, so W = Z and its ATIR is 0, not a rounding residue
    out = tmp_path / "f.csv"
    assert main(["atir", "--recipe", "fig5b", "--policy", "fcfs", "--m", "6",
                 "--out", str(out)]) == 0
    header, rows = _read(out)
    assert header == ["m", "atir", "atir_fcfs"]
    assert [float(r[2]) for r in rows] == [0.0] * 7


def test_atir_table_file_column_is_named_table(tmp_path):
    # a table file is not a registry name, so its column is atir_table
    # whatever the path; the table fixes its window, here 3
    pol = named_policy("nudge-km", k=2, m=3)
    table = tmp_path / "Km_Table.txt"
    table.write_text("\n".join("".join(map(str, s)) + f" {n}"
                                for s, n in sorted(pol.table.items())))
    out = tmp_path / "f.csv"
    assert main(["atir", "--recipe", "fig9a", "--policy", str(table), "--m", "3",
                 "--out", str(out)]) == 0
    header, rows = _read(out)
    assert header == ["m", "atir", "atir_table"]
    mix = RECIPES["fig9a"]["mix"]()
    assert float(rows[3][2]) == family_prefactors(pol, decay_rate(mix), mix).atir
    assert [r[2] for r in rows[1:3]] == ["", ""]


@pytest.mark.parametrize("flags", [
    ["--policy", "nudge-km"],
    ["--policy", "nudge-ml"],
    ["--policy", "nudge-kl", "--k", "2"],
    ["--policy", "nudge-km", "--k", "5"],
], ids=["km-no-k", "ml-no-l", "kl-no-l", "km-k-above-m"])
def test_atir_family_parameter_errors(flags):
    assert main(["atir", "--recipe", "fig5b", "--m", "4", *flags]) == 2


@pytest.mark.parametrize("command, m", [("atir", "2"), ("atir", "0"),
                                        ("simulate", "2"), ("dist", "2")])
def test_unknown_policy_name_is_input_error(command, m, capsys):
    # neither a registered name nor a file: the error lists the names, also
    # where atir asks for no window of the family column
    assert main([command, "--recipe", "fig5a", "--policy", "nudge-q",
                 "--m", m]) == 2
    err = capsys.readouterr().err
    assert "'nudge-q' is neither a registered name (fcfs, nudge-m, " in err
    assert "No such file" not in err


def test_table_file_with_repeated_word_is_input_error(tmp_path, capsys):
    table = tmp_path / "t.txt"
    table.write_text("11 0\n12 0\n21 1\n22 2\n22 1\n")
    assert main(["atir", "--recipe", "fig5b", "--policy", str(table),
                 "--m", "2"]) == 2
    assert "word 22 appears twice" in capsys.readouterr().err


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


@pytest.mark.parametrize("spec, code, message", [
    ("none.txt", 2, "none.txt' is neither a registered name (fcfs, nudge-m, "),
    ("nudge-k", 3, "available for fcfs and nudge-m"),
    ("t.txt", 3, "available for fcfs and nudge-m"),
], ids=["missing-file", "other-name", "table-file"])
def test_dist_policy_errors(spec, code, message, tmp_path, capsys):
    # a missing file is an input error, as in every command; a policy that
    # dist has no distributions for is a capability limit
    if spec == "t.txt":
        (tmp_path / spec).write_text("\n".join(
            "".join(map(str, s)) + f" {n}"
            for s, n in named_policy("nudge-m", m=2).table.items()))
    if spec.endswith(".txt"):
        spec = str(tmp_path / spec)
    assert main(["dist", "--recipe", "fig9a", "--m", "2", "--t", "0",
                 "--policy", spec]) == code
    assert message in capsys.readouterr().err


def test_dist_nudge_m_without_window_is_input_error(tmp_path, capsys):
    # a mix file has no recipe window to fall back on
    mix = _mix_file(tmp_path / "mix.json", 2 / 3, 0.7, 1.0, 4.0)
    assert main(["dist", "--mix", mix, "--t", "0"]) == 2
    assert "nudge-m distributions need --m" in capsys.readouterr().err


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
                           "busy_fraction", "block_size", "blocks",
                           "event_loop_blocks", "short_rows", "loop_arrivals",
                           "decide_rounds", "draw_s", "replay_s"}
    assert record["block_size"] == sim.SIM_BLOCK
    assert 0 <= record["event_loop_blocks"] <= record["blocks"]
    # an open row is one that needed the upper-bound search
    assert 0 <= record["loop_arrivals"] <= record["short_rows"] <= 2000
    assert record["draw_s"] > 0 and record["replay_s"] > 0
    assert record["draw_s"] + record["replay_s"] <= record["wall_s"]
    # the fixed point runs, for a round or more, exactly when the bounds
    # leave rows open
    assert (record["decide_rounds"] == 0) == (record["loop_arrivals"] == 0)
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
    # oracles (dense expm, quadrature, Sylvester iteration) live in tests/,
    # and scipy is a test-only dependency: the package never loads it
    src = os.path.dirname(os.path.dirname(nudgem.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, nudgem.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[]"


@pytest.mark.parametrize("argv, message", [
    (["dist", "--recipe", "fig9a", "--m", "2", "--t", "abc"], "abc"),
    (["atir", "--recipe", "fig5a", "--lambda", "0.1:0.9"],
     "--lambda '0.1:0.9' is neither v1,v2,... nor a:b:n"),
    (["mean", "--recipe", "fig8", "--m", "0"], "window m must be >= 1"),
    (["dist", "--recipe", "fig9a", "--m", "2", "--t=-1"], "t must be"),
    (["atir", "--recipe", "fig5a", "--lambda", "0.1:0.9:0"], "nor a:b:n"),
    (["simulate", "--recipe", "fig5a", "--policy", "nudge-m", "--m", "0"],
     "window m must be >= 1"),
    (["simulate", "--recipe", "fig5a", "--policy", "nudge-m", "--m", "-2"],
     "window m must be >= 1"),
    (["mean", "--recipe", "fig8", "--m", "-1", "--lambda", "0.5"],
     "window m must be >= 1"),
    (["atir", "--recipe", "fig5b", "--m", "-1"], "m must be >= 0"),
    (["atir", "--recipe", "fig6", "--policy", "nudge-km", "--k", "2", "--m", "3"],
     "takes no --policy"),
    (["atir", "--recipe", "fig6", "--m", "3"], "takes no --m"),
    (["atir", "--recipe", "fig5a", "--lambda", "0.3,0.5", "--k", "2"],
     "takes no --k"),
    (["atir", "--recipe", "fig8", "--l", "1"], "takes no --l"),
], ids=["dist-t-abc", "atir-lambda-two-fields", "mean-m0", "dist-t-negative",
        "atir-lambda-no-points", "simulate-m0", "simulate-m-negative",
        "mean-m-negative", "atir-m-negative", "atir-sweep-policy",
        "atir-sweep-m", "atir-sweep-k", "atir-sweep-l"])
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


def test_psi_rows_above_one_are_numeric_failure(monkeypatch, tmp_path, capsys):
    real = fluid._sda

    def inflated(model):
        psi, *rest = real(model)
        return (1.01 * psi, *rest)

    monkeypatch.setattr(fluid, "_sda", inflated)
    argv = ["dist", "--recipe", "fig9a", "--m", "2", "--t", "0,1"]
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 4
    assert "row of Psi" in capsys.readouterr().err


def test_boundary_rows_off_the_solution_are_numeric_failure(
        monkeypatch, tmp_path, capsys):
    # 0.999 Psi[D] is substochastic, so only the residual of the whole
    # equation, not the one SDA saw on the rows R, can refuse it
    real = fluid._boundary_rows
    monkeypatch.setattr(fluid, "_boundary_rows",
                        lambda *args: 0.999 * real(*args))
    argv = ["dist", "--recipe", "fig9a", "--m", "2", "--t", "0,1"]
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 4
    assert "Riccati residual" in capsys.readouterr().err


def test_no_eigenvalue_one_is_numeric_failure(monkeypatch, tmp_path, capsys):
    # 0.5 Psi is substochastic, so only the Perron-root check can refuse it
    real = fluid.solve_riccati
    monkeypatch.setattr(fluid, "solve_riccati",
                        lambda model, **kw: 0.5 * real(model, **kw))
    argv = ["dist", "--recipe", "fig9a", "--m", "2", "--t", "0,1"]
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 4
    assert "no eigenvalue of Psi P~ near 1" in capsys.readouterr().err


def test_c0_off_one_minus_lambda_is_numeric_failure(monkeypatch, tmp_path, capsys):
    # c0 = 1 - lambda (PASTA) is checked at run time: a c0 moved by 1e-6
    # passes every check of the solve, and dist refuses it and writes no CSV
    real = fluid.stationary_fluid

    def shifted(model):
        sol = real(model)
        return replace(sol, c0=sol.c0 + 1e-6)

    monkeypatch.setattr(fluid, "stationary_fluid", shifted)
    argv = ["dist", "--recipe", "fig9a", "--m", "2", "--t", "0,1"]
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 4
    assert "off 1 - lambda" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_boundary_entry_with_two_phase_laws_is_numeric_failure(
        monkeypatch, tmp_path, capsys):
    # D's components entered with two phase laws cannot be lumped into one
    # block: the CLI reports a numeric failure (exit 4)
    mixfile = tmp_path / "mix.json"
    mixfile.write_text(json.dumps({
        "p": 0.6, "lambda": 0.7, "normalize": True,
        "type1": {"kind": "exp", "mean": 1.0},
        "type2": {"alpha": [0.7, 0.3], "S": [[-1.6, 0.8], [0.0, -1.8]]},
    }))
    monkeypatch.setattr(fluid, "build_nudge_m_fluid", mixed_entry_fluid)
    argv = ["dist", "--mix", str(mixfile), "--m", "3", "--t", "0,1"]
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 4
    assert "not proportional" in capsys.readouterr().err


def test_dist_manifest_fluid_record(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["dist", "--recipe", "fig9a", "--m", "3", "--t", "0,2",
                 "--out", str(out)]) == 0
    rec = json.loads((tmp_path / "d.csv.manifest.json").read_text())["fluid"]
    assert sorted(rec) == ["c0", "c0_gap", "n_minus", "n_plus",
                           "n_plus_solved", "perron_shift", "riccati_residual",
                           "sda_steps"]
    assert (rec["n_minus"], rec["n_plus"]) == (8, 16)
    assert rec["n_plus_solved"] == 12  # 2^(m-1) (n1 + 2 n2)
    assert 0.0 <= rec["riccati_residual"] <= 1e-12
    assert rec["sda_steps"] == 8
    assert rec["c0"] == pytest.approx(0.3, abs=1e-9)  # 1 - lambda
    assert rec["c0_gap"] == abs(rec["c0"] - (1.0 - 0.7))
    assert rec["c0_gap"] <= cli.C0_GAP_TOL / (1.0 - 0.7)
    assert abs(rec["perron_shift"]) <= 1e-8


def test_dist_manifest_law_records(tmp_path):
    # each law's size, rate, q t_max and products on the default grid
    # (0 to 60/theta_Z): 31 rows, 5 squarings for P^32 and K // 32 columns
    out = tmp_path / "d.csv"
    assert main(["dist", "--recipe", "fig9a", "--m", "3", "--out", str(out)]) == 0
    laws = json.loads((tmp_path / "d.csv.manifest.json").read_text())["laws"]
    t_max = 60.0 / decay_rate(RECIPES["fig9a"]["mix"]()).theta_z
    expect = {"w1": (13, 1.990997453888077, 29), "r1": (14, 2.0, 29),
              "w2": (26, 2.7, 37), "r2": (27, 2.7, 37)}
    assert sorted(laws) == sorted(expect)
    for name, (n, q, columns) in expect.items():
        rec = laws[name]
        assert (rec["n"], rec["rows"], rec["squarings"], rec["columns"]) == \
            (n, 31, 5, columns)
        assert rec["q"] == pytest.approx(q, rel=1e-12)
        assert rec["q_t_max"] == pytest.approx(q * t_max, rel=1e-12)


@pytest.mark.parametrize("policy, via", [
    ("nudge-m", {"w1": "r1", "w2": "r2"}),
    ("fcfs", {}),
])
def test_dist_manifest_waiting_laws_ride_on_response_laws(tmp_path, policy, via):
    # a waiting-time law is read off its response law's P^A: its record
    # names that law and carries its product counts, not counts of its own
    out = tmp_path / "d.csv"
    assert main(["dist", "--recipe", "fig9a", "--policy", policy, "--m", "3",
                 "--out", str(out)]) == 0
    laws = json.loads((tmp_path / "d.csv.manifest.json").read_text())["laws"]
    assert {name: rec["via"] for name, rec in laws.items() if "via" in rec} == via
    for name, by in via.items():
        for key in ("rows", "squarings", "columns"):
            assert laws[name][key] == laws[by][key]


@pytest.mark.parametrize("recipe", ["fig5b", "fig9a"])
def test_dist_fcfs_waiting_times_are_the_workload_law(tmp_path, recipe):
    # under FCFS both types wait the workload Z, whose own law gives the
    # w1 and w2 columns: read off R_1's P^A it would be uniformized at
    # R_1's higher rate and differ by up to 7.1e-14 relative
    out = tmp_path / "f.csv"
    assert main(["dist", "--recipe", recipe, "--policy", "fcfs",
                 "--out", str(out)]) == 0
    _, rows = _read(out)
    cols = np.array(rows, dtype=float).T
    want = swap.workload_law(RECIPES[recipe]["mix"]()).ccdf(cols[0])
    assert np.array_equal(cols[1], want) and np.array_equal(cols[3], want)


# Mixes on which the dominant eigenvalue of T over every phase is not
# theta_Z: one type absent, each time the slower, as (p, lambda, E[X1],
# E[X2]), and a slow type-1 phase that alpha never enters.
ONE_TYPE_MIXES = {"p1": (1, 0.7, 0.5, 2.0), "p0": (0, 0.7, 4.0, 0.5)}
UNREACHED_SLOW_PHASE = {"alpha": [1, 0], "S": [[-2, 0], [0, -0.05]]}


def _mix_file(path, p, lam, type1, e2):
    """A normalized mix file with exponential type-2 jobs of mean e2;
    type1 is an exponential's mean or a raw {alpha, S}."""
    if not isinstance(type1, dict):
        type1 = {"kind": "exp", "mean": type1}
    path.write_text(json.dumps({
        "p": p, "lambda": lam, "normalize": True, "type1": type1,
        "type2": {"kind": "exp", "mean": e2}}))
    return str(path)


def _columns(argv, out):
    assert main(argv + ["--out", str(out)]) == 0
    _, rows = _read(out)
    return np.array(rows, dtype=float).T


@pytest.mark.parametrize("name", ["p1", "p0"])
def test_one_type_mix_nudges_no_one(tmp_path, name):
    # with one type absent Nudge passes no one: ATIR and MTIR are 0 and
    # the arriving type's distributions are FCFS's
    mix = _mix_file(tmp_path / "mix.json", *ONE_TYPE_MIXES[name])
    assert m_opt(decay_rate(load_mix(mix))) == 0
    atir = _columns(["atir", "--mix", mix, "--m", "10"], tmp_path / "a.csv")
    assert np.max(np.abs(atir[1])) <= 1e-14
    nudge = _columns(["dist", "--mix", mix, "--m", "3"], tmp_path / "n.csv")
    fcfs = _columns(["dist", "--mix", mix, "--policy", "fcfs"], tmp_path / "f.csv")
    arriving = [1, 2] if name == "p1" else [3, 4]
    assert nudge[arriving] == pytest.approx(fcfs[arriving], rel=1e-12, abs=0)
    assert np.max(np.abs(nudge[5])) <= 1e-12
    mean = _columns(["mean", "--mix", mix], tmp_path / "m.csv")
    assert mean[5].tolist() == [0.0]
    # the family prefactors still need both types
    assert main(["atir", "--mix", mix, "--policy", "nudge-k", "--k", "1",
                 "--m", "2", "--out", str(tmp_path / "k.csv")]) == 2


def test_unreached_slow_phase_changes_no_output(tmp_path):
    # a type-1 phase that alpha never enters, slower than theta_Z, carries
    # no mass: every command gives its trimmed twin's numbers
    slow = _mix_file(tmp_path / "slow.json", 0.5, 0.5, UNREACHED_SLOW_PHASE, 1.0)
    trimmed = _mix_file(tmp_path / "trimmed.json", 0.5, 0.5, 0.5, 1.0)
    for argv, rel in ((["atir", "--m", "3"], 0.0), (["dist", "--m", "3"], 1e-12),
                      (["mean"], 0.0)):
        got = _columns(argv + ["--mix", slow], tmp_path / "s.csv")
        want = _columns(argv + ["--mix", trimmed], tmp_path / "t.csv")
        assert got == pytest.approx(want, rel=rel, abs=0)


def test_missing_mix_is_input_error(tmp_path):
    assert main(["atir", "--mix", str(tmp_path / "none.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["atir", "--mix", str(bad)]) == 2


@pytest.mark.parametrize("type1, message", [
    ({"kind": "erlang", "stages": 3, "mean": 1.0}, None),
    ({"kind": "gamma", "mean": 1.0}, "unknown job size kind 'gamma'"),
    ({"kind": "erlang", "mean": 1.0}, "job-mix file is missing field 'stages'"),
], ids=["erlang", "unknown-kind", "missing-field"])
def test_mix_file_job_size_kinds(type1, message, tmp_path, capsys):
    mix = _mix_file(tmp_path / "mix.json", 0.5, 0.5, type1, 1.0)
    out = tmp_path / "a.csv"
    code = main(["atir", "--mix", mix, "--m", "2", "--out", str(out)])
    if message is None:
        assert code == 0 and len(_read(out)[1]) == 3
        assert load_mix(mix).ph1.alpha.shape == (3,)  # Erlang-3: three phases
    else:
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and message in err


def test_atir_without_a_mix_is_input_error(capsys):
    assert main(["atir"]) == 2
    assert "no job mix given" in capsys.readouterr().err


def test_verify_full_passes(capsys):
    # the fast checks plus the simulation's against the swap layer
    assert main(["verify", "--level", "full"]) == 0
    out = capsys.readouterr().out
    for name in ("sim-mean-response-3se", "sim-wait-atom-3se", "sim-swap-pmf"):
        assert f"PASS  {name}" in out
    assert "FAIL" not in out and "all 18 checks passed" in out


def test_verify_fast_passes(capsys):
    assert main(["verify", "--level", "fast"]) == 0
    captured = capsys.readouterr()
    assert "PASS  workload-uniformization-vs-mm1" in captured.out
    # the family prefactors at the cap M = 6, for Nudge-M and for FCFS
    assert "PASS  family-prefactors-m6" in captured.out
    assert "PASS  family-prefactors-fcfs-m6" in captured.out
    # the optimality theorem over F_1, F_2 and F_3
    for m in (1, 2, 3):
        assert f"PASS  optimality-m{m}" in captured.out
    # the heavy-traffic ATIR limit on both reference mixes
    for mix in ("exp-exp", "exp-hyperexp"):
        assert f"PASS  heavy-traffic-limit-{mix}" in captured.out
        # the fluid's E[W_1] against the swap layer by Wald's identity
        assert f"PASS  fluid-w1-mean-vs-swap-{mix}" in captured.out
    assert "FAIL" not in captured.out
