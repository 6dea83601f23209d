import csv
import json

import numpy as np
import pytest

from nudgem.asymptotics import decay_rate, family_prefactors
from nudgem.cli import RECIPES, main, parse_grid
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


def test_missing_mix_is_input_error(tmp_path):
    assert main(["atir", "--mix", str(tmp_path / "none.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["atir", "--mix", str(bad)]) == 2


def test_verify_fast_passes(capsys):
    assert main(["verify", "--level", "fast"]) == 0
    captured = capsys.readouterr()
    assert "PASS" in captured.out
    assert "FAIL" not in captured.out
