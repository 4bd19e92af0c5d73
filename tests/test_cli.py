"""Tests for the command-line front end."""

import csv
import json

import numpy as np
import pytest

import gbc.cli
from gbc import SolveOptions, random_instance, solve_private
from gbc.cli import main
from gbc.errors import NumericalBreakdownError


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _case1(tmp_path, **overrides):
    doc = {
        "kind": "private",
        "n": 2,
        "K": [[2.0, 2.0], [2.0, 4.0]],
        "Sigma1": [[1.0, 0.0], [0.0, 1.0]],
        "Sigma2": [[3.0, 1.0], [1.0, 4.0]],
        "lambda": 2.0,
    }
    doc.update(overrides)
    return _write(tmp_path, "case1.json", doc)


def _common_fixture(tmp_path):
    return _write(tmp_path, "common.json", {
        "kind": "common",
        "n": 1,
        "K_C": [[2.0]],
        "Sigma1": [[1.0]],
        "Sigma2": [[2.0]],
        "lambda0": 1.2,
        "lambda1": 1.0,
        "lambda2": 1.1,
        "alpha": 0.5,
    })


def test_solve_case1(tmp_path, capsys):
    rc = main(["solve", _case1(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "private"
    assert doc["converged"] is True
    got = np.asarray(doc["K_U"])
    assert np.max(np.abs(got - np.array([[1.0, 1.0], [1.0, 2.0]]))) < 1e-4
    assert doc["rates"]["R1"] == pytest.approx(0.5 * np.log(5.0), abs=1e-6)
    assert "elapsed_seconds" in doc


def test_solve_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = main(["solve", str(path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_solve_invalid_lambda(tmp_path, capsys):
    rc = main(["solve", _case1(tmp_path, **{"lambda": 0.5})])
    assert rc == 1
    assert "weight > 1" in capsys.readouterr().err


def test_solve_no_timing_is_deterministic(tmp_path, capsys):
    argv = ["solve", _case1(tmp_path), "--no-timing"]
    rc1 = main(argv)
    out1 = capsys.readouterr().out
    rc2 = main(argv)
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "elapsed_seconds" not in json.loads(out1)


def test_solve_trace_out(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    rc = main(["solve", _case1(tmp_path), "--trace-out", str(trace_path)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    rows = list(csv.reader(trace_path.read_text().splitlines()))
    assert rows[0] == ["iter", "objective", "step_rel_change"]
    assert len(rows) - 1 == doc["iterations"] + 1
    sidecar = json.loads((tmp_path / "trace.csv.json").read_text())
    assert sidecar["iterations"] == doc["iterations"]


def test_solve_trace_out_rows_follow_every_step(tmp_path, capsys):
    inst = random_instance(3, 1)
    path = _write(tmp_path, "r3.json", {
        "kind": "private", "n": 3, "K": inst.K.tolist(),
        "Sigma1": inst.Sigma1.tolist(), "Sigma2": inst.Sigma2.tolist(),
        "lambda": inst.lam})
    trace_path = tmp_path / "trace.csv"
    rc = main(["solve", path, "--trace-out", str(trace_path)])
    capsys.readouterr()
    assert rc == 0
    rep = solve_private(gbc.cli.load_instance(path), SolveOptions())
    assert rep.iterations > 1
    rows = list(csv.reader(trace_path.read_text().splitlines()))[1:]
    rels = [""] + [repr(float(r)) for r in rep.step_rel_changes]
    assert rows == [[str(i), repr(float(f)), rel]
                    for i, (f, rel) in enumerate(zip(rep.objective_trace, rels))]


@pytest.mark.parametrize("field,value", [("lambda", None), ("n", [2]),
                                         ("K", {"a": 1})],
                         ids=["lambda-null", "n-list", "K-object"])
def test_solve_rejects_non_numeric_field(tmp_path, capsys, field, value):
    rc = main(["solve", _case1(tmp_path, **{field: value})])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and field in err


def test_solve_asymmetric_input_notes(tmp_path, capsys):
    path = _case1(tmp_path, Sigma2=[[3.0, 1.001], [1.0, 4.0]])
    rc = main(["solve", path])
    err = capsys.readouterr().err
    assert rc == 0
    assert "asymmetry" in err


def test_solve_algorithm_kind_mismatch(tmp_path, capsys):
    rc = main(["solve", _case1(tmp_path), "--algorithm", "egba-p"])
    assert rc == 1
    assert "requires a common instance" in capsys.readouterr().err
    for name in ("gba-a", "gba-p"):
        rc = main(["solve", _common_fixture(tmp_path), "--algorithm", name])
        assert rc == 1
        assert "requires a private instance" in capsys.readouterr().err


def test_solve_common_instance(tmp_path, capsys):
    rc = main(["solve", _common_fixture(tmp_path), "--algorithm", "egba-p",
               "--max-iters", "1000"])
    doc = json.loads(capsys.readouterr().out)
    assert rc in (0, 2)
    assert doc["kind"] == "common"
    assert doc["algorithm"] == "egba-p"
    assert doc["K_U"][0][0] == pytest.approx(1.0, abs=1e-2)
    assert len(doc["inner_iterations"]["K_V"]) == doc["outer_passes"]


def test_trace_region_rows_and_sorting(tmp_path, capsys):
    csv_path = tmp_path / "region.csv"
    rc = main(["trace-region", _case1(tmp_path), "--lambdas", "5,1.5,2",
               "--csv-out", str(csv_path)])
    captured = capsys.readouterr()
    assert rc in (0, 2)
    assert "not ascending" in captured.err
    rows = list(csv.reader(csv_path.read_text().splitlines()))
    assert rows[0] == ["lambda", "R1", "R2", "objective", "iterations"]
    assert [float(r[0]) for r in rows[1:]] == [1.5, 2.0, 5.0]


def test_trace_region_single_lambda_converges(tmp_path, capsys):
    rc = main(["trace-region", _case1(tmp_path), "--lambdas", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = list(csv.reader(out.splitlines()))
    assert len(rows) == 2
    assert float(rows[1][1]) == pytest.approx(0.5 * np.log(5.0), abs=1e-6)


def test_trace_region_flags_nonconvergence(tmp_path, capsys):
    rc = main(["trace-region", _case1(tmp_path), "--lambdas", "1.5",
               "--max-iters", "2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "did not converge" in captured.err


def test_trace_region_infeasible_alpha_row(tmp_path, capsys):
    csv_path = tmp_path / "alpha.csv"
    with pytest.warns(UserWarning, match="alpha=0 skipped"):
        rc = main(["trace-region", _common_fixture(tmp_path), "--alpha-grid",
                   "0.0,0.5", "--csv-out", str(csv_path)])
    assert rc == 2
    assert "alpha=0 skipped: weight combination infeasible" in capsys.readouterr().err
    rows = list(csv.reader(csv_path.read_text().splitlines()))
    assert len(rows) == 3
    assert rows[1][4] == "0.0" and rows[1][6] == "0"
    assert all(np.isnan(float(rows[1][i])) for i in (1, 2, 3, 5))
    assert np.isfinite([float(v) for v in rows[2]]).all()


def test_trace_region_requires_exactly_one_sweep(tmp_path, capsys):
    rc = main(["trace-region", _case1(tmp_path)])
    assert rc == 1
    rc = main(["trace-region", _case1(tmp_path), "--lambdas", "2",
               "--alpha-grid", "0.5"])
    assert rc == 1
    capsys.readouterr()


def test_oracle_dimension_guard(tmp_path, capsys):
    doc = {
        "kind": "private",
        "n": 3,
        "K": np.eye(3).tolist(),
        "Sigma1": np.eye(3).tolist(),
        "Sigma2": (2.0 * np.eye(3)).tolist(),
        "lambda": 2.0,
    }
    rc = main(["oracle", _write(tmp_path, "n3.json", doc)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_oracle_coarse_and_fields(tmp_path, capsys):
    rc = main(["oracle", _case1(tmp_path), "--resolution", "50"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["resolution"] == 50
    assert np.isfinite(doc["best_objective"])
    assert doc["resolution_bound"] > 0.0
    assert np.asarray(doc["best_KU"]).shape == (2, 2)


def test_oracle_rejects_resolution_zero(tmp_path, capsys):
    rc = main(["oracle", _case1(tmp_path), "--resolution", "0"])
    assert rc == 1
    assert "at least 2" in capsys.readouterr().err


def test_oracle_common_scalar(tmp_path, capsys):
    rc = main(["oracle", _common_fixture(tmp_path), "--resolution", "500"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["best_KV"][0][0] == 0.0
    assert doc["best_KU"][0][0] == pytest.approx(1.0, abs=5e-3)


def test_bench_row_count(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    rc = main(["bench", "--n-list", "2", "--seeds", "3", "--csv-out",
               str(csv_path), "--no-timing"])
    assert rc == 0
    rows = list(csv.reader(csv_path.read_text().splitlines()))
    assert rows[0] == ["n", "seed", "algorithm", "iterations", "converged",
                       "seconds", "final_objective"]
    # the default algorithm list is spg,gba-p,gba-a
    assert len(rows) == 1 + 3 * 3
    assert {r[2] for r in rows[1:]} == {"spg", "gba-p", "gba-a"}
    assert all(r[5] == "" for r in rows[1:])
    capsys.readouterr()


def test_bench_explicit_seed_list(capsys):
    rc = main(["bench", "--n-list", "2", "--seeds", "5,9",
               "--algorithms", "gba-a", "--no-timing"])
    out = capsys.readouterr().out
    rows = list(csv.reader(out.splitlines()))
    assert rc == 0
    assert len(rows) == 1 + 2
    assert {r[1] for r in rows[1:]} == {"5", "9"}


def test_bench_failed_cell_notes_its_error(monkeypatch, capsys):
    args = ["bench", "--n-list", "2", "--seeds", "5,9", "--no-timing"]
    assert main(args) == 0
    clean = capsys.readouterr().out
    bad_K = random_instance(2, 9, "private").K
    solve = gbc.cli.solve_private

    def failing_on_seed_9(inst, opts):
        if np.array_equal(inst.K, bad_K):
            raise NumericalBreakdownError("matrix inverse failed: Singular matrix")
        return solve(inst, opts)

    monkeypatch.setattr(gbc.cli, "solve_private", failing_on_seed_9)
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"note: n=2 seed=9 {name}: matrix inverse failed: Singular matrix"
        for name in ("spg", "gba-p", "gba-a")]
    # the failed cells keep their bare NaN rows in the CSV, byte for byte
    want = "".join(
        line if ",9," not in line else f"2,9,{line.split(',')[2]},0,False,,nan\n"
        for line in clean.splitlines(keepends=True))
    assert captured.out == want


def test_bench_invalid_n_list(capsys):
    rc = main(["bench", "--n-list", "two"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
