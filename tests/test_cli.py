"""Tests for the command-line front end."""

import csv
import json
import warnings

import numpy as np
import pytest

import gbc.cli
from gbc import SolveOptions, random_instance, solve_common, solve_private
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


def _common_fixture(tmp_path, **overrides):
    doc = {
        "kind": "common",
        "n": 1,
        "K_C": [[2.0]],
        "Sigma1": [[1.0]],
        "Sigma2": [[2.0]],
        "lambda0": 1.2,
        "lambda1": 1.0,
        "lambda2": 1.1,
        "alpha": 0.5,
    }
    doc.update(overrides)
    return _write(tmp_path, "common.json", doc)


def _one_error(capsys, argv, match):
    """main(argv) exits 1 with one `error:` line on stderr, naming match."""
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and match in err[0], err


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
    assert rows[0] == ["iter", "objective"]
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
    rows = list(csv.reader(trace_path.read_text().splitlines()))
    assert rows == [["iter", "objective"]] + [[str(i), repr(float(f))] for i, f
                                              in enumerate(rep.objective_trace)]


def test_solve_trace_out_keeps_the_outer_change_of_a_common_solve(tmp_path, capsys):
    inst = random_instance(3, 5, "common")
    path = _write(tmp_path, "c3.json", {
        "kind": "common", "n": 3, "K_C": inst.K_C.tolist(),
        "Sigma1": inst.Sigma1.tolist(), "Sigma2": inst.Sigma2.tolist(),
        "lambda0": inst.lambda0, "lambda1": inst.lambda1,
        "lambda2": inst.lambda2, "alpha": inst.alpha})
    trace_path = tmp_path / "trace.csv"
    rc = main(["solve", path, "--trace-out", str(trace_path)])
    capsys.readouterr()
    assert rc == 0
    rep = solve_common(gbc.cli.load_instance(path), SolveOptions())
    assert len(rep.step_rel_changes) > 1
    rows = list(csv.reader(trace_path.read_text().splitlines()))
    rels = [""] + [repr(float(r)) for r in rep.step_rel_changes]
    assert rows == [["iter", "objective", "step_rel_change"]] + [
        [str(i), repr(float(f)), rel]
        for i, (f, rel) in enumerate(zip(rep.objective_trace, rels))]


def _common_below_one(tmp_path, **overrides):
    # weights under which lambda0 = 1 is valid, so that a bool read as 1
    # would solve
    return _common_fixture(tmp_path, **{"lambda1": 0.5, "lambda2": 0.8,
                                        **overrides})


# every number in an instance file is a JSON number: never a string or a
# bool, inside a matrix or not
@pytest.mark.parametrize("make,field,value", [
    (_case1, "lambda", None), (_case1, "n", [2]), (_case1, "K", {"a": 1}),
    (_case1, "lambda", "2.5"), (_common_below_one, "lambda0", True),
    (_case1, "Sigma1", [["1.0", 0.0], [0.0, 1.0]]),
    (_case1, "K", [[True, 2.0], [2.0, 4.0]]),
    (_case1, "K", [[2.0, 2.0], [2.0]]), (_case1, "K", [[2.0]]),
], ids=["lambda-null", "n-list", "K-object", "lambda-string", "lambda0-bool",
        "Sigma1-string-entry", "K-bool-entry", "K-ragged", "K-1x1"])
def test_solve_rejects_non_numeric_field(tmp_path, capsys, make, field, value):
    _one_error(capsys, ["solve", make(tmp_path, **{field: value})], field)


@pytest.mark.parametrize("text,match", [
    ('{"kind": "private", "n": 1, "K": [[1.0]], "Sigma1": [[1.0]], '
     '"lambda": 2.0}', "missing the 'Sigma2' field"),
    ("[1, 2]", "must contain a JSON object"),
    ('{"kind": "mixed", "n": 1}', "'kind' must be"),
], ids=["missing-field", "not-an-object", "unknown-kind"])
def test_solve_rejects_malformed_instance(tmp_path, capsys, text, match):
    path = tmp_path / "bad.json"
    path.write_text(text)
    _one_error(capsys, ["solve", str(path)], match)


def test_solve_json_out_writes_the_stdout_result(tmp_path, capsys):
    argv = ["solve", _case1(tmp_path), "--no-timing"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    out_path = tmp_path / "result.json"
    assert main([*argv, "--json-out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_text() == want


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


@pytest.mark.parametrize("flag", [["--max-iters", "0"], ["--rel-tol", "-1"]])
def test_trace_region_rejects_bad_options_once(tmp_path, capsys, flag):
    # as `gbc solve` does: one error line and exit 1, not a NaN row and a
    # note per lambda with the exit code of an unconverged sweep
    rc = main(["trace-region", _case1(tmp_path), "--lambdas", "2,3", *flag])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.count("error:") == 1
    assert "note:" not in captured.err


def test_trace_region_infeasible_alpha_row(tmp_path, capsys):
    csv_path = tmp_path / "alpha.csv"
    with warnings.catch_warnings():
        # the skipped alpha is reported once, by the note, and no warning escapes
        warnings.simplefilter("error")
        rc = main(["trace-region", _common_fixture(tmp_path), "--alpha-grid",
                   "0.0,0.5", "--csv-out", str(csv_path)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "note: alpha=0 skipped: weight combination infeasible"]
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


def test_trace_region_alpha_notes_without_csv_out(tmp_path, capsys):
    rc = main(["trace-region", _common_fixture(tmp_path), "--alpha-grid",
               "0.75,0.5"])
    captured = capsys.readouterr()
    assert rc == 0
    rows = list(csv.reader(captured.out.splitlines()))
    assert [r[4] for r in rows[1:]] == ["0.75", "0.5"]
    err = captured.err.splitlines()
    assert err[0] == ("note: alpha values were not ascending; output rows "
                      "follow the input order")
    assert len(err) == 2 and err[1].startswith("note: alpha argmin ")


@pytest.mark.parametrize("make,sweep,match", [
    (_common_fixture, ["--lambdas", "2"], "--lambdas requires a private instance"),
    (_case1, ["--alpha-grid", "0.5"], "--alpha-grid requires a common instance"),
    (_case1, ["--lambdas", ","], "lambda list is empty"),
    (_case1, [], "one of the arguments --lambdas --alpha-grid is required"),
    (_case1, ["--lambdas", "2", "--alpha-grid", "0.5"],
     "argument --alpha-grid: not allowed with argument --lambdas"),
], ids=["lambdas-common", "alpha-grid-private", "empty-list", "no-sweep",
        "two-sweeps"])
def test_trace_region_rejects_sweep(tmp_path, capsys, make, sweep, match):
    _one_error(capsys, ["trace-region", make(tmp_path), *sweep], match)


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


@pytest.mark.parametrize("flags,match", [
    (["--n-list", "0"], "every n must be at least 1"),
    (["--n-list", "2", "--seeds", "0"], "seed count must be at least 1"),
    (["--n-list", "2", "--seeds", "1.5"], "could not parse seed list '1.5'"),
    (["--n-list", "2", "--seeds", "1,-2"], "got -2"),
    (["--n-list", "2", "--algorithms", "spg,egba-p"], "'egba-p'"),
    (["--n-list", "2", "--algorithms", ","], "algorithm list is empty"),
    # options are checked before the first cell, not once per cell
    (["--n-list", "2", "--seeds", "2", "--algorithms", "spg", "--max-iters", "0"],
     "max_iters must be a whole number >= 1, got 0"),
], ids=["n-zero", "seed-count-zero", "seed-count-not-integer", "negative-seed",
        "unknown-algorithm", "empty-algorithms", "max-iters-zero"])
def test_bench_rejects_bad_input(capsys, flags, match):
    _one_error(capsys, ["bench", *flags], match)


@pytest.mark.parametrize("argv,match", [
    (["solve", "case.json", "--max-iters", "abc"],
     "argument --max-iters: invalid int value: 'abc'"),
    ([], "required: command"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
], ids=["bad-int-flag", "no-command", "unknown-command"])
def test_usage_errors_take_the_input_error_path(capsys, argv, match):
    # one `error:` line and exit 1, as every input error; no usage block and
    # no exit 2, which means "the solve ran but did not converge"
    _one_error(capsys, argv, match)


def test_bench_invalid_n_list(capsys):
    rc = main(["bench", "--n-list", "two"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1.5", "1e400", "true", "0", "-1"])
def test_solve_rejects_n_that_is_not_a_positive_integer(tmp_path, capsys, value):
    path = tmp_path / "bad_n.json"
    path.write_text(json.dumps({
        "kind": "private", "n": "N", "K": [[2.0]], "Sigma1": [[1.0]],
        "Sigma2": [[3.0]], "lambda": 2.0}).replace('"N"', value))
    rc = main(["solve", str(path)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: n must be")
