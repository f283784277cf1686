import json

import numpy as np
import pytest

from spinrelay.analysis import read_table_csv
from spinrelay.cli import main


def _run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_simulate_json(capsys):
    rc, out, err = _run(
        capsys, "simulate", "--n", "8", "--max-iter", "3",
        "--mode", "spectral", "--force", "FFF",
    )
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["config"]["n"] == 8
    assert doc["config"]["subcommand"] == "simulate"
    recs = doc["results"]["records"]
    assert len(recs) == 3
    assert all(r["outcome"] == "forced" for r in recs)
    assert doc["results"]["p_fail"] == pytest.approx(
        np.prod([1.0 - r["p_k"] for r in recs]), abs=1e-12
    )


def test_simulate_csv_preamble(tmp_path, capsys):
    path = tmp_path / "run.csv"
    rc, out, _ = _run(
        capsys, "simulate", "--n", "6", "--max-iter", "2", "--force", "FF",
        "--format", "csv", "--out", str(path),
    )
    assert rc == 0
    text = path.read_text()
    head = [ln for ln in text.splitlines() if ln.startswith("# ")]
    assert any("n = 6" in ln for ln in head)
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert body[0].split(",")[:3] == ["k", "t_k", "p_k"]
    assert len(body) == 3  # header + 2 iterations


def test_simulate_replay_deterministic(capsys):
    args = ["simulate", "--n", "9", "--max-iter", "5", "--seed", "42"]
    rc1, out1, _ = _run(capsys, *args)
    rc2, out2, _ = _run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_simulate_script_then_sampling(capsys):
    # two forced failures, remaining three sampled from the seeded stream
    rc, out, _ = _run(
        capsys, "simulate", "--n", "7", "--max-iter", "5",
        "--force", "FF", "--seed", "3",
    )
    assert rc == 0
    recs = json.loads(out)["results"]["records"]
    assert [r["outcome"] for r in recs[:2]] == ["forced", "forced"]
    assert all(r["outcome"] in ("success", "failure") for r in recs[2:])


def test_sweep_and_fit_pipeline(tmp_path, capsys):
    rc, out, _ = _run(
        capsys, "sweep", "--mode", "spectral",
        "--n-min", "10", "--n-max", "30", "--n-step", "5",
        "--dist-n", "12", "--iter-n", "10", "--cascade-n", "10",
        "--k-max", "3", "--out-dir", str(tmp_path),
    )
    assert rc == 0
    written = json.loads(out)["written"]
    names = {p.rsplit("/", 1)[-1] for p in written}
    assert "first_iteration_probability.csv" in names
    assert "first_iteration_time.csv" in names
    assert "post_failure_distribution_n12.csv" in names
    assert "iteration_probabilities_n10.csv" in names
    assert "failure_curves_n10.csv" in names
    for path in written:
        table = read_table_csv(path)
        assert len(table.rows) > 0, path
        assert all(np.isfinite(v) for _, v in table.rows), path

    rc, out, _ = _run(
        capsys, "fit", "--kind", "powerlaw",
        "--input", str(tmp_path / "first_iteration_probability.csv"),
    )
    assert rc == 0
    fit = json.loads(out)["results"]
    assert fit["r_squared"] > 0.99
    assert fit["exponent"] > 0  # decay convention: value = A * x**(-exponent)

    rc, out, _ = _run(
        capsys, "fit", "--kind", "linear",
        "--input", str(tmp_path / "first_iteration_time.csv"),
    )
    assert rc == 0
    lin = json.loads(out)["results"]
    assert lin["slope"] > 0 and lin["r_squared"] > 0.99


def test_oracle_check_passes(capsys):
    rc, out, _ = _run(
        capsys, "oracle-check", "--n", "4", "--d", "3", "--b", "0.7",
        "--trials", "2", "--k-max", "3",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["results"]["passed"] is True
    assert all(doc["results"]["checks"].values())


def test_swap_coefficients_d3(capsys):
    rc, out, _ = _run(capsys, "swap-coefficients", "--d", "3")
    assert rc == 0
    res = json.loads(out)["results"]
    assert res["b"] == pytest.approx([-1.0, 1.0, 1.0], abs=1e-10)
    assert res["residual"] < 1e-10


def test_propagator_series(tmp_path, capsys):
    path = tmp_path / "series.csv"
    rc, _, _ = _run(
        capsys, "propagator", "--n", "5", "--mode", "exact",
        "--t-max", "4.0", "--grid-step", "0.5", "--out", str(path),
    )
    assert rc == 0
    body = [ln for ln in path.read_text().splitlines()
            if ln and not ln.startswith("#")]
    assert body[0] == "jt,probability"
    rows = [ln.split(",") for ln in body[1:]]
    assert len(rows) == 8
    assert float(rows[0][0]) == pytest.approx(0.5)
    assert all(0.0 <= float(p) <= 1.0 for _, p in rows)


def test_distribution_sums_to_one(capsys):
    rc, out, _ = _run(capsys, "distribution", "--n", "10",
                      "--mode", "spectral")
    assert rc == 0
    body = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    vals = [float(ln.split(",")[1]) for ln in body[1:]]
    assert len(vals) == 9
    assert sum(vals) == pytest.approx(1.0, abs=1e-10)


def test_invalid_parameter_exits_2(capsys):
    rc, out, err = _run(capsys, "simulate", "--n", "1", "--max-iter", "2")
    assert rc == 2
    assert out == ""
    assert "error" in json.loads(err.strip())


@pytest.mark.parametrize("flag, value", [("--j", "nan"), ("--b", "inf")])
def test_non_finite_chain_parameter_exits_2(capsys, flag, value):
    rc, out, err = _run(capsys, "simulate", "--n", "5", flag, value,
                        "--max-iter", "2")
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "finite" in json.loads(err)["error"]


def test_bad_force_script_exits_2(capsys):
    rc, _, err = _run(
        capsys, "simulate", "--n", "5", "--max-iter", "2", "--force", "SX"
    )
    assert rc == 2
    assert "error" in json.loads(err.strip())


def test_unknown_subcommand_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_fit_input_exits_2(tmp_path, capsys):
    rc, _, err = _run(
        capsys, "fit", "--input", str(tmp_path / "nope.csv")
    )
    assert rc == 2
    assert "error" in json.loads(err.strip())
