import numpy as np
import pytest

from spinrelay.analysis import (
    PowerLawFit,
    SweepTable,
    failure_curves,
    first_iteration_peak,
    iteration_probabilities,
    linear_fit,
    post_failure_distribution,
    powerlaw_fit,
    read_table_csv,
    sweep_first_iteration,
    write_table_csv,
)


def synthesize_powerlaw(amplitude, exponent, x_values):
    """Noiseless power-law table, for fit round-trip checks."""
    rows = [(x, amplitude * x ** (-exponent)) for x in sorted(x_values)]
    return SweepTable("x", rows, "synthetic", {"value": "y"})


def test_table_requires_sorted_unique_keys():
    with pytest.raises(ValueError):
        SweepTable("n", [(3, 1.0), (2, 1.0)], "exact")
    with pytest.raises(ValueError):
        SweepTable("n", [(2, 1.0), (2, 2.0)], "exact")


def test_powerlaw_fit_exact_recovery():
    table = synthesize_powerlaw(2.0, 0.5, range(5, 60, 5))
    fit = powerlaw_fit(table)
    assert fit.amplitude == pytest.approx(2.0, abs=1e-10)
    assert fit.exponent == pytest.approx(0.5, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_powerlaw_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        powerlaw_fit(SweepTable("x", [(1, 1.0), (2, 0.5)], "exact"))
    with pytest.raises(ValueError):
        powerlaw_fit(SweepTable("x", [(1, 1.0), (2, -0.5), (3, 0.1)], "exact"))


def test_linear_fit_exact_line():
    table = SweepTable("x", [(x, 3.0 * x + 1.0) for x in range(1, 8)], "exact")
    slope, intercept, r2 = linear_fit(table)
    assert slope == pytest.approx(3.0, abs=1e-12)
    assert intercept == pytest.approx(1.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    for x, y in table.rows:
        assert abs(y - (slope * x + intercept)) < 1e-12


def test_linear_fit_rejects_degenerate():
    with pytest.raises(ValueError):
        linear_fit(SweepTable("x", [(1, 1.0)], "exact"))
    with pytest.raises(ValueError):
        linear_fit(SweepTable("x", [(2, 1.0), (2.0, 3.0)], "exact"))


def test_sweep_first_iteration_small():
    p_table, t_table = sweep_first_iteration([10, 15, 20], "spectral")
    assert p_table.mode == "spectral"
    times = t_table.values()
    assert np.all(np.diff(times) > 0)
    n20_p = dict(p_table.rows)[20]
    assert abs(n20_p - 0.36) < 0.05


def test_first_iteration_peak_modes_differ():
    t_s, p_s = first_iteration_peak(20, "spectral")
    t_e, p_e = first_iteration_peak(20, "exact")
    assert p_s != pytest.approx(p_e, abs=1e-6)


def test_failure_curves_non_increasing():
    curves = failure_curves([8, 12], 5, "optimized", "spectral")
    for n, table in curves.items():
        vals = table.values()
        assert len(vals) == 5
        assert np.all(np.diff(vals) <= 1e-15)
        assert table.metadata["n_sites"] == n
    with pytest.raises(ValueError):
        failure_curves([8], 0, "optimized", "spectral")


def test_iteration_probabilities_rows():
    table = iteration_probabilities(10, 4, "spectral")
    assert [k for k, _ in table.rows] == [1, 2, 3, 4]
    assert all(0.0 <= p <= 1.0 for _, p in table.rows)


def test_post_failure_distribution_normalized():
    dist = post_failure_distribution(12, "spectral")
    assert dist.shape == (11,)
    assert np.sum(dist) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        post_failure_distribution(2, "spectral")


def test_post_failure_distribution_peaks_at_receiver_end():
    dist = post_failure_distribution(50, "spectral")
    assert int(np.argmax(dist)) + 1 in (48, 49)


def test_sweeps_deterministic():
    a, _ = sweep_first_iteration([10, 14], "spectral")
    b, _ = sweep_first_iteration([10, 14], "spectral")
    assert a.rows == b.rows


def test_csv_roundtrip(tmp_path):
    table = SweepTable(
        "n_sites",
        [(10, 0.123456789012345), (15, 0.5), (20, 1.0 / 3.0)],
        "spectral",
        {"value": "p1", "grid_step": 0.01},
    )
    path = tmp_path / "table.csv"
    write_table_csv(table, path)
    back = read_table_csv(path)
    assert back.parameter == "n_sites"
    assert back.mode == "spectral"
    assert back.metadata["value"] == "p1"
    assert [v for _, v in back.rows] == [v for _, v in table.rows]
    assert [k for k, _ in back.rows] == [10.0, 15.0, 20.0]


def test_powerlaw_fit_type():
    fit = powerlaw_fit(synthesize_powerlaw(1.5, 0.7, [3, 6, 9, 12]))
    assert isinstance(fit, PowerLawFit)
    assert 0.0 <= fit.r_squared <= 1.0
