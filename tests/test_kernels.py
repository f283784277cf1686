import numpy as np
import pytest

from spinrelay import kernels
from spinrelay.sector_dynamics import ChainSpec, sector_basis


def _random_inputs(n_modes, n_times, seed):
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
    freqs = rng.normal(size=n_modes) * 3.0
    times = rng.uniform(0.0, 50.0, size=n_times)
    return weights, freqs, times


def test_probability_matches_square_of_amplitude():
    # with the receiver-row mode weights, the series is |F(t)[N, 1]|^2 of
    # the propagator itself
    spec = ChainSpec(n_sites=11)
    for mode in ("exact", "spectral"):
        basis = sector_basis(spec, mode)
        weights = basis.vectors[-1, :] * basis.vectors[0, :]
        times = np.linspace(0.0, 30.0, 200)
        prob = kernels.probability_series(weights, basis.freqs, times)
        ref = np.array([abs(basis.f_matrix(t)[-1, 0]) ** 2 for t in times])
        assert np.max(np.abs(prob - ref)) < 1e-12


def test_direct_reference_sum():
    weights, freqs, times = _random_inputs(5, 17, seed=4)
    ref = np.array(
        [abs(np.sum(weights * np.exp(-1j * freqs * t))) ** 2 for t in times]
    )
    got = kernels.probability_series(weights, freqs, times)
    assert np.max(np.abs(got - ref)) < 1e-12


def test_empty_and_single_time():
    weights, freqs, _ = _random_inputs(4, 1, seed=5)
    empty = kernels.probability_series(weights, freqs, np.array([]))
    assert empty.shape == (0,)
    one = kernels.probability_series(weights, freqs, np.array([0.0]))
    assert one[0] == pytest.approx(np.abs(np.sum(weights)) ** 2, abs=1e-12)


def test_chunking_boundary():
    # lengths straddling the internal chunk size must not change results
    n = kernels._CHUNK
    for nt in (n - 1, n, n + 1, 2 * n + 1):
        weights, freqs, times = _random_inputs(3, nt, seed=nt)
        p = kernels.probability_series(weights, freqs, times)
        ref = np.abs(np.exp(-1j * np.outer(times, freqs)) @ weights) ** 2
        assert np.max(np.abs(p - ref)) < 1e-12
