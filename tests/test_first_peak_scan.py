"""The first-peak scan that stops at the first peak.

optimize_time evaluates a FirstPeak window block by block and stops once
the first peak is decided. Its result must equal (==) the search over the
whole window, which these tests compute with optimize_series on the full
grid, and it must fall back to that search whenever the stop could
differ from it.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinrelay import protocol_engine as pe
from spinrelay.kernels import probability_series
from spinrelay.protocol_engine import (
    FIRST_PEAK_BLOCK,
    PEAK_FLOOR_ABS,
    PEAK_FLOOR_REL,
    PeakCriterion,
    SectorState,
    initialize,
    optimize_series,
    optimize_time,
    scan_first_peak,
)
from spinrelay.sector_dynamics import ChainSpec


def whole_window_search(state, window, grid_step, mode):
    """FirstPeak over every grid point of the window, as optimize_time
    builds the grid."""
    t_min, t_max = window
    n = int(np.floor((t_max - t_min) / grid_step + 1e-9))
    ts = t_min + grid_step * np.arange(1, n + 1)
    weights, basis = pe._receiver_mode_weights(state, mode)

    def evaluate(t):
        return probability_series(weights, basis.freqs, np.array([t]))[0]

    pvals = probability_series(weights, basis.freqs, ts)
    return optimize_series(ts, pvals, PeakCriterion.FIRST_PEAK, evaluate)


class Recorded:
    """A series that records the length of every block it is asked for."""

    def __init__(self, fn):
        self.fn = fn
        self.blocks = []

    def __call__(self, times):
        self.blocks.append(len(times))
        return self.fn(times)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(
    n=st.integers(2, 400),
    grid_step=st.floats(0.005, 0.05),
    mode=st.sampled_from(["exact", "spectral"]),
)
def test_early_stop_equals_whole_window_property(n, grid_step, mode):
    state = initialize(ChainSpec(n_sites=n), None)
    window = (0.0, 2.0 * n)
    got = optimize_time(state, window, grid_step, PeakCriterion.FIRST_PEAK,
                        mode)
    assert got == whole_window_search(state, window, grid_step, mode)


def grid_calls(monkeypatch):
    """Lengths of the kernel calls optimize_time makes from now on."""
    lengths = []

    def counted(weights, freqs, times):
        lengths.append(len(times))
        return probability_series(weights, freqs, times)

    monkeypatch.setattr(pe, "probability_series", counted)
    return lengths


@pytest.mark.parametrize("n", [25, 100, 300])
@pytest.mark.parametrize("mode", ["exact", "spectral"])
def test_early_stop_ends_in_the_block_of_the_peak(n, mode, monkeypatch):
    calls = grid_calls(monkeypatch)
    state = initialize(ChainSpec(n_sites=n), None)
    res = optimize_time(state, (0.0, 2.0 * n), 0.01,
                        PeakCriterion.FIRST_PEAK, mode)
    grid, refine = calls[:-1], calls[-1]
    assert refine == 1
    assert all(size == FIRST_PEAK_BLOCK for size in grid)
    # the peak (within a step of the refined time) or its right neighbour
    # lies in the last block
    assert (len(grid) - 1) * FIRST_PEAK_BLOCK <= res.t / 0.01 + 2
    assert res.t / 0.01 <= len(grid) * FIRST_PEAK_BLOCK
    assert sum(grid) < 200 * n


# an early bump at t = 10.24, which is grid index 1023, so its right
# neighbour opens the second block; the main peak of height `main` at t=30
TS = 0.01 * np.arange(1, 5001)


def bumped(main, bump):
    def series(t):
        return (main * np.exp(-(t - 30.0) ** 2 / 0.5)
                + bump * np.exp(-(t - 10.24) ** 2 / 0.05))
    return series


@pytest.mark.parametrize("main, bump, first_peak, stops", [
    # above the bound's floor: accepted at once
    (1.0, 1e-4, 10.24, True),
    # between PEAK_FLOOR_ABS and PEAK_FLOOR_REL * bound, below the window
    # maximum's floor (1e-6 * 1.0): the fallback skips it
    (1.0, 1e-8, 30.0, False),
    # in the same band, but above the window maximum's floor (1e-6 * 1e-2):
    # the fallback keeps it as the first peak
    (1e-2, 1e-7, 10.24, False),
    # below PEAK_FLOOR_ABS: ripple, never a decision
    (1.0, 1e-13, 30.0, True),
])
def test_scan_matches_whole_series(main, bump, first_peak, stops):
    fn = bumped(main, bump)
    series = Recorded(fn)
    got = scan_first_peak(TS, series, 1.0, fn)
    assert got == optimize_series(TS, fn(TS), PeakCriterion.FIRST_PEAK, fn)
    assert got.t == pytest.approx(first_peak, abs=1e-3)
    assert not got.at_endpoint
    assert min(series.blocks) > 1
    if stops:
        assert sum(series.blocks) < len(TS)
    else:
        assert sum(series.blocks) == len(TS)


def test_fallback_band_is_set_by_the_bound():
    # with bound = 1e-2 the bump of 1e-7 clears the bound's floor (1e-8):
    # the scan accepts it without evaluating the rest of the window
    fn = bumped(1e-2, 1e-7)
    series = Recorded(fn)
    got = scan_first_peak(TS, series, 1e-2, fn)
    assert got.t == pytest.approx(10.24, abs=1e-3)
    assert sum(series.blocks) == 2 * FIRST_PEAK_BLOCK


@pytest.mark.parametrize("n_points", [3, 4, FIRST_PEAK_BLOCK + 1,
                                      2 * FIRST_PEAK_BLOCK + 1, 5000])
def test_no_interior_peak_reports_the_endpoint(n_points):
    ts = 0.01 * np.arange(1, n_points + 1)

    def fn(t):
        return t / 100.0

    series = Recorded(fn)
    got = scan_first_peak(ts, series, 1.0, fn)
    assert got == optimize_series(ts, fn(ts), PeakCriterion.FIRST_PEAK, fn)
    assert got.at_endpoint and got.t == ts[-1]
    assert sum(series.blocks) == n_points
    # a one-point grid call would count as a refinement
    assert min(series.blocks) > 1


@pytest.mark.parametrize("eps2, first_peak", [(1e-8, 16.27), (1e-6, 1.1)])
def test_chain_with_an_early_bump_takes_the_fallback(eps2, first_peak,
                                                     monkeypatch):
    # a weight eps2 next to the receiver rings there at Jt ~ 1.1 with
    # P ~ 0.47 eps2, between PEAK_FLOOR_ABS and PEAK_FLOOR_REL times the
    # bound (~1); the window maximum is ~0.22, so the bump is ripple for
    # eps2 = 1e-8 and the first peak for eps2 = 1e-6
    n = 30
    c = np.zeros(n, dtype=complex)
    c[0], c[n - 2] = np.sqrt(1.0 - eps2), np.sqrt(eps2)
    state = SectorState(ChainSpec(n_sites=n), c, 0.0, None)
    window = (0.0, 2.0 * n)
    expected = whole_window_search(state, window, 0.01, "exact")
    calls = grid_calls(monkeypatch)
    got = optimize_time(state, window, 0.01, PeakCriterion.FIRST_PEAK,
                        "exact")
    assert got == expected
    assert got.t == pytest.approx(first_peak, abs=0.01)
    assert sum(calls[:-1]) == 200 * n  # the whole window
    if first_peak < 2.0:
        assert PEAK_FLOOR_ABS < got.p < PEAK_FLOOR_REL


# Large-N referee. The exact chain's amplitude from the sender to the
# receiver is, by images on the mirrored ring of 2N sites,
#   2 i^N (J_N(2Jt) - i J_N'(2Jt)) + O(J_{3N-1}),
# so its first peak sits where J_N' first vanishes, 2Jt1 = j'_{N,1}, with
# P1 = 4 J_N(j'_{N,1})^2. The uniform expansions of j'_{nu,1} and of
# J_nu there (Abramowitz & Stegun 9.5, DLMF 10.21(viii)) give
#   (Jt1 - N/2) / N^(1/3) = 0.4043083 + 0.0362450 N^(-2/3) - ...,
#   P1 N^(2/3) = 1.8218796 (1 - 0.16172 N^(-2/3) + ...)^2,
# the leading terms being the Bessel-Airy law Jt1 ~ N/2 + 0.4043 N^(1/3)
# and P1 ~ 1.822 N^(-2/3).
AIRY_OFFSET = 0.4043083
AIRY_P1 = 1.8218796


def test_first_step_follows_the_bessel_airy_law():
    start = time.perf_counter()
    sizes = (200, 400, 800)
    steps = [pe.cascade(n, 1.0, "exact").step(1) for n in sizes]
    elapsed = time.perf_counter() - start
    offsets, scaled = [], []
    for n, step in zip(sizes, steps):
        offset = (step.t_k - n / 2) / n ** (1 / 3)
        p1n = step.optimum.p * n ** (2 / 3)
        offsets.append(offset)
        scaled.append(p1n)
        # leading term: the next one adds 0.0362 N^(-2/3), at most 1.06e-3
        # at N = 200
        assert abs(offset - AIRY_OFFSET) <= 1.5e-3
        # two terms: the next one is -0.0255 N^(-4/3), 2.2e-5 at N = 200;
        # the grid and the parabolic refinement add under 1e-5
        assert abs(offset - (AIRY_OFFSET + 0.036245 * n ** (-2 / 3))) <= 5e-5
        # two terms again: the omitted N^(-4/3) terms add up to about
        # 1.5e-4 at N = 200
        two_term = AIRY_P1 * (1.0 - 0.16172 * n ** (-2 / 3)) ** 2
        assert abs(p1n - two_term) <= 3e-4
    assert scaled[0] < scaled[1] < scaled[2] < 1.822
    print(f"\nBessel-Airy referee: offsets {np.round(offsets, 5)}, "
          f"P1 N^(2/3) {np.round(scaled, 5)} ({elapsed:.2f} s)")
