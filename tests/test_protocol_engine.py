import itertools

import numpy as np
import pytest

from spinrelay.protocol_engine import (
    LogicalPayload,
    Outcome,
    OutcomeSource,
    PeakCriterion,
    evolve,
    excitation_distribution,
    initialize,
    measure,
    optimize_series,
    optimize_time,
    phase_correction,
    run_iterative_protocol,
    schedule_regular,
    success_probability,
)
from spinrelay.sector_dynamics import ChainSpec, sector_basis


def payload3(a1=1.0, a2=0.0):
    a = np.array([a1, a2], dtype=complex)
    return LogicalPayload(d=3, a=a / np.linalg.norm(a))


def test_payload_validation():
    with pytest.raises(ValueError):
        LogicalPayload(d=3, a=np.array([1.0]))
    with pytest.raises(ValueError):
        LogicalPayload(d=3, a=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        LogicalPayload(d=3, a=[np.nan, 0.0])
    with pytest.raises(ValueError):
        LogicalPayload(d=3, a=[np.inf, 0.0])
    with pytest.raises(ValueError):
        LogicalPayload(d=3.0, a=[1.0, 0.0])


def test_initialize():
    spec = ChainSpec(n_sites=5)
    state = initialize(spec, payload3())
    assert np.allclose(state.spatial, np.eye(5)[0])
    assert state.elapsed == 0.0
    assert state.norm_factor == 1.0
    assert success_probability(state) == 0.0


def test_initialize_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        initialize(ChainSpec(n_sites=5, d=4), payload3())


def test_evolve_zero_time_is_identity():
    spec = ChainSpec(n_sites=6)
    state = initialize(spec, payload3())
    out = evolve(state, 0.0, "exact")
    assert np.max(np.abs(out.spatial - state.spatial)) < 1e-14
    assert out.elapsed == 0.0


def test_evolve_semigroup():
    spec = ChainSpec(n_sites=9)
    state = initialize(spec, payload3())
    a = evolve(evolve(state, 1.1, "exact"), 2.3, "exact")
    b = evolve(state, 3.4, "exact")
    assert np.max(np.abs(a.spatial - b.spatial)) < 1e-10
    assert a.elapsed == pytest.approx(b.elapsed)


def test_evolve_preserves_norm():
    spec = ChainSpec(n_sites=12)
    state = evolve(initialize(spec, payload3()), 5.7, "exact")
    assert np.linalg.norm(state.spatial) == pytest.approx(1.0, abs=1e-10)
    assert np.sum(excitation_distribution(state)) == pytest.approx(1.0, abs=1e-10)


def test_evolve_rejects_negative_time():
    state = initialize(ChainSpec(n_sites=4), payload3())
    with pytest.raises(ValueError):
        evolve(state, -1.0, "exact")


def test_forced_failure_on_fresh_state_is_noop():
    state = initialize(ChainSpec(n_sites=5), payload3())
    outcome, after = measure(state, "F")
    assert outcome is Outcome.FAILURE
    assert np.allclose(after.spatial, state.spatial)
    assert after.norm_factor == 1.0


def test_failure_collapse_distribution():
    # after a failed measurement the remaining sites carry the conditional
    # distribution |c_m|^2 / (1 - P)
    spec = ChainSpec(n_sites=7)
    state = evolve(initialize(spec, payload3()), 4.0, "exact")
    p = success_probability(state)
    before = excitation_distribution(state)
    outcome, after = measure(state, Outcome.FAILURE)
    assert outcome is Outcome.FAILURE
    assert after.spatial[-1] == 0.0
    assert np.linalg.norm(after.spatial) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(
        excitation_distribution(after)[:-1] - before[:-1] / (1.0 - p)
    )) < 1e-12
    assert after.norm_factor == pytest.approx(1.0 - p)


def test_success_collapse_places_payload_at_receiver():
    spec = ChainSpec(n_sites=6)
    state = evolve(initialize(spec, payload3()), 3.0, "exact")
    p = success_probability(state)
    outcome, after = measure(state, "S")
    assert outcome is Outcome.SUCCESS
    assert np.allclose(after.spatial, np.eye(6)[-1])
    assert after.norm_factor == pytest.approx(p)


def test_zero_probability_branches_rejected():
    spec = ChainSpec(n_sites=5)
    fresh = initialize(spec, payload3())
    with pytest.raises(ValueError):
        measure(fresh, "S")
    _, delivered = measure(evolve(fresh, 3.0, "exact"), "S")
    with pytest.raises(ValueError):
        measure(delivered, "F")


def test_sampled_outcomes_match_probability():
    spec = ChainSpec(n_sites=5)
    state = evolve(initialize(spec, payload3()), 3.0, "exact")
    p = success_probability(state)
    rng = np.random.default_rng(7)
    n_trials = 100_000
    hits = sum(
        measure(state, rng)[0] is Outcome.SUCCESS for _ in range(n_trials)
    )
    sigma = np.sqrt(n_trials * p * (1 - p))
    assert abs(hits - n_trials * p) <= 3 * sigma


def test_optimize_series_synthetic_sine():
    ts = np.arange(0.01, 10.0, 0.01)
    pvals = np.sin(ts) ** 2
    res = optimize_series(ts, pvals, PeakCriterion.FIRST_PEAK,
                          lambda t: np.sin(t) ** 2)
    assert abs(res.t - np.pi / 2) <= 0.01
    assert not res.at_endpoint


def test_optimize_series_monotone_reports_endpoint():
    ts = np.arange(0.1, 5.0, 0.1)
    pvals = ts / 10.0
    res = optimize_series(ts, pvals, PeakCriterion.FIRST_PEAK, lambda t: t / 10.0)
    assert res.at_endpoint
    assert res.t == pytest.approx(ts[-1])


def test_optimize_time_refinement_beats_grid():
    spec = ChainSpec(n_sites=10)
    state = initialize(spec, payload3())
    coarse = optimize_time(state, (0.0, 20.0), 0.05, "first-peak", "exact")
    fine = optimize_time(state, (0.0, 20.0), 0.002, "first-peak", "exact")
    assert abs(coarse.t - fine.t) < 0.05
    assert abs(coarse.p - fine.p) < 1e-4


def test_optimize_time_validates_window():
    state = initialize(ChainSpec(n_sites=5), payload3())
    with pytest.raises(ValueError):
        optimize_time(state, (3.0, 3.0), 0.01, "first-peak", "exact")
    with pytest.raises(ValueError):
        optimize_time(state, (0.0, 5.0), -0.01, "first-peak", "exact")


def test_global_max_within_window():
    spec = ChainSpec(n_sites=12)
    state = evolve(initialize(spec, payload3()), 6.0, "spectral")
    _, state = measure(state, "F")
    res = optimize_time(state, (0.0, 10.0), 0.01, "global-max", "spectral")
    assert 0.0 < res.t <= 10.0
    assert res.p > 0.0


def test_cascade_records_and_failure_product():
    spec = ChainSpec(n_sites=10)
    result = run_iterative_protocol(
        spec, payload3(), max_iter=5, mode="spectral", outcome_source="FFFFF"
    )
    assert len(result.records) == 5
    assert all(r.outcome is Outcome.FORCED for r in result.records)
    prod = 1.0
    for r, pf in zip(result.records, result.p_fail_cumulative):
        prod *= 1.0 - r.p_k
        assert pf == pytest.approx(prod, abs=1e-12)
        assert r.window[0] <= r.t_k <= r.window[1] + 1e-12
    diffs = np.diff(result.p_fail_cumulative)
    assert np.all(diffs <= 1e-15)
    assert result.total_time == pytest.approx(sum(r.t_k for r in result.records))
    assert not result.corrected


def test_later_iterations_respect_window():
    result = run_iterative_protocol(
        ChainSpec(n_sites=30), payload3(), max_iter=6, mode="spectral",
        outcome_source="F" * 6,
    )
    for r in result.records[1:]:
        assert r.t_k <= 10.0 + 1e-9


def test_seeded_runs_reproducible():
    spec = ChainSpec(n_sites=8)
    a = run_iterative_protocol(spec, payload3(), max_iter=6, outcome_source=3)
    b = run_iterative_protocol(spec, payload3(), max_iter=6, outcome_source=3)
    assert [(r.t_k, r.p_k, r.outcome) for r in a.records] == [
        (r.t_k, r.p_k, r.outcome) for r in b.records
    ]


def test_success_delivers_corrected_payload():
    spec = ChainSpec(n_sites=4, b_field=1.3)
    pay = payload3(1.0, 1.0j)
    result = run_iterative_protocol(
        spec, pay, max_iter=4, mode="exact", outcome_source="FS"
    )
    assert len(result.records) == 2
    assert result.corrected
    assert np.max(np.abs(result.delivered_payload.a - pay.a)) < 1e-12
    assert result.final_state.spatial[-1] == 1.0


def test_payload_independence_small():
    spec = ChainSpec(n_sites=8)
    rng = np.random.default_rng(0)
    seqs = []
    for _ in range(3):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        pay = LogicalPayload(d=3, a=a / np.linalg.norm(a))
        result = run_iterative_protocol(
            spec, pay, max_iter=4, mode="spectral", outcome_source="FFFF"
        )
        seqs.append([(r.t_k, r.p_k) for r in result.records])
    for seq in seqs[1:]:
        for (t0, p0), (t1, p1) in zip(seqs[0], seq):
            assert abs(t0 - t1) <= 1e-12
            assert abs(p0 - p1) <= 1e-12


def literal_failure_probabilities(f_list, n):
    """Path-sum evaluation of the iterated failure probabilities: sum the
    transfer amplitudes over all intermediate non-receiver sites."""
    probs = []
    fail_prod = 1.0
    k = len(f_list)
    for steps in range(1, k + 1):
        amp = 0.0j
        for path in itertools.product(range(n - 1), repeat=steps - 1):
            chain = (0,) + path + (n - 1,)
            term = 1.0 + 0.0j
            for j in range(steps):
                term *= f_list[j][chain[j + 1], chain[j]]
            amp += term
        p = abs(amp) ** 2 / fail_prod
        probs.append(p)
        fail_prod *= 1.0 - p
    return probs


@pytest.mark.parametrize("mode", ["exact", "spectral"])
def test_iterated_engine_matches_path_sum(mode):
    n = 4
    spec = ChainSpec(n_sites=n)
    times = [2.1, 0.9, 3.3]
    basis = sector_basis(spec, mode)
    f_list = [basis.f_matrix(t) for t in times]
    expected = literal_failure_probabilities(f_list, n)
    state = initialize(spec, payload3())
    got = []
    for t in times:
        state = evolve(state, t, mode)
        got.append(success_probability(state))
        _, state = measure(state, "F")
    assert np.max(np.abs(np.array(got) - np.array(expected))) < 1e-10


def test_schedule_regular():
    assert schedule_regular(2.5, 1) == 2.5
    assert schedule_regular(2.5, 3) == 12.5
    with pytest.raises(ValueError):
        schedule_regular(2.5, 0)


def test_regular_strategy_monotone_failure():
    result = run_iterative_protocol(
        ChainSpec(n_sites=12), payload3(), strategy="regular", max_iter=6,
        mode="spectral", outcome_source="F" * 6,
    )
    assert np.all(np.diff(result.p_fail_cumulative) <= 1e-15)
    t1 = result.records[0].t_k
    for r in result.records[1:]:
        assert r.t_k == pytest.approx((2 * r.k - 1) * t1)


def test_optimized_beats_regular_schedule():
    spec = ChainSpec(n_sites=20)
    opt = run_iterative_protocol(
        spec, payload3(), max_iter=8, mode="spectral", outcome_source="F" * 8
    )
    reg = run_iterative_protocol(
        spec, payload3(), strategy="regular", max_iter=8, mode="spectral",
        outcome_source="F" * 8,
    )
    assert opt.p_fail < reg.p_fail


def test_phase_correction_roundtrip():
    pay = payload3(0.6, 0.8j)
    assert np.allclose(phase_correction(pay, 0.0, 12.0).a, pay.a)
    b, t = 0.9, 7.3
    mu = np.arange(1, 3)
    dephased = LogicalPayload(d=3, a=pay.a * np.exp(-1j * mu * b * t))
    restored = phase_correction(dephased, b, t)
    assert np.max(np.abs(restored.a - pay.a)) < 1e-14


def test_outcome_source_script_validation():
    with pytest.raises(ValueError):
        OutcomeSource(script="FX")
    src = OutcomeSource(script="sf", seed=1)
    assert src.pick(1) == ("S", True)
    assert src.pick(2) == ("F", True)
    picked, scripted = src.pick(3)
    assert not scripted


def test_strategy_validation():
    with pytest.raises(ValueError):
        run_iterative_protocol(
            ChainSpec(n_sites=5), payload3(), strategy="nope", max_iter=1
        )
    with pytest.raises(ValueError):
        run_iterative_protocol(ChainSpec(n_sites=5), payload3(), max_iter=0)
