"""The cached all-failure cascade and the protocol replay over it.

The replay must reproduce, bit for bit, a step loop that re-optimizes
every run from the public optimize_time, evolve and measure, and it must
consume exactly the uniform draws that loop consumes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinrelay import protocol_engine as pe
from spinrelay.analysis import (
    failure_curves,
    first_iteration_peak,
    iteration_probabilities,
    post_failure_distribution,
)
from spinrelay.protocol_engine import (
    DEFAULT_GRID_STEP,
    LATER_WINDOW_JT,
    IterationRecord,
    LogicalPayload,
    Outcome,
    OutcomeSource,
    PeakCriterion,
    ProtocolResult,
    evolve,
    initialize,
    measure,
    optimize_time,
    run_iterative_protocol,
    schedule_regular,
    success_probability,
)
from spinrelay.sector_dynamics import ChainSpec, PropagatorMode

MAX_ITER = 10
SCRIPTS = ["", "F", "FFS", "SF", "F" * MAX_ITER]
FIELDS = [(3, 0.0), (5, 0.8), (3, 0.8), (5, 0.0)]


def reference_run(spec, payload, strategy, max_iter, mode, source,
                  grid_step, later_window_jt):
    """Evolve-measure loop that searches every step afresh."""
    state = initialize(spec, payload)
    j = spec.j
    records, p_fail_cumulative = [], []
    fail_product, total_time = 1.0, 0.0
    success = False
    t1 = None
    for k in range(1, max_iter + 1):
        if k == 1:
            window = (0.0, 2.0 * spec.n_sites / j)
            t_k = optimize_time(state, window, grid_step / j,
                                PeakCriterion.FIRST_PEAK, mode).t
            t1 = t_k
        elif strategy == "optimized":
            window = (0.0, later_window_jt / j)
            t_k = optimize_time(state, window, grid_step / j,
                                PeakCriterion.GLOBAL_MAX, mode).t
        else:
            t_k = schedule_regular(t1, k)
            window = (t_k, t_k)
        state = evolve(state, t_k, mode)
        p_k = success_probability(state)
        forced, scripted = source.pick(k)
        branch, state = measure(state, forced if scripted else source.rng)
        records.append(IterationRecord(
            k=k, t_k=t_k, p_k=p_k,
            outcome=Outcome.FORCED if scripted else branch, window=window,
        ))
        fail_product *= 1.0 - p_k
        p_fail_cumulative.append(fail_product)
        total_time += t_k
        success = branch is Outcome.SUCCESS
        if success:
            break
    return ProtocolResult(
        records=records, p_fail_cumulative=p_fail_cumulative,
        total_time=total_time, corrected=success, final_state=state,
        delivered_payload=payload if success else None,
    )


def _outcome(fn, spec, payload, strategy, max_iter, mode, source,
             grid_step, later_window_jt):
    """Every compared field of a run, or the error it raised."""
    try:
        r = fn(spec, payload, strategy, max_iter, mode, source, grid_step,
               later_window_jt)
    except ValueError as exc:
        return ("raised", str(exc))
    s = r.final_state
    return (r.records, r.p_fail_cumulative, r.total_time, r.corrected,
            s.spatial.tolist(), s.elapsed, s.norm_factor, s.spec, s.payload,
            r.delivered_payload)


def _random_payload(d, seed):
    rng = np.random.default_rng([seed, d])
    a = rng.normal(size=d - 1) + 1j * rng.normal(size=d - 1)
    return LogicalPayload(d=d, a=a / np.linalg.norm(a))


def _assert_replay_matches(n, d, b, mode, strategy, script, seed, max_iter,
                           grid_step, later_window_jt):
    spec = ChainSpec(n_sites=n, d=d, b_field=b)
    payload = _random_payload(d, seed)
    ref_source = OutcomeSource(script, seed=seed)
    new_source = OutcomeSource(script, seed=seed)
    args = (strategy, max_iter, mode)
    ref = _outcome(reference_run, spec, payload, *args, ref_source,
                   grid_step, later_window_jt)
    got = _outcome(run_iterative_protocol, spec, payload, *args, new_source,
                   grid_step, later_window_jt)
    assert got == ref, (n, d, b, mode, strategy, script, seed)
    if got[0] != "raised":
        # both clocks are left-to-right sums of the same t_k from 0.0
        assert got[5] == got[2], (n, d, b, mode, strategy, script, seed)
        if got[3]:
            assert got[-1] is payload
    # the generators are at the same point: no extra draw was consumed
    assert new_source.rng.random() == ref_source.rng.random()


def _equivalence_cases():
    cases = []
    seed = 0
    configs = [
        (n, mode, strategy, DEFAULT_GRID_STEP, LATER_WINDOW_JT)
        for n in (2, 3, 7, 25, 100)
        for mode in ("exact", "spectral")
        for strategy in ("optimized", "regular")
    ]
    configs += [
        (25, "exact", "optimized", 0.02, LATER_WINDOW_JT),
        (25, "spectral", "optimized", DEFAULT_GRID_STEP, 6.0),
    ]
    for i, (n, mode, strategy, grid_step, window) in enumerate(configs):
        d, b = FIELDS[i % len(FIELDS)]
        n_seeds = 3 if n == 100 else 12
        cases.append(pytest.param(
            n, d, b, mode, strategy, grid_step, window,
            list(range(seed, seed + n_seeds)),
            id=f"n{n}-{mode}-{strategy}-g{grid_step}-w{window}-d{d}-b{b}",
        ))
        seed += n_seeds
    assert seed >= 200
    return cases


@pytest.mark.parametrize(
    "n, d, b, mode, strategy, grid_step, window, seeds", _equivalence_cases()
)
def test_replay_equals_reference_loop(n, d, b, mode, strategy, grid_step,
                                      window, seeds):
    for seed in seeds:
        for script in SCRIPTS:
            _assert_replay_matches(n, d, b, mode, strategy, script, seed,
                                   MAX_ITER, grid_step, window)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    n=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
    script=st.text(alphabet="SF", max_size=6),
    mode=st.sampled_from(["exact", "spectral"]),
    strategy=st.sampled_from(["optimized", "regular"]),
    max_iter=st.integers(1, 8),
    field=st.sampled_from(FIELDS),
)
def test_replay_equals_reference_property(n, seed, script, mode, strategy,
                                          max_iter, field):
    d, b = field
    _assert_replay_matches(n, d, b, mode, strategy, script, seed, max_iter,
                           DEFAULT_GRID_STEP, LATER_WINDOW_JT)


@pytest.fixture
def fresh_cache():
    pe._cascade.cache_clear()
    yield
    pe._cascade.cache_clear()


@pytest.fixture
def optimizer_calls(monkeypatch):
    calls = []
    original = pe.optimize_time

    def counted(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(pe, "optimize_time", counted)
    return calls


def test_runs_differing_in_d_b_payload_share_one_build(fresh_cache,
                                                       optimizer_calls):
    runs = [
        (ChainSpec(n_sites=12, d=3), "exact"),
        (ChainSpec(n_sites=12, d=5, b_field=0.8),
         PropagatorMode.EXACT_DIAGONALIZATION),
        (ChainSpec(n_sites=12, d=4, b_field=1.3), "exact"),
    ]
    seqs = []
    for i, (spec, mode) in enumerate(runs):
        result = run_iterative_protocol(
            spec, _random_payload(spec.d, i), max_iter=4, mode=mode,
            outcome_source="FFFF",
        )
        seqs.append([(r.t_k, r.p_k) for r in result.records])
    assert seqs[0] == seqs[1] == seqs[2]
    assert len(optimizer_calls) == 4
    assert pe._cascade.cache_info().misses == 1


def test_analysis_products_share_one_build(fresh_cache, optimizer_calls):
    t1, _ = first_iteration_peak(20, "spectral")
    post_failure_distribution(20, "spectral")
    table = iteration_probabilities(20, 6, "spectral")
    curves = failure_curves([20], 6, "optimized", "spectral")
    assert len(optimizer_calls) == 6
    assert pe._cascade.cache_info().misses == 1
    assert table.rows[0][0] == 1
    assert len(curves[20].rows) == 6
    sampled = run_iterative_protocol(
        ChainSpec(n_sites=20), None, max_iter=6, mode="spectral",
        outcome_source=5,
    )
    assert sampled.records[0].t_k == t1
    assert len(optimizer_calls) == 6


def test_cached_and_returned_arrays_cannot_change_later_results(fresh_cache):
    spec = ChainSpec(n_sites=9)
    failed = run_iterative_protocol(spec, None, max_iter=2,
                                    outcome_source="FF")
    with pytest.raises(ValueError):
        failed.final_state.spatial[0] = 1.0
    step = pe.cascade(9, 1.0, "exact").step(1)
    with pytest.raises(ValueError):
        step.failed.spatial[:] = 0.0

    delivered = run_iterative_protocol(spec, None, max_iter=3,
                                       outcome_source="FS")
    delivered.final_state.spatial[:] = 7.0
    again = run_iterative_protocol(spec, None, max_iter=3,
                                   outcome_source="FS")
    assert again.final_state.spatial.tolist() == np.eye(9)[-1].tolist()

    dist = post_failure_distribution(9, "exact")
    expected = dist.tolist()
    dist[:] = 0.0
    assert post_failure_distribution(9, "exact").tolist() == expected
    assert run_iterative_protocol(
        spec, None, max_iter=2, outcome_source="FF"
    ).final_state.spatial.tolist() == failed.final_state.spatial.tolist()


@pytest.mark.parametrize("p, script", [(0.0, "S"), (1.0, "F")])
def test_forced_zero_probability_branch_rejected(fresh_cache, monkeypatch,
                                                 p, script):
    monkeypatch.setattr(pe, "success_probability", lambda state: p)
    with pytest.raises(ValueError, match="zero-probability"):
        run_iterative_protocol(ChainSpec(n_sites=5), None, max_iter=3,
                               outcome_source=script)
    # the sampled branch never takes the impossible outcome
    result = run_iterative_protocol(ChainSpec(n_sites=5), None, max_iter=3,
                                    outcome_source=0)
    expected = Outcome.SUCCESS if p == 1.0 else Outcome.FAILURE
    assert [r.outcome for r in result.records] == [expected] * len(
        result.records)
    assert len(result.records) == (1 if p == 1.0 else 3)


def test_cascade_key_rejects_non_finite_search_settings():
    with pytest.raises(ValueError):
        pe.cascade(5, 1.0, "exact", grid_step=float("nan"))
    with pytest.raises(ValueError):
        pe.cascade(5, 1.0, "exact", later_window_jt=float("inf"))
    with pytest.raises(ValueError):
        pe.cascade(5, float("nan"), "exact")
