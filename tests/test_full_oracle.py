import json

import numpy as np
import pytest

from spinrelay.cli import ORACLE_TOL
from spinrelay.full_oracle import (
    SERIES_TOL,
    ChainOperator,
    FullState,
    basis_index,
    bessel_series,
    charge_expectation,
    cross_validate,
    delivered_payload_deviation,
    embed_payload,
    evolve_full,
    fidelity,
    initialize_full,
    measure_full,
    occupancy_probability,
    one_particle_amplitudes,
    one_particle_consistency,
    product_state,
    random_payload,
    receiver_reduced_state,
    run_full_protocol,
    site_labels,
)
from spinrelay.protocol_engine import (
    LogicalPayload,
    Outcome,
    cascade,
    evolve,
    initialize,
    run_iterative_protocol,
    success_probability,
)
from spinrelay.sector_dynamics import ChainSpec
from spinrelay.spin_algebra import (
    SIZE_GUARD,
    build_swap_operator,
    conserved_charge,
    solve_swap_coefficients,
    swap_from_decomposition,
)


def payload3(a1=1.0, a2=0.0):
    a = np.array([a1, a2], dtype=complex)
    return LogicalPayload(d=3, a=a / np.linalg.norm(a))


def kron_hamiltonian(spec, swap_source):
    """Dense reference H = -J sum_k 1 (x) P2 (x) 1 + B diag(Q1), assembled
    from Kronecker products; small chains only."""
    assert spec.d ** spec.n_sites <= 625
    if swap_source == "permutation":
        p2 = build_swap_operator(spec.d)
    else:
        p2 = swap_from_decomposition(solve_swap_coefficients(spec.d)).real
    h = np.diag(spec.b_field * conserved_charge(1, spec))
    for bond in range(spec.n_sites - 1):
        left = np.eye(spec.d ** bond)
        right = np.eye(spec.d ** (spec.n_sites - bond - 2))
        h -= spec.j * np.kron(np.kron(left, p2), right)
    return h


def operator_matrix(h):
    """The matrix of a ChainOperator, one applied basis vector per column."""
    eye = np.eye(h.diagonal.size, dtype=complex)
    return np.column_stack([h.apply(e) for e in eye])


def random_state(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def test_basis_index_roundtrip():
    spec = ChainSpec(n_sites=4, d=3)
    for labels in ([0, 0, 0, 0], [2, 0, 1, 0], [1, 2, 2, 1]):
        assert site_labels(spec, basis_index(spec, labels)) == labels
    # site 1 is the most significant digit
    assert basis_index(spec, [1, 0, 0, 0]) == 27


def test_full_state_validation():
    with pytest.raises(ValueError):
        FullState(d=3, n_sites=2, amplitudes=np.ones(9))
    # a normalized state, so that only the size guard can reject it
    above = np.zeros(3 ** 13)
    above[0] = 1.0
    assert 3 ** 13 > SIZE_GUARD
    with pytest.raises(ValueError, match="size guard"):
        FullState(d=3, n_sites=13, amplitudes=above)


def test_two_site_spectrum():
    # -J * swap on two 3-level sites: symmetric states at -J, antisymmetric at +J
    h = ChainOperator(ChainSpec(n_sites=2, d=3, j=1.0))
    w = np.sort(np.linalg.eigvalsh(operator_matrix(h)))
    assert np.allclose(w[:6], -1.0, atol=1e-12)
    assert np.allclose(w[6:], 1.0, atol=1e-12)


def test_vacuum_is_eigenstate():
    spec = ChainSpec(n_sites=3, d=3, b_field=0.5)
    h = ChainOperator(spec)
    v = product_state(spec, [0, 0, 0]).amplitudes
    hv = h.apply(v)
    # eigenvalue -J(N-1), field term vanishes on all-zero labels
    assert np.max(np.abs(hv - (-2.0) * v)) < 1e-12


def test_hamiltonian_hermitian_and_commutes_with_charges():
    spec = ChainSpec(n_sites=4, d=3, b_field=0.3)
    h = operator_matrix(ChainOperator(spec))
    assert np.max(np.abs(h - h.conj().T)) < 1e-12
    for m in (1, 2):
        q = conserved_charge(m, spec)
        comm = h * q[None, :] - q[:, None] * h
        assert np.max(np.abs(comm)) < 1e-10


@pytest.mark.parametrize("d,n", [(3, 3), (4, 3), (3, 4)])
def test_swap_sources_agree(d, n):
    spec = ChainSpec(n_sites=n, d=d)
    h1 = operator_matrix(ChainOperator(spec, swap_source="permutation"))
    h2 = operator_matrix(ChainOperator(spec, swap_source="decomposition"))
    assert np.max(np.abs(h1 - h2)) < 1e-10


def test_unknown_swap_source_rejected():
    with pytest.raises(ValueError):
        ChainOperator(ChainSpec(n_sites=3), swap_source="magic")


def test_size_guard():
    assert SIZE_GUARD == 3 ** 12
    assert ChainOperator(ChainSpec(n_sites=12, d=3)).diagonal.size == 3 ** 12
    with pytest.raises(ValueError, match="size guard"):
        ChainOperator(ChainSpec(n_sites=13, d=3))


def test_evolution_preserves_norm_and_charges():
    spec = ChainSpec(n_sites=4, d=3, b_field=0.7)
    h = ChainOperator(spec)
    state = initialize_full(spec, payload3(0.8, 0.6))
    q0 = [charge_expectation(state, m, spec) for m in (1, 2)]
    for t in (0.9, 3.4, 11.0):
        evolved = evolve_full(state, h, t)
        assert np.linalg.norm(evolved.amplitudes) == pytest.approx(1.0, abs=1e-10)
        for m, q in zip((1, 2), q0):
            assert charge_expectation(evolved, m, spec) == pytest.approx(
                q, abs=1e-10
            )


def test_zero_time_evolution_identity():
    spec = ChainSpec(n_sites=3, d=3)
    h = ChainOperator(spec)
    state = initialize_full(spec, payload3())
    out = evolve_full(state, h, 0.0)
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12


def test_one_particle_block_stays_closed():
    spec = ChainSpec(n_sites=4, d=3)
    h = ChainOperator(spec)
    state = initialize_full(spec, payload3(0.6, 0.8))
    evolved = evolve_full(state, h, 5.3)
    amp = evolved.amplitudes.copy()
    for mu in (1, 2):
        idx = [
            basis_index(spec, [0] * k + [mu] + [0] * (3 - k)) for k in range(4)
        ]
        amp[idx] = 0.0
    assert np.max(np.abs(amp)) < 1e-10


def test_measure_full_deterministic_branches():
    spec = ChainSpec(n_sites=3, d=3)
    excited = product_state(spec, [0, 0, 2])
    outcome, after = measure_full(excited, 3, "S")
    assert outcome is Outcome.SUCCESS
    assert np.max(np.abs(after.amplitudes - excited.amplitudes)) < 1e-12
    vacuum = product_state(spec, [0, 0, 0])
    with pytest.raises(ValueError):
        measure_full(vacuum, 2, "S")
    outcome, after = measure_full(vacuum, 2, "F")
    assert outcome is Outcome.FAILURE
    with pytest.raises(ValueError):
        measure_full(excited, 3, "F")


def test_success_probability_matches_sector_engine():
    spec = ChainSpec(n_sites=5, d=3)
    h = ChainOperator(spec)
    pay = payload3(0.6, 0.8j)
    full = evolve_full(initialize_full(spec, pay), h, 4.2)
    sec = evolve(initialize(spec, pay), 4.2, "exact")
    assert occupancy_probability(full, 5) == pytest.approx(
        success_probability(sec), abs=1e-8
    )
    # per-site distributions agree too
    for site in range(1, 6):
        assert occupancy_probability(full, site) == pytest.approx(
            abs(sec.spatial[site - 1]) ** 2, abs=1e-8
        )


def test_sector_amplitudes_match_up_to_constant_phase():
    # the engine drops the constant -J(N-3) from the sector matrix, so the
    # full-space amplitudes differ by exactly that global phase
    spec = ChainSpec(n_sites=5, d=3)
    t = 3.7
    full = evolve_full(
        initialize_full(spec, payload3()),
        ChainOperator(spec),
        t,
    )
    sec = evolve(initialize(spec, payload3()), t, "exact")
    phase = np.exp(-1j * spec.j * (spec.n_sites - 3) * t)
    assert np.max(np.abs(
        one_particle_amplitudes(full, mu=1) * phase - sec.spatial
    )) < 1e-10


def test_end_to_end_delivery_fidelity():
    spec = ChainSpec(n_sites=4, d=3)
    pay = LogicalPayload(d=3, a=np.array([1.0, 1.0j]) / np.sqrt(2.0))
    engine = run_iterative_protocol(
        spec, pay, max_iter=1, mode="exact", outcome_source="S"
    )
    t1 = engine.records[0].t_k
    oracle = run_full_protocol(spec, pay, [(t1, "S")])
    assert oracle.probabilities[0] == pytest.approx(
        engine.records[0].p_k, abs=1e-8
    )
    assert fidelity(oracle.receiver_rho, embed_payload(pay)) == pytest.approx(
        1.0, abs=1e-8
    )


def test_field_requires_phase_correction():
    spec = ChainSpec(n_sites=4, d=3, b_field=1.0)
    pay = LogicalPayload(d=3, a=np.array([1.0, 1.0j]) / np.sqrt(2.0))
    engine = run_iterative_protocol(
        spec, pay, max_iter=1, mode="exact", outcome_source="S"
    )
    t1 = engine.records[0].t_k
    oracle = run_full_protocol(spec, pay, [(t1, "S")])
    bare = fidelity(oracle.receiver_rho, embed_payload(pay))
    assert bare < 1.0 - 1e-3
    rotated = embed_payload(pay) * np.exp(-1j * np.arange(3) * 1.0 * t1)
    assert fidelity(oracle.receiver_rho, rotated) == pytest.approx(
        1.0, abs=1e-8
    )
    # single-level payloads only pick up a global phase
    single = run_full_protocol(spec, payload3(), [(t1, "S")])
    assert fidelity(single.receiver_rho, embed_payload(payload3())) == (
        pytest.approx(1.0, abs=1e-8)
    )


def test_sector_mixing_forbidden():
    # |2,0,0,0> and |1,1,0,0> share total label sum but not the quadratic
    # charge, so no amplitude may leak between them
    spec = ChainSpec(n_sites=4, d=3)
    h = ChainOperator(spec)
    start = product_state(spec, [2, 0, 0, 0])
    target = basis_index(spec, [1, 1, 0, 0])
    for t in (0.5, 2.2, 7.9):
        evolved = evolve_full(start, h, t)
        assert abs(evolved.amplitudes[target]) < 1e-10


def test_receiver_reduced_state_is_density_matrix():
    spec = ChainSpec(n_sites=3, d=3)
    state = evolve_full(
        initialize_full(spec, payload3(0.6, 0.8)),
        ChainOperator(spec),
        2.0,
    )
    rho = receiver_reduced_state(state)
    assert rho.shape == (3, 3)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_one_particle_restriction_matches_sector_matrix(n):
    assert one_particle_consistency(ChainSpec(n_sites=n, d=3)) < 1e-12
    assert one_particle_consistency(
        ChainSpec(n_sites=n, d=3, b_field=0.8), mu=2
    ) < 1e-12


def test_cross_validate_small_chain():
    report = cross_validate(
        ChainSpec(n_sites=4, d=3, b_field=0.6), n_trials=3, k_max=3, seed=1
    )
    for key in (
        "swap_source_deviation", "one_particle_restriction",
        "probability_deviation", "distribution_deviation",
        "success_probability_deviation", "delivered_payload_deviation",
    ):
        assert report[key] <= 1e-8, key
    assert report["charge_drift"] <= 1e-10
    assert report["sector_closure"] <= 1e-10
    assert report["sector_mixing"] <= 1e-10
    assert report["norm_drift"] <= 1e-10
    assert report["propagation_matvecs"] > 0
    assert report["corrected_fidelity"] >= 1.0 - 1e-8
    assert report["uncorrected_fidelity"] < 1.0


def test_delivered_payload_deviation_detects_a_wrong_correction_time():
    spec = ChainSpec(n_sites=5, d=3, b_field=0.8)
    payload = random_payload(3, np.random.default_rng(2))
    engine = run_iterative_protocol(spec, payload, max_iter=1,
                                    outcome_source="S")
    oracle = run_full_protocol(spec, payload, [(engine.total_time, "S")])
    right = delivered_payload_deviation(oracle.receiver_rho, payload, 0.8,
                                        engine.total_time)
    wrong = delivered_payload_deviation(oracle.receiver_rho, payload, 0.8,
                                        engine.total_time + 0.1)
    assert right <= ORACLE_TOL
    assert wrong > ORACLE_TOL


def test_random_payload_normalized():
    rng = np.random.default_rng(5)
    for d in (3, 4):
        pay = random_payload(d, rng)
        assert np.linalg.norm(pay.a) == pytest.approx(1.0, abs=1e-12)


SMALL_CHAINS = [(3, 2), (3, 3), (3, 4), (4, 3), (4, 4), (5, 3), (5, 4)]


@pytest.mark.parametrize("d,n", SMALL_CHAINS)
@pytest.mark.parametrize("swap_source", ["permutation", "decomposition"])
@pytest.mark.parametrize("b", [0.0, 0.8])
def test_apply_matches_kron_reference(d, n, swap_source, b):
    spec = ChainSpec(n_sites=n, d=d, b_field=b)
    h = ChainOperator(spec, swap_source=swap_source)
    ref = kron_hamiltonian(spec, swap_source)
    assert np.max(np.abs(operator_matrix(h) - ref)) <= 1e-12
    w = np.linalg.eigvalsh(ref)
    assert h.lo <= w[0] + 1e-12 and w[-1] <= h.hi + 1e-12


@pytest.mark.parametrize("d,n", SMALL_CHAINS)
@pytest.mark.parametrize("swap_source", ["permutation", "decomposition"])
@pytest.mark.parametrize("b", [0.0, 0.8])
def test_propagator_matches_eigh_reference(d, n, swap_source, b):
    spec = ChainSpec(n_sites=n, d=d, b_field=b)
    h = ChainOperator(spec, swap_source=swap_source)
    w, u = np.linalg.eigh(kron_hamiltonian(spec, swap_source))
    psi = random_state(d ** n, np.random.default_rng(d * 10 + n))
    assert np.max(np.abs(h.propagate(psi, 0.0) - psi)) <= 1e-15
    for t in (0.7, 5.3, 21.0):
        ref = u @ (np.exp(-1j * w * t) * (u.conj().T @ psi))
        assert np.max(np.abs(h.propagate(psi, t) - ref)) <= 1e-12, t
    assert h.norm_drift <= 1e-12
    assert h.matvecs > 0


def test_bessel_series_reproduces_plane_wave():
    # J_0 + 2 sum_k (-i)^k J_k(tau) T_k(x) = exp(-i x tau) on [-1, 1]
    assert bessel_series(0.0).tolist() == [1.0]
    c = bessel_series(1.0)
    assert c[0] == pytest.approx(0.7651976865579666, abs=1e-15)
    assert c[1] == pytest.approx(0.44005058574493355, abs=1e-15)
    x = np.linspace(-1.0, 1.0, 101)
    for tau in (1e-9, 0.3, 7.0, 55.5, 244.0, 1500.0):
        c = bessel_series(tau)
        assert abs(c[-1]) > SERIES_TOL
        k = np.arange(len(c))
        weights = np.where(k == 0, 1.0, 2.0) * (-1j) ** (k % 4) * c
        series = np.cos(np.outer(np.arccos(x), k)) @ weights
        # the reference phases x*tau and k*arccos(x) round to ~tau*eps
        tol = 1e-15 * max(tau, 100.0)
        assert np.max(np.abs(series - np.exp(-1j * x * tau))) <= tol, tau


def test_norm_drift_check_fails_for_a_non_unitary_series(monkeypatch,
                                                         capsys):
    from spinrelay import full_oracle
    from spinrelay.cli import main

    exact = full_oracle.bessel_series
    monkeypatch.setattr(full_oracle, "bessel_series",
                        lambda tau: exact(tau) * (1.0 + 1e-9))
    rc = main(["oracle-check", "--n", "4", "--d", "3", "--trials", "1",
               "--k-max", "1"])
    results = json.loads(capsys.readouterr().out)["results"]
    assert rc == 1
    assert results["norm_drift"] == pytest.approx(1e-9, rel=1e-3)
    assert results["checks"]["norm_drift"] is False


@pytest.mark.parametrize("n", [8, 9])
def test_oracle_replays_published_cascade(n):
    """The engine's forced all-failure cascade, replayed through the full
    3^N dynamics: every p_k and the cumulative P_fail agree to 1e-10.

    Only the `exact` chain is the oracle's chain (swap bonds, -J at both
    end sites of the sector matrix); `spectral` is a different chain.
    """
    spec = ChainSpec(n_sites=n, d=3, b_field=0.8)
    steps = [cascade(n, 1.0, "exact").step(k) for k in range(1, 5)]
    payload = random_payload(3, np.random.default_rng(n))
    oracle = run_full_protocol(spec, payload, [(s.t_k, "F") for s in steps])
    engine = run_iterative_protocol(spec, payload, max_iter=4, mode="exact",
                                    outcome_source="FFFF")
    p_oracle = np.array(oracle.probabilities)
    assert np.max(np.abs(p_oracle - [s.p_k for s in steps])) <= 1e-10
    assert np.max(np.abs(
        np.cumprod(1.0 - p_oracle) - engine.p_fail_cumulative
    )) <= 1e-10
    assert oracle.norm_drift <= 1e-10


def test_payload_independence_in_dense_dynamics():
    """Criterion 04 where the payload enters the dynamics: ten random
    payloads run through the full d^N evolution along the engine's
    schedule, and their p_k spread stays at rounding level.

    The S.S polynomial (swap_source 'decomposition') is evolved, so a
    wrong swap coefficient makes p_k depend on the payload's levels.
    """
    worst = 0.0
    for d in (3, 4):
        for n in (5, 6):
            spec = ChainSpec(n_sites=n, d=d, b_field=0.8)
            schedule = [(cascade(n, 1.0, "exact").step(k).t_k, "F")
                        for k in range(1, 6)]
            rng = np.random.default_rng(7)
            runs = np.array([
                run_full_protocol(spec, random_payload(d, rng), schedule,
                                  swap_source="decomposition").probabilities
                for _ in range(10)
            ])
            worst = max(worst, float(np.max(np.abs(runs - runs[0]))))
    assert worst <= 1e-12
