import numpy as np
import pytest

from spinrelay.cli import ORACLE_TOL
from spinrelay.full_oracle import (
    FullState,
    basis_index,
    build_full_hamiltonian,
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
    evolve,
    initialize,
    run_iterative_protocol,
    success_probability,
)
from spinrelay.sector_dynamics import ChainSpec


def payload3(a1=1.0, a2=0.0):
    a = np.array([a1, a2], dtype=complex)
    return LogicalPayload(d=3, a=a / np.linalg.norm(a))


def test_basis_index_roundtrip():
    spec = ChainSpec(n_sites=4, d=3)
    for labels in ([0, 0, 0, 0], [2, 0, 1, 0], [1, 2, 2, 1]):
        assert site_labels(spec, basis_index(spec, labels)) == labels
    # site 1 is the most significant digit
    assert basis_index(spec, [1, 0, 0, 0]) == 27


def test_full_state_validation():
    with pytest.raises(ValueError):
        FullState(d=3, n_sites=2, amplitudes=np.ones(9))
    with pytest.raises(ValueError):
        FullState(d=3, n_sites=10, amplitudes=np.zeros(3 ** 10))


def test_two_site_spectrum():
    # -J * swap on two 3-level sites: symmetric states at -J, antisymmetric at +J
    h = build_full_hamiltonian(ChainSpec(n_sites=2, d=3, j=1.0))
    w = np.sort(np.linalg.eigvalsh(h.matrix))
    assert np.allclose(w[:6], -1.0, atol=1e-12)
    assert np.allclose(w[6:], 1.0, atol=1e-12)


def test_vacuum_is_eigenstate():
    spec = ChainSpec(n_sites=3, d=3, b_field=0.5)
    h = build_full_hamiltonian(spec)
    v = product_state(spec, [0, 0, 0]).amplitudes
    hv = h.matrix @ v
    # eigenvalue -J(N-1), field term vanishes on all-zero labels
    assert np.max(np.abs(hv - (-2.0) * v)) < 1e-12


def test_hamiltonian_hermitian_and_commutes_with_charges():
    from spinrelay.spin_algebra import conserved_charge

    spec = ChainSpec(n_sites=4, d=3, b_field=0.3)
    h = build_full_hamiltonian(spec).matrix
    assert np.max(np.abs(h - h.conj().T)) < 1e-12
    for m in (1, 2):
        q = conserved_charge(m, spec)
        comm = h * q[None, :] - q[:, None] * h
        assert np.max(np.abs(comm)) < 1e-10


@pytest.mark.parametrize("d,n", [(3, 3), (4, 3), (3, 4)])
def test_swap_sources_agree(d, n):
    spec = ChainSpec(n_sites=n, d=d)
    h1 = build_full_hamiltonian(spec, swap_source="permutation").matrix
    h2 = build_full_hamiltonian(spec, swap_source="decomposition").matrix
    assert np.max(np.abs(h1 - h2)) < 1e-10


def test_unknown_swap_source_rejected():
    with pytest.raises(ValueError):
        build_full_hamiltonian(ChainSpec(n_sites=3), swap_source="magic")


def test_size_guard():
    with pytest.raises(ValueError):
        build_full_hamiltonian(ChainSpec(n_sites=10, d=3))


def test_evolution_preserves_norm_and_charges():
    spec = ChainSpec(n_sites=4, d=3, b_field=0.7)
    h = build_full_hamiltonian(spec)
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
    h = build_full_hamiltonian(spec)
    state = initialize_full(spec, payload3())
    out = evolve_full(state, h, 0.0)
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12


def test_one_particle_block_stays_closed():
    spec = ChainSpec(n_sites=4, d=3)
    h = build_full_hamiltonian(spec)
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
    h = build_full_hamiltonian(spec)
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
        build_full_hamiltonian(spec),
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
    h = build_full_hamiltonian(spec)
    start = product_state(spec, [2, 0, 0, 0])
    target = basis_index(spec, [1, 1, 0, 0])
    for t in (0.5, 2.2, 7.9):
        evolved = evolve_full(start, h, t)
        assert abs(evolved.amplitudes[target]) < 1e-10


def test_receiver_reduced_state_is_density_matrix():
    spec = ChainSpec(n_sites=3, d=3)
    state = evolve_full(
        initialize_full(spec, payload3(0.6, 0.8)),
        build_full_hamiltonian(spec),
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
