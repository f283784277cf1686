"""Brute-force d^N simulator used as ground truth for the sector engine.

States are full complex vectors in the lexicographic product basis (site 1
most significant), viewed as (d,)*N tensors. The Hamiltonian is never
formed as a matrix: ``ChainOperator`` applies each two-site swap straight
from its definition (``np.swapaxes`` of two tensor axes) or from the S.S
polynomial, and ``evolve_full`` propagates with the Chebyshev series of
exp(-iHt) (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967 (1984)), so the
oracle shares no step with the sector reduction it checks.
"""

from dataclasses import dataclass

import numpy as np

from . import protocol_engine as pe
from .protocol_engine import LogicalPayload, Outcome, decide_branch
from .sector_dynamics import ChainSpec, build_one_particle_hamiltonian
from .spin_algebra import (
    SIZE_GUARD,
    build_swap_operator,
    conserved_charge,
    solve_swap_coefficients,
    swap_from_decomposition,
)

# Chebyshev coefficients below this are dropped; each multiplies a vector
# of norm <= 1, so the truncation error sits below double rounding
SERIES_TOL = 1e-18


@dataclass
class FullState:
    d: int
    n_sites: int
    amplitudes: np.ndarray

    def __post_init__(self):
        dim = self.d ** self.n_sites
        if dim > SIZE_GUARD:
            raise ValueError(f"dimension {dim} exceeds size guard {SIZE_GUARD}")
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (dim,):
            raise ValueError(f"need {dim} amplitudes, got {amp.shape}")
        if abs(np.linalg.norm(amp) - 1.0) > 1e-10:
            raise ValueError("state must be normalized")
        self.amplitudes = amp

    def _with(self, amplitudes):
        """State produced by the dynamics: its norm is reported as drift by
        the operator that made it, not rejected."""
        out = object.__new__(FullState)
        out.d, out.n_sites, out.amplitudes = self.d, self.n_sites, amplitudes
        return out


def bessel_series(tau):
    """J_0(tau), ..., J_K(tau) for tau >= 0, cut after the last |J_k| above
    SERIES_TOL.

    Miller's backward recurrence J_{k-1} = (2k/tau) J_k - J_{k+1}, started
    well beyond the cut and normalized with J_0 + 2 sum_k J_2k = 1.
    """
    if tau < SERIES_TOL:
        return np.ones(1)
    # J_start < 1e-58 for every tau, so the recurrence has settled on J_k
    # long before the cut
    start = int(tau + 25.0 * tau ** (1.0 / 3.0)) + 20
    j = np.zeros(start + 2)
    j[start] = 1.0
    for k in range(start, 0, -1):
        j[k - 1] = (2.0 * k / tau) * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e200:
            j[k - 1:] *= 1e-200
    j /= j[0] + 2.0 * np.sum(j[2::2])
    return j[: np.flatnonzero(np.abs(j) > SERIES_TOL)[-1] + 1]


class ChainOperator:
    """H = -J sum_k swap(k, k+1) + B sum_k S^z_k, site labels as S^z values,
    applied to state vectors without forming a matrix.

    swap_source 'permutation' swaps two tensor axes; 'decomposition' applies
    the d^2 x d^2 S.S polynomial of solve_swap_coefficients to each bond, an
    independent construction of the same operator. The spectrum lies in
    [lo, hi]: (N-1) times the range of -J times the bond eigenvalues, plus
    the range of the field diagonal. The operator counts its H applications
    in propagations and the largest norm drift of the states it propagated.
    """

    def __init__(self, spec: ChainSpec, swap_source="permutation"):
        if swap_source == "permutation":
            bond = build_swap_operator(spec.d)
        elif swap_source == "decomposition":
            bond = swap_from_decomposition(solve_swap_coefficients(spec.d))
            if np.max(np.abs(bond.imag)) > 1e-10:
                raise ArithmeticError("decomposition produced a non-real swap")
            bond = bond.real
        else:
            raise ValueError(f"unknown swap source {swap_source!r}")
        self.spec = spec
        self.swap_source = swap_source
        self.bond = bond
        self.diagonal = spec.b_field * conserved_charge(1, spec)
        levels = -spec.j * np.linalg.eigvalsh(bond)
        n_bonds = spec.n_sites - 1
        self.lo = n_bonds * levels.min() + self.diagonal.min()
        self.hi = n_bonds * levels.max() + self.diagonal.max()
        self.matvecs = 0
        self.norm_drift = 0.0

    def apply(self, amplitudes):
        """H times a state vector of d^N amplitudes."""
        n, d = self.spec.n_sites, self.spec.d
        if self.swap_source == "permutation":
            psi = amplitudes.reshape((d,) * n)
            hop = np.swapaxes(psi, 0, 1).copy()
            for k in range(1, n - 1):
                hop += np.swapaxes(psi, k, k + 1)
        else:
            hop = np.zeros_like(amplitudes)
            for k in range(n - 1):
                shape = (d ** k, d * d, d ** (n - k - 2))
                hop += (self.bond @ amplitudes.reshape(shape)).reshape(-1)
        hop = hop.reshape(-1)
        hop *= -self.spec.j
        hop += self.diagonal * amplitudes
        return hop

    def propagate(self, amplitudes, t):
        """exp(-iHt) times a state vector, as the Chebyshev series
        e^{-iat} [J_0(rt) + 2 sum_k (-i)^k J_k(rt) T_k((H - a)/r)] with
        a and r the centre and half-width of [lo, hi]."""
        if t < 0:
            raise ValueError(f"need t >= 0, got {t}")
        centre = 0.5 * (self.hi + self.lo)
        radius = 0.5 * (self.hi - self.lo)
        c = bessel_series(radius * t)
        coef = 2.0 * c * np.array([1.0, -1j, -1.0, 1j])[np.arange(len(c)) % 4]
        self.matvecs += len(c) - 1
        out = c[0] * amplitudes
        prev, cur = None, amplitudes
        for k in range(1, len(c)):
            # T_k = 2 X T_{k-1} - T_{k-2} with X = (H - a) / r, T_1 = X
            nxt = self.apply(cur)
            nxt -= centre * cur
            if prev is None:
                nxt /= radius
            else:
                nxt *= 2.0 / radius
                nxt -= prev
            out += coef[k] * nxt
            prev, cur = cur, nxt
        out *= np.exp(-1j * centre * t)
        self.norm_drift = max(
            self.norm_drift, abs(float(np.linalg.norm(out)) - 1.0)
        )
        return out


def basis_index(spec: ChainSpec, labels):
    """Lexicographic index of the product state with the given site labels."""
    if len(labels) != spec.n_sites:
        raise ValueError("one label per site required")
    idx = 0
    for mu in labels:
        if not 0 <= mu < spec.d:
            raise ValueError(f"label {mu} outside 0..{spec.d - 1}")
        idx = idx * spec.d + mu
    return idx


def product_state(spec: ChainSpec, labels):
    dim = spec.d ** spec.n_sites
    amp = np.zeros(dim, dtype=complex)
    amp[basis_index(spec, labels)] = 1.0
    return FullState(d=spec.d, n_sites=spec.n_sites, amplitudes=amp)


def initialize_full(spec: ChainSpec, payload: LogicalPayload):
    """Payload encoded at the sender, all other sites in level 0."""
    if payload.d != spec.d:
        raise ValueError("payload dimension does not match chain d")
    dim = spec.d ** spec.n_sites
    amp = np.zeros(dim, dtype=complex)
    for mu in range(1, spec.d):
        labels = [mu] + [0] * (spec.n_sites - 1)
        amp[basis_index(spec, labels)] = payload.a[mu - 1]
    return FullState(d=spec.d, n_sites=spec.n_sites, amplitudes=amp)


def evolve_full(state: FullState, h: ChainOperator, t):
    return state._with(h.propagate(state.amplitudes, t))


def _site_digits(state: FullState, site):
    idx = np.arange(state.d ** state.n_sites)
    return (idx // state.d ** (state.n_sites - site)) % state.d


def occupancy_probability(state: FullState, site):
    """Probability that the given site (1-based) is in a nonzero level."""
    digits = _site_digits(state, site)
    return float(np.sum(np.abs(state.amplitudes[digits != 0]) ** 2))


def measure_full(state: FullState, site, outcome_source):
    """Projective nonzero-level measurement at a site, mirroring the sector
    engine's measure()."""
    if not 1 <= site <= state.n_sites:
        raise ValueError(f"site {site} outside 1..{state.n_sites}")
    p = min(max(occupancy_probability(state, site), 0.0), 1.0)
    digits = _site_digits(state, site)
    amp = state.amplitudes.copy()
    if decide_branch(outcome_source, p):
        amp[digits == 0] = 0.0
        amp /= np.sqrt(p)
        outcome = Outcome.SUCCESS
    else:
        amp[digits != 0] = 0.0
        if p > 0.0:
            amp /= np.sqrt(1.0 - p)
        outcome = Outcome.FAILURE
    return outcome, state._with(amp)


def charge_expectation(state: FullState, charge):
    """<Q> for a charge given as its diagonal (see conserved_charge)."""
    return float(np.sum(charge * np.abs(state.amplitudes) ** 2))


def receiver_reduced_state(state: FullState):
    """Reduced density matrix of site N by partial trace over sites 1..N-1."""
    a = state.amplitudes.reshape(state.d ** (state.n_sites - 1), state.d)
    return a.T @ a.conj()


def embed_payload(payload: LogicalPayload):
    """Payload as a level-basis vector (zero amplitude on level 0)."""
    v = np.zeros(payload.d, dtype=complex)
    v[1:] = payload.a
    return v


def fidelity(rho, vec):
    """<v|rho|v> for a pure comparison state."""
    return float(np.real(np.conj(vec) @ rho @ vec))


def delivered_payload_deviation(rho, payload: LogicalPayload, b_field,
                                total_time):
    """Max deviation between the sent payload and the one read off the
    receiver's reduced state and phase-corrected for total_time.

    The level amplitudes are the leading eigenvector of rho; the global
    phase, which includes the dropped sector constant, is removed before
    comparing.
    """
    _, vectors = np.linalg.eigh(rho)
    arrived = vectors[1:, -1] / np.linalg.norm(vectors[1:, -1])
    corrected = pe.phase_correction(
        LogicalPayload(d=payload.d, a=arrived), b_field, total_time
    ).a
    overlap = np.vdot(corrected, payload.a)
    corrected = corrected * (overlap / abs(overlap))
    return float(np.max(np.abs(corrected - payload.a)))


@dataclass
class FullProtocolResult:
    probabilities: list
    outcomes: list
    total_time: float
    receiver_rho: np.ndarray  # None unless the run ended in success
    final_state: FullState
    norm_drift: float  # max |norm - 1| after a propagation
    matvecs: int  # H applications made by the propagations


def run_full_protocol(spec: ChainSpec, payload: LogicalPayload, schedule,
                      swap_source="permutation"):
    """Replay a schedule of (t_k, 'S'/'F') steps without sector reduction.

    Evolution times come from the sector engine's optimizer; this oracle
    only validates that the full-space dynamics deliver the same
    probabilities and, on success, the payload at the receiver.
    """
    h = ChainOperator(spec, swap_source=swap_source)
    state = initialize_full(spec, payload)
    probabilities = []
    outcomes = []
    total_time = 0.0
    rho = None
    for t_k, forced in schedule:
        state = evolve_full(state, h, t_k)
        total_time += t_k
        probabilities.append(occupancy_probability(state, spec.n_sites))
        outcome, state = measure_full(state, spec.n_sites, forced)
        outcomes.append(outcome)
        if outcome is Outcome.SUCCESS:
            rho = receiver_reduced_state(state)
            break
    return FullProtocolResult(
        probabilities=probabilities,
        outcomes=outcomes,
        total_time=total_time,
        receiver_rho=rho,
        final_state=state,
        norm_drift=h.norm_drift,
        matvecs=h.matvecs,
    )


def random_payload(d, rng):
    a = rng.normal(size=d - 1) + 1j * rng.normal(size=d - 1)
    return LogicalPayload(d=d, a=a / np.linalg.norm(a))


def cross_validate(spec: ChainSpec, n_trials=5, k_max=4, seed=0,
                   mode="exact"):
    """Compare the sector engine against the full oracle on one chain.

    Runs random payloads through random all-failure schedules plus one
    optimized success-branch delivery, and checks the two swap sources,
    charge conservation, sector closure and mixing, and receiver fidelity.
    Returns a dict of named max deviations (all should sit at rounding
    level), plus the propagator's own numerics: norm_drift, the max
    |norm - 1| after any propagation, and propagation_matvecs, the H
    applications they made.
    """
    rng = np.random.default_rng(seed)
    h_perm = ChainOperator(spec, swap_source="permutation")
    h_dec = ChainOperator(spec, swap_source="decomposition")
    # its own generator, so the trial payloads and times do not depend on it
    probe = np.random.default_rng([seed, 1]).normal(
        size=(2, h_perm.diagonal.size)
    )
    probe = (probe[0] + 1j * probe[1]) / np.linalg.norm(probe)
    report = {
        "swap_source_deviation": max(
            float(np.max(np.abs(h_perm.bond - h_dec.bond))),
            float(np.max(np.abs(h_perm.apply(probe) - h_dec.apply(probe)))),
        ),
        "one_particle_restriction": one_particle_consistency(spec),
    }
    # dropped sector constant and field phase make the oracle and engine
    # amplitudes differ by e^{-i(mu B + offset) T} per level; probabilities
    # and per-site distributions are phase-free and compared directly
    charges = [conserved_charge(m, spec) for m in range(1, spec.d)]
    prob_dev = 0.0
    dist_dev = 0.0
    charge_dev = 0.0
    for _ in range(n_trials):
        payload = random_payload(spec.d, rng)
        times = rng.uniform(0.5, 10.0 / spec.j, size=k_max)
        schedule = [(float(t), "F") for t in times]
        state_full = initialize_full(spec, payload)
        state_sec = pe.initialize(spec, payload)
        q0 = [charge_expectation(state_full, q) for q in charges]
        for t_k, forced in schedule:
            state_full = evolve_full(state_full, h_perm, t_k)
            state_sec = pe.evolve(state_sec, t_k, mode)
            p_full = occupancy_probability(state_full, spec.n_sites)
            p_sec = pe.success_probability(state_sec)
            prob_dev = max(prob_dev, abs(p_full - p_sec))
            full_dist = np.array([
                occupancy_probability(state_full, k)
                for k in range(1, spec.n_sites + 1)
            ])
            dist_dev = max(
                dist_dev,
                float(np.max(np.abs(
                    full_dist - pe.excitation_distribution(state_sec)
                ))),
            )
            for q, base in zip(charges, q0):
                charge_dev = max(
                    charge_dev, abs(charge_expectation(state_full, q) - base)
                )
            _, state_full = measure_full(
                state_full, spec.n_sites, forced
            )
            _, state_sec = pe.measure(state_sec, forced)
    report["probability_deviation"] = prob_dev
    report["distribution_deviation"] = dist_dev
    report["charge_drift"] = charge_dev
    # |2,0,...> evolved with the S.S polynomial must stay among the N
    # level-2 one-excitation states (closure) and never reach |1,1,0,...>
    # (mixing). Axis swaps only move amplitudes, so they could break
    # neither; a wrong polynomial coefficient breaks both
    start = product_state(spec, [2] + [0] * (spec.n_sites - 1))
    sector = one_particle_indices(spec, 2)
    target = basis_index(spec, [1, 1] + [0] * (spec.n_sites - 2))
    closure = 0.0
    mixing = 0.0
    for t in np.linspace(0.3, 3.0 * spec.n_sites / spec.j, 7):
        evolved = evolve_full(start, h_dec, float(t)).amplitudes
        mixing = max(mixing, abs(evolved[target]))
        outside = evolved.copy()
        outside[sector] = 0.0
        closure = max(closure, float(np.max(np.abs(outside))))
    report["sector_closure"] = closure
    # success branch: deliver at the first peak, check receiver fidelity
    payload = random_payload(spec.d, rng)
    engine = pe.run_iterative_protocol(
        spec, payload, max_iter=1, mode=mode, outcome_source="S"
    )
    t1 = engine.records[0].t_k
    oracle = run_full_protocol(spec, payload, [(t1, "S")])
    prob_dev_s = abs(oracle.probabilities[0] - engine.records[0].p_k)
    report["success_probability_deviation"] = float(prob_dev_s)
    # the receiver physically holds a_mu e^{-i mu B T}; comparing against
    # the bare payload shows the field damage, comparing against the
    # phase-rotated payload is equivalent to applying the correction
    report["uncorrected_fidelity"] = fidelity(
        oracle.receiver_rho, embed_payload(payload)
    )
    rotated = embed_payload(payload) * np.exp(
        -1j * np.arange(spec.d) * spec.b_field * t1
    )
    report["corrected_fidelity"] = fidelity(oracle.receiver_rho, rotated)
    report["delivered_payload_deviation"] = delivered_payload_deviation(
        oracle.receiver_rho, payload, spec.b_field,
        engine.total_time,
    )
    report["sector_mixing"] = float(mixing)
    report["norm_drift"] = max(
        h_perm.norm_drift, h_dec.norm_drift, oracle.norm_drift
    )
    report["propagation_matvecs"] = (
        h_perm.matvecs + h_dec.matvecs + oracle.matvecs
    )
    return report


def one_particle_indices(spec: ChainSpec, mu=1):
    """Basis indices of the N states with a single level-mu excitation."""
    return [
        basis_index(spec, [0] * k + [mu] + [0] * (spec.n_sites - 1 - k))
        for k in range(spec.n_sites)
    ]


def restrict_to_one_particle(h: ChainOperator, mu=1):
    """Matrix elements of the full Hamiltonian between the N states with a
    single level-mu excitation, from H applied to each of them; equals the
    sector matrix up to the dropped constant -J(N-3) plus the field offset
    mu*B."""
    idx = one_particle_indices(h.spec, mu)
    columns = []
    for i in idx:
        e = np.zeros(h.diagonal.size, dtype=complex)
        e[i] = 1.0
        columns.append(h.apply(e)[idx])
    return np.column_stack(columns)


def sector_matrix_offset(spec: ChainSpec, mu=1):
    """Constant by which the oracle restriction exceeds the sector matrix."""
    return mu * spec.b_field - spec.j * (spec.n_sites - 3)


def one_particle_consistency(spec: ChainSpec, mu=1):
    """Max elementwise deviation between the oracle restriction and the
    sector matrix after removing the constant offset."""
    restricted = restrict_to_one_particle(ChainOperator(spec), mu=mu)
    sector = build_one_particle_hamiltonian(spec)
    offset = sector_matrix_offset(spec, mu=mu)
    return float(
        np.max(np.abs(restricted - offset * np.eye(spec.n_sites) - sector))
    )
