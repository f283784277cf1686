"""Iterative transfer protocol on the one-excitation sector.

The chain state stays factorized as

    sum_mu a_mu exp(-i mu B T) (sum_k c_k |mu at site k>),

so the engine tracks one N-component spatial vector c regardless of d:
evolution is a mode-sum matrix-vector product, the receiver measurement
either delivers the payload (probability |c_N|^2) or projects c_N to zero
with a 1/sqrt(1-P) renormalization, and the field only accumulates the
level phase exp(-i mu B T) undone by phase_correction on delivery.

Only the receiver is measured, so every measurement time and every p_k
lies on the all-failure branch, which depends on neither the payload, d
nor B. A Cascade holds that branch for one chain; run_iterative_protocol
replays it against forced outcomes or one uniform draw per step.
"""

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .kernels import probability_series
from .sector_dynamics import (
    ChainSpec,
    PropagatorMode,
    as_mode,
    require_finite,
    require_int,
    sector_basis,
)

DEFAULT_GRID_STEP = 0.01  # in Jt units
LATER_WINDOW_JT = 10.0

# grid peaks below max(1e-12, 1e-6 * window max) are numerical ripple
PEAK_FLOOR_ABS = 1e-12
PEAK_FLOOR_REL = 1e-6

GLOBAL_TIE_TOL = 1e-12


class Outcome(Enum):
    SUCCESS = "success"
    FAILURE = "failure"
    FORCED = "forced"  # scripted rather than sampled, used in records


class PeakCriterion(Enum):
    FIRST_PEAK = "first-peak"
    GLOBAL_MAX = "global-max"


@dataclass(frozen=True)
class LogicalPayload:
    """Coefficients a_1..a_{d-1} on the nonzero levels; level 0 carries no
    amplitude by construction."""

    d: int
    a: np.ndarray

    def __post_init__(self):
        require_int("d", self.d)
        a = np.asarray(self.a, dtype=complex)
        require_finite("payload coefficients", a)
        if a.shape != (self.d - 1,):
            raise ValueError(
                f"payload needs {self.d - 1} coefficients, got {a.shape}"
            )
        if abs(np.linalg.norm(a) - 1.0) > 1e-12:
            raise ValueError("payload coefficients must be normalized")
        object.__setattr__(self, "a", a)


@dataclass
class SectorState:
    """Factorized protocol state; norm_factor is the probability weight of
    the realized measurement branch. payload is None on the payload-free
    all-failure cascade."""

    spec: ChainSpec
    spatial: np.ndarray
    elapsed: float
    payload: LogicalPayload
    norm_factor: float = 1.0


class OptimizeResult(NamedTuple):
    t: float
    p: float
    at_endpoint: bool  # no interior peak found, endpoint reported


@dataclass(frozen=True)
class IterationRecord:
    k: int
    t_k: float
    p_k: float
    outcome: Outcome
    window: tuple


@dataclass
class ProtocolResult:
    records: list
    p_fail_cumulative: list
    total_time: float
    corrected: bool
    # plumbing beyond the record log: final state and the payload held at
    # the receiver after phase correction (the sent one, on success)
    final_state: SectorState = None
    delivered_payload: LogicalPayload = None

    @property
    def p_fail(self):
        return self.p_fail_cumulative[-1] if self.p_fail_cumulative else 1.0


def initialize(spec: ChainSpec, payload: LogicalPayload):
    """Excitation at the sender (site 1), clock at zero. payload may be
    None (see SectorState)."""
    if payload is not None and payload.d != spec.d:
        raise ValueError(
            f"payload dimension {payload.d} does not match chain d={spec.d}"
        )
    spatial = np.zeros(spec.n_sites, dtype=complex)
    spatial[0] = 1.0
    return SectorState(spec=spec, spatial=spatial, elapsed=0.0, payload=payload)


def evolve(state: SectorState, t, propagator_mode):
    """Free evolution for time t: spatial <- F(t) spatial."""
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    basis = sector_basis(state.spec, propagator_mode)
    return SectorState(
        spec=state.spec,
        spatial=basis.evolve(state.spatial, t),
        elapsed=state.elapsed + t,
        payload=state.payload,
        norm_factor=state.norm_factor,
    )


def success_probability(state: SectorState):
    """Probability that the receiver-site measurement finds the excitation."""
    return float(abs(state.spatial[-1]) ** 2)


def excitation_distribution(state: SectorState):
    """Per-site excitation probabilities (sums to one)."""
    return np.abs(state.spatial) ** 2


def _forced_branch(source):
    if isinstance(source, Outcome):
        if source is Outcome.FORCED:
            raise ValueError("forced outcome must be SUCCESS or FAILURE")
        return source is Outcome.SUCCESS
    if isinstance(source, str):
        ch = source.upper()
        if ch not in ("S", "F"):
            raise ValueError(f"forced outcome must be 'S' or 'F', got {source!r}")
        return ch == "S"
    if isinstance(source, bool):
        return source
    return None


def decide_branch(outcome_source, p):
    """True for the success branch of a measurement with clamped success
    probability p.

    outcome_source is a numpy Generator, which draws exactly one uniform
    number, or a forced outcome ('S'/'F', Outcome, or bool).
    Zero-probability forced branches are rejected.
    """
    forced = _forced_branch(outcome_source)
    if forced is None:
        if not isinstance(outcome_source, np.random.Generator):
            raise TypeError(f"bad outcome source: {outcome_source!r}")
        return bool(outcome_source.random() < p)
    if forced and p == 0.0:
        raise ValueError("forced success on a zero-probability branch")
    if not forced and p == 1.0:
        raise ValueError("forced failure on a zero-probability branch")
    return forced


def measure(state: SectorState, outcome_source):
    """Receiver-site projective measurement.

    outcome_source is a numpy Generator (sampled branch) or a forced
    outcome ('S'/'F', Outcome, or bool). Zero-probability forced branches
    are rejected.
    """
    p = success_probability(state)
    p = min(max(p, 0.0), 1.0)
    if decide_branch(outcome_source, p):
        spatial = np.zeros_like(state.spatial)
        spatial[-1] = 1.0
        new = SectorState(
            spec=state.spec,
            spatial=spatial,
            elapsed=state.elapsed,
            payload=state.payload,
            norm_factor=state.norm_factor * p,
        )
        return Outcome.SUCCESS, new
    spatial = state.spatial.copy()
    spatial[-1] = 0.0
    if p > 0.0:
        spatial /= np.sqrt(1.0 - p)
    new = SectorState(
        spec=state.spec,
        spatial=spatial,
        elapsed=state.elapsed,
        payload=state.payload,
        norm_factor=state.norm_factor * (1.0 - p),
    )
    return Outcome.FAILURE, new


def _receiver_mode_weights(state, mode):
    basis = sector_basis(state.spec, mode)
    return basis.vectors[-1, :] * (basis.vectors.T @ state.spatial), basis


def _parabolic_refine(ts, pvals, i, evaluate):
    """Refine grid peak i through the fitted vertex; keep the better point."""
    t, p = float(ts[i]), float(pvals[i])
    if 0 < i < len(ts) - 1:
        y0, y1, y2 = pvals[i - 1], pvals[i], pvals[i + 1]
        den = y0 - 2.0 * y1 + y2
        if den < 0.0:
            step = ts[1] - ts[0]
            tr = float(ts[i] + 0.5 * step * (y0 - y2) / den)
            if ts[0] <= tr <= ts[-1]:
                pr = float(evaluate(tr))
                if pr > p:
                    return tr, pr
    return t, p


def optimize_series(ts, pvals, criterion, evaluate):
    """Peak search over a sampled series, with parabolic refinement through
    the evaluate callback. Shared by optimize_time and directly usable on
    synthetic series."""
    n = len(ts)
    crit = criterion if isinstance(criterion, PeakCriterion) else PeakCriterion(criterion)
    if crit is PeakCriterion.FIRST_PEAK:
        floor = max(PEAK_FLOOR_ABS, PEAK_FLOOR_REL * float(pvals.max()))
        interior = pvals[1:-1]
        peaks = np.flatnonzero(
            (pvals[:-2] < interior) & (interior >= pvals[2:]) & (interior > floor)
        )
        if peaks.size == 0:
            return OptimizeResult(
                t=float(ts[-1]), p=float(pvals[-1]), at_endpoint=True
            )
        t, p = _parabolic_refine(ts, pvals, int(peaks[0]) + 1, evaluate)
        return OptimizeResult(t=t, p=p, at_endpoint=False)
    gmax = float(pvals.max())
    i = int(np.flatnonzero(pvals >= gmax - GLOBAL_TIE_TOL)[0])
    t, p = _parabolic_refine(ts, pvals, i, evaluate)
    return OptimizeResult(t=t, p=p, at_endpoint=(i == n - 1))


def optimize_time(state, window, grid_step, criterion, mode):
    """Search the evolution-time window (t_min, t_max] for a success peak.

    FirstPeak takes the first grid-local maximum above the noise floor;
    GlobalMax takes the window-wide maximum (earliest among ties). Both
    refine the grid point by parabolic interpolation. A window with no
    interior peak reports the endpoint with at_endpoint set.
    """
    t_min, t_max = window
    if not t_min < t_max:
        raise ValueError(f"bad window {window}")
    if grid_step <= 0:
        raise ValueError(f"need grid_step > 0, got {grid_step}")
    n = int(np.floor((t_max - t_min) / grid_step + 1e-9))
    if n < 3:
        raise ValueError("window shorter than three grid steps")
    ts = t_min + grid_step * np.arange(1, n + 1)
    weights, basis = _receiver_mode_weights(state, mode)
    pvals = probability_series(weights, basis.freqs, ts)

    def evaluate(t):
        return probability_series(weights, basis.freqs, np.array([t]))[0]

    return optimize_series(ts, pvals, criterion, evaluate)


def schedule_regular(t1, k):
    """Evolution time of iteration k under the fixed schedule (2k-1) t1."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return (2 * k - 1) * t1


def phase_correction(payload: LogicalPayload, b_field, total_time):
    """Undo the field phase: a_mu <- a_mu exp(+i mu B T)."""
    mu = np.arange(1, payload.d)
    return LogicalPayload(
        d=payload.d, a=payload.a * np.exp(1j * mu * b_field * total_time)
    )


class OutcomeSource:
    """Per-iteration outcome driver: a forced-outcome script ('S'/'F', one
    character per iteration) with a seeded sampler for iterations past the
    script's end."""

    def __init__(self, script="", rng=None, seed=0):
        script = (script or "").upper()
        if any(ch not in "SF" for ch in script):
            raise ValueError(f"bad outcome script {script!r}")
        self.script = script
        self.rng = rng if rng is not None else np.random.default_rng(seed)

    def pick(self, k):
        """Returns ('S'/'F', True) when scripted, (rng, False) otherwise."""
        if k <= len(self.script):
            return self.script[k - 1], True
        return self.rng, False


def _as_outcome_source(outcome_source):
    if outcome_source is None:
        return OutcomeSource()
    if isinstance(outcome_source, OutcomeSource):
        return outcome_source
    if isinstance(outcome_source, (int, np.integer)):
        return OutcomeSource(seed=int(outcome_source))
    if isinstance(outcome_source, np.random.Generator):
        return OutcomeSource(rng=outcome_source)
    if isinstance(outcome_source, str):
        return OutcomeSource(script=outcome_source)
    raise TypeError(f"bad outcome source: {outcome_source!r}")


class CascadeStep(NamedTuple):
    """Step k of the all-failure branch."""

    window: tuple
    t_k: float
    p_k: float  # success probability realized at t_k
    optimum: OptimizeResult  # None when t_k comes from the fixed schedule
    elapsed: float
    norm_factor: float  # weight of the branch entering the measurement
    failed: SectorState  # read-only; None when failure has probability 0


class Cascade:
    """The all-failure run of one chain, extended one step at a time.

    Iteration 1 searches Jt in (0, 2N] for the first success peak. Later
    iterations take the global maximum over Jt in (0, later_window_jt]
    (strategy 'optimized') or wait the fixed (2k-1) t1 ('regular').
    """

    def __init__(self, n_sites, j, mode, strategy, grid_step,
                 later_window_jt):
        if strategy not in ("optimized", "regular"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.spec = ChainSpec(n_sites=n_sites, j=j)
        self.mode = as_mode(mode)
        self.strategy = strategy
        self.grid_step = grid_step
        self.later_window_jt = later_window_jt
        self.steps = []

    def step(self, k):
        """Step k (1-based), computing the steps up to it if needed."""
        while len(self.steps) < k:
            self._extend()
        return self.steps[k - 1]

    def _extend(self):
        k = len(self.steps) + 1
        j = self.spec.j
        state = initialize(self.spec, None) if k == 1 else self.steps[-1].failed
        optimum = None
        if k == 1:
            window = (0.0, 2.0 * self.spec.n_sites / j)
            criterion = PeakCriterion.FIRST_PEAK
        elif self.strategy == "optimized":
            window = (0.0, self.later_window_jt / j)
            criterion = PeakCriterion.GLOBAL_MAX
        else:
            t_k = schedule_regular(self.steps[0].t_k, k)
            window = (t_k, t_k)
            criterion = None
        if criterion is not None:
            optimum = optimize_time(
                state, window, self.grid_step / j, criterion, self.mode
            )
            t_k = optimum.t
        state = evolve(state, t_k, self.mode)
        p_k = success_probability(state)
        failed = None
        if p_k < 1.0:
            _, failed = measure(state, "F")
            failed.spatial.setflags(write=False)
        self.steps.append(CascadeStep(
            window=window, t_k=t_k, p_k=p_k, optimum=optimum,
            elapsed=state.elapsed, norm_factor=state.norm_factor,
            failed=failed,
        ))


@lru_cache(maxsize=128)
def _cascade(n_sites, j, mode_value, strategy, grid_step, later_window_jt):
    return Cascade(n_sites, j, mode_value, strategy, grid_step,
                   later_window_jt)


def cascade(n_sites, j, mode, strategy="optimized",
            grid_step=DEFAULT_GRID_STEP, later_window_jt=LATER_WINDOW_JT):
    """The shared all-failure cascade of a chain, cached per
    (N, J, mode, strategy, grid_step, later_window_jt)."""
    require_finite("grid_step", grid_step)
    require_finite("later_window_jt", later_window_jt)
    return _cascade(n_sites, j, as_mode(mode).value, strategy, grid_step,
                    later_window_jt)


def run_iterative_protocol(
    spec: ChainSpec,
    payload: LogicalPayload,
    strategy="optimized",
    max_iter=10,
    mode=PropagatorMode.EXACT_DIAGONALIZATION,
    outcome_source=None,
    grid_step=DEFAULT_GRID_STEP,
    later_window_jt=LATER_WINDOW_JT,
):
    """Run up to max_iter evolve-measure cycles.

    The schedule comes from the chain's Cascade (see there for the two
    strategies). Each step takes its scripted branch or draws one uniform
    number against the clamped p_k; a failure continues from the cached
    post-failure state. Delivery applies the field phase correction, so
    the delivered payload is the sent one. payload may be None when only
    the schedule and the probabilities are wanted.
    """
    if max_iter < 1:
        raise ValueError(f"need max_iter >= 1, got {max_iter}")
    initialize(spec, payload)  # rejects a payload of the wrong dimension
    source = _as_outcome_source(outcome_source)
    all_failure = cascade(spec.n_sites, spec.j, mode, strategy, grid_step,
                          later_window_jt)
    records = []
    p_fail_cumulative = []
    fail_product = 1.0
    total_time = 0.0
    for k in range(1, max_iter + 1):
        step = all_failure.step(k)
        p = min(max(step.p_k, 0.0), 1.0)
        forced_char, scripted = source.pick(k)
        success = decide_branch(forced_char if scripted else source.rng, p)
        if scripted:
            outcome = Outcome.FORCED
        else:
            outcome = Outcome.SUCCESS if success else Outcome.FAILURE
        records.append(IterationRecord(
            k=k, t_k=step.t_k, p_k=step.p_k, outcome=outcome,
            window=step.window,
        ))
        fail_product *= 1.0 - step.p_k
        p_fail_cumulative.append(fail_product)
        total_time += step.t_k
        if success:
            spatial = np.zeros(spec.n_sites, dtype=complex)
            spatial[-1] = 1.0
            state = SectorState(spec, spatial, step.elapsed, payload,
                                step.norm_factor * p)
            break
        state = SectorState(spec, step.failed.spatial, step.failed.elapsed,
                            payload, step.failed.norm_factor)
    return ProtocolResult(
        records=records,
        p_fail_cumulative=p_fail_cumulative,
        total_time=total_time,
        corrected=success,
        final_state=state,
        delivered_payload=payload if success else None,
    )
