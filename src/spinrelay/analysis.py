"""Parameter sweeps and curve fits over the protocol engine.

Produces the standard data products: first-iteration success probability
and optimal time versus chain length (with power-law and linear fits),
post-failure excitation distributions, per-iteration probabilities, and
cumulative failure curves. Everything is deterministic: identical inputs
give bit-identical tables. All of them read the cached all-failure
cascade of protocol_engine, so products of one chain share its search.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .protocol_engine import (
    DEFAULT_GRID_STEP,
    cascade,
    run_iterative_protocol,
)
from .sector_dynamics import ChainSpec, as_mode


@dataclass
class SweepTable:
    """Rows of (key, value) over one sweep parameter, tagged with the
    propagator mode that produced them."""

    parameter: str
    rows: list
    mode: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        keys = [k for k, _ in self.rows]
        if sorted(keys) != keys:
            raise ValueError("rows must be sorted by the sweep parameter")
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate sweep keys")

    def keys(self):
        return np.array([k for k, _ in self.rows], dtype=float)

    def values(self):
        return np.array([v for _, v in self.rows], dtype=float)


@dataclass(frozen=True)
class PowerLawFit:
    """y = amplitude * x**(-exponent); r_squared is computed in log-log
    space (coefficient of determination of the line fit)."""

    amplitude: float
    exponent: float
    r_squared: float


def first_iteration_peak(n, mode, grid_step=DEFAULT_GRID_STEP, j=1.0):
    """(t1, P1) of the first success peak for an N-site chain; P1 is the
    optimizer's refined peak value."""
    optimum = cascade(n, j, mode, grid_step=grid_step).step(1).optimum
    return optimum.t, optimum.p


def sweep_first_iteration(n_list, mode, grid_step=DEFAULT_GRID_STEP, j=1.0):
    """Tables of (N, P1) and (N, Jt1) over the given chain lengths."""
    mode = as_mode(mode)
    n_list = sorted(n_list)
    p_rows = []
    t_rows = []
    for n in n_list:
        t, p = first_iteration_peak(n, mode, grid_step=grid_step, j=j)
        p_rows.append((n, p))
        t_rows.append((n, j * t))
    meta = {"grid_step": grid_step, "window": "(0, 2N]", "criterion": "first-peak"}
    return (
        SweepTable("n_sites", p_rows, mode.value, {**meta, "value": "p1"}),
        SweepTable("n_sites", t_rows, mode.value, {**meta, "value": "jt1"}),
    )


def powerlaw_fit(table: SweepTable):
    """Least squares on (ln x, ln y); rejects non-positive data."""
    x = table.keys()
    y = table.values()
    if len(x) < 3:
        raise ValueError("need at least 3 points for a power-law fit")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs positive data")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(
        amplitude=float(np.exp(intercept)),
        exponent=float(-slope),
        r_squared=r2,
    )


def synthesize_powerlaw(amplitude, exponent, x_values, mode="synthetic"):
    """Noiseless power-law table, for fit round-trip checks."""
    rows = [(x, amplitude * x ** (-exponent)) for x in sorted(x_values)]
    return SweepTable("x", rows, mode, {"value": "y"})


def linear_fit(table: SweepTable):
    """Ordinary least squares; returns (slope, intercept, r_squared)."""
    x = table.keys()
    y = table.values()
    if len(x) < 2:
        raise ValueError("need at least 2 points for a linear fit")
    if np.ptp(x) == 0:
        raise ValueError("degenerate abscissae")
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def linear_fit_residuals(table: SweepTable):
    """Per-point residuals of the linear fit, for inspection."""
    slope, intercept, _ = linear_fit(table)
    return [(k, v - (slope * k + intercept)) for k, v in table.rows]


def concat_tables(tables):
    """Concatenate sweep tables; refuses to mix propagator modes."""
    modes = {t.mode for t in tables}
    if len(modes) > 1:
        raise ValueError(f"cannot mix propagator modes in one table: {modes}")
    rows = sorted(r for t in tables for r in t.rows)
    first = tables[0]
    return SweepTable(first.parameter, rows, first.mode, dict(first.metadata))


def failure_cascade(n, k_max, mode, strategy="optimized",
                    grid_step=DEFAULT_GRID_STEP, j=1.0):
    """Deterministic all-failure protocol run (no sampling)."""
    return run_iterative_protocol(
        ChainSpec(n_sites=n, j=j),
        None,
        strategy=strategy,
        max_iter=k_max,
        mode=mode,
        outcome_source="F" * k_max,
        grid_step=grid_step,
    )


def failure_curves(n_list, k_max, strategy, mode, grid_step=DEFAULT_GRID_STEP):
    """Cumulative failure probability after k iterations, one table per N."""
    if k_max < 1:
        raise ValueError(f"need k_max >= 1, got {k_max}")
    mode = as_mode(mode)
    out = {}
    for n in sorted(n_list):
        result = failure_cascade(
            n, k_max, mode, strategy=strategy, grid_step=grid_step
        )
        rows = list(enumerate(result.p_fail_cumulative, start=1))
        out[n] = SweepTable(
            "iteration",
            rows,
            mode.value,
            {
                "value": "p_fail",
                "n_sites": n,
                "strategy": strategy,
                "grid_step": grid_step,
            },
        )
    return out


def iteration_probabilities(n, k_max, mode, strategy="optimized",
                            grid_step=DEFAULT_GRID_STEP):
    """Per-iteration (k, P_k) table from the all-failure cascade."""
    result = failure_cascade(n, k_max, mode, strategy=strategy,
                             grid_step=grid_step)
    rows = [(r.k, r.p_k) for r in result.records]
    return SweepTable(
        "iteration",
        rows,
        as_mode(mode).value,
        {"value": "p_k", "n_sites": n, "strategy": strategy,
         "grid_step": grid_step},
    )


def post_failure_distribution(n, mode, grid_step=DEFAULT_GRID_STEP, j=1.0):
    """Excitation distribution over sites 1..N-1 right after a failed first
    measurement; normalized by the 1/(1-P1) collapse factor."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    result = failure_cascade(n, 1, mode, grid_step=grid_step, j=j)
    dist = np.abs(result.final_state.spatial[:-1]) ** 2
    return dist


def write_table_csv(table: SweepTable, path):
    """CSV with `# key = value` config preamble, then header and rows."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# parameter = {table.parameter}\n")
        fh.write(f"# mode = {table.mode}\n")
        for key in sorted(table.metadata):
            fh.write(f"# {key} = {table.metadata[key]}\n")
        writer = csv.writer(fh)
        label = table.metadata.get("value", "value")
        writer.writerow([table.parameter, label])
        for k, v in table.rows:
            writer.writerow([k, repr(v) if isinstance(v, float) else v])


def read_table_csv(path):
    """Inverse of write_table_csv."""
    metadata = {}
    rows = []
    header = None
    with open(path, newline="") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                metadata[key.strip()] = value.strip()
                continue
            cells = next(csv.reader([line]))
            if header is None:
                header = cells
                continue
            rows.append((float(cells[0]), float(cells[1])))
    if header is None:
        raise ValueError(f"no header row in {path}")
    parameter = metadata.pop("parameter", header[0])
    mode = metadata.pop("mode", "unknown")
    metadata.setdefault("value", header[1])
    return SweepTable(parameter, rows, mode, metadata)
