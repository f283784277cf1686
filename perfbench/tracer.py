"""Span tracer for spinrelay, installed from outside the package.

The tracer wraps public functions of the package modules. A function is
patched in every spinrelay module that binds it, because callers look the
name up in their own module (``cli.probability_series``,
``analysis.optimize_time``, ``full_oracle.pe.evolve`` ...). Each call
becomes a span ``(id, parent id, op, name, start, end)`` kept in memory,
and hooks count work at the same boundaries. A span's self time is its
duration minus the durations of its direct child spans.

``layer_metrics`` turns the merged summary of a run into the per-layer
metrics of ``BENCHMARK.json``, normalized per traced op.
"""

import functools
import hashlib
import importlib
import sys
import time
import weakref
from collections import defaultdict

# (defining module, attribute, span name)
FUNCTIONS = [
    ("spinrelay.kernels", "probability_series", "kernels.probability_series"),
    ("spinrelay.protocol_engine", "optimize_time",
     "protocol_engine.optimize_time"),
    ("spinrelay.protocol_engine", "evolve", "protocol_engine.evolve"),
    ("spinrelay.protocol_engine", "measure", "protocol_engine.measure"),
    ("spinrelay.protocol_engine", "run_iterative_protocol",
     "protocol_engine.run_iterative_protocol"),
    ("spinrelay.sector_dynamics", "sector_basis",
     "sector_dynamics.sector_basis"),
    ("spinrelay.sector_dynamics", "build_one_particle_hamiltonian",
     "sector_dynamics.build_one_particle_hamiltonian"),
    ("spinrelay.full_oracle", "build_full_hamiltonian",
     "full_oracle.build_full_hamiltonian"),
    ("spinrelay.full_oracle", "evolve_full", "full_oracle.evolve_full"),
    ("spinrelay.full_oracle", "measure_full", "full_oracle.measure_full"),
    ("spinrelay.full_oracle", "occupancy_probability",
     "full_oracle.observables"),
    ("spinrelay.full_oracle", "charge_expectation",
     "full_oracle.observables"),
    ("spinrelay.spin_algebra", "conserved_charge",
     "spin_algebra.conserved_charge"),
    ("spinrelay.spin_algebra", "solve_swap_coefficients",
     "spin_algebra.solve_swap_coefficients"),
    ("spinrelay.analysis", "first_iteration_peak",
     "analysis.first_iteration_peak"),
    ("spinrelay.analysis", "failure_cascade", "analysis.failure_cascade"),
    ("spinrelay.analysis", "write_table_csv", "analysis.write_table_csv"),
    ("spinrelay.cli", "main", "cli.main"),
]

# (defining module, class, method, span name)
METHODS = [
    ("spinrelay.full_oracle", "FullHamiltonian", "eigensystem",
     "full_oracle.eigensystem"),
]

# counters that hold a maximum rather than a sum when runs are merged
MAX_COUNTERS = {"full_oracle.state_dim"}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _basis_misses():
    """Sector-basis cache misses so far, or None when the package keeps no
    cache (then every sector_basis call counts as a build)."""
    cached = getattr(sys.modules.get("spinrelay.sector_dynamics"), "_basis",
                     None)
    info = getattr(cached, "cache_info", None)
    return None if info is None else info().misses


class Tracer:
    """Records spans and counters while installed; one per process."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.optimize_keys = set()
        self.op = 0
        self.missing = []
        self._stack = []
        self._next_id = 1
        self._patches = []
        self._decomposed = weakref.WeakSet()
        self._misses_at_install = None

    # -- patching ---------------------------------------------------------

    def install(self):
        self.missing = []
        modules = {
            name: importlib.import_module(name)
            for name in {f[0] for f in FUNCTIONS + METHODS}
        }
        package = [
            m for n, m in list(sys.modules.items())
            if m is not None
            and (n == "spinrelay" or n.startswith("spinrelay."))
        ]
        for modname, attr, span in FUNCTIONS:
            original = getattr(modules[modname], attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(span, original)
            for mod in package:
                if mod.__dict__.get(attr) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for modname, clsname, attr, span in METHODS:
            cls = getattr(modules[modname], clsname, None)
            original = getattr(cls, attr, None)
            if original is None:
                self.missing.append(f"{modname}.{clsname}.{attr}")
                continue
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(span, original))
        self._misses_at_install = _basis_misses()

    def uninstall(self):
        misses = _basis_misses()
        if misses is not None and self._misses_at_install is not None:
            self.counters["sector_dynamics.basis_builds"] += (
                misses - self._misses_at_install
            )
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else (0, "")
            span_id = self._next_id
            self._next_id += 1
            self._stack.append((span_id, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(
                    (span_id, parent[0], self.op, name, start, end)
                )
            if hook is not None:
                hook(self, args, kwargs, result, parent[1])
            return result

        return wrapper

    # -- ops ----------------------------------------------------------------

    def run_op(self, op, fn, *args):
        """Run fn(*args) as traced op `op`, under a root span named "op"."""
        self.op = op
        self.install()
        try:
            return self._wrap("op", fn)(*args)
        finally:
            self.uninstall()

    def summary(self):
        """Per-name calls, total and self seconds, plus counters."""
        child_time = defaultdict(float)
        for span_id, parent, op, name, start, end in self.spans:
            child_time[(op, parent)] += end - start
        spans = {}
        for span_id, parent, op, name, start, end in self.spans:
            s = spans.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child_time.get((op, span_id), 0.0)
        return {
            "spans": spans,
            "counters": dict(self.counters),
            "optimize_unique": len(self.optimize_keys),
            "missing": list(self.missing),
        }

    def span_records(self):
        return [
            {"id": s[0], "parent": s[1], "op": s[2], "name": s[3],
             "start": s[4], "end": s[5]}
            for s in self.spans
        ]


# -- counting hooks: (tracer, args, kwargs, result, parent span name) -------

def _kernel_hook(tr, args, kwargs, result, parent):
    n_freqs = len(_arg(args, kwargs, 1, "freqs"))
    n_times = len(_arg(args, kwargs, 2, "times"))
    tr.counters["kernels.grid_points"] += n_times
    tr.counters["kernels.mode_time_products"] += n_times * n_freqs
    if n_times == 1 and parent == "protocol_engine.optimize_time":
        tr.counters["protocol_engine.refine_evals"] += 1


def _optimize_hook(tr, args, kwargs, result, parent):
    state = _arg(args, kwargs, 0, "state")
    window = _arg(args, kwargs, 1, "window")
    grid_step = _arg(args, kwargs, 2, "grid_step")
    criterion = _arg(args, kwargs, 3, "criterion")
    mode = _arg(args, kwargs, 4, "mode")
    key = hashlib.sha1(repr((
        state.spec, getattr(mode, "value", mode), tuple(window), grid_step,
        getattr(criterion, "value", criterion),
    )).encode())
    key.update(state.spatial.tobytes())
    tr.optimize_keys.add(key.hexdigest())


def _protocol_hook(tr, args, kwargs, result, parent):
    tr.counters["protocol_engine.runs"] += 1
    tr.counters["protocol_engine.iterations"] += len(result.records)


def _sector_basis_hook(tr, args, kwargs, result, parent):
    if tr._misses_at_install is None:
        tr.counters["sector_dynamics.basis_builds"] += 1


def _full_hamiltonian_hook(tr, args, kwargs, result, parent):
    spec = _arg(args, kwargs, 0, "spec")
    dim = spec.d ** spec.n_sites
    tr.counters["full_oracle.state_dim"] = max(
        tr.counters["full_oracle.state_dim"], dim
    )
    tr.counters["full_oracle.hamiltonian_bytes_computed"] += (
        dim * dim * result.matrix.itemsize
    )


def _eigensystem_hook(tr, args, kwargs, result, parent):
    ham = args[0]
    if ham not in tr._decomposed:
        tr._decomposed.add(ham)
        tr.counters["full_oracle.eigensystem.decompositions"] += 1


HOOKS = {
    "kernels.probability_series": _kernel_hook,
    "protocol_engine.optimize_time": _optimize_hook,
    "protocol_engine.run_iterative_protocol": _protocol_hook,
    "sector_dynamics.sector_basis": _sector_basis_hook,
    "full_oracle.build_full_hamiltonian": _full_hamiltonian_hook,
    "full_oracle.eigensystem": _eigensystem_hook,
}


def merge(summaries):
    """Combine summaries of separate processes (one per subprocess op).

    Distinct optimizer inputs add up, because no cache outlives a process.
    """
    spans = {}
    counters = defaultdict(int)
    unique = 0
    missing = set()
    for s in summaries:
        for name, v in s["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            for key in acc:
                acc[key] += v[key]
        for name, v in s["counters"].items():
            if name in MAX_COUNTERS:
                counters[name] = max(counters[name], v)
            else:
                counters[name] += v
        unique += s["optimize_unique"]
        missing.update(s["missing"])
    return {"spans": spans, "counters": dict(counters),
            "optimize_unique": unique, "missing": sorted(missing)}


# -- per-layer metrics --------------------------------------------------------

# layer prefix -> (end-to-end metrics it should move, workloads)
EFFECTS = {
    "kernels": ("op_p50_ms, cpu_per_op_ms", ["sweep", "sampled"]),
    "protocol_engine": ("ops_per_s", ["sampled"]),
    "sector_dynamics": ("op_p50_ms (setup_s on sampled)", ["sweep"]),
    "full_oracle": ("ops_per_s, peak_rss_mb", ["oracle"]),
    "spin_algebra": ("ops_per_s", ["oracle"]),
    "analysis": ("op_p50_ms", ["sweep"]),
    "cli": ("op_p50_ms", ["sweep"]),
    "trace": ("none: cost of tracing itself", []),
}


def _calls(name):
    return lambda sp, c, u, n: sp.get(name, {}).get("calls", 0) / n


def _self_s(*names):
    return lambda sp, c, u, n: sum(
        sp.get(name, {}).get("self_s", 0.0) for name in names
    ) / n


def _count(name):
    return lambda sp, c, u, n: c.get(name, 0) / n


def _ratio(num, den):
    return num / den if den else 0.0


# (name, unit, value from (spans, counters, unique optimizer inputs, ops));
# trace.overhead_ratio is filled in by the harness
LAYER_METRICS = [
    ("kernels.probability_series.calls", "count/op",
     _calls("kernels.probability_series")),
    ("kernels.probability_series.s", "s/op",
     _self_s("kernels.probability_series")),
    ("kernels.grid_points", "count/op", _count("kernels.grid_points")),
    ("kernels.mode_time_products", "count/op",
     _count("kernels.mode_time_products")),
    ("kernels.mode_time_products_per_s", "1/s",
     lambda sp, c, u, n: _ratio(
         c.get("kernels.mode_time_products", 0),
         sp.get("kernels.probability_series", {}).get("self_s", 0.0))),
    # computed, not measured: one complex128 phase per mode-time product
    ("kernels.phase_bytes_computed", "B/op",
     lambda sp, c, u, n: 16 * c.get("kernels.mode_time_products", 0) / n),
    ("protocol_engine.optimize_time.calls", "count/op",
     _calls("protocol_engine.optimize_time")),
    ("protocol_engine.optimize_time.s", "s/op",
     _self_s("protocol_engine.optimize_time")),
    ("protocol_engine.optimize_time.unique_ratio", "ratio",
     lambda sp, c, u, n: _ratio(
         u, sp.get("protocol_engine.optimize_time", {}).get("calls", 0))),
    ("protocol_engine.refine_evals", "count/op",
     _count("protocol_engine.refine_evals")),
    ("protocol_engine.evolve.s", "s/op", _self_s("protocol_engine.evolve")),
    ("protocol_engine.measure.s", "s/op", _self_s("protocol_engine.measure")),
    ("protocol_engine.iterations_per_run", "count/run",
     lambda sp, c, u, n: _ratio(c.get("protocol_engine.iterations", 0),
                                c.get("protocol_engine.runs", 0))),
    ("sector_dynamics.sector_basis.calls", "count/op",
     _calls("sector_dynamics.sector_basis")),
    ("sector_dynamics.sector_basis.s", "s/op",
     _self_s("sector_dynamics.sector_basis")),
    ("sector_dynamics.basis_builds", "count/op",
     _count("sector_dynamics.basis_builds")),
    ("sector_dynamics.build_one_particle_hamiltonian.s", "s/op",
     _self_s("sector_dynamics.build_one_particle_hamiltonian")),
    ("full_oracle.build_full_hamiltonian.calls", "count/op",
     _calls("full_oracle.build_full_hamiltonian")),
    ("full_oracle.build_full_hamiltonian.s", "s/op",
     _self_s("full_oracle.build_full_hamiltonian")),
    ("full_oracle.eigensystem.decompositions", "count/op",
     _count("full_oracle.eigensystem.decompositions")),
    ("full_oracle.eigensystem.s", "s/op", _self_s("full_oracle.eigensystem")),
    ("full_oracle.evolve_full.calls", "count/op",
     _calls("full_oracle.evolve_full")),
    ("full_oracle.evolve_full.s", "s/op", _self_s("full_oracle.evolve_full")),
    ("full_oracle.measure_full.s", "s/op",
     _self_s("full_oracle.measure_full")),
    ("full_oracle.observables.s", "s/op", _self_s("full_oracle.observables")),
    ("full_oracle.state_dim", "count",
     lambda sp, c, u, n: c.get("full_oracle.state_dim", 0)),
    # computed, not measured: dim^2 matrix entries per dense assembly
    ("full_oracle.hamiltonian_bytes_computed", "B/op",
     _count("full_oracle.hamiltonian_bytes_computed")),
    ("spin_algebra.conserved_charge.calls", "count/op",
     _calls("spin_algebra.conserved_charge")),
    ("spin_algebra.conserved_charge.s", "s/op",
     _self_s("spin_algebra.conserved_charge")),
    ("spin_algebra.solve_swap_coefficients.s", "s/op",
     _self_s("spin_algebra.solve_swap_coefficients")),
    ("analysis.first_iteration_peak.s", "s/op",
     _self_s("analysis.first_iteration_peak")),
    ("analysis.failure_cascade.s", "s/op",
     _self_s("analysis.failure_cascade")),
    ("analysis.write_table_csv.s", "s/op",
     _self_s("analysis.write_table_csv")),
    ("cli.main.s", "s/op", _self_s("cli.main")),
    ("trace.overhead_ratio", "ratio", None),
]

# counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTERS = [
    "kernels.probability_series.calls",
    "kernels.grid_points",
    "kernels.mode_time_products",
    "protocol_engine.optimize_time.calls",
    "protocol_engine.optimize_time.unique_ratio",
    "protocol_engine.refine_evals",
    "protocol_engine.iterations_per_run",
    "sector_dynamics.sector_basis.calls",
    "sector_dynamics.basis_builds",
    "full_oracle.build_full_hamiltonian.calls",
    "full_oracle.eigensystem.decompositions",
    "full_oracle.evolve_full.calls",
    "full_oracle.state_dim",
    "spin_algebra.conserved_charge.calls",
]


def layer_metrics(summary, ops):
    """Per-layer metric values (without trace.overhead_ratio)."""
    sp, c = summary["spans"], summary["counters"]
    u = summary["optimize_unique"]
    n = max(ops, 1)
    return {
        name: {"value": fn(sp, c, u, n), "unit": unit}
        for name, unit, fn in LAYER_METRICS
        if fn is not None
    }


def effect_of(name):
    moves, workloads = EFFECTS[name.split(".", 1)[0]]
    return {"moves": moves, "on": workloads}
