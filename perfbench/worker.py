"""One benchmark worker: set up a workload, then run its ops in a closed loop.

    python3 perfbench/worker.py --workload W --seed S --setup-only
    python3 perfbench/worker.py --workload W --seed S --seconds R \
        [--trace off|alt]
    python3 perfbench/worker.py --workload W --seed S --ops K [--trace off|all]

Set-up is everything before the first timed op: `import spinrelay`, input
generation from the seed, and one untimed warm-up op (op 0). One client
then runs ops 1, 2, ... back to back, each after the previous one ended,
until R seconds have passed (or K ops ran). Every op's output is checked.
With --trace alt the odd ops run traced and the even ops untraced, so one
run gives both the per-layer figures and the tracing overhead.

The worker prints one JSON line. Its `ready_at` (wall clock at the end of
set-up) lets the harness time set-up from before it started this process.
"""

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
REFERENCE = HERE / "reference"

sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402  (patches nothing on import)

OP_TIMEOUT_S = 120.0

# sweep tables must match the reference within |a - b| <= ATOL + RTOL |b|
SWEEP_RTOL = 1e-9
SWEEP_ATOL = 1e-12
# the in-run all-failure cascade must match the reference the same way
CASCADE_RTOL = 1e-9
CASCADE_ATOL = 1e-12


def _close(a, b, rtol, atol):
    return abs(a - b) <= atol + rtol * abs(b)


def parse_table_csv(path):
    """(header, rows) of a spinrelay CSV; `#` preamble lines are skipped.

    Cells may read `np.float64(x)`, as numpy 2 reprs them, or plain `x`.
    """
    header, rows = None, []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if header is None:
                header = cells
                continue
            rows.append([
                float(c[len("np.float64("):-1] if c.startswith("np.float64(")
                      else c)
                for c in cells
            ])
    return header, rows


def read_tables(out_dir):
    return {
        name: parse_table_csv(os.path.join(out_dir, name))
        for name in sorted(os.listdir(out_dir))
    }


def forced_cascade(spinrelay, spec, max_iter):
    """(t_k, p_k) of the forced all-failure run of the sampled chain."""
    payload = spinrelay.LogicalPayload(d=spec.d,
                                       a=[1.0] + [0.0] * (spec.d - 2))
    result = spinrelay.run_iterative_protocol(
        spec, payload, max_iter=max_iter, outcome_source="F" * max_iter
    )
    return [(r.t_k, r.p_k) for r in result.records]


class CliWorkload:
    """Each op is one spinrelay CLI command in a fresh interpreter."""

    in_process = False

    def __init__(self, seed):
        self.seed = seed
        self.dir = WORK / f"{self.name}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.trace_file = self.dir / "trace.json"

    def cli_args(self, i):
        raise NotImplementedError

    def prepare(self, i):
        pass

    def op(self, i, tracer):
        argv = [sys.executable, str(HERE / "cli_child.py")]
        if tracer is not None:
            argv += ["--trace-out", str(self.trace_file)]
        argv += ["--"] + self.cli_args(i)
        return subprocess.run(argv, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)

    def take_trace(self, i):
        """(summary, spans) the traced child wrote, or None if it wrote none."""
        if not self.trace_file.exists():
            return None
        with open(self.trace_file) as fh:
            data = json.load(fh)
        os.remove(self.trace_file)
        for span in data["spans"]:
            span["op"] = i
        return data["summary"], data["spans"]

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class Sweep(CliWorkload):
    """`spinrelay sweep --out-dir <tmp>` with every default; seed unused."""

    name = "sweep"

    def __init__(self, seed):
        super().__init__(seed)
        with open(REFERENCE / "sweep_tables.json") as fh:
            self.reference = json.load(fh)

    def out_dir(self, i):
        return self.dir / f"op{i}"

    def prepare(self, i):
        self.out_dir(i).mkdir()

    def cli_args(self, i):
        return ["sweep", "--out-dir", str(self.out_dir(i))]

    def check(self, i, proc):
        out_dir = self.out_dir(i)
        try:
            if proc.returncode != 0:
                return f"exit code {proc.returncode}: {proc.stderr[-300:]}", ""
            tables = read_tables(out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        canon = json.dumps(tables, sort_keys=True)
        if sorted(tables) != sorted(self.reference):
            return f"files {sorted(tables)} differ from the reference", canon
        for name, (header, rows) in tables.items():
            ref_header, ref_rows = self.reference[name]
            if header != ref_header or len(rows) != len(ref_rows):
                return f"{name}: shape or header differs", canon
            for row, ref_row in zip(rows, ref_rows):
                for a, b in zip(row, ref_row):
                    if not _close(a, b, SWEEP_RTOL, SWEEP_ATOL):
                        return f"{name}: {a!r} != reference {b!r}", canon
        return None, canon


class Oracle(CliWorkload):
    """`spinrelay oracle-check --n 7 --d 3 --b 0.8 --seed <seed + i>`."""

    name = "oracle"

    def cli_args(self, i):
        return ["oracle-check", "--n", "7", "--d", "3", "--b", "0.8",
                "--seed", str(self.seed + i)]

    def check(self, i, proc):
        try:
            results = json.loads(proc.stdout)["results"]
            passed, checks = results["passed"], results["checks"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"exit code {proc.returncode}, unreadable output: {exc}", ""
        canon = json.dumps([proc.returncode, passed, checks], sort_keys=True)
        if proc.returncode != 0 or passed is not True:
            failed = [k for k, ok in checks.items() if not ok]
            return (f"exit code {proc.returncode}, failed checks {failed}",
                    canon)
        return None, canon


class Sampled:
    """One in-process run_iterative_protocol call per op: N=100, d=3, exact
    mode, optimized strategy, max_iter 10, a random payload and sampled
    outcomes, both drawn from the seed as in a Monte Carlo batch."""

    name = "sampled"
    in_process = True
    N_SITES = 100
    MAX_ITER = 10
    POOL = 1000  # op i uses input i mod POOL

    def __init__(self, seed, spinrelay):
        import numpy as np

        self.spinrelay = spinrelay
        self.spec = spinrelay.ChainSpec(n_sites=self.N_SITES, d=3)
        rng = np.random.default_rng(seed)
        self.inputs = []
        for _ in range(self.POOL):
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            payload = spinrelay.LogicalPayload(d=3, a=a / np.linalg.norm(a))
            self.inputs.append((payload, int(rng.integers(2**62))))
        self.cascade = forced_cascade(spinrelay, self.spec, self.MAX_ITER)
        with open(REFERENCE / "cascade_n100.json") as fh:
            reference = json.load(fh)["records"]
        self.cascade_error = None
        if len(self.cascade) != len(reference) or not all(
            _close(a, b, CASCADE_RTOL, CASCADE_ATOL)
            for got, ref in zip(self.cascade, reference)
            for a, b in zip(got, ref)
        ):
            self.cascade_error = (
                "all-failure cascade differs from the reference"
            )

    def prepare(self, i):
        pass

    def _run(self, i):
        payload, outcome_seed = self.inputs[i % self.POOL]
        return self.spinrelay.run_iterative_protocol(
            self.spec, payload, strategy="optimized", max_iter=self.MAX_ITER,
            mode="exact", outcome_source=outcome_seed,
        )

    def op(self, i, tracer):
        if tracer is None:
            return self._run(i)
        return tracer.run_op(i, self._run, i)

    def check(self, i, result):
        records = result.records
        outcomes = [r.outcome.value for r in records]
        canon = repr([(r.k, float(r.t_k), float(r.p_k), r.outcome.value)
                      for r in records])
        got = [(r.t_k, r.p_k) for r in records]
        if self.cascade_error is not None:
            return self.cascade_error, canon
        if got != self.cascade[:len(got)]:
            return ("(t_k, p_k) is not a prefix of the all-failure cascade",
                    canon)
        if any(o != "failure" for o in outcomes[:-1]):
            return (f"outcome before the last is not a failure: {outcomes}",
                    canon)
        if outcomes[-1] != "success" and len(records) != self.MAX_ITER:
            return f"run ended early on {outcomes[-1]}", canon
        if (outcomes[-1] == "success") != result.corrected:
            return "corrected flag disagrees with the last outcome", canon
        if result.corrected:
            payload = self.inputs[i % self.POOL][0]
            delivered = result.delivered_payload.a
            canon += repr([complex(c) for c in delivered])
            if max(abs(delivered - payload.a)) > CASCADE_ATOL:
                return "delivered payload differs from the sent one", canon
        return None, canon

    def close(self):
        pass


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _steal_ticks():
    """(steal, total) CPU ticks of the whole machine so far."""
    with open("/proc/stat") as fh:
        ticks = [int(x) for x in fh.readline().split()[1:]]
    return ticks[7], sum(ticks)


def _openblas():
    """(config string, thread count) of the loaded OpenBLAS, if any."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                  None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is None or get_config is None:
                continue
            get_threads.restype = ctypes.c_int
            get_config.restype = ctypes.c_char_p
            return get_config().decode(), get_threads()
    return None, None


def environment():
    import numpy as np
    from spinrelay import kernels

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    config, threads = _openblas()
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": config, "threads": threads},
        "kernels.USE_NUMBA": kernels.USE_NUMBA,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
    }


def run_loop(workload, seconds, ops, trace_mode, tracer):
    latencies, traced_flags, failures = [], [], []
    digest = hashlib.sha256()
    summaries, spans = [], []
    cpu0 = _cpu_s()
    steal0, total0 = _steal_ticks()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        i += 1
        traced = trace_mode == "all" or (trace_mode == "alt" and i % 2 == 1)
        workload.prepare(i)
        t0 = time.perf_counter()
        try:
            out = workload.op(i, tracer if traced else None)
        except Exception:  # an op that raises counts as failed
            out, error = None, traceback.format_exc(limit=-3)
        latencies.append(time.perf_counter() - t0)
        traced_flags.append(traced)
        if out is not None:
            error, canon = workload.check(i, out)
            digest.update(canon.encode())
        if error is not None:
            failures.append(f"op {i}: {error}")
        op_trace = (workload.take_trace(i)
                 if traced and not workload.in_process else None)
        if op_trace is not None:
            summaries.append(op_trace[0])
            spans.extend(op_trace[1])
        if ops:
            if i >= ops:
                break
        elif (time.perf_counter() >= deadline
              and (trace_mode != "alt" or i >= 2)):
            break
    cpu_s = _cpu_s() - cpu0
    steal1, total1 = _steal_ticks()
    usage = resource.getrusage(resource.RUSAGE_SELF if workload.in_process
                               else resource.RUSAGE_CHILDREN)
    trace = None
    if trace_mode != "off":
        if workload.in_process:
            trace = tracer.summary()
            spans = tracer.span_records()
        else:
            trace = tracing.merge(summaries)
        with open(WORK / f"spans-{workload.name}.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    return {
        "latencies": latencies,
        "traced": traced_flags,
        "failed": len(failures),
        "failures": failures[:5],
        "cpu_s": cpu_s,
        "peak_rss_kb": usage.ru_maxrss,
        # share of the machine's CPU time the hypervisor withheld during the
        # loop: a noise indicator, not a property of the program
        "host_steal_share": (steal1 - steal0) / max(total1 - total0, 1),
        "digest": digest.hexdigest(),
        "trace": trace,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "sampled", "oracle"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--trace", choices=["off", "alt", "all"],
                        default="off")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import spinrelay

    WORK.mkdir(exist_ok=True)
    if args.workload == "sampled":
        workload = Sampled(args.seed, spinrelay)
    else:
        workload = {"sweep": Sweep, "oracle": Oracle}[args.workload](args.seed)
    try:
        workload.prepare(0)
        try:
            setup_error, _ = workload.check(0, workload.op(0, None))
        except Exception:  # a warm-up op that raises fails the run
            setup_error = traceback.format_exc(limit=-3)
        ready_at = time.time()
        result = {"ready_at": ready_at, "setup_error": setup_error}
        if not args.setup_only:
            tracer = tracing.Tracer() if args.trace != "off" else None
            result.update(run_loop(workload, args.seconds, args.ops,
                                   args.trace, tracer))
            result["environment"] = environment()
    finally:
        workload.close()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
