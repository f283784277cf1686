"""spinrelay benchmark: three workloads, timed end to end, traced per module.

    python3 perfbench/run.py --workload {sweep,sampled,oracle} --seed N \
        --seconds R --trace {0,1}
    python3 perfbench/run.py --self-test [--seed N]

Run from the root of a checkout; the package is imported from its `src`.

Workloads (one client, closed loop: the next op starts when the last ends):
  sweep    default `spinrelay sweep --out-dir <tmp>` in a fresh interpreter.
           Dominated by the kernels and the sector bases; nearly every
           optimizer input is distinct. The seed is unused.
  sampled  one in-process `run_iterative_protocol` call (N=100, d=3, exact,
           optimized, max_iter 10) with a seeded random payload and sampled
           outcomes. Every op re-optimizes the same cascade.
  oracle   `spinrelay oracle-check --n 7 --d 3 --b 0.8 --seed <seed+i>` in a
           fresh interpreter: dense 2187-state Hamiltonians and eigh.

--trace 0 prints the end-to-end metrics, measured with tracing off. Set-up
(process start to the first timed op: import, inputs, one warm-up op) is
timed several times (SETUP_SAMPLES) and its median reported. --trace 1
runs ops alternately traced and untraced and prints the per-layer metrics
per traced op, with the tracing overhead as traced over untraced median op
time. Both print a detail line (environment, samples, what each layer
metric should move) and then, as the last line, the result object.
Details and spans are also written under perfbench/_work/.

--self-test runs each workload for a fixed number of ops once untraced and
twice traced with one seed, and requires identical exact counters between
the traced runs and identical checked outputs across all three.

BLAS keeps its default thread count; the environment block records it.
Seeds: DEFAULT_SEED while developing; confirm a claimed gain on
HELD_OUT_SEED, which no change should be tuned on.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

WORKLOADS = ["sweep", "sampled", "oracle"]
# set-up is timed this many times per --trace 0 run, and the median kept;
# fewer where one set-up (import plus a warm-up op) is long
SETUP_SAMPLES = {"sweep": 7, "sampled": 11, "oracle": 3}
WORKER_TIMEOUT_S = 170.0
# fixed op counts for --self-test
SELF_TEST_OPS = {"sweep": 2, "sampled": 40, "oracle": 1}

# (name, unit, better)
END_TO_END = [
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("cpu_per_op_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]
TAIL_BEYOND = 10


def run_worker(workload, seed, *extra):
    """Run one worker to completion; returns (result dict, set-up seconds)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), *map(str, extra)]
    started = time.time()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}: "
                           f"{err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    return result, result["ready_at"] - started


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile that
    leaves TAIL_BEYOND samples above it. A short run leaves n // 4 samples
    above it instead, so the tail never drops below the 75th percentile."""
    xs = sorted(latencies)
    n = len(xs)
    beyond = min(TAIL_BEYOND, n // 4)
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def end_to_end(result, setups):
    lat = result["latencies"]
    ops = len(lat)
    tail_s, pct, beyond = tail(lat)
    values = {
        "ops_per_s": ops / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_s,
        "cpu_per_op_ms": 1e3 * result["cpu_s"] / ops,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setups),
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in END_TO_END}
    details = {
        "ops": ops,
        "failed_fraction": result["failed"] / ops,
        "op_tail": {"percentile": pct, "samples_beyond": beyond,
                    "samples": ops},
        "setup_samples_s": setups,
        "host_steal_share": result["host_steal_share"],
    }
    return metrics, details


def per_layer(result):
    lat, traced = result["latencies"], result["traced"]
    on = [t for t, f in zip(lat, traced) if f]
    off = [t for t, f in zip(lat, traced) if not f]
    metrics = tracing.layer_metrics(result["trace"], len(on))
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(on) / statistics.median(off),
        "unit": "ratio",
    }
    details = {
        "traced_ops": len(on),
        "untraced_ops": len(off),
        "traced_p50_ms": 1e3 * statistics.median(on),
        "untraced_p50_ms": 1e3 * statistics.median(off),
        "unpatched": result["trace"]["missing"],
        "effects": {name: tracing.effect_of(name) for name in metrics},
    }
    return metrics, details


def measure(workload, seed, seconds, trace):
    if trace:
        result, _ = run_worker(workload, seed, "--seconds", seconds,
                               "--trace", "alt")
        metrics, details = per_layer(result)
    else:
        # half the set-up samples before the timed worker, half after, so
        # that they span the run like its ops do
        def setup_only():
            return run_worker(workload, seed, "--setup-only")[1]

        extra = SETUP_SAMPLES[workload] - 1
        setups = [setup_only() for _ in range(extra // 2)]
        result, setup = run_worker(workload, seed, "--seconds", seconds)
        setups += [setup] + [setup_only() for _ in range(extra - extra // 2)]
        metrics, details = end_to_end(result, setups)
    setup_error = result["setup_error"]
    details.update({
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "environment": result["environment"],
        "setup_error": setup_error, "failures": result["failures"],
        "metrics": metrics,
    })
    summary = {
        "correct": setup_error is None and result["failed"] == 0,
        "attempted": len(result["latencies"]),
        "failed": result["failed"],
        "metrics": metrics,
    }
    return details, summary, result["latencies"]


def self_test(seed):
    problems = []
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    if [m["name"] for m in bench["end_to_end"]] != [m[0] for m in END_TO_END]:
        problems.append("BENCHMARK.json end_to_end differs from END_TO_END")
    if ([m["name"] for m in bench["per_layer"]]
            != [m[0] for m in tracing.LAYER_METRICS]):
        problems.append("BENCHMARK.json per_layer differs from LAYER_METRICS")
    report = {}
    for workload in WORKLOADS:
        ops = SELF_TEST_OPS[workload]
        plain, _ = run_worker(workload, seed, "--ops", ops)
        traced = [run_worker(workload, seed, "--ops", ops, "--trace", "all")[0]
                  for _ in range(2)]
        counts = [
            {name: tracing.layer_metrics(r["trace"], ops)[name]["value"]
             for name in tracing.EXACT_COUNTERS}
            for r in traced
        ]
        for r in [plain] + traced:
            if r["setup_error"] or r["failed"]:
                problems.append(f"{workload}: failed ops "
                                f"{r['setup_error'] or r['failures']}")
        if len({r["digest"] for r in [plain] + traced}) != 1:
            problems.append(f"{workload}: checked outputs differ between runs")
        if counts[0] != counts[1]:
            diff = [k for k in counts[0] if counts[0][k] != counts[1][k]]
            problems.append(f"{workload}: exact counters differ: {diff}")
        report[workload] = {"ops": ops, "digest": plain["digest"],
                            "counters": counts[0]}
    print(json.dumps({"self_test": report, "problems": problems}, indent=1))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(
        description="spinrelay benchmark",
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "spinrelay" / "__init__.py").is_file():
        print(f"no spinrelay package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    WORK.mkdir(exist_ok=True)
    details, summary, latencies = measure(args.workload, args.seed,
                                          args.seconds, args.trace)
    with open(WORK / f"BENCH_{args.workload}_trace{args.trace}.json",
              "w") as fh:
        json.dump({**details, "latencies_s": latencies, "result": summary},
                  fh, indent=1)
    print(json.dumps(details))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
