"""Command-line entry point.

Every subcommand emits machine-readable output (JSON documents with a
config block, or CSV with a `# key = value` config preamble) so any file
can be regenerated from its own metadata. Validation failures exit 2 with
a single-line JSON error on stderr.
"""

import argparse
import json
import os
import sys

import numpy as np

from .analysis import (
    csv_text,
    failure_curves,
    iteration_probabilities,
    linear_fit,
    post_failure_distribution,
    powerlaw_fit,
    read_table_csv,
    sweep_first_iteration,
    write_table_csv,
)
from .full_oracle import cross_validate
from .kernels import probability_series
from .protocol_engine import (
    DEFAULT_GRID_STEP,
    OutcomeSource,
    run_iterative_protocol,
)
from .sector_dynamics import ChainSpec, sector_basis
from .spin_algebra import solve_swap_coefficients

ORACLE_TOL = 1e-8


def _chain_spec(args):
    return ChainSpec(
        n_sites=args.n, d=args.d, j=args.j, b_field=args.b
    )


def _emit_text(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit_json(config, results, path):
    _emit_text(
        json.dumps({"config": config, "results": results}, indent=2) + "\n",
        path,
    )


def _cmd_simulate(args):
    spec = _chain_spec(args)
    source = OutcomeSource(script=args.force, seed=args.seed)
    result = run_iterative_protocol(
        spec,
        None,
        strategy=args.strategy,
        max_iter=args.max_iter,
        mode=args.mode,
        outcome_source=source,
        grid_step=args.grid_step,
        later_window_jt=args.later_window,
    )
    config = {
        "subcommand": "simulate",
        "n": args.n, "d": args.d, "j": args.j, "b": args.b,
        "mode": args.mode, "strategy": args.strategy,
        "max_iter": args.max_iter, "seed": args.seed,
        "force": args.force, "grid_step": args.grid_step,
        "later_window": args.later_window,
    }
    if args.format == "json":
        results = {
            "records": [
                {
                    "k": r.k,
                    "t_k": r.t_k,
                    "p_k": r.p_k,
                    "outcome": r.outcome.value,
                    "window": list(r.window),
                }
                for r in result.records
            ],
            "p_fail_cumulative": result.p_fail_cumulative,
            "total_time": result.total_time,
            "corrected": result.corrected,
            "p_fail": result.p_fail,
        }
        _emit_json(config, results, args.out)
    else:
        rows = [
            (r.k, r.t_k, r.p_k, r.outcome.value, r.window[0], r.window[1], pf)
            for r, pf in zip(result.records, result.p_fail_cumulative)
        ]
        _emit_text(
            csv_text(
                sorted(config.items()),
                ["k", "t_k", "p_k", "outcome", "window_min", "window_max",
                 "p_fail_cumulative"],
                rows,
            ),
            args.out,
        )
    return 0


def _cmd_sweep(args):
    os.makedirs(args.out_dir, exist_ok=True)
    written = []

    def _put(table, name):
        path = os.path.join(args.out_dir, name)
        write_table_csv(table, path)
        written.append(path)

    n_list = list(range(args.n_min, args.n_max + 1, args.n_step))
    p_table, t_table = sweep_first_iteration(
        n_list, args.mode, grid_step=args.grid_step
    )
    _put(p_table, "first_iteration_probability.csv")
    _put(t_table, "first_iteration_time.csv")
    for n in args.dist_n:
        dist = post_failure_distribution(n, args.mode, grid_step=args.grid_step)
        config = {
            "subcommand": "sweep", "product": "post_failure_distribution",
            "n": n, "mode": args.mode, "grid_step": args.grid_step,
        }
        path = os.path.join(args.out_dir, f"post_failure_distribution_n{n}.csv")
        _emit_text(
            csv_text(sorted(config.items()), ["site", "probability"],
                     list(enumerate(dist.tolist(), start=1))),
            path,
        )
        written.append(path)
    for n in args.iter_n:
        _put(
            iteration_probabilities(
                n, args.k_max, args.mode, grid_step=args.grid_step
            ),
            f"iteration_probabilities_n{n}.csv",
        )
    curves = failure_curves(
        args.cascade_n, args.k_max, "optimized", args.mode,
        grid_step=args.grid_step,
    )
    for n, table in curves.items():
        _put(table, f"failure_curves_n{n}.csv")
    print(json.dumps({"written": written}))
    return 0


def _cmd_fit(args):
    table = read_table_csv(args.input)
    config = {
        "subcommand": "fit", "kind": args.kind, "input": args.input,
        "mode": table.mode, "parameter": table.parameter,
    }
    if args.kind == "powerlaw":
        fit = powerlaw_fit(table)
        results = {
            "amplitude": fit.amplitude,
            "exponent": fit.exponent,
            "r_squared": fit.r_squared,
        }
    else:
        slope, intercept, r2 = linear_fit(table)
        results = {"slope": slope, "intercept": intercept, "r_squared": r2}
    _emit_json(config, results, args.out)
    return 0


def _cmd_oracle_check(args):
    spec = _chain_spec(args)
    report = cross_validate(
        spec, n_trials=args.trials, k_max=args.k_max, seed=args.seed,
        mode=args.mode,
    )
    checks = {
        "swap_source_deviation": report["swap_source_deviation"] <= 1e-10,
        "one_particle_restriction":
            report["one_particle_restriction"] <= 1e-10,
        "probability_deviation": report["probability_deviation"] <= ORACLE_TOL,
        "distribution_deviation":
            report["distribution_deviation"] <= ORACLE_TOL,
        "charge_drift": report["charge_drift"] <= 1e-10,
        "sector_closure": report["sector_closure"] <= 1e-10,
        "success_probability_deviation":
            report["success_probability_deviation"] <= ORACLE_TOL,
        "corrected_fidelity": report["corrected_fidelity"] >= 1 - ORACLE_TOL,
        "delivered_payload_deviation":
            report["delivered_payload_deviation"] <= ORACLE_TOL,
        "sector_mixing": report["sector_mixing"] <= 1e-10,
        "norm_drift": report["norm_drift"] <= 1e-10,
    }
    passed = all(checks.values())
    config = {
        "subcommand": "oracle-check",
        "n": args.n, "d": args.d, "j": args.j, "b": args.b,
        "trials": args.trials, "k_max": args.k_max, "seed": args.seed,
        "mode": args.mode,
    }
    _emit_json(config, {**report, "checks": checks, "passed": passed},
               args.out)
    return 0 if passed else 1


def _cmd_swap_coefficients(args):
    dec = solve_swap_coefficients(args.d)
    _emit_json(
        {"subcommand": "swap-coefficients", "d": args.d},
        {"b": [float(b) for b in dec.b], "residual": dec.residual},
        args.out,
    )
    return 0


def _cmd_propagator(args):
    spec = _chain_spec(args)
    basis = sector_basis(spec, args.mode)
    weights = basis.vectors[-1, :] * basis.vectors[0, :]
    jt_max = args.t_max if args.t_max is not None else 2.0 * args.n
    n_steps = int(np.floor(jt_max / args.grid_step + 1e-9))
    jt = args.grid_step * np.arange(1, n_steps + 1)
    pvals = probability_series(weights, basis.freqs, jt / spec.j)
    config = {
        "subcommand": "propagator", "n": args.n, "d": args.d, "j": args.j,
        "b": args.b, "mode": args.mode, "t_max": jt_max,
        "grid_step": args.grid_step,
    }
    _emit_text(
        csv_text(sorted(config.items()), ["jt", "probability"],
                 list(zip(jt.tolist(), pvals.tolist()))),
        args.out,
    )
    return 0


def _cmd_distribution(args):
    dist = post_failure_distribution(
        args.n, args.mode, grid_step=args.grid_step, j=args.j
    )
    config = {
        "subcommand": "distribution", "n": args.n, "d": args.d,
        "j": args.j, "b": args.b, "mode": args.mode,
        "grid_step": args.grid_step,
    }
    _emit_text(
        csv_text(sorted(config.items()), ["site", "probability"],
                 list(enumerate(dist.tolist(), start=1))),
        args.out,
    )
    return 0


def _add_chain_args(p, n_default=None):
    p.add_argument("--n", type=int, required=n_default is None,
                   default=n_default, help="chain length N")
    p.add_argument("--d", type=int, default=3, help="levels per site")
    p.add_argument("--j", type=float, default=1.0, help="exchange coupling")
    p.add_argument("--b", type=float, default=0.0, help="magnetic field")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinrelay",
        description="iterative measurement-based state transfer on "
                    "d-level ferromagnetic chains",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="run the iterative protocol")
    _add_chain_args(p)
    p.add_argument("--mode", choices=["spectral", "exact"], default="exact")
    p.add_argument("--strategy", choices=["optimized", "regular"],
                   default="optimized")
    p.add_argument("--max-iter", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", default="",
                   help="forced outcomes, one S/F per iteration; shorter "
                        "scripts fall back to sampling")
    p.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP)
    p.add_argument("--later-window", type=float, default=10.0,
                   help="search window (in Jt) for iterations past the first")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("sweep", help="emit the standard data products")
    p.add_argument("--mode", choices=["spectral", "exact"], default="exact")
    p.add_argument("--n-min", type=int, default=10)
    p.add_argument("--n-max", type=int, default=100)
    p.add_argument("--n-step", type=int, default=5)
    p.add_argument("--dist-n", type=int, nargs="*", default=[50, 100])
    p.add_argument("--iter-n", type=int, nargs="*", default=[20, 40])
    p.add_argument("--cascade-n", type=int, nargs="*", default=[25, 100])
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("fit", help="fit a sweep CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=["powerlaw", "linear"],
                   default="powerlaw")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("oracle-check",
                       help="cross-validate the sector engine against the "
                            "dense simulator")
    _add_chain_args(p, n_default=4)
    p.add_argument("--mode", choices=["spectral", "exact"], default="exact")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_oracle_check)

    p = sub.add_parser("swap-coefficients",
                       help="polynomial decomposition of the two-site swap")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_swap_coefficients)

    p = sub.add_parser("propagator",
                       help="receiver success probability time series")
    _add_chain_args(p)
    p.add_argument("--mode", choices=["spectral", "exact"], default="exact")
    p.add_argument("--t-max", type=float, default=None,
                   help="series end in Jt units (default 2N)")
    p.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_propagator)

    p = sub.add_parser("distribution",
                       help="post-failure excitation distribution")
    _add_chain_args(p)
    p.add_argument("--mode", choices=["spectral", "exact"], default="exact")
    p.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_distribution)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError, TypeError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
