"""Capture the reference outputs that the benchmark checks ops against.

    python3 perfbench/capture_reference.py

Writes reference/sweep_tables.json (every table of the default
`spinrelay sweep`) and reference/cascade_n100.json (t_k, p_k of the forced
all-failure run of the `sampled` chain). Run it only on a commit whose
numbers are known to be right; the committed files were captured from the
commit that added this benchmark.
"""

import json
import shutil
import subprocess
import sys

from worker import HERE, REFERENCE, WORK, Sampled, forced_cascade, read_tables


def main():
    import spinrelay

    out_dir = WORK / "capture"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        subprocess.run(
            [sys.executable, str(HERE / "cli_child.py"), "--", "sweep",
             "--out-dir", str(out_dir)],
            check=True, stdout=subprocess.DEVNULL,
        )
        tables = read_tables(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    REFERENCE.mkdir(exist_ok=True)
    with open(REFERENCE / "sweep_tables.json", "w") as fh:
        json.dump(tables, fh, indent=1, sort_keys=True)
        fh.write("\n")

    spec = spinrelay.ChainSpec(n_sites=Sampled.N_SITES, d=3)
    records = forced_cascade(spinrelay, spec, Sampled.MAX_ITER)
    with open(REFERENCE / "cascade_n100.json", "w") as fh:
        json.dump({"n_sites": spec.n_sites, "d": spec.d, "mode": "exact",
                   "strategy": "optimized", "records": records}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
