"""Benchmark entry point: python3 meshbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src` directory. With --trace 0 the last stdout line is a JSON object with
every end-to-end metric of BENCHMARK.json, with --trace 1 every per-layer
metric (from a separate traced window). `--workload all` runs each workload
in its own process and prints them all. The exit code is 0 only when every
output check passed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# One BLAS thread: the load is one client in one thread, and the matrices
# are small. Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("train_4path", "infer_1path", "generate_io")


def _run_all(args):
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines else None
    done = [r for r in results.values() if r is not None]
    print(json.dumps({
        "correct": len(done) == len(WORKLOADS) and all(r["correct"] for r in done),
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "metrics": {name: r and r["metrics"] for name, r in results.items()},
    }))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-references", action="store_true",
                    help="rewrite meshbench/references.json from the current code")
    args = ap.parse_args(argv)

    if not (SRC / "meshcontact" / "__init__.py").is_file():
        print(f"meshcontact sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all" and not args.record_references:
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    import harness

    if args.record_references:
        harness.record_references()
        return 0
    result = harness.run_workload(args.workload, args.seed, args.seconds, args.trace)
    harness.report(result)
    print(f"  result file: {harness.write_result(result).relative_to(ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
