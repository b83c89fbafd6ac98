#!/usr/bin/env python3
"""Run one partsched benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/`.  The
last stdout line is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer ones
with `--trace 1`.  A result file (and, traced, a span file) is written
under `perfbench/out/`.  Workloads and metrics are described in
perfbench/README.md and BENCHMARK.json.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# Single process, no extra threads: BLAS pools are pinned to one thread
# before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, config) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": {"kind": type(config).__name__, **vars(config)},
        "commit": git_commit(ROOT),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "partsched" / "__init__.py").is_file():
        print(f"error: no partsched sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    config = workloads.WORKLOADS[args.workload]
    report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT)

    info = provenance(args, config)
    print("provenance " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in report["end_to_end"].items():
        print(f"{name} = {value!r} {unit}")
    details = report["details"]
    print(f"op_ms_tail is p{details['op_tail_percentile']:.1f} of "
          f"{details['operations_timed']} timed operations")
    print(f"failed_share = {details['failed_share']!r} "
          f"({report['failed']} of {report['attempted']} operations)")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        for name, (value, unit) in report["per_layer"].items():
            print(f"{name} = {value!r} {unit}")
        spans_path = OUT / f"spans-{stem}.jsonl"
        report.pop("spans").write(spans_path)
        print(f"wrote {spans_path.relative_to(ROOT)}")
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"provenance": info, **report}, indent=1, sort_keys=True) + "\n")

    chosen = report["per_layer"] if args.trace else report["end_to_end"]
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()}
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
