r"""Run one hexwave benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scatter-icp --seed 0 \
        --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/`` next
to this directory; without it the script exits with code 2 and prints no
result.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Traced runs also write their spans to
``.bench_build/perfbench/`` under the working directory.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def write_spans(repeats, workload: str, seed: int) -> Path:
    out_dir = Path(".bench_build") / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for i, r in enumerate(x for x in repeats if x.traced):
            for s in r.spans:
                fh.write(json.dumps({"repeat": i, **s.as_dict()}) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hexwave" / "__init__.py").is_file():
        print(f"error: hexwave sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import perf_harness as h

    if args.workload not in h.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(h.WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, pid {os.getpid()}")
    outcome = h.run_workload(
        h.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        check_incident=args.workload in h.INCIDENT_CHECKED)
    metrics, lines = h.summarize(outcome, bool(args.trace))
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if args.trace:
        print(f"spans written to "
              f"{write_spans(outcome['repeats'], args.workload, args.seed)}")
    repeats = outcome["repeats"]
    failed = sum(not r.ok for r in repeats)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(repeats),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
