"""Run the end-to-end slot benchmark.

One workload, one mode (what BENCHMARK.json's command runs)::

    python3 perfbench/run.py --workload static-5k --seed 1 --seconds 8 --trace 0

prints every metric with its unit, the determinism digest, and as its
last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the full record (provenance, samples, spans) goes to
``perfbench/out/<workload>.seed<seed>.trace<0|1>.json``.

Every workload in both modes, each in its own process so peak memory
is the workload's own::

    python3 perfbench/run.py --all --seed 1
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name (see --list)")
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    parser.add_argument("--list", action="store_true", help="list workloads and exit")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=8.0,
        help="slot time to measure at least (whole passes; default 8)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    return parser.parse_args(argv)


def _print_outcome(name, seed, trace, out) -> None:
    rec = out.record
    width = max(len(k) for k in out.metrics)
    print(f"# {name} seed={seed} trace={trace} nproc={rec['provenance']['nproc']} "
          f"git={rec['provenance']['git_rev'][:12]}")
    for key, (value, unit) in out.metrics.items():
        print(f"{key:<{width}}  {value:.6g} {unit}")
    if not trace:
        print(f"slot_tail_s is p{rec['slot_tail_percentile']:.1f} of "
              f"{rec['slot_samples']} slots over {rec['passes']} passes")
    print(f"digest {rec['digest']}")
    for err in out.errors:
        print(f"FAILED {err}")


def _run_one(args) -> int:
    import slotbench

    if args.workload not in slotbench.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; see --list")
    workload = slotbench.WORKLOADS[args.workload]
    out = slotbench.run(workload, args.seed, args.seconds, args.trace)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{workload.name}.seed{args.seed}.trace{args.trace}.json"
    path.write_text(json.dumps(out.record, indent=1) + "\n")
    _print_outcome(workload.name, args.seed, args.trace, out)
    print(f"record {path}")
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()},
    }))
    return 0


def _run_all(args) -> int:
    import slotbench

    status = 0
    for name in slotbench.WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--out", str(args.out),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode or not lines:
                sys.stderr.write(proc.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}\n")
            if not result["correct"]:
                status = 1
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.list:
        import slotbench

        for w in slotbench.WORKLOADS.values():
            print(f"{w.name}: {w.why}")
        return 0
    if args.all:
        return _run_all(args)
    if not args.workload:
        sys.exit("give --workload NAME, --all or --list")
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
