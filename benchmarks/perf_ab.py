"""Paired A/B of the end-to-end slot benchmark: a base revision vs this checkout.

    make perf-ab BASE=<rev> W=churn-lossy-3k SEED=1 PAIRS=10 [TRACE=1]
    python3 benchmarks/perf_ab.py --base <rev> --workload churn-lossy-3k --seed 1 --pairs 10 [--trace 1]

The base revision is checked out into a temporary ``git worktree``,
which is removed on exit.  Each pair runs
``perfbench/run.py --workload W --seed S --trace T`` once on each tree,
one after the other, and alternates which tree goes first so that a
drift in host speed favours neither side.  A run's last output line is
its JSON result.

For every metric ``BENCHMARK.json`` names — the end-to-end metrics
untraced (``--trace 0``, the default), the per-layer metrics traced
(``--trace 1``) — the report gives each side's median and quartiles
over the pairs, the change of the median, whether the median moved the
better way by more than the base's interquartile range, and on how
many pairs this checkout did better (equal values are ties, not wins).
It also counts the pairs on which both trees printed the same
determinism digest (the traced digest when traced).  A run fails if
it exits non-zero, prints no JSON result or reports failed operations;
a pair with a failed run is left out of the comparison.  Runs are sequential,
so the A/B needs no more memory than one benchmark run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO_ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def run_bench(
    tree: Path, workload: str, seed: int, trace: int, out: Path
) -> Optional[dict]:
    """One run on ``tree``: its metrics and digest, or None if it failed."""
    # Each tree imports the program from its own src/ only.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [
        sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace), "--out", str(out),
    ]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode or result is None or result.get("failed"):
        sys.stderr.write(
            f"run on {tree} failed (exit {proc.returncode})\n{proc.stderr[-2000:]}\n"
        )
        return None
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics["digest"] = next(
        (line.split()[1] for line in lines if line.startswith("digest ")), None
    )
    return metrics


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), linear interpolation between order statistics."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def report(pairs: List[Tuple[dict, dict]], metrics: List[dict]) -> None:
    """Print each metric's medians, quartiles and the change's win count."""
    print(f"\n{'metric':<22} {'base median [q1, q3]':>32} {'change median [q1, q3]':>32}"
          f" {'Δ median':>9} {'>IQR':>5} {'wins':>6}")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        gain = (bm - cm) if lower else (cm - bm)
        rel = f"{(cm - bm) / bm:+.1%}" if bm else "n/a"
        print(f"{name:<22} {f'{bm:.4g} [{b1:.4g}, {b3:.4g}]':>32} "
              f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>32} {rel:>9} "
              f"{'yes' if gain > b3 - b1 else 'no':>5} {f'{wins}/{len(pairs)}':>6}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, help="perfbench workload name")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: traced runs, compared on the per-layer metrics",
    )
    args = parser.parse_args(argv)

    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    headline = "trace.slot_p50_s" if args.trace else "slot_p50_s"
    base_rev = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    dirty = " (dirty)" if _git("status", "--porcelain", "--untracked-files=no") else ""
    print(f"# perf-ab {args.workload} seed={args.seed} trace={args.trace} pairs={args.pairs} "
          f"nproc={os.cpu_count()} base={base_rev[:12]} "
          f"change={_git('rev-parse', 'HEAD')[:12]}{dirty}", flush=True)

    # SIGTERM unwinds like Ctrl-C, so the worktree is removed either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    tmp = Path(tempfile.mkdtemp(prefix="perf-ab-"))
    trees = {"base": tmp / "base", "change": REPO_ROOT}
    failed = {"base": 0, "change": 0}
    pairs = []
    try:
        _git("worktree", "add", "--detach", str(trees["base"]), base_rev)
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            result = {}
            for side in order:
                result[side] = run_bench(
                    trees[side], args.workload, args.seed, args.trace, tmp / f"out-{side}"
                )
                failed[side] += result[side] is None
            summary = "  ".join(
                f"{side}={result[side][headline]:.4g}s" if result[side] else f"{side}=FAILED"
                for side in order
            )
            print(f"pair {i + 1}/{args.pairs} {headline}  {summary}", flush=True)
            if result["base"] and result["change"]:
                pairs.append((result["base"], result["change"]))
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(trees["base"])],
            cwd=REPO_ROOT, capture_output=True,
        )
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=REPO_ROOT, capture_output=True)

    if pairs:
        report(pairs, metrics)
        same = sum(b["digest"] == c["digest"] for b, c in pairs)
        kind = "traced digests" if args.trace else "digests"
        print(f"\n{kind} equal on {same}/{len(pairs)} pairs")
    print(f"\nfailed runs: base {failed['base']}, change {failed['change']} "
          f"({len(pairs)} of {args.pairs} pairs compared)")
    return 1 if failed["base"] or failed["change"] else 0


if __name__ == "__main__":
    sys.exit(main())
