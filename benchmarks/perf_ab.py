"""Paired A/B of the end-to-end slot benchmark: a base revision vs this checkout.

    make perf-ab BASE=<rev> W=churn-lossy-3k SEED=1 PAIRS=10 [TRACE=1]
    python3 benchmarks/perf_ab.py --base <rev> --workload churn-lossy-3k --seed 1 --pairs 10 [--trace 1]

Both trees run from temporary ``git worktree`` checkouts side by side,
``<tmp>/base`` and ``<tmp>/chng``, which are removed on exit: a tree's
directory moves its timings, so the two run from paths of equal
length.  The change tree is this checkout's tracked files as they are,
uncommitted edits included (a ``git stash create`` commit, or ``HEAD``
when there are no edits); untracked files under ``src/`` or
``perfbench/`` would not reach it, so their presence stops the A/B
before it starts.  Each pair runs
``perfbench/run.py --workload W --seed S --trace T`` once on each tree,
one after the other, and alternates which tree goes first so that a
drift in host speed favours neither side.  A run's last output line is
its JSON result.

Traced runs add ``--seconds 0``: each tree then traces exactly the
workload's fixed slots, so both trees' per-layer times cover the same
slots (with the default budget a faster tree would trace more, later
slots).  Untraced runs keep the default budget, which is what
``BENCHMARK.json`` runs; a faster tree can fit an extra pass from
another sub-seed into it, so the report warns on every pair whose two
runs measured a different number of passes, and when there are such
pairs it prints a second, pass-matched table: the same report over
only the pairs whose two runs measured the same number of passes.

For every metric ``BENCHMARK.json`` names — the end-to-end metrics
untraced (``--trace 0``, the default), the per-layer metrics traced
(``--trace 1``) — the report gives each side's median and quartiles
over the pairs, the change of the median, whether the median moved the
better way by more than the base's interquartile range, and on how
many pairs this checkout did better (equal values are ties, not wins).
An end-to-end metric also gets a verdict against its ``bound`` (a
fraction of the base median): ``unresolved`` when the base's
interquartile range is wider than the bound and not every change run
reads better than every base run, else ``worse`` when the change's
median is worse than the base's by more than the bound, else ``ok``.
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
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str, repo: Path = REPO_ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=repo, check=True, capture_output=True, text=True
    ).stdout.strip()


def untracked_sources(repo: Path = REPO_ROOT) -> List[str]:
    """Untracked files under ``src/`` and ``perfbench/``, which no checkout carries."""
    return _git(
        "ls-files", "--others", "--exclude-standard", "--", "src", "perfbench",
        repo=repo,
    ).splitlines()


def tree_paths(tmp: Path) -> Dict[str, Path]:
    """The two trees' directories: ``tmp/base`` and ``tmp/chng``, of equal length."""
    return {"base": tmp / "base", "change": tmp / "chng"}


def check_out(trees: Dict[str, Path], base_rev: str, repo: Path = REPO_ROOT) -> None:
    """Add the base and the change as detached worktrees at ``trees``.

    The change is the checkout's tracked files as they are: a
    ``git stash create`` commit of the uncommitted edits, or ``HEAD``
    when there are none.
    """
    revs = {"base": base_rev, "change": _git("stash", "create", repo=repo) or "HEAD"}
    for side, tree in trees.items():
        _git("worktree", "add", "--detach", str(tree), revs[side], repo=repo)


def remove_trees(trees: Dict[str, Path], repo: Path = REPO_ROOT) -> None:
    """Remove the worktrees :func:`check_out` added (those that exist)."""
    for tree in trees.values():
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(tree)],
            cwd=repo, capture_output=True,
        )
        shutil.rmtree(tree, ignore_errors=True)
    subprocess.run(["git", "worktree", "prune"], cwd=repo, capture_output=True)


def run_bench(
    tree: Path, workload: str, seed: int, trace: int, out: Path
) -> Optional[dict]:
    """One run on ``tree``: its metrics and digest, or None if it failed."""
    # Each tree imports the program from its own src/ only.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        bench_command(tree, workload, seed, trace, out),
        cwd=tree, env=env, capture_output=True, text=True,
    )
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
    # Untraced runs print "... over P passes"; traced runs have no passes.
    metrics["passes"] = next(
        (int(line.split()[-2]) for line in lines if line.endswith(" passes")), None
    )
    return metrics


def bench_command(
    tree: Path, workload: str, seed: int, trace: int, out: Path
) -> List[str]:
    """The ``perfbench/run.py`` command line of one run on ``tree``."""
    cmd = [
        sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace), "--out", str(out),
    ]
    if trace:
        # The fixed slots only, so both trees trace the same ones.
        cmd += ["--seconds", "0"]
    return cmd


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), linear interpolation between order statistics."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(base: List[float], change: List[float], lower: bool, bound: float) -> str:
    """``unresolved``, ``worse`` or ``ok`` for one end-to-end metric.

    ``bound`` is the fraction of the base median by which the metric
    may get worse.  Spread wider than the bound leaves the comparison
    unresolved unless the change's runs all read better than the base's.
    """
    (b1, bm, b3), (_, cm, _) = quartiles(base), quartiles(change)
    limit = bound * abs(bm)
    better = max(change) < min(base) if lower else min(change) > max(base)
    if b3 - b1 > limit and not better:
        return "unresolved"
    loss = (cm - bm) if lower else (bm - cm)
    return "worse" if loss > limit else "ok"


def report(pairs: List[Tuple[dict, dict]], metrics: List[dict]) -> None:
    """Print each metric's medians, quartiles, win count and verdict."""
    print(f"\n{'metric':<22} {'base median [q1, q3]':>32} {'change median [q1, q3]':>32}"
          f" {'Δ median':>9} {'>IQR':>5} {'wins':>6} {'verdict':>10}")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        gain = (bm - cm) if lower else (cm - bm)
        rel = f"{(cm - bm) / bm:+.1%}" if bm else "n/a"
        # Per-layer metrics carry no bound, so no verdict.
        judged = verdict(base, change, lower, metric["bound"]) if "bound" in metric else ""
        print(f"{name:<22} {f'{bm:.4g} [{b1:.4g}, {b3:.4g}]':>32} "
              f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>32} {rel:>9} "
              f"{'yes' if gain > b3 - b1 else 'no':>5} {f'{wins}/{len(pairs)}':>6}"
              f" {judged:>10}")


def summarize(pairs: List[Tuple[dict, dict]], metrics: List[dict], trace: int) -> None:
    """The report, the digest matches and, untraced, the pass counts.

    When some pairs' two runs measured a different number of passes, a
    second report follows over only the pairs whose runs measured the
    same number.
    """
    report(pairs, metrics)
    same = sum(b["digest"] == c["digest"] for b, c in pairs)
    kind = "traced digests" if trace else "digests"
    print(f"\n{kind} equal on {same}/{len(pairs)} pairs")
    if trace:
        return
    matched = [(b, c) for b, c in pairs if b["passes"] == c["passes"]]
    print(f"pass counts differ on {len(pairs) - len(matched)}/{len(pairs)} pairs")
    if len(matched) < len(pairs):
        print(f"\npass-matched: the {len(matched)} pairs whose two runs measured "
              f"the same number of passes")
        if matched:
            report(matched, metrics)


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
    stray = untracked_sources()
    if stray:
        sys.exit("perf-ab: untracked files would not reach the change tree; "
                 "commit, stage or remove them first:\n  " + "\n  ".join(stray))

    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    headline = "trace.slot_p50_s" if args.trace else "slot_p50_s"
    base_rev = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    dirty = " (dirty)" if _git("status", "--porcelain", "--untracked-files=no") else ""
    print(f"# perf-ab {args.workload} seed={args.seed} trace={args.trace} pairs={args.pairs} "
          f"nproc={os.cpu_count()} base={base_rev[:12]} "
          f"change={_git('rev-parse', 'HEAD')[:12]}{dirty}", flush=True)

    # SIGTERM unwinds like Ctrl-C, so the worktrees are removed either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    tmp = Path(tempfile.mkdtemp(prefix="perf-ab-"))
    trees = tree_paths(tmp)
    failed = {"base": 0, "change": 0}
    pairs = []
    try:
        check_out(trees, base_rev)
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
                passes = (result["base"]["passes"], result["change"]["passes"])
                if passes[0] != passes[1]:
                    print(f"  warning: pair {i + 1} measured {passes[0]} passes on "
                          f"base, {passes[1]} on change", flush=True)
    finally:
        remove_trees(trees)
        shutil.rmtree(tmp, ignore_errors=True)

    if pairs:
        summarize(pairs, metrics, args.trace)
    print(f"\nfailed runs: base {failed['base']}, change {failed['change']} "
          f"({len(pairs)} of {args.pairs} pairs compared)")
    return 1 if failed["base"] or failed["change"] else 0


if __name__ == "__main__":
    sys.exit(main())
