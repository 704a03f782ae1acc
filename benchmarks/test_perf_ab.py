"""The paired A/B: its report on synthetic pairs, and its two worktrees."""

from __future__ import annotations

import subprocess

import perf_ab

METRICS = [
    {"name": "slot_p50_s", "better": "lower", "bound": 0.25},
    {"name": "welfare_per_slot", "better": "higher", "bound": 0.08},
    {"name": "solve.self_s", "better": "lower"},
]


def pairs_of(name, base, change):
    return [({name: b}, {name: c}) for b, c in zip(base, change)]


def verdict_of(capsys, metric, base, change):
    """The verdict column ``report`` prints for one metric."""
    perf_ab.report(pairs_of(metric["name"], base, change), [metric])
    header, row = capsys.readouterr().out.strip().splitlines()
    assert header.split()[-1] == "verdict"
    return row.split()[-1]


def test_small_change_within_bound_is_ok(capsys):
    base = [1.00, 1.01, 0.99, 1.00]
    assert verdict_of(capsys, METRICS[0], base, [1.10, 1.09, 1.11, 1.10]) == "ok"


def test_change_past_bound_is_worse(capsys):
    base = [1.00, 1.01, 0.99, 1.00]
    assert verdict_of(capsys, METRICS[0], base, [1.30, 1.31, 1.29, 1.30]) == "worse"
    # Higher is better: a fall past the bound is worse too.
    base = [100.0, 101.0, 99.0, 100.0]
    assert verdict_of(capsys, METRICS[1], base, [90.0, 91.0, 89.0, 90.0]) == "worse"


def test_spread_wider_than_bound_is_unresolved(capsys):
    base = [1.0, 2.0, 1.0, 2.0]  # IQR 1.0 against a bound of 0.25 × 1.5
    assert verdict_of(capsys, METRICS[0], base, [1.4, 1.5, 1.6, 1.5]) == "unresolved"


def test_wide_spread_resolves_when_every_change_run_is_better(capsys):
    base = [1.0, 2.0, 1.0, 2.0]
    assert verdict_of(capsys, METRICS[0], base, [0.5, 0.6, 0.7, 0.6]) == "ok"


def test_per_layer_metrics_get_no_verdict(capsys):
    perf_ab.report(pairs_of("solve.self_s", [1.0, 1.0], [2.0, 2.0]), [METRICS[2]])
    row = capsys.readouterr().out.strip().splitlines()[-1]
    assert row.split()[-1] == "0/2"  # the wins column ends the row


def test_traced_runs_trace_the_fixed_slots(tmp_path):
    """Traced runs drop the time budget; untraced runs keep it."""
    traced = perf_ab.bench_command(tmp_path, "premiere-3k", 1, 1, tmp_path / "out")
    assert traced[traced.index("--seconds") + 1] == "0"
    assert traced[traced.index("--trace") + 1] == "1"
    untraced = perf_ab.bench_command(tmp_path, "premiere-3k", 1, 0, tmp_path / "out")
    assert "--seconds" not in untraced


def test_run_reads_the_pass_count(tmp_path):
    """An untraced run's "... over P passes" line gives its pass count."""
    script = tmp_path / "perfbench" / "run.py"
    script.parent.mkdir()
    script.write_text(
        "import json\n"
        "print('slot_tail_s is p95.0 of 40 slots over 5 passes')\n"
        "print('digest abc')\n"
        "print(json.dumps({'failed': 0, 'metrics': {'slot_p50_s': {'value': 0.1}}}))\n"
    )
    metrics = perf_ab.run_bench(tmp_path, "premiere-3k", 1, 0, tmp_path / "out")
    assert metrics == {"slot_p50_s": 0.1, "digest": "abc", "passes": 5}


def stub_tree(root, passes, p50):
    """A tree whose ``perfbench/run.py`` prints one fixed untraced result."""
    script = root / "perfbench" / "run.py"
    script.parent.mkdir(parents=True)
    script.write_text(
        "import json\n"
        f"print('slot_tail_s is p95.0 of 40 slots over {passes} passes')\n"
        "print('digest abc')\n"
        f"print(json.dumps({{'failed': 0, 'metrics': {{'slot_p50_s': {{'value': {p50}}}}}}}))\n"
    )
    return root


def wins_column(table):
    """The wins column of the one metric row of a report."""
    return table.strip().splitlines()[1].split()[-2]


def test_uneven_pass_counts_add_a_pass_matched_table(tmp_path, capsys):
    """Pairs whose two runs measured different pass counts drop out of a
    second table; with every pair even, nothing extra is printed."""
    base = stub_tree(tmp_path / "base", 4, 0.2)
    even = stub_tree(tmp_path / "even", 4, 0.1)
    extra = stub_tree(tmp_path / "extra", 5, 0.3)

    def pair(change):
        out = tmp_path / "out"
        return (perf_ab.run_bench(base, "premiere-3k", 1, 0, out),
                perf_ab.run_bench(change, "premiere-3k", 1, 0, out))

    pairs = [pair(even), pair(extra), pair(even)]
    perf_ab.summarize(pairs, METRICS[:1], trace=0)
    main, matched = capsys.readouterr().out.split(
        "pass-matched: the 2 pairs whose two runs measured the same number of passes"
    )
    assert "pass counts differ on 1/3 pairs" in main
    assert wins_column(main.split("digests equal")[0]) == "2/3"
    assert wins_column(matched) == "2/2"

    perf_ab.summarize([pairs[0], pairs[2]], METRICS[:1], trace=0)
    out = capsys.readouterr().out
    assert "pass counts differ on 0/2 pairs" in out
    assert "pass-matched" not in out


def git(repo, *args):
    return subprocess.run(
        ["git", *args], cwd=repo, check=True, capture_output=True, text=True
    ).stdout.strip()


def scratch_repo(root):
    """A one-commit repository with ``src/mod.py``; returns its HEAD."""
    (root / "src").mkdir(parents=True)
    git(root, "init", "-q")
    git(root, "config", "user.name", "perf-ab test")
    git(root, "config", "user.email", "perf-ab@example.invalid")
    (root / "src" / "mod.py").write_text("VALUE = 1\n")
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", "base")
    return git(root, "rev-parse", "HEAD")


def test_trees_sit_at_equal_length_paths_and_carry_uncommitted_edits(tmp_path):
    repo = tmp_path / "repo"
    base = scratch_repo(repo)
    (repo / "src" / "mod.py").write_text("VALUE = 2\n")  # not committed
    trees = perf_ab.tree_paths(tmp_path / "ab")
    try:
        perf_ab.check_out(trees, base, repo)
        assert len(str(trees["base"])) == len(str(trees["change"]))
        assert (trees["base"] / "src" / "mod.py").read_text() == "VALUE = 1\n"
        assert (trees["change"] / "src" / "mod.py").read_text() == "VALUE = 2\n"
    finally:
        perf_ab.remove_trees(trees, repo)
    assert not trees["base"].exists() and not trees["change"].exists()
    # The edit stays uncommitted in the checkout.
    assert git(repo, "status", "--porcelain") == "M src/mod.py"


def test_clean_checkout_runs_head_as_the_change(tmp_path):
    repo = tmp_path / "repo"
    base = scratch_repo(repo)
    trees = perf_ab.tree_paths(tmp_path / "ab")
    try:
        perf_ab.check_out(trees, base, repo)
        assert git(trees["change"], "rev-parse", "HEAD") == base
    finally:
        perf_ab.remove_trees(trees, repo)


def test_untracked_source_files_are_named(tmp_path):
    repo = tmp_path / "repo"
    scratch_repo(repo)
    (repo / "src" / "new.py").write_text("")
    (repo / "notes.txt").write_text("")  # outside src/ and perfbench/
    assert perf_ab.untracked_sources(repo) == ["src/new.py"]
