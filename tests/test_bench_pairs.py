"""The verdict rule of tools/bench_pairs.py, on synthetic run lists."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

# Ten parent runs with a tight spread: quartiles 0.99 and 1.01.
PARENT = [0.98, 0.99, 0.99, 1.0, 1.0, 1.0, 1.0, 1.01, 1.01, 1.02]


def test_gain_needs_nine_wins_and_a_median_gap_wider_than_the_parent_spread():
    after = [v - 0.3 for v in PARENT]
    assert verdict(PARENT, after, 0.25) == "gain"
    # Nine wins of ten still count; eight do not.
    nine = after[:9] + [PARENT[9] + 0.1]
    assert verdict(PARENT, nine, 0.25) == "gain"
    eight = after[:8] + [v + 0.1 for v in PARENT[8:]]
    assert verdict(PARENT, eight, 0.25) == "no change"


def test_ties_count_for_neither_side():
    after = list(PARENT)
    after[:8] = [v - 0.3 for v in PARENT[:8]]  # eight wins, two ties
    assert verdict(PARENT, after, 0.25) == "no change"


def test_ten_narrow_wins_are_no_gain():
    """Every pair won, but by less than the parent's interquartile range."""
    after = [v - 0.001 for v in PARENT]
    assert verdict(PARENT, after, 0.25) == "no change"


def test_regression_past_the_bound():
    assert verdict(PARENT, [v * 1.3 for v in PARENT], 0.25) == "regression"
    assert verdict(PARENT, [v * 1.2 for v in PARENT], 0.25) == "no change"


def test_wide_parent_spread_is_unresolved_unless_every_run_is_better():
    wide = [0.5, 0.6, 0.7, 0.8, 1.0, 1.0, 1.2, 1.4, 1.5, 1.6]
    assert verdict(wide, [v * 1.05 for v in wide], 0.25) == "unresolved"
    assert verdict(wide, [0.45] * 10, 0.25) == "no change"


@pytest.mark.parametrize("bound", [0.1, 0.25])
def test_identical_runs_are_no_change(bound):
    assert verdict(PARENT, list(PARENT), bound) == "no change"


STUB_RUN = """\
import json, sys
print(json.dumps({{"correct": {correct}, "attempted": 1, "failed": {failed},
                  "metrics": {{"sim_s": {{"value": 1.0, "unit": "s"}}}}}}))
sys.exit({status})
"""


def _stub_checkout(path, correct=True, status=0):
    """A checkout whose bench/run.py prints one fixed result line and exits."""
    (path / "bench").mkdir(parents=True)
    (path / "bench" / "run.py").write_text(
        STUB_RUN.format(correct=correct, failed=int(not correct), status=status)
    )
    (path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "sim_s", "better": "lower", "bound": 0.25}]}'
    )
    return path


@pytest.mark.parametrize(
    "correct, status", [(False, 1), (False, 0), (True, 1)], ids=["wrong-exit-1", "wrong-exit-0", "exit-1"]
)
def test_a_bad_run_stops_the_comparison(tmp_path, capsys, correct, status):
    """A run that exits non-zero or reports wrong outputs does not feed the
    medians: the comparison stops and names the checkout, workload and pair."""
    good = _stub_checkout(tmp_path / "good")
    bad = _stub_checkout(tmp_path / "bad", correct=correct, status=status)
    out = tmp_path / "out.json"
    argv = ["--before", str(good), "--after", str(bad), "--pairs", "2", "--workload", "team"]
    assert bench_pairs.main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert any(line.startswith(f"error: {bad}: workload team, pair 0: exit status {status}") for line in err)
    assert not out.exists()


def test_good_runs_are_summarised(tmp_path):
    good = _stub_checkout(tmp_path / "good")
    out = tmp_path / "out.json"
    argv = ["--before", str(good), "--after", str(good), "--pairs", "2", "--workload", "team"]
    assert bench_pairs.main(argv + ["--out", str(out)]) == 0
    sim = json.loads(out.read_text())["workloads"]["team"]["metrics"]["sim_s"]
    assert sim["verdict"] == "no change" and sim["after"]["values"] == [1.0, 1.0]


STUB_TRACED_RUN = """\
import json, sys
from pathlib import Path
# The k-th run of this checkout, counted in a file beside it.
seen = Path("runs.txt")
k = int(seen.read_text()) if seen.exists() else 0
seen.write_text(str(k + 1))
metrics = {{"sim_s": {{"value": 1.0, "unit": "s"}}}}
if "--trace" in sys.argv:
    metrics = {{"x.calls": {{"value": {calls}, "unit": "count"}},
               "x.self_s": {{"value": [1.0, 3.0, 2.0][k % 3], "unit": "s"}}}}
print(json.dumps({{"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}}))
"""


def _traced_checkout(path, calls):
    """A checkout whose traced runs read `calls` (a Python expression in
    the run's index k) calls and a self time that differs from run to run."""
    _stub_checkout(path)
    (path / "bench" / "run.py").write_text(STUB_TRACED_RUN.format(calls=calls))
    (path / "BENCHMARK.json").write_text(
        json.dumps(
            {
                "end_to_end": [{"name": "sim_s", "better": "lower", "bound": 0.25}],
                "per_layer": [
                    {"name": "x.calls", "unit": "count", "better": "lower"},
                    {"name": "x.self_s", "unit": "s", "better": "lower"},
                ],
            }
        )
    )
    return path


def _traced_argv(before, after, out):
    return ["--before", str(before), "--after", str(after), "--pairs", "2", "--workload", "team",
            "--trace", "--out", str(out)]


def test_traced_runs_report_the_median_timing_and_the_one_count(tmp_path):
    before = _traced_checkout(tmp_path / "before", "7")
    after = _traced_checkout(tmp_path / "after", "7")
    out = tmp_path / "out.json"
    assert bench_pairs.main(_traced_argv(before, after, out)) == 0
    per_layer = json.loads(out.read_text())["workloads"]["team"]["per_layer"]
    assert per_layer == {side: {"x.calls": 7, "x.self_s": 2.0} for side in ("before", "after")}
    # Two untraced runs and TRACE_RUNS traced runs per side.
    assert (after / "runs.txt").read_text() == str(2 + bench_pairs.TRACE_RUNS)


def test_a_count_that_differs_between_traced_runs_stops_the_comparison(tmp_path, capsys):
    before = _traced_checkout(tmp_path / "before", "7")
    after = _traced_checkout(tmp_path / "after", "k")
    out = tmp_path / "out.json"
    assert bench_pairs.main(_traced_argv(before, after, out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert f"error: {after}: workload team: x.calls differs between traced runs: [2, 3, 4]" in err
    assert not out.exists()


def _committed(repo):
    """Commit everything in `repo` as a new git checkout; return its HEAD."""
    git = ["git", "-c", "user.name=stub", "-c", "user.email=stub@example.com", "-C", str(repo)]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "stub"]):
        subprocess.run(git + args, check=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, check=True)
    return head.stdout.strip()


def _checkouts(before, after, out):
    argv = ["--before", str(before), "--after", str(after), "--pairs", "2", "--workload", "team"]
    assert bench_pairs.main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text())["checkouts"]


def test_the_report_names_each_checkout(tmp_path):
    """The report records each side's commit and whether its tree is clean,
    and null for a directory that is not the top of a git checkout."""
    repo = _stub_checkout(tmp_path / "repo")
    head = _committed(repo)
    plain = _stub_checkout(tmp_path / "plain")
    out = tmp_path / "out.json"
    clean = {"head": head, "clean": True, "src_lines": None}
    assert _checkouts(plain, repo, out) == {"before": None, "after": clean}
    # A stub inside the checkout: untracked there, and not a checkout itself.
    nested = _stub_checkout(repo / "nested")
    assert _checkouts(repo, nested, out) == {"before": {**clean, "clean": False}, "after": None}


def test_the_report_counts_each_checkouts_source_lines(tmp_path):
    """src_lines is what `wc -l src/ttlab/*.py` totals: newlines in the
    package's own modules, not in its subdirectories or other files."""
    repo = _stub_checkout(tmp_path / "repo")
    src = repo / "src" / "ttlab"
    (src / "data").mkdir(parents=True)
    (src / "a.py").write_text("x = 1\ny = 2\n\n")
    (src / "b.py").write_text("z = 3\nw = 4")  # the last line has no newline
    (src / "notes.txt").write_text("not\ncounted\n")
    (src / "data" / "c.py").write_text("not = 'counted'\n")
    head = _committed(repo)
    bare = _stub_checkout(tmp_path / "bare")
    bare_head = _committed(bare)
    assert _checkouts(bare, repo, tmp_path / "out.json") == {
        "before": {"head": bare_head, "clean": True, "src_lines": None},
        "after": {"head": head, "clean": True, "src_lines": 4},
    }
