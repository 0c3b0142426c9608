"""Behaviour is pinned: 1,050 generated runs match tests/golden/runs.txt."""
from golden_runs import RUNS_TXT, run_lines


def test_runs_match_golden():
    want = RUNS_TXT.read_text().splitlines()
    got = run_lines()
    diff = [(w, g) for w, g in zip(want, got) if w != g]
    assert not diff, f"{len(diff)} runs differ; first: {diff[0]}"
    assert len(got) == len(want) == 1050
