"""Behaviour is pinned: 1,050 generated runs match tests/golden/runs.txt,
and effect well-formedness over seeds 0-49 matches its golden digest."""
from golden_runs import EFFECT_WF_DIGEST, RUNS_TXT, effect_wf_digest, run_lines


def test_runs_match_golden():
    want = RUNS_TXT.read_text().splitlines()
    got = run_lines()
    diff = [(w, g) for w, g in zip(want, got) if w != g]
    assert not diff, f"{len(diff)} runs differ; first: {diff[0]}"
    assert len(got) == len(want) == 1050


def test_effect_wf_matches_golden_digest():
    assert effect_wf_digest() == EFFECT_WF_DIGEST.read_text().strip()
