"""Behaviour is pinned: 1,050 generated runs match tests/golden/runs.txt,
effect well-formedness over seeds 0-49 matches its golden digest, and so
do the generated programs and the bug hunts' witnesses."""
from golden_runs import (EFFECT_WF_DIGEST, PROGRAMS_DIGEST, RUNS_TXT,
                         WITNESSES_DIGEST, effect_wf_digest, programs_digest,
                         run_lines, witnesses_digest)


def test_runs_match_golden():
    want = RUNS_TXT.read_text().splitlines()
    got = run_lines()
    diff = [(w, g) for w, g in zip(want, got) if w != g]
    assert not diff, f"{len(diff)} runs differ; first: {diff[0]}"
    assert len(got) == len(want) == 1050


def test_effect_wf_matches_golden_digest():
    assert effect_wf_digest() == EFFECT_WF_DIGEST.read_text().strip()


def test_generated_programs_match_golden_digest():
    assert programs_digest() == PROGRAMS_DIGEST.read_text().strip()


def test_witnesses_match_golden_digest():
    assert witnesses_digest() == WITNESSES_DIGEST.read_text().strip()
