"""Run outcomes of generated programs, pinned so a change to the runner
cannot alter behaviour unnoticed.

Each run is a generated program (``GenConfig(seed=s, max_depth=8)``) run
at budget 3,000 with no planted bug or one of ``KNOWN_BUGS``, under each
``--invariant-check`` mode.  ``tests/golden/runs.txt`` holds one line per
run for seeds 0-49; ``test_golden_runs.py`` regenerates the lines and
compares them with the file.

``tests/golden/effect_wf.digest`` pins effect well-formedness on its own:
the sha256 over every ``check_effect_wf`` call of the each-step runs with
no planted bug over seeds 0-49, each the effect and the evolved context
stack or None.

    python tests/golden_runs.py --write    rewrite both golden files
    python tests/golden_runs.py --digest   print the sha256 over seeds 0-199,
                                           pinned in tests/golden/runs.digest
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reggio import invariants  # noqa: E402
from reggio.command import TandemRunner  # noqa: E402
from reggio.fuzz import GenConfig, generate  # noqa: E402
from reggio.machine import KNOWN_BUGS  # noqa: E402

RUNS_TXT = Path(__file__).parent / "golden" / "runs.txt"
EFFECT_WF_DIGEST = Path(__file__).parent / "golden" / "effect_wf.digest"
GOLDEN_SEEDS = range(50)
DIGEST_SEEDS = range(200)
BUDGET = 3_000
MODES = ("off", "final", "each-step")
BUG_SETS = [frozenset()] + [frozenset({b}) for b in sorted(KNOWN_BUGS)]


def runs(seeds):
    """(seed, bugs, mode, result) for every run over seeds, in order."""
    for seed in seeds:
        prog = generate(GenConfig(seed=seed, max_depth=8))
        for bugs in BUG_SETS:
            for mode in MODES:
                result = TandemRunner(prog, check=mode, budget=BUDGET,
                                      bugs=bugs).run()
                yield seed, bugs, mode, result


def run_lines(seeds=GOLDEN_SEEDS) -> list[str]:
    """One tab-separated line per run: seed, bug (or -), mode, verdict,
    steps, the detail as JSON, and the sha256 of the sorted-key JSON
    report."""
    lines = []
    for seed, bugs, mode, r in runs(seeds):
        report = json.dumps(r.report, sort_keys=True).encode()
        lines.append("\t".join((
            str(seed), ",".join(sorted(bugs)) or "-", mode, r.verdict.value,
            str(r.steps), json.dumps(r.detail),
            hashlib.sha256(report).hexdigest())))
    return lines


def digest(seeds=DIGEST_SEEDS) -> str:
    """One sha256 over every run's JSON record, in run order."""
    h = hashlib.sha256()
    for seed, bugs, mode, r in runs(seeds):
        h.update(json.dumps([seed, sorted(bugs), mode, r.verdict.value,
                             r.steps, r.detail, r.report],
                            sort_keys=True).encode())
    return h.hexdigest()


def effect_wf_digest(seeds=GOLDEN_SEEDS) -> str:
    """One sha256 over every check_effect_wf call of the each-step runs
    with no planted bug: the effect, then the evolved stack's contexts as
    sorted (name, binding) lists, or None."""
    h = hashlib.sha256()
    evolve = invariants.check_effect_wf

    def recorded(gammas, eff, classes):
        out = evolve(gammas, eff, classes)
        frames = None if out is None else [sorted(g.items())
                                           for g in out.frames]
        h.update(repr((eff, frames)).encode())
        return out

    invariants.check_effect_wf = recorded
    try:
        for seed in seeds:
            prog = generate(GenConfig(seed=seed, max_depth=8))
            TandemRunner(prog, check="each-step", budget=BUDGET).run()
    finally:
        invariants.check_effect_wf = evolve
    return h.hexdigest()


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        RUNS_TXT.write_text("\n".join(run_lines()) + "\n")
        EFFECT_WF_DIGEST.write_text(effect_wf_digest() + "\n")
    elif sys.argv[1:] == ["--digest"]:
        print(digest())
    else:
        raise SystemExit(__doc__)
