"""Run outcomes of generated programs, pinned so a change to the runner
cannot alter behaviour unnoticed.

Each run is a generated program (``GenConfig(seed=s, max_depth=8)``) run
at budget 3,000 with no planted bug or one of ``KNOWN_BUGS``, under each
``--invariant-check`` mode.  ``tests/golden/runs.txt`` holds one line per
run for seeds 0-49; ``test_golden_runs.py`` regenerates the lines and
compares them with the file.

    python tests/golden_runs.py --write    rewrite tests/golden/runs.txt
    python tests/golden_runs.py --digest   print the sha256 over seeds 0-199
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reggio.command import TandemRunner  # noqa: E402
from reggio.fuzz import GenConfig, generate  # noqa: E402
from reggio.machine import KNOWN_BUGS  # noqa: E402

RUNS_TXT = Path(__file__).parent / "golden" / "runs.txt"
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


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        RUNS_TXT.write_text("\n".join(run_lines()) + "\n")
    elif sys.argv[1:] == ["--digest"]:
        print(digest())
    else:
        raise SystemExit(__doc__)
